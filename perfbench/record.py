"""Record the reference values the benchmark compares against.

    python3 perfbench/record.py            # writes perfbench/references.json

Run from the root of a checkout.  For every workload and pinned seed it
runs one iteration and stores each check's values; for ``suite_all`` the
report comes from a plain ``python3 -m mildito.cli`` run, without the
harness, and its SHA-256 is stored for the byte-identity count.  A check
whose verdict fails is recorded all the same and named on stderr: the
references pin values, and the verdict is judged on every run.  The
machine block is stored with the values: the benchmark compares against
them only on an identical machine.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from worker import machine_block, sizes_key
from workloads import SIZES, WORKLOADS, report_checks

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = tuple(range(16))


def plain_cli_report(argv, scratch):
    out = tempfile.mkdtemp(prefix="record-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    code = subprocess.run([sys.executable, "-m", "mildito.cli", *argv, "--out", out],
                          env=env, stdout=subprocess.DEVNULL).returncode
    with open(os.path.join(out, "report.csv"), "rb") as fh:
        data = fh.read()
    shutil.rmtree(out)
    # exit code 1 means a verdict failed; the report is complete
    if code not in (0, 1):
        raise SystemExit(f"record: mildito {' '.join(argv)} exited with {code}")
    return data


def record(size, scratch, seeds=None):
    """{workload: {seed: entry}} at the pinned seeds, or at ``seeds``."""
    result = {}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name](SIZES[size])
        entries = result[name] = {}
        for seed in PINNED if seeds is None else seeds:
            ctx = workload.build(seed, scratch)
            entry = {}
            if name == "suite_all":
                data = plain_cli_report(ctx["argv"][:-2], scratch)
                workload.close(ctx)
                checks = report_checks(data)
                entry["report_sha256"] = hashlib.sha256(data).hexdigest()
            else:
                checks = workload.run(ctx)
            failed = [c.name for c in checks if not c.passed]
            if failed:
                print(f"record: {name} seed {seed}: verdict fails {failed}",
                      file=sys.stderr)
            entry["checks"] = {c.name: c.values for c in checks}
            entries[str(seed)] = entry
            print(f"record: {name} seed {seed}: {len(checks)} checks", file=sys.stderr)
    return result


def references(size, scratch, seeds=None):
    return {
        "machine": machine_block(),
        "sizes": {size: sizes_key(size)},
        "workloads": record(size, scratch, seeds),
    }


def dumps(data):
    """JSON with one line per (workload, seed) entry."""
    def compact(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    blocks = []
    for name, entries in sorted(data["workloads"].items()):
        rows = ",\n".join(f"   {json.dumps(seed)}: {compact(entry)}"
                           for seed, entry in sorted(entries.items(),
                                                     key=lambda kv: int(kv[0])))
        blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    body = ",\n".join(blocks)
    return (f'{{\n "machine": {compact(data["machine"])},\n'
            f' "sizes": {compact(data["sizes"])},\n'
            f' "workloads": {{\n{body}\n }}\n}}\n')


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    scratch = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    data = references("full", scratch)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
