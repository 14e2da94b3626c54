"""Fast self-test of the harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it records tiny
references at seed 0, then checks that

* a run with ``--trace 0`` and one with ``--trace 1`` print, as their last
  line, exactly the keys ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with every metric BENCHMARK.json names and its unit, and
  that both pass with their references compared;
* a run against a reference with one value perturbed by 1e-9 (relative)
  counts the mismatch in ``failed`` and reports ``correct`` false;

and that the runner refuses, without a result, a directory that holds
only BENCHMARK.json and the benchmark's files.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

from record import references
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace, refs, cwd=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         "--references", refs],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {kind: {m["name"]: m["unit"] for m in bench[kind]}
             for kind in ("end_to_end", "per_layer")}
    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads differ from the harness")
    scratch = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        refs = references("tiny", scratch, seeds=(0,))
        good = os.path.join(work, "refs.json")
        with open(good, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)

        for workload in sorted(WORKLOADS):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                info, result = run(workload, trace, good)
                expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                       f"{workload}: result keys {sorted(result)}")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                expect(got == units[kind], f"{workload} trace {trace}: metrics {got}")
                expect(all(isinstance(m["value"], (int, float))
                           for m in result["metrics"].values()), "non-numeric value")
                expect(result["correct"] and result["failed"] == 0
                       and result["attempted"] >= 1, f"{workload}: {result}")
                expect(info["reference"] == "pinned", f"{workload}: {info['reference']}")
            expect(result["metrics"]["bench.reference_checks"]["value"] > 0,
                   f"{workload}: no reference compared")

            bad = copy.deepcopy(refs)
            checks = bad["workloads"][workload]["0"]["checks"]
            first = sorted(checks)[0]
            key = max(checks[first], key=lambda k: abs(checks[first][k]))
            checks[first][key] *= 1 + 1e-9
            perturbed = os.path.join(work, f"perturbed-{workload}.json")
            with open(perturbed, "w", encoding="utf-8") as fh:
                json.dump(bad, fh)
            info, result = run(workload, 0, perturbed)
            expect(not result["correct"] and result["failed"] >= 1
                   and info["fail_ratio"] > 0,
                   f"{workload}: perturbed {first}/{key} not counted: {result}")
            print(f"selftest: {workload} ok ({result['failed']} of "
                  f"{result['attempted']} checks failed against the perturbed value)")

        bare = os.path.join(work, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "gamma_lp", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print("selftest: a directory without the program is refused")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
