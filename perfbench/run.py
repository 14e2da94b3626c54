"""mildito benchmark: time to verdict on four workloads.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ou_criterion1 --seed 0 --seconds 20 --trace 0

Every run starts a fresh interpreter (``worker.py``) that imports mildito
from ``src/``, builds the workload's inputs from the seed, makes one small
untimed warm-up call, then repeats the workload for ``--seconds`` and
checks every result.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics, taken from spans recorded around calls into
mildito's public functions.  The line before it carries the machine
block, the individual samples and whether references were compared.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ou_criterion1", "nonlinear_eval", "gamma_lp", "suite_all")
# extra interpreters started only to time set-up; with the measuring one
# set-up is the median of three
SETUP_REPEATS = 2
DEADLINE_S = 170.0


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's end_to_end or per_layer metrics."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def spawn(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--references", args.references,
           "--out", args.out, *extra]
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: worker ran out of time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # for the self-test: smaller sizes and its own reference file
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--references", default=os.path.join(HERE, "references.json"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "mildito", "__init__.py")):
        print("perfbench: run from the root of a mildito checkout "
              "(src/mildito is missing here)", file=sys.stderr)
        return 2

    args.out = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(args.out, exist_ok=True)
    if args.trace:
        result = spawn(args, [], deadline)
        values = {**result["layers"], **result["layers_cli"]}
        names = metric_units("per_layer")
        info = {"untraced_s": result["untraced"], "traced_s": result["traced"],
                "spans": os.path.relpath(result["spans"])}
    else:
        setups = [spawn(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        result = spawn(args, [], deadline)
        setups.append(result["setup_s"])
        values = {"wall_s": statistics.median(result["samples"]) if result["samples"] else 0.0,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        names = metric_units("end_to_end")
        info = {"wall_s_samples": result["samples"], "wall_s_count": len(result["samples"]),
                "setup_s_all": setups}
    for leftover in os.listdir(args.out):
        if leftover.startswith("suite-"):
            shutil.rmtree(os.path.join(args.out, leftover), ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    if failed:
        # a run that raised may not have reached every metric
        values = {name: values.get(name, 0.0) for name in names}
    info.update(workload_seed=result["workload_seed"], reference=result["reference"],
                fail_ratio=failed / attempted if attempted else 1.0,
                machine=result["machine"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
