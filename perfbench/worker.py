"""One benchmark process: set up one workload, time it, check every result.

Started by ``run.py`` in a fresh interpreter per run, so ``setup_s`` and
the peak resident memory belong to that workload alone and no cache
(such as ``sine_matrix``'s ``lru_cache``) carries over from another.
Prints one JSON object as its last stdout line.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from workloads import SIZES, WORKLOADS

RELATIVE_RULE = 1e-12


def now():
    # CLOCK_MONOTONIC is shared by all processes, so the parent's spawn
    # time and the child's clock compare directly
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_block():
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(entry, name):
        with open(os.path.join(base, entry, name), encoding="utf-8") as fh:
            return fh.read().strip()

    try:
        for entry in sorted(os.listdir(base)):
            if read(entry, "type") != "Instruction":
                caches[f"L{read(entry, 'level')}"] = read(entry, "size")
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def sizes_key(size):
    return json.loads(json.dumps(SIZES[size]))


class References:
    """Values recorded at the pinned seeds on one machine.

    Compared only when the machine block and the workload sizes equal the
    recorded ones: results from another machine are not compared.
    """

    def __init__(self, path, workload, seed, size, machine):
        self.checks = None
        self.report_sha256 = None
        self.status = "unpinned"
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            self.status = "missing"
            return
        if data.get("machine") != machine:
            self.status = "other-machine"
            return
        if data.get("sizes", {}).get(size) != sizes_key(size):
            self.status = "other-sizes"
            return
        entry = data.get("workloads", {}).get(workload, {}).get(str(seed))
        if entry is not None:
            self.status = "pinned"
            self.checks = entry["checks"]
            self.report_sha256 = entry.get("report_sha256")

    def matches(self, check):
        """The row-relative rule: every value within 1e-12 of the row's scale."""
        ref = self.checks.get(check.name)
        if ref is None or set(ref) != set(check.values):
            return False
        scale = max((abs(v) for v in ref.values() if math.isfinite(v)), default=0.0)
        for key, want in ref.items():
            got = check.values[key]
            if got == want:
                continue
            if not (math.isfinite(got) and math.isfinite(want)):
                return False
            if abs(got - want) > RELATIVE_RULE * scale:
                return False
        return True


class Tally:
    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        # checks compared against references in one iteration
        self.compared = 0
        self.reports_compared = 0
        self.reports_identical = 0

    def add(self, checks, report=None):
        seen = set()
        self.compared = 0
        for check in checks:
            seen.add(check.name)
            ok = check.passed
            if self.refs.checks is not None:
                self.compared += 1
                if not self.refs.matches(check):
                    print(f"perfbench: {check.name} differs from its reference "
                          f"{self.refs.checks.get(check.name)}: {check.values}",
                          file=sys.stderr)
                    ok = False
            elif not ok:
                print(f"perfbench: check {check.name} failed: {check.values}",
                      file=sys.stderr)
            self.attempted += 1
            self.failed += 0 if ok else 1
        if self.refs.checks is not None:
            missing = set(self.refs.checks) - seen
            for name in sorted(missing):
                print(f"perfbench: reference check {name} was not produced",
                      file=sys.stderr)
            self.attempted += len(missing)
            self.failed += len(missing)
        if report is not None and self.refs.report_sha256 is not None:
            self.reports_compared += 1
            if hashlib.sha256(report).hexdigest() == self.refs.report_sha256:
                self.reports_identical += 1

    def identical_share(self):
        """Share of the compared reports that match the reference byte for byte."""
        if not self.reports_compared:
            return 0.0
        return self.reports_identical / self.reports_compared

    def error(self):
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1


def run_iteration(workload, ctx, tally):
    """Seconds one iteration took, or None when it raised."""
    start = now()
    try:
        checks = workload.run(ctx)
    except Exception:
        tally.error()
        return None
    elapsed = now() - start
    tally.add(checks, ctx.get("report"))
    return elapsed


def measure(workload, ctx, seconds, tally):
    samples = []
    start = now()
    while True:
        elapsed = run_iteration(workload, ctx, tally)
        if elapsed is None:
            break
        samples.append(elapsed)
        if len(samples) >= 3 and now() - start + statistics.median(samples) > seconds:
            break
    return samples


def measure_traced(workload, ctx, seconds, tally, spans_path):
    """Alternate untraced and traced iterations; per-layer metrics of the latter.

    The first full-size iteration runs slower than the rest (fresh memory),
    so it is checked but not timed, keeping the overhead estimate unbiased.
    """
    from mildito.spectral import sine_matrix
    from tracing import COUNT_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, per_iter = [], [], []
    start = now()
    if run_iteration(workload, ctx, tally) is None:
        return untraced, traced, {}
    i = 0
    while True:
        if i % 2 == 0:
            elapsed = run_iteration(workload, ctx, tally)
            if elapsed is None:
                break
            untraced.append(elapsed)
        else:
            tracer.iteration = i
            first = len(tracer.spans)
            misses = sine_matrix.cache_info().misses
            tracer.install()
            try:
                elapsed = run_iteration(workload, ctx, tally)
            finally:
                tracer.uninstall()
            if elapsed is None:
                break
            traced.append(elapsed)
            m = layer_metrics(tracer.spans[first:],
                              [k for k in tracer.ensemble_keys if k[0] == i], elapsed)
            m["spectral.sine_matrix.misses"] = sine_matrix.cache_info().misses - misses
            per_iter.append(m)
        i += 1
        done = now() - start
        if traced and untraced and done + statistics.median(untraced + traced) > seconds:
            break
    write_spans(tracer.spans, spans_path)
    if not per_iter:
        return untraced, traced, {}
    layers = {}
    for name in per_iter[0]:
        values = [m[name] for m in per_iter]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                print(f"perfbench: count {name} differs between traced iterations: "
                      f"{values}", file=sys.stderr)
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    return untraced, traced, layers


def write_spans(spans, path):
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["name", "start", "end", "parent", "iteration", "thread", "count"]\n')
        for s in spans:
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(json.dumps([s.name, s.start, s.end, parent, s.iteration,
                                 s.thread, s.count]) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--references", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import mildito

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(mildito.__file__).startswith(src + os.sep):
        print(f"perfbench: mildito imported from {mildito.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](SIZES[args.size])
    ctx = workload.build(args.seed, args.out)
    try:
        workload.warmup(ctx)
        setup_s = now() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        machine = machine_block()
        refs = References(args.references, args.workload, ctx["seed"], args.size,
                          machine)
        tally = Tally(refs)
        result = {"setup_s": setup_s, "workload_seed": ctx["seed"],
                  "reference": refs.status, "machine": machine}
        if args.trace:
            spans_path = os.path.join(args.out, f"spans-{args.workload}.jsonl")
            untraced, traced, layers = measure_traced(
                workload, ctx, args.seconds, tally, spans_path)
            u = statistics.median(untraced) if untraced else 0.0
            t = statistics.median(traced) if traced else 0.0
            layers["trace.overhead_s"] = t - u
            layers["trace.overhead_share"] = (t - u) / u if u > 0 else 0.0
            result.update(untraced=untraced, traced=traced, layers=layers,
                          spans=spans_path)
        else:
            result["samples"] = measure(workload, ctx, args.seconds, tally)
        report = ctx.get("report")
        result["layers_cli"] = {
            "cli.report_bytes": len(report) if report is not None else 0,
            "cli.report_identical": tally.identical_share(),
            "bench.reference_checks": tally.compared,
        }
        result.update(attempted=tally.attempted, failed=tally.failed,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        if hasattr(workload, "close"):
            workload.close(ctx)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
