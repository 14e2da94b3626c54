"""In-memory spans around calls into mildito's public functions.

``Tracer.install()`` swaps each wrapped function for a recording wrapper
in every mildito module namespace that holds it (so names a caller
imported with ``from .x import y`` are wrapped where that caller looks
them up) and ``Tracer.uninstall()`` puts the originals back.  Nothing
under ``src/`` is edited; with the tracer uninstalled the program runs
exactly as shipped.

A span is (name, start, end, parent, iteration, thread, count).  Spans are
only appended to a list while the workload runs; ``layer_metrics`` turns
the spans of one iteration into the per-layer metrics afterwards.
"""

import dataclasses
import hashlib
import inspect
import math
import sys
import threading
import time

import numpy as np

_clock = time.perf_counter

NEMYTSKII_FUNCTIONS = (
    "get_field", "nemytskii_apply", "nemytskii_derivative", "holder_bound_iii",
    "lipschitz_bound_iv", "lipschitz_bound_v", "diffusion_apply",
    "diffusion_derivative", "diffusion_norm_bound", "diffusion_lipschitz_bound",
)
SUITE_NAMES = ("gamma", "nemytskii", "simulate", "ito", "dynkin", "weak")


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "thread", "count")

    def __init__(self, name, start, parent, iteration, thread, count):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.iteration = iteration
        self.thread = thread
        self.count = count


class Tracer:
    def __init__(self):
        self.spans = []
        self.iteration = 0
        self.ensemble_keys = []          # (iteration, key, chunk_bytes) per march
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, count=0):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to whatever the
            # main thread has open (the ensemble that started the pool)
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, 0.0, parent, self.iteration, threading.get_ident(), count)
        self.spans.append(span)
        stack.append(span)
        span.start = _clock()
        return span

    def close(self, span):
        span.end = _clock()
        self._stack().pop()

    def wrap(self, fn, name, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs)`` sizes it."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, 0 if count is None else count(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    # -- spec / test-function wrapping -------------------------------------

    def wrap_spec(self, spec):
        changes = {}
        if spec.drift is not None:
            changes["drift"] = self.wrap(spec.drift, "process.drift")
        if spec.diffusion is not None:
            changes["diffusion"] = self.wrap(spec.diffusion, "process.diffusion")
        return dataclasses.replace(spec, **changes) if changes else spec

    def wrap_phi(self, phi):
        changes = {"value": self.wrap(phi.value, "testfunctions.value"),
                   "d1": self.wrap(phi.d1, "testfunctions.d1")}
        if phi.trace is not None:
            changes["trace"] = self.wrap(phi.trace, "testfunctions.trace")
        return dataclasses.replace(phi, **changes)

    # -- installation --------------------------------------------------------

    def install(self):
        from mildito import calculus, cli, gamma, nemytskii, process, suites

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mildito" or name.startswith("mildito.")]
        tracer = self

        def everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        path_rng = process.path_rng

        def traced_path_rng(seed, path_index):
            span = tracer.open("process.rng.construct")
            try:
                gen = path_rng(seed, path_index)
            finally:
                tracer.close(span)
            return TracedGenerator(gen, tracer)

        everywhere(path_rng, traced_path_rng)

        run_ensemble = calculus.run_ensemble
        ensemble_sig = inspect.signature(run_ensemble)

        def traced_run_ensemble(*args, **kwargs):
            bound = ensemble_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n_paths = a["n_paths"] if a["increments"] is None else a["increments"].shape[0]
            span = tracer.open("calculus.ensemble", n_paths * a["grid"].steps)
            try:
                tracer._note_march(a)
                a["phi"] = tracer.wrap_phi(a["phi"])
                a["spec"] = tracer.wrap_spec(a["spec"])
                return run_ensemble(*bound.args, **bound.kwargs)
            finally:
                tracer.close(span)

        everywhere(run_ensemble, traced_run_ensemble)

        simulate = process.simulate

        def traced_simulate(spec, grid, w):
            span = tracer.open("process.simulate", grid.steps)
            try:
                return simulate(tracer.wrap_spec(spec), grid, w)
            finally:
                tracer.close(span)

        everywhere(simulate, traced_simulate)
        everywhere(process.step_kernels,
                   self.wrap(process.step_kernels, "process.step_kernels"))
        everywhere(gamma.gamma_norm_mc,
                   self.wrap(gamma.gamma_norm_mc, "gamma.mc", _mc_samples))
        for name in NEMYTSKII_FUNCTIONS:
            fn = getattr(nemytskii, name)
            everywhere(fn, self.wrap(fn, "nemytskii"))
        for name in ("render_report", "render_summary"):
            fn = getattr(cli, name)
            everywhere(fn, self.wrap(fn, "cli.render"))
        for name in SUITE_NAMES:
            self._patches.append((suites.SUITES, name, suites.SUITES[name]))
            suites.SUITES[name] = self.wrap(suites.SUITES[name], f"suites.{name}")

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches = []

    def _note_march(self, a):
        """Record the (spec, grid, seed, paths) key and the chunk's block size."""
        from mildito.calculus import CHUNK_SIZE

        spec, grid = a["spec"], a["grid"]
        if a["increments"] is None:
            paths_key = ("keyed", a["seed"], a["n_paths"])
            n_paths = a["n_paths"]
        else:
            inc = np.asarray(a["increments"])
            sample = inc.flat[::997]
            paths_key = ("explicit", inc.shape,
                         hashlib.sha1(sample.tobytes()).hexdigest())
            n_paths = inc.shape[0]
        diag = spec.diffusion_diagonal
        key = (spec.label, spec.n_modes, spec.k_modes, spec.state_dependent,
               repr(spec.family), spec.initial.coeffs.tobytes(),
               None if diag is None else np.asarray(diag).tobytes(),
               spec.drift is None, spec.diffusion is None,
               grid.start, grid.terminal, grid.steps, paths_key)
        chunk_bytes = grid.steps * min(CHUNK_SIZE, n_paths) * spec.k_modes * 8
        self.ensemble_keys.append((self.iteration, key, chunk_bytes))


def _mc_samples(args, kwargs):
    return int(kwargs["samples"] if "samples" in kwargs else args[1])


def _normals(args, kwargs):
    out = kwargs.get("out")
    if out is not None:
        return int(out.size)
    size = kwargs.get("size", args[0] if args else None)
    if size is None:
        return 1
    return int(np.prod(size))


class TracedGenerator:
    """Generator proxy recording a span around each ``standard_normal`` fill."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        span = self._tracer.open("process.rng.fill", _normals(args, kwargs))
        try:
            return self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._gen, name)


# ---------------------------------------------------------------------------
# metrics from the spans of one iteration
# ---------------------------------------------------------------------------

def _union(intervals):
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(spans, keys, wall):
    """Per-layer metrics of one iteration's spans (all closed) and wall time."""
    children = {}
    for span in spans:
        children.setdefault(id(span.parent), []).append(span)

    def inclusive(name):
        """Time covered by ``name`` spans; nested ones (lipschitz_bound_iv
        calls nemytskii_derivative) are not counted twice."""
        return _union([(s.start, s.end) for s in spans if s.name == name])

    def calls(name):
        return sum(1 for span in spans if span.name == name)

    def counted(name):
        return sum(span.count for span in spans if span.name == name)

    def self_time(name):
        total = 0.0
        for span in spans:
            if span.name == name:
                kids = [(max(k.start, span.start), min(k.end, span.end))
                        for k in children.get(id(span), ())]
                total += (span.end - span.start) - _union(kids)
        return total

    normals = counted("process.rng.fill")
    fill_s = inclusive("process.rng.fill")
    ens_s = inclusive("calculus.ensemble")
    path_steps = counted("calculus.ensemble")
    marches = calls("calculus.ensemble")
    unique = len({key for _, key, _ in keys})
    mc_samples = counted("gamma.mc")
    mc_s = inclusive("gamma.mc")
    top = [(s.start, s.end) for s in spans if s.parent is None]
    m = {
        "process.rng.normals": normals,
        "process.rng.streams": calls("process.rng.construct"),
        "process.rng.fill_s": fill_s,
        "process.rng.construct_s": inclusive("process.rng.construct"),
        "process.rng.normals_per_s": normals / fill_s if fill_s > 0 else 0.0,
        "calculus.ensemble.marches": marches,
        "calculus.ensemble.unique_keys": unique,
        "calculus.ensemble.unique_ratio": unique / marches if marches else 0.0,
        "calculus.ensemble.path_steps": path_steps,
        "calculus.ensemble.s": ens_s,
        "calculus.ensemble.self_s": self_time("calculus.ensemble"),
        "calculus.ensemble.path_steps_per_s": path_steps / ens_s if ens_s > 0 else 0.0,
        "calculus.ensemble.threads": len({s.thread for s in spans
                                          if s.name.startswith("process.rng.")}),
        "calculus.increment_bytes_per_chunk": max((b for _, _, b in keys), default=0),
        "gamma.mc.calls": calls("gamma.mc"),
        "gamma.mc.samples": mc_samples,
        "gamma.mc.s": mc_s,
        "gamma.mc.samples_per_s": mc_samples / mc_s if mc_s > 0 else 0.0,
        "nemytskii.calls": calls("nemytskii"),
        "nemytskii.s": inclusive("nemytskii"),
        "trace.coverage": _union(top) / wall if wall > 0 else 0.0,
    }
    for name in ("testfunctions.value", "testfunctions.d1", "testfunctions.trace",
                 "process.drift", "process.diffusion", "process.step_kernels",
                 "process.simulate"):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = inclusive(name)
    for name in SUITE_NAMES:
        m[f"suites.{name}.s"] = inclusive(f"suites.{name}")
    return m


# counts must repeat exactly between iterations and runs; the rest are times
COUNT_METRICS = frozenset((
    "process.rng.normals", "process.rng.streams", "calculus.ensemble.marches",
    "calculus.ensemble.unique_keys", "calculus.ensemble.unique_ratio",
    "calculus.ensemble.path_steps", "calculus.ensemble.threads",
    "calculus.increment_bytes_per_chunk", "gamma.mc.calls", "gamma.mc.samples",
    "nemytskii.calls", "testfunctions.value.calls", "testfunctions.d1.calls",
    "testfunctions.trace.calls", "process.drift.calls", "process.diffusion.calls",
    "process.step_kernels.calls", "process.simulate.calls",
    "spectral.sine_matrix.misses",
))
