"""The four benchmark workloads, built only from mildito's public API.

Each workload turns a seed into inputs (``build``, given a scratch
directory inside the checkout), makes one small
untimed call that loads the same code paths (``warmup``) and runs one
timed iteration (``run``) that returns its checks.  A check is
(name, passed, values): ``passed`` is the oracle verdict, ``values`` the
numbers compared against the references recorded at the pinned seeds.

Sizes are scaled down from the problems they stand for so that one
iteration takes a few seconds on a 2-core machine and a run holds
several iterations; the chunk shapes (2048 paths per chunk, 400 steps,
K = 32) are kept, so the per-chunk memory is that of the full problem.
"""

import csv
import io
import math
import os
import shutil
import tempfile

import numpy as np

# Harness oracles use 5 standard errors: the benchmark evaluates them on
# many seeds, and at 3 they would fail by chance once in ~370 checks.
Z = 5.0

SIZES = {
    "full": {
        "ou_paths": 8192, "ou_steps": 400,
        "nl_paths": (512, 512, 256), "nl_steps": (200, 200, 50),
        "gamma_samples": 80_000, "hr_samples": 20_000,
        "suite_args": ("all", "--paths", "512", "--M_t", "20"),
    },
    # the harness self-test: same code paths, seconds in total
    "tiny": {
        "ou_paths": 64, "ou_steps": 20,
        "nl_paths": (16, 16, 8), "nl_steps": (10, 10, 5),
        "gamma_samples": 2000, "hr_samples": 2000,
        "suite_args": ("simulate", "--paths", "64", "--M_t", "8"),
    },
}


class Check:
    __slots__ = ("name", "passed", "values")

    def __init__(self, name, passed, values):
        self.name = name
        self.passed = bool(passed)
        self.values = {k: float(v) for k, v in values.items()}


class OuCriterion1:
    """Acceptance criterion 1: OU second moment through both Dynkin sides."""

    name = "ou_criterion1"

    def __init__(self, size):
        self.paths = size["ou_paths"]
        self.steps = size["ou_steps"]

    def build(self, seed, scratch):
        from mildito import TimeGrid, heat_family, ou_spec, squared_norm
        from mildito.spectral import eigenvalues

        rho = eigenvalues(32)
        return {
            "seed": seed,
            "phi": squared_norm(),
            "spec": ou_spec(heat_family(0.0, 0.1), 32, 32),
            "grid": TimeGrid(0.0, 0.1, self.steps),
            "closed": float(np.sum((1.0 - np.exp(-2.0 * rho * 0.1)) / (2.0 * rho))),
        }

    def warmup(self, ctx):
        from mildito import TimeGrid, dynkin_gap

        dynkin_gap(ctx["phi"], ctx["spec"], TimeGrid(0.0, 0.1, 4), paths=16,
                   seed=ctx["seed"])

    def run(self, ctx):
        from mildito import dynkin_gap

        res = dynkin_gap(ctx["phi"], ctx["spec"], ctx["grid"], paths=self.paths,
                         seed=ctx["seed"])
        closed = ctx["closed"]
        lhs, rhs, gap = float(res.lhs[0]), float(res.rhs[0]), float(res.gap[0])
        se_l, se_r, se_g = (float(res.stderr_lhs[0]), float(res.stderr_rhs[0]),
                            float(res.stderr_gap[0]))
        return [
            Check("lhs_vs_closed_form", abs(lhs - closed) <= max(Z * se_l, 0.01 * closed),
                  {"lhs": lhs, "stderr": se_l}),
            Check("rhs_vs_closed_form", abs(rhs - closed) <= max(Z * se_r, 0.01 * closed),
                  {"rhs": rhs, "stderr": se_r}),
            Check("gap", abs(gap) <= Z * se_g, {"gap": gap, "stderr": se_g}),
        ]


class NonlinearEval:
    """The three non-OU shipped configurations of ``suites._shipped_configs``."""

    name = "nonlinear_eval"

    def __init__(self, size):
        self.paths = size["nl_paths"]
        self.steps = size["nl_steps"]

    def build(self, seed, scratch):
        from mildito import (SineBasisVector, TimeGrid, get_field, heat_family,
                             integral_functional, nemytskii_drift_spec,
                             smoothed_norm, squared_norm, state_diffusion_spec)

        fam = heat_family(0.0, 0.1)
        field = get_field("tanh")
        f0 = field.derivatives[0]
        bumps = SineBasisVector(0.8 / np.arange(1, 11))
        tanh_drift = nemytskii_drift_spec(f0, fam, 16, 16, 128, label="tanh_drift")
        configs = [
            (squared_norm(), tanh_drift),
            (integral_functional(field), tanh_drift),
            (smoothed_norm(), state_diffusion_spec(f0, fam, 10, 10, 80, initial=bumps)),
        ]
        return {"seed": seed, "configs": [
            (phi, spec, TimeGrid(0.0, 0.1, steps), paths)
            for (phi, spec), steps, paths in zip(configs, self.steps, self.paths)]}

    def warmup(self, ctx):
        from mildito import TimeGrid, martingale_check, weak_estimate_gap

        for phi, spec, _, _ in ctx["configs"]:
            grid = TimeGrid(0.0, 0.1, 4)
            martingale_check(phi, spec, grid, paths=4, seed=ctx["seed"])
            weak_estimate_gap(phi, spec, grid, paths=4, seed=ctx["seed"])

    def run(self, ctx):
        from mildito import martingale_check, weak_estimate_gap

        checks = []
        for i, (phi, spec, grid, paths) in enumerate(ctx["configs"]):
            tag = f"{i}_{spec.label}_{phi.name}"
            mean, se = martingale_check(phi, spec, grid, paths=paths, seed=ctx["seed"])
            mean, se = float(mean[0]), float(se[0])
            checks.append(Check(f"martingale/{tag}", abs(mean) <= Z * se,
                                {"mean": mean, "stderr": se}))
            res = weak_estimate_gap(phi, spec, grid, paths=paths, seed=ctx["seed"])
            values = {"slack": res.slack, "lhs_norm": res.lhs_norm, "rhs": res.rhs,
                      "stderr": res.stderr}
            values.update({f"moment_{k}": v for k, v in res.moments.items()})
            ok = (res.slack >= -Z * res.stderr
                  and all(math.isfinite(v) for v in res.moments.values()))
            checks.append(Check(f"weak/{tag}", ok, values))
        return checks


class GammaLp:
    """Gamma-norm Monte Carlo on L^p (smoothing), V_r (embedding) and H_r."""

    name = "gamma_lp"

    def __init__(self, size):
        self.samples = size["gamma_samples"]
        self.hr_samples = size["hr_samples"]

    def build(self, seed, scratch):
        from mildito import FiniteRankGammaOperator, HrCodomain

        # the H_r oracle operator is an input drawn from the workload seed
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((24, 16)) / np.arange(1, 25)[:, None]
        return {"seed": seed, "hr_op": FiniteRankGammaOperator(cols, HrCodomain(0.25))}

    def warmup(self, ctx):
        self._run(ctx, 1000, 1000)

    def run(self, ctx):
        return self._run(ctx, self.samples, self.hr_samples)

    def _run(self, ctx, samples, hr_samples):
        from mildito import (embedding_bound, gamma_norm_exact, gamma_norm_mc,
                             smoothing_gamma_bound)

        seed = ctx["seed"]
        checks = []
        for j, r in enumerate((0.3, 0.5)):
            res = smoothing_gamma_bound(r, 10.0, n_modes=64, samples=samples,
                                        seed=seed + j)
            checks.append(self._bound(f"smoothing/r={r:g},p=10", res))
        res = embedding_bound(0.0, -0.5, 10.0, n_modes=64, samples=samples,
                              seed=seed + 2)
        checks.append(self._bound("embedding/eps=0,beta=-0.5,p=10", res))
        est, se = gamma_norm_mc(ctx["hr_op"], hr_samples, seed=seed + 3)
        exact = gamma_norm_exact(ctx["hr_op"])
        checks.append(Check("hr_mc_vs_exact", abs(est - exact) <= Z * se,
                            {"estimate": est, "stderr": se, "exact": exact}))
        return checks

    @staticmethod
    def _bound(name, res):
        ok = res["mc_estimate"] <= res["bound"] + Z * res["stderr"]
        return Check(name, ok, {"estimate": res["mc_estimate"],
                                "stderr": res["stderr"], "bound": res["bound"]})


class SuiteAll:
    """``mildito all`` through the CLI entry point, one report per iteration."""

    name = "suite_all"

    def __init__(self, size):
        self.args = size["suite_args"]

    def build(self, seed, scratch):
        out = tempfile.mkdtemp(prefix="suite-", dir=scratch)
        return {"seed": seed, "out": out, "argv": [
            *self.args, "--seed", str(seed), "--out", out]}

    def warmup(self, ctx):
        from mildito.cli import main

        main(["dynkin", "--paths", "16", "--M_t", "4", "--seed", str(ctx["seed"]),
              "--out", ctx["out"]])

    def run(self, ctx):
        from mildito.cli import main

        code = main(ctx["argv"])
        with open(os.path.join(ctx["out"], "report.csv"), "rb") as fh:
            data = fh.read()
        ctx["report"] = data
        checks = report_checks(data)
        if code not in (0, 1):
            checks.append(Check("cli_exit_code", False, {"code": code}))
        return checks

    @staticmethod
    def close(ctx):
        shutil.rmtree(ctx["out"], ignore_errors=True)


def report_checks(data):
    """One check per report.csv row; the row's own verdict is the oracle."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    checks, seen = [], {}
    for suite, check_id, lhs, rhs, stderr, tol, verdict in rows[1:]:
        # check ids repeat when a configured pair equals a pinned one
        # (gamma/embedding_bound/eps=0,beta=-0.5 at the default config)
        name = f"{suite}/{check_id}"
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name = f"{name}#{seen[name]}"
        checks.append(Check(name, verdict == "pass",
                            {"lhs": float(lhs), "rhs": float(rhs),
                             "stderr": float(stderr), "tolerance": float(tol)}))
    return checks


WORKLOADS = {cls.name: cls for cls in (OuCriterion1, NonlinearEval, GammaLp, SuiteAll)}
