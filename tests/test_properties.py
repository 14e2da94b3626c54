"""Property tests of the ensemble engine and of the command line.

``TestEngineProperties`` draws spec shapes (K < N and K > N), spec
families, shipped test functions, stopping rules, collectors, start indices,
step counts and path counts that straddle chunks (``CHUNK_SIZE`` is set to
8 so that straddling is cheap).  ``TestFuzzedConfigs`` runs ``cli.main`` on
drawn small configs of the suites the ensemble plan serves.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildito import calculus, cli, process
from mildito.calculus import EnsembleRequest, StoppingRule
from mildito.nemytskii import FIELD_NAMES
from mildito.process import TimeGrid
from mildito.spectral import SineBasisVector, heat_family
from mildito.testfunctions import (
    TEST_FUNCTION_NAMES,
    coordinate_functional,
    shipped_test_function,
)
from test_calculus import _coarsened_block_orders

SMALL_CHUNK = 8
FAMILIES = ("ou", "tanh_drift", "state_diffusion")
SEEDS = st.integers(0, 2 ** 32 - 1)


def _spec(family, n, k):
    fam = heat_family(0.0, 0.1)
    x0 = SineBasisVector(0.8 / np.arange(1.0, n + 1))
    if family == "ou":
        return process.ou_spec(fam, n, k, initial=x0, diffusion_scale=1.5)
    if family == "tanh_drift":
        return process.nemytskii_drift_spec(np.tanh, fam, n, k, 16, initial=x0)
    return process.state_diffusion_spec(np.tanh, fam, n, k, 16, initial=x0)


@st.composite
def _requests(draw, steps):
    """One request: a shipped test function, a stopping rule, the collectors
    and a start index (hitting rules start at the first node)."""
    phi = shipped_test_function(draw(st.sampled_from(TEST_FUNCTION_NAMES)))
    rule = draw(st.sampled_from([None, "level", "inf"]))
    if rule is not None:
        level = math.inf if rule == "inf" else draw(st.floats(0.0, 2.0))
        rule = StoppingRule("hitting", level)
    start = 0 if rule is not None else draw(st.integers(0, steps - 1))
    return EnsembleRequest(phi, rule, draw(st.booleans()), draw(st.booleans()), start)


@contextlib.contextmanager
def _small_chunks():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calculus, "CHUNK_SIZE", SMALL_CHUNK)
        yield


class TestEngineProperties:
    """The grouped march, the single-path stepper and the lockstep grids agree."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), family=st.sampled_from(FAMILIES), n=st.integers(1, 8),
           k=st.integers(1, 8), steps=st.integers(1, 40), paths=st.integers(1, 20),
           seed=SEEDS, workers=st.integers(1, 2))
    def test_group_keeps_the_bits_of_one_request_runs(self, data, family, n, k, steps,
                                                      paths, seed, workers):
        spec, grid = _spec(family, n, k), TimeGrid(0.0, 0.1, steps)
        requests = data.draw(st.lists(_requests(steps), min_size=1, max_size=4))
        with _small_chunks():
            grouped = calculus.run_requests(spec, grid, requests, n_paths=paths,
                                            seed=seed, workers=workers)
            for req, stats in zip(requests, grouped, strict=True):
                alone = calculus.run_ensemble(
                    req.phi, spec, grid, n_paths=paths, seed=seed, rule=req.rule,
                    collect_stoch=req.collect_stoch, collect_weak=req.collect_weak,
                    start_index=req.start_index, workers=1)
                assert stats.sums.keys() == alone.sums.keys()
                for key in alone.sums:
                    assert np.array_equal(stats.sums[key], alone.sums[key]), (req, key)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(1, 8), k=st.integers(1, 8),
           steps=st.integers(1, 40), seed=SEEDS)
    def test_one_keyed_path_matches_simulate(self, family, n, k, steps, seed):
        spec, grid = _spec(family, n, k), TimeGrid(0.0, 0.1, steps)
        # the coordinate functional over all modes makes phi_stop the terminal state
        phi = coordinate_functional(tuple(range(1, n + 1)))
        # one keyed path, keyed (seed, 0); simulate draws the same stream
        stats = calculus.run_ensemble(phi, spec, grid, n_paths=1, seed=seed)
        terminal = process.simulate(spec, grid, process.wiener_sample(
            grid, k, seed, 0)).states[-1]
        scale = max(1.0, float(np.max(np.abs(terminal))))
        np.testing.assert_allclose(stats.sums["s_phi_stop"], terminal, rtol=0,
                                   atol=1e-12 * scale)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), family=st.sampled_from(FAMILIES), n=st.integers(1, 8),
           k=st.integers(1, 8), finest=st.integers(2, 60), paths=st.integers(1, 20),
           seed=SEEDS, workers=st.integers(1, 2),
           phi=st.sampled_from(["squared_norm", "smoothed_norm", "integral_tanh"]))
    def test_lockstep_grids_keep_the_bits_of_the_coarsened_block(
            self, data, family, n, k, finest, paths, seed, workers, phi):
        spec, phi = _spec(family, n, k), shipped_test_function(phi)
        divisors = [d for d in range(1, finest) if finest % d == 0]
        coarse = data.draw(st.lists(st.sampled_from(divisors), min_size=1, unique=True))
        counts = sorted(coarse) + [finest]
        with _small_chunks():
            rms, order = _coarsened_block_orders(phi, spec, counts, paths, seed)
            got_rms, got_order = calculus.self_convergence_orders(
                phi, spec, 0.0, 0.1, counts, paths, seed=seed, workers=workers)
        assert [r.hex() for r in got_rms] + [got_order.hex()] == \
            [r.hex() for r in rms] + [order.hex()]


# the suites ``EnsemblePlan`` serves; ito, gamma, nemytskii and all each spend
# over a second on fixed-size work, and tests/test_hypotheses.py covers their
# exponents
FUZZED_SUITES = ("simulate", "dynkin", "weak")
# values outside the hypotheses that ``validate`` checks, or at their edges
WILD = {"N": st.integers(0, 1), "K": st.just(0), "M_t": st.just(0),
        "paths": st.integers(0, 1),
        "t0": st.sampled_from([math.inf, -math.inf, math.nan]),
        "T": st.sampled_from([0.0, 1e-300, -1.0, math.inf, math.nan])}


@st.composite
def _configs(draw):
    """Flag values of one small config; at most one of them is then replaced
    by a value outside the hypotheses or at their edges."""
    t0 = draw(st.floats(-1.0, 1.0))
    flags = {
        "N": draw(st.integers(2, 8)), "K": draw(st.integers(1, 8)),
        "M_t": draw(st.integers(1, 8)), "paths": draw(st.integers(2, 64)),
        "t0": t0, "T": t0 + draw(st.floats(1e-3, 2.0)),
        "phi": draw(st.sampled_from(TEST_FUNCTION_NAMES)),
        "field": draw(st.sampled_from(FIELD_NAMES)),
        "stopping": draw(st.sampled_from(["terminal", "hitting"])),
        "level": draw(st.sampled_from([math.inf, 0.0, -1.0]) | st.floats(-1.0, 3.0)),
        "workers": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2 ** 31)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(WILD)), max_size=1)):
        flags[key] = draw(WILD[key])
    return flags


class TestFuzzedConfigs:
    """Every drawn config runs to a verdict or is rejected by name."""

    @pytest.mark.parametrize("suite", FUZZED_SUITES)
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(flags=_configs())
    def test_config_runs_to_a_verdict(self, suite, flags):
        argv = [suite] + [f"--{key}={value}" for key, value in flags.items()]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
            code = cli.main(argv + [f"--out={out}"])
            report = Path(out, "report.csv")
            rows = list(csv.DictReader(io.StringIO(report.read_text()))) \
                if report.exists() else []
        message = err.getvalue()
        assert code in (0, 1, 2, 3), message
        assert "Traceback" not in message, message
        if code == 2:
            assert message.startswith("mildito: invalid configuration:"), message
        if code in (0, 1):
            assert rows
        for row in rows:
            if row["verdict"] == "pass":
                assert math.isfinite(float(row["lhs"])), row
                assert math.isfinite(float(row["rhs"])), row
