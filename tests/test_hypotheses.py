"""Property test: every exponent configuration ``validate`` accepts gives the
gamma and nemytskii suites finite bound constants.

Each exponent is drawn from a bracket whose ends include its hypotheses'
boundaries, and up to two of them are then replaced by any float, +-inf
or NaN.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mildito import gamma, nemytskii
from mildito.cli import ConfigError, ExperimentConfig, validate
from mildito.spectral import GridFunction, sine_matrix
from mildito.suites import EMBEDDING_P

RESOLUTION = 64
MODES = (1, 8, 50)


def _grid(seed, scale):
    coeffs = np.random.default_rng(seed).standard_normal(16) * scale / np.arange(1, 17)
    return GridFunction(sine_matrix(RESOLUTION, 16) @ coeffs)


V, W = _grid(0, 2.0), _grid(1, 2.0)
ORDER = max(nemytskii.get_field(name).order for name in nemytskii.FIELD_NAMES)
WILD = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _exponents(draw):
    """Exponents from brackets whose ends include the hypotheses' boundaries,
    then up to two of them replaced by any float, +-inf or NaN."""
    p = draw(st.floats(2.0, 60.0))
    values = {"p": p, "q": ORDER * p + draw(st.floats(-1.0, 400.0)),
              "r": draw(st.floats(0.25, 2.0)), "beta": draw(st.floats(-3.0, -0.25)),
              "eps": draw(st.floats(0.0, 0.5)),
              "delta": draw(st.none() | st.floats(0.5, 1.0))}
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=2, unique=True)):
        values[key] = draw(WILD)
    return values


def _bound_constants(cfg):
    """The bound constants the suites derive from the exponents, at small sizes."""
    if cfg.suite in ("gamma", "all"):
        for n_modes in MODES:
            yield gamma.smoothing_gamma_bound(cfg.r, cfg.p, n_modes, samples=2,
                                              resolution=RESOLUTION)["bound"]
            yield gamma.embedding_bound(cfg.eps, cfg.beta, EMBEDDING_P, n_modes,
                                        samples=2, resolution=RESOLUTION)["bound"]
        yield gamma.multiplication_operator(V, cfg.beta, cfg.p).bound
    if cfg.suite in ("nemytskii", "all"):
        for name in nemytskii.FIELD_NAMES:
            op = nemytskii.NemytskiiOperator(nemytskii.get_field(name), cfg.p, cfg.q)
            for m in (1, 2):
                yield nemytskii.holder_bound_iii(op, m, max(cfg.q, (m + 1) * cfg.p))
                r = 2.0 * max(cfg.q, (m + 1) * cfg.p)
                yield nemytskii.lipschitz_bound_iv(op, m, r, m * r, V, W, [])[1]
                yield nemytskii.lipschitz_bound_v(op, m, r, V, W, [])[1]
        coef = nemytskii.DiffusionCoefficient(
            nemytskii.get_field(cfg.field), cfg.p, cfg.beta, cfg.delta,
            resolution=RESOLUTION)
        for k in (0, 1):
            yield nemytskii.diffusion_norm_bound(coef, k, 24)
        yield nemytskii.diffusion_lipschitz_bound(coef, 1, 24)[0]


DEFAULTS = {"p": 10.0, "q": 40.0, "r": 0.5, "beta": -0.5, "eps": 0.0, "delta": None}


# Each example overflows float64 in a different place: the L^p norm of the
# Lipschitz rhs (q = 305), the H_r norm inside the Sobolev estimate
# (beta = -40) and the Gaussian moment (p = 1e306).
@example(suite="nemytskii", field="tanh", exponents={**DEFAULTS, "p": 27.0, "q": 305.0})
@example(suite="gamma", field="tanh", exponents={**DEFAULTS, "beta": -40.0})
@example(suite="gamma", field="tanh", exponents={**DEFAULTS, "p": 1e306})
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(suite=st.sampled_from(["gamma", "nemytskii", "all"]),
       field=st.sampled_from(nemytskii.FIELD_NAMES), exponents=_exponents())
def test_accepted_exponents_give_finite_bounds(suite, field, exponents):
    cfg = ExperimentConfig(suite=suite, field=field, J=RESOLUTION, **exponents)
    try:
        validate(cfg)
    except ConfigError:
        return
    for bound in _bound_constants(cfg):
        assert math.isfinite(bound), (cfg, bound)
