"""Test functions phi: state space -> R^m with two derivatives.

All maps are batched: the state argument carries modes on the last axis
and arbitrary leading axes; outputs append an output axis of length m.
``trace`` evaluates sum_k phi''(x)(z_k, z_k) over operator columns
(shape (N, K) shared across the batch, or (P, N, K) per path) in closed
form; it is the one second-order map the calculus calls, and ``d2``, the
plain second derivative, is the reference the traces are tested against.

Every callable takes the time as an optional keyword ``t``: the standard
Ito formula (``calculus.standard_ito_residual``) passes it, the mild
engine never does.  The state functions ignore it and leave
``time_derivative`` at None, which stands for zero; ``time_functional``
needs it.

The growth metadata (constant, exponent) declares the bound
||phi(x)|| <= C (1 + ||x||^p) used by the weak-estimate hypothesis.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .nemytskii import get_field
from .spectral import sine_matrix

__all__ = [
    "TestFunction",
    "coordinate_functional",
    "squared_norm",
    "smoothed_norm",
    "integral_functional",
    "time_functional",
    "shipped_test_function",
    "TEST_FUNCTION_NAMES",
]


@dataclass(frozen=True)
class TestFunction:
    """phi in C^2 (C^{1,2} with a time derivative) with value/derivative
    maps and polynomial growth metadata.

    ``constant_d2`` marks test functions whose second derivative does not
    depend on the base point (linear and quadratic ones); the integral
    drivers use it to skip state propagation they do not need.
    """

    name: str
    output_dim: int
    value: Callable
    d1: Callable
    d2: Callable
    trace: Callable
    growth_exponent: float
    growth_constant: float = 1.0
    time_derivative: Optional[Callable] = None
    constant_d2: bool = False


def coordinate_functional(indices=(1,)) -> TestFunction:
    """Linear functionals x -> (<x, e_n>)_{n in indices}; 1-based mode indices."""
    idx = np.asarray(indices, dtype=int) - 1
    if np.any(idx < 0):
        raise ValueError("mode indices are 1-based")

    def value(x, t=None):
        return np.asarray(x)[..., idx]

    def d1(x, v, t=None):
        return np.asarray(v)[..., idx]

    def d2(x, a, b, t=None):
        shape = np.asarray(x).shape[:-1] + (idx.size,)
        return np.zeros(shape)

    def trace(x, cols, t=None):
        return np.zeros(idx.size)

    return TestFunction(f"coordinate{tuple(int(i) for i in indices)}", idx.size,
                        value, d1, d2, trace, growth_exponent=1.0, constant_d2=True)


def squared_norm() -> TestFunction:
    """phi(x) = ||x||_H^2; phi'' is twice the inner product."""

    def value(x, t=None):
        return np.sum(np.asarray(x) ** 2, axis=-1)[..., None]

    def d1(x, v, t=None):
        return 2.0 * np.sum(np.asarray(x) * np.asarray(v), axis=-1)[..., None]

    def d2(x, a, b, t=None):
        return 2.0 * np.sum(np.asarray(a) * np.asarray(b), axis=-1)[..., None]

    def trace(x, cols, t=None):
        cols = np.asarray(cols)
        if cols.ndim == 2:
            return np.array([2.0 * np.sum(cols ** 2)])
        return 2.0 * np.sum(cols ** 2, axis=(-2, -1))[..., None]

    return TestFunction("squared_norm", 1, value, d1, d2, trace, growth_exponent=2.0,
                        constant_d2=True)


def smoothed_norm() -> TestFunction:
    """phi(x) = (1 + ||x||^2)^(1/2), a smooth norm-like functional."""

    def s(x):
        return np.sqrt(1.0 + np.sum(np.asarray(x) ** 2, axis=-1))

    def value(x, t=None):
        return s(x)[..., None]

    def d1(x, v, t=None):
        return (np.sum(np.asarray(x) * np.asarray(v), axis=-1) / s(x))[..., None]

    def d2(x, a, b, t=None):
        x = np.asarray(x)
        sx = s(x)
        ab = np.sum(np.asarray(a) * np.asarray(b), axis=-1)
        xa = np.sum(x * np.asarray(a), axis=-1)
        xb = np.sum(x * np.asarray(b), axis=-1)
        return (ab / sx - xa * xb / sx ** 3)[..., None]

    def trace(x, cols, t=None):
        x = np.asarray(x)
        cols = np.asarray(cols)
        sx = s(x)
        if cols.ndim == 2:
            total = np.sum(cols ** 2)
            xc = x @ cols                                  # (..., K)
        else:
            total = np.sum(cols ** 2, axis=(-2, -1))
            xc = np.einsum("pn,pnk->pk", x, cols)
        return (total / sx - np.sum(xc ** 2, axis=-1) / sx ** 3)[..., None]

    return TestFunction("smoothed_norm", 1, value, d1, d2, trace, growth_exponent=1.0,
                        growth_constant=2.0)


def integral_functional(field, resolution: int = 128) -> TestFunction:
    """phi(x) = int_0^1 f(x(s)) ds through the midpoint grid.

    Needs a field with two derivatives; connects the composition-operator
    module to the mild calculus as the nonlinear test function example.
    """
    f0, f1, f2 = field.derivatives[0], field.derivatives[1], field.derivatives[2]

    def value(x, t=None):
        mat = sine_matrix(resolution, np.asarray(x).shape[-1])
        return np.mean(f0(np.asarray(x) @ mat.T), axis=-1)[..., None]

    def d1(x, v, t=None):
        mat = sine_matrix(resolution, np.asarray(x).shape[-1])
        gx = np.asarray(x) @ mat.T
        gv = np.asarray(v) @ mat.T
        return np.mean(f1(gx) * gv, axis=-1)[..., None]

    def d2(x, a, b, t=None):
        mat = sine_matrix(resolution, np.asarray(x).shape[-1])
        gx = np.asarray(x) @ mat.T
        return np.mean(f2(gx) * (np.asarray(a) @ mat.T) * (np.asarray(b) @ mat.T),
                       axis=-1)[..., None]

    def trace(x, cols, t=None):
        x = np.asarray(x)
        cols = np.asarray(cols)
        mat = sine_matrix(resolution, x.shape[-1])
        gx = f2(x @ mat.T)                                 # (..., J)
        if cols.ndim == 2:
            colsq = np.sum((mat @ cols) ** 2, axis=-1)     # (J,)
            return np.mean(gx * colsq, axis=-1)[..., None]
        gcols = np.einsum("jn,pnk->pjk", mat, cols)
        return np.mean(gx * np.sum(gcols ** 2, axis=-1), axis=-1)[..., None]

    growth = field.sup_norms[0]
    return TestFunction(f"integral_{field.name}", 1, value, d1, d2, trace,
                        growth_exponent=0.0, growth_constant=growth)


def time_functional() -> TestFunction:
    """phi(t, x) = t; the pure time integral.  Its maps need the keyword ``t``."""

    def value(x, *, t):
        return np.full(np.asarray(x).shape[:-1] + (1,), t)

    def dt(x, *, t):
        return np.ones(np.asarray(x).shape[:-1] + (1,))

    def zero(x, *args, t):
        return np.zeros(np.asarray(x).shape[:-1] + (1,))

    # bounded in x; the bound |t| depends on the horizon, so C is not finite here
    return TestFunction("time", 1, value, zero, zero, zero, growth_exponent=0.0,
                        growth_constant=math.inf, time_derivative=dt)


# the test functions the CLI configs name, in registry order
_SHIPPED = {
    "coordinate": lambda: coordinate_functional((1,)),
    "squared_norm": squared_norm,
    "smoothed_norm": smoothed_norm,
    "integral_sin": lambda: integral_functional(get_field("sin")),
    "integral_tanh": lambda: integral_functional(get_field("tanh")),
    "integral_rational": lambda: integral_functional(get_field("rational")),
}

TEST_FUNCTION_NAMES = tuple(_SHIPPED)


def shipped_test_function(name: str) -> TestFunction:
    """Registry lookup used by the CLI configs."""
    if name not in _SHIPPED:
        raise KeyError(f"unknown test function {name!r}; registry has {TEST_FUNCTION_NAMES}")
    return _SHIPPED[name]()
