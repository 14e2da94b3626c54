import dataclasses
import math

import pytest

from mildito import gamma, nemytskii, suites
from mildito.cli import ExperimentConfig
from mildito.suites import _Rows, run_suite


def _nan_on_call(monkeypatch, owner, name, call, poison):
    """Let ``owner.name`` return ``poison(result)`` on its ``call``-th call."""
    real, calls = getattr(owner, name), []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return poison(out) if len(calls) == call else out

    monkeypatch.setattr(owner, name, wrapped)


def _nan_lhs(out):
    return (math.nan, *out[1:])


def _nan(out):
    return math.nan


def _nan_sup_norm(field):
    return dataclasses.replace(field, sup_norms=(math.nan, *field.sup_norms[1:]))


class TestNanFolds:
    """One NaN among a folded check's samples makes its row fail."""

    @pytest.mark.parametrize("suite, owner, name, call, poison, check_id", [
        ("gamma", gamma, "ideal_property_gap", 2, _nan_lhs,
         "ideal_property_exact/max_violation"),
        ("gamma", gamma, "ideal_property_gap", 102, _nan_lhs,
         "ideal_property_mc/max_violation"),
        ("gamma", gamma, "bilinear_sum", 3, lambda out: out * math.nan,
         "bilinear_bound/max_violation"),
        ("gamma", gamma, "bilinear_sum", 4, lambda out: out * math.nan,
         "bilinear_rotation_invariance"),
        ("gamma", suites, "hr_norm", 3, _nan, "multiplication_bound/max_violation"),
        ("nemytskii", nemytskii, "get_field", 1, _nan_sup_norm,
         "declared_constants/max_violation"),
        ("nemytskii", nemytskii, "holder_bound_iii", 1, _nan, "holder_iii/rational/m=1"),
        ("nemytskii", nemytskii, "holder_bound_iii", 2, _nan, "holder_iii/rational/m=2"),
        ("nemytskii", nemytskii, "diffusion_norm_bound", 1, _nan, "diffusion_bound_iv/k=0"),
        ("nemytskii", nemytskii, "diffusion_norm_bound", 2, _nan, "diffusion_bound_iv/k=1"),
        ("nemytskii", gamma, "gamma_norm_mc", 4, lambda out: (out[0], math.nan),
         "diffusion_bound_iv/k=0"),
    ])
    def test_nan_sample_fails_row(self, monkeypatch, suite, owner, name, call,
                                  poison, check_id):
        _nan_on_call(monkeypatch, owner, name, call, poison)
        verdicts = {row.check_id: row.verdict
                    for row in run_suite(suite, ExperimentConfig(workers=1))}
        assert verdicts[check_id] == "fail"


class TestNonFiniteRows:
    @pytest.mark.parametrize("lhs, rhs", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (-math.inf, 0.0), (math.inf, math.inf),
    ])
    def test_non_finite_side_fails_every_kind(self, lhs, rhs):
        out = _Rows("s")
        out.match("match", lhs, rhs, 1.0)
        out.bound("bound", lhs, rhs, 1.0)
        out.floor("floor", lhs, rhs, 1.0)
        assert [row.verdict for row in out.rows()] == ["fail"] * 3

    def test_finite_rows_keep_their_verdicts(self):
        out = _Rows("s")
        out.match("match", 1.0, 1.5, 0.5)
        out.bound("bound", 2.0, 1.0, 0.5)
        out.floor("floor", 2.0, 1.0)
        assert [row.verdict for row in out.rows()] == ["pass", "fail", "pass"]
