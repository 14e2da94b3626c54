import math

import numpy as np
import pytest

from mildito.gamma import (
    CoefficientMap,
    FiniteRankGammaOperator,
    HrCodomain,
    HypothesisError,
    LpCodomain,
    PointwiseMultiplier,
    UnsupportedCodomainError,
    VrCodomain,
    apply_embedding,
    bilinear_sum,
    check_multiplication,
    check_smoothing,
    element_norms,
    embedding_bound,
    estimate_sobolev_constant,
    fractional_power_operator,
    gamma_norm_exact,
    gamma_norm_mc,
    gaussian_abs_moment,
    gaussian_series_bound,
    hilbert_inner_form,
    ideal_compose,
    ideal_property_gap,
    iota_embedding,
    multiplication_operator,
    random_rotation,
    smoothing_gamma_bound,
)
from mildito.spectral import (
    GridFunction,
    SineBasisVector,
    eigenvalues,
    hr_norm,
    sine_matrix,
    synthesize,
)


def rng(tag=0):
    return np.random.default_rng(1700 + tag)


class TestGaussianMoment:
    def test_second_moment(self):
        assert gaussian_abs_moment(2.0) == pytest.approx(1.0)

    def test_fourth_moment(self):
        # E N^4 = 3
        assert gaussian_abs_moment(4.0) == pytest.approx(3.0 ** 0.25)

    def test_sampled_moment(self):
        # oracle: plain Monte Carlo of E |N|^3
        draws = np.abs(rng(1).standard_normal(400_000)) ** 3
        mc = np.mean(draws) ** (1 / 3)
        assert gaussian_abs_moment(3.0) == pytest.approx(mc, rel=5e-3)


class TestExactNorm:
    def test_fractional_power_sum(self):
        r = 0.4
        op = fractional_power_operator(-r, 12, HrCodomain(0.0))
        expected = np.sqrt(sum((np.pi ** 2 * n * n) ** (-2 * r)
                               for n in range(1, 13)))
        assert gamma_norm_exact(op) == pytest.approx(expected)

    def test_zero_operator(self):
        op = FiniteRankGammaOperator(np.zeros((5, 3)), HrCodomain(0.0))
        assert gamma_norm_exact(op) == 0.0

    def test_identity_on_k_modes(self):
        op = FiniteRankGammaOperator(np.eye(7), HrCodomain(0.0))
        assert gamma_norm_exact(op) == pytest.approx(np.sqrt(7.0))

    def test_rejects_grid_codomain(self):
        op = FiniteRankGammaOperator(np.ones((8, 2)), LpCodomain(4.0, 8))
        with pytest.raises(UnsupportedCodomainError):
            gamma_norm_exact(op)


class TestMonteCarloNorm:
    def test_consistency_with_exact(self):
        r = rng(2)
        for i in range(20):
            n, k = int(r.integers(3, 20)), int(r.integers(2, 12))
            cols = r.standard_normal((n, k)) / np.arange(1, n + 1)[:, None]
            op = FiniteRankGammaOperator(cols, HrCodomain(float(r.choice([0, 0.5]))))
            est, se = gamma_norm_mc(op, 10_000, seed=50 + i)
            assert abs(est - gamma_norm_exact(op)) <= 3.0 * se

    def test_zero_operator(self):
        op = FiniteRankGammaOperator(np.zeros((4, 2)), HrCodomain(0.0))
        assert gamma_norm_mc(op, 100, seed=0) == (0.0, 0.0)

    def test_scaling_with_shared_seed(self):
        cols = rng(3).standard_normal((6, 4))
        op = FiniteRankGammaOperator(cols, LpCodomain(4.0, 64))
        base, _ = gamma_norm_mc(op, 2000, seed=11)
        scaled, _ = gamma_norm_mc(op.scaled(2.5), 2000, seed=11)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_sample_count_precondition(self):
        op = FiniteRankGammaOperator(np.eye(3), HrCodomain(0.0))
        with pytest.raises(ValueError):
            gamma_norm_mc(op, 1, seed=0)

    def test_vr_codomain_against_lp_equivalent(self):
        # weighting coefficients by rho^r and synthesizing is the same
        # operator measured in L^p
        r_ = -0.4
        cols = rng(4).standard_normal((8, 3))
        vr = FiniteRankGammaOperator(cols, VrCodomain(r_, 4.0, 64))
        lp_cols = sine_matrix(64, 8) @ (eigenvalues(8)[:, None] ** r_ * cols)
        lp = FiniteRankGammaOperator(lp_cols, LpCodomain(4.0, 64))
        a, _ = gamma_norm_mc(vr, 500, seed=7)
        b, _ = gamma_norm_mc(lp, 500, seed=7)
        assert a == pytest.approx(b, rel=1e-12)


class TestIdealProperty:
    def test_identity_factors_saturate(self):
        cols = rng(5).standard_normal((6, 4))
        mid = FiniteRankGammaOperator(cols, HrCodomain(0.0))
        composed = ideal_compose(None, mid, None)
        np.testing.assert_array_equal(composed.columns, mid.columns)
        lhs, rhs, _ = ideal_property_gap(None, mid, None)
        assert lhs == pytest.approx(rhs)

    def test_semigroup_contraction(self):
        mid = FiniteRankGammaOperator(rng(6).standard_normal((10, 5)), HrCodomain(0.0))
        heat = CoefficientMap(np.diag(np.exp(-eigenvalues(10) * 0.01)))
        lhs, rhs, _ = ideal_property_gap(heat, mid, None)
        assert lhs <= gamma_norm_exact(mid) + 1e-12
        assert lhs <= rhs + 1e-12

    def test_hundred_random_triples(self):
        r = rng(7)
        for i in range(100):
            n, k = int(r.integers(3, 12)), int(r.integers(2, 10))
            mid = FiniteRankGammaOperator(r.standard_normal((n, k)),
                                          HrCodomain(float(r.choice([0.0, 0.5]))))
            left = CoefficientMap(r.standard_normal((n, n)))
            rot = random_rotation(k, seed=i)
            lhs, rhs, _ = ideal_property_gap(left, mid, rot)
            assert lhs <= rhs + 1e-10

    def test_violation_detection(self):
        # a deliberately under-declared left operator norm must trip the check
        mid = FiniteRankGammaOperator(np.eye(3), HrCodomain(0.0))

        class Lying:
            def operator_norm(self, codomain):
                return 0.1

            def apply_columns(self, columns):
                return 5.0 * columns

        with pytest.raises(HypothesisError):
            ideal_compose(Lying(), mid, None)

    def test_shape_mismatch(self):
        mid = FiniteRankGammaOperator(np.eye(3), HrCodomain(0.0))
        with pytest.raises(ValueError):
            ideal_compose(CoefficientMap(np.eye(4)), mid, None)


class TestBilinearSum:
    def test_inner_product_gives_squared_hs_norm(self):
        cols = rng(8).standard_normal((6, 4))
        op = FiniteRankGammaOperator(cols, HrCodomain(0.0))
        beta = hilbert_inner_form(HrCodomain(0.0), 6)
        total = bilinear_sum(beta, op, op)
        assert total[0] == pytest.approx(gamma_norm_exact(op) ** 2)

    def test_zero_second_factor(self):
        cols = rng(9).standard_normal((6, 4))
        op = FiniteRankGammaOperator(cols, HrCodomain(0.0))
        zero = FiniteRankGammaOperator(np.zeros((6, 4)), HrCodomain(0.0))
        assert bilinear_sum(hilbert_inner_form(HrCodomain(0.0), 6), op, zero)[0] == 0.0

    def test_rotation_invariance(self):
        r = rng(10)
        codomain = HrCodomain(0.5)
        beta = hilbert_inner_form(codomain, 7)
        for i in range(25):
            a1 = FiniteRankGammaOperator(r.standard_normal((7, 5)), codomain)
            a2 = FiniteRankGammaOperator(r.standard_normal((7, 5)), codomain)
            rot = random_rotation(5, seed=i)
            base = bilinear_sum(beta, a1, a2, check=False)
            turned = bilinear_sum(
                beta,
                FiniteRankGammaOperator(a1.columns @ rot, codomain),
                FiniteRankGammaOperator(a2.columns @ rot, codomain),
                check=False)
            assert abs(turned[0] - base[0]) < 1e-10

    def test_truncation_mismatch(self):
        a1 = FiniteRankGammaOperator(np.eye(3), HrCodomain(0.0))
        a2 = FiniteRankGammaOperator(np.ones((3, 2)), HrCodomain(0.0))
        with pytest.raises(ValueError):
            bilinear_sum(hilbert_inner_form(HrCodomain(0.0), 3), a1, a2)

    def test_bilinearity_of_declared_form(self):
        beta = hilbert_inner_form(HrCodomain(0.0), 5)
        r = rng(11)
        for _ in range(50):
            a, b, c = r.standard_normal((3, 5))
            s = float(r.standard_normal())
            lin = beta(a + s * b, c) - beta(a, c) - s * beta(b, c)
            assert abs(lin[0]) < 1e-10


class TestSmoothingBound:
    def test_p2_exact_value(self):
        # p = 2: the gamma norm is the HS norm pi^{-2r} sqrt(sum n^{-4r})
        res = smoothing_gamma_bound(0.5, 2.0, n_modes=50, samples=4000, seed=0)
        tail = np.sum(np.arange(1.0, 51.0) ** -2.0)
        exact = np.sqrt(tail) / np.pi
        assert abs(res["mc_estimate"] - exact) <= 3.0 * res["stderr"]
        assert res["bound"] == pytest.approx(np.sqrt(tail))
        assert exact <= res["bound"]

    def test_p4_inequality(self):
        res = smoothing_gamma_bound(0.3, 4.0, n_modes=50, samples=10_000, seed=1)
        # the report row's rule is the one verdict: no second one rides along
        assert res.keys() == {"mc_estimate", "stderr", "bound"}
        assert res["mc_estimate"] <= res["bound"] + 3.0 * res["stderr"]

    def test_single_mode(self):
        res = smoothing_gamma_bound(1.0, 2.0, n_modes=1, samples=4000, seed=2)
        assert abs(res["mc_estimate"] - np.pi ** -2) <= 3.0 * res["stderr"]
        assert res["bound"] == pytest.approx(1.0)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(HypothesisError):
            smoothing_gamma_bound(0.25, 2.0)


class TestHypothesisChecks:
    @pytest.mark.parametrize("check, args, name", [
        (check_smoothing, (0.25, 4.0), "smoothing"),
        (check_smoothing, (math.inf, 4.0), "smoothing"),
        (check_smoothing, (0.5, math.inf), "smoothing"),
        (check_smoothing, (0.5, math.nan), "smoothing"),
        (iota_embedding, (0.0, -math.inf, 4.0), "embedding"),
        (iota_embedding, (math.inf, -math.inf, 4.0), "embedding"),
        (iota_embedding, (-0.1, -0.5, 4.0), "embedding"),
        (iota_embedding, (0.0, -0.5, 1.5), "embedding"),
        (check_multiplication, (-0.5, 2.0), "multiplication"),
        (check_multiplication, (-0.5, math.inf), "multiplication"),
        (check_multiplication, (-math.inf, 4.0), "multiplication"),
        (check_multiplication, (-0.1, 4.0), "multiplication"),
    ])
    def test_violation_names_its_hypothesis(self, check, args, name):
        with pytest.raises(HypothesisError, match=f"^{name} hypothesis: requires"):
            check(*args)

    def test_boundaries_accepted(self):
        check_smoothing(0.2500001, 2.0)
        check_multiplication(-1.0 / 8.0, 4.0)
        iota_embedding(0.0, -0.2500001, 2.0)

    def test_series_bound_closed_form(self):
        # (E N^2)^{1/2} = 1, and sum_{n<=2} n^{-2} = 5/4
        assert gaussian_series_bound(2.0, -2.0, 2) == pytest.approx(math.sqrt(1.25))

    def test_moment_beyond_gammaln_range(self):
        # Stirling: (E|N|^p)^{1/p} ~ sqrt(p/e), where gammaln overflows
        for p in (1e306, 1.7e308):
            assert gaussian_abs_moment(p) == pytest.approx(math.sqrt(p / math.e))


class TestLpSquareFunctionBracket:
    """||s||_{L^2} <= gamma norm <= (E|N|^p)^{1/p} ||s||_{L^p}, s = (sum_k x_k^2)^{1/2}.

    At each grid point sum_k g_k x_k is N(0, s^2); the lower end is Jensen
    (grid means are probability norms), the upper end Lyapunov.
    """

    @pytest.mark.parametrize("p", [2.0, 4.0, 10.0])
    def test_mc_estimate_inside_bracket(self, p):
        cols = sine_matrix(128, 8) @ (rng(30).standard_normal((8, 5)) / np.arange(1, 9)[:, None])
        op = FiniteRankGammaOperator(cols, LpCodomain(p, 128))
        square = np.sqrt(np.sum(cols ** 2, axis=1))
        lower = float(np.mean(square ** 2) ** 0.5)
        upper = gaussian_abs_moment(p) * float(np.mean(square ** p) ** (1.0 / p))
        est, se = gamma_norm_mc(op, 20_000, seed=11)
        assert lower - 3.0 * se <= est <= upper + 3.0 * se
        if p == 2.0:
            assert lower == pytest.approx(upper)


class TestEmbedding:
    def test_identity_action(self):
        iota = iota_embedding(0.1, -0.4, 4.0, n_modes=10)
        v = SineBasisVector(rng(12).standard_normal(10))
        out = apply_embedding(iota, v, 0.1)
        np.testing.assert_allclose(out.coeffs, v.coeffs, rtol=0, atol=1e-12)

    def test_p2_exact_norm(self):
        # eps = 0, beta = -1/2: HS norm is pi^{-1} sqrt(sum n^{-2})
        res = embedding_bound(0.0, -0.5, 2.0, n_modes=50, samples=10_000, seed=3)
        exact = np.sqrt(np.sum(np.arange(1.0, 51.0) ** -2.0)) / np.pi
        assert abs(res["mc_estimate"] - exact) <= 3.0 * res["stderr"]

    def test_p4_inequality(self):
        res = embedding_bound(0.05, -0.35, 4.0, n_modes=50, samples=10_000, seed=4)
        assert res["mc_estimate"] <= res["bound"] + 3.0 * res["stderr"]

    def test_boundary_rejected(self):
        with pytest.raises(HypothesisError):
            iota_embedding(0.0, -0.25, 2.0)


class TestMultiplicationOperator:
    def test_constant_one_is_identity(self):
        mult = multiplication_operator(GridFunction(np.ones(256)), -0.25, 4.0)
        u = SineBasisVector(rng(13).standard_normal(16) / np.arange(1, 17))
        out = mult.apply(u)
        np.testing.assert_allclose(out.coeffs, u.coeffs, atol=1e-12)
        # beta < 0 contracts the norm relative to H
        assert hr_norm(out, -0.25) <= hr_norm(u, 0.0) + 1e-12

    def test_zero_multiplier(self):
        mult = multiplication_operator(GridFunction(np.zeros(256)), -0.25, 4.0)
        u = SineBasisVector(np.ones(8))
        assert np.all(mult.apply(u).coeffs == 0.0)

    def test_bilinearity_in_multiplier(self):
        r = rng(14)
        v1 = synthesize(SineBasisVector(r.standard_normal(12)), 256)
        v2 = synthesize(SineBasisVector(r.standard_normal(12)), 256)
        u = SineBasisVector(r.standard_normal(12))
        both = multiplication_operator(
            GridFunction(v1.values + v2.values), -0.25, 4.0).apply(u)
        split = (multiplication_operator(v1, -0.25, 4.0).apply(u).coeffs
                 + multiplication_operator(v2, -0.25, 4.0).apply(u).coeffs)
        np.testing.assert_allclose(both.coeffs, split, atol=1e-10)

    def test_bound_on_samples(self):
        r = rng(15)
        for _ in range(20):
            v = synthesize(SineBasisVector(r.standard_normal(12)), 256)
            mult = multiplication_operator(v, -0.5, 4.0)
            u = SineBasisVector(r.standard_normal(24) / np.arange(1, 25))
            image = mult.apply(u, n_modes=64)
            lhs = hr_norm(image, -0.5)
            assert lhs <= mult.bound * hr_norm(u, 0.0) + 1e-12

    def test_hypotheses(self):
        v = GridFunction(np.ones(16))
        with pytest.raises(HypothesisError):
            multiplication_operator(v, -0.5, 2.0)
        with pytest.raises(HypothesisError):
            multiplication_operator(v, -0.05, 4.0)

    def test_sobolev_estimate_caches_and_is_positive(self):
        a = estimate_sobolev_constant(4.0, 0.5)
        b = estimate_sobolev_constant(4.0, 0.5)
        assert a == b and a > 0.0


class TestElementNorms:
    def test_hr_matches_spectral(self):
        v = rng(16).standard_normal(9)
        got = element_norms(HrCodomain(0.3), v)
        assert got == pytest.approx(hr_norm(SineBasisVector(v), 0.3))

    def test_lp_batch(self):
        vals = rng(17).standard_normal((4, 32))
        got = element_norms(LpCodomain(3.0, 32), vals)
        expected = (np.mean(np.abs(vals) ** 3, axis=1)) ** (1 / 3)
        np.testing.assert_allclose(got, expected)


class TestIdealPropertyMC:
    def test_multiplier_on_grid_codomain(self):
        r = rng(18)
        for i in range(10):
            cols = sine_matrix(64, 6) @ r.standard_normal((6, 4))
            mid = FiniteRankGammaOperator(cols, LpCodomain(4.0, 64))
            left = PointwiseMultiplier(1.0 + 0.3 * np.cos(np.linspace(0, 5, 64)))
            rot = random_rotation(4, seed=200 + i)
            lhs, rhs, slack = ideal_property_gap(left, mid, rot,
                                                 samples=4000, seed=i)
            assert lhs <= rhs + slack
