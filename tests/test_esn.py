import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest, norm

from esnsmc import esn
from esnsmc.errors import NumericalError, ParameterDomainError, UnsupportedDimensionError

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def random_p1(rng, d):
    a = rng.normal(size=(d, d))
    sigma = a @ a.T + d * np.eye(d)
    return esn.EsnParamsP1(
        rng.normal(size=d), sigma, rng.normal(scale=0.8, size=d), rng.normal(scale=1.5)
    )


def random_p2(rng, d):
    a = rng.normal(size=(d, d))
    omega = a @ a.T + d * np.eye(d)
    return esn.EsnParamsP2(
        rng.normal(size=d), omega, rng.normal(size=d), rng.normal(scale=1.2)
    )


class TestParamValidation:
    def test_non_spd_scale_rejected(self):
        with pytest.raises(ParameterDomainError):
            esn.EsnParamsP1([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], 0.0)

    def test_asymmetric_scale_rejected(self):
        with pytest.raises(ParameterDomainError):
            esn.EsnParamsP1([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]], [0.0, 0.0], 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterDomainError):
            esn.EsnParamsP1([0.0, 0.0], [[1.0]], [0.0], 0.0)

    def test_c0_at_least_one(self):
        p = random_p1(np.random.default_rng(0), 3)
        assert p.c0 >= 1.0

    def test_nan_shape_rejected(self):
        # c0 is NaN, so the c0 >= 1 check must fail with a typed error
        with pytest.raises(ParameterDomainError):
            esn.EsnParamsP1([0.0], [[1.0]], [math.nan], 0.0)

    def test_failed_conversion_is_numerical_error(self):
        # omega + d d' rounds to d d', so d' sigma^{-1} d = 1
        with pytest.raises(NumericalError):
            esn.p2_to_p1(esn.EsnParamsP2([0.0], [[1e-300]], [1.0], 0.0))

    def test_invalid_moment_summary_is_numerical_error(self):
        with pytest.raises(NumericalError):
            esn.MomentSummary(mean=0.0, variance=0.0, skewness=0.0, kurtosis=3.0)
        with pytest.raises(NumericalError):
            esn.MomentSummary(mean=0.0, variance=1.0, skewness=2.0, kurtosis=3.0)


class TestLogpdfP1:
    def test_standard_gaussian_at_zero(self):
        p = esn.EsnParamsP1(0.0, 1.0, 0.0, 0.0)
        assert esn.logpdf_p1(p, 0.0) == pytest.approx(-LOG_SQRT_2PI, abs=1e-15)

    def test_zero_shape_any_shift_is_gaussian(self):
        p = esn.EsnParamsP1(0.0, 1.0, 0.0, -3.0)
        assert esn.logpdf_p1(p, 1.7) == pytest.approx(
            float(norm.logpdf(1.7)), abs=1e-14
        )

    def test_against_quadrature_oracle(self):
        # normalise phi(y; 2, 6) * Phi(-2 + 5 (y - 2)) over a wide grid and
        # check the analytic normaliser Phi(-2 / sqrt(151)) along the way
        def unnorm(y):
            return float(norm.pdf(y, 2.0, math.sqrt(6.0)) * norm.cdf(-2.0 + 5.0 * (y - 2.0)))

        z, _ = integrate.quad(unnorm, -40, 40, limit=300)
        assert z == pytest.approx(float(norm.cdf(-2.0 / math.sqrt(151.0))), abs=1e-10)
        p = esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0)
        assert esn.logpdf_p1(p, 2.5) == pytest.approx(math.log(unnorm(2.5) / z), abs=1e-10)

    def test_finite_deep_in_tail(self):
        p = esn.EsnParamsP1(0.0, 1.0, 5.0, -2.0)
        assert math.isfinite(esn.logpdf_p1(p, -6.0))

    def test_row_vectorisation(self):
        p = random_p1(np.random.default_rng(1), 2)
        ys = np.random.default_rng(2).normal(size=(7, 2))
        vec = esn.logpdf_p1(p, ys)
        assert np.allclose(vec, [esn.logpdf_p1(p, y) for y in ys], atol=1e-14)


class TestLogpdfP2:
    def test_zero_loading_is_gaussian(self):
        p = esn.EsnParamsP2(0.0, 1.0, 0.0, 0.0)
        assert esn.logpdf_p2(p, 0.0) == pytest.approx(-LOG_SQRT_2PI, abs=1e-15)

    def test_matches_table_converted_values(self):
        # the converted hidden-truncation parameters of (2, 1, 5, -0.8)
        p2 = esn.EsnParamsP2(2.0, 1.0, 5.0, -0.8)
        p1 = esn.p2_to_p1(p2)
        assert p1.sigma[0, 0] == pytest.approx(26.0, abs=1e-12)
        assert p1.alpha[0] == pytest.approx(0.98, abs=0.005)
        assert p1.lam == pytest.approx(-4.08, abs=0.005)
        assert esn.logpdf_p2(p2, 3.0) == pytest.approx(esn.logpdf_p1(p1, 3.0), abs=1e-12)

    def test_cross_parametrisation_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p2 = random_p2(rng, 2)
            y = rng.normal(size=2)
            assert esn.logpdf_p2(p2, y) == pytest.approx(
                esn.logpdf_p1(esn.p2_to_p1(p2), y), abs=1e-12
            )


class TestConversions:
    def test_paper_conversion_values(self):
        p1 = esn.p2_to_p1(esn.EsnParamsP2(2.0, 1.0, 5.0, -0.8))
        assert p1.xi[0] == pytest.approx(2.0, abs=1e-14)
        assert p1.sigma[0, 0] == pytest.approx(26.0, abs=1e-12)
        assert p1.alpha[0] == pytest.approx(0.9806, abs=0.005)
        assert p1.lam == pytest.approx(-4.0792, abs=0.005)

    def test_inverse_paper_values(self):
        p2 = esn.p1_to_p2(esn.EsnParamsP1(2.0, 26.0, 0.9806, -4.0792))
        assert p2.xi[0] == pytest.approx(2.0, abs=1e-3)
        assert p2.omega[0, 0] == pytest.approx(1.0, abs=1e-3)
        assert p2.dvec[0] == pytest.approx(5.0, abs=1e-3)
        assert p2.c == pytest.approx(-0.8, abs=1e-3)

    def test_zero_loading(self):
        p1 = esn.p2_to_p1(esn.EsnParamsP2([0.5], [[2.0]], [0.0], -0.7))
        assert p1.alpha[0] == 0.0
        assert p1.lam == pytest.approx(-0.7)
        assert p1.sigma[0, 0] == pytest.approx(2.0)

    def test_zero_shape(self):
        p2 = esn.p1_to_p2(esn.EsnParamsP1([0.5], [[2.0]], [0.0], 1.1))
        assert p2.dvec[0] == 0.0
        assert p2.c == pytest.approx(1.1)
        assert p2.omega[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trips(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(20):
            p2 = random_p2(rng, d)
            back = esn.p1_to_p2(esn.p2_to_p1(p2))
            assert np.allclose(back.xi, p2.xi, atol=1e-10)
            assert np.allclose(back.omega, p2.omega, atol=1e-10)
            assert np.allclose(back.dvec, p2.dvec, atol=1e-10)
            assert back.c == pytest.approx(p2.c, abs=1e-10)

            p1 = random_p1(rng, d)
            back1 = esn.p2_to_p1(esn.p1_to_p2(p1))
            assert np.allclose(back1.sigma, p1.sigma, atol=1e-10)
            assert np.allclose(back1.alpha, p1.alpha, atol=1e-10)
            assert back1.lam == pytest.approx(p1.lam, abs=1e-10)

    def test_c0_consistency_after_conversion(self):
        p2 = random_p2(np.random.default_rng(4), 3)
        p1 = esn.p2_to_p1(p2)
        sol = np.linalg.solve(p1.sigma, p2.dvec)
        assert p1.c0 == pytest.approx(1.0 / math.sqrt(1.0 - p2.dvec @ sol), abs=1e-10)


class TestSampling:
    def test_gaussian_case_ks(self):
        rng = np.random.default_rng(0)
        p = esn.EsnParamsP1(1.0, 4.0, 0.0, -1.3)
        draws = esn.sample(p, 100_000, rng)[:, 0]
        assert kstest(draws, cdf=lambda x: norm.cdf(x, 1.0, 2.0)).pvalue > 0.01

    def test_variance_of_first_design(self):
        rng = np.random.default_rng(1)
        draws = esn.sample(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0), 1_000_000, rng)[:, 0]
        assert draws.var() == pytest.approx(2.0, abs=0.05)

    def test_second_design_variance_and_skewness(self):
        rng = np.random.default_rng(2)
        draws = esn.sample(esn.EsnParamsP2(2.0, 1.0, 5.0, -0.8), 1_000_000, rng)[:, 0]
        assert draws.var() == pytest.approx(6.60, abs=0.07)
        centred = draws - draws.mean()
        skew = np.mean(centred**3) / draws.std() ** 3
        assert skew == pytest.approx(0.99, abs=0.03)

    def test_mean_within_four_se(self):
        rng = np.random.default_rng(3)
        p = random_p1(rng, 2)
        n = 1_000_000
        draws = esn.sample(p, n, rng)
        se = draws.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - esn.mean(p)) < 4 * se)


class TestTruncatedSampler:
    def test_high_cut_matches_untruncated(self):
        rng = np.random.default_rng(0)
        draws = esn.sample_truncated_std(8.0, rng, size=100_000)
        assert kstest(draws, cdf=norm.cdf).pvalue > 0.01

    def test_half_normal_mean(self):
        rng = np.random.default_rng(1)
        draws = esn.sample_truncated_std(0.0, rng, size=1_000_000)
        se = draws.std() / 1000.0
        assert draws.mean() == pytest.approx(-math.sqrt(2.0 / math.pi), abs=4 * se)

    def test_variance_formula(self):
        # var = 1 - c h - h^2, h = phi(c)/Phi(c)
        c = -0.1628
        h = float(norm.pdf(c) / norm.cdf(c))
        expect = 1.0 - c * h - h * h
        assert expect == pytest.approx(0.3296, abs=5e-4)
        rng = np.random.default_rng(2)
        draws = esn.sample_truncated_std(c, rng, size=1_000_000)
        assert draws.var() == pytest.approx(expect, abs=4 * expect * math.sqrt(2 / 1e6) * 2)

    @pytest.mark.parametrize("c", [2.0, 0.0, -3.9, -4.1, -7.0])
    def test_support_respected(self, c):
        rng = np.random.default_rng(4)
        draws = esn.sample_truncated_std(c, rng, size=50_000)
        assert draws.max() <= c

    def test_tail_sampler_mean(self):
        # rejection branch: E[T | T <= c] = -phi(c)/Phi(c)
        c = -6.0
        rng = np.random.default_rng(5)
        draws = esn.sample_truncated_std(c, rng, size=200_000)
        expect = -float(norm.pdf(c) / norm.cdf(c))
        assert draws.mean() == pytest.approx(expect, abs=4 * draws.std() / math.sqrt(2e5))

    def test_scalar_return(self):
        val = esn.sample_truncated_std(0.0, np.random.default_rng(6))
        assert isinstance(val, float) and val <= 0.0


class TestCdf:
    def test_total_mass(self):
        p = esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0)
        assert esn.cdf(p, 60.0) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_case_d1(self):
        p = esn.EsnParamsP1(1.0, 4.0, 0.0, -1.0)
        assert esn.cdf(p, 2.0) == pytest.approx(float(norm.cdf(0.5)), abs=1e-10)

    def test_gaussian_case_d2(self):
        sigma = np.array([[2.0, 0.7], [0.7, 1.5]])
        p = esn.EsnParamsP1([0.0, 1.0], sigma, [0.0, 0.0], 0.8)
        y = np.array([0.5, 1.4])
        from esnsmc.normals import mvn_cdf

        assert esn.cdf(p, y, tol=1e-8) == pytest.approx(
            mvn_cdf(y - p.xi, sigma, tol=1e-9), abs=1e-7
        )

    def test_against_sampling_oracle(self):
        p = esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0)
        rng = np.random.default_rng(7)
        n = 1_000_000
        draws = esn.sample(p, n, rng)[:, 0]
        val = esn.cdf(p, 2.5, tol=1e-8)
        emp = float((draws <= 2.5).mean())
        se = math.sqrt(emp * (1 - emp) / n)
        assert abs(val - emp) < 3 * se

    def test_bivariate_esn_cdf_vs_sampling(self):
        rng = np.random.default_rng(8)
        p = random_p1(rng, 2)
        n = 400_000
        draws = esn.sample(p, n, rng)
        y = esn.mean(p) + 0.3
        val = esn.cdf(p, y, tol=1e-7)
        emp = float(np.all(draws <= y, axis=1).mean())
        se = math.sqrt(emp * (1 - emp) / n)
        assert abs(val - emp) < 4 * se

    def test_tolerance_validation(self):
        p = esn.EsnParamsP1(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            esn.cdf(p, 0.0, tol=-1.0)

    def test_high_dimension_uses_monte_carlo_path(self):
        p = random_p1(np.random.default_rng(9), 4)
        y = esn.mean(p)
        val, se = esn.cdf_with_error(p, y, tol=3e-3, rng=np.random.default_rng(1))
        assert 0.0 <= val <= 1.0 and se <= 3e-3
        draws = esn.sample(p, 300_000, np.random.default_rng(2))
        emp = float(np.all(draws <= y, axis=1).mean())
        emp_se = math.sqrt(emp * (1 - emp) / 300_000)
        assert abs(val - emp) < 3 * (se + emp_se)


class TestMarginal:
    def test_gaussian_marginal(self):
        sigma = np.array([[2.0, 0.7], [0.7, 1.5]])
        p = esn.EsnParamsP1([1.0, -1.0], sigma, [0.0, 0.0], 0.4)
        m = esn.marginal(p, [0])
        assert m.xi[0] == pytest.approx(1.0)
        assert m.sigma[0, 0] == pytest.approx(2.0)
        assert m.alpha[0] == 0.0

    def test_decoupled_blocks_keep_shape_and_shift(self):
        sigma = np.diag([2.0, 1.5])
        p = esn.EsnParamsP1([0.0, 0.0], sigma, [0.8, 0.0], -0.6)
        m = esn.marginal(p, [0])
        assert m.alpha[0] == pytest.approx(0.8, abs=1e-14)
        assert m.lam == pytest.approx(-0.6, abs=1e-14)

    def test_quadrature_marginalisation_oracle(self):
        # integrate the joint over the dropped coordinate on a grid and
        # compare against the closed-form marginal density
        sigma = np.array([[6.0, 0.3 * math.sqrt(6.0)], [0.3 * math.sqrt(6.0), 1.0]])
        p = esn.EsnParamsP1([0.0, 0.0], sigma, [2.0, 1.0], -2.0)
        m = esn.marginal(p, [0])
        ys = np.linspace(-6, 10, 33)
        worst = 0.0
        for y1 in ys:
            val, _ = integrate.quad(
                lambda y2: math.exp(esn.logpdf_p1(p, np.array([y1, y2]))),
                -12,
                12,
                limit=200,
            )
            worst = max(worst, abs(val - math.exp(esn.logpdf_p1(m, y1))))
        assert worst < 1e-4

    def test_index_validation(self):
        p = random_p1(np.random.default_rng(0), 3)
        with pytest.raises(ValueError):
            esn.marginal(p, [])
        with pytest.raises(ValueError):
            esn.marginal(p, [0, 1, 2])


class TestConditional:
    def test_gaussian_conditional_moments(self):
        sigma = np.array([[2.0, 0.7], [0.7, 1.5]])
        p = esn.EsnParamsP1([1.0, -1.0], sigma, [0.0, 0.0], 0.0)
        c = esn.conditional(p, [1], [0.5])
        assert c.xi[0] == pytest.approx(1.0 + 0.7 / 1.5 * 1.5)
        assert c.sigma[0, 0] == pytest.approx(2.0 - 0.7**2 / 1.5)

    def test_centred_conditioning_keeps_shift(self):
        p = random_p1(np.random.default_rng(1), 3)
        c = esn.conditional(p, [2], [p.xi[2]])
        assert c.lam == pytest.approx(p.lam, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_bayes_consistency(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(25):
            p = random_p1(rng, d)
            y = esn.mean(p) + rng.normal(scale=1.0, size=d)
            given = [d - 1]
            m = esn.marginal(p, given)
            c = esn.conditional(p, given, y[given])
            keep = [i for i in range(d) if i not in given]
            lhs = esn.logpdf_p1(p, y)
            rhs = esn.logpdf_p1(m, y[given]) + esn.logpdf_p1(c, y[keep])
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestAffine:
    def test_identity(self):
        p = random_p1(np.random.default_rng(0), 2)
        q = esn.affine(p, np.eye(2), np.zeros(2))
        assert np.allclose(q.xi, p.xi)
        assert np.allclose(q.sigma, p.sigma)
        assert np.allclose(q.alpha, p.alpha)

    def test_univariate_example(self):
        q = esn.affine(esn.EsnParamsP1(0.0, 1.0, 1.0, 0.0), [[2.0]], [1.0])
        assert q.xi[0] == pytest.approx(1.0)
        assert q.sigma[0, 0] == pytest.approx(4.0)
        assert q.alpha[0] == pytest.approx(0.5)
        assert q.lam == 0.0

    def test_change_of_variables_identity(self):
        rng = np.random.default_rng(2)
        p = random_p1(rng, 3)
        a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        shift = rng.normal(size=3)
        q = esn.affine(p, a, shift)
        for _ in range(10):
            y = esn.mean(p) + rng.normal(size=3)
            lhs = esn.logpdf_p1(q, shift + a.T @ y)
            rhs = esn.logpdf_p1(p, y) - math.log(abs(np.linalg.det(a.T)))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_singular_matrix_rejected(self):
        p = random_p1(np.random.default_rng(3), 2)
        with pytest.raises(ValueError):
            esn.affine(p, [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])


class TestMoments:
    def test_first_design_triple(self):
        m = esn.moments_univariate(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0))
        assert m.variance == pytest.approx(2.0, abs=0.05)
        assert m.skewness == pytest.approx(1.0, abs=0.05)
        assert m.kurtosis == pytest.approx(4.0, abs=0.05)

    def test_second_design_triple(self):
        m = esn.moments_univariate(esn.EsnParamsP2(2.0, 1.0, 5.0, -0.8))
        assert m.variance == pytest.approx(6.60, abs=0.05)
        assert m.skewness == pytest.approx(0.99, abs=0.05)
        assert m.kurtosis == pytest.approx(4.28, abs=0.05)

    def test_gaussian_case(self):
        m = esn.moments_univariate(esn.EsnParamsP1(1.5, 2.5, 0.0, 0.7))
        assert m.mean == pytest.approx(1.5, abs=1e-12)
        assert m.variance == pytest.approx(2.5, abs=1e-12)
        assert m.skewness == pytest.approx(0.0, abs=1e-12)
        assert m.kurtosis == pytest.approx(3.0, abs=1e-12)

    def test_monte_carlo_agreement(self):
        p = esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0)
        m = esn.moments_univariate(p)
        rng = np.random.default_rng(11)
        n = 1_000_000
        draws = esn.sample(p, n, rng)[:, 0]
        se_mean = draws.std() / math.sqrt(n)
        assert m.mean == pytest.approx(draws.mean(), abs=3 * se_mean)
        se_var = draws.var() * math.sqrt(2.0 / n) * math.sqrt(m.kurtosis - 1)
        assert m.variance == pytest.approx(draws.var(), abs=3 * se_var)

    def test_multivariate_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            esn.moments_univariate(random_p1(np.random.default_rng(12), 2))

    def test_skewness_bound_sweep(self):
        # magnitude strictly below 2 across the parameter space
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(10_000):
            p = esn.EsnParamsP2(
                rng.normal(), [[rng.gamma(2.0) + 0.05]], [rng.normal(scale=4.0)],
                rng.normal(scale=2.5),
            )
            worst = max(worst, abs(esn.moments_univariate(p).skewness))
        assert worst < 2.0

    def test_covariance_matches_samples(self):
        p = random_p1(np.random.default_rng(14), 2)
        rng = np.random.default_rng(15)
        draws = esn.sample(p, 500_000, rng)
        assert np.allclose(np.cov(draws.T), esn.cov(p), atol=0.03)


class TestLoglik:
    def test_single_row(self):
        p = random_p1(np.random.default_rng(0), 2)
        y = np.array([0.3, -0.2])
        assert esn.loglik(p, y[None, :]) == pytest.approx(esn.logpdf_p1(p, y))

    def test_zeros_under_standard_gaussian(self):
        p = esn.EsnParamsP1(0.0, 1.0, 0.0, 0.0)
        assert esn.loglik(p, np.zeros(10)) == pytest.approx(-10.0 * LOG_SQRT_2PI, abs=1e-12)

    def test_summation_oracle(self):
        rng = np.random.default_rng(1)
        p = random_p1(rng, 2)
        data = rng.normal(size=(40, 2))
        naive = sum(esn.logpdf_p1(p, row) for row in data)
        assert esn.loglik(p, data) == pytest.approx(naive, abs=1e-10)

    def test_accepts_p2(self):
        p2 = random_p2(np.random.default_rng(2), 1)
        data = np.array([0.1, 0.5, -0.3])
        assert esn.loglik(p2, data) == pytest.approx(
            esn.loglik(esn.p2_to_p1(p2), data), abs=1e-12
        )


def fd_gradient(f, x, step=1e-5):
    g = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class TestGaussianStationaryPoint:
    def test_two_point_sample(self):
        p = esn.gaussian_stationary_point(np.array([-1.0, 1.0]), 0.0)
        assert p.xi[0] == 0.0
        assert p.sigma[0, 0] == pytest.approx(1.0)
        assert p.alpha[0] == 0.0
        assert p.lam == 0.0

    @pytest.mark.parametrize("l", [-3.0, -1.0, 0.0, 2.0])
    def test_gradient_vanishes(self, l):
        rng = np.random.default_rng(42)
        data = rng.normal(size=200)
        p = esn.gaussian_stationary_point(data, l)

        def loglik_at(theta):
            return esn.loglik(
                esn.EsnParamsP1([theta[0]], [[theta[1]]], [theta[2]], theta[3]), data
            )

        theta0 = np.array([p.xi[0], p.sigma[0, 0], p.alpha[0], p.lam])
        g = fd_gradient(loglik_at, theta0)
        tol = 1e-4 * (1.0 + abs(loglik_at(theta0)))
        assert np.max(np.abs(g)) < tol

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ParameterDomainError):
            esn.gaussian_stationary_point(np.zeros(5), 0.0)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            esn.gaussian_stationary_point(np.array([1.0]), 0.0)


class TestDistributionInvariants:
    def test_normalisation_univariate(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            p = random_p1(rng, 1)
            sd = math.sqrt(p.sigma[0, 0])
            val, _ = integrate.quad(
                lambda y: math.exp(esn.logpdf_p1(p, y)),
                p.xi[0] - 14 * sd,
                p.xi[0] + 14 * sd,
                limit=300,
            )
            assert abs(val - 1.0) < 1e-6

    def test_normalisation_bivariate_tensor_grid(self):
        rng = np.random.default_rng(31)
        nodes, weights = np.polynomial.legendre.leggauss(220)
        for _ in range(5):
            p = random_p1(rng, 2)
            sds = np.sqrt(np.diag(p.sigma))
            lo = p.xi - 12 * sds
            hi = p.xi + 12 * sds
            x1 = 0.5 * (hi[0] - lo[0]) * (nodes + 1) + lo[0]
            x2 = 0.5 * (hi[1] - lo[1]) * (nodes + 1) + lo[1]
            grid = np.column_stack(
                [np.repeat(x1, len(x2)), np.tile(x2, len(x1))]
            )
            dens = np.exp(esn.logpdf_p1(p, grid)).reshape(len(x1), len(x2))
            w1 = 0.5 * (hi[0] - lo[0]) * weights
            w2 = 0.5 * (hi[1] - lo[1]) * weights
            total = w1 @ dens @ w2
            assert abs(total - 1.0) < 1e-4

    def test_parametrisation_equivalence(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            p2 = random_p2(rng, 2)
            y = rng.normal(size=2)
            assert esn.logpdf_p2(p2, y) == pytest.approx(
                esn.logpdf_p1(esn.p2_to_p1(p2), y), abs=1e-12
            )

    def test_gaussian_reduction_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            lam = rng.normal(scale=2.0)
            var = rng.gamma(2.0) + 0.2
            mu = rng.normal()
            p = esn.EsnParamsP1(mu, var, 0.0, lam)
            y = rng.normal()
            assert abs(
                esn.logpdf_p1(p, y) - float(norm.logpdf(y, mu, math.sqrt(var)))
            ) < 1e-14

    def test_sampling_against_inverted_cdf(self):
        p = esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0)
        rng = np.random.default_rng(34)
        draws = esn.sample(p, 100_000, rng)[:, 0]
        grid = np.linspace(draws.min() - 0.5, draws.max() + 0.5, 2001)
        cdf_vals = np.array([esn.cdf(p, g, tol=1e-9) for g in grid])
        pit = np.interp(draws, grid, cdf_vals)
        assert kstest(pit, cdf="uniform").pvalue > 0.01


class TestHypothesisProperties:
    """Parametric sweeps over generated inputs."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(-5, 5),
        st.floats(0.1, 30.0),
        st.floats(-8, 8),
        st.floats(-4, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_conversion_round_trip_property(self, xi, omega2, dd, c):
        p2 = esn.EsnParamsP2(xi, omega2, dd, c)
        back = esn.p1_to_p2(esn.p2_to_p1(p2))
        assert back.omega[0, 0] == pytest.approx(omega2, rel=1e-9, abs=1e-10)
        assert back.dvec[0] == pytest.approx(dd, rel=1e-9, abs=1e-10)
        assert back.c == pytest.approx(c, rel=1e-9, abs=1e-10)

    @given(st.floats(-5, 5), st.floats(0.1, 30.0), st.floats(-8, 8), st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_parametrisation_equivalence_property(self, xi, omega2, dd, c):
        p2 = esn.EsnParamsP2(xi, omega2, dd, c)
        y = xi + 0.37 * math.sqrt(omega2 + dd * dd)
        assert esn.logpdf_p2(p2, y) == pytest.approx(
            esn.logpdf_p1(esn.p2_to_p1(p2), y), abs=1e-12
        )
