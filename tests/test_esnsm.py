import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from esnsmc import esn, esnsm
from esnsmc.errors import DataError, ParameterDomainError

# a RuntimeWarning that escapes an esnsm function fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

B_DESIGN = np.array([[3.0, -2.0, 0.0]])
BETA2_DESIGN = np.array([1.5, 0.0, 2.0])


def design_params(rho=0.3, alpha=(2.0, 1.0), lam=-2.0):
    return esnsm.EsnsmParams(
        B_DESIGN, BETA2_DESIGN, [[6.0]], [rho * math.sqrt(6.0)], list(alpha), lam
    )


def tobit2_loglik(b_mat, beta2, s1sq, s12, data):
    """Independent classical Heckman / Tobit-2 log-likelihood."""
    x, s, y = data.x, data.s, data.y[:, 0]
    idx = x @ beta2
    sd1 = math.sqrt(s1sq)
    cond_sd = math.sqrt(1.0 - s12**2 / s1sq)
    out = 0.0
    for i in range(data.n):
        if s[i] == 0:
            out += float(norm.logcdf(-idx[i]))
        else:
            r = y[i] - x[i] @ b_mat[0]
            out += float(norm.logpdf(r, scale=sd1))
            out += float(norm.logcdf((idx[i] + s12 / s1sq * r) / cond_sd))
    return out


class TestParamsAndData:
    def test_mean_zero_location(self):
        p = design_params()
        ep = p.error_params()
        assert np.allclose(esn.mean(ep), 0.0, atol=1e-12)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ParameterDomainError):
            esnsm.EsnsmParams(B_DESIGN, BETA2_DESIGN, [[1.0]], [1.5], [0.0, 0.0], 0.0)

    def test_data_consistency_enforced(self):
        x = np.ones((3, 3))
        with pytest.raises(DataError):
            esnsm.EsnsmData(x, [1, 0, 1], [[1.0], [2.0], [3.0]])  # censored row has value
        with pytest.raises(DataError):
            esnsm.EsnsmData(x, [1, 0, 1], [[1.0], [np.nan], [np.nan]])  # selected missing

    def test_zero_outcome_is_not_missing(self):
        x = np.ones((2, 3))
        data = esnsm.EsnsmData(x, [1, 0], [[0.0], [np.nan]])
        assert data.y[0, 0] == 0.0


class TestSimulate:
    def test_design_censoring_fraction(self):
        rng = np.random.default_rng(0)
        data = esnsm.simulate(design_params(), 1000, esnsm.CovariateSpec(), rng)
        frac = 1.0 - data.s.mean()
        assert 0.30 - 0.04 <= frac <= 0.35 + 0.04

    def test_error_mean_zero(self):
        rng = np.random.default_rng(1)
        p = design_params()
        eps = esn.sample(p.error_params(), 1_000_000, rng)
        se = eps.std(axis=0) / 1000.0
        assert np.all(np.abs(eps.mean(axis=0)) < 4 * se)

    def test_symmetric_median_split(self):
        # no covariate effect, symmetric errors: half the sample is censored
        p = esnsm.EsnsmParams(B_DESIGN, np.zeros(3), [[6.0]], [0.5], [0.0, 0.0], 0.0)
        rng = np.random.default_rng(2)
        data = esnsm.simulate(p, 200_000, esnsm.CovariateSpec(), rng)
        assert data.s.mean() == pytest.approx(0.5, abs=0.005)

    def test_explicit_design_matrix(self):
        x = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
        data = esnsm.simulate(design_params(), 5, x, np.random.default_rng(3))
        assert np.array_equal(data.x, x)


class TestLoglik:
    def test_gaussian_limit_matches_tobit2(self):
        p = esnsm.EsnsmParams(
            B_DESIGN, BETA2_DESIGN, [[6.0]], [0.3 * math.sqrt(6.0)], [0.0, 0.0], 0.0
        )
        rng = np.random.default_rng(4)
        data = esnsm.simulate(p, 300, esnsm.CovariateSpec(), rng)
        mine = esnsm.loglik(p, data)
        oracle = tobit2_loglik(p.B, p.beta2, 6.0, 0.3 * math.sqrt(6.0), data)
        assert mine == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_limit_random_parameters(self):
        rng = np.random.default_rng(5)
        base = esnsm.simulate(design_params(), 200, esnsm.CovariateSpec(), rng)
        for _ in range(5):
            b = rng.normal(size=(1, 3))
            b2 = rng.normal(size=3)
            s1 = rng.gamma(3.0) + 0.5
            s12 = rng.uniform(-0.9, 0.9) * math.sqrt(s1)
            p = esnsm.EsnsmParams(b, b2, [[s1]], [s12], [0.0, 0.0], 0.0)
            assert esnsm.loglik(p, base) == pytest.approx(
                tobit2_loglik(b, b2, s1, s12, base), abs=1e-8
            )

    def test_partition_of_unity(self):
        rng = np.random.default_rng(6)
        x1 = np.array([[1.0, 0.7, -0.4]])
        for _ in range(4):
            p = esnsm.EsnsmParams(
                rng.normal(size=(1, 3)),
                rng.normal(size=3),
                [[rng.gamma(3.0) + 0.5]],
                [0.0],
                rng.normal(scale=1.2, size=2),
                rng.normal(),
            )
            s1 = p.sigma1[0, 0]
            p.sigma12 = np.array([rng.uniform(-0.9, 0.9) * math.sqrt(s1)])
            p.__post_init__()
            cens = math.exp(esnsm.loglik(p, esnsm.EsnsmData(x1, [0], [[np.nan]])))
            obs, _ = integrate.quad(
                lambda y: math.exp(esnsm.loglik(p, esnsm.EsnsmData(x1, [1], [[y]]))),
                -60, 60, limit=400,
            )
            assert cens + obs == pytest.approx(1.0, abs=1e-4)

    def test_censored_term_against_simulation(self):
        p = design_params()
        x1 = np.array([[1.0, 0.7, -0.4]])
        cens = math.exp(esnsm.loglik(p, esnsm.EsnsmData(x1, [0], [[np.nan]])))
        rng = np.random.default_rng(7)
        eps = esn.sample(p.error_params(), 1_000_000, rng)
        sstar = x1[0] @ p.beta2 + eps[:, 1]
        mc = float((sstar < 0).mean())
        se = math.sqrt(mc * (1 - mc) / 1e6)
        assert abs(cens - mc) < 3 * se

    def test_separates_when_outcome_decoupled(self):
        # all selected, no cross covariance, no selection shape: the outcome
        # block is an IID ESN likelihood and the selection block follows the
        # marginal law of the selection error alone
        rng = np.random.default_rng(8)
        p = esnsm.EsnsmParams(B_DESIGN, BETA2_DESIGN, [[6.0]], [0.0], [2.0, 0.0], -2.0)
        x = esnsm.CovariateSpec().draw(40, rng)
        y = rng.normal(size=(40, 1)) + x @ p.B.T
        data = esnsm.EsnsmData(x, np.ones(40, dtype=int), y)
        full = esnsm.loglik(p, data)

        marg = esn.marginal(p.error_params(), [0])
        outcome_block = esn.loglik(marg, y - x @ p.B.T)
        sel_marg = esn.marginal(p.error_params(), [1])
        sel_block = sum(
            math.log(1.0 - esn.cdf(sel_marg, -float(xi @ p.beta2), tol=1e-10))
            for xi in x
        )
        assert full == pytest.approx(outcome_block + sel_block, abs=1e-6)


class TestPrior:
    def test_sign_flip_symmetry_in_coefficients(self):
        rng = np.random.default_rng(9)
        x = esnsm.CovariateSpec().draw(100, rng)
        hyper = esnsm.EsnsmHyper.defaults(1, 3, 3, 100)
        p_plus = esnsm.EsnsmParams([[1.0, -2.0, 0.5]], [0.3, 0.1, -0.7], [[2.0]], [0.4], [0.0, 0.0], 0.0)
        p_minus = esnsm.EsnsmParams([[-1.0, 2.0, -0.5]], [-0.3, -0.1, 0.7], [[2.0]], [0.4], [0.0, 0.0], 0.0)
        assert esnsm.log_prior_esnsm(p_plus, hyper, x) == pytest.approx(
            esnsm.log_prior_esnsm(p_minus, hyper, x), abs=1e-10
        )

    def test_niw_block_normaliser_by_quadrature(self):
        # d = 1, single outcome covariate: coefficient-and-scale block
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 1))
        hyper = esnsm.EsnsmHyper.defaults(1, 1, 1, 50)
        xtx = float(x[:, 0] @ x[:, 0])

        def dens(b, s1):
            var_b = hyper.c_beta1 * s1 / xtx
            p_b = math.exp(-0.5 * b * b / var_b) / math.sqrt(2 * math.pi * var_b)
            from esnsmc.priors import iw_logpdf

            return p_b * math.exp(iw_logpdf([[s1]], hyper.V, hyper.nu))

        val, _ = integrate.dblquad(
            dens, 1e-3, 800,
            lambda s: -80 * math.sqrt(hyper.c_beta1 * s / xtx),
            lambda s: 80 * math.sqrt(hyper.c_beta1 * s / xtx),
            epsabs=1e-9,
        )
        assert abs(val - 1.0) < 1e-5
        # and the implementation's coefficient term matches that construction
        p0 = esnsm.EsnsmParams([[0.7]], [0.2], [[2.0]], [0.0], [0.0, 0.0], 0.0)
        p1 = esnsm.EsnsmParams([[1.9]], [0.2], [[2.0]], [0.0], [0.0, 0.0], 0.0)
        diff = esnsm.log_prior_esnsm(p0, hyper, x) - esnsm.log_prior_esnsm(p1, hyper, x)
        var_b = hyper.c_beta1 * 2.0 / xtx
        assert diff == pytest.approx((1.9**2 - 0.7**2) / (2 * var_b), abs=1e-10)

    def test_flat_limit_of_selection_coefficients(self):
        rng = np.random.default_rng(11)
        x = esnsm.CovariateSpec().draw(60, rng)
        p0 = esnsm.EsnsmParams([[1.0, 0.0, 0.0]], [0.0, 0.0, 0.0], [[2.0]], [0.0], [0.0, 0.0], 0.0)
        p1 = esnsm.EsnsmParams([[1.0, 0.0, 0.0]], [2.0, -1.0, 3.0], [[2.0]], [0.0], [0.0, 0.0], 0.0)
        diffs = []
        for c in (1e2, 1e4, 1e6):
            hyper = esnsm.EsnsmHyper(
                mu_b=np.zeros((1, 3)), c_beta1=100.0, mu_beta2=np.zeros(3),
                c_beta2=c, V=12.0 * np.eye(1), nu=6.0,
            )
            diffs.append(
                esnsm.log_prior_esnsm(p1, hyper, x) - esnsm.log_prior_esnsm(p0, hyper, x)
            )
        quad_diffs = [d - diffs[-1] for d in diffs]
        assert abs(quad_diffs[1]) < abs(quad_diffs[0]) / 50
        assert abs(diffs[2] - diffs[1]) < abs(diffs[1] - diffs[0]) / 50

    def test_infeasible_cross_covariance_rejected(self):
        rng = np.random.default_rng(12)
        x = esnsm.CovariateSpec().draw(30, rng)
        hyper = esnsm.EsnsmHyper.defaults(1, 3, 3, 30)
        with pytest.raises(ParameterDomainError):
            esnsm.EsnsmParams([[0.0, 0.0, 0.0]], np.zeros(3), [[1.0]], [1.2], [0.0, 0.0], 0.0)


class TestTauDelta:
    def test_tau_gaussian_factorisation(self):
        for a in (-1.0, 0.5, 2.0):
            assert esnsm.tau(a, 0.0, -0.3) == pytest.approx(
                float(norm.pdf(a) / norm.cdf(a)), abs=1e-12
            )

    def test_delta_gaussian_factorisation(self):
        for lam in (-0.3, 0.8):
            assert esnsm.delta(0.5, 0.0, lam) == pytest.approx(
                float(norm.pdf(lam) / norm.cdf(lam)), abs=1e-12
            )

    def test_against_two_dimensional_quadrature(self):
        a, alpha, lam = 0.5, -1.0, -0.3
        c0 = math.sqrt(1.0 + alpha * alpha)

        def dens(z, x):
            # (X, Z) with cov [[1, -alpha], [-alpha, c0^2]]
            det = c0 * c0 - alpha * alpha
            q = (c0 * c0 * x * x + 2 * alpha * x * z + z * z) / det
            return math.exp(-q / 2.0) / (2.0 * math.pi * math.sqrt(det))

        phi2, _ = integrate.dblquad(dens, -9, a, -9 * c0, lam, epsabs=1e-11)
        tau_expect = float(norm.pdf(a) * norm.cdf(lam + alpha * a)) / phi2
        delta_expect = float(norm.pdf(lam / c0) * norm.cdf(a * c0 + alpha * lam / c0)) / phi2
        assert esnsm.tau(a, alpha, lam) == pytest.approx(tau_expect, rel=1e-7)
        assert esnsm.delta(a, alpha, lam) == pytest.approx(delta_expect, rel=1e-7)

    def test_positive_and_continuous(self):
        # positivity everywhere; continuity checked by increments shrinking
        # in proportion to the grid step
        coarse = np.linspace(-4, 4, 81)
        fine = np.linspace(-4, 4, 801)
        for alpha in (-1.5, 0.0, 2.0):
            for fn in (esnsm.tau, esnsm.delta):
                v_coarse = np.array([fn(a, alpha, -0.7) for a in coarse])
                v_fine = np.array([fn(a, alpha, -0.7) for a in fine])
                assert np.all(v_coarse > 0) and np.all(v_fine > 0)
                assert np.max(np.abs(np.diff(v_fine))) < 0.2 * np.max(
                    np.abs(np.diff(v_coarse))
                ) + 1e-12


class TestConditionalExpectations:
    def test_heckman_limit(self):
        s12 = 0.3 * math.sqrt(6.0)
        p = esnsm.EsnsmParams(B_DESIGN, BETA2_DESIGN, [[6.0]], [s12], [0.0, 0.0], 0.0)
        x = np.array([1.0, 0.7, -0.4])
        a = float(x @ BETA2_DESIGN)
        mills = float(norm.pdf(a) / norm.cdf(a))
        es, ey = esnsm.conditional_expectations(p, x)
        assert es == pytest.approx(a + mills, abs=1e-10)
        assert ey == pytest.approx(float(x @ B_DESIGN[0]) + s12 * mills, abs=1e-10)

    def test_no_selection_effect_when_uncorrelated(self):
        p = esnsm.EsnsmParams(B_DESIGN, BETA2_DESIGN, [[6.0]], [0.0], [0.0, 0.0], 0.0)
        x = np.array([1.0, -0.5, 0.8])
        _, ey = esnsm.conditional_expectations(p, x)
        assert ey == pytest.approx(float(x @ B_DESIGN[0]), abs=1e-12)

    @pytest.mark.parametrize(
        "pars,xrow",
        [
            (((2.0, 1.0), -2.0, 0.3), (1.0, 0.7, -0.4)),
            (((-1.2, 0.7), 1.4, -0.5), (1.0, -0.5, 0.8)),
        ],
    )
    def test_rejection_simulation_oracle(self, pars, xrow):
        alpha, lam, rho = pars
        p = design_params(rho=rho, alpha=alpha, lam=lam)
        x = np.array(xrow)
        rng = np.random.default_rng(13)
        eps = esn.sample(p.error_params(), 4_000_000, rng)
        sstar = float(x @ p.beta2) + eps[:, 1]
        ystar = float(x @ p.B[0]) + eps[:, 0]
        sel = sstar >= 0
        es, ey = esnsm.conditional_expectations(p, x)
        se_s = sstar[sel].std() / math.sqrt(sel.sum())
        se_y = ystar[sel].std() / math.sqrt(sel.sum())
        assert es == pytest.approx(float(sstar[sel].mean()), abs=3 * se_s)
        assert ey == pytest.approx(float(ystar[sel].mean()), abs=3 * se_y)

    def test_multivariate_outcome_unsupported(self):
        p = esnsm.EsnsmParams(
            np.zeros((2, 3)), np.zeros(3), np.eye(2), np.zeros(2), np.zeros(3), 0.0
        )
        with pytest.raises(ParameterDomainError):
            esnsm.conditional_expectations(p, np.zeros(3))


class TestMarginalEffect:
    def test_selection_only_covariate_has_no_effect_when_uncorrelated(self):
        p = esnsm.EsnsmParams(B_DESIGN, BETA2_DESIGN, [[6.0]], [0.0], [0.0, 0.0], 0.0)
        x = np.array([1.0, 0.7, -0.4])
        assert esnsm.marginal_effect(p, x, 2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_heckman_analytic_derivative(self):
        s12 = 0.3 * math.sqrt(6.0)
        p = esnsm.EsnsmParams(B_DESIGN, BETA2_DESIGN, [[6.0]], [s12], [0.0, 0.0], 0.0)
        x = np.array([1.0, 0.7, -0.4])
        a = float(x @ BETA2_DESIGN)
        mills = float(norm.pdf(a) / norm.cdf(a))
        dmills = -a * mills - mills * mills
        expect = s12 * dmills * BETA2_DESIGN[2]
        assert esnsm.marginal_effect(p, x, 2) == pytest.approx(expect, abs=1e-6)

    def test_outcome_covariate_effect_is_coefficient_plus_correction(self):
        p = design_params()
        x = np.array([1.0, 0.7, -0.4])
        got = esnsm.marginal_effect(p, x, 1)
        # x1 enters the outcome only (its selection coefficient is zero)
        assert got == pytest.approx(float(p.B[0, 1]), abs=1e-8)

    def test_selection_covariate_effect_against_simulation(self):
        # skewed errors (design shape and shift): a central difference of the
        # simulated E[Y*|S=1,x] over common random numbers, with the ratio
        # estimator's delta-method standard error; the step h keeps the
        # O(h^2) difference bias far below that error.  Bound: normal
        # quantile for 1 % family-wise error over the three rows.
        p = design_params()
        eps = esn.sample(p.error_params(), 2_000_000, np.random.default_rng(5))
        h = 0.05
        z_crit = norm.ppf(1.0 - 0.01 / (2 * 3))
        for x2 in (-1.0, -0.5, 0.0):  # selection index -0.5, 0.5, 1.5
            x = np.array([1.0, 0.7, x2])
            est, infl = [], []
            for shift in (h, -h):
                xs = x + np.array([0.0, 0.0, shift])
                y = float(xs @ p.B[0]) + eps[:, 0]
                sel = float(xs @ p.beta2) + eps[:, 1] >= 0.0
                frac = sel.mean()
                cond = float(np.mean(y * sel)) / frac
                est.append(cond)
                infl.append((y - cond) * sel / frac)
            sim = (est[0] - est[1]) / (2.0 * h)
            se = float(np.std(infl[0] - infl[1])) / math.sqrt(eps.shape[0]) / (2.0 * h)
            assert abs(esnsm.marginal_effect(p, x, 2) - sim) <= z_crit * se

    @pytest.mark.parametrize("skewed", [False, True])
    def test_matrix_matches_row_calls(self, skewed):
        p = design_params() if skewed else design_params(alpha=(0.0, 0.0), lam=0.0)
        x = esnsm.CovariateSpec().draw(60, np.random.default_rng(14))
        x[:3, 2] = [-4.0, -3.0, 4.0]  # selection index deep in both tails
        es, ey = esnsm.conditional_expectations(p, x)
        rows = np.array([esnsm.conditional_expectations(p, row) for row in x])
        np.testing.assert_allclose(es, rows[:, 0], rtol=1e-12)
        np.testing.assert_allclose(ey, rows[:, 1], rtol=1e-12)
        for k in range(3):
            np.testing.assert_allclose(
                esnsm.marginal_effect(p, x, k),
                [esnsm.marginal_effect(p, row, k) for row in x],
                rtol=0.0, atol=1e-9,
            )


class TestBivariateOutcome:
    def test_gaussian_limit_matches_bivariate_tobit2(self):
        # two outcome equations plus selection; independent oracle coded from
        # the classical formulas: phi_2 density times conditional probit
        rng = np.random.default_rng(40)
        b_mat = np.array([[1.0, 0.5, 0.0], [-0.5, 1.2, 0.0]])
        beta2 = np.array([0.8, 0.0, 1.1])
        sigma1 = np.array([[2.0, 0.6], [0.6, 1.5]])
        sigma12 = np.array([0.5, -0.3])
        p = esnsm.EsnsmParams(b_mat, beta2, sigma1, sigma12, [0.0, 0.0, 0.0], 0.0)
        x = esnsm.CovariateSpec().draw(60, rng)
        eps = rng.multivariate_normal(np.zeros(3), p.sigma, size=60)
        ystar = x @ b_mat.T + eps[:, :2]
        s = (x @ beta2 + eps[:, 2] >= 0).astype(int)
        y = np.where(s[:, None] == 1, ystar, np.nan)
        data = esnsm.EsnsmData(x, s, y)

        prec = np.linalg.inv(sigma1)
        cond_var = 1.0 - sigma12 @ prec @ sigma12
        oracle = 0.0
        for i in range(60):
            idx = float(x[i] @ beta2)
            if s[i] == 0:
                oracle += float(norm.logcdf(-idx))
            else:
                r = y[i] - x[i] @ b_mat.T
                quad = float(r @ prec @ r)
                oracle += -math.log(2 * math.pi) - 0.5 * math.log(np.linalg.det(sigma1)) - 0.5 * quad
                cm = idx + float(sigma12 @ prec @ r)
                oracle += float(norm.logcdf(cm / math.sqrt(cond_var)))
        assert esnsm.loglik(p, data) == pytest.approx(oracle, abs=1e-8)

    def test_target_needs_scalar_outcome(self):
        x = esnsm.CovariateSpec().draw(20, np.random.default_rng(41))
        s = np.arange(20) % 2
        y = np.where(s[:, None] == 1, 1.0, np.nan) * np.ones((20, 2))
        data = esnsm.EsnsmData(x, s, y)
        hyper = esnsm.EsnsmHyper.defaults(2, 3, 3, data.n)
        with pytest.raises(DataError):
            esnsm.make_esnsm_target(data, hyper, [0, 1, 2], [0, 1, 2])
