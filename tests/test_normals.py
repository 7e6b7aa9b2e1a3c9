import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import multivariate_normal

from esnsmc import normals
from esnsmc.errors import NumericalError, UnsupportedDimensionError


def bvn_quad_oracle(h, k, r):
    """Independent oracle: adaptive 2-D quadrature of the bivariate density.

    The ridge y = r x is passed to both integrations as a breakpoint; near
    |r| = 1 the density is too narrow for the quadrature to find it alone.
    """
    det = 1.0 - r * r

    def dens(y, x):
        q = (x * x - 2.0 * r * x * y + y * y) / det
        return math.exp(-q / 2.0) / (2.0 * math.pi * math.sqrt(det))

    def inner(x):
        ridge = [r * x] if -9 < r * x < k else None
        return integrate.quad(dens, -9, k, args=(x,), points=ridge, epsabs=1e-12, limit=200)[0]

    ridge = [k / r] if r != 0 and -9 < k / r < h else None
    return integrate.quad(inner, -9, h, points=ridge, epsabs=1e-12, limit=200)[0]


class TestUnivariate:
    def test_log_cdf_finite_in_deep_tail(self):
        # lam + alpha'(y-xi) reaches large negatives during MH exploration
        for x in (-37.0, -20.0, -8.0, 0.0, 8.0, 37.0):
            assert math.isfinite(float(normals.norm_logcdf(x)))

    def test_log_cdf_matches_log_of_cdf(self):
        x = np.linspace(-8, 8, 41)
        assert np.allclose(normals.norm_logcdf(x), np.log(normals.norm_cdf(x)), atol=1e-12)

    def test_mills_ratio_deep_tail(self):
        # phi(c)/Phi(c) ~ -c for c -> -inf
        assert normals.mills_ratio_inv(-40.0) == pytest.approx(40.0249, abs=1e-3)
        assert normals.mills_ratio_inv(0.0) == pytest.approx(math.sqrt(2.0 / math.pi))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_quad_form_rows_do_not_depend_on_the_batch(self, d):
        rng = np.random.default_rng(d)
        u = rng.normal(size=(300, d)) * rng.lognormal(size=(300, 1))
        a = rng.normal(size=(d, d))
        shared = a @ a.T
        per_row = rng.normal(size=(300, d, d))
        cases = (
            (shared, lambda i: shared, np.einsum("nj,jk,nk->n", u, shared, u)),
            (per_row, lambda i: per_row[i : i + 1], np.einsum("nj,njk,nk->n", u, per_row, u)),
        )
        for mat, row, oracle in cases:
            whole = normals.quad_form(u, mat)
            single = np.concatenate([normals.quad_form(u[i : i + 1], row(i)) for i in range(300)])
            assert whole.tobytes() == single.tobytes()
            np.testing.assert_allclose(whole, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


class TestBvn:
    @pytest.mark.parametrize(
        "h,k,r",
        [
            (0.5, -0.3, 0.6),
            (1.2, 1.0, -0.85),
            (-2.0, 0.3, 0.95),
            (0.0, 0.0, 0.5),
            (-1.0, -1.0, 0.99),
            (3.0, -3.0, -0.5),
            (0.2, 0.1, 0.93),
            (0.5, -2.0, -0.9967),
            (0.0, 0.7, 0.4),
            (-1.1, 0.0, -0.6),
            (0.0, 0.0, -0.8),
            (0.0, 0.0, 0.9999),
            (0.0, 0.0, -0.9999),
            (0.3, -0.2, 0.9999),
            (1.0, 0.5, -0.9999),
            (-1.3, 0.0, 0.9999),
            # the four sign cases of the |r| >= 0.925 expansion
            (-0.8, -0.4, 0.96),
            (0.1, -0.3, -0.93),
            (1.5, 0.4, -0.95),
            (-0.5, 1.2, -0.95),
        ],
    )
    def test_against_quadrature(self, h, k, r):
        assert normals.bvn_cdf(h, k, r) == pytest.approx(bvn_quad_oracle(h, k, r), abs=1e-7)

    def test_zero_correlation_factorises(self):
        h, k = 0.7, -1.3
        assert normals.bvn_cdf(h, k, 0.0) == pytest.approx(
            float(normals.norm_cdf(h) * normals.norm_cdf(k)), abs=1e-15
        )

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=50)
        k = rng.normal(size=50)
        for r in (-0.95, -0.4, 0.0, 0.6, 0.97):
            vec = normals.bvn_cdf(h, k, r)
            sc = np.array([normals.bvn_cdf(a, b, r) for a, b in zip(h, k)])
            assert np.allclose(vec, sc, atol=1e-15)

    def test_per_point_correlation_matches_scalar_calls(self):
        # one call with a correlation per point equals one call per correlation,
        # deep-tail points (the quadrature branch of the log) included
        rng = np.random.default_rng(1)
        h = np.concatenate([rng.normal(scale=2.0, size=60), [-9.0, -12.0, 0.0, 0.0]])
        k = np.concatenate([rng.normal(scale=2.0, size=60), [-8.0, 3.0, 0.0, 1.5]])
        r = np.concatenate([rng.uniform(-0.9999, 0.9999, size=60), [0.5, -0.9, 0.99, -0.3]])
        per_call = [normals.log_bvn_cdf(h[i], k[i], r[i]) for i in range(h.size)]
        assert np.array_equal(normals.log_bvn_cdf(h, k, r), per_call)
        per_call = [normals.bvn_cdf(h[i], k[i], r[i]) for i in range(h.size)]
        assert np.array_equal(normals.bvn_cdf(h, k, r), per_call)

    def test_rows_match_one_call_per_row(self):
        # one correlation per row: rows under each node rule and the |r|
        # expansion, deep-tail points included, give the bytes of one call per row
        rng = np.random.default_rng(2)
        h = rng.normal(scale=2.0, size=(8, 50))
        k = rng.normal(scale=2.0, size=(8, 50))
        h[:, 0], k[:, 0] = -9.0, -8.0
        r = np.array([0.1, -0.2, 0.5, -0.6, 0.8, -0.9, 0.95, -0.99])[:, None]
        for f in (normals.log_bvn_cdf, normals.bvn_cdf):
            assert np.array_equal(f(h, k, r), [f(h[i], k[i], r[i, 0]) for i in range(8)])

    def test_small_probability_at_strong_negative_correlation(self):
        # p = 1.03e-10, just above the log's switch to its tail quadrature
        mp = pytest.importorskip("mpmath")
        h, k, r = -1.38, 0.60, -0.99
        with mp.workdps(30):
            mh, mk, mr = mp.mpf(h), mp.mpf(k), mp.mpf(r)
            s = mp.sqrt(1 - mr * mr)
            points = sorted(x for x in (mk / mr, mh - 2, mh - 1, mh - 0.25) if x < mh)
            ref = mp.quad(
                lambda x: mp.npdf(x) * mp.ncdf((mk - mr * x) / s), [-mp.inf, *points, mh]
            )
            ref = float(ref)
        assert abs(normals.bvn_cdf(h, k, r) - ref) <= 1e-9 * ref

    def test_infinite_limits(self):
        assert normals.bvn_cdf(np.inf, 0.3, 0.5) == pytest.approx(
            float(normals.norm_cdf(0.3)), abs=1e-15
        )
        assert normals.bvn_cdf(-np.inf, 0.3, 0.5) == 0.0

    def test_log_version_tail_guard(self):
        # probability underflows but the log stays finite and ordered
        val = normals.log_bvn_cdf(np.array([-30.0]), np.array([-30.0]), 0.3)[0]
        assert math.isfinite(val)
        assert val < normals.log_bvn_cdf(np.array([-20.0]), np.array([-20.0]), 0.3)[0]

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            normals.bvn_cdf(0.0, 0.0, 1.0)


class TestTrivariate:
    def test_against_triple_quadrature(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        b = rng.normal(scale=1.5, size=3) * np.sqrt(np.diag(cov))
        prec = np.linalg.inv(cov)
        cst = 1.0 / math.sqrt((2 * math.pi) ** 3 * np.linalg.det(cov))

        def dens(z, y, x):
            v = np.array([x, y, z])
            return cst * math.exp(-0.5 * v @ prec @ v)

        lo = -9 * np.sqrt(np.diag(cov))
        oracle, _ = integrate.tplquad(dens, lo[0], b[0], lo[1], b[1], lo[2], b[2], epsabs=1e-10)
        assert normals.tvn_cdf(b, cov) == pytest.approx(oracle, abs=1e-7)

    def test_independent_case(self):
        cov = np.diag([1.0, 4.0, 0.25])
        b = np.array([0.3, -1.0, 0.2])
        expect = float(np.prod(normals.norm_cdf(b / np.sqrt(np.diag(cov)))))
        assert normals.tvn_cdf(b, cov) == pytest.approx(expect, abs=1e-8)


class TestQuadrivariate:
    def test_reports_standard_error(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 4 * np.eye(4)
        b = rng.normal(scale=1.2, size=4) * np.sqrt(np.diag(cov))
        val, se = normals.qvn_cdf(b, cov, tol=3e-5, rng=np.random.default_rng(1))
        assert se <= 3e-5
        ref = multivariate_normal(mean=np.zeros(4), cov=cov).cdf(b)
        assert val == pytest.approx(ref, abs=2e-4)

    def test_budget_exhaustion_raises(self):
        cov = np.full((4, 4), 0.6) + 0.4 * np.eye(4)
        b = np.full(4, -0.5)
        with pytest.raises(NumericalError):
            normals.qvn_cdf(b, cov, tol=1e-14, rng=np.random.default_rng(0), max_points=2048)


class TestDispatch:
    def test_dimension_five_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            normals.mvn_cdf(np.zeros(5), np.eye(5))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            normals.mvn_cdf(np.zeros(2), np.eye(2), tol=0.0)

    def test_dimension_one(self):
        assert normals.mvn_cdf([0.5], [[4.0]]) == pytest.approx(
            float(normals.norm_cdf(0.25)), abs=1e-15
        )
