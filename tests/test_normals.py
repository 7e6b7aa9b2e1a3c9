import math

import numpy as np
import pytest
from scipy import integrate, optimize, special
from scipy.stats import multivariate_normal

from esnsmc import normals
from esnsmc.errors import NumericalError, UnsupportedDimensionError

# a RuntimeWarning that escapes a normals function fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def log_bvn_mp_oracle(h, k, r):
    """Independent oracle for log P(X <= h, Y <= k): mpmath quadrature of
    phi(x) Phi((k - r x) / s) over x below the deeper limit.  Breakpoints close
    in geometrically on the integrand's maximum (x^ +- 2^-j, j = -4..13), so
    that the quadrature finds its peak, about s wide near |r| = 1; a naive
    x-integration there is off by up to 0.4 in log p."""
    mp = pytest.importorskip("mpmath")
    h, k = min(h, k), max(h, k)
    s = math.sqrt((1.0 - r) * (1.0 + r))
    x_hat = optimize.minimize_scalar(
        lambda x: 0.5 * x * x - special.log_ndtr((k - r * x) / s),
        bounds=(h - 60.0, h), method="bounded", options={"xatol": 1e-12},
    ).x
    cuts = sorted({x_hat + d * 2.0**-j for j in range(-4, 14) for d in (-1.0, 1.0)} | {x_hat})
    with mp.workdps(30):
        mh, mk, mr = mp.mpf(h), mp.mpf(k), mp.mpf(r)
        ms = mp.sqrt((1 - mr) * (1 + mr))
        p = mp.quad(
            lambda x: mp.npdf(x) * mp.ncdf((mk - mr * x) / ms),
            [-mp.inf, *(mp.mpf(c) for c in cuts if c < h), mh],
        )
        return float(mp.log(p))


def _bvn_low_loop(h, k, r, g):
    """Reference: Genz's Gauss-Legendre rule g, one node at a time."""
    x, w = normals._GL[g]
    asr = np.arcsin(r) * 0.5
    sn = np.sin(asr * x)
    inv = 1.0 / (1.0 - sn * sn)
    hk, hs = h * k, (h * h + k * k) * 0.5
    acc = np.zeros(hk.shape)
    for j in range(x.size):
        acc += w[j] * np.exp((hk * sn[:, j : j + 1] - hs) * inv[:, j : j + 1])
    return acc * (asr / (2.0 * math.pi)) + special.ndtr(h) * special.ndtr(k)


def _bvn_high_loop(h, k, r):
    """Reference: Genz's |r| >= 0.925 expansion, its remainder one node at a time."""
    x, w = normals._GL[2]
    h = -h
    k = np.where(r < 0.0, k, -k)
    hk = h * k
    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    asr = -(bs / as_ + hk) / 2.0
    bvn = np.where(
        asr > -100.0,
        a * np.exp(asr) * (1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_ * as_),
        0.0,
    )
    b = np.sqrt(bs)
    sp = math.sqrt(2.0 * math.pi) * special.ndtr(-b / a)
    bvn -= np.where(
        hk > -100.0, np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0), 0.0
    )
    a = a / 2.0
    quad = np.zeros(h.shape)
    for j in range(x.size):
        xs = (a * x[j]) ** 2
        rs = np.sqrt(1.0 - xs)
        asr = -(bs / xs + hk) / 2.0
        sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
        ep = np.exp(-(hk / 2.0) * xs / (1.0 + rs) ** 2) / rs
        quad += w[j] * np.where(asr > -100.0, np.exp(asr) * (sp - ep), 0.0)
    bvn = (a * quad - bvn) / (2.0 * math.pi)
    low = np.where(
        h < 0.0, special.ndtr(k) - special.ndtr(h), special.ndtr(-h) - special.ndtr(-k)
    )
    return np.where(
        r > 0.0, bvn + special.ndtr(-np.maximum(h, k)), np.where(h >= k, -bvn, low - bvn)
    )


def bvn_loop_oracle(h, k, r):
    """Phi2 on (R, P) limits with (R, 1) correlations by the per-node loops,
    each row under the rule its |r| picks."""
    rule = np.searchsorted([0.3, 0.75, 0.925], np.abs(r[:, 0]), side="right")
    out = np.empty(h.shape)
    with np.errstate(all="ignore"):
        for i, g in enumerate(rule):
            rows = slice(i, i + 1)
            if g < 3:
                out[rows] = _bvn_low_loop(h[rows], k[rows], r[rows], g)
            else:
                out[rows] = _bvn_high_loop(h[rows], k[rows], r[rows])
    return np.clip(out, 0.0, 1.0)


# rows under each rule and both signs of r, rules 0-2 and the expansion
_RULE_R = [(0.05, 0.29), (0.31, 0.74), (0.76, 0.92), (0.93, 0.9999)]


# Deep-tail points (p from about 1e-11 down to 1e-290) at each correlation: the
# diagonal, rays on which the correlation binds (r > 0: the smaller |limit| over
# the larger lies between r and 1) and rays that Y ~ -X cuts off (r < 0)
_TAIL_GRID = {
    0.9: [(-6.4049, -6.4049), (-16.2049, -15.3946), (-26.9115, -24.7586), (-32.9353, -36.3926)],
    0.925: [(-6.461, -6.461), (-16.2394, -15.6304), (-26.9224, -25.307), (-33.8014, -36.3945)],
    0.95: [(-6.5207, -6.5207), (-16.2755, -15.8687), (-26.934, -25.8567), (-34.6679, -36.3968)],
    0.99: [(-6.6384, -6.6384), (-16.3469, -16.2651), (-26.9593, -26.7436), (-36.0572, -36.403)],
    0.9999: [(-6.7003, -6.7003), (-16.3918, -16.391), (-26.9837, -26.9816), (-36.4126, -36.4161)],
    -0.9: [(-1.3784, -1.3784), (-5.5048, -1.6514), (-19.7598, 9.8799), (-4.6129, -11.5322)],
    -0.925: [(-1.1892, -1.1892), (-4.7738, -1.4321), (-17.8688, 8.9344), (-3.9994, -9.9985)],
    -0.95: [(-0.9659, -0.9659), (-3.9021, -1.1706), (-15.2773, 7.6386), (-3.2689, -8.1723)],
    -0.99: [(-0.4229, -0.4229), (-1.7447, -0.5234), (-7.4037, 3.7019), (-1.4638, -3.6594)],
    -0.9999: [(-0.0396, -0.0396), (-0.173, -0.0519), (-0.7543, 0.3771), (-0.1462, -0.3655)],
}
# r = 0.9999, where the integrand over x <= h is a peak a few hundredths wide,
# far from h: a rule over a fixed window around a coarse maximum misses it
_NARROW_PEAKS = [
    (-1.0, -25.0, 0.9999),
    (1.2467, -14.9372, 0.9999),
    (-14.1698, -25.4402, 0.9999),
    (-24.0405, -27.9554, 0.9999),
]


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

    @pytest.mark.parametrize("x", [-1e2, -1e4, -1e6, -5e9, 0.0, 5.0])
    def test_mills_ratio_relative_precision_against_mpmath(self, x):
        # phi / Phi from its two logs lost relative precision as x -> -inf
        # (1e-4 at -1e6) and overflowed at -5e9
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            expect = float(mp.npdf(x) / mp.ncdf(x))
        assert float(normals.mills_ratio_inv(x)) == pytest.approx(expect, rel=1e-14)

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

    def test_matches_per_node_reference_loops(self):
        # every rule, both signs of r, r within 1e-12 of each rule edge, and
        # |h|, |k| up to 8, also along h = k and h = -k where the expansion's
        # terms peak, hold to the rule's 1e-15
        rng = np.random.default_rng(14)
        edges = [e + d for e in (0.3, 0.75, 0.925) for d in (-1e-12, 1e-12)]
        r = np.concatenate([
            edges, [rng.uniform(lo, hi) for lo, hi in _RULE_R for _ in range(4)], [0.0]
        ])
        r = np.concatenate([r, -r])[:, None]
        h = rng.uniform(-8.0, 8.0, size=(r.size, 300))
        for k in (rng.uniform(-8.0, 8.0, size=h.shape), h + rng.normal(scale=0.1, size=h.shape),
                  -h + rng.normal(scale=0.1, size=h.shape), rng.normal(size=h.shape)):
            diff = np.abs(normals.bvn_cdf(h, k, r) - bvn_loop_oracle(h, k, r))
            assert diff.max() <= 1e-15

    @pytest.mark.parametrize(
        "h, k, r",
        [(200.0, -200.0, 0.93), (200.0, 200.0, -0.93), (1000.0, -40.0, 0.95),
         (-40.0, 1000.0, 0.95), (-200.0, 200.0, -0.99), (1300.0, -1300.0, 0.999)],
    )
    def test_large_limits_match_reference_loops(self, h, k, r):
        # limits far out, where the expansion's dropped node terms overflow:
        # (h, k) and (k, h) in one row take the loops' values, and the log,
        # finite, is the tail rule's
        hk, rk = np.array([[h, k]]), np.full((1, 1), r)
        p = normals.bvn_cdf(hk, hk[:, ::-1], rk)
        assert np.abs(p - bvn_loop_oracle(hk, hk[:, ::-1], rk)).max() <= 1e-15
        log_p = normals.log_bvn_cdf(h, k, r)
        if p[0, 0] <= 1e-10:
            tail = normals._log_bvn_tail(np.array([h]), np.array([k]), np.array([r]))
            assert np.isfinite(log_p) and log_p == tail[0]
        else:
            assert log_p == pytest.approx(math.log(p[0, 0]), abs=1e-15)

    def test_rows_without_columns(self):
        # a block with no columns, as a sample without censored rows leaves,
        # gives an empty result of its shape under every rule
        r = np.array([[0.1], [0.5], [0.8], [0.95], [-0.95]])
        for k in (np.zeros((5, 0)), np.zeros((5, 1))):
            for f in (normals.bvn_cdf, normals.log_bvn_cdf):
                assert f(np.zeros((5, 0)), k, r).shape == (5, 0)
        assert normals.bvn_cdf([], [], 0.5).shape == (0,)
        assert normals.log_bvn_cdf(0.5, 0.5, []).shape == (0,)

    @pytest.mark.parametrize("n_cols", [300, 700])
    def test_rows_keep_their_bytes_at_the_target_shapes(self, n_cols):
        # rows of one rule or of all rules together give the same bytes in
        # calls of 200, 16 and 1 rows, and a k constant along the row gives
        # the same bytes as (R, 1) as broadcast to (R, P)
        rng = np.random.default_rng(n_cols)
        sign = np.where(np.arange(200) % 2, 1.0, -1.0)
        blocks = [rng.uniform(lo, hi, size=200) * sign for lo, hi in _RULE_R]
        blocks.append(np.concatenate(blocks)[rng.permutation(800)[:200]])
        h = rng.normal(scale=2.0, size=(200, n_cols))
        k = rng.normal(scale=2.0, size=(200, n_cols))
        k_row = rng.normal(scale=2.0, size=(200, 1))
        for r in blocks:
            r = r[:, None]
            for f in (normals.bvn_cdf, normals.log_bvn_cdf):
                whole = f(h, k, r)
                by_16 = np.concatenate([f(h[i : i + 16], k[i : i + 16], r[i : i + 16])
                                        for i in range(0, 200, 16)])
                assert whole.tobytes() == by_16.tobytes()
                for i in range(0, 200, 9):
                    assert whole[i].tobytes() == f(h[i : i + 1], k[i : i + 1], r[i : i + 1]).tobytes()
                row_const = f(h, k_row, r)
                assert row_const.tobytes() == f(h, np.broadcast_to(k_row, h.shape), r).tobytes()
                assert row_const.tobytes() == f(h, np.repeat(k_row, n_cols, axis=1), r).tobytes()

    def test_small_probability_at_strong_negative_correlation(self):
        # p = 1.03e-10, just above the log's switch to its tail quadrature
        h, k, r = -1.38, 0.60, -0.99
        ref = math.exp(log_bvn_mp_oracle(h, k, r))
        assert abs(normals.bvn_cdf(h, k, r) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize(
        "h,k,r", [(h, k, r) for r, hk in _TAIL_GRID.items() for h, k in hk] + _NARROW_PEAKS
    )
    def test_deep_tail_against_mpmath(self, h, k, r):
        ref = log_bvn_mp_oracle(h, k, r)
        assert math.log(1e-300) < ref < math.log(1e-10)
        assert normals.log_bvn_cdf(h, k, r) == pytest.approx(ref, abs=1e-8)

    def test_deep_tail_at_near_unit_correlation(self):
        # X <= -1 cuts off a share of about Phi(-1700) of Y <= -25, so log p is
        # log Phi(-25) = -316.63941; over x <= -1 the integrand is 0.04 wide
        assert normals.log_bvn_cdf(-1.0, -25.0, 0.9999) == pytest.approx(
            float(normals.norm_logcdf(-25.0)), abs=1e-8
        )

    def test_infinite_limits(self):
        # an infinite limit leaves Phi (log Phi) of the other limit
        assert normals.bvn_cdf(np.inf, 0.3, 0.5) == pytest.approx(
            float(normals.norm_cdf(0.3)), abs=1e-15
        )
        assert normals.log_bvn_cdf(np.inf, 0.3, 0.5) == pytest.approx(
            float(normals.norm_logcdf(0.3)), abs=1e-15
        )
        assert normals.bvn_cdf(-np.inf, 0.3, 0.5) == 0.0
        for h, k, r in ((-np.inf, 0.0, 0.5), (0.0, -np.inf, 0.5), (-np.inf, -np.inf, -0.5)):
            assert normals.bvn_cdf(h, k, r) == 0.0
            assert normals.log_bvn_cdf(h, k, r) == -np.inf
        # Phi(-40) underflows; its log does not
        assert normals.bvn_cdf(np.inf, -40.0, 0.3) == 0.0
        assert normals.log_bvn_cdf(np.inf, -40.0, 0.3) == pytest.approx(-804.6084420137538)
        assert normals.log_bvn_cdf(-40.0, np.inf, -0.3) == pytest.approx(-804.6084420137538)

    def test_log_version_tail_guard(self):
        # probability underflows but the log stays finite and ordered
        val = normals.log_bvn_cdf(np.array([-30.0]), np.array([-30.0]), 0.3)[0]
        assert math.isfinite(val)
        assert val < normals.log_bvn_cdf(np.array([-20.0]), np.array([-20.0]), 0.3)[0]

    def test_invalid_correlation(self):
        for f in (normals.bvn_cdf, normals.log_bvn_cdf):
            for r in (1.0, -1.0, 1.5, np.inf, np.array([0.3, 1.0])):
                with pytest.raises(ValueError):
                    f(0.0, 0.0, r)
            # a NaN correlation, such as an ESNSM batch row with overflowing
            # parameters, gives NaN and no error
            assert np.isnan(f(0.0, 0.0, np.nan))
            assert np.isnan(f(np.zeros(3), 0.0, np.array([0.2, np.nan, 0.3]))).tolist() == [
                False, True, False
            ]

    def test_log_partials_match_central_differences(self):
        # both rules, both signs of r, and deep-tail points (p down to 1e-159)
        pts = [(0.3, -0.5, 0.2), (1.0, 2.0, -0.6), (-2.0, 1.5, 0.95), (-1.0, -1.0, -0.97),
               (-6.4049, -6.4049, 0.9), (-16.2049, -15.3946, 0.9), (-5.5048, -1.6514, -0.9),
               (-26.9, -24.8, 0.99)]
        h, k, r = (np.array(a) for a in zip(*pts))
        grads = np.stack(normals.log_bvn_partials(h, k, r, normals.log_bvn_cdf(h, k, r)))
        eps = 1e-5
        for g, step in zip(grads, np.eye(3) * eps):
            fd = (normals.log_bvn_cdf(h + step[0], k + step[1], r + step[2])
                  - normals.log_bvn_cdf(h - step[0], k - step[1], r - step[2])) / (2 * eps)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)


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
