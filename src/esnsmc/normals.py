"""Gaussian building blocks: stable Phi / log Phi and low-dimensional
multivariate normal CDFs.

The univariate pieces wrap ``scipy.special``, so ``log Phi`` stays finite
for every finite argument.  The bivariate CDF is Genz's (2004) Drezner-Genz
rule, broadcast over both limits and the correlation; its log takes all the
points of a call with p <= 1e-10 to one vectorised log-space quadrature,
and ``log_bvn_partials`` gives its derivatives from its value.  The
trivariate CDF integrates the bivariate one with adaptive quadrature;
dimension four uses randomised quasi-Monte Carlo with a reported standard
error, and no rule goes beyond four.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import NumericalError, UnsupportedDimensionError

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Gauss-Legendre rules of Genz (2004) with 6, 12 and 20 nodes on [0, 2],
# written as 1 -+ x for the half-rule's abscissae x, with their weights;
# rule g serves |r| < 0.3, < 0.75 and the rest
_GL_HALF = (
    (
        [0.9324695142031522, 0.6612093864662647, 0.2386191860831970],
        [0.1713244923791705, 0.3607615730481384, 0.4679139345726904],
    ),
    (
        [0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
         0.5873179542866171, 0.3678314989981802, 0.1252334085114692],
        [0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
         0.2031674267230659, 0.2334925365383547, 0.2491470458134029],
    ),
    (
        [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
         0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
         0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
         0.0765265211334973],
        [0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
         0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
         0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
         0.1527533871307259],
    ),
)
_GL = tuple(
    (np.concatenate([1.0 - np.array(x), 1.0 + np.array(x)]), np.array(w + w))
    for x, w in _GL_HALF
)
_GL_LOG_W = tuple(np.log(w) for _, w in _GL)
_RULE_EDGES = np.array([0.3, 0.75, 0.925])  # |r| where rules 1 and 2 and the expansion begin
# |limit| from which Phi2 is Phi of the smaller limit to the last bit (Phi(-x)
# underflows from x = 38.5) and is taken as such: the expansion's polynomial
# in h k and (h - k)^2 overflows from about 1e38 on both limits, or 1e51 on one
_HUGE_LIMIT = 1e30
_TAIL_X, _TAIL_W = np.polynomial.legendre.leggauss(48)  # each deep-tail panel's rule
_TAIL_BLOCK = 2**14  # node-by-point terms per pass of the deep-tail rule
_TAIL_DROP, _TAIL_STEPS = 40.0, 8  # log integrand's fall at a panel end; Newton steps


def norm_logpdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - LOG_SQRT_2PI


def norm_cdf(x):
    return special.ndtr(x)


def norm_logcdf(x):
    """log Phi(x), finite for every finite x (asymptotic branch in the tail)."""
    return special.log_ndtr(x)


def norm_ppf(p):
    return special.ndtri(p)


def mills_ratio_inv(x):
    """phi(x) / Phi(x) as sqrt(2 / pi) / erfcx(-x / sqrt(2)), which keeps its
    relative precision however deep the left tail; d log Phi(x) / dx."""
    x = np.asarray(x, dtype=float)
    return math.sqrt(2.0 / math.pi) / special.erfcx(x * -math.sqrt(0.5))


def quad_form(u, mat):
    """u' M u for each row of ``u``, with one matrix M for all rows or one
    per row.  The terms are added one by one in index order, so a row gets
    the same bytes wherever it sits in a batch; a three-operand einsum
    sums a lone row in another order than a row of a longer batch."""
    d = u.shape[-1]
    out = np.zeros(u.shape[:-1])
    for j in range(d):
        for k in range(d):
            out = out + u[..., j] * mat[..., j, k] * u[..., k]
    return out


def _rows(h, k, r):
    """h, k and r as (R, P) arrays with one correlation per row: r's own
    axes lead and are kept, the rest of the broadcast shape becomes P.  A
    limit that is constant along a row stays (R, 1).  When r varies along a
    trailing axis, every point is its own row.  Limits that are already
    (R, P) or (R, 1) with an (R, 1) r, the ESNSM target's layout, pass
    through as they are."""
    if r.ndim == h.ndim == k.ndim == 2 and r.shape[1] == 1:
        (n_rows, hc), kc = h.shape, k.shape[1]
        if n_rows == k.shape[0] == r.shape[0] and (hc == kc or kc == 1 or hc == 1):
            return h, k, r, (n_rows, hc if kc == 1 else kc)
    shape = np.broadcast(h, k, r).shape
    r_shape = (1,) * (len(shape) - r.ndim) + r.shape
    lead = len(shape)
    while lead and r_shape[lead - 1] == 1:
        lead -= 1
    if r_shape[:lead] != shape[:lead]:
        lead = len(shape)
        r = np.broadcast_to(r, shape)
    n_rows, n_cols = math.prod(shape[:lead]), math.prod(shape[lead:])

    def as_rows(a):
        a = a.reshape((1,) * (len(shape) - a.ndim) + a.shape)
        full = any(n != 1 for n in a.shape[lead:])
        to = shape if full else shape[:lead] + a.shape[lead:]
        return (a if a.shape == to else np.broadcast_to(a, to)).reshape(
            n_rows, n_cols if full else 1
        )

    return as_rows(h), as_rows(k), np.ascontiguousarray(r.reshape(n_rows, 1)), shape


def _bvn_low(h, k, r, g):
    """Phi2 for |r| < 0.925 on (R, P) or (R, 1) limits with (R, 1)
    correlations: Genz's Gauss-Legendre rule g over Plackett's integral in
    asin(r), Phi2 = Phi(h) Phi(k) + 1/(2 pi) int_0^asin(r) exp(-(h^2 + k^2
    - 2 h k sin t) / (2 cos^2 t)) dt.  A row's J node exponents, with the
    log weights, are one (J, 3) @ (3, P) product of per-row coefficients
    (sin / cos^2, -1 / (2 cos^2), log w) and per-point features (h k,
    h^2 + k^2, 1)."""
    asr = np.arcsin(r) * 0.5
    sn = np.sin(asr * _GL[g][0])
    inv = 1.0 / (1.0 - sn * sn)
    coef = np.empty(sn.shape + (3,))
    coef[..., 0] = sn * inv
    coef[..., 1] = inv * -0.5
    coef[..., 2] = _GL_LOG_W[g]
    feat = np.empty((h.shape[0], 3, _cols(h, k)))
    np.multiply(h, k, out=feat[:, 0])
    np.multiply(h, h, out=feat[:, 1])
    feat[:, 1] += k * k
    feat[:, 2] = 1.0
    t = np.matmul(coef, feat)
    np.exp(t, out=t)
    acc = np.add.reduce(t, axis=1)
    acc *= asr / (2.0 * math.pi)
    acc += special.ndtr(h) * special.ndtr(k)
    return acc


def _bvn_high(h, k, r, upper):
    """Phi2 for |r| >= 0.925 on (R, P) or (R, 1) limits with (R, 1)
    correlations, all of sign ``upper`` (r > 0): Genz's expansion around the
    singular limit |r| = 1 plus the 20-node rule for its remainder, in his
    upper-orthant form P(X > -h, Y > -k).  The node constants depend on r
    alone; a row's two node exponents and its polynomial factor are
    products of per-row coefficients and the per-point features (bs, hk, 1,
    c, c d)."""
    x, w = _GL[2]
    h = -h
    k = -k if upper else k
    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    feat = np.empty((h.shape[0], 5, _cols(h, k)))
    bs, hk, c, cd = feat[:, 0], feat[:, 1], feat[:, 3], feat[:, 4]
    np.subtract(h, k, out=bs)
    bs *= bs
    np.multiply(h, k, out=hk)
    feat[:, 2] = 1.0
    np.subtract(4.0, hk, out=c)
    c /= 8.0
    d = (12.0 - hk) / 80.0
    np.multiply(c, d, out=cd)
    # asr <= 0; only asr > -100 counts, and the floor keeps exp off its slow
    # underflow
    asr = -(bs / as_ + hk) / 2.0
    bvn = np.where(
        asr > -100.0,
        a * np.exp(np.maximum(asr, -300.0))
        * (1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + cd * as_ * as_),
        0.0,
    )
    b = np.sqrt(bs)
    sp = math.sqrt(2.0 * math.pi) * special.ndtr(-b / a)
    bvn -= np.where(
        hk > -100.0, np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0), 0.0
    )
    # c d overflows only at points where every node term is dropped; capped,
    # it leaves those terms finite, so that multiplying by the mask zeroes them
    np.minimum(cd, 1e250, out=cd)
    a = a / 2.0
    # node j's term is exp(asr) w (1 + c xs + 5 c d xs^2) - exp(asr + ep),
    # asr = -(bs / xs + hk) / 2 and ep = -hk xs / (2 (1 + rs)^2) + log(w /
    # rs), kept where asr > -100: asr from (bs, hk), asr + ep from (bs, hk,
    # 1) and the polynomial from (1, c, c d).  Both exponents lie at or below
    # about 0 at any finite limits, and their floor keeps exp off its slow
    # subnormal results
    xs = (a * x) ** 2
    rs = np.sqrt(1.0 - xs)
    coef = np.zeros((3,) + xs.shape + (3,))
    coef[0, ..., 0] = -0.5 / xs
    coef[0, ..., 1] = -0.5
    coef[1, ..., :2] = coef[0, ..., :2]
    coef[1, ..., 1] -= 0.5 * xs / (1.0 + rs) ** 2
    coef[1, ..., 2] = _GL_LOG_W[2] - np.log(rs)
    coef[2, ..., 0] = w
    coef[2, ..., 1] = w * xs
    coef[2, ..., 2] = 5.0 * w * xs * xs
    term = np.matmul(coef[0, ..., :2], feat[:, :2])
    keep = term > -100.0
    np.maximum(term, -300.0, out=term)
    np.exp(term, out=term)
    # one more node array, for the polynomial and then for exp(asr + ep)
    buf = np.matmul(coef[2], feat[:, 2:])
    term *= buf
    np.matmul(coef[1], feat[:, :3], out=buf)
    np.maximum(buf, -300.0, out=buf)
    term -= np.exp(buf, out=buf)
    term *= keep
    bvn = (a * np.add.reduce(term, axis=1) - bvn) / (2.0 * math.pi)
    if upper:
        return bvn + special.ndtr(-np.maximum(h, k))
    # r < 0: the difference of Phi, where h < k, taken on the side where it
    # does not cancel: Phi(k) - Phi(h) for h < 0, Phi(-h) - Phi(-k) otherwise
    s = np.where(h < 0.0, 1.0, -1.0)
    low = special.ndtr(s * k)
    low -= special.ndtr(s * h)
    low *= s
    low *= h < k
    low -= bvn
    return low


def _cols(h, k):
    """P of (R, P) and (R, 1) limits, either way round."""
    return h.shape[1] if k.shape[1] == 1 else k.shape[1]


def _bvn(h, k, r):
    """P(X <= h, Y <= k) for standard bivariate normals with correlation r;
    h, k and r broadcast.

    Genz's (2004) version of the Drezner-Wesolowsky rule: for |r| < 0.925
    a 6-, 12- or 20-node Gauss-Legendre rule (|r| < 0.3, < 0.75, otherwise)
    over Plackett's integral, for |r| >= 0.925 an expansion around |r| = 1.
    The rule is chosen per correlation and a row's values depend on that
    row alone: a point alone and the same point in a longer row may differ
    by one rounding (the node products are BLAS products over the row).
    Rows that all take one rule go to it as they are; mixed rows are
    gathered by rule.  Absolute error about 1e-15.
    """
    h, k, r, shape = _rows(*(np.asarray(a, dtype=float) for a in (h, k, r)))
    ar = np.abs(r[:, 0])
    if (ar >= 1.0).any():
        raise ValueError(f"correlation must lie in (-1, 1), got {r[:, 0]}")
    # rules 0-2 are the node rules, 3 and 4 the expansion for r > 0 and r < 0
    # (and for a NaN r)
    rule = np.searchsorted(_RULE_EDGES, ar, side="right")
    rule[(rule == 3) & ~(r[:, 0] > 0.0)] = 4
    groups = np.flatnonzero(np.bincount(rule, minlength=5))
    with np.errstate(all="ignore"):
        if groups.size == 1:
            g = groups[0]
            p = _bvn_low(h, k, r, g) if g < 3 else _bvn_high(h, k, r, g == 3)
        else:
            p = np.empty((r.shape[0], _cols(h, k)))
            for g in groups:
                rows = np.flatnonzero(rule == g)
                if g < 3:
                    p[rows] = _bvn_low(h[rows], k[rows], r[rows], g)
                else:
                    p[rows] = _bvn_high(h[rows], k[rows], r[rows], g == 3)
    # infinite and huge limits in one test: two reductions, no temporaries
    if not all(-_HUGE_LIMIT < np.minimum.reduce(a, None, initial=0.0)
               and np.maximum.reduce(a, None, initial=0.0) < _HUGE_LIMIT for a in (h, k)):
        huge = (np.abs(h) >= _HUGE_LIMIT) | (np.abs(k) >= _HUGE_LIMIT)
        p = np.where(huge, special.ndtr(np.minimum(h, k)), p)
    np.maximum(p, 0.0, out=p)
    return np.minimum(p, 1.0, out=p).reshape(shape)


def bvn_cdf(h, k, r):
    """P(X <= h, Y <= k) for a standard bivariate normal with correlation r;
    h, k and r broadcast, every r lies in (-1, 1), and a NaN r gives NaN."""
    res = _bvn(h, k, r)
    return float(res) if res.ndim == 0 else res


@np.errstate(all="ignore")
def _log_bvn_tail(h, k, r):
    """log P(X <= h, Y <= k) for 1-d arrays: log int_{-inf}^h phi(x) Phi((k - r x) / s) dx,
    s = sqrt(1 - r^2), over the deeper limit h <= k.  The log integrand g is concave and its
    slope concave (r > 0) or convex (r <= 0), so Newton's steps from min(h, 0), cut at h, reach
    g's maximum x^ from one side, and from the nearer point where log phi or log Phi alone falls
    _TAIL_DROP, each panel end from outside.  No point's value depends on the rest of its batch."""
    out = special.log_ndtr(np.minimum(h, k))  # the value where a limit is infinite
    fin = np.isfinite(h) & np.isfinite(k)
    h, k, r = np.minimum(h, k)[fin, None], np.maximum(h, k)[fin, None], r[fin, None]
    s = np.sqrt((1.0 - r) * (1.0 + r))

    def g(x):
        return norm_logpdf(x) + special.log_ndtr((k - r * x) / s)

    def slopes(x):  # g' and g''
        z = (k - r * x) / s
        m = mills_ratio_inv(z)
        return -x - r / s * m, -1.0 - (r / s) ** 2 * np.maximum(m * (z + m), 0.0)
    x = np.minimum(h, 0.0)
    for _ in range(_TAIL_STEPS):
        d1, d2 = slopes(x)
        x = np.minimum(h, x - d1 / d2)
    g_hat, gauss = g(x), np.sqrt(x * x + 2.0 * _TAIL_DROP)
    cliff = (k + s * np.sqrt(np.minimum((k - r * x) / s, 0.0) ** 2 + 2.0 * _TAIL_DROP)) / r
    lo = np.maximum(-gauss, np.where(r < 0.0, cliff, -np.inf))
    hi = np.minimum(np.minimum(h, gauss), np.where(r > 0.0, cliff, np.inf))
    for _ in range(_TAIL_STEPS):
        lo = np.minimum(x, lo - (g(lo) - g_hat + _TAIL_DROP) / slopes(lo)[0])
        hi = np.minimum(h, np.maximum(x, hi - (g(hi) - g_hat + _TAIL_DROP) / slopes(hi)[0]))
    acc, step = np.zeros(x.shape), max(1, _TAIL_BLOCK // max(x.size, 1))
    for q in ((lo - x) / 4.0, (hi - x) / 4.0):  # x = x^ + q u^2, u = 1 + t: nodes crowd near x^
        for j in range(0, _TAIL_X.size, step):
            u, w = 1.0 + _TAIL_X[j : j + step], _TAIL_W[j : j + step]
            t = np.exp(g(x + q * (u * u)) - g_hat) * (2.0 * np.abs(q) * (w * u))
            for i in range(t.shape[1]):
                acc += t[:, i : i + 1]
    # acc is 0 only where |g(x^)| is so large that log p rounds to it
    out[fin] = (g_hat + np.log(acc, out=np.zeros(acc.shape), where=acc > 0.0))[:, 0]
    return out


def log_bvn_cdf(h, k, r):
    """log of ``bvn_cdf``; h, k and r broadcast, and a NaN r gives NaN.  Points with
    p <= 1e-10, where the rule's absolute error would swamp p, go to ``_log_bvn_tail``."""
    h, k, r = (np.asarray(a, dtype=float) for a in (h, k, r))
    p = np.atleast_1d(_bvn(h, k, r))
    tail = p <= 1e-10
    with np.errstate(divide="ignore"):
        out = np.log(p, out=p)
    if tail.any():
        out[tail] = _log_bvn_tail(*(np.broadcast_to(a, p.shape)[tail] for a in (h, k, r)))
    return out if max(h.ndim, k.ndim, r.ndim) else float(out[0])


def log_bvn_partials(h, k, r, log_p):
    """d log Phi2 / dh, dk and dr at (h, k, r), given log_p = log Phi2(h, k; r):
    phi(h) Phi((k - r h) / s) / Phi2, phi(k) Phi((h - r k) / s) / Phi2 and
    phi2(h, k; r) / Phi2 = phi(k) phi((h - r k) / s) / (s Phi2), s = sqrt(1 - r^2)
    (Plackett 1954).  Formed in log space, so they hold in the deep tails."""
    s = np.sqrt((1.0 - r) * (1.0 + r))
    zk = (h - r * k) / s
    log_k = norm_logpdf(k) - log_p
    return (
        np.exp(norm_logpdf(h) + special.log_ndtr((k - r * h) / s) - log_p),
        np.exp(log_k + special.log_ndtr(zk)),
        np.exp(log_k + norm_logpdf(zk) - np.log(s)),
    )


def _cov_to_corr(cov):
    sd = np.sqrt(np.diag(cov))
    if np.any(sd <= 0.0):
        raise ValueError("covariance matrix has non-positive diagonal")
    corr = cov / np.outer(sd, sd)
    return corr, sd


def tvn_cdf(b, cov, tol=1e-8):
    """P(X <= b) for a trivariate centred normal with covariance ``cov``.

    Conditions on the coordinate whose correlations with the others are
    smallest and integrates the conditional bivariate CDF adaptively.
    Deterministic; absolute error well below 1e-7 for tol <= 1e-8.
    """
    from scipy import integrate  # slow to import; only this rule needs it

    b = np.asarray(b, dtype=float)
    corr, sd = _cov_to_corr(np.asarray(cov, dtype=float))
    z = b / sd
    if np.any(np.isneginf(z)):
        return 0.0

    # pivot on the coordinate with the smallest max |correlation|
    offdiag = np.abs(corr - np.eye(3)).max(axis=1)
    p = int(np.argmin(offdiag))
    rest = [i for i in range(3) if i != p]
    r1, r2 = corr[p, rest[0]], corr[p, rest[1]]
    s1, s2 = math.sqrt(1.0 - r1 * r1), math.sqrt(1.0 - r2 * r2)
    rc = (corr[rest[0], rest[1]] - r1 * r2) / (s1 * s2)
    rc = min(max(rc, -1.0 + 1e-15), 1.0 - 1e-15)

    def integrand(t):
        return math.exp(norm_logpdf(t)) * float(
            bvn_cdf((z[rest[0]] - r1 * t) / s1, (z[rest[1]] - r2 * t) / s2, rc)
        )

    hi = min(z[p], 8.5)
    val, _ = integrate.quad(integrand, -8.5, hi, epsabs=tol, epsrel=tol, limit=200)
    return float(min(max(val, 0.0), 1.0))


def qvn_cdf(b, cov, tol=1e-4, rng=None, max_points=2**17):
    """P(X <= b) for a 4-dimensional centred normal, by randomised QMC.

    Returns ``(value, standard_error)``; the point budget doubles until the
    standard error over random shifts drops below tol.  Raises
    NumericalError when the budget is exhausted first.
    """
    from scipy.stats import qmc  # slow to import; only this rule needs it

    b = np.asarray(b, dtype=float)
    corr, sd = _cov_to_corr(np.asarray(cov, dtype=float))
    z = b / sd
    if np.any(np.isneginf(z)):
        return 0.0, 0.0
    if np.all(z > 8.5):
        return 1.0, 0.0
    rng = np.random.default_rng(0) if rng is None else rng

    # sort limits ascending: conditioning on the tightest constraint first
    order = np.argsort(z)
    z = z[order]
    corr = corr[np.ix_(order, order)]
    chol = np.linalg.cholesky(corr)

    n_shift = 12
    n_pts = 2**10
    while True:
        estimates = np.empty(n_shift)
        for s in range(n_shift):
            sob = qmc.Sobol(d=3, scramble=True, seed=rng.integers(2**63))
            u = sob.random(n_pts)
            e = np.full(n_pts, special.ndtr(z[0] / chol[0, 0]))
            prob = e.copy()
            y = np.zeros((n_pts, 3))
            for i in range(1, 4):
                q = np.clip(u[:, i - 1] * e, 1e-16, 1.0 - 1e-16)
                y[:, i - 1] = special.ndtri(q)
                e = special.ndtr((z[i] - y[:, :i] @ chol[i, :i]) / chol[i, i])
                prob *= e
            estimates[s] = prob.mean()
        value = float(estimates.mean())
        se = float(estimates.std(ddof=1) / math.sqrt(n_shift))
        if se <= tol:
            return min(max(value, 0.0), 1.0), se
        if n_pts >= max_points:
            raise NumericalError(
                f"4-d normal CDF: standard error {se:.2e} above tolerance {tol:.2e} "
                f"after {n_pts} points"
            )
        n_pts *= 2


def mvn_cdf(b, cov, tol=1e-6, rng=None):
    """P(X <= b) for a centred normal in dimension 1 to 4.

    Dimensions 2 and 3 use deterministic rules (absolute error <= 1e-7);
    dimension 4 uses randomised QMC with standard error below tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    dim = b.shape[0]
    if cov.shape != (dim, dim):
        raise ValueError("covariance shape does not match the point")
    if dim == 1:
        return float(special.ndtr(b[0] / math.sqrt(cov[0, 0])))
    if dim == 2:
        corr, sd = _cov_to_corr(cov)
        return float(bvn_cdf(b[0] / sd[0], b[1] / sd[1], corr[0, 1]))
    if dim == 3:
        return tvn_cdf(b, cov, tol=min(tol, 1e-8))
    if dim == 4:
        value, _ = qvn_cdf(b, cov, tol=tol, rng=rng)
        return value
    raise UnsupportedDimensionError(
        f"normal CDF supported up to dimension 4, got {dim}"
    )
