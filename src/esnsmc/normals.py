"""Gaussian building blocks: stable Phi / log Phi and low-dimensional
multivariate normal CDFs.

The univariate pieces wrap ``scipy.special`` (erfc-based, with the
asymptotic branch for large negative arguments), so ``log Phi`` stays
finite for every finite argument.  The bivariate CDF is Genz's (2004)
Drezner-Genz rule, broadcast over both limits and the correlation, with
the work that depends on the correlation alone done once per correlation;
the trivariate CDF conditions on one coordinate and integrates the
bivariate CDF with adaptive quadrature; dimension four uses randomised
quasi-Monte Carlo with a reported standard error.  Dimensions above
four are not supported.
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
_RULE_EDGES = np.array([0.3, 0.75, 0.925])  # |r| where rules 1 and 2 and the expansion begin
_NODE_BLOCK = 2**14  # node-by-point terms per pass of the |r| < 0.925 rule


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
    """phi(x) / Phi(x), computed in log space so it survives deep tails."""
    x = np.asarray(x, dtype=float)
    return np.exp(norm_logpdf(x) - special.log_ndtr(x))


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
    axes lead and are kept, the rest of the broadcast shape becomes P.  When
    r varies along a trailing axis, every point is its own row."""
    shape = np.broadcast_shapes(h.shape, k.shape, r.shape)
    r_shape = (1,) * (len(shape) - r.ndim) + r.shape
    lead = len(shape)
    while lead and r_shape[lead - 1] == 1:
        lead -= 1
    if r_shape[:lead] != shape[:lead]:
        lead = len(shape)
        r = np.broadcast_to(r, shape)
    n_rows, n_cols = math.prod(shape[:lead]), math.prod(shape[lead:])
    h, k = (
        (a if a.shape == shape else np.broadcast_to(a, shape)).reshape(n_rows, n_cols)
        for a in (h, k)
    )
    return h, k, np.ascontiguousarray(r.reshape(n_rows, 1)), shape


def _bvn_low(h, k, r, g):
    """Phi2 for |r| < 0.925 on (R, P) blocks with (R, 1) correlations: Genz's
    Gauss-Legendre rule g over Plackett's integral in asin(r),
    Phi2 = Phi(h) Phi(k) + 1/(2 pi) int_0^asin(r) exp(-(h^2 + k^2 - 2 h k sin t)
    / (2 cos^2 t)) dt.  The nodes' sin and 1/cos^2 depend on r alone and are
    computed once per row.  Nodes are taken a few at a time, so that small
    calls make few passes and large ones stay in cache; either way each
    point adds its node terms in the same order."""
    x, w = _GL[g]
    asr = np.arcsin(r) * 0.5
    sn = np.sin(asr * x)
    inv = 1.0 / (1.0 - sn * sn)
    hk = (h * k)[:, None]
    hs = ((h * h + k * k) * 0.5)[:, None]
    step = min(x.size, max(1, _NODE_BLOCK // max(h.size, 1)))
    acc = np.zeros(h.shape)
    for j0 in range(0, x.size, step):
        nodes = slice(j0, j0 + step)
        t = hk * sn[:, nodes, None]
        t -= hs
        t *= inv[:, nodes, None]
        np.exp(t, out=t)
        t *= w[nodes, None]
        for j in range(t.shape[1]):
            acc += t[:, j]
    acc *= asr / (2.0 * math.pi)
    acc += special.ndtr(h) * special.ndtr(k)
    return acc


def _bvn_high(h, k, r):
    """Phi2 for |r| >= 0.925 on (R, P) blocks with (R, 1) correlations:
    Genz's expansion around the singular limit |r| = 1 plus the 20-node rule
    for its remainder, in his upper-orthant form P(X > -h, Y > -k)."""
    x, w = _GL[2]
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
    # r > 0; r < 0 with h >= k; r < 0 with h < k, the difference of Phi
    # taken on the side where it does not cancel
    low = np.where(
        h < 0.0, special.ndtr(k) - special.ndtr(h), special.ndtr(-h) - special.ndtr(-k)
    )
    return np.where(
        r > 0.0, bvn + special.ndtr(-np.maximum(h, k)), np.where(h >= k, -bvn, low - bvn)
    )


def _bvn(h, k, r):
    """P(X <= h, Y <= k) for standard bivariate normals with correlation r;
    h, k and r broadcast.

    Genz's (2004) version of the Drezner-Wesolowsky rule: for |r| < 0.925
    a 6-, 12- or 20-node Gauss-Legendre rule (|r| < 0.3, < 0.75, otherwise)
    over Plackett's integral, for |r| >= 0.925 an expansion around |r| = 1.
    The rule is chosen per correlation, so a point's value depends on its
    own (h, k, r) only; absolute error about 1e-15.
    """
    h, k, r = (np.asarray(a, dtype=float) for a in (h, k, r))
    h, k, r, shape = _rows(h, k, r)
    p = np.empty(h.shape)
    rule = np.searchsorted(_RULE_EDGES, np.abs(r[:, 0]), side="right")
    with np.errstate(all="ignore"):
        rules = np.unique(rule)
        for g in rules:
            rows = slice(None) if rules.size == 1 else np.flatnonzero(rule == g)
            if g < 3:
                p[rows] = _bvn_low(h[rows], k[rows], r[rows], g)
            else:
                p[rows] = _bvn_high(h[rows], k[rows], r[rows])
    inf = np.isinf(h) | np.isinf(k)
    if np.any(inf):
        limit = np.where(np.isposinf(k), special.ndtr(h), 0.0)
        p = np.where(inf, np.where(np.isposinf(h), special.ndtr(k), limit), p)
    return np.clip(p, 0.0, 1.0).reshape(shape)


def bvn_cdf(h, k, r):
    """P(X <= h, Y <= k) for a standard bivariate normal with correlation r.

    h, k and r broadcast against each other; every r lies in (-1, 1).
    """
    r = np.asarray(r, dtype=float)
    if not np.all((-1.0 < r) & (r < 1.0)):
        raise ValueError(f"correlation must lie in (-1, 1), got {r}")
    res = _bvn(h, k, r)
    return float(res) if res.ndim == 0 else res


_GL240 = np.polynomial.legendre.leggauss(240)


def _log_bvn_tail(h, k, r):
    """log P(X <= h, Y <= k) via log-space quadrature of the exact
    conditional representation int_{-inf}^h phi(x) Phi((k - r x)/s) dx.

    Keeps full relative precision where the direct rule's absolute error
    would swamp a tiny probability.  Scalar arguments.
    """
    s = math.sqrt(1.0 - r * r)

    def log_integrand(x):
        return norm_logpdf(x) + special.log_ndtr((k - r * x) / s)

    coarse = np.linspace(h - 60.0, h, 600)
    m = log_integrand(coarse)
    x_hat = coarse[int(np.argmax(m))]
    lo = x_hat - 12.0
    hi = min(h, x_hat + 12.0)
    if hi <= lo:
        lo = hi - 12.0
    nodes, weights = _GL240
    x = 0.5 * (hi - lo) * (nodes + 1.0) + lo
    g = log_integrand(x)
    g_max = g.max()
    total = float(np.sum(weights * np.exp(g - g_max))) * 0.5 * (hi - lo)
    if total <= 0.0:
        return -np.inf
    return g_max + math.log(total)


def log_bvn_cdf(h, k, r):
    """log of ``bvn_cdf``; h, k and r broadcast.  Deep joint tails switch to
    a log-space quadrature of the conditional representation so the
    result keeps relative accuracy instead of inheriting the direct rule's
    absolute error floor."""
    h, k, r = (np.asarray(a, dtype=float) for a in (h, k, r))
    p = _bvn(h, k, r)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    with np.errstate(divide="ignore"):
        out = np.log(p)
    tail = np.flatnonzero(p <= 1e-10)
    if tail.size:
        h, k, r = (np.broadcast_to(a, p.shape).flat for a in (h, k, r))
        for idx in tail:
            out.flat[idx] = _log_bvn_tail(h[idx], k[idx], r[idx])
    return float(out[0]) if scalar else out


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
