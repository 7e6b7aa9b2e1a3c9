"""Gaussian building blocks: stable Phi / log Phi and low-dimensional
multivariate normal CDFs.

The univariate pieces wrap ``scipy.special`` (erfc-based, with the
asymptotic branch for large negative arguments), so ``log Phi`` stays
finite for every finite argument.  The bivariate CDF applies Owen's
T-function identity through ``scipy.special.owens_t`` (Patefield-Tandy),
broadcast over both limits and the correlation;
the trivariate CDF conditions on one coordinate and integrates the
bivariate CDF with adaptive quadrature; dimension four uses randomised
quasi-Monte Carlo with a reported standard error.  Dimensions above
four are not supported.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special
from scipy.stats import qmc

from .errors import NumericalError, UnsupportedDimensionError

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x - LOG_SQRT_2PI)


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


def _bvn(h, k, r):
    """P(X <= h, Y <= k) for standard bivariate normals with correlation r;
    h, k and r broadcast.

    Owen's (1956) identity writes the probability through two T-functions,
    Phi2 = Phi(h)/2 + Phi(k)/2 - T(h, k'/h) - T(k, h'/k) - beta, with beta = 1/2
    when hk < 0 (or hk = 0 and h + k < 0) and 0 otherwise, h' = (h - r k)/s,
    k' = (k - r h)/s and s = sqrt(1 - r^2).  With |h| >= |k|,
    the identity T(k, a) + T(ak, 1/a) = Phi(k)/2 + Phi(ak)/2 - Phi(k) Phi(ak)
    - [a < 0]/2 turns the second term into T(h', k/h'), giving
    Phi2 = Phi(k) Phi(h') + (Phi(h) - Phi(h'))/2 - T(h, k'/h) + T(h', k/h'),
    which is exact at r = 0.  Each point takes the form whose terms are
    smaller (|h'| > |k|, or not), so small probabilities keep their
    relative precision.
    """
    h, k, r = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (h, k, r)))
    swap = np.abs(h) < np.abs(k)
    h, k = np.where(swap, k, h), np.where(swap, h, k)
    with np.errstate(all="ignore"):
        s = np.sqrt((1.0 - r) * (1.0 + r))
        hp = (h - r * k) / s
        kp = (k - r * h) / s
        # Phi through its tail, Phi(-|x|), keeps small values exact; h and h'
        # share their sign, so Phi(h) - Phi(h') is a difference of tails
        tail_h, tail_k, tail_hp = (special.ndtr(-np.abs(x)) for x in (h, k, hp))
        phi_h, phi_k, phi_hp = (
            np.where(x > 0.0, 1.0 - t, t) for x, t in ((h, tail_h), (k, tail_k), (hp, tail_hp))
        )
        base_conv = phi_k * phi_hp - 0.5 * np.sign(h) * (tail_h - tail_hp)
        # with opposite signs the identity's -1/2 turns Phi(max) into -Phi(-max)
        base_owen = np.where(
            (h < 0.0) != (k < 0.0), -0.5 * np.sign(h) * (tail_h - tail_k), 0.5 * (phi_h + phi_k)
        )
        conv = np.abs(hp) > np.abs(k)
        t2 = special.owens_t(np.where(conv, hp, k), np.where(conv, k / hp, hp / k))
        p = np.where(conv, base_conv + t2, base_owen - t2) - special.owens_t(h, kp / h)
    zero = (h == 0.0) & (k == 0.0)
    if np.any(zero):
        p = np.where(zero, 0.25 + np.arcsin(r) / (2.0 * math.pi), p)
    inf = np.isinf(h) | np.isinf(k)
    if np.any(inf):
        limit = np.where(np.isposinf(k), special.ndtr(h), 0.0)
        p = np.where(inf, np.where(np.isposinf(h), special.ndtr(k), limit), p)
    return np.clip(p, 0.0, 1.0)


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
    h, k, r = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (h, k, r)))
    scalar = h.ndim == 0
    h, k, r = np.atleast_1d(h, k, r)
    p = _bvn(h, k, r)
    with np.errstate(divide="ignore"):
        out = np.log(p)
    for idx in np.flatnonzero(p <= 1e-10):
        out.flat[idx] = _log_bvn_tail(h.flat[idx], k.flat[idx], r.flat[idx])
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
