"""The multivariate extended skew-normal distribution.

Two parametrisations are supported and kept exactly interchangeable:

* hidden-truncation form ``EsnParamsP1`` (location, scale matrix, shape
  vector, shift scalar), whose density is the Gaussian density times a
  ratio of univariate normal CDFs;
* convolution form ``EsnParamsP2`` (location, Gaussian scale matrix,
  loading vector, truncation scalar), under which a draw is a Gaussian
  vector plus a loading times a truncated standard normal.

Besides densities and sampling, the module provides the distribution's
closure operations (marginal, conditional, affine image), its CDF via a
(d+1)-dimensional Gaussian CDF, univariate moments through the cumulants
of the convolution representation, and the Gaussian stationary point of
the log-likelihood that makes maximum likelihood ill-behaved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterDomainError, UnsupportedDimensionError
from .normals import (
    mills_ratio_inv,
    mvn_cdf,
    norm_cdf,
    norm_logcdf,
    norm_ppf,
    qvn_cdf,
)

__all__ = [
    "EsnParamsP1",
    "EsnParamsP2",
    "MomentSummary",
    "logpdf_p1",
    "logpdf_p2",
    "p1_to_p2",
    "p2_to_p1",
    "sample",
    "sample_truncated_std",
    "cdf",
    "cdf_with_error",
    "marginal",
    "conditional",
    "affine",
    "mean",
    "cov",
    "moments_univariate",
    "loglik",
    "gaussian_stationary_point",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _as_vector(x, name):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ParameterDomainError(f"{name} must be a vector, got shape {v.shape}")
    return v


def _as_spd(m, name):
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ParameterDomainError(f"{name} must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-12):
        raise ParameterDomainError(f"{name} must be symmetric")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ParameterDomainError(f"{name} is not positive definite") from exc
    return a, chol


@dataclass
class EsnParamsP1:
    """Hidden-truncation parameters (location, scale, shape, shift)."""

    xi: np.ndarray
    sigma: np.ndarray
    alpha: np.ndarray
    lam: float
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.xi = _as_vector(self.xi, "xi")
        self.sigma, self._chol = _as_spd(self.sigma, "sigma")
        self.alpha = _as_vector(self.alpha, "alpha")
        self.lam = float(self.lam)
        d = self.xi.shape[0]
        if self.sigma.shape != (d, d) or self.alpha.shape != (d,):
            raise ParameterDomainError("xi, sigma and alpha dimensions disagree")
        if not self.c0 >= 1.0:
            raise ParameterDomainError("1 + alpha' sigma alpha must be finite and at least 1")

    @property
    def d(self) -> int:
        return self.xi.shape[0]

    @property
    def c0(self) -> float:
        return math.sqrt(1.0 + float(self.alpha @ self.sigma @ self.alpha))


@dataclass
class EsnParamsP2:
    """Convolution parameters (location, Gaussian scale, loading, truncation)."""

    xi: np.ndarray
    omega: np.ndarray
    dvec: np.ndarray
    c: float

    def __post_init__(self):
        self.xi = _as_vector(self.xi, "xi")
        self.omega, _ = _as_spd(self.omega, "omega")
        self.dvec = _as_vector(self.dvec, "dvec")
        self.c = float(self.c)
        d = self.xi.shape[0]
        if self.omega.shape != (d, d) or self.dvec.shape != (d,):
            raise ParameterDomainError("xi, omega and dvec dimensions disagree")
        # always SPD when omega is, but verify rather than assume
        _as_spd(self.omega + np.outer(self.dvec, self.dvec), "omega + dvec dvec'")

    @property
    def d(self) -> int:
        return self.xi.shape[0]


@dataclass
class MomentSummary:
    mean: float
    variance: float
    skewness: float
    kurtosis: float  # non-excess convention

    def __post_init__(self):
        if not self.variance > 0.0:
            raise NumericalError(f"moment summary has variance {self.variance}")
        if not self.kurtosis >= 1.0 + self.skewness**2:
            raise NumericalError("moment summary violates kurtosis >= 1 + skewness^2")


def _gauss_logpdf(u, chol):
    """log N(u; 0, LL') for rows of u, via the Cholesky factor."""
    w = np.linalg.solve(chol, u.T).T
    quad = np.sum(w * w, axis=-1)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    d = chol.shape[0]
    return -0.5 * (d * _LOG_2PI + logdet + quad)


def logpdf_p1(params: EsnParamsP1, y) -> float | np.ndarray:
    """Log-density under the hidden-truncation parametrisation.

    ``y`` may be a single point of length d or an (n, d) matrix; the
    result is a scalar or a length-n vector accordingly.  Finite for all
    finite y: the CDF ratio is evaluated in log space.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim <= 1
    ymat = np.atleast_2d(y if y.ndim else y[None])
    if params.d == 1 and ymat.shape[1] != 1:
        ymat = ymat.reshape(-1, 1)
    if ymat.shape[1] != params.d:
        raise ValueError(f"y has dimension {ymat.shape[1]}, expected {params.d}")
    u = ymat - params.xi
    out = (
        _gauss_logpdf(u, params._chol)
        + norm_logcdf(params.lam + u @ params.alpha)
        - norm_logcdf(params.lam / params.c0)
    )
    return float(out[0]) if single else out


def logpdf_p2(params: EsnParamsP2, y) -> float | np.ndarray:
    """Log-density under the convolution parametrisation."""
    return logpdf_p1(p2_to_p1(params), y)


def p2_to_p1(params: EsnParamsP2) -> EsnParamsP1:
    """Convolution to hidden-truncation parameters.

    scale = omega + dvec dvec'; shape = c0 * scale^{-1} dvec with
    c0 = (1 - dvec' scale^{-1} dvec)^{-1/2}; shift = c0 * c.
    """
    sigma = params.omega + np.outer(params.dvec, params.dvec)
    sol = np.linalg.solve(sigma, params.dvec)
    u = float(params.dvec @ sol)
    if not u < 1.0:
        raise NumericalError(
            "dvec' sigma^{-1} dvec >= 1: impossible for SPD omega, numerical failure"
        )
    c0 = 1.0 / math.sqrt(1.0 - u)
    return EsnParamsP1(params.xi, sigma, c0 * sol, c0 * params.c)


def p1_to_p2(params: EsnParamsP1) -> EsnParamsP2:
    """Hidden-truncation to convolution parameters.

    loading = sigma alpha / c0; omega = sigma - loading loading';
    truncation = lam / c0.  omega stays SPD because the subtracted
    rank-one term has deficit dvec' sigma^{-1} dvec < 1.
    """
    c0 = params.c0
    dvec = params.sigma @ params.alpha / c0
    omega = params.sigma - np.outer(dvec, dvec)
    return EsnParamsP2(params.xi, omega, dvec, params.lam / c0)


def sample_truncated_std(c: float, rng: np.random.Generator, size=None):
    """Draws from the standard normal truncated to (-infty, c].

    Inverse-CDF for c >= -4; for deeper truncation the one-sided
    exponential rejection sampler (tail of N(0,1) above -c, negated),
    which keeps full precision where the inverse CDF would not.
    """
    c = float(c)
    n = 1 if size is None else int(size)
    if c >= -4.0:
        u = rng.uniform(size=n)
        x = norm_ppf(u * norm_cdf(c))
    else:
        a = -c
        rate = (a + math.sqrt(a * a + 4.0)) / 2.0
        x = np.empty(n)
        todo = np.arange(n)
        while todo.size:
            z = a - np.log(rng.uniform(size=todo.size)) / rate
            ok = rng.uniform(size=todo.size) <= np.exp(-0.5 * (z - rate) ** 2)
            x[todo[ok]] = -z[ok]
            todo = todo[~ok]
    return float(x[0]) if size is None else x


def sample(params: EsnParamsP1 | EsnParamsP2, n: int, rng: np.random.Generator) -> np.ndarray:
    """IID draws, as an (n, d) matrix, via the convolution representation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p2 = params if isinstance(params, EsnParamsP2) else p1_to_p2(params)
    chol = np.linalg.cholesky(p2.omega)
    z3 = -sample_truncated_std(p2.c, rng, size=n)
    gauss = rng.standard_normal(size=(n, p2.d)) @ chol.T
    return p2.xi + np.outer(z3, p2.dvec) + gauss


def cdf_with_error(params: EsnParamsP1, y, tol: float = 1e-6, rng=None):
    """P(Y <= y) together with an error bound / Monte Carlo standard error.

    Computed as the ratio of a (d+1)-dimensional Gaussian CDF evaluated at
    (y - xi, lam) with covariance [[sigma, -sigma alpha], [-alpha' sigma,
    c0^2]] to Phi(lam / c0).  Deterministic (error <= tol) for d + 1 <= 3;
    randomised QMC with reported standard error for d + 1 = 4; beyond that
    a plain Monte Carlo path draws from the distribution itself until the
    standard error falls below tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    y = _as_vector(y, "y")
    if y.shape[0] != params.d:
        raise ValueError("y dimension mismatch")
    dim = params.d + 1
    if dim > 4:
        return _cdf_monte_carlo(params, y, tol, rng)
    c0 = params.c0
    denom = norm_cdf(params.lam / c0)
    sa = params.sigma @ params.alpha
    covf = np.block(
        [[params.sigma, -sa[:, None]], [-sa[None, :], np.array([[c0 * c0]])]]
    )
    point = np.concatenate([y - params.xi, [params.lam]])
    inner = tol * denom
    if dim == 4:
        num, se = qvn_cdf(point, covf, tol=inner, rng=rng)
        return min(max(num / denom, 0.0), 1.0), se / denom
    num = mvn_cdf(point, covf, tol=inner)
    return min(max(num / denom, 0.0), 1.0), tol


def _cdf_monte_carlo(params, y, tol, rng, max_draws: int = 50_000_000):
    """Sampling-based CDF for dimensions beyond the Gaussian-CDF rules."""
    rng = np.random.default_rng(0) if rng is None else rng
    hits = 0
    total = 0
    batch = 200_000
    while True:
        draws = sample(params, batch, rng)
        hits += int(np.all(draws <= y, axis=1).sum())
        total += batch
        p = hits / total
        se = math.sqrt(max(p * (1.0 - p), 1.0 / total) / total)
        if se <= tol:
            return p, se
        if total >= max_draws:
            raise NumericalError(
                f"CDF Monte Carlo: standard error {se:.2e} above {tol:.2e} "
                f"after {total} draws"
            )


def cdf(params: EsnParamsP1, y, tol: float = 1e-6, rng=None) -> float:
    value, _ = cdf_with_error(params, y, tol=tol, rng=rng)
    return value


def _check_indices(idx, d, name):
    idx = np.asarray(sorted(int(i) for i in idx), dtype=int)
    if idx.size == 0 or idx.size >= d:
        raise ValueError(f"{name} must be a nonempty strict subset of 0..{d - 1}")
    if idx[0] < 0 or idx[-1] >= d or np.unique(idx).size != idx.size:
        raise ValueError(f"{name} contains invalid or repeated indices")
    return idx


def marginal(params: EsnParamsP1, keep) -> EsnParamsP1:
    """Marginal law of the coordinates in ``keep`` (0-based indices).

    The retained block keeps its location and scale; the shape and shift
    are rescaled by c_i = (1 + a_j' S_jj.i a_j)^{-1/2} where S_jj.i is the
    conditional covariance of the dropped block given the kept one, and
    the kept shape is a_i + S_ii^{-1} S_ij a_j.
    """
    keep = _check_indices(keep, params.d, "keep")
    drop = np.setdiff1d(np.arange(params.d), keep)
    s_ii = params.sigma[np.ix_(keep, keep)]
    s_ij = params.sigma[np.ix_(keep, drop)]
    s_jj = params.sigma[np.ix_(drop, drop)]
    a_i, a_j = params.alpha[keep], params.alpha[drop]
    s_jj_given_i = s_jj - s_ij.T @ np.linalg.solve(s_ii, s_ij)
    c_i = 1.0 / math.sqrt(1.0 + float(a_j @ s_jj_given_i @ a_j))
    alpha_tilde = a_i + np.linalg.solve(s_ii, s_ij @ a_j)
    return EsnParamsP1(params.xi[keep], s_ii, c_i * alpha_tilde, c_i * params.lam)


def conditional(params: EsnParamsP1, given, y_given) -> EsnParamsP1:
    """Law of the remaining coordinates given the block ``given`` = y_given."""
    given = _check_indices(given, params.d, "given")
    y_given = _as_vector(y_given, "y_given")
    if y_given.shape[0] != given.size:
        raise ValueError("y_given length must match the given index set")
    keep = np.setdiff1d(np.arange(params.d), given)
    s_ii = params.sigma[np.ix_(keep, keep)]
    s_ij = params.sigma[np.ix_(keep, given)]
    s_jj = params.sigma[np.ix_(given, given)]
    a_i, a_j = params.alpha[keep], params.alpha[given]
    resid = y_given - params.xi[given]
    sol = np.linalg.solve(s_jj, resid)
    xi_c = params.xi[keep] + s_ij @ sol
    s_cond = s_ii - s_ij @ np.linalg.solve(s_jj, s_ij.T)
    alpha_tilde_j = a_j + np.linalg.solve(s_jj, s_ij.T @ a_i)
    lam_c = params.lam + float(alpha_tilde_j @ resid)
    return EsnParamsP1(xi_c, s_cond, a_i, lam_c)


def affine(params: EsnParamsP1, a_mat, shift) -> EsnParamsP1:
    """Law of shift + A' Y for nonsingular A."""
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    shift = _as_vector(shift, "shift")
    d = params.d
    if a_mat.shape != (d, d) or shift.shape != (d,):
        raise ValueError("A must be d x d and shift length d")
    if np.linalg.cond(a_mat) > 1e12:
        raise ValueError("A is singular or too ill-conditioned")
    return EsnParamsP1(
        shift + a_mat.T @ params.xi,
        a_mat.T @ params.sigma @ a_mat,
        np.linalg.solve(a_mat, params.alpha),
        params.lam,
    )


def _truncnorm_upper_cumulants(c: float):
    """First four cumulants of N(0,1) truncated to (-infty, c].

    Moment recurrence m_k = (k-1) m_{k-2} - c^{k-1} h with h = phi(c)/Phi(c).
    """
    h = float(mills_ratio_inv(c))
    m1 = -h
    m2 = 1.0 - c * h
    m3 = 2.0 * m1 - c * c * h
    m4 = 3.0 * m2 - c**3 * h
    var = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1**4
    k4 = mu4 - 3.0 * var * var
    return m1, var, mu3, k4


def mean(params: EsnParamsP1 | EsnParamsP2) -> np.ndarray:
    p2 = params if isinstance(params, EsnParamsP2) else p1_to_p2(params)
    h = float(mills_ratio_inv(p2.c))
    return p2.xi + p2.dvec * h


def cov(params: EsnParamsP1 | EsnParamsP2) -> np.ndarray:
    p2 = params if isinstance(params, EsnParamsP2) else p1_to_p2(params)
    _, var_t, _, _ = _truncnorm_upper_cumulants(p2.c)
    return p2.omega + np.outer(p2.dvec, p2.dvec) * var_t


def moments_univariate(params: EsnParamsP1 | EsnParamsP2) -> MomentSummary:
    """Mean, variance, skewness and (non-excess) kurtosis for d = 1.

    Cumulants are additive over the convolution Y = xi + dvec * Z + omega * W
    with -Z an upper-truncated standard normal, so the distribution's
    cumulants follow from closed-form truncated-normal cumulants; no
    moment generating function is involved.
    """
    p2 = params if isinstance(params, EsnParamsP2) else p1_to_p2(params)
    if p2.d != 1:
        raise UnsupportedDimensionError(
            "scalar moment summary defined for d = 1; use mean()/cov() otherwise"
        )
    m1, var_t, mu3, k4 = _truncnorm_upper_cumulants(p2.c)
    dd = float(p2.dvec[0])
    k1 = float(p2.xi[0]) - dd * m1
    k2 = float(p2.omega[0, 0]) + dd * dd * var_t
    k3 = -(dd**3) * mu3  # odd cumulants flip sign under Z = -T
    k4y = dd**4 * k4
    return MomentSummary(
        mean=k1,
        variance=k2,
        skewness=k3 / k2**1.5,
        kurtosis=3.0 + k4y / k2**2,
    )


def loglik(params: EsnParamsP1 | EsnParamsP2, data) -> float:
    """IID log-likelihood: the sum of per-row log-densities."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[0] < 1:
        raise ValueError("data must contain at least one row")
    p1 = params if isinstance(params, EsnParamsP1) else p2_to_p1(params)
    return float(np.sum(logpdf_p1(p1, data)))


def gaussian_stationary_point(data, l: float) -> EsnParamsP1:
    """The Gaussian stationary point of the ESN log-likelihood.

    For univariate data the log-likelihood has zero gradient at
    (sample mean, biased sample variance, 0, l) for every real l, which is
    why unconstrained maximisation is unreliable.  The variance uses the
    biased 1/n convention.
    """
    data = np.asarray(data, dtype=float).ravel()
    if data.shape[0] < 2:
        raise ValueError("need at least two observations")
    m = float(np.mean(data))
    v = float(np.mean(data * data) - m * m)
    return EsnParamsP1([m], [[v]], [0.0], float(l))
