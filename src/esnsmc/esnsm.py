"""Sample-selection model with extended skew-normal errors.

An outcome equation and a scalar selection equation share a
(d+1)-variate ESN error vector whose location is pinned so the errors
have mean zero; the outcome is observed only when the latent selection
variable is positive.  The observed-data likelihood follows from the
ESN closure properties: the censored contribution is the CDF of the
selection error's marginal (a bivariate normal CDF ratio) and the
observed contribution is the outcome marginal density times the
conditional selection survivor, whose normalisers collapse into a
single constant per observation.

Setting the shape vector and shift to zero recovers the Gaussian
Tobit-2 (Heckman) model exactly, which is used as an oracle throughout
the tests, and the conditional-expectation formulas reduce to the
classical inverse-Mills corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import log_ndtr

from . import esn, normals
from .errors import DataError, ParameterDomainError
from .normals import log_bvn_cdf, mills_ratio_inv, norm_logpdf, quad_form
from .priors import iw_logpdf
from .smc import TargetModel

__all__ = [
    "EsnsmParams",
    "EsnsmData",
    "EsnsmHyper",
    "CovariateSpec",
    "simulate",
    "loglik",
    "log_prior_esnsm",
    "tau",
    "delta",
    "conditional_expectations",
    "marginal_effect",
    "params_from_particle",
    "make_esnsm_target",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class EsnsmParams:
    """Outcome coefficients B (d x k1), selection coefficients beta2 (k1),
    outcome scale sigma1 (d x d), cross covariance sigma12 (d), shape
    alpha (d+1) and shift lam.  The selection error variance is fixed at 1.

    The location of the error vector is not free: it is the value that
    makes the errors mean zero, exposed as the ``xi`` property.
    """

    B: np.ndarray
    beta2: np.ndarray
    sigma1: np.ndarray
    sigma12: np.ndarray
    alpha: np.ndarray
    lam: float

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.beta2 = np.atleast_1d(np.asarray(self.beta2, dtype=float))
        self.sigma1 = np.atleast_2d(np.asarray(self.sigma1, dtype=float))
        self.sigma12 = np.atleast_1d(np.asarray(self.sigma12, dtype=float))
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.lam = float(self.lam)
        d, k1 = self.B.shape
        if self.beta2.shape != (k1,):
            raise ParameterDomainError("beta2 length must match B's column count")
        if self.sigma1.shape != (d, d) or self.sigma12.shape != (d,):
            raise ParameterDomainError("sigma1 / sigma12 dimensions disagree with B")
        if self.alpha.shape != (d + 1,):
            raise ParameterDomainError("alpha must have length d + 1")
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:
            raise ParameterDomainError(
                "assembled error scale matrix is not positive definite"
            ) from exc

    @property
    def d(self) -> int:
        return self.B.shape[0]

    @property
    def k1(self) -> int:
        return self.B.shape[1]

    @property
    def sigma(self) -> np.ndarray:
        """Assembled (d+1) x (d+1) error scale with unit selection variance."""
        d = self.d
        out = np.empty((d + 1, d + 1))
        out[:d, :d] = self.sigma1
        out[:d, d] = self.sigma12
        out[d, :d] = self.sigma12
        out[d, d] = 1.0
        return out

    @property
    def c0(self) -> float:
        return math.sqrt(1.0 + float(self.alpha @ self.sigma @ self.alpha))

    @property
    def xi(self) -> np.ndarray:
        """Error location making the errors mean zero."""
        c0 = self.c0
        h = float(mills_ratio_inv(self.lam / c0))
        return -(self.sigma @ self.alpha / c0) * h

    def error_params(self) -> esn.EsnParamsP1:
        return esn.EsnParamsP1(self.xi, self.sigma, self.alpha, self.lam)


@dataclass
class EsnsmData:
    """Censored dataset: covariates, selection indicators and outcomes.

    Censored outcome rows carry NaN; an outcome of zero is a legitimate
    value and never a missingness marker.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.s = np.asarray(self.s, dtype=int).ravel()
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim == 1:
            self.y = self.y[:, None]
        n = self.x.shape[0]
        if self.s.shape != (n,) or self.y.shape[0] != n:
            raise DataError("x, s and y row counts disagree")
        if not np.isin(self.s, (0, 1)).all():
            raise DataError("selection indicators must be 0 or 1")
        obs = self.s == 1
        if not np.all(np.isfinite(self.y[obs])):
            raise DataError("selected rows must have observed outcomes")
        if np.any(np.isfinite(self.y[~obs])):
            raise DataError("censored rows must have missing outcomes")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class CovariateSpec:
    """Design: intercept plus independent centred Gaussian covariates."""

    n_covariates: int = 2
    variance: float = 2.0
    intercept: bool = True

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = []
        if self.intercept:
            cols.append(np.ones(n))
        for _ in range(self.n_covariates):
            cols.append(rng.normal(0.0, math.sqrt(self.variance), size=n))
        return np.column_stack(cols)


def simulate(
    params: EsnsmParams, n: int, covariates, rng: np.random.Generator
) -> EsnsmData:
    """Generate a censored dataset from the latent model.

    ``covariates`` is either a CovariateSpec or an explicit (n, k1) design
    matrix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(covariates, CovariateSpec):
        x = covariates.draw(n, rng)
    else:
        x = np.atleast_2d(np.asarray(covariates, dtype=float))
        if x.shape[0] != n:
            raise DataError("covariate matrix row count must equal n")
    if x.shape[1] != params.k1:
        raise DataError("covariate count does not match the coefficient matrices")
    eps = esn.sample(params.error_params(), n, rng)
    ystar = x @ params.B.T + eps[:, : params.d]
    sstar = x @ params.beta2 + eps[:, params.d]
    s = (sstar >= 0.0).astype(int)
    y = np.where(s[:, None] == 1, ystar, np.nan)
    return EsnsmData(x, s, y)


def _selection_blocks(params: EsnsmParams):
    """Quantities shared by every observation: marginal/conditional pieces
    of the (outcome, selection) split of the error law."""
    d = params.d
    sig1 = params.sigma1
    s12 = params.sigma12
    a1 = params.alpha[:d]
    a2 = float(params.alpha[d])
    xi = params.xi
    xi1, xi2 = xi[:d], float(xi[d])

    sol12 = np.linalg.solve(sig1, s12)  # Sigma_1^{-1} sigma_12
    s22_1 = 1.0 - float(s12 @ sol12)  # conditional selection variance
    if s22_1 <= 0.0:
        raise ParameterDomainError("conditional selection variance is not positive")

    # selection marginal: shape c2 * atilde2, shift c2 * lam
    sigma11_2 = sig1 - np.outer(s12, s12)
    c2 = 1.0 / math.sqrt(1.0 + float(a1 @ sigma11_2 @ a1))
    atilde2 = a2 + float(s12 @ a1)

    # outcome marginal: shape c1 * atilde1, shift c1 * lam
    atilde1 = a1 + sol12 * a2
    c1 = 1.0 / math.sqrt(1.0 + a2 * a2 * s22_1)
    c0m = math.sqrt(1.0 + c1 * c1 * float(atilde1 @ sig1 @ atilde1))
    c0s = math.sqrt(1.0 + (c2 * atilde2) ** 2)
    return {
        "xi1": xi1,
        "xi2": xi2,
        "sol12": sol12,
        "s22_1": s22_1,
        "c2": c2,
        "atilde2": atilde2,
        "atilde1": atilde1,
        "c1": c1,
        "c0m": c0m,
        "c0s": c0s,
    }


def loglik(params: EsnsmParams, data: EsnsmData) -> float:
    """Observed-data log-likelihood.

    Censored rows contribute the marginal CDF of the selection error at
    minus the selection index; observed rows contribute the outcome
    marginal Gaussian factor times a bivariate normal CDF whose second
    coordinate tracks the shift updated by the outcome residual, divided
    by a per-call constant normaliser.
    """
    blk = _selection_blocks(params)
    d = params.d
    sel_idx = data.x @ params.beta2
    out = 0.0

    cen = data.s == 0
    if np.any(cen):
        abar = blk["c2"] * blk["atilde2"]
        lbar = blk["c2"] * params.lam
        h = -sel_idx[cen] - blk["xi2"]
        k = lbar / blk["c0s"]
        r = -abar / blk["c0s"]
        r = min(max(r, -1.0 + 1e-14), 1.0 - 1e-14)
        num = log_bvn_cdf(h, np.full(h.shape, k), r)
        out += float(np.sum(num - log_ndtr(k)))

    obs = data.s == 1
    if np.any(obs):
        chol = np.linalg.cholesky(params.sigma1)
        resid = data.y[obs] - data.x[obs] @ params.B.T - blk["xi1"]
        w = np.linalg.solve(chol, resid.T)
        gauss = -0.5 * (d * _LOG_2PI * np.ones(resid.shape[0])) - np.sum(
            np.log(np.diag(chol))
        ) - 0.5 * np.sum(w * w, axis=0)

        m_i = blk["xi2"] + sel_idx[obs] + resid @ blk["sol12"]
        lam_i = params.lam + resid @ blk["atilde1"]
        a2 = float(params.alpha[d])
        s22_1 = blk["s22_1"]
        sd2 = math.sqrt(s22_1)
        kvar = math.sqrt(1.0 + a2 * a2 * s22_1)
        r = a2 * sd2 / kvar  # template covariance (s22_1, s22_1*a2; ., 1+a2^2 s22_1)
        r = min(max(r, -1.0 + 1e-14), 1.0 - 1e-14)
        num = log_bvn_cdf(m_i / sd2, lam_i / kvar, r)
        norm_const = log_ndtr(blk["c1"] * params.lam / blk["c0m"])
        out += float(np.sum(gauss + num - norm_const))
    return out


@dataclass
class EsnsmHyper:
    """Prior hyperparameters: g-prior scales for both coefficient blocks,
    inverse-Wishart block for the outcome scale, and the usual shape/shift
    priors.  The cross covariance is uniform over the feasible region given
    the outcome scale."""

    mu_b: np.ndarray
    c_beta1: float
    mu_beta2: np.ndarray
    c_beta2: float
    V: np.ndarray
    nu: float
    sigma2_alpha: float = 10.0

    def __post_init__(self):
        self.mu_b = np.asarray(self.mu_b, dtype=float)
        self.mu_beta2 = np.atleast_1d(np.asarray(self.mu_beta2, dtype=float))
        self.V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if not all(0.0 < c < math.inf for c in (self.c_beta1, self.c_beta2, self.sigma2_alpha)):
            raise ValueError("scale factors must be positive and finite")
        if not (np.isfinite(self.mu_b).all() and np.isfinite(self.mu_beta2).all()):
            raise ValueError("prior means must be finite")
        d = self.V.shape[0]
        if self.V.shape != (d, d) or not np.isfinite(self.V).all():
            raise ValueError("V must be a finite square matrix")
        try:
            np.linalg.cholesky(self.V)
        except np.linalg.LinAlgError as exc:
            raise ValueError("V must be positive definite") from exc
        # the inverse-Wishart density of the outcome scale needs nu > d - 1
        if not d - 1 < self.nu < math.inf:
            raise ValueError(f"nu must exceed d - 1 = {d - 1}, got {self.nu}")

    @classmethod
    def defaults(cls, d: int, k_out: int, k_sel: int, n: int) -> "EsnsmHyper":
        return cls(
            mu_b=np.zeros((d, k_out)),
            c_beta1=5.0 * n,
            mu_beta2=np.zeros(k_sel),
            c_beta2=5.0 * n,
            V=12.0 * np.eye(d),
            nu=float(max(6, d + 4)),
        )


def _gauss_logpdf_prec(x, mu, prec_chol_logdet, prec):
    u = np.asarray(x, dtype=float).ravel() - np.asarray(mu, dtype=float).ravel()
    return -0.5 * (u.size * _LOG_2PI - prec_chol_logdet + float(u @ prec @ u))


def log_prior_esnsm(
    params: EsnsmParams,
    hyper: EsnsmHyper,
    x: np.ndarray,
    outcome_terms: Optional[Sequence[int]] = None,
    select_terms: Optional[Sequence[int]] = None,
    gaussian_errors: bool = False,
) -> float:
    """Log prior density.

    The outcome coefficients get a matrix-normal g-prior with covariance
    c_beta1 * Sigma_1 (x) (X1'X1)^{-1}, the selection coefficients a
    Gaussian with covariance c_beta2 * (X2'X2)^{-1}; the outcome scale is
    inverse Wishart, the cross covariance uniform over the SPD-feasible
    ellipsoid given the scale, and shape/shift follow the IID-model priors.
    With ``gaussian_errors`` (the Tobit-2 model) the shape and shift are
    pinned at zero, not parameters, and have no prior term.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = params.d
    x1 = x if outcome_terms is None else x[:, list(outcome_terms)]
    x2 = x if select_terms is None else x[:, list(select_terms)]
    xtx1 = x1.T @ x1
    xtx2 = x2.T @ x2
    if np.linalg.matrix_rank(xtx1) < xtx1.shape[0] or np.linalg.matrix_rank(xtx2) < xtx2.shape[0]:
        raise DataError("X'X is singular")

    b_free = params.B if outcome_terms is None else params.B[:, list(outcome_terms)]
    beta2_free = params.beta2 if select_terms is None else params.beta2[list(select_terms)]
    if b_free.shape[1] != xtx1.shape[0] or beta2_free.shape[0] != xtx2.shape[0]:
        raise ValueError("coefficient blocks do not match the design columns")

    # vec(B) | Sigma_1: precision (1/c_beta1) Sigma_1^{-1} (x) X1'X1
    prec_b = np.kron(np.linalg.inv(params.sigma1), xtx1) / hyper.c_beta1
    sign, logdet_prec = np.linalg.slogdet(prec_b)
    out = _gauss_logpdf_prec(b_free.ravel(), hyper.mu_b.ravel(), logdet_prec, prec_b)

    prec_2 = xtx2 / hyper.c_beta2
    sign2, logdet2 = np.linalg.slogdet(prec_2)
    out += _gauss_logpdf_prec(beta2_free, hyper.mu_beta2, logdet2, prec_2)

    out += iw_logpdf(params.sigma1, hyper.V, hyper.nu)

    # sigma12 | sigma1: uniform over {t : t' Sigma_1^{-1} t < 1}
    q = float(params.sigma12 @ np.linalg.solve(params.sigma1, params.sigma12))
    if q >= 1.0:
        return -math.inf
    _, logdet_s1 = np.linalg.slogdet(params.sigma1)
    out += math.lgamma(d / 2.0 + 1.0) - 0.5 * d * math.log(math.pi) - 0.5 * logdet_s1
    if gaussian_errors:
        return float(out)

    out += float(
        np.sum(norm_logpdf(params.alpha / math.sqrt(hyper.sigma2_alpha)))
    ) - 0.5 * (d + 1) * math.log(hyper.sigma2_alpha)
    c0sq = 1.0 + float(params.alpha @ params.sigma @ params.alpha)
    out += -0.5 * (_LOG_2PI + math.log(c0sq) + params.lam**2 / c0sq)
    return float(out)


def _tau_delta(a, alpha: float, lam: float):
    """``tau`` and ``delta`` at every point of ``a``, sharing one evaluation
    of their denominator Phi2(a, 1, alpha, lam)."""
    c0 = math.sqrt(1.0 + alpha * alpha)
    r = -alpha / c0
    denom = log_bvn_cdf(a, lam / c0, min(max(r, -1 + 1e-14), 1 - 1e-14))
    if np.any(denom == -math.inf):
        raise ParameterDomainError("vanishing selection probability")
    t = np.exp(norm_logpdf(a) + log_ndtr(lam + alpha * a) - denom)
    d = np.exp(norm_logpdf(lam / c0) + log_ndtr(a * c0 + alpha * lam / c0) - denom)
    return t, d


def tau(a: float, alpha: float, lam: float) -> float:
    """phi(a) Phi(lam + alpha a) / Phi2(a, 1, alpha, lam)."""
    return float(_tau_delta(a, alpha, lam)[0])


def delta(a: float, alpha: float, lam: float) -> float:
    """phi(lam/c0) Phi(a c0 + alpha lam / c0) / Phi2(a, 1, alpha, lam)."""
    return float(_tau_delta(a, alpha, lam)[1])


def conditional_expectations(params: EsnsmParams, x):
    """(E[S*|S=1,x], E[Y*|S=1,x]) for a univariate outcome.

    ``x`` is one covariate row, which gives two floats, or an (n, k1)
    matrix, which gives two arrays with one entry per row.  The
    selection-error location enters both expectations (it shifts the
    latent index), so it appears alongside the regression parts; in the
    Gaussian limit both reduce to the classical truncated-normal and
    Heckman corrections.
    """
    if params.d != 1:
        raise ParameterDomainError("conditional expectations require a scalar outcome")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    blk = _selection_blocks(params)
    c2, at2, c02 = blk["c2"], blk["atilde2"], blk["c0s"]
    sel_idx = x @ params.beta2
    t2, d2 = _tau_delta(blk["xi2"] + sel_idx, -c2 * at2, c2 * params.lam)
    e_sstar = sel_idx + blk["xi2"] + t2 + (c2 * at2 / c02) * d2

    sigma1 = math.sqrt(params.sigma1[0, 0])
    sigma12 = float(params.sigma12[0])
    rho = sigma12 / sigma1
    alpha1 = float(params.alpha[0])
    # the shape entering the correction is that of the standardised outcome
    # error (sigma1 * alpha1); with it, sigma1 * v2 * delta2 equals
    # sigma12 * (c2 atilde2 / c02) delta2 + Sigma_11.2 alpha1 c2 delta2 / c02,
    # which is what conditioning on the selection error yields
    v2 = (rho * c2 * at2 + c2 * (1.0 - rho * rho) * sigma1 * alpha1) / c02
    e_ystar = float(blk["xi1"][0]) + x @ params.B[0] + sigma12 * t2 + sigma1 * v2 * d2
    if x.ndim == 1:
        return float(e_sstar), float(e_ystar)
    return e_sstar, e_ystar


def marginal_effect(params: EsnsmParams, x, k: int):
    """d E[Y*|S=1,x] / d x_k by centred finite differences; a float for one
    covariate row, an array for an (n, k1) matrix."""
    x = np.asarray(x, dtype=float)
    step = 1e-5 * np.maximum(1.0, np.abs(x[..., k]))
    x_hi = x.copy()
    x_lo = x.copy()
    x_hi[..., k] += step
    x_lo[..., k] -= step
    _, up = conditional_expectations(params, x_hi)
    _, lo = conditional_expectations(params, x_lo)
    return (up - lo) / (2.0 * step)


def params_from_particle(names: Sequence[str], theta, k1: int) -> EsnsmParams:
    """``EsnsmParams`` of one constrained particle of ``make_esnsm_target``.

    ``names`` are the target's parameter names and k1 the covariate count.
    Coefficients the names leave out are zero, and so are the shapes and
    the shift when they are absent (Gaussian errors).
    """
    vals = dict(zip(names, theta))
    b_full = np.zeros((1, k1))
    b2_full = np.zeros(k1)
    for name, v in vals.items():
        if name.startswith("beta1_"):
            b_full[0, int(name[len("beta1_"):])] = v
        elif name.startswith("beta2_"):
            b2_full[int(name[len("beta2_"):])] = v
    return EsnsmParams(
        b_full, b2_full, [[vals["sigma1"]]], [vals["sigma12"]],
        [vals.get("alpha1", 0.0), vals.get("alpha2", 0.0)], vals.get("lambda", 0.0),
    )


def make_esnsm_target(
    data: EsnsmData,
    hyper: EsnsmHyper,
    outcome_terms: Sequence[int],
    select_terms: Sequence[int],
    gaussian_errors: bool = False,
) -> TargetModel:
    """Posterior target for the univariate-outcome selection model.

    Free parameters: the outcome and selection coefficients named by the
    covariate-column index lists, log outcome scale, atanh of the error
    correlation, and (unless gaussian_errors) the two shapes and the
    shift.  With gaussian_errors the shape and shift are pinned at zero,
    which is the Bayesian Tobit-2 model.

    The target's ``evaluate`` hook takes ``loglik`` plus
    ``log_prior_esnsm`` for the whole particle matrix at once: every
    selection block is a scalar per particle, and the design's Gram
    matrices are computed here, once.  It does not screen.  Asked with
    ``grad``, the same evaluator also returns the gradient in the
    unconstrained coordinates, by a backward sweep through the value's
    intermediates (the CDF's partials from ``normals.log_bvn_partials``).
    """
    if data.y.shape[1] != 1:
        raise DataError("the selection-model target needs a scalar outcome")
    outcome_terms = list(outcome_terms)
    select_terms = list(select_terms)
    k_out, k_sel = len(outcome_terms), len(select_terms)
    i_s = k_out + k_sel  # column of the outcome scale; the cross covariance follows
    dim = i_s + (2 if gaussian_errors else 5)

    x1 = data.x[:, outcome_terms]
    x2 = data.x[:, select_terms]
    xtx1 = x1.T @ x1
    prec2 = x2.T @ x2 / hyper.c_beta2
    if np.linalg.matrix_rank(xtx1) < k_out or np.linalg.matrix_rank(prec2) < k_sel:
        raise DataError("X'X is singular")
    logdet1 = np.linalg.slogdet(xtx1)[1]
    logdet2 = np.linalg.slogdet(prec2)[1]
    mu_b = hyper.mu_b.ravel()
    v0 = float(hyper.V[0, 0])
    # every prior term that does not depend on the particle
    prior_const = (
        -0.5 * k_out * (_LOG_2PI + math.log(hyper.c_beta1)) + 0.5 * logdet1
        - 0.5 * k_sel * _LOG_2PI + 0.5 * logdet2
        + 0.5 * hyper.nu * math.log(0.5 * v0) - math.lgamma(0.5 * hyper.nu)
        - math.log(2.0)  # sigma12 uniform on (-sqrt(sigma1), sqrt(sigma1))
    )
    if not gaussian_errors:  # the shape and shift priors; Tobit-2 pins both at zero
        prior_const = prior_const - _LOG_2PI - math.log(hyper.sigma2_alpha) - 0.5 * _LOG_2PI
    obs = data.s == 1
    y_obs = data.y[obs, 0]
    x1_obs, x2_obs, x2_cen = x1[obs], x2[obs], x2[~obs]
    n_obs, n_cen = x1_obs.shape[0], x2_cen.shape[0]

    def to_constrained(v):
        """One unconstrained vector, or a matrix with one per row."""
        out = np.array(v, dtype=float)
        u, w = out[..., i_s], out[..., i_s + 1]
        out[..., i_s], out[..., i_s + 1] = np.exp(2.0 * u), np.exp(u) * np.tanh(w)
        return out

    def to_unconstrained(theta):
        out = np.asarray(theta, dtype=float).copy()
        s1 = theta[i_s]
        s12 = theta[i_s + 1]
        u = 0.5 * math.log(s1)
        out[i_s] = u
        out[i_s + 1] = math.atanh(min(max(s12 / math.sqrt(s1), -1 + 1e-12), 1 - 1e-12))
        return out

    def products(coef, x):
        """``coef @ x.T`` summed column by column: unlike a BLAS product,
        this rounds each row the same wherever it sits in the block."""
        return sum(coef[:, j, None] * x[:, j] for j in range(x.shape[1]))

    def sums(weights, x):
        """``weights @ x``, one column at a time as row sums."""
        return np.stack([(weights * x[:, j]).sum(axis=1) for j in range(x.shape[1])], axis=1)

    # the bivariate CDF's largest working set is two (rows, 20, columns)
    # arrays of node terms in the |r| >= 0.925 expansion, 5.2 MB each at
    # blocks of 2^15 points.  The size is measured, not derived: on a 2-vCPU
    # x86 machine, a 200 x 1000-point batch at posterior particles took
    # 33 ms in blocks of 2^15 points, 36 ms at 2^14 and 44 ms at 2^16, and
    # cutting the node rule's work into chunks of 2^18 terms gained nothing
    rows = max(1, 2**15 // data.n)

    def evaluate(vmat, grad=False, states=None, fails=None):
        """The log target of each row of ``vmat`` and its gradient (None
        without ``grad``): the per-particle terms once for the whole batch,
        then the per-point work in row blocks, each returning sums over its
        rows' points, then the scalar chain that combines them."""
        theta = to_constrained(vmat)
        b, b2 = theta[:, :k_out], theta[:, k_out:i_s]
        s1, s12 = theta[:, i_s], theta[:, i_s + 1]
        if gaussian_errors:
            a1 = a2 = lam = np.zeros(theta.shape[0])
        else:
            a1, a2, lam = theta[:, i_s + 2 :].T
        c0sq = 1.0 + a1 * (a1 * s1 + a2 * s12) + a2 * (a1 * s12 + a2)

        # the blocks of _selection_blocks; s12 / s1 rounds as the scalar
        # route's 1 x 1 solve does, so near |rho| = 1, where 1 - s12^2 / s1
        # cancels, both routes agree
        c0 = np.sqrt(c0sq)
        t0 = lam / c0
        h = normals.mills_ratio_inv(t0)
        xi1 = -(s1 * a1 + s12 * a2) / c0 * h
        xi2 = -(s12 * a1 + a2) / c0 * h
        sol12 = s12 / s1
        s22_1 = 1.0 - s12 * sol12
        c2 = 1.0 / np.sqrt(1.0 + a1 * a1 * (s1 - s12 * s12))
        at2 = a2 + s12 * a1
        at1 = a1 + sol12 * a2
        c1 = 1.0 / np.sqrt(1.0 + a2 * a2 * s22_1)
        c0m = np.sqrt(1.0 + c1 * c1 * at1 * at1 * s1)
        c0s = np.sqrt(1.0 + (c2 * at2) ** 2)
        k = c2 * lam / c0s
        r_cen = np.clip(-(c2 * at2) / c0s, -1.0 + 1e-14, 1.0 - 1e-14)
        sd1 = np.sqrt(s1)
        sd2 = np.sqrt(s22_1)
        kvar = np.sqrt(1.0 + a2 * a2 * s22_1)
        r_obs = np.clip(a2 * sd2 / kvar, -1.0 + 1e-14, 1.0 - 1e-14)

        def point_sums(i):
            """Rows i to i + rows: the censored and observed log CDF terms,
            the squared standardised residuals and, with grad, the partials
            that the chain below needs, each summed over the row's points.
            The CDF is reached through its module so that wrappers of
            esnsm.log_bvn_cdf, which expect a scalar r, do not see it."""
            at = slice(i, i + rows)
            kb, r_cb, r_ob = k[at, None], r_cen[at, None], r_obs[at, None]
            hc = -products(b2[at], x2_cen) - xi2[at, None]
            cen = normals.log_bvn_cdf(hc, kb, r_cb)
            resid = y_obs - products(b[at], x1_obs) - xi1[at, None]
            m = xi2[at, None] + products(b2[at], x2_obs) + resid * sol12[at, None]
            lam_i = lam[at, None] + resid * at1[at, None]
            h_obs, k_obs = m / sd2[at, None], lam_i / kvar[at, None]
            num = normals.log_bvn_cdf(h_obs, k_obs, r_ob)
            out = [cen.sum(axis=1), num.sum(axis=1), np.sum((resid / sd1[at, None]) ** 2, axis=1)]
            if not grad:
                return out
            dh, dk, dr = normals.log_bvn_partials(hc, kb, r_cb, cen)
            out += [dh.sum(axis=1), sums(dh, x2_cen), dk.sum(axis=1), dr.sum(axis=1)]
            dh, dk, dr = normals.log_bvn_partials(h_obs, k_obs, r_ob, num)
            g_m = dh / sd2[at, None]
            g_lami = dk / kvar[at, None]
            g_resid = g_m * sol12[at, None] + g_lami * at1[at, None] - resid / s1[at, None]
            return out + [
                dr.sum(axis=1), (dh * h_obs).sum(axis=1), (dk * k_obs).sum(axis=1),
                g_resid.sum(axis=1), sums(g_resid, x1_obs), g_m.sum(axis=1), sums(g_m, x2_obs),
                (g_m * resid).sum(axis=1), (g_lami * resid).sum(axis=1), g_lami.sum(axis=1),
            ]

        parts = [point_sums(i) for i in range(0, max(vmat.shape[0], 1), rows)]  # 0 rows: 1 empty block
        cen, num, sq, *point_grads = (np.concatenate(p) for p in zip(*parts))

        # loglik
        t1 = c1 * lam / c0m
        ll = cen - n_cen * log_ndtr(k)
        ll += -n_obs * (0.5 * _LOG_2PI + np.log(sd1) + log_ndtr(t1)) - 0.5 * sq + num

        # log_prior_esnsm without its constant terms
        db = b - mu_b
        d2 = b2 - hyper.mu_beta2
        qb = quad_form(db, xtx1)
        lp = (
            prior_const
            - 0.5 * k_out * np.log(s1)
            - 0.5 * qb / (hyper.c_beta1 * s1)
            - 0.5 * quad_form(d2, prec2)
            - 0.5 * (hyper.nu + 3.0) * np.log(s1)
            - 0.5 * v0 / s1
            - 0.5 * (a1 * a1 + a2 * a2) / hyper.sigma2_alpha
            - 0.5 * (np.log(c0sq) + lam * lam / c0sq)
        )

        # log|J|: d(sigma1)/du = 2 e^{2u}, d(sigma12)/dw = e^u sech^2(w),
        # with log sech^2(w) written to stay exact for large |w|
        u, aw = vmat[:, i_s], np.abs(vmat[:, i_s + 1])
        log_jac = 3.0 * (math.log(2.0) + u) - 2.0 * (aw + np.log1p(np.exp(-2.0 * aw)))
        # s22_1 = 1 - q: both the likelihood and the sigma12 prior need q < 1
        value = np.where(s22_1 > 0.0, ll + lp + log_jac, -np.inf)
        if not grad:
            return value, None

        # the gradient, backwards through the same intermediates: g_v is
        # d(log target)/dv; the clips of r bind only where dr/d(...) ~ 0.
        # Each name below first holds its point terms' row sums
        (g_xi2, g_b2, g_k, g_rc, g_r, g_sd2, g_kvar,
         g_xi1, g_b, g_m, g_mx, g_sol12, g_at1, g_lami) = point_grads
        g_xi2, g_b2 = -g_xi2, -g_b2
        g_k -= n_cen * normals.mills_ratio_inv(k)
        x = c2 * at2  # r_cen = -x / c0s, k = c2 lam / c0s, c0s^2 = 1 + x^2
        g_x = -(g_k * k * x + g_rc / c0s) / (c0s * c0s)
        g_lam = g_k * c2 / c0s
        g_c2 = g_k * lam / c0s + g_x * at2
        g_at2 = g_x * c2

        g_sd2 = g_r * a2 / kvar - g_sd2 / sd2
        g_kvar = -(g_r * r_obs + g_kvar) / kvar
        g_a2 = g_r * sd2 / kvar
        g_xi1, g_b = -g_xi1, -g_b
        g_xi2 += g_m
        g_b2 += g_mx
        g_lam += g_lami
        g_s1 = (sq - n_obs) / (2.0 * s1)  # through sd1
        g_t1 = -n_obs * normals.mills_ratio_inv(t1)
        g_lam += g_t1 * c1 / c0m
        g_c0m = -g_t1 * t1 / c0m
        g_c1 = g_t1 * lam / c0m + g_c0m * c1 * at1 * at1 * s1 / c0m
        g_at1 += g_c0m * c1 * c1 * at1 * s1 / c0m
        g_s1 += g_c0m * (c1 * at1) ** 2 / (2.0 * c0m)
        g_v = g_kvar / (2.0 * kvar) - 0.5 * g_c1 * c1**3  # kvar = 1 / c1 = sqrt(v)
        g_a2 += 2.0 * g_v * a2 * s22_1
        g_s22 = g_v * a2 * a2 + g_sd2 / (2.0 * sd2)
        g_e2 = -0.5 * g_c2 * c2**3 * a1 * a1  # c2 = (1 + a1^2 e2)^(-1/2), e2 = s1 - s12^2
        g_a1 = -g_c2 * c2**3 * a1 * (s1 - s12 * s12) + g_at2 * s12 + g_at1
        g_a2 += g_at2 + g_at1 * sol12
        g_s12 = g_at2 * a1
        g_sol12 += g_at1 * a2
        # xi = -(s1 a1 + s12 a2, s12 a1 + a2) q with q = mills(lam / c0) / c0
        q = h / c0
        g_s1 -= g_xi1 * a1 * q
        g_s12 -= (g_xi1 * a2 + g_xi2 * a1) * q
        g_a1 -= (g_xi1 * s1 + g_xi2 * s12) * q
        g_a2 -= (g_xi1 * s12 + g_xi2) * q
        g_q = -g_xi1 * (s1 * a1 + s12 * a2) - g_xi2 * (s12 * a1 + a2)
        g_t0 = -(g_q / c0) * h * (t0 + h)  # mills' = -mills (t + mills)
        g_lam += g_t0 / c0 - lam / c0sq
        g_c0 = -(g_q * q + g_t0 * t0) / c0

        # the prior's non-constant terms
        g_b -= products(db, xtx1) / (hyper.c_beta1 * s1)[:, None]
        g_b2 -= products(d2, prec2)
        g_s1 += (0.5 * qb / hyper.c_beta1 + 0.5 * v0
                 - 0.5 * (k_out + hyper.nu + 3.0) * s1) / (s1 * s1)
        g_a1 -= a1 / hyper.sigma2_alpha
        g_a2 -= a2 / hyper.sigma2_alpha
        g_c0sq = g_c0 / (2.0 * c0) - 0.5 * (1.0 - lam * lam / c0sq) / c0sq
        g_a1 += 2.0 * g_c0sq * (a1 * s1 + a2 * s12)
        g_a2 += 2.0 * g_c0sq * (a1 * s12 + a2)
        g_s1 += g_c0sq * a1 * a1
        g_s12 += 2.0 * g_c0sq * a1 * a2

        # to (u, w), each of s1 = e^2u, s12 = e^u t, sol12 = t e^-u,
        # s22_1 = 1 - t^2 and e2 = e^2u (1 - t^2) by its own derivative,
        # t = tanh w, with sech^2 w kept exact for large |w|; log|J| adds
        # 3 and -2 t
        u, w = vmat[:, i_s], vmat[:, i_s + 1]
        ew = np.exp(-2.0 * np.abs(w))
        sech2 = 4.0 * ew / (1.0 + ew) ** 2
        t, eu = np.tanh(w), np.exp(u)
        e2 = s1 * sech2
        g_u = 2.0 * s1 * g_s1 + s12 * g_s12 - sol12 * g_sol12 + 2.0 * e2 * g_e2 + 3.0
        g_w = sech2 * (eu * g_s12 + g_sol12 / eu - 2.0 * t * (g_s22 + s1 * g_e2)) - 2.0 * t
        cols = [g_b, g_b2, g_u[:, None], g_w[:, None]]
        if not gaussian_errors:
            cols += [g_a1[:, None], g_a2[:, None], g_lam[:, None]]
        return value, np.concatenate(cols, axis=1)

    names = (
        [f"beta1_{j}" for j in outcome_terms]
        + [f"beta2_{j}" for j in select_terms]
        + ["sigma1", "sigma12"]
        + ([] if gaussian_errors else ["alpha1", "alpha2", "lambda"])
    )

    coef, *_ = np.linalg.lstsq(x1_obs, y_obs, rcond=None)
    # 1.0 where no row is selected (no residuals) or they have no spread
    resid_var = (float(np.var(y_obs - x1_obs @ coef)) if y_obs.size else 0.0) or 1.0
    start_theta = np.concatenate(
        [
            coef,
            np.zeros(k_sel),
            [resid_var, 0.0],
            [] if gaussian_errors else [0.5, 0.5, 0.0],
        ]
    )
    return TargetModel(
        dim=dim,
        evaluate=evaluate,
        to_constrained=to_constrained,
        param_names=names,
        default_start=to_unconstrained(start_theta),
    )
