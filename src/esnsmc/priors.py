"""Default prior system for both parametrisations.

Under the hidden-truncation form: normal-inverse-Wishart on (location,
scale), a vague Gaussian on the shape vector, and a conditional Gaussian
N(0, c0^2) on the shift, which downweights truncation points that the
likelihood cannot identify.  Under the convolution form: NIW on
(location, Gaussian scale), a Gaussian on the loading with covariance
proportional to the scale matrix so loading and shape carry the same
prior variance on average, and N(0, 1) on the truncation scalar (the
exact image of the shift prior under c = lam / c0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .esn import EsnParamsP1, EsnParamsP2
from .model_select import log_mv_gamma

__all__ = [
    "HyperParamsP1",
    "HyperParamsP2",
    "default_hyper",
    "iw_logpdf",
    "niw_logpdf",
    "log_prior_p1",
    "log_prior_p2",
    "sample_prior",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _spd(m, name):
    a = np.atleast_2d(np.asarray(m, dtype=float))
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
    return a


@dataclass
class HyperParamsP1:
    xi0: np.ndarray
    kappa: float
    nu: float
    V: np.ndarray
    mu_alpha: np.ndarray
    sigma2_alpha: float

    def __post_init__(self):
        self.xi0 = np.atleast_1d(np.asarray(self.xi0, dtype=float))
        self.V = _spd(self.V, "V")
        self.mu_alpha = np.atleast_1d(np.asarray(self.mu_alpha, dtype=float))
        d = self.xi0.shape[0]
        if self.V.shape != (d, d) or self.mu_alpha.shape != (d,):
            raise ValueError("hyperparameter dimensions disagree")
        if self.kappa <= 0 or self.sigma2_alpha <= 0:
            raise ValueError("kappa and sigma2_alpha must be positive")
        # guarantees the prior mean of the scale matrix exists with finite
        # component variances
        if not self.nu > d + 3:
            raise ValueError(f"nu must exceed d + 3 = {d + 3}, got {self.nu}")

    @property
    def d(self) -> int:
        return self.xi0.shape[0]


@dataclass
class HyperParamsP2:
    xi0t: np.ndarray
    kappat: float
    nut: float
    Vt: np.ndarray
    mu_d: np.ndarray
    kappa_d: float

    def __post_init__(self):
        self.xi0t = np.atleast_1d(np.asarray(self.xi0t, dtype=float))
        self.Vt = _spd(self.Vt, "Vt")
        self.mu_d = np.atleast_1d(np.asarray(self.mu_d, dtype=float))
        d = self.xi0t.shape[0]
        if self.Vt.shape != (d, d) or self.mu_d.shape != (d,):
            raise ValueError("hyperparameter dimensions disagree")
        if self.kappat <= 0 or self.kappa_d <= 0:
            raise ValueError("kappat and kappa_d must be positive")
        if not self.nut > d + 3:
            raise ValueError(f"nut must exceed d + 3 = {d + 3}, got {self.nut}")

    @property
    def d(self) -> int:
        return self.xi0t.shape[0]


def default_hyper(d: int) -> tuple[HyperParamsP1, HyperParamsP2]:
    """Default hyperparameters: kappa 0.1, zero prior means, nu = max(6, d+4),
    V = 12 I, Vt = 2 I, shape variance 10, and the loading precision chosen
    so loading and shape have the same average prior variance."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    nu = float(max(6, d + 4))
    sigma2_alpha = 10.0
    h1 = HyperParamsP1(
        xi0=np.zeros(d),
        kappa=0.1,
        nu=nu,
        V=12.0 * np.eye(d),
        mu_alpha=np.zeros(d),
        sigma2_alpha=sigma2_alpha,
    )
    nut = nu
    kappa_d = 2.0 / (sigma2_alpha * (nut - d - 1.0))
    h2 = HyperParamsP2(
        xi0t=np.zeros(d),
        kappat=0.1,
        nut=nut,
        Vt=2.0 * np.eye(d),
        mu_d=np.zeros(d),
        kappa_d=kappa_d,
    )
    # the convolution-side scale prior must sit on smaller values
    np.linalg.cholesky(h1.V - h2.Vt)
    return h1, h2


def iw_logpdf(m, scale, df) -> float:
    """Inverse-Wishart log-density with kernel |M|^{-(df+d+1)/2} exp(-tr(scale M^{-1})/2)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    scale = np.atleast_2d(np.asarray(scale, dtype=float))
    d = m.shape[0]
    sign, logdet_m = np.linalg.slogdet(m)
    if sign <= 0:
        raise ParameterDomainError("inverse-Wishart argument must be positive definite")
    _, logdet_s = np.linalg.slogdet(scale)
    tr = float(np.trace(np.linalg.solve(m, scale)))
    return (
        0.5 * df * logdet_s
        - 0.5 * df * d * math.log(2.0)
        - log_mv_gamma(d, df / 2.0)
        - 0.5 * (df + d + 1.0) * logdet_m
        - 0.5 * tr
    )


def _gauss_logpdf_cov(x, mu, cov) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = x.shape[0]
    u = x - mu
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ParameterDomainError("covariance must be positive definite")
    return -0.5 * (d * _LOG_2PI + logdet + float(u @ np.linalg.solve(cov, u)))


def niw_logpdf(xi, scale_matrix, xi0, kappa, nu, v) -> float:
    """Normal-inverse-Wishart log-density: IW(scale; v, nu) x N(xi; xi0, scale/kappa)."""
    return iw_logpdf(scale_matrix, v, nu) + _gauss_logpdf_cov(
        xi, xi0, np.atleast_2d(scale_matrix) / kappa
    )


def log_prior_p1(params: EsnParamsP1, hyper: HyperParamsP1) -> float:
    d = params.d
    if hyper.d != d:
        raise ValueError("hyperparameter dimension mismatch")
    out = niw_logpdf(params.xi, params.sigma, hyper.xi0, hyper.kappa, hyper.nu, hyper.V)
    out += _gauss_logpdf_cov(params.alpha, hyper.mu_alpha, hyper.sigma2_alpha * np.eye(d))
    c0sq = 1.0 + float(params.alpha @ params.sigma @ params.alpha)
    out += -0.5 * (_LOG_2PI + math.log(c0sq) + params.lam**2 / c0sq)
    return float(out)


def log_prior_p2(params: EsnParamsP2, hyper: HyperParamsP2) -> float:
    if hyper.d != params.d:
        raise ValueError("hyperparameter dimension mismatch")
    out = niw_logpdf(params.xi, params.omega, hyper.xi0t, hyper.kappat, hyper.nut, hyper.Vt)
    out += _gauss_logpdf_cov(params.dvec, hyper.mu_d, params.omega / hyper.kappa_d)
    out += -0.5 * (_LOG_2PI + params.c**2)
    return float(out)


def sample_prior(hyper, parametrization: str, rng: np.random.Generator):
    """One draw from the hierarchical prior ('p1' or 'p2')."""
    from scipy.stats import invwishart  # slow to import; nothing else here needs it

    if parametrization == "p1":
        if not isinstance(hyper, HyperParamsP1):
            raise TypeError("p1 sampling needs HyperParamsP1")
        d = hyper.d
        sigma = np.atleast_2d(invwishart.rvs(df=hyper.nu, scale=hyper.V, random_state=rng))
        xi = rng.multivariate_normal(hyper.xi0, sigma / hyper.kappa)
        alpha = hyper.mu_alpha + math.sqrt(hyper.sigma2_alpha) * rng.standard_normal(d)
        c0 = math.sqrt(1.0 + float(alpha @ sigma @ alpha))
        lam = c0 * rng.standard_normal()
        return EsnParamsP1(xi, sigma, alpha, lam)
    if parametrization == "p2":
        if not isinstance(hyper, HyperParamsP2):
            raise TypeError("p2 sampling needs HyperParamsP2")
        omega = np.atleast_2d(invwishart.rvs(df=hyper.nut, scale=hyper.Vt, random_state=rng))
        xi = rng.multivariate_normal(hyper.xi0t, omega / hyper.kappat)
        dvec = rng.multivariate_normal(hyper.mu_d, omega / hyper.kappa_d)
        c = rng.standard_normal()
        return EsnParamsP2(xi, omega, dvec, c)
    raise ValueError(f"unknown parametrization {parametrization!r}")
