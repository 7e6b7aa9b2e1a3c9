"""Closed-form Gaussian evidence and Bayes-factor classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "CATEGORIES",
    "EvidenceComparison",
    "log_mv_gamma",
    "niw_posterior",
    "gaussian_log_evidence",
    "classify_bayes_factor",
]

CATEGORIES = ("poor", "substantial", "strong", "decisive")


@dataclass
class EvidenceComparison:
    log_m1: float
    log_m0: float
    log10_bayes_factor: float
    category: str


def log_mv_gamma(d: int, x: float) -> float:
    """log of the d-dimensional multivariate gamma function.

    log Gamma_d(x) = (d(d-1)/4) log pi + sum_{j=1..d} log Gamma(x + (1-j)/2).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if x <= (d - 1) / 2.0:
        raise ValueError(f"multivariate gamma requires x > (d-1)/2, got {x}")
    j = np.arange(1, d + 1)
    return float(d * (d - 1) / 4.0 * math.log(math.pi) + gammaln(x + (1.0 - j) / 2.0).sum())


def niw_posterior(z: np.ndarray, hyper):
    """Normal-inverse-Wishart posterior (kappa_n, nu_n, xi_n, V_n) for the rows
    of ``z`` (n, d); V_n adds the centred scatter and the shrunken offset."""
    n = z.shape[0]
    zbar = z.mean(axis=0)
    centred = z - zbar
    offset = zbar - hyper.xi0
    kappa_n = hyper.kappa + n
    nu_n = hyper.nu + n
    xi_n = (hyper.kappa * hyper.xi0 + n * zbar) / kappa_n
    v_n = hyper.V + centred.T @ centred + (hyper.kappa * n / kappa_n) * np.outer(offset, offset)
    return kappa_n, nu_n, xi_n, v_n


def gaussian_log_evidence(data, hyper) -> float:
    """Marginal likelihood of IID Gaussian data under the conjugate
    normal-inverse-Wishart prior.

    log m0 = -(nd/2) log pi + log Gamma_d(nu_n/2) - log Gamma_d(nu/2)
             + (nu/2) log|V| - (nu_n/2) log|V_n| + (d/2)(log kappa - log kappa_n)
    with kappa_n, nu_n and V_n from ``niw_posterior``.
    """
    z = np.asarray(data, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    n, d = z.shape
    if n < 1:
        raise ValueError("need at least one observation")
    if hyper.xi0.shape[0] != d:
        raise ValueError("hyperparameter dimension does not match the data")
    kappa_n, nu_n, _, v_n = niw_posterior(z, hyper)
    _, logdet_v = np.linalg.slogdet(hyper.V)
    _, logdet_vn = np.linalg.slogdet(v_n)
    return (
        -0.5 * n * d * math.log(math.pi)
        + log_mv_gamma(d, nu_n / 2.0)
        - log_mv_gamma(d, hyper.nu / 2.0)
        + 0.5 * hyper.nu * logdet_v
        - 0.5 * nu_n * logdet_vn
        + 0.5 * d * (math.log(hyper.kappa) - math.log(kappa_n))
    )


def classify_bayes_factor(log_m1: float, log_m0: float) -> EvidenceComparison:
    """Jeffreys-style classification of B10 = m1/m0 on the log10 scale:
    poor (<= 0.5), substantial (0.5, 1], strong (1, 2], decisive (> 2)."""
    if not (math.isfinite(log_m1) and math.isfinite(log_m0)):
        raise ValueError("evidences must be finite")
    log10_b10 = (log_m1 - log_m0) / math.log(10.0)
    if log10_b10 <= 0.5:
        category = "poor"
    elif log10_b10 <= 1.0:
        category = "substantial"
    elif log10_b10 <= 2.0:
        category = "strong"
    else:
        category = "decisive"
    return EvidenceComparison(log_m1, log_m0, log10_b10, category)
