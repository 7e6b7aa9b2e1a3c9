"""Posterior target builders for the IID sampling models.

Each builder packs the model's parameters into a flat constrained vector,
defines the matching unconstrained coordinates (locations, shapes and
shift/truncation scalars pass through; scale matrices go through a
log-Cholesky map), and wires the likelihood and prior into a
``TargetModel`` as one vectorised evaluator over whole particle
matrices, in any dimension.  The Gaussian part of each likelihood works
from the data's centred sufficient statistics, so the only
particle-by-observation work is the skewing term of the ESN models.
Sums over parameter indices are elementwise products added in index
order or two-operand einsums, never BLAS products or three-operand
einsums, so a particle gets the same bytes wherever it sits in a batch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr

from . import priors
from .model_select import log_mv_gamma
from .normals import quad_form
from .smc import TargetModel

__all__ = [
    "chol_params_from_matrix",
    "chol_log_jacobian",
    "param_names",
    "make_iid_esn_target",
    "make_gaussian_target",
]

_LOG_2PI = math.log(2.0 * math.pi)


@lru_cache(maxsize=None)
def _tril(d):
    return np.tril_indices(d)


@lru_cache(maxsize=None)
def _diag_positions(d):
    rows, cols = _tril(d)
    return np.flatnonzero(rows == cols)


def _chol_factor(u, d):
    """Lower Cholesky factor from its lower-triangle parameters, the
    diagonal on the log scale; ``u`` is one parameter vector or a matrix
    with one per row."""
    lmat = np.zeros(u.shape[:-1] + (d, d))
    lmat[(..., *_tril(d))] = u
    idx = np.arange(d)
    lmat[..., idx, idx] = np.exp(u[..., _diag_positions(d)])
    return lmat


def chol_params_from_matrix(m):
    lmat = np.linalg.cholesky(m)
    d = m.shape[0]
    u = lmat[_tril(d)].copy()
    u[_diag_positions(d)] = np.log(np.diag(lmat))
    return u


def chol_log_jacobian(u, d):
    """log |d vech(Sigma) / d u| for the log-Cholesky map:
    d log 2 + sum_i (d - i + 2) log L_ii (1-based diagonal index i).
    ``u`` is one parameter vector or a matrix with one per row."""
    logdiag = np.asarray(u)[..., _diag_positions(d)]
    weights = d - np.arange(1, d + 1) + 2
    return d * math.log(2.0) + np.sum(logdiag * weights, axis=-1)


def _inv_lower(lmat):
    """Inverses of a stack of lower-triangular matrices by forward
    substitution; a zero diagonal gives non-finite entries, not an error."""
    d = lmat.shape[-1]
    inv = np.zeros_like(lmat)
    for i in range(d):
        row = -np.einsum("nj,njk->nk", lmat[:, i, :i], inv[:, :i])
        row[:, i] += 1.0
        inv[:, i] = row / lmat[:, i, i, None]
    return inv


class _Packing:
    """Flat layout [location block, scale tril block, extra blocks...]."""

    def __init__(self, d, extra):
        self.d = d
        self.n_tril = d * (d + 1) // 2
        self.extra = extra  # number of trailing passthrough entries
        self.dim = d + self.n_tril + extra
        self._s = slice(d, d + self.n_tril)

    def to_constrained(self, v):
        """One unconstrained vector, or a matrix with one per row."""
        out = np.array(v, dtype=float)
        lmat = _chol_factor(out[..., self._s], self.d)
        out[..., self._s] = (lmat @ lmat.swapaxes(-1, -2))[(..., *_tril(self.d))]
        return out

    def to_unconstrained(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = theta.copy()
        sigma = np.zeros((self.d, self.d))
        sigma[_tril(self.d)] = theta[self._s]
        sigma = sigma + sigma.T - np.diag(np.diag(sigma))
        out[self._s] = chol_params_from_matrix(sigma)
        return out

    def split(self, vmat):
        """Per-particle pieces of an (N, dim) unconstrained matrix: the
        location block, the scale matrix's Cholesky factor, its inverse
        (the precision matrix), its log-determinant, the trailing columns,
        and the log-Jacobian of the scale map."""
        d = self.d
        u = vmat[:, self._s]
        lmat = _chol_factor(u, d)
        logdiag = u[:, _diag_positions(d)]
        linv = _inv_lower(lmat)
        prec = np.einsum("nji,njk->nik", linv, linv)
        logdet = 2.0 * logdiag.sum(axis=1)
        return vmat[:, :d], lmat, prec, logdet, vmat[:, self._s.stop :], chol_log_jacobian(u, d)


def param_names(d, scale="sigma", shape=None, shift=None):
    """Names of the flat IID layout: the location, the scale's lower
    triangle by rows, then, for the ESN models, the shape vector and the
    shift scalar.  In one dimension the short forms are ``xi, sigma2``
    (Gaussian), ``xi, sigma2, alpha, lambda`` (p1) and ``xi, omega2, d, c``
    (p2); above it, ``xi1, xi2, sigma11, sigma21, sigma22, alpha1, ...``."""

    def vector(name):
        return [name] if d == 1 else [f"{name}{i + 1}" for i in range(d)]

    rows, cols = _tril(d)
    scales = [f"{scale}2"] if d == 1 else [f"{scale}{i + 1}{j + 1}" for i, j in zip(rows, cols)]
    return vector("xi") + scales + (vector(shape) + [shift] if shape else [])


def _gauss_logpdf(x, mean, prec, logdet, kappa=1.0):
    """log N(x; mean, Sigma / kappa) per particle, given Sigma^{-1} and log|Sigma|."""
    d = x.shape[1]
    return -0.5 * (d * (_LOG_2PI - math.log(kappa)) + logdet + kappa * quad_form(x - mean, prec))


def _niw_logpdf(xi, prec, logdet, xi0, kappa, nu, v):
    """Normal-inverse-Wishart log-density per particle (``priors.niw_logpdf``)."""
    d = xi.shape[1]
    iw = (
        0.5 * nu * np.linalg.slogdet(v)[1]
        - 0.5 * nu * d * math.log(2.0)
        - log_mv_gamma(d, nu / 2.0)
        - 0.5 * (nu + d + 1.0) * logdet
        - 0.5 * np.einsum("njk,jk->n", prec, v)
    )
    return iw + _gauss_logpdf(xi, xi0, prec, logdet, kappa)


class _Stats:
    """IID data with its mean and centred scatter matrix."""

    def __init__(self, z):
        self.z = z
        self.n, self.d = z.shape
        self.mean = z.mean(axis=0)
        centred = z - self.mean
        self.scatter = centred.T @ centred


def _gauss_loglik(st, xi, prec, logdet):
    """sum_i log N(z_i; xi, Sigma) per particle, from the centred statistics:
    sum_i (z_i - xi)' P (z_i - xi) = tr(P S) + n (zbar - xi)' P (zbar - xi)."""
    quad = np.einsum("njk,jk->n", prec, st.scatter) + st.n * quad_form(st.mean - xi, prec)
    return -0.5 * (st.n * (st.d * _LOG_2PI + logdet) + quad)


def _esn_loglik(st, xi, prec, logdet, alpha, lam, c0sq):
    """IID ESN log-likelihood per particle under the hidden-truncation form
    (precision and log-determinant of the scale, shape, shift, c0^2)."""
    # the one particle-by-observation array, summed column by column
    arg = alpha[:, :1] * st.z[:, 0]
    for j in range(1, st.d):
        arg += alpha[:, j : j + 1] * st.z[:, j]
    arg += (lam - np.einsum("nj,nj->n", alpha, xi))[:, None]
    skew = log_ndtr(arg, out=arg).sum(axis=1)
    return _gauss_loglik(st, xi, prec, logdet) + skew - st.n * log_ndtr(lam / np.sqrt(c0sq))


def make_iid_esn_target(data, hyper, parametrization: str = "p1") -> TargetModel:
    """Posterior target for IID extended skew-normal data under either
    parametrisation, with its §-default prior block attached by the caller."""
    z = np.asarray(data, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    st = _Stats(z)
    d = st.d
    pack = _Packing(d, extra=d + 1)

    if parametrization == "p1":
        if not isinstance(hyper, priors.HyperParamsP1):
            raise TypeError("p1 target needs HyperParamsP1")

        def batch(vmat):
            xi, lmat, prec, logdet, rest, log_jac = pack.split(vmat)
            alpha, lam = rest[:, :d], rest[:, d]
            sa = np.einsum("nji,nj->ni", lmat, alpha)  # L' alpha
            c0sq = 1.0 + np.einsum("ni,ni->n", sa, sa)
            da = alpha - hyper.mu_alpha
            lp = _niw_logpdf(xi, prec, logdet, hyper.xi0, hyper.kappa, hyper.nu, hyper.V)
            lp -= 0.5 * (d * (_LOG_2PI + math.log(hyper.sigma2_alpha))
                         + np.einsum("nj,nj->n", da, da) / hyper.sigma2_alpha)
            lp -= 0.5 * (_LOG_2PI + np.log(c0sq) + lam * lam / c0sq)
            return _esn_loglik(st, xi, prec, logdet, alpha, lam, c0sq) + lp + log_jac

        names = param_names(d, "sigma", "alpha", "lambda")
    elif parametrization == "p2":
        if not isinstance(hyper, priors.HyperParamsP2):
            raise TypeError("p2 target needs HyperParamsP2")

        def batch(vmat):
            # convolution to hidden-truncation form (esn.p2_to_p1) by
            # Sherman-Morrison: with q = d' Omega^{-1} d, Sigma = Omega + d d'
            # has log|Sigma| = log|Omega| + log(1 + q), shape
            # Omega^{-1} d / sqrt(1 + q), shift c sqrt(1 + q) and c0^2 = 1 + q
            xi, _, prec, logdet, rest, log_jac = pack.split(vmat)
            dvec, c = rest[:, :d], rest[:, d]
            pd = np.einsum("njk,nk->nj", prec, dvec)
            q1 = 1.0 + np.einsum("nj,nj->n", dvec, pd)
            sig_prec = prec - np.einsum("nj,nk->njk", pd, pd) / q1[:, None, None]
            root = np.sqrt(q1)
            alpha = pd / root[:, None]
            ll = _esn_loglik(st, xi, sig_prec, logdet + np.log(q1), alpha, c * root, q1)
            lp = _niw_logpdf(xi, prec, logdet, hyper.xi0t, hyper.kappat, hyper.nut, hyper.Vt)
            lp += _gauss_logpdf(dvec, hyper.mu_d, prec, logdet, hyper.kappa_d)
            lp -= 0.5 * (_LOG_2PI + c * c)
            return ll + lp + log_jac

        names = param_names(d, "omega", "d", "c")
    else:
        raise ValueError(f"unknown parametrization {parametrization!r}")

    mean = st.mean
    var = np.cov(z.T, ddof=0) if d > 1 else np.array([[z.var()]])
    skew_sign = float(np.sign(np.mean((z[:, 0] - mean[0]) ** 3)) or 1.0)
    if parametrization == "p1":
        start_theta = np.concatenate(
            [mean, np.atleast_2d(var)[_tril(d)], np.full(d, 0.5 * skew_sign), [0.0]]
        )
    else:
        half = np.atleast_2d(var) / 2.0
        start_theta = np.concatenate(
            [mean, half[_tril(d)], np.full(d, skew_sign * math.sqrt(half[0, 0])), [0.0]]
        )

    return TargetModel(
        dim=pack.dim,
        log_target_batch=batch,
        to_constrained=pack.to_constrained,
        to_unconstrained=pack.to_unconstrained,
        param_names=names,
        default_start=pack.to_unconstrained(start_theta),
    )


def make_gaussian_target(data, hyper) -> TargetModel:
    """Posterior target for IID Gaussian data under the conjugate
    normal-inverse-Wishart prior.  The evidence of this model has a
    closed form, which makes it the calibration oracle for the sampler."""
    if not isinstance(hyper, priors.HyperParamsP1):
        raise TypeError("gaussian target needs HyperParamsP1")
    z = np.asarray(data, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    st = _Stats(z)
    d = st.d
    pack = _Packing(d, extra=0)

    def batch(vmat):
        xi, _, prec, logdet, _, log_jac = pack.split(vmat)
        lp = _niw_logpdf(xi, prec, logdet, hyper.xi0, hyper.kappa, hyper.nu, hyper.V)
        return _gauss_loglik(st, xi, prec, logdet) + lp + log_jac

    var = np.cov(z.T, ddof=0) if d > 1 else np.array([[max(z.var(), 1e-8)]])
    start_theta = np.concatenate([st.mean, np.atleast_2d(var)[_tril(d)]])
    return TargetModel(
        dim=pack.dim,
        log_target_batch=batch,
        to_constrained=pack.to_constrained,
        to_unconstrained=pack.to_unconstrained,
        param_names=param_names(d),
        default_start=pack.to_unconstrained(start_theta),
    )
