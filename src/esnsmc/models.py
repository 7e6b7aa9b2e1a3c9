"""Posterior target builders for the IID sampling models.

Each builder packs the model's parameters into a flat constrained vector,
defines the matching unconstrained coordinates (locations, shapes and
shift/truncation scalars pass through; scale matrices go through a
log-Cholesky map), and wires the likelihood and prior into a
``TargetModel`` as one vectorised evaluator over whole particle
matrices, in any dimension; asked for it, the evaluator also returns the
gradient in the unconstrained coordinates from the same intermediates.
Scale gradients are carried as a symmetric G with d f = tr(G dSigma) and
mapped to the log-Cholesky parameters once, by ``_Packing.gradient``.
The Gaussian part of each likelihood works from the data's centred
sufficient statistics, so the only particle-by-observation work is the
skewing term of the ESN models, all of it in ``_group_sums``.  Sums over
parameter indices are elementwise products added in index order or
two-operand einsums, never BLAS products or three-operand einsums, so a
particle gets the same bytes wherever it sits in a batch.

The ESN skew sum, sum_i log Phi(alpha' z_i + shift), is one fixed sum of
observation groups: with n of at least 2 * ``_GROUP_POINTS`` the
observations are sorted ascending in alpha_1 z_i1 at the default start,
so the points where log Phi bends most come first, and cut into
contiguous groups of at least ``_GROUP_POINTS``.  One evaluator
(``_esn_target``) serves the value, gradient and screened paths alike: it
makes one pass per group, which returns the group's sum and that sum's
gradient in (shift, alpha), and adds the groups in group order.  Each pass
splits its rows into blocks of at most 2^18 observation-points, as many as
a multiple of the worker count, and maps them over one thread pool, a
worker per core in the process's CPU affinity, with no setting for it:
the bytes depend neither on the partition nor on the worker count.  Given
the MH move's test, the evaluator drops a proposal as soon as an upper
bound on its value, from the groups done so far and the tangent planes of
the rest, fails it.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr

from . import priors
from .errors import DataError
from .model_select import log_mv_gamma
from .normals import mills_ratio_inv, quad_form
from .smc import TargetModel

__all__ = [
    "chol_params_from_matrix",
    "chol_log_jacobian",
    "param_names",
    "make_iid_esn_target",
    "make_gaussian_target",
]

_LOG_2PI = math.log(2.0 * math.pi)
# observation-points per row block of a group's pass (_in_row_blocks).
# Measured, not derived: chosen when a batch took one pass over all n points,
# where on a 2-vCPU x86 machine a (2000 x 1000) pass took 40-45 ms in pooled
# blocks of 2^18 points, 43-49 ms in blocks of 2^16, 2^17 or 2^19 and 70-79 ms
# on one thread.  On the same machine a (2000 x 250) group pass took 11.3-12.3
# ms in blocks of 2^18, 11.0-14.5 ms in blocks of 2^16 or 2^17, 11.3-12.6 ms
# in blocks of 2^19 and 18.6-23.8 ms on one thread (medians of 40 interleaved
# calls, two runs each)
_BLOCK_POINTS = 2**18
# a pass of fewer observation-points is one block on the calling thread
_POOL_POINTS = 2**16
# observation-points per chunk of a group's pass (_group_sums): 256 KiB per
# array, a cache-sized slice of a block
_CHUNK_POINTS = 2**15
# fewest observations per group of the ESN skew sum (_Stats.group).  Measured,
# not derived: on a 2-vCPU x86 machine the SMC phase of a d = 1 fit (n = 1000,
# N = 2000) took 0.38/0.31/0.34/0.49 s in groups of 125/250/500/1000 points, a
# d = 2 fit (n = 500, N = 250) 64/66/72 ms in groups of 125/250/500, and one on
# n = 100 (N = 2000) 141/123/118 ms in groups of 25/50/100 (medians of 16
# interleaved runs)
_GROUP_POINTS = 250


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

    def gradient(self, g_loc, g_scale, lmat, *g_rest):
        """(N, dim) gradient in the unconstrained layout, log-Jacobian of the
        scale map included, from the gradients in the location, in the scale
        matrix (symmetric G, d f = tr(G dSigma), so d f / dL = 2 G L) and in
        the trailing columns."""
        d = self.d
        g_u = (2.0 * np.einsum("njk,nkl->njl", g_scale, lmat))[(slice(None), *_tril(d))]
        idx = np.arange(d)
        diag = _diag_positions(d)
        g_u[:, diag] = g_u[:, diag] * lmat[:, idx, idx] + (d + 1 - idx)
        return np.concatenate([g_loc, g_u, *g_rest], axis=1)


def _matvec(mat, v):
    return np.einsum("njk,nk->nj", mat, v)


def _outer(u, v):
    return u[:, :, None] * v[:, None, :]


def _sandwich(prec, mat):
    """P M P per particle for one symmetric M."""
    return np.einsum("njk,nkl->njl", np.einsum("njk,kl->njl", prec, mat), prec)


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


# Each term below returns (value, gradient parts), the parts None unless
# ``grad``: the gradient in its vector arguments and the symmetric
# gradient in the scale matrix whose precision and log-determinant it takes.


def _gauss_logpdf(x, mean, prec, logdet, kappa=1.0, grad=False):
    """log N(x; mean, Sigma / kappa) per particle, given Sigma^{-1} and log|Sigma|."""
    d = x.shape[1]
    u = x - mean
    value = -0.5 * (d * (_LOG_2PI - math.log(kappa)) + logdet + kappa * quad_form(u, prec))
    if not grad:
        return value, None
    pu = _matvec(prec, u)
    return value, (-kappa * pu, 0.5 * (kappa * _outer(pu, pu) - prec))


def _niw_logpdf(xi, prec, logdet, xi0, kappa, nu, v, grad=False):
    """Normal-inverse-Wishart log-density per particle (``priors.niw_logpdf``)."""
    d = xi.shape[1]
    iw = (
        0.5 * nu * np.linalg.slogdet(v)[1]
        - 0.5 * nu * d * math.log(2.0)
        - log_mv_gamma(d, nu / 2.0)
        - 0.5 * (nu + d + 1.0) * logdet
        - 0.5 * np.einsum("njk,jk->n", prec, v)
    )
    gauss, parts = _gauss_logpdf(xi, xi0, prec, logdet, kappa, grad)
    if not grad:
        return iw + gauss, None
    g_xi, g_scale = parts
    return iw + gauss, (g_xi, g_scale + 0.5 * (_sandwich(prec, v) - (nu + d + 1.0) * prec))


class _Stats:
    """IID data with its mean and centred scatter matrix, in data order, and
    the skew term's observations ``z`` cut into groups at ``edges`` (one
    group in data order until ``group`` is called)."""

    def __init__(self, z):
        self.z = z
        self.n, self.d = z.shape
        self.mean = z.mean(axis=0)
        centred = z - self.mean
        self.scatter = centred.T @ centred
        self.zmax = np.abs(z).max(axis=0)
        self.edges = [0, self.n]

    def group(self, key):
        """n // ``_GROUP_POINTS`` contiguous groups of near-equal size, the
        observations sorted ascending in ``key`` when there are two or more."""
        groups = max(1, self.n // _GROUP_POINTS)
        if groups > 1:
            self.z = self.z[np.argsort(key, kind="stable")]
        self.edges = [self.n * g // groups for g in range(groups + 1)]


def _gauss_loglik(st, xi, prec, logdet, grad=False):
    """sum_i log N(z_i; xi, Sigma) per particle, from the centred statistics:
    sum_i (z_i - xi)' P (z_i - xi) = tr(P S) + n (zbar - xi)' P (zbar - xi)."""
    e = st.mean - xi
    quad = np.einsum("njk,jk->n", prec, st.scatter) + st.n * quad_form(e, prec)
    value = -0.5 * (st.n * (st.d * _LOG_2PI + logdet) + quad)
    if not grad:
        return value, None
    pe = _matvec(prec, e)
    return value, (st.n * pe, 0.5 * (_sandwich(prec, st.scatter) + st.n * (_outer(pe, pe) - prec)))


def _group_sums(z, ab):
    """For each row [alpha, shift] of ``ab``, one group's skew sum S =
    sum_i log Phi(arg_i), arg_i = alpha' z_i + shift, and M_0 = sum_i m_i,
    M_1..M_d = sum_i m_i z_ij, with m_i = phi(arg_i) / Phi(arg_i) =
    exp(log phi - log Phi): S's gradient in (shift, alpha).  Runs in chunks
    of rows, so no array is larger than a chunk.

    m_i is not taken from ``normals.mills_ratio_inv`` (erfcx): on a 2-vCPU
    x86 machine and a (128, 250) array, log Phi and m cost 51-58 ns per
    point this way and 91-98 ns with erfcx.  The exponent's rounding error
    grows with |log Phi|, so m_i's relative error is about 2e-13 at
    arg = -100, 6e-9 at -1e4 and 1e-4 at -1e6, and m_i becomes inf near
    -5e9; ``smc.laplace_init`` treats a non-finite gradient as a failed
    point."""
    rows = max(1, _CHUNK_POINTS // z.shape[0])
    sums = np.empty((ab.shape[0], 2 + z.shape[1]))
    for i in range(0, ab.shape[0], rows):
        # the one particle-by-observation array, summed column by column
        alpha = ab[i : i + rows, :-1]
        arg = alpha[:, :1] * z[:, 0]
        for j in range(1, z.shape[1]):
            arg += alpha[:, j : j + 1] * z[:, j]
        arg += ab[i : i + rows, -1, None]
        log_phi = log_ndtr(arg)
        out = sums[i : i + rows]
        out[:, 0] = log_phi.sum(axis=1)
        np.multiply(arg, arg, out=arg)
        arg *= -0.5
        arg -= log_phi
        arg -= 0.5 * _LOG_2PI
        m = np.exp(arg, out=arg)
        out[:, 1] = m.sum(axis=1)
        for j in range(z.shape[1]):
            out[:, 2 + j] = np.einsum("ni,i->n", m, z[:, j])
    return sums


def _esn_target(st, args, lp, log_jac, passes, grad=False, states=None, fails=None):
    """The IID ESN log target at particles (``args``, ``lp`` and ``log_jac``
    as ``terms`` forms them), its skew sum taken one group at a time
    (``passes``: ``_group_sums`` over row blocks, one per group), and either
    each row's state [S_g, M_0g, M_g for every group g, alpha, shift] or,
    with ``grad``, the likelihood's gradient parts: those in (xi, Sigma,
    alpha, lam), with c0^2 held fixed, and the one in c0^2.  The skew sum's
    gradient in (shift, alpha) is sum_g (M_0g, M_g), added in group order.

    Given the ``states`` of the particles the rows were proposed from and a
    test ``fails(rows, bound)``, a row is dropped, its value -inf, as soon
    as the test fails on an upper bound of its value: every term but the
    skew sum, as computed, plus the groups summed so far, plus the tangent
    planes S_g + (shift - shift') M_0g + (alpha - alpha')' M_g of the rest
    at the old particle.  Each group's sum is concave in (alpha, shift), so
    its plane lies above it.  The first bound, before any group, needs no
    per-point work; each group summed tightens it.  The points where log
    Phi bends most, and its plane is loosest, come first.  The margin
    covers rounding: it is 2^-40 (4096 ulps at 1) times a sum of magnitudes
    that bounds every rounding error of the value and of the bound,
    relative to the terms' sizes, to each point's argument (at most
    ``reach`` = |shift| + |shift'| + sum_j max_i |z_ij| (|alpha_j| +
    |alpha'_j|) in size) and to m_i, whose exponent is off by a few ulps of
    |log Phi| <= |S|.  A NaN state gives a NaN bound, which never fails."""
    xi, prec, logdet, alpha, lam, c0sq = args
    n_rows, d, groups = lam.shape[0], st.d, len(passes)
    gauss, parts = _gauss_loglik(st, xi, prec, logdet, grad)
    c0 = np.sqrt(c0sq)
    tail = st.n * log_ndtr(lam / c0)
    shift = lam - np.einsum("nj,nj->n", alpha, xi)
    ab = np.column_stack([alpha, shift])
    sums = np.full((n_rows, groups, 2 + d), np.nan)
    acc = np.zeros((n_rows, 2 + d))  # S, M_0 and M over the groups summed so far
    rows = np.arange(n_rows)
    screen = states is not None and fails is not None
    if screen:
        old = states[:, : -d - 1].reshape(n_rows, groups, 2 + d)
        alpha0, shift0 = states[:, -d - 1 : -1], states[:, -1]
        planes = (old[..., 0] + (shift - shift0)[:, None] * old[..., 1]
                  + np.einsum("ngj,nj->ng", old[..., 2:], alpha - alpha0))
        reach = (np.abs(shift) + np.abs(shift0)
                 + np.einsum("nj,j->n", np.abs(alpha) + np.abs(alpha0), st.zmax))
        rest = gauss - tail + lp + log_jac
        fixed = np.abs(gauss) + np.abs(tail) + np.abs(lp) + np.abs(log_jac)
        curve = st.n + (1.0 + np.abs(old[..., 0]).sum(axis=1)) * (1.0 + old[..., 1].sum(axis=1))
    for g, group_sums in enumerate(passes):
        if screen:
            ahead = planes[rows, g:]
            skew = acc[rows, 0]
            margin = fixed[rows] + (1.0 + reach[rows]) * (
                curve[rows] + np.abs(skew) + np.abs(ahead).sum(axis=1))
            bound = rest[rows] + skew + ahead.sum(axis=1) + 2.0**-40 * (1.0 + margin)
            rows = rows[~fails(rows, bound)]
        part = group_sums(ab[rows])
        sums[rows, g] = part
        acc[rows] = part if g == 0 else acc[rows] + part
    value = np.full(n_rows, -np.inf)
    value[rows] = gauss[rows] + acc[rows, 0] - tail[rows] + lp[rows] + log_jac[rows]
    if not grad:
        return value, np.concatenate([sums.reshape(n_rows, groups * (2 + d)), ab], axis=1)
    g_xi, g_scale = parts
    total, g_alpha = acc[:, 1], acc[:, 2:]
    m0 = st.n * mills_ratio_inv(lam / c0)
    return value, (
        g_xi - alpha * total[:, None],
        g_scale,
        g_alpha - xi * total[:, None],
        total - m0 / c0,
        0.5 * m0 * lam / (c0 * c0sq),
    )


@lru_cache(maxsize=None)
def _workers():
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _pool():
    from concurrent.futures import ThreadPoolExecutor  # slow to import; only pooled batches need it

    return ThreadPoolExecutor(_workers(), thread_name_prefix="esnsmc")


def _in_row_blocks(z):
    """``_group_sums(z, ab)`` over row blocks of ``ab``, mapped over a thread
    pool when the process has more than one core.  A pass of at least 2^16
    observation-points is cut into the fewest blocks of at most 2^18 points
    whose count is a multiple of the worker count, with the rows spread
    evenly (block sizes differ by at most one), so every core gets the same
    share; a smaller pass, or one that makes a single block, runs whole on
    the calling thread.  ``log_ndtr`` and ``exp`` release the GIL, so blocks
    run on all cores.  A row gets the same bytes in any block, so the result
    depends neither on the partition nor on the worker count."""
    n = z.shape[0]

    def evaluate(ab):
        rows = ab.shape[0]
        workers = _workers()
        count = min(rows, workers * -(-rows * n // (workers * _BLOCK_POINTS)))
        if rows * n < _POOL_POINTS or count < 2:
            return _group_sums(z, ab)
        edges = [rows * i // count for i in range(count + 1)]
        err = np.geterr()  # error state is per thread, and pool threads start at the default

        def run(lo, hi):
            with np.errstate(**err):
                return _group_sums(z, ab[lo:hi])

        parts = (_pool().map if workers > 1 else map)(run, edges[:-1], edges[1:])
        return np.concatenate(list(parts))

    return evaluate


def make_iid_esn_target(data, hyper, parametrization: str = "p1") -> TargetModel:
    """Posterior target for IID extended skew-normal data under either
    parametrisation, with its §-default prior block attached by the caller.
    Its value, gradient and screened paths are one evaluator (``_esn_target``),
    which screens the MH move's proposals group by group."""
    z = np.asarray(data, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    st = _Stats(z)
    d = st.d
    # the default start's scale is the sample covariance, which a Cholesky
    # factor can take only when it is positive definite
    if np.ptp(z, axis=0).min() == 0.0 or np.linalg.matrix_rank(z - st.mean) < d:
        raise DataError("the data's sample covariance is singular: a column is constant "
                        "or the columns are collinear")
    pack = _Packing(d, extra=d + 1)

    # Each ``terms`` returns the likelihood's arguments in hidden-truncation
    # form, the log prior, the log-Jacobian, and the chain rule that maps the
    # likelihood's gradient parts to the unconstrained gradient.
    if parametrization == "p1":
        if not isinstance(hyper, priors.HyperParamsP1):
            raise TypeError("p1 target needs HyperParamsP1")

        def terms(vmat, grad):
            xi, lmat, prec, logdet, rest, log_jac = pack.split(vmat)
            alpha, lam = rest[:, :d], rest[:, d]
            sa = np.einsum("nji,nj->ni", lmat, alpha)  # L' alpha
            c0sq = 1.0 + np.einsum("ni,ni->n", sa, sa)
            da = alpha - hyper.mu_alpha
            lp, prior = _niw_logpdf(xi, prec, logdet, hyper.xi0, hyper.kappa, hyper.nu, hyper.V,
                                    grad)
            lp -= 0.5 * (d * (_LOG_2PI + math.log(hyper.sigma2_alpha))
                         + np.einsum("nj,nj->n", da, da) / hyper.sigma2_alpha)
            lp -= 0.5 * (_LOG_2PI + np.log(c0sq) + lam * lam / c0sq)

            def chain(lik):
                g_xi, g_scale, g_alpha, g_lam, g_c0sq = lik
                # c0^2 = 1 + alpha' Sigma alpha, and its prior term
                g_c0sq = g_c0sq - 0.5 * (1.0 - lam * lam / c0sq) / c0sq
                g_alpha = (g_alpha - da / hyper.sigma2_alpha
                           + 2.0 * g_c0sq[:, None] * _matvec(lmat, sa))
                g_scale = g_scale + prior[1] + g_c0sq[:, None, None] * _outer(alpha, alpha)
                return pack.gradient(g_xi + prior[0], g_scale, lmat,
                                     g_alpha, (g_lam - lam / c0sq)[:, None])

            return (xi, prec, logdet, alpha, lam, c0sq), lp, log_jac, chain

        names = param_names(d, "sigma", "alpha", "lambda")
    elif parametrization == "p2":
        if not isinstance(hyper, priors.HyperParamsP2):
            raise TypeError("p2 target needs HyperParamsP2")

        def terms(vmat, grad):
            # convolution to hidden-truncation form (esn.p2_to_p1) by
            # Sherman-Morrison: with q = d' Omega^{-1} d, Sigma = Omega + d d'
            # has log|Sigma| = log|Omega| + log(1 + q), shape
            # Omega^{-1} d / sqrt(1 + q), shift c sqrt(1 + q) and c0^2 = 1 + q
            xi, lmat, prec, logdet, rest, log_jac = pack.split(vmat)
            dvec, c = rest[:, :d], rest[:, d]
            pd = np.einsum("njk,nk->nj", prec, dvec)
            q1 = 1.0 + np.einsum("nj,nj->n", dvec, pd)
            sig_prec = prec - np.einsum("nj,nk->njk", pd, pd) / q1[:, None, None]
            root = np.sqrt(q1)
            alpha = pd / root[:, None]
            lp, prior = _niw_logpdf(xi, prec, logdet, hyper.xi0t, hyper.kappat, hyper.nut,
                                    hyper.Vt, grad)
            lp_d, prior_d = _gauss_logpdf(dvec, hyper.mu_d, prec, logdet, hyper.kappa_d, grad)
            lp += lp_d
            lp -= 0.5 * (_LOG_2PI + c * c)

            def chain(lik):
                # the P1 gradient through the map: d alpha = d(pd) / root -
                # alpha d root / root, d(pd) = P dd - P dOmega pd,
                # d q = 2 pd'dd - pd'dOmega pd
                g_xi, g_scale, g_alpha, g_lam, g_q = lik
                g_pd = _matvec(prec, g_alpha) / root[:, None]
                g_q = g_q + ((g_lam * c - np.einsum("nj,nj->n", g_alpha, alpha) / root)
                             / (2.0 * root))
                g_d = 2.0 * _matvec(g_scale, dvec) + g_pd + 2.0 * g_q[:, None] * pd + prior_d[0]
                g_omega = (g_scale + prior[1] + prior_d[1] - g_q[:, None, None] * _outer(pd, pd)
                           - 0.5 * (_outer(g_pd, pd) + _outer(pd, g_pd)))
                return pack.gradient(g_xi + prior[0], g_omega, lmat,
                                     g_d, (g_lam * root - c)[:, None])

            return (xi, sig_prec, logdet + np.log(q1), alpha, c * root, q1), lp, log_jac, chain

        names = param_names(d, "omega", "d", "c")
    else:
        raise ValueError(f"unknown parametrization {parametrization!r}")

    def evaluate(vmat, states=None, fails=None, grad=False):
        args, lp, log_jac, chain = terms(vmat, grad)
        value, out = _esn_target(st, args, lp, log_jac, passes, grad, states, fails)
        return value, (chain(out) if grad else out)

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
    start = pack.to_unconstrained(start_theta)
    # the first column's skew term at the start: on the d = 2 benchmark fit
    # it left 5-9 % fewer points to evaluate than the start's whole alpha' z_i
    st.group(z[:, 0] * terms(start[None], False)[0][3][0, 0])
    passes = [_in_row_blocks(st.z[lo:hi]) for lo, hi in zip(st.edges, st.edges[1:])]
    return TargetModel(
        dim=pack.dim,
        log_target_batch=lambda vmat: evaluate(vmat)[0],
        log_target_grad_batch=lambda vmat: evaluate(vmat, grad=True),
        to_constrained=pack.to_constrained,
        param_names=names,
        default_start=start,
        log_target_screened_batch=evaluate,
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

    def evaluate(vmat, grad=False):
        xi, lmat, prec, logdet, _, log_jac = pack.split(vmat)
        lp, prior = _niw_logpdf(xi, prec, logdet, hyper.xi0, hyper.kappa, hyper.nu, hyper.V, grad)
        ll, lik = _gauss_loglik(st, xi, prec, logdet, grad)
        value = ll + lp + log_jac
        if not grad:
            return value
        return value, pack.gradient(lik[0] + prior[0], lik[1] + prior[1], lmat)

    var = np.cov(z.T, ddof=0) if d > 1 else np.array([[max(z.var(), 1e-8)]])
    start_theta = np.concatenate([st.mean, np.atleast_2d(var)[_tril(d)]])
    return TargetModel(
        dim=pack.dim,
        log_target_batch=evaluate,
        log_target_grad_batch=lambda vmat: evaluate(vmat, grad=True),
        to_constrained=pack.to_constrained,
        param_names=param_names(d),
        default_start=pack.to_unconstrained(start_theta),
    )
