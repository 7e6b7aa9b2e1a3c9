"""Adaptive tempered sequential Monte Carlo sampler.

The sampler moves a particle population from a normalised initial
distribution eta1 to an unnormalised target pi along the geometric
bridge pi_rho proportional to eta1^(1-rho) * pi^rho.  Temperatures are
self-tuned: each stage takes the largest step that keeps the effective
sample size of the incremental weights above a threshold (located by
bisection), then resamples systematically and rejuvenates every
particle with a few Gaussian random-walk Metropolis-Hastings steps
whose proposal covariance is the weighted particle covariance scaled by
an adaptive factor.  The product of the incremental-weight averages
estimates the target's normalising constant, which is the model
evidence when pi is likelihood times a proper prior.

Everything runs in unconstrained coordinates; the target model supplies
the reparametrisation and its log-Jacobian, which enters both the
bridge density and the evidence bookkeeping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .errors import DegenerateSystemError, InitializationError, NumericalError

__all__ = [
    "GaussianInit",
    "TargetModel",
    "ParticleSystem",
    "SmcConfig",
    "StageRecord",
    "SmcResult",
    "ess",
    "reweight",
    "next_temperature",
    "systematic_resample",
    "rwmh_propagate",
    "evidence_increment",
    "run",
    "laplace_init",
    "pilot_mh_init",
]


def _identity(v):
    return np.array(v, dtype=float)


@dataclass
class GaussianInit:
    """Normalised Gaussian initial distribution in unconstrained coordinates."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        self._chol = np.linalg.cholesky(self.cov)
        d = self.mean.shape[0]
        self._log_norm = -0.5 * d * math.log(2.0 * math.pi) - np.sum(
            np.log(np.diag(self._chol))
        )

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def logpdf(self, v) -> float:
        return float(self.logpdf_batch(np.atleast_2d(v))[0])

    def logpdf_batch(self, vmat) -> np.ndarray:
        u = np.atleast_2d(vmat) - self.mean
        w = np.linalg.solve(self._chol, u.T)
        return self._log_norm - 0.5 * np.sum(w * w, axis=0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


@dataclass
class TargetModel:
    """Posterior target seen by the sampler.

    ``log_target_batch`` maps an (N, dim) matrix of unconstrained particles
    to the N values of the unnormalised log posterior plus the
    log-determinant of d(constrained)/d(unconstrained); it is the only
    route by which the target is evaluated.  ``to_constrained`` maps
    one unconstrained vector, or an (N, dim) matrix of them, to the flat
    constrained layout; ``to_unconstrained`` maps one vector back.
    """

    dim: int
    log_target_batch: Callable[[np.ndarray], np.ndarray]
    to_constrained: Callable[[np.ndarray], np.ndarray] = _identity
    to_unconstrained: Callable[[np.ndarray], np.ndarray] = _identity
    eta1: Optional[GaussianInit] = None
    param_names: Optional[list[str]] = None
    default_start: Optional[np.ndarray] = None

    def log_target(self, v) -> float:
        return float(self.log_target_many(np.asarray(v, dtype=float)[None])[0])

    def log_target_many(self, vmat) -> np.ndarray:
        vmat = np.atleast_2d(vmat)
        with np.errstate(all="ignore"):
            out = np.array(self.log_target_batch(vmat), dtype=float)
        out[~np.isfinite(out)] = -np.inf
        return out

    def _eta1(self) -> GaussianInit:
        if self.eta1 is None:
            raise InitializationError("target has no initial distribution attached")
        return self.eta1


@dataclass
class StageRecord:
    rho: float
    ess: float
    acceptance_rate: float
    scale: float
    log_evidence_increment: float
    wall_time_ms: float


@dataclass
class ParticleSystem:
    """Weighted particle population in unconstrained coordinates.

    Each particle carries its log target ``log_pi`` and its log eta1
    density ``log_eta``, computed once when the particle is proposed; the
    step functions read them and never evaluate the target.
    """

    particles: np.ndarray
    log_weights: np.ndarray
    log_pi: np.ndarray
    log_eta: np.ndarray
    rho: float = 0.0
    log_evidence_acc: float = 0.0
    history: list[StageRecord] = field(default_factory=list)
    proposal_cov: Optional[np.ndarray] = None
    scale: float = 1.0
    last_acceptance: float = 0.0

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def log_ratio(self) -> np.ndarray:
        """log pi - log eta1 per particle."""
        return self.log_pi - self.log_eta

    def normalized_weights(self) -> np.ndarray:
        lw = self.log_weights
        m = np.max(lw)
        if not np.isfinite(m):
            raise DegenerateSystemError("all particle weights are zero")
        w = np.exp(lw - m)
        return w / w.sum()


@dataclass
class SmcConfig:
    n_particles: int = 10_000
    ess_threshold_fraction: float = 0.5
    mh_steps: int = 3
    bisect_epsilon: float = 1e-4
    scale_init: Optional[float] = None  # 2.38^2 / dim when unset
    acceptance_band: tuple[float, float] = (0.2, 0.6)
    seed: int = 0
    max_stages: int = 20_000

    def __post_init__(self):
        if not 0.0 < self.ess_threshold_fraction < 1.0:
            raise ValueError("ess_threshold_fraction must be in (0, 1)")
        if self.n_particles < 2 or self.mh_steps < 1:
            raise ValueError("need at least 2 particles and 1 MH step")
        if self.bisect_epsilon <= 0.0:
            raise ValueError("bisect_epsilon must be positive")
        lo, hi = self.acceptance_band
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("acceptance_band must satisfy 0 <= lo < hi <= 1")
        if self.scale_init is not None and not 0.0 < self.scale_init < math.inf:
            raise ValueError("scale_init must be positive and finite")


@dataclass
class SmcResult:
    system: ParticleSystem
    log_evidence: float
    diagnostics: list[StageRecord]

    @property
    def n_stages(self) -> int:
        return len(self.diagnostics)

    def constrained_particles(self, target: TargetModel) -> np.ndarray:
        return target.to_constrained(self.system.particles)


def ess(log_weights) -> float:
    """Effective sample size 1 / sum(W^2), computed in log space."""
    lw = np.asarray(log_weights, dtype=float)
    m = np.max(lw)
    if not np.isfinite(m):
        raise DegenerateSystemError("all particle weights are zero")
    w = np.exp(lw - m)
    w /= w.sum()
    return float(1.0 / np.sum(w * w))


def reweight(system: ParticleSystem, rho_new: float) -> np.ndarray:
    """Normalised log-weights for moving the system from its temperature to
    rho_new: increment (rho_new - rho) * (log pi - log eta1) per particle."""
    if not system.rho <= rho_new <= 1.0:
        raise ValueError("rho_new must lie in [system.rho, 1]")
    lw = system.log_weights + (rho_new - system.rho) * system.log_ratio
    return lw - logsumexp(lw)


def next_temperature(system: ParticleSystem, config: SmcConfig) -> float:
    """Largest admissible next temperature.

    Returns 1 outright when the full step keeps the effective sample size
    at or above the threshold; otherwise bisects ESS(rho) = beta on
    [rho, 1] down to a bracket narrower than bisect_epsilon and returns
    its midpoint (never less than rho + bisect_epsilon, so the ladder
    always advances).
    """
    if system.rho >= 1.0:
        raise ValueError("temperature ladder already complete")
    beta = config.ess_threshold_fraction * system.n
    lr = system.log_ratio

    def ess_at(rho):
        return ess(system.log_weights + (rho - system.rho) * lr)

    if ess_at(1.0) >= beta:
        return 1.0
    lo, hi = system.rho, 1.0
    while hi - lo >= config.bisect_epsilon:
        mid = 0.5 * (lo + hi)
        if ess_at(mid) >= beta:
            lo = mid
        else:
            hi = mid
    rho_star = 0.5 * (lo + hi)
    return min(1.0, max(rho_star, system.rho + config.bisect_epsilon))


def systematic_resample(log_weights, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform, stratified inverse-CDF lookups.

    Copy counts are floor(N W) or ceil(N W) for every particle.
    """
    lw = np.asarray(log_weights, dtype=float)
    n = lw.shape[0]
    w = np.exp(lw - logsumexp(lw))
    positions = (np.arange(n) + rng.uniform()) / n
    cum = np.cumsum(w)
    cum[-1] = 1.0  # guard against round-off
    return np.searchsorted(cum, positions, side="left")


def evidence_increment(system: ParticleSystem, rho_prev: float, rho_new: float) -> float:
    """log of sum_m W_m(rho_prev) * [pi/eta1]^(rho_new - rho_prev) at the
    current particles, evaluated stably in log space."""
    lw = system.log_weights - logsumexp(system.log_weights)
    return float(logsumexp(lw + (rho_new - rho_prev) * system.log_ratio))


def _proposal_chol(cov: np.ndarray, scale: float) -> np.ndarray:
    try:
        return np.linalg.cholesky(scale * cov)
    except np.linalg.LinAlgError:
        diag = np.clip(np.diag(cov), 0.0, None) + 1e-8
        return np.linalg.cholesky(scale * np.diag(diag))


def rwmh_propagate(
    system: ParticleSystem,
    target: TargetModel,
    rho: float,
    config: SmcConfig,
    rng: np.random.Generator,
) -> ParticleSystem:
    """Advance every particle with mh_steps Gaussian random-walk MH steps
    targeting the bridge density at temperature rho.

    The proposal covariance is ``system.proposal_cov`` (the engine stores
    the weighted pre-resampling particle covariance there) scaled by
    ``system.scale``; a singular covariance falls back to its diagonal
    plus a 1e-8 ridge.  Acceptance uses the bridge density in
    unconstrained coordinates, Jacobian included; the current particles'
    values come from ``system.log_pi`` and ``system.log_eta``, and the
    accepted proposals' values are written back there.
    """
    eta = target._eta1()
    x = system.particles
    cov = system.proposal_cov
    if cov is None:
        w = system.normalized_weights()
        cov = _weighted_cov(x, w)
    chol = _proposal_chol(cov, system.scale)

    cur_eta = system.log_eta
    cur_pi = system.log_pi
    cur = (1.0 - rho) * cur_eta + rho * cur_pi
    n, dim = x.shape
    accepted = 0
    for _ in range(config.mh_steps):
        prop = x + rng.standard_normal((n, dim)) @ chol.T
        prop_eta = eta.logpdf_batch(prop)
        prop_pi = target.log_target_many(prop)
        cand = (1.0 - rho) * prop_eta + rho * prop_pi
        logu = np.log(rng.uniform(size=n))
        acc = logu < cand - cur
        x = np.where(acc[:, None], prop, x)
        cur = np.where(acc, cand, cur)
        cur_eta = np.where(acc, prop_eta, cur_eta)
        cur_pi = np.where(acc, prop_pi, cur_pi)
        accepted += int(acc.sum())
    system.particles = x
    system.log_pi = cur_pi
    system.log_eta = cur_eta
    system.last_acceptance = accepted / (config.mh_steps * n)
    return system


def _weighted_cov(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    mean = w @ x
    centred = x - mean
    return (centred * w[:, None]).T @ centred


def run(target: TargetModel, config: SmcConfig) -> SmcResult:
    """Execute the full tempering loop and return particles, log-evidence
    and per-stage diagnostics.

    All randomness derives from config.seed through per-stage child
    streams, so a run is reproducible bit for bit.
    """
    eta = target._eta1()
    ss = np.random.SeedSequence(config.seed)
    n = config.n_particles
    particles = eta.sample(np.random.default_rng(ss.spawn(1)[0]), n)
    system = ParticleSystem(
        particles=particles,
        log_weights=np.full(n, -math.log(n)),
        log_pi=target.log_target_many(particles),
        log_eta=eta.logpdf_batch(particles),
        rho=0.0,
        scale=config.scale_init if config.scale_init is not None else 2.38**2 / target.dim,
    )

    while system.rho < 1.0:
        if len(system.history) >= config.max_stages:
            raise NumericalError(
                f"tempering failed to reach rho = 1 in {config.max_stages} stages; "
                f"stalled at rho = {system.rho:.6f}"
            )
        t0 = time.perf_counter()
        srng = np.random.default_rng(ss.spawn(1)[0])
        rho_new = next_temperature(system, config)
        increment = evidence_increment(system, system.rho, rho_new)
        system.log_evidence_acc += increment
        lw_new = reweight(system, rho_new)
        stage_ess = ess(lw_new)

        # proposal covariance from the weighted (pre-resampling) population
        cov = _weighted_cov(system.particles, np.exp(lw_new))
        idx = systematic_resample(lw_new, srng)
        system.particles = system.particles[idx]
        system.log_pi = system.log_pi[idx]
        system.log_eta = system.log_eta[idx]
        system.log_weights = np.full(n, -math.log(n))
        system.proposal_cov = cov
        system.rho = rho_new

        rwmh_propagate(system, target, rho_new, config, srng)
        acc = system.last_acceptance
        system.history.append(
            StageRecord(
                rho=rho_new,
                ess=stage_ess,
                acceptance_rate=acc,
                scale=system.scale,
                log_evidence_increment=increment,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        lo, hi = config.acceptance_band
        if acc > hi:
            system.scale *= 2.0
        elif acc < lo:
            system.scale *= 0.5

    return SmcResult(
        system=system,
        log_evidence=system.log_evidence_acc,
        diagnostics=system.history,
    )


def _fd_hessian(target: TargetModel, x, step=1e-4):
    """Central-difference Hessian of the log target at x.  The four-point
    stencil of every pair i <= j goes to the target as one batch of
    4 d(d+1)/2 rows; a non-finite value raises ``InitializationError``."""
    d = x.shape[0]
    h = step * np.maximum(1.0, np.abs(x))
    i, j = np.triu_indices(d)
    ei = np.eye(d)[i] * h[i, None]
    ej = np.eye(d)[j] * h[j, None]
    f = target.log_target_many(
        np.concatenate([x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej])
    ).reshape(4, -1)
    if not np.isfinite(f).all():
        raise InitializationError("log posterior not finite on the Hessian stencil at the mode")
    hess = np.empty((d, d))
    hess[i, j] = hess[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * h[i] * h[j])
    return hess


def _spd_floor(mat: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Symmetrise and floor the eigenvalues of a nearly-SPD matrix."""
    mat = 0.5 * (mat + mat.T)
    eigval, eigvec = np.linalg.eigh(mat)
    return (eigvec * np.maximum(eigval, floor)) @ eigvec.T


def _cov_from_precision(prec: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Invert a precision matrix with eigenvalues floored at ``floor``;
    one that is not positive definite raises ``InitializationError``."""
    prec = 0.5 * (prec + prec.T)
    eigval, eigvec = np.linalg.eigh(prec)
    if not eigval[0] > 0.0:
        raise InitializationError("posterior curvature at the mode is not positive definite")
    eigval = np.maximum(eigval, floor)
    return (eigvec / eigval) @ eigvec.T


def laplace_init(
    target: TargetModel, start, max_iter: int = 500, inflate: float = 1.0
) -> GaussianInit:
    """Gaussian initial distribution from a Laplace approximation:
    quasi-Newton ascent to the posterior mode (numerical gradients), then
    the inverse of the negated finite-difference Hessian, eigenvalue-floored
    against round-off.  Each gradient is one batch of ``dim`` rows and the
    Hessian one batch; the line search evaluates one row at a time.
    Raises ``InitializationError`` when the mode cannot be found or the
    curvature there is not finite and positive definite.

    ``inflate`` scales the covariance; values above 1 overdisperse the
    initial distribution, which costs a few extra tempering stages but
    protects the sampler when the posterior has heavy ridges the local
    curvature cannot see.
    """
    start = np.asarray(start, dtype=float)
    if not math.isfinite(target.log_target(start)):
        raise InitializationError("log posterior not finite at the starting point")

    def neg(v):
        val = target.log_target(v)
        return -val if math.isfinite(val) else 1e30

    def neg_many(_fun, points):
        # scipy's forward-difference points, as ``map(fun, points)`` would
        # see them, in one batch
        vals = target.log_target_many(np.array(list(points)))
        return np.where(np.isfinite(vals), -vals, 1e30)

    res = minimize(
        neg, start, method="BFGS",
        options={"maxiter": max_iter, "gtol": 1e-7, "workers": neg_many},
    )
    # BFGS on slightly noisy numerical gradients often stops with a
    # "precision loss" flag at a perfectly good mode: judge by the
    # gradient scaled to the objective instead of the success flag.
    tol = 1e-3 * (1.0 + abs(res.fun))
    if not (res.success or np.max(np.abs(res.jac)) < tol):
        polish = minimize(
            neg, res.x, method="Nelder-Mead",
            options={"maxiter": 400 * target.dim, "xatol": 1e-8, "fatol": 1e-10},
        )
        if polish.fun <= res.fun:
            res = polish
        if not (res.success or neg(res.x) < 1e29):
            raise InitializationError(f"posterior maximisation failed: {res.message}")
    mode = res.x
    cov = _cov_from_precision(-_fd_hessian(target, mode))
    try:
        return GaussianInit(mode, inflate * cov)
    except np.linalg.LinAlgError as exc:
        raise InitializationError(f"Laplace covariance is not usable: {exc}") from exc


def pilot_mh_init(
    target: TargetModel,
    iterations: int,
    rng: np.random.Generator,
    start=None,
    initial_step: float = 0.1,
    inflate: float = 1.0,
) -> GaussianInit:
    """Gaussian initial distribution from a pilot random-walk MH run.

    The first half of the chain is burn-in (with multiplicative step-size
    adaptation towards the acceptance band); the second half supplies the
    mean and covariance, the latter scaled by ``inflate``.  Raises when
    nothing is ever accepted.
    """
    if iterations < 1000:
        raise ValueError("pilot run needs at least 1000 iterations")
    if start is None:
        start = target.default_start
    if start is None:
        start = np.zeros(target.dim)
    x = np.asarray(start, dtype=float).copy()
    cur = target.log_target(x)
    if not math.isfinite(cur):
        raise InitializationError("log posterior not finite at the pilot start")

    step = initial_step
    burn = iterations // 2
    chain = np.empty((iterations, target.dim))
    accepted = 0
    window_acc = 0
    for it in range(iterations):
        prop = x + step * rng.standard_normal(target.dim)
        cand = target.log_target(prop)
        if math.log(rng.uniform()) < cand - cur:
            x, cur = prop, cand
            accepted += 1
            window_acc += 1
        chain[it] = x
        if it < burn and (it + 1) % 100 == 0:
            rate = window_acc / 100.0
            if rate < 0.2:
                step *= 0.7
            elif rate > 0.45:
                step *= 1.4
            window_acc = 0
    if accepted == 0:
        raise InitializationError("pilot chain never accepted a proposal")
    tail = chain[burn:]
    mean = tail.mean(axis=0)
    cov = _spd_floor(np.atleast_2d(np.cov(tail.T, ddof=1)))
    return GaussianInit(mean, inflate * cov)
