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

from .errors import DegenerateSystemError, EsnError, InitializationError, NumericalError

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
    "initial_distribution",
    "laplace_init",
    "pilot_mh_init",
]

_MAX_STAGES = 20_000  # a ladder this long means tempering has stalled


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


def _finite_or_neginf(batch, vmat, *args):
    """``batch(vmat, *args)`` with floating-point errors ignored, its values
    (the whole result, or its first item when it is a tuple) as a float
    array with every non-finite value mapped to -inf."""
    with np.errstate(all="ignore"):
        result = batch(vmat, *args)
    values, *rest = result if isinstance(result, tuple) else (result,)
    values = np.array(values, dtype=float)
    values[~np.isfinite(values)] = -np.inf
    return (values, *rest) if rest else values


@dataclass
class TargetModel:
    """Posterior target seen by the sampler.

    ``log_target_batch`` maps an (N, dim) matrix of unconstrained particles
    to the N values of the unnormalised log posterior plus the
    log-determinant of d(constrained)/d(unconstrained); it, or
    ``log_target_screened_batch`` where the target screens (below), is the
    only route by which the sampler evaluates the target.
    ``log_target_grad_batch``, where the target has one, returns the same
    N values (the same bytes) together with their (N, dim) gradient in the
    unconstrained coordinates; ``laplace_init`` needs it.
    ``to_constrained`` maps one unconstrained vector, or an (N, dim) matrix
    of them, to the flat constrained layout.

    A target may also screen the MH move's proposals.
    ``log_target_screened_batch(vmat, states, fails)`` returns the values of
    ``log_target_batch`` (the same bytes) and an (N, k) state per row.
    Given the states of the particles the rows were proposed from and a
    test ``fails(rows, bound)`` (indices into vmat, and an upper bound on
    each one's value), it may stop evaluating a row as soon as the test
    fails on a bound; that row's value is -inf.  Every bound it passes must
    be at least the row's ``log_target_many`` value.
    """

    dim: int
    log_target_batch: Callable[[np.ndarray], np.ndarray]
    log_target_grad_batch: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    to_constrained: Callable[[np.ndarray], np.ndarray] = _identity
    eta1: Optional[GaussianInit] = None
    param_names: Optional[list[str]] = None
    default_start: Optional[np.ndarray] = None
    log_target_screened_batch: Optional[Callable[..., tuple[np.ndarray, np.ndarray]]] = None

    def log_target(self, v) -> float:
        return float(self.log_target_many(np.asarray(v, dtype=float)[None])[0])

    def log_target_many(self, vmat) -> np.ndarray:
        return _finite_or_neginf(self.log_target_batch, np.atleast_2d(vmat))

    def log_target_grad_many(self, vmat) -> tuple[np.ndarray, np.ndarray]:
        """Values as ``log_target_many`` gives them, and their gradients; a
        row whose value is not finite has an undefined gradient."""
        if self.log_target_grad_batch is None:
            raise InitializationError("target has no gradient")
        out, grad = _finite_or_neginf(self.log_target_grad_batch, np.atleast_2d(vmat))
        return out, np.asarray(grad, dtype=float)

    def log_target_screened_many(
        self, vmat, states=None, fails=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values as ``log_target_many`` gives them, -inf where a screening
        target dropped the row, and each row's state for screening the
        proposals made from it later: (N, 0) for a target that does not
        screen, which evaluates every row in full."""
        vmat = np.atleast_2d(vmat)
        if self.log_target_screened_batch is None:
            return self.log_target_many(vmat), np.empty((vmat.shape[0], 0))
        out, states = _finite_or_neginf(self.log_target_screened_batch, vmat, states, fails)
        return out, np.asarray(states, dtype=float)

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

    Each particle carries its log target ``log_pi``, its log eta1 density
    ``log_eta`` and the target's screening state ``tangent`` (None or NaN:
    not known), computed once when the particle is proposed; the step
    functions read them and never evaluate the target.
    """

    particles: np.ndarray
    log_weights: np.ndarray
    log_pi: np.ndarray
    log_eta: np.ndarray
    tangent: Optional[np.ndarray] = None
    rho: float = 0.0
    log_evidence_acc: float = 0.0
    history: list[StageRecord] = field(default_factory=list)
    scale: float = 1.0
    last_acceptance: float = 0.0

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def log_ratio(self) -> np.ndarray:
        """log pi - log eta1 per particle."""
        return self.log_pi - self.log_eta


@dataclass
class SmcConfig:
    n_particles: int = 10_000
    ess_threshold_fraction: float = 0.5
    mh_steps: int = 3
    bisect_epsilon: float = 1e-4
    scale_init: Optional[float] = None  # 2.38^2 / dim when unset
    acceptance_band: tuple[float, float] = (0.2, 0.6)
    seed: int = 0
    eta1_inflation: float = 4.0  # scales the covariance of eta1
    pilot_iterations: int = 10_000  # length of the fallback pilot chain

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
        if not 0.0 < self.eta1_inflation < math.inf:
            raise ValueError("eta1_inflation must be positive and finite")
        if self.pilot_iterations < 1000:
            raise ValueError("pilot_iterations must be at least 1000")


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
    cov: np.ndarray,
    config: SmcConfig,
    rng: np.random.Generator,
) -> ParticleSystem:
    """Advance every particle with mh_steps Gaussian random-walk MH steps
    targeting the bridge density at temperature rho.

    The proposal covariance is ``cov`` (the engine passes the weighted
    pre-resampling particle covariance) scaled by ``system.scale``; a
    singular covariance falls back to its diagonal plus a 1e-8 ridge.
    Acceptance uses the bridge density in unconstrained coordinates,
    Jacobian included; the current particles' values come from
    ``system.log_pi`` and ``system.log_eta``, and the accepted proposals'
    values are written back there.

    Each step draws its proposals and its uniforms first, then lets the
    target screen them (``TargetModel.log_target_screened_many``): a
    proposal whose bridge density, with an upper bound on its log target in
    place of the value, already fails the test is rejected, and the target
    evaluates it no further.  Because the bound is never below the value
    and the bridge density's rounding is monotone in it, such a proposal
    would have been rejected anyway, so every decision is the one a full
    evaluation gives.  A NaN bound or a current value of -inf never fails
    the test, and a target that does not screen evaluates every row.
    """
    eta = target._eta1()
    x = system.particles.copy()
    chol = _proposal_chol(cov, system.scale)

    cur_eta = system.log_eta.copy()
    cur_pi = system.log_pi.copy()
    tangent = None if system.tangent is None else system.tangent.copy()
    cur = (1.0 - rho) * cur_eta + rho * cur_pi
    n, dim = x.shape
    accepted = 0
    for _ in range(config.mh_steps):
        prop = x + rng.standard_normal((n, dim)) @ chol.T
        logu = np.log(rng.uniform(size=n))
        prop_eta = eta.logpdf_batch(prop)

        def fails(rows, bound):
            return logu[rows] >= (1.0 - rho) * prop_eta[rows] + rho * bound - cur[rows]

        prop_pi, prop_tangent = target.log_target_screened_many(prop, tangent, fails)
        cand = (1.0 - rho) * prop_eta + rho * prop_pi
        moved = np.flatnonzero(logu < cand - cur)
        x[moved] = prop[moved]
        cur[moved] = cand[moved]
        cur_eta[moved] = prop_eta[moved]
        cur_pi[moved] = prop_pi[moved]
        if tangent is None:
            tangent = np.full((n, prop_tangent.shape[1]), np.nan)
        tangent[moved] = prop_tangent[moved]
        accepted += moved.size
    system.particles = x
    system.log_pi = cur_pi
    system.log_eta = cur_eta
    system.tangent = tangent
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
    log_pi, tangent = target.log_target_screened_many(particles)
    system = ParticleSystem(
        particles=particles,
        log_weights=np.full(n, -math.log(n)),
        log_pi=log_pi,
        log_eta=eta.logpdf_batch(particles),
        tangent=tangent,
        rho=0.0,
        scale=config.scale_init if config.scale_init is not None else 2.38**2 / target.dim,
    )

    while system.rho < 1.0:
        if len(system.history) >= _MAX_STAGES:
            raise NumericalError(
                f"tempering failed to reach rho = 1 in {_MAX_STAGES} stages; "
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
        system.tangent = system.tangent[idx]
        system.log_weights = np.full(n, -math.log(n))
        system.rho = rho_new

        rwmh_propagate(system, target, rho_new, cov, config, srng)
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


def _gradient_hessian(target: TargetModel, x, step=1e-5):
    """Hessian of the log target at x by central differences of its
    gradient, symmetrised: the 2 dim points x +- h_i e_i go to the target as
    one batch; a non-finite value or gradient raises ``InitializationError``."""
    d = x.shape[0]
    h = step * np.maximum(1.0, np.abs(x))
    steps = np.diag(h)
    f, g = target.log_target_grad_many(np.concatenate([x + steps, x - steps]))
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise InitializationError("log posterior not finite on the gradient stencil at the mode")
    hess = (g[:d] - g[d:]) / (2.0 * h[:, None])
    return 0.5 * (hess + hess.T)


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
    BFGS ascent to the posterior mode on the target's analytic gradient,
    one row per evaluation, then the inverse of the negated Hessian, taken
    as central differences of the gradient in one batch of 2 dim rows and
    eigenvalue-floored against round-off.  Raises ``InitializationError``
    when the target has no gradient, when the mode cannot be found or when
    the curvature there is not finite and positive definite.

    ``inflate`` scales the covariance; values above 1 overdisperse the
    initial distribution, which costs a few extra tempering stages but
    protects the sampler when the posterior has heavy ridges the local
    curvature cannot see.
    """
    start = np.asarray(start, dtype=float)
    first = {start.tobytes(): target.log_target_grad_many(start[None])}
    if not math.isfinite(first[start.tobytes()][0][0]):
        raise InitializationError("log posterior not finite at the starting point")

    def neg(v):
        # BFGS starts at the start, whose evaluation is already at hand
        val, grad = first.pop(v.tobytes(), None) or target.log_target_grad_many(v[None])
        if not (math.isfinite(val[0]) and np.isfinite(grad).all()):
            return 1e30, np.zeros_like(v)
        return -val[0], -grad[0]

    res = minimize(neg, start, jac=True, method="BFGS",
                   options={"maxiter": max_iter, "gtol": 1e-5})
    # BFGS can stop with a "precision loss" flag at a perfectly good mode
    # when the gradient is down to its rounding: judge by the gradient
    # scaled to the objective instead of the success flag.
    if not (res.success or np.max(np.abs(res.jac)) < 1e-3 * (1.0 + abs(res.fun))):
        raise InitializationError(f"posterior maximisation failed: {res.message}")
    mode = res.x
    cov = _cov_from_precision(-_gradient_hessian(target, mode))
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


def initial_distribution(target: TargetModel, config: SmcConfig) -> GaussianInit:
    """eta1 for ``run``: the Laplace approximation from the target's default
    start, its covariance scaled by ``config.eta1_inflation``; if that raises
    an ``EsnError`` (a target without a gradient does), a pilot MH chain of
    ``config.pilot_iterations`` steps."""
    try:
        return laplace_init(target, target.default_start, inflate=config.eta1_inflation)
    except EsnError:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xE7A1]))
        return pilot_mh_init(target, config.pilot_iterations, rng, inflate=config.eta1_inflation)
