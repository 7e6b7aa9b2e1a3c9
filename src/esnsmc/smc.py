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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
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
_BISECT_EPSILON = 1e-4  # width of the temperature bracket, and the least step
_ACCEPTANCE_BAND = (0.2, 0.6)  # the MH scale halves below it and doubles above
_SCALE_INIT = 2.38**2  # the MH scale of the first stage, times dim
_ETA1_INFLATION = 4.0  # scales the covariance of eta1
_BFGS_GTOL = 1e-5  # BFGS stops once no gradient entry exceeds this
_BFGS_MAX_ITER = 500
_ARMIJO = 1e-4  # sufficient-increase constant of the line search
_EXPAND_SLOPE = 0.9  # an accepted first trial doubles while its slope keeps this share
_MAX_TRIALS = 60  # line-search evaluations before an iteration gives up
_NEWTON_TOL = 1e-10  # the polish stops at a step this small, relative to x
_NEWTON_MAX_STEPS = 10


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


def _finite_or_neginf(evaluate, vmat, grad=False, states=None, fails=None):
    """``evaluate(vmat, grad, states, fails)`` with floating-point errors
    ignored: its values as a float array with every non-finite value mapped
    to -inf, and its extra item as it came."""
    with np.errstate(all="ignore"):
        values, extra = evaluate(vmat, grad, states, fails)
    values = np.array(values, dtype=float)
    values[~np.isfinite(values)] = -np.inf
    return values, extra


@dataclass
class TargetModel:
    """Posterior target seen by the sampler.

    ``evaluate(vmat, grad=False, states=None, fails=None)`` is the only
    route by which the sampler evaluates the target.  It maps an (N, dim)
    matrix of unconstrained particles to ``(values, extra)``: the N values
    of the unnormalised log posterior plus the log-determinant of
    d(constrained)/d(unconstrained), and

    - with ``grad``, their (N, dim) gradient in the unconstrained
      coordinates, which ``laplace_init`` needs (a target without one
      raises ``InitializationError``);
    - otherwise an (N, k) state per row for screening the MH move's
      proposals, or None for a target that does not screen.

    Given the states of the particles the rows were proposed from and a
    test ``fails(rows, bound)`` (indices into vmat, and an upper bound on
    each one's value), a screening target may stop evaluating a row as soon
    as the test fails on a bound; that row's value is -inf.  Every bound it
    passes must be at least the row's value.  The values of a row it
    evaluates, with or without a gradient or a state, have the same bytes.
    ``to_constrained`` maps one unconstrained vector, or an (N, dim) matrix
    of them, to the flat constrained layout.

    The ``log_target*`` methods are the hook's only callers.
    """

    dim: int
    evaluate: Callable[..., tuple[np.ndarray, Optional[np.ndarray]]]
    to_constrained: Callable[[np.ndarray], np.ndarray] = _identity
    eta1: Optional[GaussianInit] = None
    param_names: Optional[list[str]] = None
    default_start: Optional[np.ndarray] = None

    def log_target(self, v) -> float:
        return float(self.log_target_many(np.asarray(v, dtype=float)[None])[0])

    def log_target_many(self, vmat) -> np.ndarray:
        return _finite_or_neginf(self.evaluate, np.atleast_2d(vmat))[0]

    def log_target_grad_many(self, vmat) -> tuple[np.ndarray, np.ndarray]:
        """Values as ``log_target_many`` gives them, and their gradients; a
        row whose value is not finite has an undefined gradient."""
        out, grad = _finite_or_neginf(self.evaluate, np.atleast_2d(vmat), True)
        return out, np.asarray(grad, dtype=float)

    def log_target_screened_many(
        self, vmat, states=None, fails=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values as ``log_target_many`` gives them, -inf where a screening
        target dropped the row, and each row's state for screening the
        proposals made from it later: (N, 0) for a target that does not
        screen, which evaluates every row in full."""
        vmat = np.atleast_2d(vmat)
        out, states = _finite_or_neginf(self.evaluate, vmat, False, states, fails)
        if states is None:
            return out, np.empty((vmat.shape[0], 0))
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
    seed: int = 0
    pilot_iterations: int = 10_000  # length of the fallback pilot chain

    def __post_init__(self):
        if not 0.0 < self.ess_threshold_fraction < 1.0:
            raise ValueError("ess_threshold_fraction must be in (0, 1)")
        if self.n_particles < 2 or self.mh_steps < 1:
            raise ValueError("need at least 2 particles and 1 MH step")
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
    [rho, 1] down to a bracket narrower than ``_BISECT_EPSILON`` and returns
    its midpoint (never less than rho + ``_BISECT_EPSILON``, so the ladder
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
    while hi - lo >= _BISECT_EPSILON:
        mid = 0.5 * (lo + hi)
        if ess_at(mid) >= beta:
            lo = mid
        else:
            hi = mid
    rho_star = 0.5 * (lo + hi)
    return min(1.0, max(rho_star, system.rho + _BISECT_EPSILON))


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
        scale=_SCALE_INIT / target.dim,
    )
    log_evidence = 0.0
    history: list[StageRecord] = []
    while system.rho < 1.0:
        if len(history) >= _MAX_STAGES:
            raise NumericalError(
                f"tempering failed to reach rho = 1 in {_MAX_STAGES} stages; "
                f"stalled at rho = {system.rho:.6f}"
            )
        srng = np.random.default_rng(ss.spawn(1)[0])
        rho_new = next_temperature(system, config)
        increment = evidence_increment(system, system.rho, rho_new)
        log_evidence += increment
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
        history.append(
            StageRecord(
                rho=rho_new,
                ess=stage_ess,
                acceptance_rate=acc,
                scale=system.scale,
                log_evidence_increment=increment,
            )
        )
        lo, hi = _ACCEPTANCE_BAND
        if acc > hi:
            system.scale *= 2.0
        elif acc < lo:
            system.scale *= 0.5

    return SmcResult(system=system, log_evidence=log_evidence, diagnostics=history)


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


def _value_grad(target: TargetModel, v):
    """The log target and its gradient at one point, by a one-row call; a
    non-finite gradient counts as a value of -inf."""
    val, grad = target.log_target_grad_many(v[None])
    if not np.isfinite(grad).all():
        return -math.inf, grad[0]
    return val[0], grad[0]


def _line_search(target: TargetModel, x, f, g, p, t):
    """Backtracking Armijo search along the ascent direction p from step t.

    A step into -inf halves; one that rises too little shrinks to the
    quadratic interpolant's maximiser, kept within [0.1 t, 0.5 t].  A first
    step that is accepted while the slope keeps ``_EXPAND_SLOPE`` of its
    share doubles until the value stops rising.  Returns the new point,
    value and gradient, or None when no step rises (the gradient is down to
    its rounding)."""
    slope = g @ p
    if not slope > 0.0:
        return None
    for trial in range(_MAX_TRIALS):
        x_new = x + t * p
        f_new, g_new = _value_grad(target, x_new)
        rise = f_new - f
        if rise >= _ARMIJO * t * slope:
            break
        shrink = 0.5 if not math.isfinite(rise) else 0.5 * slope * t / (slope * t - rise)
        t *= min(0.5, max(0.1, shrink))
    else:
        return None
    if trial == 0:
        for _ in range(_MAX_TRIALS):
            if g_new @ p <= _EXPAND_SLOPE * slope:
                break
            t *= 2.0
            x_far = x + t * p
            f_far, g_far = _value_grad(target, x_far)
            if not (f_far > f_new and f_far - f >= _ARMIJO * t * slope):
                break
            x_new, f_new, g_new = x_far, f_far, g_far
    return x_new, f_new, g_new


def _bfgs_ascent(target: TargetModel, x, f, g):
    """BFGS ascent from x (value f, gradient g) to where no gradient entry
    exceeds ``_BFGS_GTOL``, or to where no step rises any more.

    The inverse of the negated Hessian starts as the identity, with a first
    step of length at most 1, and is scaled by y's / y'y before its first
    update (Shanno and Phua; Nocedal and Wright 2006, section 6.1); a pair
    with y's <= 0 leaves it as it is."""
    dim = x.shape[0]
    inv = np.eye(dim)
    scaled = False
    for _ in range(_BFGS_MAX_ITER):
        if np.max(np.abs(g)) <= _BFGS_GTOL:
            return x, g
        p = inv @ g
        t = 1.0 if scaled else min(1.0, 1.0 / math.sqrt(p @ p))
        step = _line_search(target, x, f, g, p, t)
        if step is None:
            return x, g
        s, y = step[0] - x, g - step[2]
        ys = y @ s
        if ys > 0.0:
            if not scaled:
                inv *= ys / (y @ y)
                scaled = True
            v = np.eye(dim) - np.outer(s, y) / ys
            inv = v @ inv @ v.T + np.outer(s, s) / ys
        x, f, g = step
    raise InitializationError(
        f"posterior maximisation failed: no mode within {_BFGS_MAX_ITER} BFGS iterations"
    )


def _newton_polish(target: TargetModel, x, g):
    """Newton steps on the gradient stencil's Hessian until a step is below
    ``_NEWTON_TOL`` relative to x; returns the point after that step and the
    covariance of the stencil before it.  The mode is then the gradient's
    zero to within its rounding, wherever BFGS stopped; a curvature that is
    not positive definite raises ``InitializationError``."""
    for _ in range(_NEWTON_MAX_STEPS):
        cov = _cov_from_precision(-_gradient_hessian(target, x))
        step = cov @ g
        x = x + step
        if np.all(np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(x))):
            return x, cov
        f, g = _value_grad(target, x)
        if not math.isfinite(f):
            raise InitializationError("log posterior not finite on a Newton step from the mode")
    raise InitializationError(
        f"posterior maximisation failed: no Newton convergence in {_NEWTON_MAX_STEPS} steps"
    )


def laplace_init(target: TargetModel, start) -> GaussianInit:
    """Gaussian initial distribution from a Laplace approximation.

    BFGS climbs from the start on the target's analytic gradient, one row
    per evaluation (``_bfgs_ascent``); Newton steps then polish the mode
    (``_newton_polish``), each on the Hessian taken as central differences
    of the gradient in one batch of 2 dim rows.  The covariance is the
    inverse of the last stencil's negated Hessian, eigenvalue-floored
    against round-off.  Raises ``InitializationError`` when the target has
    no gradient, when the start is not finite, when the mode cannot be
    found or when the curvature on the way is not finite and positive
    definite.
    """
    x = np.asarray(start, dtype=float)
    f, g = _value_grad(target, x)
    if not math.isfinite(f):
        raise InitializationError("log posterior not finite at the starting point")
    mode, cov = _newton_polish(target, *_bfgs_ascent(target, x, f, g))
    try:
        return GaussianInit(mode, cov)
    except np.linalg.LinAlgError as exc:
        raise InitializationError(f"Laplace covariance is not usable: {exc}") from exc


def pilot_mh_init(target: TargetModel, iterations: int, rng: np.random.Generator) -> GaussianInit:
    """Gaussian initial distribution from a pilot random-walk MH run from
    the target's default start (the origin where it has none), with a step
    of 0.1 at first.

    The first half of the chain is burn-in (with multiplicative step-size
    adaptation towards the acceptance band); the second half supplies the
    mean and covariance.  Raises when nothing is ever accepted.
    """
    if iterations < 1000:
        raise ValueError("pilot run needs at least 1000 iterations")
    start = target.default_start
    x = np.zeros(target.dim) if start is None else np.array(start, dtype=float)
    cur = target.log_target(x)
    if not math.isfinite(cur):
        raise InitializationError("log posterior not finite at the pilot start")

    step = 0.1
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
    return GaussianInit(mean, cov)


def initial_distribution(target: TargetModel, config: SmcConfig) -> GaussianInit:
    """eta1 for ``run``: the Laplace approximation from the target's default
    start or, if that raises an ``EsnError`` (a target without a gradient
    does), a pilot MH chain of ``config.pilot_iterations`` steps; either
    fit with its covariance scaled by ``_ETA1_INFLATION``.  The inflation
    overdisperses eta1, which costs a few extra tempering stages but
    protects the sampler when the posterior has heavy ridges the local
    curvature cannot see."""
    try:
        eta = laplace_init(target, target.default_start)
    except EsnError:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xE7A1]))
        eta = pilot_mh_init(target, config.pilot_iterations, rng)
    return GaussianInit(eta.mean, _ETA1_INFLATION * eta.cov)
