import dataclasses
import importlib.util
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from esnsmc import esn, esnsm, model_select, models, normals, priors, smc
from esnsmc.errors import (
    DataError,
    DegenerateSystemError,
    InitializationError,
    ParameterDomainError,
)


def value_only(value):
    """An ``evaluate`` hook from a value function of the particle matrix:
    no gradient, no screening."""

    def evaluate(vmat, grad=False, states=None, fails=None):
        if grad:
            raise InitializationError("target has no gradient")
        return value(vmat), None

    return evaluate


def with_gradient(dim, value, gradient):
    """A target from closed-form value and gradient functions of the particle matrix."""

    def evaluate(vmat, grad=False, states=None, fails=None):
        return value(vmat), (gradient(vmat) if grad else None)

    return smc.TargetModel(dim=dim, evaluate=evaluate)


def gaussian_target(dim=1, mean=0.0, var=1.0):
    mean_vec = np.full(dim, mean)
    prec = np.eye(dim) / var

    def batch(vmat):
        u = vmat - mean_vec
        return -0.5 * np.sum((u @ prec) * u, axis=1)

    return with_gradient(dim, batch, lambda vmat: -(vmat - mean_vec) @ prec)


def make_system(target, log_weights, particles=None, rho=0.0):
    """A system whose particles carry their log target and log eta1 values."""
    lw = np.asarray(log_weights, dtype=float)
    n = lw.shape[0]
    if particles is None:
        particles = np.zeros((n, 1))
    return smc.ParticleSystem(
        particles=particles,
        log_weights=lw,
        log_pi=target.log_target_many(particles),
        log_eta=target.eta1.logpdf_batch(particles),
        rho=rho,
    )


class TestEss:
    def test_equal_weights(self):
        assert smc.ess(np.full(64, -math.log(64))) == pytest.approx(64.0)

    def test_single_survivor(self):
        lw = np.full(10, -np.inf)
        lw[3] = 0.0
        assert smc.ess(lw) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        lw = np.log(np.array([0.5, 0.25, 0.25]))
        assert smc.ess(lw) == pytest.approx(8.0 / 3.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSystemError):
            smc.ess(np.full(5, -np.inf))

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lw = rng.normal(size=20)
            val = smc.ess(lw)
            assert 1.0 <= val <= 20.0 + 1e-9


class TestReweight:
    def test_zero_step_keeps_equal_weights(self):
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        sys = make_system(target, np.full(8, -math.log(8)), np.linspace(-1, 1, 8)[:, None])
        lw = smc.reweight(sys, 0.0)
        assert np.allclose(lw, -math.log(8))

    def test_target_equals_eta1_keeps_equal_weights(self):
        target = gaussian_target()
        norm_const = -0.5 * math.log(2 * math.pi)

        def batch(vmat):
            return -0.5 * np.sum(vmat * vmat, axis=1) + norm_const

        target.evaluate = value_only(batch)
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        sys = make_system(target, np.full(6, -math.log(6)), np.linspace(-2, 2, 6)[:, None])
        lw = smc.reweight(sys, 0.7)
        assert np.allclose(lw, -math.log(6), atol=1e-12)

    def test_direct_exponentiation_oracle(self):
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), 4.0 * np.eye(1))
        particles = np.array([[-1.2], [0.3], [0.5], [1.9], [-0.4]])
        sys = make_system(target, np.full(5, -math.log(5)), particles, rho=0.2)
        rho_new = 0.55
        lw = smc.reweight(sys, rho_new)
        raw = np.array(
            [
                (target.log_target(p) - target.eta1.logpdf(p)) * (rho_new - 0.2)
                for p in particles
            ]
        )
        w = np.exp(raw)
        w /= w.sum()
        assert np.allclose(np.exp(lw), w, atol=1e-12)


class TestNextTemperature:
    def test_jump_to_one_when_ess_holds(self):
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        # pi identical to eta1 up to the normalising constant: ESS stays N
        target.evaluate = value_only(lambda vmat: -0.5 * np.sum(vmat * vmat, axis=1))
        sys = make_system(
            target, np.full(16, -math.log(16)), np.random.default_rng(0).normal(size=(16, 1))
        )
        cfg = smc.SmcConfig(n_particles=16, seed=0)
        assert smc.next_temperature(sys, cfg) == 1.0

    def test_two_particle_closed_form_root(self, monkeypatch):
        # two particles with log-ratio gap D: ESS(rho) = (1+t)^2/(1+t^2),
        # t = exp(rho D); ESS = beta solves t = (1 + sqrt(1-(beta-1)^2))/(beta-1)
        gap = 3.0
        beta_frac = 0.8  # beta = 1.6 of N = 2
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        sys = make_system(target, np.full(2, -math.log(2)), np.zeros((2, 1)))
        sys.log_pi = np.array([0.0, gap])
        sys.log_eta = np.array([0.0, 0.0])
        cfg = smc.SmcConfig(n_particles=2, ess_threshold_fraction=beta_frac, seed=0)
        monkeypatch.setattr(smc, "_BISECT_EPSILON", 1e-6)
        beta = 2 * beta_frac
        t_root = (1.0 + math.sqrt(1.0 - (beta - 1.0) ** 2)) / (beta - 1.0)
        rho_expected = math.log(t_root) / gap
        got = smc.next_temperature(sys, cfg)
        assert got == pytest.approx(rho_expected, abs=1e-6)

    def test_minimum_advance(self):
        # enormous ratio gap: the bisection collapses to rho, but the ladder
        # must still advance by at least the bisection width, 1e-4
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        sys = make_system(target, np.full(2, -math.log(2)), np.zeros((2, 1)))
        sys.log_pi = np.array([0.0, 1e8])
        sys.log_eta = np.array([0.0, 0.0])
        cfg = smc.SmcConfig(n_particles=2, ess_threshold_fraction=0.75, seed=0)
        got = smc.next_temperature(sys, cfg)
        assert got == pytest.approx(sys.rho + 1e-4)


class _FixedUniform:
    """Generator stand-in whose uniform() is a constant (stratification test)."""

    def __init__(self, value):
        self.value = value

    def uniform(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


class TestSystematicResample:
    def test_single_heavy_particle(self):
        lw = np.full(12, -np.inf)
        lw[7] = 0.0
        idx = smc.systematic_resample(lw, np.random.default_rng(0))
        assert np.all(idx == 7)

    def test_uniform_weights_identity_permutation(self):
        lw = np.full(10, -math.log(10))
        idx = smc.systematic_resample(lw, _FixedUniform(0.5))
        assert np.array_equal(idx, np.arange(10))

    def test_integral_expected_counts_forced(self):
        lw = np.log(np.array([0.7, 0.3]))
        big = np.concatenate([lw, np.full(8, -np.inf)])
        rng = np.random.default_rng(1)
        for _ in range(50):
            idx = smc.systematic_resample(big, rng)
            assert (idx == 0).sum() == 7
            assert (idx == 1).sum() == 3

    def test_copy_count_bracketing(self):
        rng = np.random.default_rng(2)
        w = rng.dirichlet(np.ones(6))
        lw = np.log(w)
        n = 6
        for _ in range(200):
            idx = smc.systematic_resample(lw, rng)
            counts = np.bincount(idx, minlength=n)
            assert np.all(counts >= np.floor(n * w))
            assert np.all(counts <= np.ceil(n * w))

    def test_unbiasedness(self):
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(5))
        lw = np.log(w)
        reps = 10_000
        counts = np.zeros(5)
        sq = np.zeros(5)
        for _ in range(reps):
            c = np.bincount(smc.systematic_resample(lw, rng), minlength=5)
            counts += c
            sq += c.astype(float) ** 2
        mean = counts / reps
        se = np.sqrt(np.maximum(sq / reps - mean**2, 1e-12) / reps)
        assert np.all(np.abs(mean - 5 * w) <= 3 * se + 1e-9)


class TestEvidenceIncrement:
    def test_target_equals_eta1(self):
        target = gaussian_target()
        target.evaluate = value_only(
            lambda vmat: -0.5 * np.sum(vmat * vmat, axis=1) - 0.5 * math.log(2 * math.pi)
        )
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        sys = make_system(
            target, np.full(4, -math.log(4)), np.random.default_rng(0).normal(size=(4, 1))
        )
        assert smc.evidence_increment(sys, 0.0, 0.6) == pytest.approx(0.0, abs=1e-12)

    def test_single_particle(self):
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), 4.0 * np.eye(1))
        sys = make_system(target, np.zeros(1), np.array([[0.7]]))
        inc = smc.evidence_increment(sys, 0.1, 0.5)
        expect = 0.4 * (target.log_target(np.array([0.7])) - target.eta1.logpdf(np.array([0.7])))
        assert inc == pytest.approx(expect, abs=1e-12)


class TestRwmhPropagate:
    def test_tiny_scale_accepts_everything(self):
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        sys = make_system(target, np.full(200, -math.log(200)),
                          np.random.default_rng(0).normal(size=(200, 1)))
        sys.scale = 1e-18
        cfg = smc.SmcConfig(n_particles=200, seed=0)
        smc.rwmh_propagate(sys, target, 1.0, np.eye(1), cfg, np.random.default_rng(1))
        assert sys.last_acceptance > 0.999

    def test_gaussian_self_consistency(self):
        # eta1 equals the target: propagation preserves the distribution
        target = gaussian_target(dim=2, mean=1.0, var=2.0)
        target.eta1 = smc.GaussianInit(np.full(2, 1.0), 2.0 * np.eye(2))
        rng = np.random.default_rng(2)
        n = 4000
        sys = make_system(target, np.full(n, -math.log(n)), target.eta1.sample(rng, n), rho=0.5)
        sys.scale = 2.38**2 / 2
        cfg = smc.SmcConfig(n_particles=n, mh_steps=3, seed=0)
        smc.rwmh_propagate(sys, target, 0.5, 2.0 * np.eye(2), cfg, rng)
        se_mean = math.sqrt(2.0 / n)
        assert np.all(np.abs(sys.particles.mean(axis=0) - 1.0) < 4 * se_mean)
        var = sys.particles.var(axis=0)
        se_var = 2.0 * math.sqrt(2.0 / n)
        assert np.all(np.abs(var - 2.0) < 4 * se_var)

    def test_three_state_detailed_balance(self):
        # discretise a 1-d Gaussian into 3 bins; empirical transition flows
        # between bins must balance under stationarity
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        rng = np.random.default_rng(3)
        n = 60_000
        sys = make_system(target, np.full(n, -math.log(n)), rng.standard_normal((n, 1)), rho=1.0)
        sys.scale = 1.0
        cfg = smc.SmcConfig(n_particles=n, mh_steps=1, seed=0)
        before = sys.particles[:, 0].copy()
        smc.rwmh_propagate(sys, target, 1.0, np.eye(1), cfg, rng)
        after = sys.particles[:, 0]
        edges = [-0.43, 0.43]
        s0 = np.digitize(before, edges)
        s1 = np.digitize(after, edges)
        flow = np.zeros((3, 3))
        for a, b in zip(s0, s1):
            flow[a, b] += 1
        flow /= n
        for i in range(3):
            for j in range(i + 1, 3):
                se = math.sqrt((flow[i, j] + flow[j, i]) / n)
                assert abs(flow[i, j] - flow[j, i]) < 4 * se + 1e-12

    def test_singular_covariance_fallback(self):
        target = gaussian_target(dim=2)
        target.eta1 = smc.GaussianInit(np.zeros(2), np.eye(2))
        sys = make_system(target, np.full(50, -math.log(50)),
                          np.random.default_rng(4).normal(size=(50, 2)))
        sys.scale = 1.0
        cfg = smc.SmcConfig(n_particles=50, seed=0)
        singular = np.zeros((2, 2))
        smc.rwmh_propagate(sys, target, 1.0, singular, cfg, np.random.default_rng(5))  # no raise


class TestRun:
    def test_target_equal_eta1_single_stage(self):
        target = gaussian_target()
        target.evaluate = value_only(
            lambda vmat: -0.5 * np.sum(vmat * vmat, axis=1) - 0.5 * math.log(2 * math.pi)
        )
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        out = smc.run(target, smc.SmcConfig(n_particles=500, seed=1))
        assert out.n_stages == 1
        assert out.log_evidence == pytest.approx(0.0, abs=1e-12)
        assert out.system.rho == 1.0

    def test_conjugate_posterior_mean(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0.8, 1.3, size=150)
        h1, _ = priors.default_hyper(1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.GaussianInit(np.array([0.0, 1.0]), np.diag([4.0, 1.0]))
        out = smc.run(target, smc.SmcConfig(n_particles=4000, seed=0))
        theta = out.constrained_particles(target)
        kappa_n = h1.kappa + 150
        analytic = (h1.kappa * h1.xi0[0] + 150 * data.mean()) / kappa_n
        mc_se = theta[:, 0].std() / math.sqrt(smc.ess(out.system.log_weights))
        assert abs(theta[:, 0].mean() - analytic) < 3 * mc_se + 1e-3

    def test_temperature_ladder_monotone_and_complete(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=100)
        h1, _ = priors.default_hyper(1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.GaussianInit(np.array([-3.0, 2.0]), np.diag([9.0, 4.0]))
        out = smc.run(target, smc.SmcConfig(n_particles=1000, seed=2))
        rhos = [r.rho for r in out.diagnostics]
        assert all(b > a for a, b in zip([0.0] + rhos[:-1], rhos))
        assert rhos[-1] == 1.0

    def test_ess_at_accepted_temperature(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=100)
        h1, _ = priors.default_hyper(1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.GaussianInit(np.array([-3.0, 2.0]), np.diag([9.0, 4.0]))
        cfg = smc.SmcConfig(n_particles=1000, seed=3)
        out = smc.run(target, cfg)
        beta = cfg.ess_threshold_fraction * cfg.n_particles
        for rec in out.diagnostics:
            if rec.rho < 1.0:
                assert rec.ess >= beta - 1.0

    def test_whole_run_determinism(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=80)
        h1, _ = priors.default_hyper(1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.GaussianInit(np.array([0.0, 0.5]), np.diag([2.0, 1.0]))
        outs = [smc.run(target, smc.SmcConfig(n_particles=600, seed=11)) for _ in range(2)]
        assert outs[0].log_evidence == outs[1].log_evidence
        assert np.array_equal(outs[0].system.particles, outs[1].system.particles)
        assert len(outs[0].diagnostics) == len(outs[1].diagnostics)

    def test_acceptance_controller_band_on_esn_benchmark(self):
        # benchmark configuration: Eq.-(5)-style data, default particle count
        rng = np.random.default_rng(12)
        data = esn.sample(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0), 1000, rng)[:, 0]
        h1, _ = priors.default_hyper(1)
        target = models.make_iid_esn_target(data, h1, "p1")
        config = smc.SmcConfig(n_particles=10_000, seed=1)
        target.eta1 = smc.initial_distribution(target, config)
        out = smc.run(target, config)
        final = out.diagnostics[-1]
        assert 0.2 <= final.acceptance_rate <= 0.6

    def test_evidence_against_closed_form(self):
        rng = np.random.default_rng(9)
        data = rng.normal(1.0, 1.2, size=120)
        h1, _ = priors.default_hyper(1)
        m0 = model_select.gaussian_log_evidence(data, h1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.initial_distribution(target, smc.SmcConfig())
        vals = [
            smc.run(target, smc.SmcConfig(n_particles=2000, seed=s)).log_evidence
            for s in range(5)
        ]
        assert abs(np.mean(vals) - m0) < 0.05
        assert max(abs(v - m0) for v in vals) < 0.2


class TestTargetModel:
    """The wrappers are the hook's only callers and share its error handling."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "wrapper", ["log_target_many", "log_target_grad_many", "log_target_screened_many"]
    )
    def test_non_finite_values_read_neginf(self, wrapper):
        extra = np.arange(8.0).reshape(4, 2)

        def evaluate(vmat, grad=False, states=None, fails=None):
            np.log(0.0)  # a floating-point error inside the hook escapes as no warning
            return np.array([np.nan, np.inf, -np.inf, 1.0]), extra.copy()

        target = smc.TargetModel(dim=2, evaluate=evaluate)
        out = getattr(target, wrapper)(np.zeros((4, 2)))
        values, rest = out if isinstance(out, tuple) else (out, extra)
        assert values.tolist() == [-np.inf, -np.inf, -np.inf, 1.0]
        assert rest.tobytes() == extra.tobytes()


class TestParticleState:
    """Each particle's log target and log eta1 are computed once, when it is
    proposed, and stay consistent with its position."""

    @pytest.mark.parametrize("mh_steps", [1, 3])
    def test_one_target_batch_per_mh_step(self, mh_steps):
        data = np.random.default_rng(8).normal(size=80)
        h1, _ = priors.default_hyper(1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.GaussianInit(np.array([-3.0, 2.0]), np.diag([9.0, 4.0]))
        evaluate = target.evaluate
        calls = []

        def counted(vmat, *args):
            calls.append(vmat.shape[0])
            return evaluate(vmat, *args)

        target.evaluate = counted
        out = smc.run(target, smc.SmcConfig(n_particles=400, mh_steps=mh_steps, seed=4))
        assert out.n_stages > 1
        # the initial population, then one batch per MH step of every stage
        assert len(calls) == 1 + out.n_stages * mh_steps
        assert calls == [400] * len(calls)

    @pytest.mark.parametrize("model", ["esn-p1", "esnsm"])
    def test_stored_values_match_a_fresh_evaluation(self, model):
        rng = np.random.default_rng(21)
        if model == "esn-p1":
            data = esn.sample(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0), 300, rng)[:, 0]
            target = models.make_iid_esn_target(data, priors.default_hyper(1)[0], "p1")
        else:
            truth = esnsm.EsnsmParams(
                [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [0.3 * math.sqrt(6.0)],
                [2.0, 1.0], -2.0,
            )
            data = esnsm.simulate(truth, 300, esnsm.CovariateSpec(), rng)
            hyper = esnsm.EsnsmHyper.defaults(1, 2, 2, data.n)
            target = esnsm.make_esnsm_target(data, hyper, [0, 1], [0, 2])
        config = smc.SmcConfig(n_particles=300, seed=3)
        target.eta1 = smc.initial_distribution(target, config)
        system = smc.run(target, config).system
        x = system.particles
        np.testing.assert_allclose(system.log_pi, target.log_target_many(x), rtol=1e-12)
        np.testing.assert_allclose(system.log_eta, target.eta1.logpdf_batch(x), rtol=1e-12)


def _assert_bytes_on_any_partition(target, vmat, rng, monkeypatch):
    """The values and states of ``vmat``'s rows, and the screened values of
    proposals from them, have one row's bytes on any row-block partition,
    pooled or not, with 1 or 2 workers."""
    single = np.concatenate([target.log_target_many(v[None]) for v in vmat])
    _, states = target.log_target_screened_many(vmat)
    prop = vmat + 0.05 * rng.normal(size=vmat.shape)
    prop_single = np.concatenate([target.log_target_many(v[None]) for v in prop])
    for workers, block_points in ((1, 2**18), (2, 2**18), (2, 3000), (1, 3000)):
        monkeypatch.setattr(models, "_workers", lambda: workers)
        monkeypatch.setattr(models, "_BLOCK_POINTS", block_points)
        monkeypatch.setattr(models, "_POOL_POINTS", min(2**16, block_points))
        values, again = target.log_target_screened_many(vmat)
        assert values.tobytes() == single.tobytes()
        assert again.tobytes() == states.tobytes()
        assert target.log_target_many(vmat).tobytes() == single.tobytes()
        assert _stage_bounds(target, prop, states)[0].tobytes() == prop_single.tobytes()


def _mp_iid_log_post(mp, z, hyper, model, xi, u, a, b):
    """The one-dimensional IID ESN log target in mpmath, at xi, the log
    scale u and the (alpha, lambda) of p1 or the (d, c) of p2."""
    l2p = mp.log(2 * mp.pi)
    s2 = mp.exp(2 * u)  # sigma^2 (p1) or omega^2 (p2)
    if model == "p1":
        alpha, lam = a, b
        sig2 = s2
        nu, v, kappa, xi0 = hyper.nu, hyper.V[0, 0], hyper.kappa, hyper.xi0[0]
        prior = -0.5 * (l2p + mp.log(hyper.sigma2_alpha)
                        + (alpha - hyper.mu_alpha[0]) ** 2 / hyper.sigma2_alpha)
    else:  # esn.p2_to_p1: sigma^2 = omega^2 + d^2, alpha = d / (omega^2 sqrt(1 + q))
        q1 = 1 + a * a / s2
        alpha, lam, sig2 = a / (s2 * mp.sqrt(q1)), b * mp.sqrt(q1), s2 + a * a
        nu, v, kappa, xi0 = hyper.nut, hyper.Vt[0, 0], hyper.kappat, hyper.xi0t[0]
        prior = -0.5 * (l2p + mp.log(s2 / hyper.kappa_d)
                        + hyper.kappa_d * (a - hyper.mu_d[0]) ** 2 / s2)
    c0sq = 1 + alpha**2 * sig2
    out = -len(z) * mp.log(mp.ncdf(lam / mp.sqrt(c0sq)))
    for zi in z:
        e = mp.mpf(zi) - xi
        out += -0.5 * (l2p + mp.log(sig2) + e * e / sig2) + mp.log(mp.ncdf(alpha * e + lam))
    nu, v = mp.mpf(nu), mp.mpf(v)
    out += nu / 2 * mp.log(v / 2) - mp.loggamma(nu / 2) - (nu + 2) / 2 * mp.log(s2) - v / (2 * s2)
    out += -0.5 * (l2p + mp.log(s2 / kappa) + kappa * (xi - xi0) ** 2 / s2)
    if model == "p1":
        out += -0.5 * (l2p + mp.log(c0sq) + lam**2 / c0sq)
    else:
        out += -0.5 * (l2p + b * b)
    return out + prior + mp.log(2) + 2 * u


def _iid_target(model, d, n, seed):
    rng = np.random.default_rng(seed)
    z = esn.sample(
        esn.EsnParamsP1(np.full(d, 2.0), 6.0 * np.eye(d) + 1.0, np.full(d, 5.0), -2.0), n, rng
    )
    h1, h2 = priors.default_hyper(d)
    return models.make_iid_esn_target(z, h1 if model == "p1" else h2, model), rng


def _stage_bounds(target, prop, states):
    """The screened values of ``prop`` and every bound the target passes to
    its test, as (rows, bound) pairs, under a test that never fails."""
    seen = []

    def fails(rows, bound):
        seen.append((rows.copy(), bound.copy()))
        return np.zeros(rows.shape[0], dtype=bool)

    return target.log_target_screened_many(prop, states, fails)[0], seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEarlyRejection:
    """The MH move rejects a proposal as soon as an upper bound on its
    target value already fails the acceptance test; the IID ESN targets
    bound it group by group, and every decision stays the one a full
    evaluation gives."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("model", ["p1", "p2"])
    def test_iid_bound_is_never_below_the_value(self, model, d):
        target, rng = _iid_target(model, d, 1000, 60 + d)  # 4 groups of 250
        cur = target.default_start + 0.3 * rng.normal(size=(40, target.dim))
        cur[:4, -1] = [40.0, -40.0, 25.0, -25.0]  # shift (p1) or truncation (p2) in the tails
        cur[4, d] = -800.0  # a scale whose Cholesky diagonal underflows to 0
        values, states = target.log_target_screened_many(cur)
        assert values.tobytes() == target.log_target_many(cur).tobytes()
        assert states.shape == (40, 4 * (2 + d) + d + 1)
        finite = np.isfinite(values)
        assert finite.sum() == 39
        states[10] = np.nan  # an unknown state
        finite[10] = False
        # the proposal itself, near and far proposals, proposals in the tails
        # from ordinary particles, and ones whose scale underflows
        for step in (0.0, 1e-9, 1e-4, 0.05, 0.5, 3.0):
            prop = cur + step * rng.normal(size=cur.shape)
            prop[5:9, -1] = [40.0, -40.0, 25.0, -25.0]
            prop[9, d] = -800.0
            value = target.log_target_many(prop)
            screened, seen = _stage_bounds(target, prop, states)
            assert screened.tobytes() == value.tobytes()
            assert len(seen) == 4  # before each group
            for rows, bound in seen:
                assert rows.tolist() == list(range(40))
                assert not np.any(bound < value), (step, np.flatnonzero(bound < value))
                assert np.isnan(bound[10])
            first, last = seen[0][1], seen[-1][1]
            assert np.isneginf(value[9]) and not first[9] > -np.inf  # dropped before any group
            usable = finite & np.isfinite(value)
            assert np.isfinite(first[usable]).all()
            # groups summed exactly tighten the bound
            assert np.all(last[usable] <= first[usable] + 1e-9 * (1.0 + np.abs(value[usable])))
            if step == 0.0:  # a tangent plane touches at its own particle
                usable[5:9] = False
                gap = first[usable] - value[usable]
                assert np.all(gap < 1e-3 * (1.0 + np.abs(value[usable])))

    @pytest.mark.parametrize("model, d, seed", [("p1", 1, 0), ("p1", 1, 1), ("p2", 1, 2),
                                                ("p1", 2, 3), ("p2", 3, 4)])
    def test_run_gives_the_bytes_of_the_unscreened_target(self, model, d, seed, monkeypatch):
        n = 750  # 3 groups of 250
        target, _ = _iid_target(model, d, n, 70 + seed)
        config = smc.SmcConfig(n_particles=400, seed=seed)
        target.eta1 = smc.initial_distribution(target, config)
        def unscreened(vmat, grad=False, states=None, fails=None):
            values, extra = target.evaluate(vmat, grad)
            return values, (extra if grad else None)

        plain = dataclasses.replace(target, evaluate=unscreened)

        def first_bound_only(vmat, grad=False, states=None, fails=None):
            # the test acts on the bound before the first group only
            tested = []

            def once(rows, bound):
                tested.append(rows.size)
                return fails(rows, bound) if len(tested) == 1 else np.zeros(rows.size, bool)

            return target.evaluate(vmat, grad, states, fails and once)

        one_bound = dataclasses.replace(target, evaluate=first_bound_only)
        points = []
        group_sums = models._group_sums

        def spy(z, ab):
            points.append(ab.shape[0] * z.shape[0])
            return group_sums(z, ab)

        monkeypatch.setattr(models, "_group_sums", spy)
        screened = smc.run(target, config)
        staged = sum(points)
        points.clear()
        once = smc.run(one_bound, config)
        one_bound_points = sum(points)
        points.clear()
        full = smc.run(plain, config)
        for other in (once, full):
            assert screened.system.particles.tobytes() == other.system.particles.tobytes()
            assert screened.system.log_pi.tobytes() == other.system.log_pi.tobytes()
            assert screened.log_evidence == other.log_evidence
            assert ([r.acceptance_rate for r in screened.diagnostics]
                    == [r.acceptance_rate for r in other.diagnostics])
        assert screened.system.tangent.shape == (400, 3 * (2 + d) + d + 1)
        assert full.system.tangent.shape == (400, 0)
        # the unscreened copy evaluates every row of every step in full; one
        # bound before the first group screens some rows, and staged bounds more
        every = 400 * n * (1 + full.n_stages * config.mh_steps)
        assert sum(points) == every
        assert one_bound_points < 0.9 * every
        assert staged < 0.9 * one_bound_points

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("model", ["p1", "p2"])
    def test_group_sums_give_the_value_bytes_on_any_partition(self, model, d, monkeypatch):
        target, rng = _iid_target(model, d, 1000, 90 + d)
        vmat = target.default_start + 0.3 * rng.normal(size=(301, target.dim))
        vmat[:4, -1] = [40.0, -40.0, 25.0, -25.0]
        vmat[4, d] = -800.0
        _assert_bytes_on_any_partition(target, vmat, rng, monkeypatch)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("model", ["p1", "p2"])
    def test_deep_tail_rows_give_the_value_bytes_on_any_partition(self, model, d, monkeypatch):
        # shifts (p1) or truncations (p2) that put some of each row's points
        # below the deep-tail switch, where log Phi and m take erfcx
        target, rng = _iid_target(model, d, 1000, 95 + d)
        vmat = target.default_start + 0.3 * rng.normal(size=(301, target.dim))
        vmat[:, -1] = rng.uniform(*((-26.0, -14.0) if model == "p1" else (-16.0, -4.0)), size=301)
        deep = []
        mills_ratio_inv = models.mills_ratio_inv

        def spy(x):
            deep.append(x.size)
            return mills_ratio_inv(x)

        monkeypatch.setattr(models, "mills_ratio_inv", spy)
        target.log_target_many(vmat)
        assert 0.05 < sum(deep) / (301 * 1000) < 0.95
        _assert_bytes_on_any_partition(target, vmat, rng, monkeypatch)

    @pytest.mark.parametrize("model", ["p1", "p2"])
    def test_iid_target_in_the_deep_tail(self, model):
        # points whose skew argument is about -1e4, -1e6 and -1e10: the
        # gradient, the screening state and the bound stay finite, and the
        # gradient is that of an mpmath oracle
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.normal(size=20), [-1e4, -1e6, -1e10]])
        h1, h2 = priors.default_hyper(1)
        hyper = h1 if model == "p1" else h2
        target = models.make_iid_esn_target(z, hyper, model)
        # p1: xi, log sigma, alpha, lambda; p2: xi, log omega, d, c
        rows = np.array([[0.0, 0.0, 1.0, 0.0], [0.3, 0.2, 0.7, -0.4]])
        values, grads = target.log_target_grad_many(rows)
        assert np.isfinite(grads).all()
        with mp.workdps(40):
            for row, value, grad in zip(rows, values, grads):
                x = [mp.mpf(a) for a in row]
                assert value == pytest.approx(float(_mp_iid_log_post(mp, z, hyper, model, *x)),
                                              rel=1e-13)
                expect = np.array([float(mp.diff(
                    lambda t, k=k: _mp_iid_log_post(mp, z, hyper, model, *x[:k], t, *x[k + 1:]),
                    x[k])) for k in range(4)])
                # p2's gradient in d is a difference of terms of about 1e20
                # (sigma^2 = omega^2 + d^2), so it holds only to the gradient's scale
                scale = 0.0 if model == "p1" else np.abs(expect).max()
                np.testing.assert_allclose(grad, expect, rtol=1e-12, atol=1e-12 * scale)
        screened, states = target.log_target_screened_many(rows)
        assert screened.tobytes() == values.tobytes()
        assert np.isfinite(states).all()
        prop = rows + 1e-3 * rng.normal(size=rows.shape)
        value = target.log_target_many(prop)
        for _, bound in _stage_bounds(target, prop, states)[1]:
            assert not np.isnan(bound).any() and np.all(bound >= value)

    def test_nan_state_or_infinite_current_value_is_evaluated(self):
        # a bound of -inf rejects every row it can: only the row whose state
        # is NaN and the row whose current value is -inf are evaluated
        target = gaussian_target()
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        evaluated = []

        evaluate = target.evaluate

        def screened_batch(vmat, grad=False, states=None, fails=None):
            # records the rows that the MH move's screened calls evaluate
            rows = np.arange(vmat.shape[0])
            if states is not None and fails is not None:
                rows = rows[~fails(rows, np.where(np.isnan(states[rows, 0]), np.nan, -np.inf))]
                evaluated.extend(vmat[rows, 0])
            out = np.full(vmat.shape[0], -np.inf)
            out[rows] = evaluate(vmat[rows])[0]
            return out, np.zeros((vmat.shape[0], 1))

        target.evaluate = screened_batch
        x = np.arange(6.0)[:, None]
        sys = make_system(target, np.full(6, -math.log(6)), x, rho=0.5)
        sys.tangent = np.zeros((6, 1))
        sys.tangent[1] = np.nan
        sys.log_pi[3] = -np.inf
        sys.scale = 1e-18  # proposals within 1e-8 of their particles
        cfg = smc.SmcConfig(n_particles=6, mh_steps=1, seed=0)
        smc.rwmh_propagate(sys, target, 0.5, np.eye(1), cfg, np.random.default_rng(7))
        assert evaluated == pytest.approx([1.0, 3.0], abs=1e-6)
        assert sys.log_pi[3] == target.log_target(sys.particles[3])  # accepted from -inf
        assert sys.tangent[3, 0] == 0.0
        # with every state usable and every value finite, nothing is evaluated
        sys.tangent[:] = 0.0
        evaluated.clear()
        smc.rwmh_propagate(sys, target, 0.5, np.eye(1), cfg, np.random.default_rng(8))
        assert evaluated == [] and sys.last_acceptance == 0.0

    def test_system_without_states_is_evaluated_in_full(self):
        # a system built without states takes them from the rows that move;
        # the rest stay unknown (NaN) and are evaluated next time
        target, rng = _iid_target("p1", 1, 600, 80)
        target.eta1 = smc.GaussianInit(target.default_start, 0.01 * np.eye(target.dim))
        x = target.eta1.sample(rng, 200)
        sys = make_system(target, np.full(200, -math.log(200)), x, rho=1.0)
        assert sys.tangent is None
        cfg = smc.SmcConfig(n_particles=200, mh_steps=1, seed=0)
        smc.rwmh_propagate(sys, target, 1.0, 0.01 * np.eye(target.dim), cfg, rng)
        moved = ~np.isnan(sys.tangent[:, 0])
        assert 0 < moved.sum() < 200
        values, states = target.log_target_screened_many(sys.particles[moved])
        assert states.tobytes() == sys.tangent[moved].tobytes()
        assert values.tobytes() == sys.log_pi[moved].tobytes()


def _mp_log_cdf_and_mills(mp, x):
    """log Phi(x) and phi(x) / Phi(x) in mpmath, their limits at +-inf;
    below -1e100, where mpmath's erfc gives up, the asymptotic series' first
    term, whose relative error 1 / x^2 is below 1e-200."""
    if math.isnan(x):
        return mp.nan, mp.nan
    if math.isinf(x):
        return (mp.mpf(0), mp.mpf(0)) if x > 0 else (-mp.inf, mp.inf)
    x = mp.mpf(x)
    if x < -1e100:
        return -x * x / 2 - mp.log(-x * mp.sqrt(2 * mp.pi)), -x
    cdf = mp.ncdf(x)
    return mp.log(cdf), mp.npdf(x) / cdf


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGroupSums:
    """The skew sum's one per-point routine against mpmath: S = sum log Phi,
    M_0 = sum m and M_j = sum m z_j on both sides of the deep-tail switch,
    in the deep tail, where phi underflows, and at +-inf and NaN."""

    # arg_i = z_i1 + shift, as alpha = (1, 0); z_2 only weights M_2
    z = np.array([[0.0, 1.0], [0.25, 2.0], [0.5, 3.0], [1.5, 0.5]])

    def _check(self, shifts, rtol_s=1e-13, atol_s=0.0):
        mp = pytest.importorskip("mpmath")
        shifts = np.asarray(shifts, dtype=float)
        ab = np.column_stack([np.ones_like(shifts), np.zeros_like(shifts), shifts])
        got = models._group_sums(self.z, ab)
        expect = np.empty_like(got)
        with mp.workdps(40):
            for row, shift in zip(expect, shifts):
                terms = [_mp_log_cdf_and_mills(mp, float(z1 + shift)) for z1 in self.z[:, 0]]
                row[0] = float(mp.fsum(t[0] for t in terms))
                row[1] = float(mp.fsum(t[1] for t in terms))
                for j in range(2):
                    row[2 + j] = float(mp.fsum(t[1] * zj for t, zj in zip(terms, self.z[:, j])))
        np.testing.assert_allclose(got[:, 0], expect[:, 0], rtol=rtol_s, atol=atol_s)
        np.testing.assert_allclose(got[:, 1:], expect[:, 1:], rtol=1e-13, atol=0.0)

    def test_both_sides_of_the_switch(self):
        t = models._DEEP_ARG
        rng = np.random.default_rng(0)
        self._check(np.concatenate([[t - 1.5, t - 0.3, t - 1e-9, t, t + 1e-9, -12.0, -3.0, 0.0],
                                    rng.uniform(t - 3.0, t + 3.0, 40)]))

    def test_deep_tail(self):
        self._check([-30.0, -38.0, -45.5, -300.0, -1e4, -1e6, -1e10, -1e155, -1e200])

    def test_where_phi_underflows_and_at_inf_and_nan(self):
        self._check([39.0, 50.0, 1e3, 1e155, 1e200, np.inf, -np.inf, np.nan])

    def test_log_phi_near_one_holds_to_an_ulp_of_one_per_point(self):
        # log(ndtr) keeps log Phi's absolute, not relative, precision where
        # Phi rounds near 1
        self._check([2.0, 5.0, 10.0, 30.0], rtol_s=1e-13, atol_s=4 * 2.0**-53)


class TestLaplaceInit:
    def test_gaussian_target_recovered_exactly(self):
        target = gaussian_target(dim=2, mean=0.7, var=2.5)
        eta = smc.laplace_init(target, np.zeros(2))
        assert np.allclose(eta.mean, 0.7, atol=1e-5)
        assert np.allclose(eta.cov, 2.5 * np.eye(2), atol=1e-3)

    def test_logistic_shaped_mode_matches_grid(self):
        def batch(vmat):
            x = vmat[:, 0]
            return 3.0 * (-np.log1p(np.exp(-x))) + (-np.log1p(np.exp(0.8 * x)))

        def grad(vmat):
            x = vmat[:, :1]
            return 3.0 / (1.0 + np.exp(x)) - 0.8 / (1.0 + np.exp(-0.8 * x))

        target = with_gradient(1, batch, grad)
        eta = smc.laplace_init(target, np.array([0.3]))
        grid = np.linspace(-10, 10, 400_001)
        vals = 3.0 * (-np.log1p(np.exp(-grid))) - np.log1p(np.exp(0.8 * grid))
        assert eta.mean[0] == pytest.approx(grid[np.argmax(vals)], abs=1e-4)

    def test_start_at_mode_returns_it(self):
        target = gaussian_target(dim=1, mean=0.0, var=1.0)
        eta = smc.laplace_init(target, np.zeros(1))
        assert abs(eta.mean[0]) < 1e-6

    def test_inflation_scales_covariance(self):
        target = gaussian_target(dim=1, mean=0.0, var=1.0)
        target.default_start = np.zeros(1)
        base = smc.laplace_init(target, target.default_start)
        wide = smc.initial_distribution(target, smc.SmcConfig())
        assert wide.cov.tobytes() == (4.0 * base.cov).tobytes()

    def test_infinite_start_rejected(self):
        target = with_gradient(1, lambda vmat: np.full(len(vmat), -np.inf), np.zeros_like)
        with pytest.raises(InitializationError, match="starting point"):
            smc.laplace_init(target, np.zeros(1))

    def test_target_without_gradient_rejected(self):
        # no finite-difference fallback: initial_distribution takes the pilot
        target = smc.TargetModel(dim=1, evaluate=value_only(lambda vmat: -0.5 * vmat[:, 0] ** 2))
        with pytest.raises(InitializationError, match="no gradient"):
            smc.laplace_init(target, np.zeros(1))

    def test_non_finite_hessian_stencil_rejected(self):
        # the mode (0) is reached exactly; the wall lies between it and the
        # stencil's step of 1e-5
        def batch(vmat):
            x = vmat[:, 0]
            return np.where(x > 5e-6, -np.inf, -0.5 * x * x)

        target = with_gradient(1, batch, lambda vmat: -vmat)
        with pytest.raises(InitializationError, match="gradient stencil"):
            smc.laplace_init(target, np.array([-1.0]))

    def test_saddle_rejected(self):
        # zero gradient at the start, curvature of both signs
        target = with_gradient(
            2, lambda vmat: vmat[:, 1] ** 2 - vmat[:, 0] ** 2, lambda vmat: vmat * [-2.0, 2.0]
        )
        with pytest.raises(InitializationError, match="not positive definite"):
            smc.laplace_init(target, np.zeros(2))

    def test_ill_conditioned_curvature_never_escapes_as_linalg_error(self):
        # curvatures far apart along rotated axes: round-off can leave the
        # floored covariance indefinite, which must be an InitializationError
        for angle in np.linspace(0.1, 1.5, 15):
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            for small, big in ((1e-4, 1e12), (1e-4, 1e14), (1e-2, 1e14)):
                prec = rot @ np.diag([small, big]) @ rot.T
                target = with_gradient(
                    2,
                    lambda v, p=prec: -0.5 * np.einsum("nj,jk,nk->n", v, p, v),
                    lambda v, p=prec: -v @ p,
                )
                try:
                    smc.laplace_init(target, np.zeros(2))
                except InitializationError:
                    pass

    def test_line_search_steps_back_from_a_wall(self):
        # the first step (length 1) lands beyond the wall at x = 0.8, where
        # the target is -inf; the mode at 0.5 lies before it
        walls = []

        def batch(vmat):
            x = vmat[:, 0]
            walls.append(bool(np.any(x > 0.8)))
            return np.where(x > 0.8, -np.inf, -5.0 * (x - 0.5) ** 2 - 0.1 * x**4)

        target = with_gradient(1, batch, lambda vmat: -10.0 * (vmat - 0.5) - 0.4 * vmat**3)
        eta = smc.laplace_init(target, np.zeros(1))
        assert walls[1]  # the start, then the step past the wall
        grid = np.linspace(0.4, 0.6, 200_001)
        vals = -5.0 * (grid - 0.5) ** 2 - 0.1 * grid**4
        assert eta.mean[0] == pytest.approx(grid[np.argmax(vals)], abs=1e-6)
        assert eta.cov[0, 0] == pytest.approx(1.0 / (10.0 + 1.2 * eta.mean[0] ** 2), rel=1e-6)

    def test_convex_start_climbs_to_a_concave_mode(self):
        # -log(1 + x^2) - y^2 / 2 curves upwards in x where |x| > 1: the start
        # is not in the concave region, the mode (0, 0) is
        def value(vmat):
            return -np.log1p(vmat[:, 0] ** 2) - 0.5 * vmat[:, 1] ** 2

        def grad(vmat):
            return np.column_stack([-2.0 * vmat[:, 0] / (1.0 + vmat[:, 0] ** 2), -vmat[:, 1]])

        target = with_gradient(2, value, grad)
        start = np.array([3.0, 1.0])
        assert np.linalg.eigvalsh(smc._gradient_hessian(target, start))[-1] > 0.0
        eta = smc.laplace_init(target, start)
        assert np.max(np.abs(eta.mean)) < 1e-10
        np.testing.assert_allclose(eta.cov, np.diag([0.5, 1.0]), rtol=1e-8)

    @staticmethod
    def _scalar_reference(target, start, monkeypatch):
        """The initialiser with one-row calls throughout: the same BFGS and
        Newton polish, each Hessian from the gradient stencil one point at a
        time.  Returns the mode, the covariance and the order of the calls:
        1 for a one-row gradient call, "H" for a stencil."""
        evaluate, calls = target.evaluate, []

        def one_row(vmat, grad=False, *args):
            calls.append(vmat.shape[0])
            return evaluate(vmat, grad, *args)

        def scalar_stencil(target, x):
            calls.append("H")
            d = x.size
            h = 1e-5 * np.maximum(1.0, np.abs(x))
            hess = np.empty((d, d))
            for i in range(d):
                step = np.zeros(d)
                step[i] = h[i]
                hess[i] = (evaluate((x + step)[None], True)[1][0]
                           - evaluate((x - step)[None], True)[1][0]) / (2.0 * h[i])
            return 0.5 * (hess + hess.T)

        with monkeypatch.context() as m:
            m.setattr(target, "evaluate", one_row)
            m.setattr(smc, "_gradient_hessian", scalar_stencil)
            x = np.asarray(start, dtype=float)
            mode, cov = smc._newton_polish(target, *smc._bfgs_ascent(
                target, x, *smc._value_grad(target, x)))
        return mode, cov, calls

    @staticmethod
    def _target(model):
        rng = np.random.default_rng(21)
        if model == "esnsm":
            truth = esnsm.EsnsmParams(
                [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [0.3 * math.sqrt(6.0)],
                [2.0, 1.0], -2.0,
            )
            data = esnsm.simulate(truth, 300, esnsm.CovariateSpec(), rng)
            return esnsm.make_esnsm_target(
                data, esnsm.EsnsmHyper.defaults(1, 2, 2, data.n), [0, 1], [0, 2]
            )
        d = int(model[-1])
        z = esn.sample(
            esn.EsnParamsP1(np.full(d, 2.0), 6.0 * np.eye(d) + 1.0, np.full(d, 5.0), -2.0),
            300, rng,
        )
        return models.make_iid_esn_target(z, priors.default_hyper(d)[0], "p1")

    @pytest.mark.parametrize("model", ["esnsm", "p1-d1", "p1-d2"])
    def test_batched_equals_scalar_reference(self, model, monkeypatch):
        target = self._target(model)
        eta = smc.initial_distribution(target, smc.SmcConfig())
        mode, cov, _ = self._scalar_reference(target, target.default_start, monkeypatch)
        assert eta.mean.tobytes() == mode.tobytes()
        assert eta.cov.tobytes() == (4.0 * cov).tobytes()

    @pytest.mark.parametrize("model", ["esnsm", "p1-d1", "p1-d2"])
    def test_mode_matches_scipy_bfgs_polished(self, model):
        # an oracle for the private BFGS: scipy's from the same start, then
        # the same Newton polish, reaches the same mode
        target = self._target(model)

        def neg(v):
            val, grad = target.log_target_grad_many(v[None])
            return -val[0], -grad[0]

        res = minimize(neg, target.default_start, jac=True, method="BFGS",
                       options={"maxiter": 500, "gtol": 1e-5})
        mode, _ = smc._newton_polish(target, res.x, -res.jac)
        eta = smc.laplace_init(target, target.default_start)
        np.testing.assert_allclose(eta.mean, mode, rtol=1e-9, atol=1e-9)

    def test_one_batch_per_gradient_and_for_the_hessian(self, monkeypatch):
        target = self._target("p1-d1")
        dim = target.dim
        evaluate = target.evaluate
        rows, grad_rows = [], []

        def counted(vmat, grad=False, *args):
            (grad_rows if grad else rows).append(vmat.shape[0])
            return evaluate(vmat, grad, *args)

        target.evaluate = counted
        smc.laplace_init(target, target.default_start)
        target.evaluate = evaluate
        _, _, calls = self._scalar_reference(target, target.default_start, monkeypatch)
        # one-row value and gradient calls for the start, for BFGS and for
        # each Newton step after the first, and the 2 dim points of each
        # gradient stencil as one batch; a stencil ends the polish
        assert rows == []
        assert grad_rows == [2 * dim if c == "H" else c for c in calls]
        assert calls.count("H") >= 2 and calls[-1] == "H"
        first = calls.index("H")
        assert calls[:first] == [1] * first and calls[first:].count(1) == calls.count("H") - 1

    @staticmethod
    def _benchmark_target(model):
        """The benchmark's seed-21, round-0 dataset of a ``fit-d1`` or
        ``esnsm`` fit, drawn by its own input generator."""
        path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("bench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        if model == "esnsm":
            x, s, y = inputs.selection_data(np.random.default_rng([21, 1, 0]), 1000)
            data = esnsm.EsnsmData(x, s, y[:, None])
            return esnsm.make_esnsm_target(
                data, esnsm.EsnsmHyper.defaults(1, 2, 2, data.n), [0, 1], [0, 2]
            )
        z = inputs.esn_draws(np.random.default_rng([21, 0, 0]), 1000, **inputs.D1_DESIGN)
        return models.make_iid_esn_target(z, priors.default_hyper(1)[0], "p1")

    @pytest.mark.parametrize("model", ["fit-d1", "esnsm"])
    def test_mode_does_not_ride_on_the_gradients_last_bits(self, model):
        # every gradient scaled by (1 + 1e-13 u), u fixed in [-1, 1]: scipy's
        # BFGS without the polish moved the fit-d1 mode by 5.4e-7
        target = self._benchmark_target(model)
        base = smc.laplace_init(target, target.default_start).mean
        u = np.random.default_rng(0).uniform(-1.0, 1.0, target.dim)
        evaluate = target.evaluate

        def nudged(vmat, grad=False, *args):
            values, extra = evaluate(vmat, grad, *args)
            return values, (extra * (1.0 + 1e-13 * u) if grad else extra)

        target.evaluate = nudged
        moved = smc.laplace_init(target, target.default_start).mean
        assert np.all(np.abs(moved - base) < 1e-10 * np.maximum(1.0, np.abs(base)))


class TestPilotInit:
    def test_gaussian_target_moments(self):
        target = gaussian_target(dim=1, mean=2.0, var=1.5)
        eta = smc.pilot_mh_init(target, 10_000, np.random.default_rng(0))
        assert abs(eta.mean[0] - 2.0) < 4 * math.sqrt(1.5 / 2500)  # IACT-inflated se
        assert eta.cov[0, 0] == pytest.approx(1.5, rel=0.3)

    def test_minimum_iterations_enforced(self):
        target = gaussian_target()
        with pytest.raises(ValueError):
            smc.pilot_mh_init(target, 999, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        target = gaussian_target(dim=2)
        a = smc.pilot_mh_init(target, 2000, np.random.default_rng(3))
        b = smc.pilot_mh_init(target, 2000, np.random.default_rng(3))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)


class TestInitialDistribution:
    """The start of every fit: Laplace, with the pilot as its fallback."""

    @staticmethod
    def _target():
        data = esn.sample(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0), 100, np.random.default_rng(3))
        return models.make_iid_esn_target(data[:, 0], priors.default_hyper(1)[0], "p1")

    @pytest.fixture()
    def pilot_runs(self, monkeypatch):
        runs, real = [], smc.pilot_mh_init

        def pilot(target, iterations, rng):
            runs.append(iterations)
            return real(target, iterations, rng)

        monkeypatch.setattr(smc, "pilot_mh_init", pilot)
        return runs

    def test_laplace_when_it_succeeds(self, pilot_runs):
        target = self._target()
        config = smc.SmcConfig(seed=5)
        eta = smc.initial_distribution(target, config)
        ref = smc.laplace_init(target, target.default_start)
        assert eta.mean.tobytes() == ref.mean.tobytes()
        assert eta.cov.tobytes() == (4.0 * ref.cov).tobytes()
        assert pilot_runs == []

    def test_pilot_when_laplace_fails(self, pilot_runs, monkeypatch):
        def fail(*args, **kwargs):
            raise InitializationError("no mode")

        target = self._target()
        config = smc.SmcConfig(seed=5, pilot_iterations=1200)
        monkeypatch.setattr(smc, "laplace_init", fail)
        eta = smc.initial_distribution(target, config)
        assert pilot_runs == [1200]
        rng = np.random.default_rng(np.random.SeedSequence([5, 0xE7A1]))
        ref = smc.pilot_mh_init(target, 1200, rng)
        assert eta.mean.tobytes() == ref.mean.tobytes()
        assert eta.cov.tobytes() == (4.0 * ref.cov).tobytes()

    def test_pilot_for_a_target_without_gradient(self, pilot_runs):
        # nothing is patched: the hook itself raises for want of a gradient
        target = smc.TargetModel(
            dim=1, evaluate=value_only(lambda vmat: -0.5 * (vmat[:, 0] - 2.0) ** 2)
        )
        config = smc.SmcConfig(seed=5, pilot_iterations=2000)
        eta = smc.initial_distribution(target, config)
        assert pilot_runs == [2000]
        rng = np.random.default_rng(np.random.SeedSequence([5, 0xE7A1]))
        ref = smc.pilot_mh_init(target, 2000, rng)
        assert eta.mean.tobytes() == ref.mean.tobytes()
        assert eta.cov.tobytes() == (4.0 * ref.cov).tobytes()
        assert abs(eta.mean[0] - 2.0) < 0.5

    def test_other_errors_propagate(self, pilot_runs, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not a package error")

        monkeypatch.setattr(smc, "laplace_init", fail)
        with pytest.raises(np.linalg.LinAlgError):
            smc.initial_distribution(self._target(), smc.SmcConfig())
        assert pilot_runs == []


class TestConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            smc.SmcConfig(ess_threshold_fraction=1.2)

    def test_short_pilot(self):
        smc.SmcConfig(pilot_iterations=1000)
        with pytest.raises(ValueError):
            smc.SmcConfig(pilot_iterations=999)


class TestHypothesisProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.floats(-30, 5), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_ess_bounds_property(self, lw):
        val = smc.ess(np.array(lw))
        assert 1.0 - 1e-9 <= val <= len(lw) + 1e-9


def _fd_log_jacobian(target, v, step=1e-4):
    """log |det d(to_constrained)/dv| by central differences."""
    cols = []
    for j in range(v.size):
        e = np.zeros(v.size)
        e[j] = step * max(1.0, abs(v[j]))
        cols.append((target.to_constrained(v + e) - target.to_constrained(v - e)) / (2 * e[j]))
    return np.linalg.slogdet(np.column_stack(cols))[1]


def _iid_params(theta, d, cls):
    sigma = np.zeros((d, d))
    sigma[np.tril_indices(d)] = theta[d : d + d * (d + 1) // 2]
    sigma = sigma + sigma.T - np.diag(np.diag(sigma))
    if cls is None:  # Gaussian: the ESN with zero shape and shift
        return esn.EsnParamsP1(theta[:d], sigma, np.zeros(d), 0.0)
    return cls(theta[:d], sigma, theta[-d - 1 : -1], theta[-1])


class TestBatchConsistency:
    """Each target's batch against its scalar oracle: the public scalar
    log-likelihood plus log-prior at the constrained point, plus the
    log-Jacobian taken by central differences of ``to_constrained``."""

    def _check(self, target, log_post, vmat):
        with np.errstate(all="ignore"):
            batch = target.evaluate(vmat)[0]
        oracle = []
        for v in vmat:
            try:
                oracle.append(log_post(target.to_constrained(v)) + _fd_log_jacobian(target, v))
            except (ParameterDomainError, np.linalg.LinAlgError):
                oracle.append(-math.inf)
        oracle = np.array(oracle)
        ok = (np.isneginf(batch) & np.isneginf(oracle)) | np.isclose(
            batch, oracle, atol=1e-6, rtol=1e-10
        )
        assert ok.all(), np.column_stack([batch, oracle])[~ok]

    def test_iid_model_batches_match_scalar(self):
        for model in ("p1", "p2", "gaussian"):
            for d in (1, 2):
                self._check(*self._iid_case(model, d))

    @staticmethod
    def _iid_case(model, d, n=200):
        rng = np.random.default_rng(30 + d)
        z = esn.sample(
            esn.EsnParamsP1(np.full(d, 2.0), 6.0 * np.eye(d) + 1.0, np.full(d, 5.0), -2.0),
            n, rng,
        )
        h1, h2 = priors.default_hyper(d)
        if model == "gaussian":
            target = models.make_gaussian_target(z, h1)

            def log_post(theta):
                p = _iid_params(theta, d, None)
                return esn.loglik(p, z) + priors.niw_logpdf(
                    p.xi, p.sigma, h1.xi0, h1.kappa, h1.nu, h1.V
                )
        else:
            hyper = h1 if model == "p1" else h2
            target = models.make_iid_esn_target(z, hyper, model)
            cls = esn.EsnParamsP1 if model == "p1" else esn.EsnParamsP2
            prior = priors.log_prior_p1 if model == "p1" else priors.log_prior_p2

            def log_post(theta):
                p = _iid_params(theta, d, cls)
                return esn.loglik(p, z) + prior(p, hyper)

        vmat = target.default_start + 0.3 * rng.normal(size=(40, target.dim))
        if model != "gaussian":
            # shift (p1) or truncation (p2) deep in both tails
            vmat[:4, -1] = [40.0, -40.0, 25.0, -25.0]
        return target, log_post, vmat

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_niw_prefix_taken_once_keeps_the_value_bytes(self, d):
        # the particle-independent prefix, taken once per target, then the
        # per-particle terms, in the left-to-right order of one expression
        rng = np.random.default_rng(40 + d)
        a = rng.normal(size=(d, d))
        xi0, kappa, nu, v = rng.normal(size=d), 0.3, d + 4.5, a @ a.T + np.eye(d)
        xi = rng.normal(size=(50, d))
        b = rng.normal(size=(50, d, d))
        sigma = np.einsum("nij,nkj->nik", b, b) + np.eye(d)
        prec, logdet = np.linalg.inv(sigma), np.linalg.slogdet(sigma)[1]
        got = models._niw_logpdf(xi0, kappa, nu, v)(xi, prec, logdet)[0]
        expect = (0.5 * nu * np.linalg.slogdet(v)[1] - 0.5 * nu * d * math.log(2.0)
                  - model_select.log_mv_gamma(d, nu / 2.0) - 0.5 * (nu + d + 1.0) * logdet
                  - 0.5 * np.einsum("njk,jk->n", prec, v)
                  + models._gauss_logpdf(xi, xi0, prec, logdet, kappa)[0])
        assert got.tobytes() == expect.tobytes()
        oracle = [priors.niw_logpdf(x, s, xi0, kappa, nu, v) for x, s in zip(xi, sigma)]
        np.testing.assert_allclose(got, oracle, rtol=1e-12)

    @pytest.mark.parametrize("gaussian_errors", [False, True])
    def test_esnsm_batch_matches_scalar(self, gaussian_errors):
        self._check(*self._esnsm_case(gaussian_errors))

    def test_tobit2_prior_has_no_shape_or_shift_term(self):
        # with Gaussian errors the shape and shift are pinned at zero, so the
        # batch is the scalar log-likelihood plus the Tobit-2 prior and
        # log|J|; the full prior at alpha = 0, lambda = 0 adds their log
        # densities there, -1.5 log 2 pi - log sigma2_alpha (-5.06 nats)
        target, log_post, vmat = self._esnsm_case(True)
        self._check(target, log_post, vmat)
        hyper = esnsm.EsnsmHyper.defaults(1, 2, 2, 300)
        x = np.random.default_rng(32).normal(size=(300, 3))
        for theta in target.to_constrained(vmat[4:10]):
            p = esnsm.params_from_particle(target.param_names, theta, 3)
            full = esnsm.log_prior_esnsm(p, hyper, x, [0, 1], [0, 2])
            tobit = esnsm.log_prior_esnsm(p, hyper, x, [0, 1], [0, 2], gaussian_errors=True)
            assert full - tobit == pytest.approx(
                -1.5 * math.log(2.0 * math.pi) - math.log(hyper.sigma2_alpha), abs=1e-12
            )

    @pytest.mark.parametrize("selected", [0, 1])
    def test_esnsm_batch_on_all_selected_or_all_censored_data(self, selected):
        # with no censored (or no selected) rows one bivariate-CDF block has
        # no columns; the target still matches its scalar oracle
        rng = np.random.default_rng(34)
        x = esnsm.CovariateSpec().draw(50, rng)
        y = x @ [3.0, -2.0, 0.0] + rng.normal(size=50) if selected else np.full(50, np.nan)
        data = esnsm.EsnsmData(x, np.full(50, selected), y[:, None])
        hyper = esnsm.EsnsmHyper.defaults(1, 2, 2, data.n)
        target = esnsm.make_esnsm_target(data, hyper, [0, 1], [0, 2])

        def log_post(theta):
            p = esnsm.params_from_particle(target.param_names, theta, 3)
            return esnsm.loglik(p, data) + esnsm.log_prior_esnsm(p, hyper, data.x, [0, 1], [0, 2])

        vmat = 0.3 * rng.normal(size=(10, target.dim))
        self._check(target, log_post, vmat)
        # the start takes a unit outcome variance where no row is selected
        assert np.isfinite(target.default_start).all()
        assert np.isfinite(target.log_target(target.default_start))
        value, grad = target.evaluate(vmat, True)
        assert np.array_equal(value, target.evaluate(vmat)[0])
        assert np.isfinite(grad).all()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("model", ["p1", "p2", "gaussian"])
    def test_iid_constrained_map_of_a_matrix_is_row_by_row(self, model, d):
        target, _, vmat = self._iid_case(model, d)
        rows = np.array([target.to_constrained(v) for v in vmat])
        assert np.array_equal(target.to_constrained(vmat), rows)

    @pytest.mark.parametrize("gaussian_errors", [False, True])
    def test_esnsm_constrained_map_of_a_matrix_is_row_by_row(self, gaussian_errors):
        target, _, vmat = self._esnsm_case(gaussian_errors)
        rows = np.array([target.to_constrained(v) for v in vmat])
        assert np.array_equal(target.to_constrained(vmat), rows)

    @staticmethod
    def _esnsm_case(gaussian_errors):
        rng = np.random.default_rng(32)
        truth = esnsm.EsnsmParams(
            [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [0.3 * math.sqrt(6.0)], [2.0, 1.0], -2.0
        )
        data = esnsm.simulate(truth, 300, esnsm.CovariateSpec(), rng)
        hyper = esnsm.EsnsmHyper.defaults(1, 2, 2, data.n)
        target = esnsm.make_esnsm_target(data, hyper, [0, 1], [0, 2], gaussian_errors)

        def log_post(theta):
            p = esnsm.params_from_particle(target.param_names, theta, 3)
            return esnsm.loglik(p, data) + esnsm.log_prior_esnsm(
                p, hyper, data.x, [0, 1], [0, 2], gaussian_errors=gaussian_errors
            )

        vmat = target.default_start + 0.3 * rng.normal(size=(30, target.dim))
        # error correlation tanh(w) within 1e-12 and 1e-9 of +-1
        w = target.param_names.index("sigma12")
        edge = math.atanh(1.0 - 1e-12)
        vmat[:4, w] = [edge, -edge, math.atanh(1.0 - 1e-9), -math.atanh(1.0 - 1e-9)]
        if not gaussian_errors:
            vmat[4:8, -1] = [40.0, -40.0, 25.0, -25.0]
        return target, log_post, vmat

    @staticmethod
    def _assert_row_invariant(target, vmat, rng):
        # a particle's value and gradient must not depend on where it sits
        # in the batch: the whole batch, the batch permuted, the batch cut
        # into chunks of a size other than the target's internal block, and
        # one-row calls all give the same bytes; the value that comes with a
        # gradient is the value without one
        perm = rng.permutation(vmat.shape[0])
        chunks = [vmat[i : i + 7] for i in range(0, vmat.shape[0], 7)]
        for evaluate in (lambda v: target.evaluate(v)[0], lambda v: target.evaluate(v, True)[1]):
            whole = evaluate(vmat)
            permuted = np.empty_like(whole)
            permuted[perm] = evaluate(vmat[perm])
            chunked = np.concatenate([evaluate(c) for c in chunks])
            single = np.concatenate([evaluate(v[None]) for v in vmat])
            assert np.isfinite(whole).all()
            for other in (permuted, chunked, single):
                assert whole.tobytes() == other.tobytes()
        values = target.log_target_many(vmat)
        assert values.tobytes() == target.log_target_grad_many(vmat)[0].tobytes()
        assert values.tobytes() == target.evaluate(vmat)[0].tobytes()
        assert values.tobytes() == target.log_target_screened_many(vmat)[0].tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", ["p1", "p2", "gaussian", "esnsm", "tobit2"])
    def test_empty_batch_through_every_entry_point(self, model):
        if model in ("esnsm", "tobit2"):
            target = self._esnsm_case(model == "tobit2")[0]
        else:
            z = np.random.default_rng(6).normal(size=(600, 2))
            h1, h2 = priors.default_hyper(2)
            target = (models.make_gaussian_target(z, h1) if model == "gaussian"
                      else models.make_iid_esn_target(z, h1 if model == "p1" else h2, model))
        empty = np.empty((0, target.dim))
        _, states = target.log_target_screened_many(target.default_start[None])
        k = states.shape[1]
        assert target.log_target_many(empty).shape == (0,)
        value, grad = target.log_target_grad_many(empty)
        assert value.shape == (0,) and grad.shape == (0, target.dim)
        assert target.to_constrained(empty).shape == (0, target.dim)
        never = lambda rows, bound: np.zeros(rows.size, bool)  # noqa: E731
        for given in ((), (np.empty((0, k)), never)):
            value, states = target.log_target_screened_many(empty, *given)
            assert value.shape == (0,) and states.shape == (0, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("model", ["p1", "p2", "gaussian"])
    def test_iid_batch_is_row_invariant(self, model, d):
        rng = np.random.default_rng(34 + d)
        z = esn.sample(
            esn.EsnParamsP1(np.full(d, 2.0), 6.0 * np.eye(d) + 1.0, np.full(d, 5.0), -2.0),
            500, rng,
        )
        h1, h2 = priors.default_hyper(d)
        if model == "gaussian":
            target = models.make_gaussian_target(z, h1)
        else:
            target = models.make_iid_esn_target(z, h1 if model == "p1" else h2, model)
        vmat = target.default_start + 0.3 * rng.normal(size=(200, target.dim))
        self._assert_row_invariant(target, vmat, rng)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("model", ["p1", "p2"])
    def test_iid_row_blocks_give_one_row_bytes_on_any_worker_count(self, model, d, monkeypatch):
        # Each group's pass of at least 2^16 points is cut into the fewest
        # blocks of at most 2^18 points whose count is a multiple of the
        # worker count, rows spread evenly.  On n = 1000, four groups of 250
        # observations, three batches, block sizes per pass by worker count:
        cases = [
            # 525000 points per pass: three blocks on one worker, four on two
            (2100, {2: [525, 525, 525, 525], 1: [700, 700, 700]}),
            # 66000 points per pass, just above 2^16
            (264, {2: [132, 132], 1: [264]}),
            # an odd, survivor-sized subset of a 2000-row batch
            (1101, {2: [550, 551], 1: [550, 551]}),
        ]
        # two workers force the thread pool even on a one-core machine, and
        # the errors that rows 0-6 raise must stay silent on its threads as
        # on the calling one: row 6's skew arguments are near -1e307, so its
        # m_i (about |arg_i|) overflow when summed inside _group_sums
        calls = []
        group_sums = models._group_sums

        def spy(z, ab):
            calls.append((z.shape[0], ab.shape[0], threading.get_ident()))
            return group_sums(z, ab)

        monkeypatch.setattr(models, "_group_sums", spy)
        rng = np.random.default_rng(40 + d)
        z = esn.sample(
            esn.EsnParamsP1(np.full(d, 2.0), 6.0 * np.eye(d) + 1.0, np.full(d, 5.0), -2.0),
            1000, rng,
        )
        h1, h2 = priors.default_hyper(d)
        target = models.make_iid_esn_target(z, h1 if model == "p1" else h2, model)
        for rows, blocks in cases:
            vmat = target.default_start + 0.3 * rng.normal(size=(rows, target.dim))
            vmat[:4, -1] = [40.0, -40.0, 25.0, -25.0]  # shift (p1) or truncation (p2) in the tails
            vmat[4, d] = -800.0  # a scale whose Cholesky diagonal underflows to 0
            vmat[5, 0] = np.nan
            vmat[6, -1] = -1e307  # shift (p1) or truncation (p2)
            single = [target.log_target_grad_many(v[None]) for v in vmat]
            single = tuple(np.concatenate(p) for p in zip(*single))
            finite = np.isfinite(single[0])
            assert finite.sum() == rows - 3 and np.isneginf(single[0][4:7]).all()
            for workers in (2, 1):
                monkeypatch.setattr(models, "_workers", lambda: workers)
                calls.clear()
                batch = target.log_target_grad_many(vmat)
                assert batch[0].tobytes() == single[0].tobytes()
                assert batch[1][finite].tobytes() == single[1][finite].tobytes()
                assert target.log_target_many(vmat).tobytes() == single[0].tobytes()
                # one pass per group, for the gradient and again for the value
                assert {n for n, _, _ in calls} == {250}
                assert sorted(size for _, size, _ in calls) == sorted(8 * blocks[workers])
                off_main = {ident for _, _, ident in calls} - {threading.get_ident()}
                assert bool(off_main) == (workers > 1)

    @pytest.mark.parametrize("model", ["p1", "p2"])
    @pytest.mark.parametrize(
        "columns",
        [
            pytest.param(lambda a: [np.full_like(a, 0.1)], id="constant-column"),
            pytest.param(lambda a: [a, 2.0 * a - 1.0], id="collinear-columns"),
        ],
    )
    def test_iid_singular_sample_covariance_is_data_error(self, model, columns):
        z = np.column_stack(columns(np.random.default_rng(5).normal(size=60)))
        hyper = priors.default_hyper(z.shape[1])[0 if model == "p1" else 1]
        with pytest.raises(DataError, match="sample covariance is singular"):
            models.make_iid_esn_target(z, hyper, model)

    @pytest.mark.parametrize("gaussian_errors", [False, True])
    def test_esnsm_batch_is_row_invariant(self, gaussian_errors):
        self._esnsm_row_invariance(gaussian_errors, [0, 1, 2], [0, 1, 2], 1000, 200)

    @pytest.mark.parametrize("gaussian_errors", [False, True])
    def test_esnsm_two_term_batch_is_row_invariant(self, gaussian_errors):
        # two terms each, as the benchmark fits: the prior's quadratic forms
        # were once summed in another order for a lone row, which shows in
        # the total only when few observations leave the prior some weight
        self._esnsm_row_invariance(gaussian_errors, [0, 1], [0, 2], 40, 2000)

    @pytest.mark.parametrize("gaussian_errors", [False, True])
    def test_esnsm_batch_computes_per_particle_terms_once(self, gaussian_errors, monkeypatch):
        # a 200-row batch on n = 1000: the per-particle terms are computed
        # once for the whole batch (one inverse Mills ratio over all 200
        # rows for the value, three with the gradient), each row block
        # makes two CDF calls (censored, then observed points), and the
        # value that comes with the gradient is the value alone
        rng = np.random.default_rng(36)
        truth = esnsm.EsnsmParams(
            [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [0.3 * math.sqrt(6.0)], [2.0, 1.0], -2.0
        )
        data = esnsm.simulate(truth, 1000, esnsm.CovariateSpec(), rng)
        hyper = esnsm.EsnsmHyper.defaults(1, 2, 2, data.n)
        target = esnsm.make_esnsm_target(data, hyper, [0, 1], [0, 2], gaussian_errors)
        vmat = target.default_start + 0.3 * rng.normal(size=(200, target.dim))
        n_cen = int(np.sum(data.s == 0))
        cdf_calls, mills_calls = [], []
        real_cdf, real_mills = normals.log_bvn_cdf, normals.mills_ratio_inv

        def cdf(h, k, r):
            cdf_calls.append(np.shape(h))
            return real_cdf(h, k, r)

        def mills(x):
            mills_calls.append(np.shape(x))
            return real_mills(x)

        monkeypatch.setattr(normals, "log_bvn_cdf", cdf)
        monkeypatch.setattr(normals, "mills_ratio_inv", mills)

        def counted(evaluate, n_mills):
            cdf_calls.clear()
            mills_calls.clear()
            out = evaluate(vmat)
            # the CDF's deep-tail rule takes its inverse Mills ratios on 2-d arrays
            assert [s for s in mills_calls if len(s) == 1] == [(200,)] * n_mills
            blocks = [s[0] for s in cdf_calls[::2]]
            assert sum(blocks) == 200 and 1 < len(blocks) < 200
            assert set(blocks[:-1]) == {blocks[0]} and blocks[-1] <= blocks[0]
            assert cdf_calls[::2] == [(b, n_cen) for b in blocks]
            assert cdf_calls[1::2] == [(b, data.n - n_cen) for b in blocks]
            return out

        values = counted(target.log_target_many, 1)
        assert np.isfinite(values).all()
        assert counted(target.log_target_grad_many, 3)[0].tobytes() == values.tobytes()

    @staticmethod
    def _central_differences(target, v, step):
        """Central differences of ``log_target_many`` at v, the 2 dim points in one call."""
        h = step * np.maximum(1.0, np.abs(v))
        f = target.log_target_many(np.concatenate([v + np.diag(h), v - np.diag(h)]))
        return (f[: v.size] - f[v.size :]) / (2.0 * h)

    def _assert_gradient_matches_differences(self, target, vmat):
        """The analytic gradient of every row against central differences:
        |g - fd| <= 1e-6 (|g| + 1) per entry."""
        values, grads = target.evaluate(vmat, True)
        assert values.tobytes() == target.log_target_many(vmat).tobytes()
        assert np.isfinite(grads).all()
        for v, g in zip(vmat, grads):
            fd = self._central_differences(target, v, 1e-5)
            assert np.all(np.abs(g - fd) <= 1e-6 * (np.abs(g) + 1.0)), np.column_stack([g, fd])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("model", ["p1", "p2", "gaussian"])
    def test_iid_gradient_matches_central_differences(self, model, d):
        # the ESN cases' first rows put the shift deep in both tails; on
        # n = 750 their skew sum is three groups
        for n in (200,) if model == "gaussian" else (200, 750):
            target, _, vmat = self._iid_case(model, d, n)
            self._assert_gradient_matches_differences(target, vmat)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gaussian_errors", [False, True])
    def test_esnsm_gradient_matches_central_differences(self, gaussian_errors):
        target, _, vmat = self._esnsm_case(gaussian_errors)
        # rows 4-7 hold lambda = +-40, +-25 (shape and shift free)
        self._assert_gradient_matches_differences(target, vmat[4:])
        # rows 0-3: tanh(w) within 1e-12 and 1e-9 of +-1.  The value there is
        # of order -1e11 to -1e13 and takes 1 - s12^2 / s1 as the scalar route
        # does, with a relative rounding error up to about 1e-4, so the
        # differences need a wide step and the entries are compared with the
        # largest one
        grads = target.evaluate(vmat[:4], True)[1]
        assert np.isfinite(grads).all()
        for v, g in zip(vmat[:4], grads):
            fd = self._central_differences(target, v, 1e-2)
            assert np.max(np.abs(g - fd)) <= 5e-2 * np.max(np.abs(g)), np.column_stack([g, fd])

    def _esnsm_row_invariance(self, gaussian_errors, outcome_terms, select_terms, n, rows):
        rng = np.random.default_rng(33)
        truth = esnsm.EsnsmParams(
            [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [0.3 * math.sqrt(6.0)], [2.0, 1.0], -2.0
        )
        data = esnsm.simulate(truth, n, esnsm.CovariateSpec(), rng)
        hyper = esnsm.EsnsmHyper.defaults(1, len(outcome_terms), len(select_terms), data.n)
        target = esnsm.make_esnsm_target(data, hyper, outcome_terms, select_terms, gaussian_errors)
        vmat = target.default_start + 0.3 * rng.normal(size=(rows, target.dim))
        self._assert_row_invariant(target, vmat, rng)
