"""Benchmark workloads: seeded inputs, the commands of one round, and the
correctness gates every command's output must pass.

A round is the fixed command sequence a workload repeats while it
measures.  For ``iid``: a d=1 ``fit``, two ``compare`` runs (paper-design
ESN data, then Gaussian data) and a d=2 ``fit``.  For ``esnsm``: ``fit``
with a particle dump, then ``me`` on that dump.  Round r uses dataset r
modulo the number generated and its own sampler seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from jsonschema import Draft202012Validator

import esnsmc
import inputs
from esnsmc import model_select, priors

WORKLOADS = ("iid", "esnsm")

# Full-size designs.  A ``truths`` entry (value, rel) accepts a posterior
# mean with |mean - value| <= max(rel |value|, 5 posterior sd), so a
# posterior the data alone put further out passes.
FULL = {
    "iid": dict(
        n=1000, particles=2000, compare_n=100, compare_particles=2000,
        d2_n=500, d2_particles=250, datasets=16,
        # the paper design of the d=1 fit
        truths={"xi": (2.0, 0.05), "sigma2": (6.0, 0.05), "alpha": (5.0, 0.05),
                "lambda": (-2.0, 0.05)},
    ),
    "esnsm": dict(
        n=1000, particles=200, pilot_iterations=2000, datasets=16,
        # the criterion-8 band: within 5% of the true coefficient
        truths={"beta1_0": (3.0, 0.05), "beta1_1": (-2.0, 0.05)},
    ),
}
# Self-test sizes: one quick round per workload, no posterior checks.
TINY = {
    "iid": dict(n=100, particles=200, compare_n=100, compare_particles=200,
                d2_n=100, d2_particles=200, datasets=1),
    "esnsm": dict(n=200, particles=100, pilot_iterations=1000, datasets=1),
}


@dataclass
class Op:
    """One CLI command: its config, the files it writes (compared byte for
    byte between plain and traced runs) and the gate on its output."""

    kind: str
    config: dict
    out: Path
    extra_outputs: tuple
    check: Callable[[dict], list]
    label: str = ""  # names the command in ``info``; defaults to ``kind``

    def __post_init__(self):
        self.label = self.label or self.kind


class Workload:
    def __init__(self, name: str, seed: int, work: Path, tiny: bool):
        self.name = name
        self.wid = WORKLOADS.index(name)
        self.seed = seed % 2**64  # seed sequences take non-negative entropy
        self.work = work
        self.sizes = (TINY if tiny else FULL)[name]
        self.data_dir = work / "data"
        schemas = Path(esnsmc.__file__).parent / "schemas"
        self.validators = {
            kind: Draft202012Validator(json.loads((schemas / f"{kind}.schema.json").read_text()))
            for kind in ("fit", "compare", "me")
        }

    # ------------------------------------------------------------ inputs

    def _rng(self, *key):
        return np.random.default_rng([self.seed, self.wid, *key])

    def op_seed(self, r: int) -> int:
        return int(np.random.SeedSequence([self.seed, self.wid, r]).generate_state(1)[0] >> 1)

    def prepare(self) -> None:
        """Write every dataset this run uses, plus the warm-up inputs."""
        self.data_dir.mkdir(parents=True, exist_ok=True)
        sz = self.sizes
        for i in range(sz["datasets"]):
            rng = self._rng(i)
            if self.name == "iid":
                inputs.write_iid_csv(self._csv("fit", i), inputs.esn_draws(rng, sz["n"], **inputs.D1_DESIGN))
                inputs.write_iid_csv(
                    self._csv("esn", i), inputs.esn_draws(rng, sz["compare_n"], **inputs.D1_DESIGN)
                )
                inputs.write_iid_csv(
                    self._csv("gauss", i), rng.normal(2.0, math.sqrt(6.0), size=(sz["compare_n"], 1))
                )
                inputs.write_iid_csv(
                    self._csv("d2fit", i), inputs.esn_draws(rng, sz["d2_n"], **inputs.D2_DESIGN)
                )
            else:
                inputs.write_selection_csv(self._csv("fit", i), *inputs.selection_data(rng, sz["n"]))
        warm = self._rng(10**6)
        inputs.write_iid_csv(self.data_dir / "warm.csv", inputs.esn_draws(warm, 50, **inputs.D1_DESIGN))
        if self.name == "esnsm":
            inputs.write_selection_csv(self.data_dir / "warm_sm.csv", *inputs.selection_data(warm, 20))
            true = [3.0, -2.0, 1.5, 2.0, 6.0, 0.3 * math.sqrt(6.0), 2.0, 1.0, -2.0]
            (self.data_dir / "warm_dump.csv").write_text(
                "beta1_0,beta1_1,beta2_0,beta2_2,sigma1,sigma12,alpha1,alpha2,lambda\n"
                + 2 * (",".join(repr(v) for v in true) + "\n")
            )

    def warm_up_ops(self) -> list:
        out = self.work / "warm"
        ops = [self._fit("esn-p1", self.data_dir / "warm.csv", 1, out, 100, checked=False)]
        if self.name == "esnsm":
            ops.append(self._me(self.data_dir / "warm_sm.csv", self.data_dir / "warm_dump.csv", 1, out, 20))
        return ops

    def _csv(self, kind: str, i: int) -> Path:
        return self.data_dir / f"{kind}{i}.csv"

    # ------------------------------------------------------------ rounds

    def round_ops(self, r: int, out: Path) -> list:
        """Commands of round r, writing their outputs under ``out``."""
        sz = self.sizes
        i = r % sz["datasets"]
        seed = self.op_seed(r)
        if self.name == "iid":
            return [
                self._fit("esn-p1", self._csv("fit", i), seed, out, sz["particles"], label="fit-d1"),
                self._compare(self._csv("esn", i), seed, out / "esn", label="compare-esn"),
                self._compare(self._csv("gauss", i), seed, out / "gauss", label="compare-gauss"),
                self._fit("esn-p1", self._csv("d2fit", i), seed, out / "d2", sz["d2_particles"],
                          checked=False, label="fit-d2"),
            ]
        data = self._csv("fit", i)
        return [
            self._fit("esnsm", data, seed, out, sz["particles"]),
            self._me(data, out / "fit.particles.csv", seed, out, sz["n"]),
        ]

    def _fit(self, model, data, seed, out, particles, checked=True, label="") -> Op:
        """A fit; ``checked`` applies the workload's ``truths``."""
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"model": model, "seed": seed, "input": str(data), "particles": particles}
        extra = ()
        checks = self.sizes if checked else {}
        truths = checks.get("truths", {})
        if model == "esnsm":
            dump = out / "fit.particles.csv"
            cfg.update(outcome_terms=[0, 1], select_terms=[0, 2], dump_particles=str(dump),
                       pilot_iterations=self.sizes["pilot_iterations"])
            extra = (dump,)

        def check(res):
            bad = [] if math.isfinite(res["log_evidence"]) else ["log_evidence not finite"]
            for name, (value, rel) in truths.items():
                est = res["parameters"][name]
                if abs(est["mean"] - value) > max(rel * abs(value), 5.0 * est["sd"]):
                    bad.append(f"posterior mean {name}={est['mean']:.4g} (sd {est['sd']:.3g}) "
                               f"too far from {value}")
            return bad

        return Op("fit", cfg, out / "fit.json", extra, check, label)

    def _compare(self, data, seed, out, label="") -> Op:
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"model": "esn-p1", "seed": seed, "input": str(data),
               "particles": self.sizes["compare_particles"]}

        def check(res):
            bad = [f"{k} not finite" for k in ("log_m1", "log_m0") if not math.isfinite(res[k])]
            z = np.loadtxt(data, delimiter=",", skiprows=1, ndmin=2)
            m0 = model_select.gaussian_log_evidence(z, priors.default_hyper(z.shape[1])[0])
            if not abs(res["log_m0"] - m0) <= 1e-9:
                bad.append(f"log_m0 {res['log_m0']!r} != closed form {m0!r}")
            return bad

        return Op("compare", cfg, out / "compare.json", (), check, label)

    def _me(self, data, dump, seed, out, n) -> Op:
        out.mkdir(parents=True, exist_ok=True)
        cfg = {"model": "esnsm", "seed": seed, "input": str(data),
               "particle_dump": str(dump), "covariate_index": 2}

        def check(res):
            bad = [] if math.isfinite(res["average_marginal_effect"]) else ["AME not finite"]
            if res["n_individuals"] != n or res["covariate_index"] != 2:
                bad.append("me output describes the wrong data")
            return bad

        return Op("me", cfg, out / "me.json", (), check)

    def gate(self, op: Op, rc: int) -> list:
        """Failure messages for a finished command; empty when it passed."""
        if rc != 0:
            return [f"{op.kind} exited {rc}"]
        try:
            res = json.loads(op.out.read_text())
        except (OSError, ValueError) as exc:
            return [f"{op.kind} wrote no readable output: {exc}"]
        errors = [e.message for e in self.validators[op.kind].iter_errors(res)]
        if errors:
            return errors
        try:
            return op.check(res)
        except KeyError as exc:
            return [f"{op.kind} output lacks {exc}"]
