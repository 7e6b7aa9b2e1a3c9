"""Span tracing installed from outside the program.

``Tracer.install`` replaces public functions of the ``esnsmc`` modules,
at the module attributes the callers look them up through, with
wrappers that record a span per call: name, start, end, parent span and
operation id, plus a few counts taken from the call's arguments and
return value.  ``uninstall`` puts the originals back.  A name that no
longer exists is skipped and reported as absent, and every metric built
on it is left out of the result.

``round_metrics`` turns the spans of one round into the per-layer
metrics below.  Busy time is the summed duration of a name's spans;
self time subtracts the time covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

_LOG_TAIL = math.log(1e-10)  # log_bvn_cdf's per-element quadrature branch


def _bvn_counts(args, kwargs, result):
    h, k, r = args
    points = np.broadcast(np.asarray(h), np.asarray(k)).size
    return {
        "points": points,
        "hi_corr_points": points if abs(float(r)) >= 0.925 else 0,
        "tail_points": int(np.count_nonzero(np.asarray(result) <= _LOG_TAIL)),
    }


def _row_counts(args, kwargs, result):
    return {"rows": result.shape[0], "nonfinite_rows": int(np.count_nonzero(~np.isfinite(result)))}


def _unique_frac(args, kwargs, result):
    p = result.particles
    return {"unique_frac": np.unique(p, axis=0).shape[0] / p.shape[0]}


def _run_counts(args, kwargs, result):
    acc = [rec.acceptance_rate for rec in result.diagnostics]
    return {"stages": len(acc), "acceptance_sum": float(sum(acc))}


# (module, attribute path, span name, counts taken from the call)
WRAPS = [
    ("esnsmc.esnsm", "log_bvn_cdf", "normals.log_bvn_cdf", _bvn_counts),
    ("esnsmc.esnsm", "loglik", "esnsm.loglik", None),
    ("esnsmc.esnsm", "log_prior_esnsm", "esnsm.log_prior_esnsm", None),
    ("esnsmc.esnsm", "make_esnsm_target", "esnsm.make_esnsm_target", None),
    ("esnsmc.esnsm", "marginal_effect", "esnsm.marginal_effect", None),
    ("esnsmc.esn", "loglik", "esn.loglik", None),
    ("esnsmc.priors", "log_prior_p1", "priors.log_prior_p1", None),
    ("esnsmc.models", "make_iid_esn_target", "models.make_iid_esn_target", None),
    ("esnsmc.smc", "TargetModel.log_target_many", "smc.TargetModel.log_target_many", _row_counts),
    ("esnsmc.smc", "TargetModel.log_target", "smc.TargetModel.log_target", None),
    ("esnsmc.smc", "run", "smc.run", _run_counts),
    ("esnsmc.smc", "next_temperature", "smc.next_temperature", None),
    ("esnsmc.smc", "evidence_increment", "smc.evidence_increment", None),
    ("esnsmc.smc", "reweight", "smc.reweight", None),
    ("esnsmc.smc", "systematic_resample", "smc.systematic_resample", None),
    ("esnsmc.smc", "rwmh_propagate", "smc.rwmh_propagate", _unique_frac),
    ("esnsmc.smc", "laplace_init", "smc.laplace_init", None),
    ("esnsmc.smc", "pilot_mh_init", "smc.pilot_mh_init", None),
    ("esnsmc.model_select", "gaussian_log_evidence", "model_select.gaussian_log_evidence", None),
    ("esnsmc.cli", "summarize_particles", "summaries.summarize_particles", None),
    ("esnsmc.cli", "read_iid_csv", "cli.read_iid_csv", None),
    ("esnsmc.cli", "read_esnsm_csv", "cli.read_esnsm_csv", None),
    ("esnsmc.cli", "main", "cli.main", None),
]

_INITS = ("smc.laplace_init", "smc.pilot_mh_init")
# target evaluations: a scalar call counts once, a batch counts its rows
_EVALS = {"smc.TargetModel.log_target": False, "smc.TargetModel.log_target_many": True}

# Per-layer metrics: (name, unit, better).  Values are per round (all the
# round's commands together); a run reports the median over its rounds.
LAYER_METRICS = [
    ("normals.log_bvn_cdf.calls", "count", "lower"),
    ("normals.log_bvn_cdf.points", "count", "lower"),
    ("normals.log_bvn_cdf.busy_s", "s", "lower"),
    ("normals.log_bvn_cdf.ns_per_point", "ns", "lower"),
    ("normals.log_bvn_cdf.hi_corr_points", "count", "lower"),
    ("normals.log_bvn_cdf.tail_points", "count", "lower"),
    ("esnsm.loglik.calls", "count", "lower"),
    ("esnsm.loglik.busy_s", "s", "lower"),
    ("esnsm.loglik.self_s", "s", "lower"),
    ("esnsm.log_prior_esnsm.calls", "count", "lower"),
    ("esnsm.log_prior_esnsm.busy_s", "s", "lower"),
    ("esnsm.make_esnsm_target.busy_s", "s", "lower"),
    ("esnsm.marginal_effect.calls", "count", "lower"),
    ("esnsm.marginal_effect.busy_s", "s", "lower"),
    ("esn.loglik.calls", "count", "lower"),
    ("esn.loglik.busy_s", "s", "lower"),
    ("priors.log_prior_p1.calls", "count", "lower"),
    ("priors.log_prior_p1.busy_s", "s", "lower"),
    ("models.make_iid_esn_target.busy_s", "s", "lower"),
    ("smc.TargetModel.log_target_many.calls", "count", "lower"),
    ("smc.TargetModel.log_target_many.rows", "count", "lower"),
    ("smc.TargetModel.log_target_many.busy_s", "s", "lower"),
    ("smc.TargetModel.log_target_many.us_per_row", "us", "lower"),
    ("smc.TargetModel.log_target_many.nonfinite_rows", "count", "lower"),
    ("smc.TargetModel.log_target.calls", "count", "lower"),
    ("smc.TargetModel.log_target.busy_s", "s", "lower"),
    ("smc.run.busy_s", "s", "lower"),
    ("smc.run.self_s", "s", "lower"),
    ("smc.next_temperature.busy_s", "s", "lower"),
    ("smc.evidence_increment.busy_s", "s", "lower"),
    ("smc.reweight.busy_s", "s", "lower"),
    ("smc.systematic_resample.busy_s", "s", "lower"),
    ("smc.rwmh_propagate.busy_s", "s", "lower"),
    ("smc.rwmh_propagate.self_s", "s", "lower"),
    ("smc.rwmh_propagate.unique_frac", "fraction", "higher"),
    ("smc.stages", "count", "lower"),
    ("smc.acceptance_mean", "fraction", "higher"),
    ("smc.laplace_init.busy_s", "s", "lower"),
    ("smc.laplace_init.target_evals", "count", "lower"),
    ("smc.pilot_mh_init.busy_s", "s", "lower"),
    ("smc.pilot_mh_init.target_evals", "count", "lower"),
    ("model_select.gaussian_log_evidence.busy_s", "s", "lower"),
    ("summaries.summarize_particles.busy_s", "s", "lower"),
    ("cli.read_iid_csv.busy_s", "s", "lower"),
    ("cli.read_esnsm_csv.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    # measured by the benchmark around whole commands, not from spans:
    # untraced compare / me wall time, and traced minus untraced fit time
    ("cli.compare.wall_s", "s", "lower"),
    ("cli.me.wall_s", "s", "lower"),
    ("trace.fit_overhead_s", "s", "lower"),
]
# metrics named after a span other than their own prefix
_SOURCE = {"smc.stages": "smc.run", "smc.acceptance_mean": "smc.run"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, counts]
        self._stack = []
        self._saved = []
        self.op = 0
        self.absent = []
        self.installed_names = set()

    def install(self, op: int) -> None:
        self.op = op
        self.absent = []
        self.installed_names = set()
        for module, path, name, counts in WRAPS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counts))
            self.installed_names.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list:
        """Hand over the spans recorded so far; call between installs."""
        spans, self.spans = self.spans, []
        return spans


def round_metrics(spans: list, installed: set) -> dict:
    """Per-layer metrics of one round's spans; metrics whose span name was
    not installed are left out."""
    child_ns = [0] * len(spans)
    for _name, t0, t1, parent, _op, _counts in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    stats = {}
    for i, (name, t0, t1, parent, _op, counts) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        st["calls"] += 1
        st["busy_ns"] += t1 - t0
        st["self_ns"] += t1 - t0 - child_ns[i]
        for key, val in (counts or {}).items():
            st[key] = st.get(key, 0) + val
        if name in _EVALS:
            # credit the nearest initialiser above, unless another
            # evaluation (which already counts this one) sits in between
            anc = parent
            while anc >= 0 and spans[anc][0] not in _INITS and spans[anc][0] not in _EVALS:
                anc = spans[anc][3]
            if anc >= 0 and spans[anc][0] in _INITS:
                init = stats.setdefault(spans[anc][0], {"calls": 0, "busy_ns": 0, "self_ns": 0})
                init["target_evals"] = init.get("target_evals", 0) + (
                    (counts or {}).get("rows", 0) if _EVALS[name] else 1
                )

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for metric, _unit, _better in LAYER_METRICS:
        source = _SOURCE.get(metric) or metric.rsplit(".", 1)[0]
        if source not in installed:
            continue
        st = stats.get(source, {})
        field = metric.rsplit(".", 1)[1]
        busy_ns = st.get("busy_ns", 0)
        if field in ("busy_s", "self_s"):
            val = st.get(field[:-2] + "_ns", 0) * 1e-9
        elif field == "ns_per_point":
            val = ratio(busy_ns, st.get("points", 0))
        elif field == "us_per_row":
            val = ratio(busy_ns, st.get("rows", 0), 1e-3)
        elif field == "unique_frac":
            val = ratio(st.get("unique_frac", 0), st.get("calls", 0))
        elif field == "acceptance_mean":
            val = ratio(st.get("acceptance_sum", 0), st.get("stages", 0))
        else:
            val = st.get(field, 0)
        out[metric] = val
    return out
