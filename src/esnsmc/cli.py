"""Command-line interface: simulate, fit, compare, marginal effects.

One command is one process; every random quantity derives from the
single config seed, so reruns are byte-identical.  Output JSON is
written with a fixed key order.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from importlib import resources

import numpy as np

from . import esn, esnsm, model_select, models, priors, smc
from .errors import (
    ConfigError,
    DataError,
    EsnError,
    NumericalError,
    ParameterDomainError,
)
from .summaries import summarize_particles

_MODELS = ("esn-p1", "esn-p2", "gaussian", "esnsm")

_KNOWN_KEYS = {
    "model", "seed", "n", "params", "input", "output", "particles", "mh_steps",
    "ess_threshold_fraction", "bisect_epsilon", "acceptance_band", "scale_init",
    "pilot_iterations", "eta1_inflation", "hyper", "truth",
    "dump_particles", "outcome_terms", "select_terms", "gaussian_errors",
    "covariates", "particle_dump", "covariate_index", "me_output_csv",
}


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    if cfg.get("model") not in _MODELS:
        raise ConfigError(f"config must set model to one of {_MODELS}")
    return cfg


def _require_seed(cfg: dict) -> int:
    if "seed" not in cfg:
        raise ConfigError("a seed is required")
    return _setting(cfg, "seed", None, int)


def _setting(cfg: dict, key: str, default, kind):
    """``cfg[key]`` (or ``default``) converted by ``kind``; a value that does
    not convert is a configuration error."""
    try:
        return kind(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key}: {cfg.get(key)!r}") from exc


def _build_hyper(cfg: dict, d: int):
    h1, h2 = priors.default_hyper(d)
    over = cfg.get("hyper", {})
    if not isinstance(over, dict):
        raise ConfigError("hyper must be an object")
    try:
        for key, val in over.items():
            owner = h1 if hasattr(h1, key) else h2 if hasattr(h2, key) else None
            if owner is None:
                raise ConfigError(f"unknown hyperparameter {key!r}")
            cur = getattr(owner, key)
            val = np.asarray(val, float) if isinstance(cur, np.ndarray) else float(val)
            setattr(owner, key, val)
        h1.__post_init__()
        h2.__post_init__()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid hyperparameters: {exc}") from exc
    return h1, h2


def _params_from_config(cfg: dict):
    model = cfg["model"]
    p = cfg.get("params")
    if not isinstance(p, dict):
        raise ConfigError("simulate needs a params object")
    try:
        if model == "esn-p1":
            return esn.EsnParamsP1(p["xi"], p["sigma"], p["alpha"], p["lambda"])
        if model == "esn-p2":
            return esn.EsnParamsP2(p["xi"], p["omega"], p["d"], p["c"])
        if model == "gaussian":
            return esn.EsnParamsP1(p["xi"], p["sigma"], np.zeros_like(np.atleast_1d(p["xi"])), 0.0)
        return esnsm.EsnsmParams(
            p["B"], p["beta2"], p["sigma1"], p["sigma12"], p["alpha"], p["lambda"]
        )
    except KeyError as exc:
        raise ConfigError(f"params block is missing {exc}") from exc
    except (ParameterDomainError, ValueError) as exc:
        raise ConfigError(f"invalid parameter values: {exc}") from exc


# ---------------------------------------------------------------- CSV I/O


def _write_matrix_csv(path: str, header: list[str], matrix: np.ndarray) -> None:
    """A header line, then one line per matrix row of ``repr`` floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


def write_iid_csv(path: str, data: np.ndarray) -> None:
    data = np.atleast_2d(data)
    _write_matrix_csv(path, [f"y{j + 1}" for j in range(data.shape[1])], data)


def _read_csv(path: str, what: str):
    """Header and non-empty rows of a CSV file; a missing file, or one with
    no header or no rows, is a data error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {path}") from exc
    except StopIteration as exc:
        raise DataError(f"{what} is empty") from exc
    if not rows:
        raise DataError(f"{what} has no data rows")
    return header, rows


def _matrix(rows, what: str) -> np.ndarray:
    """The float matrix of CSV rows; a non-number or a ragged row is a
    data error."""
    try:
        return np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise DataError(f"malformed {what}: {exc}") from exc


def read_iid_csv(path: str) -> np.ndarray:
    header, rows = _read_csv(path, "dataset")
    if not all(h.startswith("y") for h in header):
        raise DataError(f"unexpected IID data header: {header}")
    return _matrix(rows, "dataset")


def write_esnsm_csv(path: str, data: esnsm.EsnsmData) -> None:
    k = data.x.shape[1]
    d = data.y.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{j + 1}" for j in range(k)] + ["s"] + [f"y{j + 1}" for j in range(d)]
        )
        for i in range(data.n):
            yvals = [
                "" if not math.isfinite(v) else repr(float(v)) for v in data.y[i]
            ]
            writer.writerow([repr(float(v)) for v in data.x[i]] + [int(data.s[i])] + yvals)


def read_esnsm_csv(path: str) -> esnsm.EsnsmData:
    header, rows = _read_csv(path, "dataset")
    xs = [h for h in header if h.startswith("x")]
    ys = [h for h in header if h.startswith("y")]
    if "s" not in header or not xs or not ys:
        raise DataError(f"unexpected selection-data header: {header}")
    s_col = header.index("s")
    try:
        x = np.array([[float(v) for v in row[: len(xs)]] for row in rows])
        s = np.array([int(row[s_col]) for row in rows])
        y = np.array(
            [[float(v) if v != "" else np.nan for v in row[s_col + 1 :]] for row in rows]
        )
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed dataset: {exc}") from exc
    return esnsm.EsnsmData(x, s, y)


def _read_particles_csv(path: str):
    names, rows = _read_csv(path, "particle dump")
    return names, _matrix(rows, "particle dump")


def _emit(cfg: dict, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    out = cfg.get("output")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _stage_log(result: smc.SmcResult) -> list[dict]:
    """Stage records for the emitted JSON; wall-clock timings are dropped so
    identical seeds produce identical bytes."""
    out = []
    for rec in result.diagnostics:
        d = asdict(rec)
        d.pop("wall_time_ms")
        out.append(d)
    return out


def _smc_config(cfg: dict, seed: int) -> smc.SmcConfig:
    band = cfg.get("acceptance_band", (0.2, 0.6))
    try:
        return smc.SmcConfig(
            n_particles=int(cfg.get("particles", 10_000)),
            ess_threshold_fraction=float(cfg.get("ess_threshold_fraction", 0.5)),
            mh_steps=int(cfg.get("mh_steps", 3)),
            bisect_epsilon=float(cfg.get("bisect_epsilon", 1e-4)),
            scale_init=cfg.get("scale_init"),
            acceptance_band=(float(band[0]), float(band[1])),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sampler settings: {exc}") from exc


# ---------------------------------------------------------------- commands


def cmd_simulate(cfg: dict) -> None:
    seed = _require_seed(cfg)
    n = _setting(cfg, "n", 1000, int)
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    out = cfg.get("output")
    if not out:
        raise ConfigError("simulate needs an output path")
    rng = np.random.default_rng(seed)
    params = _params_from_config(cfg)
    if cfg["model"] == "esnsm":
        cov = cfg.get("covariates", {})
        if not isinstance(cov, dict):
            raise ConfigError("covariates must be an object")
        spec = esnsm.CovariateSpec(
            n_covariates=_setting(cov, "n_covariates", 2, int),
            variance=_setting(cov, "variance", 2.0, float),
            intercept=bool(cov.get("intercept", True)),
        )
        if spec.n_covariates + spec.intercept != params.k1 or not 0.0 < spec.variance < math.inf:
            raise ConfigError(
                f"covariates must give {params.k1} design columns and a positive finite variance"
            )
        data = esnsm.simulate(params, n, spec, rng)
        write_esnsm_csv(out, data)
    else:
        draws = esn.sample(params, n, rng)
        write_iid_csv(out, draws)


def _gaussian_exact_fit(cfg: dict, data: np.ndarray, seed: int):
    """Conjugate path: draws from the exact posterior, their names and the
    log evidence, with no sampler."""
    from scipy.stats import invwishart  # slow to import; only this path needs it

    d = data.shape[1]
    h1, _ = _build_hyper(cfg, d)
    kappa_n, nu_n, xi_n, v_n = model_select.niw_posterior(data, h1)
    rng = np.random.default_rng(seed)
    n_draws = 100_000
    sig = invwishart.rvs(df=nu_n, scale=v_n, size=n_draws, random_state=rng)
    sig = sig.reshape(n_draws, d, d)
    z = rng.standard_normal((n_draws, d))
    chols = np.linalg.cholesky(sig / kappa_n)
    xi_draws = xi_n + np.einsum("nij,nj->ni", chols, z)
    rows, cols = np.tril_indices(d)
    theta = np.column_stack([xi_draws, sig[:, rows, cols]])
    return theta, models.param_names(d), model_select.gaussian_log_evidence(data, h1)


def _term_list(cfg: dict, key: str, k1: int) -> list[int]:
    """A covariate-column list from the config: distinct integers in 0..k1-1."""
    terms = cfg.get(key, list(range(k1)))
    valid = (
        isinstance(terms, list)
        and len(terms) > 0
        and all(isinstance(t, int) and not isinstance(t, bool) and 0 <= t < k1 for t in terms)
        and len(set(terms)) == len(terms)
    )
    if not valid:
        raise ConfigError(
            f"{key} must be a non-empty list of distinct column indices in 0..{k1 - 1}, "
            f"got {terms!r}"
        )
    return terms


def _run_smc_fit(cfg: dict, seed: int):
    """Read the dataset, build the target and run the sampler.  Returns the
    target, the result, the dataset and the hyperparameters: an
    ``EsnsmHyper``, or the (P1, P2) pair of the IID priors."""
    model = cfg["model"]
    config = _smc_config(cfg, seed)
    inflation = _setting(cfg, "eta1_inflation", 4.0, float)
    pilot_iters = _setting(cfg, "pilot_iterations", 10_000, int)
    if not 0.0 < inflation < math.inf:
        raise ConfigError(f"eta1_inflation must be positive and finite, got {inflation}")
    if pilot_iters < 1000:
        raise ConfigError(f"pilot_iterations must be at least 1000, got {pilot_iters}")
    if model == "esnsm":
        data = read_esnsm_csv(cfg["input"])
        k1 = data.x.shape[1]
        outcome_terms = _term_list(cfg, "outcome_terms", k1)
        select_terms = _term_list(cfg, "select_terms", k1)
        hyper = esnsm.EsnsmHyper.defaults(data.y.shape[1], len(outcome_terms), len(select_terms), data.n)
        target = esnsm.make_esnsm_target(
            data, hyper, outcome_terms, select_terms,
            gaussian_errors=bool(cfg.get("gaussian_errors", False)),
        )
    else:
        data = read_iid_csv(cfg["input"])
        hyper = _build_hyper(cfg, data.shape[1])
        target = models.make_iid_esn_target(
            data, hyper[0] if model == "esn-p1" else hyper[1],
            "p1" if model == "esn-p1" else "p2",
        )

    try:
        target.eta1 = smc.laplace_init(target, target.default_start, inflate=inflation)
    except EsnError:
        # the pilot is the fallback when the posterior resists maximisation
        init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
        target.eta1 = smc.pilot_mh_init(target, pilot_iters, init_rng, inflate=inflation)
    return target, smc.run(target, config), data, hyper


def cmd_fit(cfg: dict) -> None:
    seed = _require_seed(cfg)
    if "input" not in cfg:
        raise ConfigError("fit needs an input dataset")
    truth = cfg.get("truth") or {}
    if not isinstance(truth, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in truth.values()
    ):
        raise ConfigError(f"truth must map parameter names to numbers, got {truth!r}")
    model = cfg["model"]
    if model == "gaussian":
        data = read_iid_csv(cfg["input"])
        theta, names, log_evidence = _gaussian_exact_fit(cfg, data, seed)
        stages = []
    else:
        target, result, data, _ = _run_smc_fit(cfg, seed)
        theta, names = result.constrained_particles(target), target.param_names
        log_evidence, stages = result.log_evidence, _stage_log(result)
    parameters = summarize_particles(theta, names)
    if model == "esnsm":
        ratio = theta[:, names.index("sigma12")] / np.sqrt(theta[:, names.index("sigma1")])
        parameters["rho"] = summarize_particles(ratio[:, None], ["rho"])["rho"]
    for name, true_val in truth.items():
        if name in parameters and true_val != 0:
            est = parameters[name]["mean"]
            parameters[name]["pct_deviation"] = 100.0 * (est - true_val) / true_val
    payload = {
        "model": model,
        "seed": seed,
        "n_observations": data.n if model == "esnsm" else data.shape[0],
        "log_evidence": log_evidence,
        "parameters": parameters,
        "stages": stages,
    }
    if cfg.get("dump_particles"):
        _write_matrix_csv(cfg["dump_particles"], names, theta)
    _emit(cfg, payload)


def cmd_compare(cfg: dict) -> None:
    seed = _require_seed(cfg)
    if cfg["model"] == "gaussian":
        raise ConfigError("compare needs an alternative model (esn-p1 or esn-p2)")
    if cfg["model"] == "esnsm":
        raise ConfigError("compare supports the IID models only")
    if "input" not in cfg:
        raise ConfigError("compare needs an input dataset")
    _, result, data, (h1, _) = _run_smc_fit(cfg, seed)
    log_m0 = model_select.gaussian_log_evidence(data, h1)
    comp = model_select.classify_bayes_factor(result.log_evidence, log_m0)
    payload = {
        "model1": cfg["model"],
        "model0": "gaussian",
        "seed": seed,
        "n_observations": data.shape[0],
        "log_m1": comp.log_m1,
        "log_m0": comp.log_m0,
        "log10_bayes_factor": comp.log10_bayes_factor,
        "category": comp.category,
        "stages": _stage_log(result),
    }
    _emit(cfg, payload)


def cmd_marginal_effects(cfg: dict) -> None:
    seed = _require_seed(cfg)
    if cfg["model"] != "esnsm":
        raise ConfigError("marginal effects require the selection model")
    if "input" not in cfg or "particle_dump" not in cfg:
        raise ConfigError("marginal effects need input data and a fitted particle dump")
    data = read_esnsm_csv(cfg["input"])
    names, theta = _read_particles_csv(cfg["particle_dump"])
    try:
        params = esnsm.params_from_particle(names, theta.mean(axis=0), data.x.shape[1])
    except (KeyError, IndexError, ValueError) as exc:
        raise DataError(f"particle dump does not match the selection data: {exc!r}") from exc
    k = _setting(cfg, "covariate_index", data.x.shape[1] - 1, int)
    if not 0 <= k < data.x.shape[1]:
        raise ConfigError("covariate_index out of range")
    effects = esnsm.marginal_effect(params, data.x, k)
    me_csv = cfg.get("me_output_csv")
    if me_csv:
        with open(me_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "marginal_effect"])
            writer.writerows([i, repr(float(v))] for i, v in enumerate(effects))
    payload = {
        "model": "esnsm",
        "seed": seed,
        "covariate_index": k,
        "n_individuals": int(data.n),
        "average_marginal_effect": float(effects.mean()),
    }
    _emit(cfg, payload)


def load_schema(name: str) -> dict:
    with resources.files("esnsmc.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="esn-smc",
        description="Extended skew-normal estimation via tempered sequential Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit", "compare", "me"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--particles", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--truth", default=None, help="JSON file with true parameter values")
    args = parser.parse_args(argv)

    try:
        overrides = {"seed": args.seed, "particles": args.particles, "output": args.out}
        cfg = load_config(args.config, overrides)
        if args.truth:
            with open(args.truth, "r", encoding="utf-8") as fh:
                try:
                    cfg["truth"] = json.load(fh)
                except ValueError as exc:  # not JSON, or not text
                    raise ConfigError(f"truth file is not valid JSON: {exc}") from exc
        if args.command == "simulate":
            cmd_simulate(cfg)
        elif args.command == "fit":
            cmd_fit(cfg)
        elif args.command == "compare":
            cmd_compare(cfg)
        else:
            cmd_marginal_effects(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, EsnError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
