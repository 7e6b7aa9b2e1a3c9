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
from dataclasses import asdict, fields, replace
from importlib import resources

import numpy as np

from . import esn, esnsm, model_select, models, priors, smc
from .errors import (
    ConfigError,
    DataError,
    EsnError,
    NumericalError,
)
from .summaries import summarize_particles

_MODELS = ("esn-p1", "esn-p2", "gaussian", "esnsm")


# ------------------------------------------------------- config key kinds
# Each kind returns its JSON value converted, or raises TypeError or
# ValueError.


def _of(val, kind, what: str):
    """``val`` if it is of the JSON ``kind``; a boolean is not a number."""
    if not isinstance(val, kind) or (isinstance(val, bool) and kind is not bool):
        raise TypeError(f"not {what}")
    return val


def _number(val) -> float:
    return float(_of(val, (int, float), "a number"))


def _whole(val, least: float = -math.inf) -> int:
    if not _number(val).is_integer() or val < least:
        raise ValueError(f"not a whole number of at least {least}")
    return int(val)


def _text(val) -> str:
    if not _of(val, str, "a string"):
        raise ValueError("empty")
    return val


def _flag(val) -> bool:
    return _of(val, bool, "a boolean")


def _indices(val) -> list[int]:
    return [_of(t, int, "an integer") for t in _of(val, list, "a list")]


def _array(val):
    """A number, or a non-empty list of arrays."""
    return [_array(v) for v in val] if isinstance(val, list) and val else _number(val)


def _object(val, kind) -> dict:
    return {name: kind(v) for name, v in _of(val, dict, "an object").items()}


def _checked(cfg, table: dict) -> dict:
    """``cfg`` with each value converted by its kind in ``table``.  A key not
    in the table, or a value not of its kind, is a configuration error."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"not a JSON object: {cfg!r}")
    checked = {}
    for key, val in cfg.items():
        if key not in table:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            checked[key] = table[key](val)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {key}: {val!r}") from exc
    return checked


_COVARIATE_KINDS = {"n_covariates": _whole, "variance": _number, "intercept": _flag}
_KIND_KEYS = (  # each JSON kind, and the config keys of that kind
    (_text, ("model", "input", "output", "dump_particles", "particle_dump", "me_output_csv")),
    (_flag, ("gaussian_errors",)),
    (lambda val: _whole(val, 0), ("seed",)),
    (lambda val: _whole(val, 1), ("n",)),
    (_whole, ("particles", "mh_steps", "pilot_iterations", "covariate_index")),
    (_number, ("ess_threshold_fraction",)),
    (_indices, ("outcome_terms", "select_terms")),
    (lambda val: _object(val, _number), ("truth",)),
    (lambda val: _object(val, _array), ("params", "hyper")),
    (lambda val: _checked(val, _COVARIATE_KINDS), ("covariates",)),
)
_KINDS = {key: kind for kind, keys in _KIND_KEYS for key in keys}


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not text, or not JSON
        raise ConfigError(f"cannot read the {what}: {exc}") from exc


def load_config(path: str, overrides: dict, command: str) -> dict:
    """The config file with ``overrides`` applied, every value checked and
    converted, and the keys ``command`` needs present.  Reads no data."""
    cfg = _checked(_read_json(path, "config file"), _KINDS)
    cfg.update(_checked(overrides, _KINDS))
    if cfg.get("model") not in _MODELS:
        raise ConfigError(f"config must set model to one of {_MODELS}")
    missing = [key for key in _COMMANDS[command][1] if key not in cfg]
    if missing:
        raise ConfigError(f"{command} needs {', '.join(missing)}")
    return cfg


def _with_entries(default, entries: dict):
    """The hyperparameter dataclass ``default`` with ``entries`` in place of
    its fields."""
    try:
        return replace(default, **entries)
    except (TypeError, ValueError) as exc:  # also an unknown name
        raise ConfigError(f"invalid hyperparameters: {exc}") from exc


def _build_hyper(cfg: dict, d: int):
    """The default IID hyperparameter pair of dimension ``d``, with the
    config's ``hyper`` entries in place of the defaults."""
    h1, h2 = priors.default_hyper(d)
    over = cfg.get("hyper", {})
    own2 = {f.name for f in fields(h2)}
    return (
        _with_entries(h1, {key: val for key, val in over.items() if key not in own2}),
        _with_entries(h2, {key: val for key, val in over.items() if key in own2}),
    )


def _build_esnsm_hyper(cfg: dict, d: int, k_out: int, k_sel: int, n: int):
    """The default selection-model hyperparameters with the config's
    ``hyper`` entries in place of the defaults; ``mu_b``, ``mu_beta2`` and
    ``V`` keep the defaults' shapes."""
    default = esnsm.EsnsmHyper.defaults(d, k_out, k_sel, n)
    hyper = _with_entries(default, cfg.get("hyper", {}))
    for name in ("mu_b", "mu_beta2", "V"):
        if getattr(hyper, name).shape != getattr(default, name).shape:
            raise ConfigError(
                f"invalid hyperparameters: {name} must have shape {getattr(default, name).shape}"
            )
    return hyper


def _params_from_config(cfg: dict):
    model = cfg["model"]
    p = cfg["params"]
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
    except (TypeError, ValueError) as exc:
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
    """Header and non-empty rows of a CSV file; a missing file, one with no
    header or no rows, or a row whose width is not the header's is a data
    error."""
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
    ragged = next((row for row in rows if len(row) != len(header)), None)
    if ragged is not None:
        raise DataError(f"{what} has a row of {len(ragged)} fields under {len(header)} columns")
    return header, rows


def _matrix(rows, what: str) -> np.ndarray:
    """The float matrix of CSV rows; a non-number is a data error."""
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
    """A selection dataset: x columns, then ``s``, then y columns."""
    header, rows = _read_csv(path, "dataset")
    s_col = header.index("s") if "s" in header else 0
    xs, ys = header[:s_col], header[s_col + 1 :]
    if not (xs and ys and all(h.startswith("x") for h in xs)
            and all(h.startswith("y") for h in ys)):
        raise DataError(f"unexpected selection-data header: {header}")
    try:
        x = np.array([[float(v) for v in row[:s_col]] for row in rows])
        s = np.array([int(row[s_col]) for row in rows])
        y = np.array(
            [[float(v) if v != "" else np.nan for v in row[s_col + 1 :]] for row in rows]
        )
    except ValueError as exc:
        raise DataError(f"malformed dataset: {exc}") from exc
    return esnsm.EsnsmData(x, s, y)


def _read_particles_csv(path: str):
    names, rows = _read_csv(path, "particle dump")
    return names, _matrix(rows, "particle dump")


def _emit(cfg: dict, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if "output" in cfg:
        with open(cfg["output"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _stage_log(result: smc.SmcResult) -> list[dict]:
    """Stage records for the emitted JSON."""
    return [asdict(rec) for rec in result.diagnostics]


def _smc_config(cfg: dict) -> smc.SmcConfig:
    """The sampler settings of ``cfg``; the defaults live in ``SmcConfig``."""
    settings = {"n_particles" if key == "particles" else key: val for key, val in cfg.items()}
    names = {f.name for f in fields(smc.SmcConfig)}
    try:
        return smc.SmcConfig(**{key: val for key, val in settings.items() if key in names})
    except ValueError as exc:
        raise ConfigError(f"invalid sampler settings: {exc}") from exc


# ---------------------------------------------------------------- commands


def cmd_simulate(cfg: dict) -> None:
    n = cfg.get("n", 1000)
    out = cfg["output"]
    rng = np.random.default_rng(cfg["seed"])
    params = _params_from_config(cfg)
    if cfg["model"] == "esnsm":
        spec = esnsm.CovariateSpec(**cfg.get("covariates", {}))
        if spec.n_covariates + spec.intercept != params.k1 or not 0.0 < spec.variance < math.inf:
            raise ConfigError(
                f"covariates must give {params.k1} design columns and a positive finite variance"
            )
        data = esnsm.simulate(params, n, spec, rng)
        write_esnsm_csv(out, data)
    else:
        draws = esn.sample(params, n, rng)
        write_iid_csv(out, draws)


def _gaussian_exact_fit(cfg: dict, data: np.ndarray):
    """Conjugate path: draws from the exact posterior, their names and the
    log evidence, with no sampler."""
    from scipy.stats import invwishart  # slow to import; only this path needs it

    d = data.shape[1]
    h1, _ = _build_hyper(cfg, d)
    kappa_n, nu_n, xi_n, v_n = model_select.niw_posterior(data, h1)
    rng = np.random.default_rng(cfg["seed"])
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
    """A covariate-column list from the config: distinct indices in 0..k1-1."""
    terms = cfg.get(key, list(range(k1)))
    if not terms or len(set(terms)) < len(terms) or not all(0 <= t < k1 for t in terms):
        raise ConfigError(f"{key} must be distinct column indices in 0..{k1 - 1}, got {terms!r}")
    return terms


def _run_smc_fit(cfg: dict):
    """Read the dataset, build the target and run the sampler.  Returns the
    target, the result, the dataset and the hyperparameters: an
    ``EsnsmHyper``, or the (P1, P2) pair of the IID priors."""
    model = cfg["model"]
    config = _smc_config(cfg)  # before the data, so bad settings exit 2 first
    if model == "esnsm":
        data = read_esnsm_csv(cfg["input"])
        k1 = data.x.shape[1]
        outcome_terms = _term_list(cfg, "outcome_terms", k1)
        select_terms = _term_list(cfg, "select_terms", k1)
        hyper = _build_esnsm_hyper(
            cfg, data.y.shape[1], len(outcome_terms), len(select_terms), data.n
        )
        target = esnsm.make_esnsm_target(
            data, hyper, outcome_terms, select_terms,
            gaussian_errors=cfg.get("gaussian_errors", False),
        )
    else:
        data = read_iid_csv(cfg["input"])
        hyper = _build_hyper(cfg, data.shape[1])
        target = models.make_iid_esn_target(
            data, hyper[0] if model == "esn-p1" else hyper[1],
            "p1" if model == "esn-p1" else "p2",
        )
    target.eta1 = smc.initial_distribution(target, config)
    return target, smc.run(target, config), data, hyper


def cmd_fit(cfg: dict) -> None:
    model = cfg["model"]
    if model == "gaussian":
        data = read_iid_csv(cfg["input"])
        theta, names, log_evidence = _gaussian_exact_fit(cfg, data)
        stages = []
    else:
        target, result, data, _ = _run_smc_fit(cfg)
        theta, names = result.constrained_particles(target), target.param_names
        log_evidence, stages = result.log_evidence, _stage_log(result)
    parameters = summarize_particles(theta, names)
    if model == "esnsm":
        ratio = theta[:, names.index("sigma12")] / np.sqrt(theta[:, names.index("sigma1")])
        parameters["rho"] = summarize_particles(ratio[:, None], ["rho"])["rho"]
    for name, true_val in cfg.get("truth", {}).items():
        if name in parameters and true_val != 0:
            est = parameters[name]["mean"]
            parameters[name]["pct_deviation"] = 100.0 * (est - true_val) / true_val
    payload = {
        "model": model,
        "seed": cfg["seed"],
        "n_observations": data.n if model == "esnsm" else data.shape[0],
        "log_evidence": log_evidence,
        "parameters": parameters,
        "stages": stages,
    }
    if "dump_particles" in cfg:
        _write_matrix_csv(cfg["dump_particles"], names, theta)
    _emit(cfg, payload)


def cmd_compare(cfg: dict) -> None:
    if cfg["model"] not in ("esn-p1", "esn-p2"):
        raise ConfigError("compare takes an IID alternative model: esn-p1 or esn-p2")
    _, result, data, (h1, _) = _run_smc_fit(cfg)
    log_m0 = model_select.gaussian_log_evidence(data, h1)
    comp = model_select.classify_bayes_factor(result.log_evidence, log_m0)
    payload = {
        "model1": cfg["model"],
        "model0": "gaussian",
        "seed": cfg["seed"],
        "n_observations": data.shape[0],
        "log_m1": comp.log_m1,
        "log_m0": comp.log_m0,
        "log10_bayes_factor": comp.log10_bayes_factor,
        "category": comp.category,
        "stages": _stage_log(result),
    }
    _emit(cfg, payload)


def cmd_marginal_effects(cfg: dict) -> None:
    if cfg["model"] != "esnsm":
        raise ConfigError("marginal effects require the selection model")
    data = read_esnsm_csv(cfg["input"])
    names, theta = _read_particles_csv(cfg["particle_dump"])
    try:
        params = esnsm.params_from_particle(names, theta.mean(axis=0), data.x.shape[1])
    except (KeyError, IndexError, ValueError) as exc:
        raise DataError(f"particle dump does not match the selection data: {exc!r}") from exc
    k = cfg.get("covariate_index", data.x.shape[1] - 1)
    if not 0 <= k < data.x.shape[1]:
        raise ConfigError("covariate_index out of range")
    effects = esnsm.marginal_effect(params, data.x, k)
    if "me_output_csv" in cfg:
        with open(cfg["me_output_csv"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "marginal_effect"])
            writer.writerows([i, repr(float(v))] for i, v in enumerate(effects))
    payload = {
        "model": "esnsm",
        "seed": cfg["seed"],
        "covariate_index": k,
        "n_individuals": int(data.n),
        "average_marginal_effect": float(effects.mean()),
    }
    _emit(cfg, payload)


# command: its function, and the config keys it reads with no default
_COMMANDS = {
    "simulate": (cmd_simulate, ("seed", "params", "output")),
    "fit": (cmd_fit, ("seed", "input")),
    "compare": (cmd_compare, ("seed", "input")),
    "me": (cmd_marginal_effects, ("seed", "input", "particle_dump")),
}


def load_schema(name: str) -> dict:
    with resources.files("esnsmc.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="esn-smc",
        description="Extended skew-normal estimation via tempered sequential Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--particles", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--truth", default=None, help="JSON file with true parameter values")
    args = parser.parse_args(argv)

    try:
        flags = {"seed": args.seed, "particles": args.particles, "output": args.out}
        overrides = {key: val for key, val in flags.items() if val is not None}
        if args.truth is not None:
            overrides["truth"] = _read_json(args.truth, "truth file")
        cfg = load_config(args.config, overrides, args.command)
        _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, EsnError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
