import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import esnsmc
from esnsmc import cli, models, priors, smc
from esnsmc.errors import InitializationError


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture()
def esn_dataset(tmp_path):
    data_path = tmp_path / "data.csv"
    cfg = write_config(
        tmp_path / "sim.json",
        {
            "model": "esn-p1",
            "seed": 1,
            "n": 400,
            "params": {"xi": 2.0, "sigma": 6.0, "alpha": 5.0, "lambda": -2.0},
            "output": str(data_path),
        },
    )
    assert run_cli(["simulate", "--config", cfg]) == 0
    return data_path


class TestSimulate:
    def test_deterministic_output_bytes(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.json",
                {
                    "model": "esn-p1",
                    "seed": 1,
                    "n": 1000,
                    "params": {"xi": 2.0, "sigma": 6.0, "alpha": 5.0, "lambda": -2.0},
                    "output": str(out),
                },
            )
            assert run_cli(["simulate", "--config", cfg]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rows = paths[0].read_text().strip().splitlines()
        assert rows[0] == "y1"
        assert len(rows) == 1001

    def test_p2_simulation_variance(self, tmp_path):
        out = tmp_path / "p2.csv"
        cfg = write_config(
            tmp_path / "p2.json",
            {
                "model": "esn-p2",
                "seed": 3,
                "n": 1_000_000,
                "params": {"xi": 2.0, "omega": 1.0, "d": 5.0, "c": -0.8},
                "output": str(out),
            },
        )
        assert run_cli(["simulate", "--config", cfg]) == 0
        draws = cli.read_iid_csv(str(out))[:, 0]
        assert draws.var() == pytest.approx(6.60, abs=0.07)

    def test_esnsm_censoring_fraction_and_empty_fields(self, tmp_path):
        out = tmp_path / "sel.csv"
        cfg = write_config(
            tmp_path / "sel.json",
            {
                "model": "esnsm",
                "seed": 2,
                "n": 1000,
                "params": {
                    "B": [[3.0, -2.0, 0.0]],
                    "beta2": [1.5, 0.0, 2.0],
                    "sigma1": 6.0,
                    "sigma12": 0.7348,
                    "alpha": [2.0, 1.0],
                    "lambda": -2.0,
                },
                "output": str(out),
            },
        )
        assert run_cli(["simulate", "--config", cfg]) == 0
        text = out.read_text().strip().splitlines()
        assert text[0] == "x1,x2,x3,s,y1"
        censored = [row for row in text[1:] if row.endswith(",0,")]
        frac = len(censored) / 1000
        assert 0.28 <= frac <= 0.37
        data = cli.read_esnsm_csv(str(out))
        assert np.all(np.isnan(data.y[data.s == 0]))

    def test_round_trip_read(self, esn_dataset):
        data = cli.read_iid_csv(str(esn_dataset))
        assert data.shape == (400, 1)


def test_import_leaves_slow_scipy_modules_unloaded():
    """``scipy.stats`` and ``scipy.integrate`` are imported where they are
    used, so ``compare``, ``me`` and ``simulate`` never pay for them."""
    src = str(Path(esnsmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, esnsmc.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_commands_leave_scipy_optimize_and_linalg_unloaded(tmp_path):
    """Importing ``scipy.optimize`` and the ``scipy.linalg`` it pulls in costs
    every command about 0.2 s and 23 MB, and only the conjugate ``gaussian``
    fit needs them: the import and a ``simulate``, ``fit``, ``compare``,
    selection-model ``fit`` and ``me`` run in one process load neither."""
    sel_params = {"B": [[3.0, -2.0, 0.0]], "beta2": [1.5, 0.0, 2.0], "sigma1": 6.0,
                  "sigma12": 0.7348, "alpha": [2.0, 1.0], "lambda": -2.0}
    esn_csv, sel_csv, dump = tmp_path / "esn.csv", tmp_path / "sel.csv", tmp_path / "dump.csv"
    commands = [
        ("simulate", {"model": "esn-p1", "seed": 1, "n": 100, "output": str(esn_csv),
                      "params": {"xi": 2.0, "sigma": 6.0, "alpha": 5.0, "lambda": -2.0}}),
        ("fit", {"model": "esn-p1", "seed": 2, "input": str(esn_csv), "particles": 100}),
        ("compare", {"model": "esn-p1", "seed": 3, "input": str(esn_csv), "particles": 100}),
        ("simulate", {"model": "esnsm", "seed": 4, "n": 100, "output": str(sel_csv),
                      "params": sel_params}),
        ("fit", {"model": "esnsm", "seed": 5, "input": str(sel_csv), "particles": 100,
                 "outcome_terms": [0, 1], "select_terms": [0, 2], "dump_particles": str(dump)}),
        ("me", {"model": "esnsm", "seed": 6, "input": str(sel_csv), "particle_dump": str(dump),
                "covariate_index": 2}),
    ]
    argvs = []
    for i, (command, cfg) in enumerate(commands):
        cfg.setdefault("output", str(tmp_path / f"out{i}.json"))
        argvs.append([command, "--config", write_config(tmp_path / f"cfg{i}.json", cfg)])
    src = str(Path(esnsmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import json, sys; from esnsmc import cli; "
        f"codes = [cli.main(argv) for argv in {argvs!r}]; "
        "print(json.dumps([codes, sorted(m for m in ('scipy.optimize', 'scipy.linalg') "
        "if m in sys.modules)]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[0] * len(commands), []]


class TestFit:
    def test_gaussian_exact_path(self, tmp_path):
        data_path = tmp_path / "g.csv"
        cfg_sim = write_config(
            tmp_path / "gsim.json",
            {
                "model": "gaussian",
                "seed": 2,
                "n": 500,
                "params": {"xi": 1.0, "sigma": 2.0},
                "output": str(data_path),
            },
        )
        assert run_cli(["simulate", "--config", cfg_sim]) == 0
        out = tmp_path / "fit.json"
        cfg_fit = write_config(
            tmp_path / "gfit.json",
            {"model": "gaussian", "seed": 7, "input": str(data_path), "output": str(out)},
        )
        assert run_cli(["fit", "--config", cfg_fit]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, cli.load_schema("fit.schema.json"))
        assert payload["stages"] == []  # exact path, no sampler
        data = cli.read_iid_csv(str(data_path))
        h_kappa, n = 0.1, 500
        analytic_mean = n * data.mean() / (h_kappa + n)
        assert payload["parameters"]["xi"]["mean"] == pytest.approx(analytic_mean, abs=0.01)
        assert payload["parameters"]["sigma2"]["mean"] == pytest.approx(
            data.var(), abs=0.2
        )

    def test_gaussian_exact_path_d2_names(self, tmp_path):
        data_path, dump, out = tmp_path / "g2.csv", tmp_path / "g2.dump.csv", tmp_path / "fit.json"
        z = np.random.default_rng(3).multivariate_normal([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]], 200)
        cli.write_iid_csv(str(data_path), z)
        cfg = write_config(
            tmp_path / "g2fit.json",
            {"model": "gaussian", "seed": 7, "input": str(data_path), "output": str(out),
             "dump_particles": str(dump)},
        )
        assert run_cli(["fit", "--config", cfg]) == 0
        names = models.make_gaussian_target(z, priors.default_hyper(2)[0]).param_names
        assert names == ["xi1", "xi2", "sigma11", "sigma21", "sigma22"]
        assert list(json.loads(out.read_text())["parameters"]) == names
        assert cli._read_particles_csv(str(dump))[0] == names

    def test_esn_fit_round_trip_and_determinism(self, esn_dataset, tmp_path):
        outs = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path / f"{name}.cfg",
                {
                    "model": "esn-p1",
                    "seed": 9,
                    "input": str(esn_dataset),
                    "particles": 400,
                    "output": str(out),
                },
            )
            assert run_cli(["fit", "--config", cfg]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        jsonschema.validate(payload, cli.load_schema("fit.schema.json"))
        assert set(payload["parameters"]) == {"xi", "sigma2", "alpha", "lambda"}
        for summary in payload["parameters"].values():
            assert summary["q2.5"] <= summary["median"] <= summary["q97.5"]
            assert summary["sd"] >= 0.0
        rhos = [s["rho"] for s in payload["stages"]]
        assert rhos[-1] == 1.0

    def test_truth_flag_reports_percentage_deviation(self, esn_dataset, tmp_path):
        out = tmp_path / "fit.json"
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"xi": 2.0, "sigma2": 6.0, "alpha": 5.0, "lambda": -2.0}))
        cfg = write_config(
            tmp_path / "fit.cfg",
            {
                "model": "esn-p1",
                "seed": 9,
                "input": str(esn_dataset),
                "particles": 400,
                "output": str(out),
            },
        )
        assert run_cli(["fit", "--config", cfg, "--truth", str(truth)]) == 0
        payload = json.loads(out.read_text())
        p = payload["parameters"]["sigma2"]
        assert p["pct_deviation"] == pytest.approx(
            100.0 * (p["mean"] - 6.0) / 6.0, abs=1e-9
        )

    @pytest.mark.parametrize("model", ["esn-p1", "esnsm"])
    def test_laplace_start_falls_back_to_the_pilot(
        self, esn_dataset, tmp_path, monkeypatch, model
    ):
        settings = {"model": model, "seed": 9, "particles": 200, "pilot_iterations": 1000}
        if model == "esn-p1":
            settings["input"] = str(esn_dataset)
        else:
            data = tmp_path / "sel.csv"
            sim = {
                "model": "esnsm", "seed": 21, "n": 300, "output": str(data),
                "params": {"B": [[3.0, -2.0, 0.0]], "beta2": [1.5, 0.0, 2.0], "sigma1": 6.0,
                           "sigma12": 0.7348, "alpha": [2.0, 1.0], "lambda": -2.0},
            }
            assert run_cli(["simulate", "--config", write_config(tmp_path / "sim.cfg", sim)]) == 0
            settings.update(input=str(data), outcome_terms=[0, 1], select_terms=[0, 2])

        def fit(name):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.cfg", {**settings, "output": str(out)})
            assert run_cli(["fit", "--config", cfg]) == 0
            return out.read_bytes()

        pilot_runs = []
        real_pilot = smc.pilot_mh_init

        def pilot(target, n_iter, rng, **kwargs):
            pilot_runs.append(n_iter)
            return real_pilot(target, n_iter, rng, **kwargs)

        def fail(*args, **kwargs):
            raise InitializationError("no mode")

        monkeypatch.setattr(smc, "pilot_mh_init", pilot)
        laplace = fit("laplace.json")
        assert pilot_runs == []
        monkeypatch.setattr(smc, "laplace_init", fail)
        assert fit("fallback.json") != laplace
        assert pilot_runs == [1000]

    def test_particle_dump(self, esn_dataset, tmp_path):
        dump = tmp_path / "particles.csv"
        cfg = write_config(
            tmp_path / "fit.cfg",
            {
                "model": "esn-p1",
                "seed": 4,
                "input": str(esn_dataset),
                "particles": 300,
                "dump_particles": str(dump),
                "output": str(tmp_path / "fit.json"),
            },
        )
        assert run_cli(["fit", "--config", cfg]) == 0
        names, theta = cli._read_particles_csv(str(dump))
        assert names == ["xi", "sigma2", "alpha", "lambda"]
        assert theta.shape == (300, 4)


class TestCompare:
    def test_compare_output_schema(self, esn_dataset, tmp_path):
        out = tmp_path / "cmp.json"
        cfg = write_config(
            tmp_path / "cmp.cfg",
            {
                "model": "esn-p1",
                "seed": 11,
                "input": str(esn_dataset),
                "particles": 500,
                "output": str(out),
            },
        )
        assert run_cli(["compare", "--config", cfg]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, cli.load_schema("compare.schema.json"))
        assert payload["category"] in ("poor", "substantial", "strong", "decisive")
        assert payload["log10_bayes_factor"] == pytest.approx(
            (payload["log_m1"] - payload["log_m0"]) / math.log(10.0), abs=1e-12
        )

    def test_identical_evidences_classified_poor(self):
        from esnsmc.model_select import classify_bayes_factor

        assert classify_bayes_factor(-5.0, -5.0).category == "poor"


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_emitted_stage_keys_are_the_record_fields_and_the_schema(esn_dataset, tmp_path, command):
    out = tmp_path / "out.json"
    cfg = {"model": "esn-p1", "seed": 11, "input": str(esn_dataset), "particles": 200,
           "output": str(out)}
    assert run_cli([command, "--config", write_config(tmp_path / "run.cfg", cfg)]) == 0
    stages = json.loads(out.read_text())["stages"]
    item = cli.load_schema(f"{command}.schema.json")["properties"]["stages"]["items"]
    names = [f.name for f in dataclasses.fields(smc.StageRecord)]
    assert stages and all(list(stage) == names for stage in stages)
    assert list(item["properties"]) == names
    assert sorted(item["required"]) == sorted(names)


class TestMarginalEffects:
    def test_me_pipeline(self, tmp_path):
        data_path = tmp_path / "sel.csv"
        cfg_sim = write_config(
            tmp_path / "sim.cfg",
            {
                "model": "esnsm",
                "seed": 21,
                "n": 300,
                "params": {
                    "B": [[3.0, -2.0, 0.0]],
                    "beta2": [1.5, 0.0, 2.0],
                    "sigma1": 6.0,
                    "sigma12": 0.7348,
                    "alpha": [2.0, 1.0],
                    "lambda": -2.0,
                },
                "output": str(data_path),
            },
        )
        assert run_cli(["simulate", "--config", cfg_sim]) == 0
        dump = tmp_path / "dump.csv"
        cfg_fit = write_config(
            tmp_path / "fit.cfg",
            {
                "model": "esnsm",
                "seed": 22,
                "input": str(data_path),
                "particles": 200,
                "pilot_iterations": 2000,
                "outcome_terms": [0, 1],
                "select_terms": [0, 2],
                "dump_particles": str(dump),
                "output": str(tmp_path / "fit.json"),
            },
        )
        assert run_cli(["fit", "--config", cfg_fit]) == 0
        fit_payload = json.loads((tmp_path / "fit.json").read_text())
        jsonschema.validate(fit_payload, cli.load_schema("fit.schema.json"))
        assert "rho" in fit_payload["parameters"]

        me_out = tmp_path / "me.json"
        me_csv = tmp_path / "me.csv"
        cfg_me = write_config(
            tmp_path / "me.cfg",
            {
                "model": "esnsm",
                "seed": 23,
                "input": str(data_path),
                "particle_dump": str(dump),
                "covariate_index": 2,
                "me_output_csv": str(me_csv),
                "output": str(me_out),
            },
        )
        assert run_cli(["me", "--config", cfg_me]) == 0
        payload = json.loads(me_out.read_text())
        jsonschema.validate(payload, cli.load_schema("me.schema.json"))
        rows = me_csv.read_text().strip().splitlines()
        assert rows[0] == "row,marginal_effect"
        assert len(rows) == 301
        effects = [float(r.split(",")[1]) for r in rows[1:]]
        assert payload["average_marginal_effect"] == pytest.approx(
            float(np.mean(effects)), abs=1e-9
        )

    def test_gaussian_limit_selection_only_covariate_zero(self, tmp_path):
        # plug-in params with no cross covariance and gaussian errors:
        # the selection covariate moves nothing
        data_path = tmp_path / "sel.csv"
        cfg_sim = write_config(
            tmp_path / "sim.cfg",
            {
                "model": "esnsm",
                "seed": 31,
                "n": 50,
                "params": {
                    "B": [[3.0, -2.0, 0.0]],
                    "beta2": [1.5, 0.0, 2.0],
                    "sigma1": 6.0,
                    "sigma12": 0.0,
                    "alpha": [0.0, 0.0],
                    "lambda": 0.0,
                },
                "output": str(data_path),
            },
        )
        assert run_cli(["simulate", "--config", cfg_sim]) == 0
        dump = tmp_path / "dump.csv"
        with open(dump, "w", encoding="utf-8") as fh:
            fh.write("beta1_0,beta1_1,beta2_0,beta2_2,sigma1,sigma12\n")
            fh.write("3.0,-2.0,1.5,2.0,6.0,0.0\n")
        me_out = tmp_path / "me.json"
        cfg_me = write_config(
            tmp_path / "me.cfg",
            {
                "model": "esnsm",
                "seed": 32,
                "input": str(data_path),
                "particle_dump": str(dump),
                "covariate_index": 2,
                "output": str(me_out),
            },
        )
        assert run_cli(["me", "--config", cfg_me]) == 0
        payload = json.loads(me_out.read_text())
        assert payload["average_marginal_effect"] == pytest.approx(0.0, abs=1e-9)


class TestErrorPaths:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", {"model": "esn-p1", "seed": 1, "bogus": 2})
        assert run_cli(["fit", "--config", cfg]) == 2

    def test_missing_model_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", {"seed": 1})
        assert run_cli(["fit", "--config", cfg]) == 2

    def test_missing_seed_is_config_error(self, tmp_path, esn_dataset):
        cfg = write_config(
            tmp_path / "bad.cfg", {"model": "esn-p1", "input": str(esn_dataset)}
        )
        assert run_cli(["fit", "--config", cfg]) == 2

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.cfg",
            {"model": "esn-p1", "seed": 1, "input": str(tmp_path / "nope.csv")},
        )
        assert run_cli(["fit", "--config", cfg]) == 3

    @pytest.mark.parametrize("model", ["esn-p1", "esn-p2"])
    @pytest.mark.parametrize(
        "columns",
        [
            pytest.param(lambda a: [np.full_like(a, 0.1)], id="constant-column"),
            pytest.param(lambda a: [a, 2.0 * a - 1.0], id="collinear-columns"),
        ],
    )
    def test_singular_sample_covariance_is_data_error(self, tmp_path, capsys, model, columns):
        z = np.column_stack(columns(np.random.default_rng(5).normal(size=60)))
        header = ",".join(f"y{j + 1}" for j in range(z.shape[1]))
        np.savetxt(tmp_path / "flat.csv", z, delimiter=",", header=header, comments="")
        cfg = {"model": model, "seed": 1, "input": str(tmp_path / "flat.csv")}
        assert run_cli(["fit", "--config", write_config(tmp_path / "flat.cfg", cfg)]) == 3
        assert "sample covariance is singular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, model, dataset, dump",
        [
            pytest.param("fit", "esn-p1", "y1\n1.0\nnot-a-number\n", None, id="non-number"),
            pytest.param("fit", "esn-p1", "", None, id="empty-iid"),
            pytest.param("fit", "esn-p1", "y1,y2\n1.0,2.0\n3.0\n", None, id="ragged-iid"),
            pytest.param("fit", "esnsm", "", None, id="empty-selection"),
            pytest.param("fit", "esnsm", "x1,x2,x3,s,y1\n1,0.5,0.2\n", None, id="short-selection"),
            pytest.param("me", "esnsm", None, "", id="empty-particle-dump"),
            pytest.param("me", "esnsm", None, "beta1_0,sigma1\n", id="header-only-particle-dump"),
            # rows wider than the header, and a column that is neither x, s nor y
            pytest.param("fit", "esn-p1", "y1\n1.0,2.0\n3.0,-1.0\n0.5,0.25\n2.5,4.0\n", None,
                         id="wide-iid"),
            pytest.param(
                "me", "esnsm", "x1,x2,s,y1,z9\n1.0,0.5,1,2.0,3.0\n1.0,-0.5,0,,\n1.0,0.2,1,1.0,0.5\n",
                "beta1_0,beta1_1,beta2_0,beta2_1,sigma1,sigma12,alpha1,alpha2,lambda\n"
                "3.0,-2.0,1.5,2.0,6.0,0.7,2.0,1.0,-2.0\n",
                id="foreign-column-selection",
            ),
            pytest.param(
                "me", "esnsm", None,
                "beta1_0,beta1_1,beta1_2,beta2_0,beta2_1,beta2_2,sigma1,sigma12,alpha1,alpha2,lambda\n"
                "3.0,-2.0,0.0,1.5,0.0,2.0,6.0,0.7,2.0,1.0,-2.0,9.0\n",
                id="wide-particle-dump",
            ),
        ],
    )
    def test_malformed_dataset_is_data_error(self, tmp_path, command, model, dataset, dump):
        cfg = {"model": model, "seed": 1}
        if dataset is None:
            cfg["input"] = str(self._selection_data(tmp_path))
        else:
            (tmp_path / "bad.csv").write_text(dataset)
            cfg["input"] = str(tmp_path / "bad.csv")
        if dump is not None:
            (tmp_path / "dump.csv").write_text(dump)
            cfg["particle_dump"] = str(tmp_path / "dump.csv")
        assert run_cli([command, "--config", write_config(tmp_path / "bad.cfg", cfg)]) == 3

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("fit", {"particles": 1}),
            ("fit", {"particles": "many"}),
            ("fit", {"mh_steps": 0}),
            ("fit", {"ess_threshold_fraction": 1.5}),
            ("fit", {"model": "esnsm", "pilot_iterations": 10}),
            ("me", {"covariate_index": "two"}),
            ("simulate", {"n": "ten"}),
            ("fit", {"seed": "abc"}),
            ("fit", {"hyper": {"kappa": "x"}}),
            ("fit", {"truth": [2.0]}),
            ("fit", {"truth": {"xi": "two"}}),
            ("fit", {"truth": "{not json"}),
            ("simulate", {"covariates": {"n_covariates": "two"}}),
            ("simulate", {"covariates": [2]}),
            ("simulate", {"covariates": {"variance": -1.0}}),
            ("simulate", {"covariates": {"n_covariates": 0, "intercept": False}}),
            ("simulate", {"n": 0}),
            ("simulate", {"model": "esnsm", "n": 0}),
            ("fit", {"init": "bogus"}),
            ("fit", {"model": "esnsm", "init": "bogus"}),
            ("fit", {"seed": 1.5}),
            ("fit", {"seed": -1}),
            ("fit", {"particles": 200.7}),
            ("fit", {"mh_steps": 2.9}),
            ("fit", {"pilot_iterations": 1500.5}),
            ("me", {"covariate_index": 1.5}),
            ("simulate", {"n": 10.5}),
            ("simulate", {"covariates": {"n_covariates": 2.5}}),
            ("fit", {"model": "esnsm", "gaussian_errors": "false"}),
            ("simulate", {"covariates": {"intercept": "false"}}),
            ("fit", {"hyper": {"V": [["12"]], "kappa": True}}),
            ("simulate", {"params": {"xi": "2.0", "sigma": "6", "alpha": True, "lambda": "-2"}}),
            # an unused file descriptor: 0, 1 and 2 would be this process's own
            ("fit", {"input": 987}),
            ("simulate", {"output": 987}),
            ("fit", {"dump_particles": 987}),
            ("fit", {"truth": None}),
            ("fit", {"dump_particles": False}),
            ("fit", {"hyper": {"d": 3}}),
            # former sampler settings, now constants: unknown keys
            ("fit", {"acceptance_band": 0.3}),
            ("fit", {"acceptance_band": [0.2, 0.6, 0.9]}),
            ("fit", {"scale_init": "x"}),
            ("fit", {"scale_init": 0}),
            ("fit", {"scale_init": True}),
            ("fit", {"eta1_inflation": -1}),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()),
    )
    def test_invalid_setting_is_config_error(self, tmp_path, command, settings):
        # a fit checks its settings before it reads the (absent) dataset,
        # which would otherwise be a data error
        cfg = {"model": "esn-p1", "seed": 1, "input": str(tmp_path / "absent.csv")}
        settings, argv = dict(settings), []
        if isinstance(settings.get("truth"), str):  # the text of a --truth file
            (tmp_path / "truth.json").write_text(settings.pop("truth"))
            argv = ["--truth", str(tmp_path / "truth.json")]
        if command == "me":
            dump = tmp_path / "dump.csv"
            dump.write_text(
                "beta1_0,beta1_1,beta1_2,beta2_0,beta2_1,beta2_2,"
                "sigma1,sigma12,alpha1,alpha2,lambda\n"
                "3.0,-2.0,0.0,1.5,0.0,2.0,6.0,0.7,2.0,1.0,-2.0\n"
            )
            cfg.update(model="esnsm", input=str(self._selection_data(tmp_path)),
                       particle_dump=str(dump))
        elif command == "simulate":
            cfg.update(params={"xi": 2.0, "sigma": 6.0, "alpha": 5.0, "lambda": -2.0},
                       output=str(tmp_path / "sim.csv"))
            if "covariates" in settings or settings.get("model") == "esnsm":
                cfg.update(model="esnsm", params={
                    "B": [[3.0, -2.0, 0.0]], "beta2": [1.5, 0.0, 2.0], "sigma1": [[6.0]],
                    "sigma12": [0.7], "alpha": [2.0, 1.0], "lambda": -2.0})
        if "hyper" in settings:  # checked once the data's dimension is known
            (tmp_path / "data.csv").write_text("y1\n1.0\n2.0\n3.5\n")
            cfg["input"] = str(tmp_path / "data.csv")
        cfg.update(settings)
        assert run_cli([command, "--config", write_config(tmp_path / "bad.cfg", cfg), *argv]) == 2

    def test_esnsm_hyper_entries_reach_the_fit(self, tmp_path):
        # a selection-model fit applies its hyper entries: a sharper
        # outcome-coefficient prior moves the output, no entry changes nothing
        settings = {"model": "esnsm", "seed": 44, "input": str(self._selection_data(tmp_path)),
                    "particles": 100, "outcome_terms": [0, 1], "select_terms": [0, 2]}

        def fit(name, **extra):
            out = tmp_path / name
            cfg = write_config(tmp_path / f"{name}.cfg", {**settings, **extra, "output": str(out)})
            assert run_cli(["fit", "--config", cfg]) == 0
            return out.read_bytes()

        default = fit("default.json")
        assert fit("empty.json", hyper={}) == default
        assert fit("sharp.json", hyper={"c_beta1": 0.001}) != default

    @pytest.mark.parametrize(
        "hyper",
        [{"d": 3}, {"kappa": 1}, {"mu_b": [0.0, 0.0]}, {"mu_b": [[0.0, 0.0, 0.0]]},
         {"mu_beta2": [0.0]}, {"V": [[12.0, 0.0], [0.0, 12.0]]}, {"V": -1.0},
         {"c_beta1": 0}, {"c_beta2": -5.0}, {"nu": 0}, {"sigma2_alpha": [1.0, 2.0]}],
        ids=lambda h: "-".join(f"{k}={v}" for k, v in h.items()),
    )
    def test_bad_esnsm_hyper_is_config_error(self, tmp_path, hyper):
        # an unknown name, a shape other than the default's or a bad value
        cfg = write_config(
            tmp_path / "fit.cfg",
            {"model": "esnsm", "seed": 44, "input": str(self._selection_data(tmp_path)),
             "outcome_terms": [0, 1], "select_terms": [0, 2], "hyper": hyper},
        )
        assert run_cli(["fit", "--config", cfg]) == 2

    def test_unreadable_config_or_truth_file_is_config_error(self, tmp_path):
        (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe")
        assert run_cli(["fit", "--config", tmp_path / "binary.cfg"]) == 2
        cfg = write_config(tmp_path / "ok.cfg", {"model": "esn-p1", "seed": 1, "input": "x.csv"})
        assert run_cli(["fit", "--config", cfg, "--truth", tmp_path / "absent.json"]) == 2

    def test_invalid_simulation_params_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.cfg",
            {
                "model": "esn-p1",
                "seed": 1,
                "n": 10,
                "params": {"xi": 0.0, "sigma": 1.0},
                "output": str(tmp_path / "x.csv"),
            },
        )
        assert run_cli(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("terms", [[0, 5], [0, 0], [0, 1.5], [], "0"])
    def test_bad_term_list_is_config_error(self, tmp_path, terms):
        data_path = self._selection_data(tmp_path)
        for key in ("outcome_terms", "select_terms"):
            cfg = write_config(
                tmp_path / "fit.cfg",
                {"model": "esnsm", "seed": 42, "input": str(data_path), key: terms},
            )
            assert run_cli(["fit", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "dump_text", ["beta1_7,sigma1,sigma12\n1.0,6.0,0.0\n", "beta1_0,sigma12\n1.0,0.0\n"]
    )
    def test_particle_dump_not_matching_data_is_data_error(self, tmp_path, dump_text):
        dump = tmp_path / "dump.csv"
        dump.write_text(dump_text)
        cfg = write_config(
            tmp_path / "me.cfg",
            {"model": "esnsm", "seed": 43, "input": str(self._selection_data(tmp_path)),
             "particle_dump": str(dump), "covariate_index": 2},
        )
        assert run_cli(["me", "--config", cfg]) == 3

    @staticmethod
    def _selection_data(tmp_path):
        """A small simulated selection dataset with 3 covariate columns."""
        data_path = tmp_path / "sel.csv"
        cfg_sim = write_config(
            tmp_path / "sim.cfg",
            {
                "model": "esnsm",
                "seed": 41,
                "n": 50,
                "params": {
                    "B": [[3.0, -2.0, 0.0]],
                    "beta2": [1.5, 0.0, 2.0],
                    "sigma1": 6.0,
                    "sigma12": 0.7,
                    "alpha": [2.0, 1.0],
                    "lambda": -2.0,
                },
                "output": str(data_path),
            },
        )
        assert run_cli(["simulate", "--config", cfg_sim]) == 0
        return data_path


# A value of the wrong JSON kind for each config key.
WRONG_KIND = {
    "model": 987,
    "input": 987,
    "output": 987,
    "dump_particles": 987,
    "particle_dump": [],
    "me_output_csv": {"path": "me.csv"},
    "gaussian_errors": "false",
    "seed": "1",
    "n": True,
    "particles": "200",
    "mh_steps": [3],
    "pilot_iterations": None,
    "covariate_index": "2",
    "ess_threshold_fraction": "0.5",
    "outcome_terms": [0, 1.0],
    "select_terms": [True, 1],
    "truth": {"xi": "2"},
    "params": {"xi": "2.0"},
    "hyper": {"V": [["12"]]},
    "covariates": {"intercept": "false"},
}
# Former sampler settings, now constants of ``smc``: a config that sets one,
# even to the value the sampler uses, is rejected as an unknown key.
REMOVED_KEYS = {
    "bisect_epsilon": 1e-4,
    "scale_init": 2.38**2,
    "eta1_inflation": 4.0,
    "acceptance_band": [0.2, 0.6],
}


class TestConfigTable:
    def test_every_config_key_has_a_wrong_kind_case(self):
        assert set(WRONG_KIND) == set(cli._KINDS)

    @pytest.mark.parametrize("command", ["simulate", "fit", "compare", "me"])
    @pytest.mark.parametrize("key", sorted(WRONG_KIND.keys() | REMOVED_KEYS.keys()))
    def test_wrong_kind_exits_2_before_any_file_is_read(self, tmp_path, capsys, command, key):
        out = tmp_path / "out.csv"
        cfg = {"model": "esn-p1", "seed": 1, "input": str(tmp_path / "absent.csv")}
        if command == "simulate":
            cfg.update(params={"xi": 2.0, "sigma": 6.0, "alpha": 5.0, "lambda": -2.0},
                       output=str(out))
        elif command == "me":
            cfg.update(model="esnsm", particle_dump=str(tmp_path / "absent_dump.csv"))
        cfg[key] = WRONG_KIND[key] if key in WRONG_KIND else REMOVED_KEYS[key]
        assert run_cli([command, "--config", write_config(tmp_path / "bad.cfg", cfg)]) == 2
        assert not out.exists()
        if key in REMOVED_KEYS:
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_readme_example_configs_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        examples = re.findall(
            r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\nesn-smc (\w+) --config \1", readme, re.S
        )
        assert examples and len(examples) == readme.count("<<'EOF'")
        for name, text, command in examples:
            (tmp_path / name).write_text(text, encoding="utf-8")
            cli.load_config(str(tmp_path / name), {}, command)


class TestP2Fit:
    def test_p2_fit_parameter_names_and_schema(self, tmp_path):
        data_path = tmp_path / "p2data.csv"
        cfg_sim = write_config(
            tmp_path / "p2sim.cfg",
            {
                "model": "esn-p2",
                "seed": 13,
                "n": 300,
                "params": {"xi": 2.0, "omega": 1.0, "d": 5.0, "c": -0.8},
                "output": str(data_path),
            },
        )
        assert run_cli(["simulate", "--config", cfg_sim]) == 0
        out = tmp_path / "p2fit.json"
        cfg_fit = write_config(
            tmp_path / "p2fit.cfg",
            {
                "model": "esn-p2",
                "seed": 14,
                "input": str(data_path),
                "particles": 300,
                "output": str(out),
            },
        )
        assert run_cli(["fit", "--config", cfg_fit]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, cli.load_schema("fit.schema.json"))
        assert set(payload["parameters"]) == {"xi", "omega2", "d", "c"}
