import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgclock import ClockModelParams, cli, experiments, model
from fgclock.cli import (
    _DEFAULTS,
    _MODEL_KEYS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from fgclock.experiments import ALL_ESTIMATORS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--out", str(out), "--seed", "3",
                         "--rounds", "4")
        assert code == EXIT_OK
        obs = out.parent / "run_observations.csv"
        latent = out.parent / "run_latent.csv"
        manifest = out.parent / "run_manifest.json"
        assert obs.exists() and latent.exists() and manifest.exists()
        assert obs.read_text().splitlines()[0] == "k,U,V"
        assert latent.read_text().splitlines()[0] == "k,xi,psi,theta,d"
        assert len(obs.read_text().splitlines()) == 5
        assert len(latent.read_text().splitlines()) == 6
        doc = json.loads(manifest.read_text())
        assert doc["subcommand"] == "simulate"
        assert doc["seed"] == 3 and doc["seed_scheme"] == 2
        assert doc["config"]["rounds"] == 4

    def test_invalid_sigma_names_field(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "x"),
                           "--sigma", "-0.5")
        assert code == EXIT_VALIDATION
        assert "sigma" in err

    def test_infinite_sigma_writes_nothing(self, tmp_path, capsys):
        code, out, err = run(capsys, "simulate", "--out", str(tmp_path / "x"),
                             "--sigma", "inf", "--rounds", "3")
        assert code == EXIT_VALIDATION
        assert "sigma" in err
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "simulate", "--out", str(out), "--seed", "11")
            assert code == EXIT_OK
        assert (tmp_path / "a_observations.csv").read_bytes() == (
            tmp_path / "b_observations.csv"
        ).read_bytes()
        assert (tmp_path / "a_latent.csv").read_bytes() == (
            tmp_path / "b_latent.csv"
        ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 3, "sigma": 0.02, "seed": 1}))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out),
                         "--rounds", "6")
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "run_manifest.json").read_text())
        assert doc["config"]["rounds"] == 6
        assert doc["config"]["sigma"] == 0.02

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigm": 0.02}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == EXIT_VALIDATION
        assert "sigm" in err

    def test_config_file_that_is_not_json_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("garbage")
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "x"))
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith(f"error: {cfg}: the config file is not JSON: Expecting value")

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x"))
        assert code == EXIT_IO

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"rounds": "\xff\xfe"}')
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "x"))
        assert code == EXIT_IO
        assert out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--sigma", "1e200"], {}),
            (["--sigma", "5e153"], {}),  # lambda * sigma**2 overflows at lambda = 10
            (["--seed", "-1"], {}),
            ([], {"rounds": 2.5}),
            ([], {"rounds": "3"}),
            ([], {"seed": 1.7}),
            ([], {"seed": "1"}),
            ([], {"sigma": "0.1"}),
            ([], {"lambda_xi": "x"}),
            ([], {"d0": "1"}),
            ([], {"theta0": None}),
            ([], {"sigma": None}),
            ([], {"lambda_psi": True}),
            ([], {"rounds": 10**400}),
            ([], {"lambda_xi": 1e-320}),  # the delays overflow
            ([], {"d0": 1e308, "theta0": 1e308}),  # xi = d0 + theta0 overflows
            ([], {"d0": 1.7e308, "theta0": 0}),  # d = (xi + psi) / 2 overflows
        ],
    )
    def test_malformed_input_is_validation_error(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), *argv,
                           "--out", str(tmp_path / "x"))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert list(tmp_path.iterdir()) == [cfg]


def write_obs(path, rows):
    lines = ["k,U,V"] + [f"{k},{u},{v}" for k, u, v in rows]
    path.write_text("\n".join(lines) + "\n")


class TestEstimate:
    def test_ml_example(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(1, 3.0, 1.0), (2, 2.0, 2.0), (3, 4.0, 3.0)])
        code, out, _ = run(capsys, "estimate", "--input", str(csv), "--variant", "ml")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["estimates"]["ml"]["theta_hat_N"] == 0.5

    def test_sigma_zero_all_variants_agree(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(1, 3.0, 1.0), (2, 2.0, 2.0), (3, 4.0, 3.0)])
        code, out, _ = run(capsys, "estimate", "--input", str(csv),
                           "--variant", "all", "--sigma", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        thetas = {v["theta_hat_N"] for v in doc["estimates"].values()}
        assert thetas == {0.5}

    def test_recursive_example(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(1, 0.0, 10.0), (2, 10.0, 10.0), (3, 10.0, 0.0)])
        code, out, _ = run(capsys, "estimate", "--input", str(csv),
                           "--variant", "recursive", "--lambda-xi", "1",
                           "--lambda-psi", "1", "--sigma", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["estimates"]["recursive"]["theta_hat_N"] == pytest.approx(1.5)

    @pytest.mark.parametrize("flags, sigma", [(["--sigma", "0"], 0.0), ([], 0.01)])
    def test_params_used_are_reported(self, tmp_path, capsys, flags, sigma):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(1, 3.0, 1.0), (2, 2.0, 2.0), (3, 4.0, 3.0)])
        code, out, _ = run(capsys, "estimate", "--input", str(csv), "--lambda-psi", "4", *flags)
        assert code == EXIT_OK
        assert json.loads(out)["params"] == {"lambda_xi": 10.0, "lambda_psi": 4.0, "sigma": sigma}

    @pytest.mark.parametrize("flag", ["--d0", "--theta0"])
    def test_no_estimator_reads_d0_or_theta0(self, tmp_path, capsys, flag):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(1, 3.0, 1.0), (2, 2.0, 2.0), (3, 4.0, 3.0)])
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(csv), flag, "1"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_all_variants_in_table_order(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(1, 3.0, 1.0), (2, 2.0, 2.0), (3, 4.0, 3.0)])
        code, out, _ = run(capsys, "estimate", "--input", str(csv), "--variant", "all")
        assert code == EXIT_OK
        assert list(json.loads(out)["estimates"]) == ["recursive", "paper", "ml"]

    def test_malformed_row_named(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        csv.write_text("k,U,V\n1,1.0,2.0\n2,oops,2.0\n")
        code, _, err = run(capsys, "estimate", "--input", str(csv))
        assert code == EXIT_VALIDATION
        assert "row 3" in err

    @pytest.mark.parametrize("ks, row", [
        (["1", "3", "2"], 3),  # out of order
        (["1", "2", "4"], 4),  # round 3 missing
        (["1", "1", "2"], 3),  # round 1 twice
        (["1", "2.5", "3"], 3),  # not a whole number
        (["0", "1", "2"], 2),  # numbered from 0
        (["3", "1", "foo"], 2),  # the first row is not round 1
        (["1", "foo", "3"], 3),  # not a number
        (["1", "nan", "3"], 3),
    ])
    def test_rounds_must_be_numbered_in_file_order(self, tmp_path, capsys, ks, row):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [(k, 3.0 - i, 1.0 + i) for i, k in enumerate(ks)])
        for variant in ("ml", "all"):
            code, out, err = run(capsys, "estimate", "--input", str(csv), "--variant", variant)
            assert code == EXIT_VALIDATION
            assert out == ""
            assert f"row {row}" in err

    def test_whole_number_rounds_written_as_floats_are_read(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        write_obs(csv, [("1.0", 3.0, 1.0), (" 2", 2.0, 2.0), ("3e0", 4.0, 3.0)])
        code, out, _ = run(capsys, "estimate", "--input", str(csv), "--variant", "ml")
        assert code == EXIT_OK
        assert json.loads(out)["estimates"]["ml"]["theta_hat_N"] == 0.5

    @pytest.mark.parametrize("variant", ["recursive", "paper", "ml", "all"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_row_is_validation_error(self, tmp_path, capsys, variant, bad):
        csv = tmp_path / "obs.csv"
        csv.write_text(f"k,U,V\n1,1.0,2.0\n2,{bad},2.0\n3,1.5,1.8\n")
        code, out, err = run(capsys, "estimate", "--input", str(csv),
                             "--variant", variant)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "finite" in err

    def test_bad_header(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        csv.write_text("a,b,c\n1,1.0,2.0\n")
        code, _, err = run(capsys, "estimate", "--input", str(csv))
        assert code == EXIT_VALIDATION
        assert "k,U,V" in err

    def test_undecodable_input(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        csv.write_bytes(b"k,U,V\n1,\xff\xfe,2.0\n")
        code, out, _ = run(capsys, "estimate", "--input", str(csv))
        assert code == EXIT_IO
        assert out == ""

    def test_a_simulated_log_is_estimated_with_its_model(self, tmp_path, capsys):
        out = tmp_path / "flat"
        run(capsys, "simulate", "--rounds", "30", "--sigma", "0", "--lambda-psi", "4",
            "--out", str(out))
        code, printed, _ = run(capsys, "estimate", "--input", f"{out}_observations.csv")
        assert code == EXIT_OK
        doc = json.loads(printed)
        assert doc["params"] == {"lambda_xi": 10.0, "lambda_psi": 4.0, "sigma": 0.0}
        # at sigma = 0 every variant is the ML estimate
        assert len({v["theta_hat_N"] for v in doc["estimates"].values()}) == 1

    def test_a_flag_overrides_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "simulate", "--rounds", "30", "--sigma", "0", "--lambda-psi", "4",
            "--out", str(out))
        code, printed, _ = run(capsys, "estimate", "--input", f"{out}_observations.csv",
                               "--sigma", "0.02")
        assert code == EXIT_OK
        assert json.loads(printed)["params"] == {"lambda_xi": 10.0, "lambda_psi": 4.0,
                                                 "sigma": 0.02}

    @pytest.mark.parametrize("manifest, expected", [
        ("{not json", EXIT_IO),
        (b"\xff\xfe", EXIT_IO),
        ("[]", EXIT_VALIDATION),
        ('{"subcommand": "sweep", "config": {}}', EXIT_VALIDATION),
        ('{"subcommand": "simulate", "config": {"lambda_xi": 10.0, "sigma": 0.0}}',
         EXIT_VALIDATION),
        ('{"subcommand": "simulate", "config": {"lambda_xi": 10.0, "lambda_psi": 10.0, '
         '"sigma": -1.0}}', EXIT_VALIDATION),
    ])
    def test_a_manifest_that_cannot_be_used_is_an_error(self, tmp_path, capsys, manifest,
                                                        expected):
        out = tmp_path / "run"
        run(capsys, "simulate", "--rounds", "5", "--out", str(out))
        path = Path(f"{out}_manifest.json")
        path.write_bytes(manifest if isinstance(manifest, bytes) else manifest.encode())
        code, printed, err = run(capsys, "estimate", "--input", f"{out}_observations.csv")
        assert code == expected
        assert printed == "" and err.startswith("error: ")

    def test_manifest_that_is_not_json_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "simulate", "--rounds", "5", "--out", str(out))
        Path(f"{out}_manifest.json").write_text("garbage")
        code, printed, err = run(capsys, "estimate", "--input", f"{out}_observations.csv")
        assert code == EXIT_IO
        assert printed == ""
        assert err.startswith(f"error: {out}_manifest.json: the simulate manifest is not JSON: ")

    def test_a_refused_manifest_value_names_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(capsys, "simulate", "--rounds", "5", "--out", str(out))
        manifest = Path(f"{out}_manifest.json")
        doc = json.loads(manifest.read_text())
        doc["config"]["sigma"] = -1.0
        manifest.write_text(json.dumps(doc))
        code, printed, err = run(capsys, "estimate", "--input", f"{out}_observations.csv")
        assert code == EXIT_VALIDATION
        assert printed == ""
        assert err == f"error: {manifest}: sigma must be in [0, 1.341e+154], got -1.0\n"
        # a refused flag is the flag's, and a flag over the refused value wins
        code, _, err = run(capsys, "estimate", "--input", f"{out}_observations.csv",
                           "--sigma", "-2")
        assert code == EXIT_VALIDATION
        assert err == "error: sigma must be in [0, 1.341e+154], got -2.0\n"
        code, printed, err = run(capsys, "estimate", "--input", f"{out}_observations.csv",
                                 "--sigma", "0.02")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(printed)["params"]["sigma"] == 0.02


class TestSweep:
    def test_deterministic_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lambda_xi": 10.0, "lambda_psi": 10.0, "sigma": 0.01,
            "axis": "rounds", "values": [2, 4], "trials": 50, "seed": 5,
        }))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run(capsys, "sweep", "--config", str(cfg),
                             "--out", str(out))
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_outputs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--axis", "sigma", "--values", "0.01,0.1",
                         "--trials", "20", "--seed", "1", "--rounds", "5",
                         "--out", str(out))
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "axis,estimator,mse,stderr,trials"
        doc = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert len(doc["rows"]) == 6
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "sweep" and manifest["seed_scheme"] == 2
        assert manifest["config"]["axis"] == "sigma"

    def test_unknown_axis_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "delay", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE

    def test_rounds_values_recorded_as_ints(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, _ = run(capsys, "sweep", "--axis", "rounds", "--values", "2,4",
                         "--trials", "5", "--out", str(out))
        assert code == EXIT_OK
        text = (tmp_path / "x.csv.manifest.json").read_text()
        assert json.loads(text)["config"]["values"] == [2, 4] and "2.0" not in text

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--axis", "rounds", "--values", "2.5"], {}),
            (["--axis", "rounds", "--values", "2,x"], {}),
            (["--axis", "sigma", "--values", "0.1", "--seed", "-1"], {}),
            ([], {"axis": "rounds", "values": ["a"]}),
            ([], {"axis": "rounds", "values": [2], "trials": "x"}),
            ([], {"axis": "rounds", "values": [2], "trials": "100"}),
            ([], {"axis": "rounds", "values": [2], "seed": "x"}),
            ([], {"axis": "rounds", "values": [2], "estimators": 5}),
            (["--axis", "sigma", "--values", "0.1"], {"rounds": 2.5}),
            (["--axis", "sigma", "--values", "0.1"], {"rounds": "3"}),
            (["--axis", "rounds", "--values", "2", "--sigma", "1e200"], {}),
            ([], {"axis": ["rounds"], "values": [2]}),
            ([], {"axis": "sigma", "values": [10**400]}),
            ([], {"axis": "rounds", "values": [10**400]}),
        ],
    )
    def test_malformed_sweep_input_is_validation_error(self, tmp_path, capsys,
                                                       argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), *argv,
                           "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"lambda_xi": 1e-320},  # the delays overflow
            {"d0": 0.0, "theta0": 1.7e308},  # xi - psi overflows
            {"sigma": 1e154, "lambda_xi": 1, "lambda_psi": 1},  # mse overflows
        ],
    )
    def test_overflowing_cells_fail_without_warning(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"axis": "rounds", "values": [2, 5], "trials": 20,
                                   **config}))
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
        assert code == EXIT_OK and err == ""
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 6
        assert all(r["estimator"].endswith(":failed[ParameterError]") for r in rows)

    def test_missing_values(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--axis", "rounds",
                           "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION
        assert "values" in err


# each setting's config value, its flag's text and the value that flag gives;
# only the config file sets the estimators
PRECEDENCE = {
    "lambda_xi": (2.0, "3.0", 3.0),
    "lambda_psi": (4.0, "5.0", 5.0),
    "sigma": (0.02, "0.03", 0.03),
    "d0": (1.5, "2.5", 2.5),
    "theta0": (-0.25, "0.75", 0.75),
    "rounds": (3, "4", 4),
    "axis": ("sigma", "rounds", "rounds"),
    "values": ([2, 4], "3,5", [3, 5]),
    "trials": (3, "4", 4),
    "seed": (5, "6", 6),
    "estimators": (["ml"], None, None),
}
# what a sweep needs when the setting under test comes from elsewhere
SWEEP_BASE = {"axis": "rounds", "values": [2], "trials": 2}
PRECEDENCE_CASES = [
    (command, key, source)
    for command, keys in (("simulate", [*_MODEL_KEYS, "seed"]), ("sweep", list(_DEFAULTS)))
    for key in keys
    for source in ("flag", "config", "default")
    if not (key == "estimators" and source == "flag")
]


class TestPrecedence:
    @pytest.mark.parametrize("command, key, source", PRECEDENCE_CASES)
    def test_flag_then_config_then_default(self, tmp_path, capsys, command, key, source):
        config_value, flag, flag_value = PRECEDENCE[key]
        config = {k: v for k, v in SWEEP_BASE.items() if k != key} if command == "sweep" else {}
        argv = []
        if source != "default":
            config[key] = config_value
        if source == "flag":
            argv = [f"--{key.replace('_', '-')}", flag]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        code, _, err = run(capsys, command, "--config", str(cfg), *argv, "--out", str(out))
        expected = {"flag": flag_value, "config": config_value, "default": _DEFAULTS[key]}[source]
        if expected is None:
            # axis and values have no default, and a sweep needs both
            assert code == EXIT_VALIDATION and key in err
            return
        assert code == EXIT_OK
        suffix = "_manifest.json" if command == "simulate" else ".manifest.json"
        manifest = json.loads(Path(f"{out}{suffix}").read_text())
        recorded = {**manifest["config"], "seed": manifest["seed"]}[key]
        assert recorded == json.loads(json.dumps(expected))


class TestRepeatedCalls:
    """``main`` may be called again and again in one process: no call leaves state behind."""

    SWEEP = ("sweep", "--axis", "rounds", "--values", "2,5", "--out", "mse.csv")

    @staticmethod
    def files_written(capsys, monkeypatch, directory, *argvs):
        directory.mkdir()
        monkeypatch.chdir(directory)
        for argv in argvs:
            assert run(capsys, *argv)[0] == EXIT_OK
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def test_a_sweep_after_another_writes_what_it_writes_first(self, tmp_path, capsys,
                                                                monkeypatch):
        first = self.files_written(capsys, monkeypatch, tmp_path / "first", self.SWEEP)
        after = self.files_written(capsys, monkeypatch, tmp_path / "after",
                                   (*self.SWEEP, "--seed", "7", "--trials", "3"), self.SWEEP)
        assert sorted(first) == ["mse.csv", "mse.csv.json", "mse.csv.manifest.json"]
        assert after == first

    def test_a_usage_error_then_a_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "delay", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "sweep", "--axis", "rounds", "--values", "2",
                                "--trials", "5", "--out", str(out))
        assert (code, err) == (EXIT_OK, "") and stdout.startswith("wrote ")
        assert out.read_text().splitlines()[0] == "axis,estimator,mse,stderr,trials"


def philox_path(params, key, counter=0):
    """The latent path and observations drawn, in that order, from one Philox constructor."""
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    path = model.simulate_paths(params, rng)
    return path, model.simulate_observations(path, params, rng)


class TestSeedDomains:
    """Each subcommand draws from streams of its own, replayable from the Philox constructor."""

    PARAMS = ClockModelParams(10.0, 10.0, 1e-2, 1.0, 0.5, 4)

    @staticmethod
    def walks(monkeypatch, capsys, *argv):
        """The bytes of each latent walk a run draws: each simulated path, each sweep trial's."""
        walks = []

        def recorded_paths(params, seed):
            path = model.simulate_paths(params, seed)
            walks.append(np.stack([path.xi, path.psi]).tobytes())
            return path

        def recorded_walks(noise, params):
            walk = model.random_walks(noise, params)
            walks.extend(trial.tobytes() for trial in walk)
            return walk

        monkeypatch.setattr(cli, "simulate_paths", recorded_paths)
        monkeypatch.setattr(experiments, "random_walks", recorded_walks)
        assert run(capsys, *argv)[0] == EXIT_OK
        return walks

    def test_one_seed_draws_apart_in_each_subcommand(self, tmp_path, capsys, monkeypatch):
        # numpy pads [5, 0], [5, 0, 0] and [5, 0, 0, 0] to one entropy, so the
        # first scheme drew these three first paths from one stream
        monkeypatch.chdir(tmp_path)
        flags = ("--rounds", "4", "--seed", "5")
        simulate = self.walks(monkeypatch, capsys, "simulate", *flags, "--out", "s")
        oracle = self.walks(monkeypatch, capsys, "compare-oracle", *flags, "--instances", "3")
        sweep = self.walks(monkeypatch, capsys, "sweep", *flags, "--axis", "rounds",
                           "--values", "4", "--trials", "3", "--out", "w.csv")
        assert (len(simulate), len(oracle), len(sweep)) == (1, 3, 3)
        assert len(set(simulate + oracle + sweep)) == 7

    def test_a_two_word_seed_is_not_another_subcommands_instance(self, tmp_path, capsys,
                                                                  monkeypatch):
        # numpy reads [2**32, 0] and [0, 1, 0] as the same words [0, 1, 0], so the
        # first scheme drew simulate --seed 2**32 as compare-oracle --seed 0 instance 1
        monkeypatch.chdir(tmp_path)
        simulate = self.walks(monkeypatch, capsys, "simulate", "--rounds", "4",
                              "--seed", str(2**32), "--out", "s")
        oracle = self.walks(monkeypatch, capsys, "compare-oracle", "--rounds", "4",
                            "--seed", "0", "--instances", "2")
        assert simulate[0] not in oracle

    def test_simulate_replays_from_its_stream(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "simulate", "--rounds", "4", "--seed", "9", "--out", "s")[0] == EXIT_OK
        path, obs = philox_path(self.PARAMS, key=[9, 1])
        with open("s_observations.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["U"]) for r in rows] == obs.U.tolist()
        assert [float(r["V"]) for r in rows] == obs.V.tolist()
        with open("s_latent.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["xi"]) for r in rows] == path.xi.tolist()
        assert [float(r["psi"]) for r in rows] == path.psi.tolist()

    def test_compare_oracle_instances_replay_from_their_streams(self, capsys, monkeypatch):
        oracle = self.walks(monkeypatch, capsys, "compare-oracle", "--rounds", "4",
                            "--seed", "9", "--instances", "3")
        for i, walk in enumerate(oracle):
            path, _ = philox_path(self.PARAMS, key=[9, 2], counter=[0, 0, 0, i])
            assert walk == np.stack([path.xi, path.psi]).tobytes()


class TestCompareOracle:
    def test_single_round_zero_deviation(self, capsys):
        code, out, _ = run(capsys, "compare-oracle", "--rounds", "1",
                           "--instances", "10", "--seed", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["max_abs_dev_backtrack"]["value"] == 0.0
        assert doc["max_abs_dev_paper_closed_form"]["value"] == 0.0

    def test_backtrack_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "compare-oracle", "--rounds", "6",
                           "--instances", "50", "--seed", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["max_abs_dev_backtrack"]["value"] <= 1e-8
        assert "index" in doc["max_abs_dev_backtrack"]["at"]

    def test_rounds_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare-oracle", "--rounds", "13")
        assert code == EXIT_USAGE
        assert "12" in err

    def test_work_above_the_enumeration_limit_is_usage_error(self, capsys, tmp_path,
                                                             monkeypatch):
        # 10**15 instances of 3 active sets each: refused before any instance
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "compare-oracle", "--instances", "1000000000000000",
                             "--rounds", "2")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(2**28) in err
        assert list(tmp_path.iterdir()) == []

    def test_work_limit_counts_active_sets(self, capsys, monkeypatch):
        # at N = 2 an instance costs its 3 active sets and INSTANCE_SETS = 256
        monkeypatch.setattr(cli, "MAX_ENUM_SETS", 2590)
        code, out, _ = run(capsys, "compare-oracle", "--rounds", "2", "--instances", "10")
        assert code == EXIT_OK and json.loads(out)["instances"] == 10
        code, out, err = run(capsys, "compare-oracle", "--rounds", "2", "--instances", "11")
        assert code == EXIT_USAGE and out == "" and "11 * 259" in err

    def test_work_limit_charges_each_instance(self, capsys, monkeypatch):
        # one active set each, but 2**28 simulations and estimates: about a
        # day of work, refused before the first instance
        def no_instance(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(cli, "simulate_paths", no_instance)
        code, out, err = run(capsys, "compare-oracle", "--rounds", "1",
                             "--instances", "268435456")
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert "268435456 * 257" in err

    def test_work_limit_admits_the_enumeration_cap(self, capsys):
        code, out, _ = run(capsys, "compare-oracle", "--rounds", "12", "--instances", "20")
        assert code == EXIT_OK and json.loads(out)["instances"] == 20

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_non_positive_instances_is_validation_error(self, capsys, instances):
        code, out, err = run(capsys, "compare-oracle", "--instances", instances)
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "instances" in err

    def test_negative_seed_is_validation_error(self, capsys):
        code, out, err = run(capsys, "compare-oracle", "--seed", "-1",
                             "--instances", "2")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_extreme_sigma_is_validation_error(self, capsys, sigma):
        code, out, err = run(capsys, "compare-oracle", "--sigma", sigma,
                             "--rounds", "4", "--instances", "3")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "sigma" in err


# A valid config with up to three known keys set to any JSON value. Counts are
# drawn from 1..50, or from values every count refuses, so that no example
# allocates more than a few MB.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.floats() | st.integers()
    | st.integers(2**1024, 2**1100) | st.sampled_from(["rounds", "sigma", "ml"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
COUNT_SCALARS = (
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-50, 50)
    | st.floats(-50, 50) | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.integers(2**1024, 2**1100)
)
COUNTS = (COUNT_SCALARS | st.lists(COUNT_SCALARS, max_size=4)
          | st.dictionaries(st.text(max_size=3), COUNT_SCALARS, max_size=2))
COUNT_KEYS = ("rounds", "trials", "seed", "values")
VALID_CONFIGS = st.fixed_dictionaries({
    **dict.fromkeys(("lambda_xi", "lambda_psi", "sigma", "d0"), st.floats(1e-3, 1e3)),
    "theta0": st.floats(-1e3, 1e3),
    **dict.fromkeys(("rounds", "trials", "seed"), st.integers(1, 50)),
    "values": st.sets(st.integers(1, 50), min_size=1, max_size=4).map(sorted),
    "axis": st.sampled_from(["rounds", "sigma"]),
    "estimators": st.lists(st.sampled_from(ALL_ESTIMATORS), min_size=1, max_size=3),
})
CONFIGS = st.builds(
    lambda valid, replaced: {**valid, **replaced},
    VALID_CONFIGS,
    st.lists(st.sampled_from(list(_DEFAULTS)), max_size=3, unique=True)
    .flatmap(lambda keys: st.fixed_dictionaries(
        {key: COUNTS if key in COUNT_KEYS else ANY_JSON for key in keys})),
)


# Flag values for every subcommand. Counts come from 1..50, from values every
# count refuses, or are >= 10**15, so that an example either runs in a few MB
# or fails its first allocation at once; compare-oracle keeps rounds <= 6 and
# a loop count (--instances) small, refused, or above the enumeration work limit.
REFUSED_COUNTS = st.integers(-50, 0) | st.integers(2**53 + 1, 10**25)
FLAG_COUNTS = st.integers(1, 50) | REFUSED_COUNTS | st.integers(10**15, 2**53)
FLAG_REALS = st.floats(1e-3, 1e3) | st.floats()
ESTIMATE_FLAGS = dict.fromkeys(("--lambda-xi", "--lambda-psi", "--sigma"), FLAG_REALS)
MODEL_FLAGS = {**ESTIMATE_FLAGS, "--d0": FLAG_REALS, "--theta0": FLAG_REALS}
SWEEP_VALUES = st.text(max_size=5) | st.lists(
    st.integers(1, 50) | st.integers(10**15, 10**25) | st.floats(), min_size=1, max_size=4
).map(lambda values: ",".join(map(repr, sorted(values, key=float))))
OBSERVATIONS = st.lists(st.tuples(FLAG_REALS, FLAG_REALS), min_size=1, max_size=6)
FLAGS = {
    "simulate": ({}, {"--rounds": FLAG_COUNTS, "--seed": FLAG_COUNTS, **MODEL_FLAGS}),
    "sweep": (
        {"--axis": st.sampled_from(["rounds", "sigma"]), "--values": SWEEP_VALUES,
         "--trials": FLAG_COUNTS},
        {"--rounds": FLAG_COUNTS, "--seed": FLAG_COUNTS, **MODEL_FLAGS},
    ),
    "estimate": ({}, {"--variant": st.sampled_from(["recursive", "paper", "ml", "all"]),
                      **ESTIMATE_FLAGS}),
    "compare-oracle": (
        {"--rounds": st.integers(1, 6) | REFUSED_COUNTS | st.integers(10**15, 2**53),
         "--instances": st.integers(1, 50) | REFUSED_COUNTS | st.integers(10**15, 2**53)},
        {"--seed": FLAG_COUNTS, **MODEL_FLAGS},
    ),
}
COMMAND_FLAGS = st.sampled_from(sorted(FLAGS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.fixed_dictionaries(FLAGS[command][0], optional=FLAGS[command][1]),
))


class TestErrorContract:
    @given(command=st.sampled_from(["simulate", "sweep"]), config=CONFIGS)
    @settings(max_examples=300, deadline=None)
    def test_generated_configs(self, command, config):
        # exit 0, or one error line, a documented code and no file written
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", f"{tmp}/o"])
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_IO)
            if code != EXIT_OK:
                assert err.getvalue().startswith("error: ")
                assert len(err.getvalue().splitlines()) == 1
                assert out.getvalue() == ""
                assert list(Path(tmp).iterdir()) == [cfg]
            elif command == "simulate":
                with open(f"{tmp}/o_observations.csv") as fh:
                    rows = list(csv.DictReader(fh))
                assert all(math.isfinite(float(r[c])) for r in rows for c in "UV")

    @given(command_flags=COMMAND_FLAGS, observations=OBSERVATIONS)
    @example(("compare-oracle", {"--theta0": 1e300, "--rounds": 4, "--instances": 2}), [])
    @example(("compare-oracle", {"--d0": 1e300, "--rounds": 4, "--instances": 2}), [])
    @example(("compare-oracle", {"--theta0": 1.7976931330646228e308, "--rounds": 1,
                                 "--instances": 1, "--seed": 1}), [])
    @example(("estimate", {"--sigma": 1e153}), [(1.7e308, -1.7e308)] * 2)
    @example(("simulate", {"--rounds": 10**15}), [])
    @example(("sweep", {"--axis": "rounds", "--values": "2", "--trials": 10**15}), [])
    @settings(max_examples=300, deadline=None)
    def test_generated_flags(self, command_flags, observations):
        # exit 0 with finite results, or one error line, a documented code and
        # no file written
        command, flags = command_flags
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
            if command == "estimate":
                obs = Path(tmp) / "obs.csv"
                obs.write_text("k,U,V\n" + "".join(
                    f"{k},{u!r},{v!r}\n" for k, (u, v) in enumerate(observations, 1)))
                argv.append(f"--input={obs}")
            elif command != "compare-oracle":
                argv.append(f"--out={tmp}/o")
            before = sorted(Path(tmp).iterdir())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_IO)
            if code != EXIT_OK:
                assert err.getvalue().startswith("error: ")
                assert len(err.getvalue().splitlines()) == 1
                assert out.getvalue() == ""
                assert sorted(Path(tmp).iterdir()) == before
            elif command in ("estimate", "compare-oracle"):
                report = json.loads(out.getvalue())
                values = (report["estimates"].values() if command == "estimate" else
                          [v for v in report.values() if isinstance(v, dict)])
                assert all(math.isfinite(x) for v in values for x in v.values()
                           if isinstance(x, float))
