import json

import pytest

from fgclock.cli import (
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)


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
        assert doc["seed"] == 3
        assert doc["config"]["rounds"] == 4

    def test_invalid_sigma_names_field(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "x"),
                           "--sigma", "-0.5")
        assert code == EXIT_VALIDATION
        assert "sigma" in err

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

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "simulate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "x"))
        assert code == EXIT_IO


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

    def test_malformed_row_named(self, tmp_path, capsys):
        csv = tmp_path / "obs.csv"
        csv.write_text("k,U,V\n1,1.0,2.0\n2,oops,2.0\n")
        code, _, err = run(capsys, "estimate", "--input", str(csv))
        assert code == EXIT_VALIDATION
        assert "row 3" in err

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
        assert manifest["subcommand"] == "sweep"
        assert manifest["config"]["axis"] == "sigma"

    def test_unknown_axis_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "delay", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE

    def test_missing_values(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--axis", "rounds",
                           "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION
        assert "values" in err


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

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_extreme_sigma_is_validation_error(self, capsys, sigma):
        code, out, err = run(capsys, "compare-oracle", "--sigma", sigma,
                             "--rounds", "4", "--instances", "3")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "sigma" in err
