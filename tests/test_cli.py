import json

import pytest

from pnmkit.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_config(**overrides):
    cfg = {
        "problem": {"name": "rosenbrock"},
        "optimizer": {"name": "hb", "lr": 0.001, "beta1": 0.9},
        "steps": 50,
        "seeds": [1, 2],
    }
    cfg.update(overrides)
    return cfg


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, run_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, run_config(stepz=10))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == EXIT_IO

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, run_config(
            problem={"name": "quadratic", "eigenvalues": [1.0, 4.0]},
            optimizer={"name": "sgd", "lr": 5.0},
            steps=500,
        ))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGED

    def test_mlp_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, run_config(
            problem={"name": "two_moons_mlp", "n": 80, "hidden": 4},
            optimizer={"name": "sgd", "lr": 1e12},
            steps=20, batch_size=10,
        ))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGED

    MALFORMED = [
        ("eval_every", 0),
        ("eval_every", -3),
        ("steps", -5),
        ("steps", 50.7),
        ("steps", True),
        ("seeds", [1.5]),
        ("seeds", [True]),
        ("batch_size", "8"),
        ("lr_decay.milestones", "10"),
        ("lr_decay.milestones", [5.5]),
        ("lr_decay.factor", "0.1"),
    ]

    @pytest.mark.parametrize("key,value", MALFORMED,
                             ids=[f"{k}={v!r}" for k, v in MALFORMED])
    def test_malformed_run_value_is_config_error(self, tmp_path, capsys, key, value):
        if key.startswith("lr_decay."):
            overrides = {"lr_decay": {key.split(".")[1]: value}}
        else:
            overrides = {key: value}
        cfg = write_config(tmp_path, run_config(**overrides))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestOutputs:
    def test_run_writes_summary_and_trajectories(self, tmp_path):
        cfg = write_config(tmp_path, run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(list(out.glob("summary_*.json"))) == 1
        assert len(list(out.glob("trajectory_*.csv"))) == 2

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "9"]) == EXIT_OK
        summary = json.loads(next(out.glob("summary_*.json")).read_text())
        assert [r["seed"] for r in summary["results"]] == [9]

    def test_pacbayes_table(self, tmp_path):
        cfg = write_config(tmp_path, {
            "eta": 0.001, "batch_size": 128, "dataset_size": 50000,
            "lam": 1e-4, "dim": 100, "delta": 0.05, "theta_norm_sq": 25.0,
            "gammas": [1.0, 5.0, 25.6],
        })
        out = tmp_path / "out"
        assert main(["pacbayes", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "pacbayes_table.csv").read_text().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "gamma,kl,kl_grad,bound"
        assert len(lines) == 5
        summary = json.loads((out / "pacbayes_summary.json").read_text())
        assert summary["critical_ratio"] == 0.0390625
        assert summary["optimal_gamma"] == 25.6

    def test_noise_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {
            "beta1": 0.9, "beta0_values": [1.0], "steps": 200000, "dim": 1,
            "seed": 3,
        })
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "noise_ratios.json").read_text())
        row = payload["ratios"][0]
        assert abs(row["measured_ratio"] - row["predicted"]) < 0.1

    def test_posterior_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kind": "sgd", "eigenvalues": [1.0], "eta": 0.01,
            "noise_sigma2": 1.0, "burn_in": 2000, "samples": 100000,
            "chains": 16, "seed": 5, "batch_size": 100,
        })
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "posterior.json").read_text())
        assert abs(payload["empirical_covariance"][0]
                   - payload["closed_form_variance"]) < 0.001

    def test_convergence_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"name": "quadratic", "eigenvalues": [1.0, 4.0],
                         "theta0": [3.0, -2.0], "noise_sigma2": 1.0},
            "horizons": [100, 1600], "seeds": 6,
        })
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "convergence_summary.json").read_text())
        assert summary["slope"] < 0
        assert summary["bound_satisfied"]

    def test_sweep_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {
            "base": {
                "problem": {"name": "two_moons_mlp", "n": 80, "noise": 0.2,
                             "hidden": 4, "test_fraction": 0.5},
                "optimizer": {"name": "pnm", "lr": 0.5, "beta1": 0.9},
                "steps": 60, "batch_size": 20, "seeds": [0],
            },
            "beta0_grid": [0.0, 1.0],
        })
        out = tmp_path / "out"
        assert main(["sweep-beta0", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "beta0_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config_digest=") and "prng=pcg64" in lines[0]
        assert lines[1] == "beta0,mean_test_error,std_test_error"
        assert len(lines) == 4

    def test_label_noise_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {
            "base": {
                "problem": {"name": "two_moons_mlp", "n": 80, "noise": 0.2,
                             "hidden": 4, "test_fraction": 0.5,
                             "label_noise": {"kind": "symmetric", "rate": 0.2}},
                "steps": 60, "batch_size": 20, "seeds": [0, 1],
            },
            "optimizer_a": {"name": "pnm", "lr": 0.5, "beta0": 2.0},
            "optimizer_b": {"name": "hb", "lr": 0.05, "beta1": 0.9},
        })
        out = tmp_path / "out"
        assert main(["label-noise", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "label_noise_report.json").read_text())
        assert "test_error_comparison" in report

    def test_grid_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, {
            "base": {
                "problem": {"name": "two_moons_mlp", "n": 80, "noise": 0.2,
                             "hidden": 4, "test_fraction": 0.5},
                "optimizer": {"name": "hb", "lr": 0.1, "beta1": 0.9},
                "steps": 60, "batch_size": 20, "seeds": [0],
            },
            "lrs": [0.05, 0.1], "lams": [0.0, 1e-4],
        })
        out = tmp_path / "out"
        assert main(["grid", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "lr_wd_grid.json").read_text())
        assert len(report["mean_test_error"]) == 2
        assert len(report["mean_test_error"][0]) == 2
