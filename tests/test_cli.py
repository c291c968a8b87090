import ast
import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pnmkit
from pnmkit import harness, noise, optim, pacbayes, posterior
from pnmkit.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, build_parser, main
from pnmkit.core import RngStream, config_digest


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


PACBAYES = {
    "eta": 0.001, "batch_size": 128, "dataset_size": 50000,
    "lam": 1e-4, "dim": 100, "delta": 0.05, "theta_norm_sq": 25.0,
    "gammas": [1.0, 5.0, 25.6],
}

CONVERGENCE = {
    "problem": {"name": "quadratic", "eigenvalues": [1.0, 4.0],
                "theta0": [3.0, -2.0], "noise_sigma2": 1.0},
    "horizons": [50, 200], "seeds": 2,
}

TINY_MLP = {"name": "two_moons_mlp", "n": 40, "noise": 0.2, "hidden": 2,
            "test_fraction": 0.5}

QUADRATIC_RUN = run_config(problem={"name": "quadratic", "eigenvalues": [1.0, 4.0]})
LINEAR_RUN = run_config(problem={"name": "linear_regression", "dim": 4, "n": 50})
# csv_path is set per test, to a file written by write_csv.
CSV_RUN = run_config(problem={"name": "csv_mlp", "hidden": 2}, steps=5, batch_size=8, seeds=[0])
ADAM_RUN = run_config(optimizer={"name": "adam", "lr": 0.001})
SGD_RUN = run_config(optimizer={"name": "sgd", "lr": 0.001})
# A csv_path that a test replaces by a file whose line 5 is not numbers.
MALFORMED_CSV = "malformed.csv"

# One tiny valid config per command; each runs in well under a second.
TINY = {
    "run": run_config(
        problem={**TINY_MLP, "init_scale": 0.5,
                 "label_noise": {"kind": "symmetric", "rate": 0.1}},
        optimizer={"name": "pnm", "lr": 0.1, "beta0": 1.0, "beta1": 0.9,
                   "weight_decay": {"mode": "decoupled", "lam": 0.0}},
        steps=3, batch_size=8, seeds=[0], eval_every=1,
        lr_decay={"milestones": [2], "factor": 0.5}),
    "sweep-beta0": {
        "base": run_config(problem=TINY_MLP, steps=3, batch_size=8, seeds=[0],
                           optimizer={"name": "pnm", "lr": 0.1}),
        "beta0_grid": [0.0, 1.0],
    },
    "label-noise": {
        "base": {"problem": TINY_MLP, "steps": 3, "batch_size": 8, "seeds": [0]},
        "optimizer_a": {"name": "pnm", "lr": 0.1, "beta0": 1.0},
        "optimizer_b": {"name": "hb", "lr": 0.1, "beta1": 0.9},
    },
    "grid": {
        "base": run_config(steps=3, seeds=[0], optimizer={
            "name": "hb", "lr": 0.001, "weight_decay": {"mode": "l2", "lam": 0.0}}),
        "lrs": [0.001], "lams": [0.0],
    },
    "posterior": {"kind": "sgd", "eigenvalues": [1.0], "eta": 0.01, "noise_sigma2": 1.0,
                  "burn_in": 10, "samples": 64, "thin": 1, "chains": 2, "seed": 0,
                  "batch_size": 10},
    "pacbayes": PACBAYES,
    "noise": {"beta1": 0.9, "beta0_values": [1.0], "steps": 200, "dim": 1, "seed": 0},
    "convergence": {**CONVERGENCE, "horizons": [5, 10], "step_constant": 1.0, "beta0": 1.0,
                    "beta1": 0.9},
}


def table_name(payload, key):
    """The problem name, optimizer name or posterior kind whose key table reads ``key``."""
    payload = payload.get("base", payload)
    if key.startswith("optimizer."):
        return payload["optimizer"]["name"]
    return payload["problem"]["name"] if "problem" in payload else payload["kind"]


def with_value(payload, path, value):
    """A deep copy of ``payload`` with the dotted key ``path`` set to ``value``;
    missing sections on the way are created."""
    payload = copy.deepcopy(payload)
    *parents, leaf = path.split(".")
    node = payload
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return payload


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

    # 2^1000 and 2^-1000: step 1 lands exactly on 0, but the gradient at theta0 squares
    # to inf. It used to exit 0 with a finite summary and a trajectory row 0,inf,inf.
    def test_non_finite_trajectory_cell_is_divergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(
            problem={"name": "quadratic", "eigenvalues": [1.0715086071862673e+301],
                     "theta0": [1048576.0]},
            optimizer={"name": "sgd", "lr": 9.332636185032189e-302}, steps=1, seeds=[0]))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "'rows[1][1]' is not finite" in err
        (path,) = re.findall(r"so (\S+trajectory_\w+_seed0\.csv) cannot be written", err)
        assert not Path(path).exists()
        assert not out.exists()  # nor the finite summary beside it

    def test_refused_report_writes_no_file(self, tmp_path, capsys):
        # The summary JSON is finite; a KL cell of its table is not.
        cfg = write_config(tmp_path, {"eta": 1.0, "batch_size": 1, "dataset_size": 100,
                                      "lam": 1e200, "dim": 1, "delta": 0.05})
        out = tmp_path / "out"
        assert main(["pacbayes", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        assert "'rows[28][1]' is not finite" in capsys.readouterr().err
        assert not out.exists()

    # It used to overflow with a RuntimeWarning instead of ending as 1e20 does.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_init_scale_is_divergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, with_value(TINY["run"], "problem.init_scale", 1e308))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGED
        assert re.search(r"diverged at step 1 for seed 0:", capsys.readouterr().err)

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

    @pytest.mark.parametrize("theta0", [1.0, [1.0, 2.0, 3.0], [float("nan"), 1.0],
                                        [1.0, float("inf")]],
                             ids=["scalar", "length3", "nan", "inf"])
    def test_bad_theta0_is_config_error(self, tmp_path, capsys, theta0):
        cfg = write_config(tmp_path, run_config(
            problem={"name": "quadratic", "eigenvalues": [1.0, 4.0], "theta0": theta0}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "theta0" in capsys.readouterr().err

    # Problems whose stochastic gradient is the full gradient (plus noise).
    UNBATCHED = [
        {"name": "quadratic", "eigenvalues": [1.0, 4.0], "noise_sigma2": 1.0},
        {"name": "quadratic", "eigenvalues": [1.0, 4.0]},
        {"name": "rosenbrock"},
        {"name": "linear_regression", "dim": 4, "n": 50, "noise_sigma2": 0.5},
    ]

    @pytest.mark.parametrize("problem", UNBATCHED,
                             ids=["noisy_quadratic", "quadratic", "rosenbrock",
                                  "noisy_linear_regression"])
    def test_unread_batch_size_is_config_error(self, tmp_path, capsys, problem):
        cfg = write_config(tmp_path, run_config(problem=problem, batch_size=10))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "batch_size" in capsys.readouterr().err

    # Each of these used to run on a coerced value (or die in a raw
    # traceback for a zero or string horizon list).
    MALFORMED_CONVERGENCE = [
        ("beta0", True),
        ("beta1", "0.9"),
        ("seeds", [1.5]),
        ("seeds", True),
        ("seeds", [True]),
        ("seeds", []),
        ("seeds", 0),
        ("horizons", [10.7, 100]),
        ("horizons", [0, 100]),
        ("horizons", "10"),
        # Equal horizons leave the log-log slope fit singular.
        ("horizons", [1, 1]),
        ("horizons", [200, 200, 200]),
    ]

    @pytest.mark.parametrize("key,value", MALFORMED_CONVERGENCE,
                             ids=[f"{k}={v!r}" for k, v in MALFORMED_CONVERGENCE])
    def test_malformed_convergence_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**CONVERGENCE, key: value})
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not (out / "convergence_summary.json").exists()

    # The first ten used to run on a value coerced by float() or int(); the
    # rest failed with a message that named no key (the batch size only at
    # step 1), or ran on a value their key now rejects (a negative noise).
    COERCED = [
        ("run", TINY["run"], "optimizer.lr", True),
        ("run", run_config(problem={"name": "quadratic", "dim": 2}), "problem.dim", True),
        ("run", TINY["run"], "problem.hidden", 4.7),
        ("pacbayes", PACBAYES, "batch_size", 128.9),
        ("pacbayes", PACBAYES, "dim", True),
        ("posterior", TINY["posterior"], "eta", "0.01"),
        ("posterior", TINY["posterior"], "samples", "100"),
        ("posterior", TINY["posterior"], "seed", 1.5),
        ("noise", TINY["noise"], "beta0_values", [True]),
        ("sweep-beta0", TINY["sweep-beta0"], "beta0_grid", [True, "2"]),
        ("run", TINY["run"], "problem.label_noise.rate", 1.5),
        ("run", TINY["run"], "problem.label_noise.kind", "uniform"),
        ("run", TINY["run"], "problem.n", 1),
        ("run", TINY["run"], "batch_size", 21),
        ("run", QUADRATIC_RUN, "problem.eigenvalues", [1.0, -1.0]),
        ("run", QUADRATIC_RUN, "problem.dim", 3),
        ("run", QUADRATIC_RUN, "problem.theta_star", [1.0]),
        ("convergence", CONVERGENCE, "problem.eigenvalues", [1.0, 0.0]),
        ("posterior", TINY["posterior"], "eigenvalues", [-1.0]),
        ("posterior", TINY["posterior"], "kind", "foo"),
        ("run", TINY["run"], "problem.noise", -0.2),
        ("convergence", CONVERGENCE, "problem.name", "rosenbrock"),
        # A name in another case used to run; the rest failed in a constructor or a
        # library check whose message did not quote the key.
        ("run", TINY["run"], "optimizer.name", "PNM"),
        ("run", TINY["run"], "optimizer.lr", 0),
        ("run", ADAM_RUN, "optimizer.eps", 0),
        ("run", run_config(), "optimizer.beta3", 0),
        ("posterior", TINY["posterior"], "eta", -1),
        ("pacbayes", PACBAYES, "lam", -1),
        ("pacbayes", PACBAYES, "delta", 1.5),
        ("convergence", CONVERGENCE, "step_constant", -1),
        ("run", CSV_RUN, "problem.csv_path", MALFORMED_CSV),
        # 1e308 escaped as an OverflowError; the others named no range.
        ("run", TINY["run"], "problem.test_fraction", 1e308),
        ("run", TINY["run"], "problem.test_fraction", 1.5),
        ("run", TINY["run"], "problem.test_fraction", -0.2),
    ]

    @pytest.mark.parametrize("command,payload,key,value", COERCED,
                             ids=[f"{c} {k}={v!r}" for c, _, k, v in COERCED])
    def test_coerced_value_is_config_error(self, tmp_path, capsys, monkeypatch, command,
                                           payload, key, value):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        if value == MALFORMED_CSV:
            value = write_csv(tmp_path / value, [i % 2 for i in range(30)], bad_line=5)
        cfg = write_config(tmp_path, with_value(payload, key, value))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err

    # Each key is read only by another problem, optimizer, weight-decay mode or
    # posterior kind, and used to be ignored (or to fail in a constructor).
    UNREAD = [
        *[("run", run_config(), f"problem.{key}", value) for key, value in [
            ("eigenvalues", [-1.0]), ("dim", 7), ("f0", 3.0), ("n", 5),
            ("theta_star", [1.0, 1.0])]],
        ("run", QUADRATIC_RUN, "problem.n", 3),
        ("run", LINEAR_RUN, "problem.eigenvalues", [1.0]),
        ("run", LINEAR_RUN, "problem.f0", 3.0),
        ("run", CSV_RUN, "problem.n", 1),
        ("run", CSV_RUN, "problem.noise", -5.0),
        ("run", TINY["run"], "problem.csv_path", "absent.csv"),
        ("sweep-beta0", TINY["sweep-beta0"], "base.problem.csv_path", "absent.csv"),
        ("run", run_config(), "optimizer.beta0", 3.0),
        ("run", SGD_RUN, "optimizer.amsgrad", True),
        ("run", ADAM_RUN, "optimizer.beta0", 1.0),
        ("run", ADAM_RUN, "optimizer.weight_decay.lam", 0.5),
        ("run", run_config(optimizer={"name": "hb", "lr": 0.001,
                                      "weight_decay": {"mode": "none"}}),
         "optimizer.weight_decay.lam", 0.1),
        ("posterior", TINY["posterior"], "beta0", 5.0),
        ("posterior", {**TINY["posterior"], "kind": "hb"}, "beta0", 1.0),
        ("posterior", {**TINY["posterior"], "kind": "pnm"}, "beta1", 0.9),
    ]

    @pytest.mark.parametrize("command,payload,key,value", UNREAD,
                             ids=[f"{c} {table_name(p, k)} {k}" for c, p, k, _ in UNREAD])
    def test_key_the_problem_does_not_read_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                           command, payload, key, value):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        payload = with_value(payload, key, value)
        problem = payload.get("base", payload).get("problem", {})
        if problem.get("name") == "csv_mlp":
            problem["csv_path"] = write_csv(tmp_path / "data.csv", [i % 2 for i in range(30)])
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        where, _, leaf = key.rpartition(".")
        assert f"unknown key(s) in {where or 'config'}: ['{leaf}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["label-noise", "sweep-beta0"])
    @pytest.mark.parametrize("problem", [{"name": "rosenbrock"},
                                         {"name": "quadratic", "dim": 2}],
                             ids=["rosenbrock", "quadratic"])
    def test_protocol_without_test_error_fails_before_training(
            self, tmp_path, capsys, monkeypatch, command, problem):
        monkeypatch.setattr(harness, "run_seed",
                            lambda *a, **k: pytest.fail("trained before failing"))
        payload = copy.deepcopy(TINY[command])
        payload["base"]["problem"] = problem
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "'base.problem.name'" in capsys.readouterr().err

    # Each breaks an arm other than the first; it used to fail only after the
    # arms before it had trained. A bad list entry used to be named as the
    # merged 'base.optimizer' instead of by its list. A repeated beta0 used to
    # run, then share one key of the report, which is keyed by beta0.
    MALFORMED_ARM = [
        ("label-noise", "optimizer_b", {"name": "hb", "lr": True}),
        ("label-noise", "optimizer_b", {"name": "hb", "lr": 0.1, "beta1": 1.5}),
        ("label-noise", "optimizer_b", {"name": "nope", "lr": 0.1}),
        ("sweep-beta0", "beta0_grid", [0.0, -2.0]),
        ("sweep-beta0", "beta0_grid", [1.0, 1.0, 0.0]),
        ("sweep-beta0", "beta0_grid", [0.0, 0.5, -0.0]),
        ("grid", "lrs", [0.001, -1.0]),
        ("grid", "lams", [0.0, -1.0]),
    ]

    @pytest.mark.parametrize("command,key,value", MALFORMED_ARM,
                             ids=[f"{c} {k}={v!r}" for c, k, v in MALFORMED_ARM])
    def test_malformed_arm_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                 command, key, value):
        monkeypatch.setattr(harness, "run_seed",
                            lambda *a, **k: pytest.fail("trained before failing"))
        cfg = write_config(tmp_path, with_value(TINY[command], key, value))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("'optimizer_b" if command == "label-noise" else f"'{key}'") in err

    # Each used to be named from inside 'base', or as the arms' shared 'optimizer'.
    WRAPPED = [
        ("sweep-beta0", "base.steps", None),
        ("label-noise", "base.problem.hidden", 4.7),
        ("label-noise", "optimizer_b.lr", True),
        ("grid", "base.optimizer.lr", True),
        ("sweep-beta0", "base.problem.label_noise.rate", 1.5),
        ("label-noise", "base.batch_size", 21),
    ]

    @pytest.mark.parametrize("command,key,value", WRAPPED,
                             ids=[f"{c} {k}={v!r}" for c, k, v in WRAPPED])
    def test_wrapped_key_is_named_from_the_root(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, with_value(TINY[command], key, value))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err

    # The arms replace the base's optimizer, which used to go unread: both exited 0.
    @pytest.mark.parametrize("optimizer,key", [
        ({"name": "bogus", "lr": -5}, "base.optimizer.name"),
        ({"name": "hb", "lr": -5}, "base.optimizer.lr"),
    ], ids=["name", "lr"])
    def test_label_noise_base_optimizer_is_read(self, tmp_path, capsys, monkeypatch, optimizer,
                                                key):
        out = str(tmp_path / "out")
        valid = with_value(TINY["label-noise"], "base.optimizer", {"name": "hb", "lr": 0.1})
        cfg = write_config(tmp_path, valid)
        assert main(["label-noise", "--config", cfg, "--out", out]) == EXIT_OK
        monkeypatch.setattr(harness, "run_seed",
                            lambda *a, **k: pytest.fail("trained before failing"))
        cfg = write_config(tmp_path, with_value(TINY["label-noise"], "base.optimizer", optimizer))
        assert main(["label-noise", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err

    # Milestones were read as a set: a repeated one decayed the lr once, and
    # one past the last step never did, both without a word.
    INEFFECTIVE = [("run", [2, 2]), ("run", [4]), ("sweep-beta0", [1, 1]),
                   ("label-noise", [4]), ("grid", [5000])]

    @pytest.mark.parametrize("command,milestones", INEFFECTIVE,
                             ids=[f"{c} {m}" for c, m in INEFFECTIVE])
    def test_ineffective_milestone_fails_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                         command, milestones):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        key = "lr_decay.milestones" if command == "run" else "base.lr_decay.milestones"
        cfg = write_config(tmp_path, with_value(TINY[command], key, milestones))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "convergence", "posterior"])
    def test_negative_noise_sigma2_fails_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                         command):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        payload, key = {
            "run": (run_config(problem={"name": "quadratic", "eigenvalues": [1.0, 4.0]}),
                    "problem.noise_sigma2"),
            "convergence": (CONVERGENCE, "problem.noise_sigma2"),
            "posterior": (TINY["posterior"], "noise_sigma2"),
        }[command]
        cfg = write_config(tmp_path, with_value(payload, key, -1.0))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err

    def test_divergence_names_first_seed_at_any_thread_count(self, tmp_path, capsys):
        # Seed 0 diverges at a later step than seeds 3 and 1, so on a pool it
        # tends to finish last; its message is still the one printed.
        cfg = write_config(tmp_path, run_config(
            problem={"name": "quadratic", "eigenvalues": [1.0, 4.0], "noise_sigma2": 1.0},
            optimizer={"name": "sgd", "lr": 0.6}, steps=500, seeds=[0, 3, 1]))
        errors = []
        for threads in ("1", "3"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--threads", threads]) == EXIT_DIVERGED
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert re.search(r"diverged at step \d+ for seed 0:", errors[0])

    def test_internal_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(harness, "run", broken)
        cfg = write_config(tmp_path, run_config())
        with pytest.raises(KeyError, match="internal"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "out")])

    # Any ValueError but a ConfigError used to be reported as a config error.
    def test_library_value_error_is_not_a_config_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("library bug")

        monkeypatch.setattr(harness, "run", broken)
        cfg = write_config(tmp_path, run_config())
        with pytest.raises(ValueError, match="library bug"):
            main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert "config error" not in capsys.readouterr().err

    def test_posterior_without_closed_form_fails_before_simulating(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(posterior, "simulate_stationary",
                            lambda *a, **k: pytest.fail("simulated before failing"))
        cfg = write_config(tmp_path, {
            "kind": "pnm_momentum", "eigenvalues": [1.0], "eta": 0.01,
            "burn_in": 100, "samples": 1000, "chains": 4, "batch_size": 10,
        })
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "pnm_momentum" in err and "'batch_size'" in err
        assert not (out / "posterior.json").exists()

    @pytest.mark.parametrize("kind,eta", [("sgd", 2.5), ("pnm", 2.5), ("hb", 50.0),
                                          ("pnm_momentum", 5.0)])
    def test_unstable_posterior_fails_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                      kind, eta):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        cfg = write_config(tmp_path, {**TINY["posterior"], "kind": kind, "eta": eta,
                                      "batch_size": None})
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"{kind} dynamics unstable" in capsys.readouterr().err
        assert not out.exists()

    def test_stable_posterior_with_huge_noise_succeeds(self, tmp_path):
        # The state sits near 7e5 in size, which no longer reads as diverged.
        cfg = write_config(tmp_path, {**TINY["posterior"], "noise_sigma2": 1e14,
                                      "burn_in": 1000, "samples": 6400, "chains": 64})
        assert main(["posterior", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    # Each exited 0 after numpy warnings, writing Infinity and NaN (posterior's
    # iterates are too large to square) or a NaN slope (the minimum is 0 at
    # every horizon when the start is the minimizer of a noiseless quadratic).
    UNREPRESENTABLE = [
        ("posterior", {"kind": "sgd", "eigenvalues": [1.0], "eta": 0.01, "noise_sigma2": 1e308,
                       "burn_in": 100, "samples": 6400}, EXIT_DIVERGED, "'empirical_covariance'"),
        ("convergence", {"problem": {"name": "quadratic", "dim": 2, "theta0": [0.0, 0.0]},
                         "horizons": [10, 100], "seeds": 2}, EXIT_CONFIG,
         "horizon 10 has minimum squared gradient norm 0.0; no log-log slope"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,payload,code,message", UNREPRESENTABLE,
                             ids=[c for c, *_ in UNREPRESENTABLE])
    def test_unrepresentable_result_is_rejected(self, tmp_path, capsys, command, payload, code,
                                                message):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    # The strict JSON writer used to report a non-finite result as a config error.
    def test_non_finite_result_is_divergence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(posterior, "lyapunov_residual", lambda *a, **k: math.nan)
        cfg = write_config(tmp_path, TINY["posterior"])
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "'lyapunov_residual' is not finite" in err
        assert str(out / "posterior.json") in err
        assert not (out / "posterior.json").exists()

    # The covariance is finite (near 5e297), but both Frobenius norms of the
    # residual used to overflow when squared, so the residual was NaN.
    @pytest.mark.filterwarnings("error")
    def test_huge_finite_covariance_has_finite_residual(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "sgd", "eigenvalues": [1.0], "eta": 0.01,
                                      "noise_sigma2": 1e300})
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "posterior.json").read_text())
        assert 0.0 <= payload["lyapunov_residual"] < 0.1

    # NaN, Infinity and integers beyond the float range; json writes all three.
    NON_FINITE = [
        ("run", TINY["run"], "optimizer.lr", float("nan")),
        ("run", TINY["run"], "optimizer.lr", 10 ** 400),
        ("run", TINY["run"], "problem.noise", float("inf")),
        ("grid", TINY["grid"], "lrs", [0.001, float("nan")]),
        ("posterior", TINY["posterior"], "eta", float("inf")),
        ("posterior", TINY["posterior"], "noise_sigma2", float("nan")),
        ("pacbayes", PACBAYES, "lam", float("-inf")),
        ("noise", TINY["noise"], "beta1", float("nan")),
        ("convergence", TINY["convergence"], "step_constant", -10 ** 400),
    ]

    @pytest.mark.parametrize("command,payload,key,value", NON_FINITE,
                             ids=[f"{c} {k}={v!r:.12}" for c, _, k, v in NON_FINITE])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, payload, key,
                                               value):
        cfg = write_config(tmp_path, with_value(payload, key, value))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"'{key}' must be a number" in capsys.readouterr().err

    # beta0 = 1e155 overflows (1 + beta0)^2 + beta0^2.
    HUGE_BETA0 = [
        ("run", TINY["run"], "optimizer.beta0", 1e155),
        ("noise", TINY["noise"], "beta0_values", [1e155]),
        ("posterior", {**TINY["posterior"], "kind": "pnm", "batch_size": None}, "beta0", 1e155),
        ("posterior", {**TINY["posterior"], "kind": "pnm_momentum", "batch_size": None},
         "beta0", -1e155),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,payload,key,value", HUGE_BETA0,
                             ids=[f"{c} {p.get('kind', '')} {k}" for c, p, k, _ in HUGE_BETA0])
    def test_overflowing_beta0_is_config_error(self, tmp_path, capsys, monkeypatch, command,
                                               payload, key, value):
        monkeypatch.setattr(noise, "_simulate_buffers",
                            lambda *a, **k: pytest.fail("simulated before failing"))
        cfg = write_config(tmp_path, with_value(payload, key, value))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "beta0 = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eta,lam,batch_size,message", [
        pytest.param(0.001, 1e308, 128, "eta / (2 batch_size lam)", id="0.001-1e+308"),
        pytest.param(0.001, 1e-320, 128, "eta / (2 batch_size lam)", id="0.001-1e-320"),
        pytest.param(1e308, 1e-10, 128, "eta / (2 batch_size lam)", id="1e+308-1e-10"),
        # The ratio is 0.5, but lam * eta / (2 batch_size) underflows to 0.
        pytest.param(1e-300, 1e-300, 1, "lam * eta / (2 batch_size)", id="1e-300-1e-300-1"),
    ])
    def test_extreme_pacbayes_ratio_is_config_error(self, tmp_path, capsys, eta, lam,
                                                    batch_size, message):
        cfg = write_config(tmp_path, {**PACBAYES, "eta": eta, "lam": lam,
                                      "batch_size": batch_size})
        assert main(["pacbayes", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    # With eta = 1, batch_size = 1 and lam = 1e3, lam * eta / (2 batch_size) is 500:
    # gamma = 1e307 overflows it, and gamma = 1e-310 has no finite reciprocal.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gammas,overrides", [
        pytest.param([0], {}, id="zero"),
        pytest.param([1.0, -1.0], {}, id="negative"),
        pytest.param([5.0, 1e-320], {}, id="ratio_underflows"),
        pytest.param([1.0, 1e307], {"eta": 1.0, "batch_size": 1, "lam": 1e3},
                     id="ratio_overflows"),
        pytest.param([1e-310], {"eta": 1.0, "batch_size": 1, "lam": 1e3},
                     id="gamma_reciprocal_overflows"),
    ])
    def test_bad_gamma_is_config_error(self, tmp_path, capsys, monkeypatch, gammas, overrides):
        monkeypatch.setattr(pacbayes, "bound_table",
                            lambda *a: pytest.fail("computed rows before failing"))
        cfg = write_config(tmp_path, {**PACBAYES, **overrides, "gammas": gammas})
        out = tmp_path / "out"
        assert main(["pacbayes", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "'gammas'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["sgd", "pnm_momentum"])
    def test_overflowing_posterior_map_is_config_error(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, {**TINY["posterior"], "kind": kind, "eta": 1e300,
                                      "eigenvalues": [1e300], "batch_size": None})
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"{kind} dynamics unstable" in capsys.readouterr().err
        assert not out.exists()

    # Below 39 steps some batch keeps fewer than 2 post-burn-in samples, which
    # made a NaN ratio (steps 1) or standard error (steps 15, 38).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta1", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("steps", [1, 15, 38])
    def test_too_few_noise_steps_is_config_error(self, tmp_path, capsys, monkeypatch, beta1,
                                                 steps):
        monkeypatch.setattr(noise, "_simulate_buffers",
                            lambda *a, **k: pytest.fail("simulated before failing"))
        cfg = write_config(tmp_path, {**TINY["noise"], "beta1": beta1, "steps": steps})
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "'steps'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta1", [0.0, 0.5, 0.9])
    def test_fewest_noise_steps_are_finite(self, tmp_path, beta1):
        cfg = write_config(tmp_path, {**TINY["noise"], "beta1": beta1, "steps": 39,
                                      "beta0_values": [0.0, 1.0]})
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for row in json.loads((out / "noise_ratios.json").read_text())["ratios"]:
            assert math.isfinite(row["measured_ratio"]) and math.isfinite(row["standard_error"])

    # One retained iterate per chain left the mean's batch means empty.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("samples,chains", [(64, 64), (1, 1), (10, 64)])
    def test_one_sample_per_chain_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                  samples, chains):
        monkeypatch.setattr(optim.Optimizer, "step",
                            lambda *a, **k: pytest.fail("stepped before failing"))
        cfg = write_config(tmp_path, {**TINY["posterior"], "samples": samples,
                                      "chains": chains})
        out = tmp_path / "out"
        assert main(["posterior", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'samples'" in err and "'chains'" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_two_samples_per_chain_succeed(self, tmp_path):
        cfg = write_config(tmp_path, {**TINY["posterior"], "samples": 65, "chains": 64})
        assert main(["posterior", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


def leaf_paths(payload, prefix=""):
    """Every dotted key of ``payload``, objects included."""
    for key, value in payload.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + key + ".")


def lookup(payload, path):
    for key in path.split("."):
        payload = payload[key]
    return payload


FUZZ_BASES = [*TINY.items(), ("run", run_config(
    problem={"name": "quadratic", "dim": 2, "eigenvalues": [1.0, 2.0], "theta_star": [0.0, 0.0],
             "f0": 0.0, "noise_sigma2": 0.1, "theta0": [1.0, 1.0]},
    optimizer={"name": "hb", "lr": 0.1, "beta1": 0.9, "beta3": 1.0}, steps=3, seeds=[0])),
    ("run", run_config(problem={"name": "linear_regression", "dim": 2, "n": 20},
                       optimizer={"name": "sgd", "lr": 0.01}, steps=3, seeds=[0], batch_size=4)),
    ("run", run_config(problem={"name": "rosenbrock", "noise_sigma2": 0.1, "theta0": [-1.2, 1.0]},
                       steps=3, seeds=[0])),
    ("run", run_config(optimizer={"name": "adapnm", "lr": 0.001, "beta0": 1.0, "beta1": 0.9,
                                  "beta2": 0.999, "eps": 1e-8, "amsgrad": True},
                       steps=3, seeds=[0])),
    ("run", run_config(optimizer={"name": "adam", "lr": 0.001, "beta1": 0.9, "beta2": 0.999,
                                  "eps": 1e-8, "amsgrad": False,
                                  "weight_decay": {"mode": "l2", "lam": 0.01}},
                       steps=3, seeds=[0])),
    ("posterior", {**TINY["posterior"], "kind": "hb", "beta1": 0.9}),
    ("posterior", {**TINY["posterior"], "kind": "pnm", "beta0": 1.0}),
    ("posterior", {**TINY["posterior"], "kind": "pnm_momentum", "beta0": 1.0, "beta1": 0.9,
                   "batch_size": None})]
FUZZ_CASES = [(command, payload, path) for command, payload in FUZZ_BASES
              for path in leaf_paths(payload)]
# null reads as the default, which for these keys is a full-size run.
COSTLY_DEFAULTS = {"samples", "burn_in", "steps", "horizons"}
# Moderate magnitudes: the closed forms are not guarded against float overflow.
FLOATS = st.floats(-1e6, 1e6)
SMALL = st.one_of(st.integers(-2, 3), FLOATS, st.booleans())
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), FLOATS,
    st.text(max_size=3), st.lists(SMALL, max_size=3),
    st.dictionaries(st.text(max_size=3), SMALL, max_size=2))


def _reject_constant(name):
    raise AssertionError(f"wrote {name}, which strict JSON has no token for")


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from(FUZZ_CASES), value=JSON_VALUES)
    def test_any_value_exits_cleanly(self, tmp_path, capsys, case, value):
        command, payload, path = case
        leaf = path.split(".")[-1]
        assume(value is not None or leaf not in COSTLY_DEFAULTS)
        cfg = write_config(tmp_path, with_value(payload, path, value))
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
        if code == EXIT_CONFIG:  # the message names a key of the config, or a missing one
            keys = set(leaf_paths(with_value(payload, path, value)))
            assert (any(key in keys or key.rpartition(".")[0] in keys
                        for key in re.findall(r"'([\w.]+)'", err))
                    or re.search(r"unknown key\(s\) in [\w.]+: ", err)), err
        for written in (tmp_path / "out").glob("*.json"):
            json.loads(written.read_text(), parse_constant=_reject_constant)
        given_value = lookup(payload, path)
        if (isinstance(given_value, (int, float)) and not isinstance(given_value, bool)
                and isinstance(value, (bool, str))):
            assert code == EXIT_CONFIG
            assert f"'{path}'" in err


SRC = Path(pnmkit.__file__).resolve().parents[1]


def _import_time_imports(tree: ast.Module):
    """(top-level package, line) of each absolute import that runs when the
    module is imported: every import outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno
        stack.extend(ast.iter_child_nodes(node))


def _fresh_python(tmp_path, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports pnmkit from this tree."""
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})


class TestStartup:
    """Importing pnmkit loads the standard library and numpy only, and no
    command loads scipy: it is a test dependency, not a runtime one."""

    def test_modules_import_only_stdlib_and_numpy(self):
        allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
        paths = sorted((SRC / "pnmkit").glob("*.py"))
        assert paths
        found = [f"{path.name}:{line} imports {name}" for path in paths
                 for name, line in _import_time_imports(ast.parse(path.read_text()))
                 if name not in allowed]
        assert not found, found

    def test_no_module_imports_scipy_at_any_depth(self):
        # Function bodies too: the import-time check above skips them.
        found = [f"{path.name}:{node.lineno}" for path in sorted((SRC / "pnmkit").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                         for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.split(".")[0] == "scipy"]
        assert not found, found

    def test_only_core_and_harness_name_the_output_header(self):
        # The digest and the PRNG name are written by harness.provenance; the
        # package root only re-exports core's public names.
        names = {"RNG_ALGORITHM", "config_digest"}
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
        found = [f"{path.name}:{node.lineno}" for path in sorted((SRC / "pnmkit").glob("*.py"))
                 if path.stem not in ("core", "harness", "__init__")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if getattr(node, field.get(type(node), ""), None) in names]
        assert not found, found

    def test_training_commands_never_import_scipy(self, tmp_path):
        # All eight commands, noise included, run without loading scipy.
        configs = {command: write_config(tmp_path, TINY[command], f"{command}.json")
                   for command in ("run", "label-noise", "sweep-beta0", "grid", "posterior",
                                   "pacbayes", "noise", "convergence")}
        proc = _fresh_python(tmp_path, f"""
import sys
from pnmkit.cli import main
for command, cfg in {configs!r}.items():
    assert main([command, "--config", cfg, "--out", "out"]) == 0, command
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
""")
        assert proc.returncode == 0, proc.stderr


def _code_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name that ``tree`` uses in code;
    docstrings and other strings do not count."""
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(node, field[type(node)]) for node in ast.walk(tree) if type(node) in field}


class TestSurface:
    """``src/pnmkit`` ships only what a command or the benchmark reaches;
    reference code that only tests use lives in ``tests/reference.py``."""

    def test_every_public_definition_is_reached(self):
        modules = {path.stem: ast.parse(path.read_text())
                   for path in sorted((SRC / "pnmkit").glob("*.py"))}
        bench = sorted((SRC.parent / "perfbench").glob("*.py"))
        assert modules and bench
        bench_names = set().union(*(_code_names(ast.parse(p.read_text())) for p in bench))
        unreached = []
        for stem, tree in modules.items():
            defs = {node.name: node for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            # Named by another module, the benchmark, or this module's top-level code.
            named = bench_names.union(*(_code_names(other) for s, other in modules.items()
                                        if s != stem),
                                      *(_code_names(node) for node in tree.body
                                        if not isinstance(node, (ast.FunctionDef, ast.ClassDef))))
            frontier = [name for name in defs if name in named]
            reached = set(frontier)
            while frontier:  # ... or by a definition reached already
                new = (_code_names(defs[frontier.pop()]) & defs.keys()) - reached
                reached |= new
                frontier.extend(new)
            unreached += [f"{stem}.{name}" for name in defs
                          if not name.startswith("_") and name not in reached]
        assert not unreached, unreached

    def test_numpy_floor_has_np_vecdot(self):
        # np.vecdot, which the quadratic and the convergence simulator call,
        # first shipped in numpy 2.0. Python 3.10 has no tomllib: read the line.
        text = (SRC.parent / "pyproject.toml").read_text()
        (floor,) = re.findall(r'^\s*"numpy>=(\d+)\.(\d+)",?$', text, re.MULTILINE)
        assert tuple(map(int, floor)) >= (2, 0)
        assert tuple(int(part) for part in np.__version__.split(".")[:2]) >= (2, 0)


class TestUsage:
    SEEDED = {"run", "sweep-beta0", "label-noise", "grid", "posterior", "noise",
              "convergence"}
    THREADED = {"run", "sweep-beta0", "label-noise", "grid"}

    def test_flags_registered_only_where_read(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if a.choices and "run" in a.choices]
        assert len(sub.choices) == 8
        for name, command in sub.choices.items():
            flags = {opt for a in command._actions for opt in a.option_strings}
            assert ("--seed" in flags) == (name in self.SEEDED), name
            assert ("--threads" in flags) == (name in self.THREADED), name
            assert {"--config", "--out"} <= flags
            assert "--snapshots" not in flags

    # Each config runs with exit 0 without the flag.
    REMOVED = [
        ("run", run_config(), ["--snapshots"]),
        ("noise", {"beta0_values": [1.0], "steps": 1000}, ["--threads", "2"]),
        ("pacbayes", PACBAYES, ["--seed", "1"]),
    ]

    @pytest.mark.parametrize("command,payload,flags", REMOVED,
                             ids=[f"{c} {f[0]}" for c, _, f in REMOVED])
    def test_removed_flags_are_usage_errors(self, tmp_path, command, payload, flags):
        cfg = write_config(tmp_path, payload)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
        assert main([command, "--config", cfg, "--out", out, *flags]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, TINY[command])
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out, "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert main([command, "--config", cfg, "--out", out, "--seed", "0"]) == EXIT_OK

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", sorted(THREADED))
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, command, threads):
        cfg = write_config(tmp_path, TINY[command])
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out, "--threads", threads]) == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
        assert main([command, "--config", cfg, "--out", out, "--threads", "1"]) == EXIT_OK

    # --seed is written inside 'base', so a base that is not there is named as before.
    @pytest.mark.parametrize("base,message", [
        (None, "config needs 'base'"), (3, "'base' must be an object, got 3"),
    ], ids=["missing", "number"])
    @pytest.mark.parametrize("command", ["sweep-beta0", "label-noise", "grid"])
    def test_seed_over_a_bad_base_names_it(self, tmp_path, capsys, command, base, message):
        payload = {**TINY[command], "base": base}
        if base is None:
            del payload["base"]
        cfg = write_config(tmp_path, payload)
        for flags in ([], ["--seed", "1"]):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                         *flags]) == EXIT_CONFIG
            assert message in capsys.readouterr().err

    def test_missing_config_is_usage_error(self):
        assert main(["run"]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == EXIT_OK
        assert "--config" in capsys.readouterr().out


# The config key each command's --seed is written to.
SEED_KEYS = {"run": "seeds", "sweep-beta0": "base.seeds", "label-noise": "base.seeds",
             "grid": "base.seeds", "posterior": "seed", "noise": "seed", "convergence": "seeds"}


class TestProvenance:
    """Every JSON output starts with the config as run, its digest and the PRNG,
    and every CSV leads with that digest; a --seed run is a config of its own."""

    @pytest.mark.parametrize("command", sorted(TINY))
    def test_every_output_records_the_config_it_ran(self, tmp_path, command):
        cfg = write_config(tmp_path, TINY[command])
        seeds = [None] if command == "pacbayes" else [None, 1, 2]
        digests = []
        for seed in seeds:
            out = tmp_path / f"out{seed}"
            flags = [] if seed is None else ["--seed", str(seed)]
            assert main([command, "--config", cfg, "--out", str(out), *flags]) == EXIT_OK
            (written,) = out.glob("*.json")
            payload = json.loads(written.read_text())
            assert payload["config_digest"] == config_digest(payload["config"])
            assert payload["prng"] == "pcg64"
            if seed is None:
                assert payload["config"] == TINY[command]
            else:
                key = SEED_KEYS[command]
                assert lookup(payload["config"], key) == ([seed] if key.endswith("s") else seed)
            for csv in out.glob("*.csv"):
                header, columns, *rows = csv.read_text().splitlines()
                assert header.startswith(f"# config_digest={payload['config_digest']} ")
                # Counts are bare digits; every other cell is the repr of its float.
                for row in rows:
                    cells = row.split(",")
                    assert len(cells) == len(columns.split(","))
                    for column, cell in zip(columns.split(","), cells):
                        if column in ("step", "horizon"):
                            assert cell.isdecimal(), (csv.name, row)
                        else:
                            assert repr(float(cell)) == cell, (csv.name, row)
            digests.append(payload["config_digest"])
        assert len(set(digests)) == len(seeds)


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

    def test_linear_regression_without_noise(self, tmp_path):
        cfg = write_config(tmp_path, run_config(
            problem={"name": "linear_regression", "dim": 4, "n": 50},
            optimizer={"name": "sgd", "lr": 0.05}, batch_size=10))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads(next(out.glob("summary_*.json")).read_text())
        assert [r["seed"] for r in summary["results"]] == [1, 2]

    def test_pacbayes_table(self, tmp_path):
        cfg = write_config(tmp_path, PACBAYES)
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

    def test_noise_simulates_once_for_every_beta0(self, tmp_path, monkeypatch):
        # The buffers do not depend on beta0: one simulation serves every
        # pair, with the bytes of one seeded call per beta0.
        calls, real = [], noise._simulate_buffers
        monkeypatch.setattr(noise, "_simulate_buffers",
                            lambda *a: calls.append(a) or real(*a))
        config = {"beta1": 0.9, "beta0_values": [0.5, 1.0, 2.0], "steps": 5_001, "dim": 2,
                  "seed": 4}
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        rows = json.loads((out / "noise_ratios.json").read_text())["ratios"]
        for row, b0 in zip(rows, config["beta0_values"]):
            ratio, se = noise.pair_amplification_ratio(0.9, b0, 5_001, RngStream(4), 2)
            assert (row["beta0"], row["measured_ratio"], row["standard_error"]) == (b0, ratio, se)

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
                   - payload["closed_form_covariance"][0]) < 0.001

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

    # Each printed numpy overflow warnings; the first and third then failed
    # in the JSON writer, the second as a bare non-finite gradient.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eigenvalue,theta0,reason", [
        (1e300, -2.0, "(horizon 5, eta0 5e-301): squared gradient norm overflows"),
        (1e307, -20.0, "(horizon 5, eta0 5e-308): non-finite gradient"),
        (1e150, -2.0, "theorem 1 bound at horizon 5 is not finite"),
    ], ids=["norm", "gradient", "bound"])
    def test_convergence_overflow_is_divergence(self, tmp_path, capsys, eigenvalue, theta0,
                                                reason):
        cfg = write_config(tmp_path, {
            "problem": {"name": "quadratic", "eigenvalues": [1.0, eigenvalue],
                        "theta0": [3.0, theta0], "noise_sigma2": 1.0},
            "horizons": [5, 10], "seeds": [4, 2]})
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert reason in err
        assert "bound" in reason or "PNM diverged at step 0 for seed 4 " in err
        assert not out.exists()

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


def write_csv(path, labels, bad_line=None):
    """A two-feature CSV with a header and one row per label; the row on
    file line ``bad_line`` gets a feature that is not a number."""
    lines = ["x1,x2,label"]
    for i, label in enumerate(labels):
        x1 = "oops" if len(lines) + 1 == bad_line else repr((i % 7) / 7.0)
        lines.append(f"{x1},{(3 * i % 5) / 5.0!r},{label}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCsvMlp:
    """The MLP on samples read from a CSV file: feature columns, then an
    integer class label."""

    @staticmethod
    def config(**problem):
        return run_config(problem={"name": "csv_mlp", "hidden": 2, **problem},
                          optimizer={"name": "pnm", "lr": 0.1}, steps=5, batch_size=8,
                          seeds=[0, 1])

    def test_run_is_reproducible(self, tmp_path):
        data = write_csv(tmp_path / "data.csv", [i % 2 for i in range(30)])
        cfg = write_config(tmp_path, self.config(csv_path=data))
        written = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) == 3  # the summary and one trajectory per seed
        assert written[0] == written[1]

    def test_missing_csv_path_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "'problem.csv_path'" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["absent.csv", "."], ids=["missing_file", "directory"])
    def test_unreadable_csv_is_io_error(self, tmp_path, capsys, target):
        cfg = write_config(tmp_path, self.config(csv_path=str(tmp_path / target)))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_row_names_its_line(self, tmp_path, capsys):
        data = write_csv(tmp_path / "data.csv", [i % 2 for i in range(30)], bad_line=5)
        cfg = write_config(tmp_path, self.config(csv_path=data))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "malformed row at line 5" in capsys.readouterr().err

    # 1e300 hit an invalid cast and -1 read as a one-class split.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", [-1, 1e300, 30, 0.5])
    def test_label_outside_row_range_names_its_line(self, tmp_path, capsys, label):
        data = write_csv(tmp_path / "data.csv", [i % 2 for i in range(29)] + [label])
        cfg = write_config(tmp_path, self.config(csv_path=data))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'problem.csv_path'" in err and "at line 31" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_feature_trains_without_warning(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{1e308 if i == 3 else i / 30!r},{(3 * i % 5) / 5},{i % 2}\n"
                                for i in range(30)))
        cfg = write_config(tmp_path, self.config(csv_path=str(data)))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    # It used to train and exit 2 as a divergence at step 1.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_feature_names_its_line(self, tmp_path, capsys, cell):
        data = tmp_path / "data.csv"
        data.write_text("".join(f"{cell if i == 3 else repr(i / 30)},{(3 * i % 5) / 5},{i % 2}\n"
                                for i in range(30)))
        cfg = write_config(tmp_path, self.config(csv_path=str(data)))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'problem.csv_path'" in err and "non-finite value at line 4" in err

    # It used to fail with "need at least two classes", which names no key.
    def test_one_class_file_is_config_error(self, tmp_path, capsys):
        data = write_csv(tmp_path / "data.csv", [0] * 30)
        cfg = write_config(tmp_path, self.config(csv_path=data))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "'problem.csv_path'" in capsys.readouterr().err
