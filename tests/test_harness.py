import inspect
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pnmkit import harness
from pnmkit.core import DivergenceError, config_digest
from pnmkit.harness import REQUIRED, ConfigError
from pnmkit.optim import WeightDecay, momentum_recovery_beta0, pn_normalization


def analytic_config(**overrides):
    cfg = {
        "problem": {"name": "rosenbrock", "theta0": [-1.2, 1.0]},
        "optimizer": {"name": "hb", "lr": 0.001, "beta1": 0.9},
        "steps": 200,
        "seeds": [1, 2, 3],
        "eval_every": 50,
    }
    cfg.update(overrides)
    return cfg


def mlp_config(**overrides):
    cfg = {
        "problem": {"name": "two_moons_mlp", "n": 120, "noise": 0.2,
                     "hidden": 8, "test_fraction": 0.5},
        "optimizer": {"name": "hb", "lr": 0.1, "beta1": 0.9, "beta3": 1.0},
        "steps": 120,
        "batch_size": 20,
        "seeds": [0, 1],
        "eval_every": 60,
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="stepz"):
            harness.run(analytic_config(stepz=10))

    def test_unknown_optimizer_key(self):
        cfg = analytic_config()
        cfg["optimizer"]["learningrate"] = 0.1
        with pytest.raises(ConfigError, match="learningrate"):
            harness.run(cfg)

    def test_unknown_problem_key(self):
        cfg = analytic_config()
        cfg["problem"]["dims"] = 2
        with pytest.raises(ConfigError, match="dims"):
            harness.run(cfg)

    def test_unknown_weight_decay_key(self):
        cfg = analytic_config()
        cfg["optimizer"]["weight_decay"] = {"mode": "l2", "strength": 0.1}
        with pytest.raises(ConfigError, match="strength"):
            harness.run(cfg)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError):
            harness.run({"problem": {"name": "rosenbrock"}})

    def test_empty_seed_list(self):
        with pytest.raises(ConfigError):
            harness.run(analytic_config(seeds=[]))

    def test_unknown_optimizer_name(self):
        cfg = analytic_config()
        cfg["optimizer"]["name"] = "sgdm"
        with pytest.raises(ConfigError):
            harness.run(cfg)

    def test_null_reads_as_default(self):
        plain = mlp_config(seeds=[0])
        nulls = mlp_config(seeds=[0], batch_size=None, eval_every=None, lr_decay=None)
        nulls["problem"] = {**plain["problem"], "hidden": None, "label_noise": None}
        nulls["optimizer"] = {**plain["optimizer"], "beta3": None, "weight_decay": None}
        plain["problem"]["hidden"] = 16
        del plain["batch_size"], plain["eval_every"]
        assert harness.run(nulls)["results"] == harness.run(plain)["results"]


# The ends of every range a kind checks, values just outside them, and the
# overflow edge of (1 + beta0)^2 + beta0^2 (near 1.2e154).
EDGES = [-2.0, -1.0, -0.5, 0.0, 5e-324, 0.5, 1.0 - 2 ** -53, 1.0, 1e154, 1.2e154,
         sys.float_info.max, 10 ** 400, math.inf, math.nan]
HYPERPARAMETERS = st.one_of(st.sampled_from(EDGES), st.floats(), st.integers(-2, 3),
                            st.booleans())


class TestOptimizerTable:
    def test_every_name_builds(self):
        for name, (cls, _) in harness.OPTIMIZERS.items():
            opt = harness.build_optimizer({"name": name, "lr": 0.01}, 2)
            assert type(opt) is cls and opt.dim == 2

    def test_sgd_defaults_to_no_momentum(self):
        assert harness.build_optimizer({"name": "sgd", "lr": 0.1}, 1).beta1 == 0.0
        assert harness.build_optimizer({"name": "hb", "lr": 0.1}, 1).beta1 == 0.9

    def test_unknown_name_is_config_error(self):
        for name in ("adamw2", "PNM"):  # names are exact
            with pytest.raises(ConfigError, match="'optimizer.name' must be one of"):
                harness.build_optimizer({"name": name, "lr": 0.1}, 1)

    @pytest.mark.parametrize("name", sorted(harness.OPTIMIZERS))
    def test_keys_are_the_constructor_parameters(self, name):
        cls, keys = harness.OPTIMIZERS[name]
        assert set(keys) == set(inspect.signature(cls).parameters) - {"dim", "weight_decay"}

    # The tables' kinds are the only check before a constructor runs, so a
    # value they accept must never make the constructor raise.
    @settings(max_examples=500, deadline=None)
    @given(name=st.sampled_from(sorted(harness.OPTIMIZERS)),
           mode=st.sampled_from(sorted(harness.WEIGHT_DECAYS)), data=st.data())
    def test_accepted_values_construct(self, name, mode, data):
        cls, keys = harness.OPTIMIZERS[name]
        accepted, decay = {}, {}
        for table, out in ((keys, accepted), (harness.WEIGHT_DECAYS[mode], decay)):
            for key, (kind, default) in table.items():
                try:
                    out[key] = kind(data.draw(HYPERPARAMETERS, label=key), key)
                except ConfigError:
                    assume(default is not REQUIRED)
        cls(dim=2, weight_decay=WeightDecay(mode, **decay), **accepted)


SPEC = {
    "count": (harness.integer(1), REQUIRED),
    "rate": (harness.number, 0.5),
    "tags": (harness.list_of(harness.string), None),
    "flag": (harness.boolean, False),
}


class TestReadConfig:
    def test_defaults_and_types(self):
        out = harness.read_config({"count": 3, "rate": 1, "flag": None}, SPEC, "s")
        assert out == {"count": 3, "rate": 1.0, "tags": None, "flag": False}
        assert type(out["rate"]) is float

    BAD = [
        ({"count": 100.0}, "'s.count' must be an integer >= 1"),
        ({"count": True}, "'s.count' must be an integer >= 1"),
        ({"count": 0}, "'s.count' must be an integer >= 1"),
        ({"count": 1, "rate": True}, "'s.rate' must be a number"),
        ({"count": 1, "rate": "0.5"}, "'s.rate' must be a number"),
        ({"count": 1, "tags": []}, "'s.tags' must be a list"),
        ({"count": 1, "tags": ["a", 1]}, "'s.tags' must be a string"),
        ({"count": 1, "flag": 1}, "'s.flag' must be true or false"),
        ({"count": None}, "needs 's.count'"),
        ({"count": 1, "extra": 2}, r"unknown key\(s\) in s: \['extra'\]"),
        ([1], "'s' must be an object"),
    ]

    @pytest.mark.parametrize("cfg,message", BAD, ids=[m.split(" must")[0] + str(i)
                                                       for i, (_, m) in enumerate(BAD)])
    def test_rejects(self, cfg, message):
        with pytest.raises(ConfigError, match=message):
            harness.read_config(cfg, SPEC, "s")


class TestRun:
    def test_deterministic_problem_gives_identical_seeds(self):
        summary = harness.run(analytic_config())
        losses = [r["final_loss"] for r in summary["results"]]
        assert losses[0] == losses[1] == losses[2]

    def test_reproducible_summary_bytes(self, tmp_path):
        cfg = mlp_config()
        harness.run(cfg, tmp_path / "a")
        harness.run(cfg, tmp_path / "b")
        a_files = sorted((tmp_path / "a").iterdir())
        b_files = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in a_files] == [f.name for f in b_files]
        for fa, fb in zip(a_files, b_files):
            assert fa.read_bytes() == fb.read_bytes()

    # Each protocol writes its report into ``out`` on ``threads`` threads.
    PROTOCOLS = {
        "run": lambda out, threads: harness.run(mlp_config(seeds=[0, 1, 2, 3]), out, threads),
        "label_noise_experiment": lambda out, threads: harness.label_noise_experiment(
            mlp_config(seeds=[0, 1, 2]), {"name": "pnm", "lr": 0.5, "beta0": 1.0},
            mlp_config()["optimizer"], out, threads),
        "beta0_sweep": lambda out, threads: harness.beta0_sweep(
            mlp_config(seeds=[0, 1], optimizer={"name": "pnm", "lr": 0.5}), [0.0, 1.0],
            out, threads),
        # lr = 0.6 diverges on this noisy quadratic (eta * lambda_max = 2.4).
        "lr_wd_grid": lambda out, threads: harness.lr_wd_grid(
            analytic_config(problem={"name": "quadratic", "eigenvalues": [1.0, 4.0],
                                     "noise_sigma2": 1.0},
                            optimizer={"name": "sgd", "lr": 0.1}, seeds=[0, 1, 2]),
            [0.1, 0.6], [0.0, 0.01], out, threads),
    }

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_parallel_seeds_change_nothing(self, tmp_path, protocol):
        serial = self.PROTOCOLS[protocol](tmp_path / "serial", 1)
        self.PROTOCOLS[protocol](tmp_path / "pool", 3)
        names = sorted(f.name for f in (tmp_path / "serial").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "pool").iterdir())
        for name in names:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "pool" / name).read_bytes())
        if protocol == "lr_wd_grid":
            assert serial["mean_test_error"][1] == ["diverged", "diverged"]
            csv = (tmp_path / "serial" / "lr_wd_grid.csv").read_text().splitlines()
            assert csv[-1] == "0.6,diverged,diverged"

    def test_jobs_run_serially_in_the_calling_thread(self, monkeypatch):
        # A thread pool ran these jobs on worker threads, slower than serial.
        idents = []
        run_seed = harness.run_seed

        def recording(*args):
            idents.append(threading.get_ident())
            return run_seed(*args)

        monkeypatch.setattr(harness, "run_seed", recording)
        cfg = analytic_config(steps=20)
        arms = harness.run_arms([cfg, {**cfg, "seeds": [4, 5]}], threads=3)
        assert idents == [threading.get_ident()] * 5
        assert [[r.seed for r in results] for results in arms] == [[1, 2, 3], [4, 5]]

    def test_trajectory_csv_schema(self, tmp_path):
        cfg = mlp_config(seeds=[0])
        harness.run(cfg, tmp_path)
        csv_files = list(tmp_path.glob("trajectory_*.csv"))
        assert len(csv_files) == 1
        lines = csv_files[0].read_text().splitlines()
        assert lines[0].startswith("# config_digest=")
        assert "prng=pcg64" in lines[0]
        assert lines[1] == "step,loss,grad_norm_sq,test_error"
        first = lines[2].split(",")
        assert first[0] == "0" and len(first) == 4

    def test_summary_embeds_provenance(self, tmp_path):
        cfg = analytic_config(seeds=[5])
        harness.run(cfg, tmp_path)
        summary = json.loads(next(tmp_path.glob("summary_*.json")).read_text())
        assert summary["prng"] == "pcg64"
        assert summary["config"] == cfg
        assert summary["config_digest"]
        assert summary["results"][0]["seed"] == 5

    def test_mlp_divergence_names_step(self):
        # Finite but huge parameters end an MLP run the same way they end
        # an analytic one.
        cfg = mlp_config(optimizer={"name": "sgd", "lr": 1e12})
        with pytest.raises(DivergenceError, match=r"step \d+ for seed 0:"):
            harness.run(cfg)

    def test_linear_regression_minibatched_by_batch_size(self):
        # batch_size = n is full-batch gradient descent; a smaller batch
        # samples minibatches.
        problem = {"name": "linear_regression", "dim": 3, "n": 40}
        cfg = analytic_config(problem=problem, optimizer={"name": "sgd", "lr": 0.1},
                              steps=30, seeds=[4])
        oracle, theta = harness.build_analytic_oracle(problem, 4)
        for _ in range(30):
            theta = theta - 0.1 * oracle.full_gradient(theta)[1]
        full = harness.run_seed({**cfg, "batch_size": 40}, 4)
        assert full.final_loss == oracle.full_gradient(theta)[0]
        mini = harness.run_seed({**cfg, "batch_size": 8}, 4)
        assert mini.final_loss != full.final_loss

    def test_lr_decay_applies(self):
        # a 10x decay at step 1 must change the trajectory
        base = harness.run(analytic_config(seeds=[1]))
        decayed = harness.run(analytic_config(
            seeds=[1], lr_decay={"milestones": [1], "factor": 0.1}))
        assert base["results"][0]["final_loss"] != decayed["results"][0]["final_loss"]

    def test_lr_decay_at_the_last_step_applies(self):
        # The last step is the latest milestone that still decays a step.
        base = harness.run(analytic_config(seeds=[1]))
        decayed = harness.run(analytic_config(
            seeds=[1], lr_decay={"milestones": [200], "factor": 0.1}))
        assert base["results"][0]["final_loss"] != decayed["results"][0]["final_loss"]


class TestAggregate:
    def test_population_std_convention(self):
        agg = harness.aggregate([4.0, 5.0, 6.0])
        assert agg["mean"] == 5.0
        assert agg["std"] == pytest.approx(0.816497, abs=1e-6)


class TestTrainErrors:
    """``train_errors`` evaluates the clean rows separately only when some
    training label was corrupted."""

    @pytest.mark.parametrize("rate,calls", [(0.0, 1), (0.3, 2)])
    def test_error_rate_calls(self, monkeypatch, rate, calls):
        cfg = mlp_config()["problem"]
        cfg["label_noise"] = {"kind": "symmetric", "rate": rate}
        task = harness.build_classification_task(cfg, 0)
        assert task.corrupted_mask.any() == (rate > 0)
        expected = (task.problem.error_rate(task.theta0, task.train),
                    task.problem.error_rate(task.theta0, task.train.subset(
                        np.flatnonzero(~task.corrupted_mask))))
        seen = []
        error_rate = type(task.problem).error_rate
        monkeypatch.setattr(type(task.problem), "error_rate",
                            lambda self, *a: seen.append(a) or error_rate(self, *a))
        assert task.train_errors(task.theta0) == expected
        assert len(seen) == calls

    def test_no_clean_row_has_no_clean_error(self):
        # Seed 2 flips all 20 training labels: there is no clean error to
        # report, and the corrupted one must not stand in for it.
        cfg = {"problem": {"name": "two_moons_mlp", "n": 40, "test_fraction": 0.5, "hidden": 8,
                           "label_noise": {"kind": "symmetric", "rate": 0.99}},
               "optimizer": {"name": "sgd", "lr": 0.1}, "steps": 20, "seeds": [2]}
        task = harness.build_classification_task(cfg["problem"], 2)
        assert task.corrupted_mask.all() and task.train.n_samples == 20
        corrupted, clean = task.train_errors(task.theta0)
        assert clean is None and 0.0 <= corrupted <= 1.0
        row = harness.run(cfg)["results"][0]
        assert "final_clean_train_error" not in row
        assert row["final_corrupted_train_error"] == 0.25


class TestSeedMajority:
    def test_counts(self):
        out = harness.seed_majority_wins([0.1, 0.2, 0.3], [0.2, 0.2, 0.5])
        assert out == {"wins": 2, "losses": 0, "ties": 1, "majority": True}


class TestLabelNoiseExperiment:
    def test_zero_rate_flagged(self):
        base = mlp_config()
        base["problem"]["label_noise"] = {"kind": "symmetric", "rate": 0.0}
        rep = harness.label_noise_experiment(
            base, {"name": "pnm", "lr": 0.5, "beta0": 1.0}, base["optimizer"])
        assert rep["no_corruption"]

    def test_reports_train_metrics(self):
        base = mlp_config()
        base["problem"]["label_noise"] = {"kind": "symmetric", "rate": 0.3}
        rep = harness.label_noise_experiment(
            base, {"name": "pnm", "lr": 0.5, "beta0": 1.0}, base["optimizer"])
        for side in ("a", "b"):
            for row in rep["per_seed"][side]:
                assert 0.0 <= row["final_corrupted_train_error"] <= 1.0
                assert 0.0 <= row["final_clean_train_error"] <= 1.0


class TestBeta0Sweep:
    def test_single_point_grid(self):
        cfg = mlp_config()
        cfg["optimizer"] = {"name": "pnm", "lr": 0.5, "beta1": 0.9}
        rep = harness.beta0_sweep(cfg, [1.0])
        assert len(rep["table"]) == 1
        assert rep["table"][0]["beta0"] == 1.0

    def test_non_pnm_base_rejected(self):
        with pytest.raises(ConfigError):
            harness.beta0_sweep(mlp_config(), [0.0, 1.0])

    def test_recovery_point_reproduces_momentum_column(self):
        # PNM at beta0 = -beta1/(1+beta1) with the compensated rate is the
        # same algorithm as Heavy Ball with beta3 = 1 - beta1, so the two
        # columns must agree exactly on shared seeds (same data, init, and
        # batch sequence).
        beta1 = 0.9
        b0 = momentum_recovery_beta0(beta1)
        lr = 0.2
        cfg = mlp_config(seeds=[0, 1, 2])
        cfg["optimizer"] = {"name": "pnm", "lr": lr * pn_normalization(b0),
                             "beta1": beta1}
        sweep = harness.beta0_sweep(cfg, [b0])
        hb_cfg = mlp_config(seeds=[0, 1, 2])
        hb_cfg["optimizer"] = {"name": "hb", "lr": lr, "beta1": beta1,
                                "beta3": 1.0 - beta1}
        hb_run = harness.run(hb_cfg)
        hb_errors = [r["final_test_error"] for r in hb_run["results"]]
        np.testing.assert_array_equal(sweep["per_seed_errors"][str(b0)], hb_errors)

    def test_empty_grid_rejected(self):
        cfg = mlp_config()
        cfg["optimizer"] = {"name": "pnm", "lr": 0.5, "beta1": 0.9}
        with pytest.raises(ConfigError):
            harness.beta0_sweep(cfg, [])


class TestLrWdGrid:
    def test_single_cell_matches_plain_run(self):
        cfg = mlp_config()
        cfg["optimizer"]["weight_decay"] = {"mode": "decoupled", "lam": 0.0}
        rep = harness.lr_wd_grid(cfg, [0.1], [1e-4])
        direct = dict(cfg)
        opt = dict(cfg["optimizer"])
        opt["lr"] = 0.1
        opt["weight_decay"] = {"mode": "decoupled", "lam": 1e-4}
        direct["optimizer"] = opt
        expected = harness.run(direct)["aggregate"]["final_test_error"]["mean"]
        assert rep["mean_test_error"][0][0] == expected

    def test_divergent_cells_marked(self):
        cfg = {
            "problem": {"name": "quadratic", "eigenvalues": [1.0, 4.0],
                         "noise_sigma2": 0.0},
            "optimizer": {"name": "sgd", "lr": 0.1},
            "steps": 400,
            "seeds": [0],
        }
        rep = harness.lr_wd_grid(cfg, [0.1, 5.0], [0.0])
        # eta * lambda_max = 20 >> 2 diverges; the stable cell stays numeric
        assert isinstance(rep["mean_test_error"][0][0], (int, float, str))
        assert rep["mean_test_error"][1][0] == "diverged"

    def test_modeless_weight_decay_reads_as_decoupled(self):
        cfg = analytic_config(problem={"name": "quadratic", "eigenvalues": [1.0, 4.0],
                                       "theta_star": [1.0, -1.0]},
                              optimizer={"name": "sgd", "lr": 0.1,
                                         "weight_decay": {"lam": 0.0}}, seeds=[0])
        rep = harness.lr_wd_grid(cfg, [0.1], [0.0, 0.5])
        assert rep["mean_test_error"][0][0] != rep["mean_test_error"][0][1]
        cfg["optimizer"]["weight_decay"] = {"mode": "decoupled"}
        assert harness.lr_wd_grid(cfg, [0.1], [0.0, 0.5])["mean_test_error"] == \
            rep["mean_test_error"]

    def test_no_decay_mode_is_config_error(self):
        cfg = analytic_config(optimizer={"name": "sgd", "lr": 0.1,
                                         "weight_decay": {"mode": "none", "lam": 0.0}})
        with pytest.raises(ConfigError, match="'base.optimizer.weight_decay.mode'"):
            harness.lr_wd_grid(cfg, [0.1], [0.0, 0.5])


class TestWrapperDigests:
    # Each protocol called with a value that only that experiment's own keys
    # carry, and the dict its digest must hash.
    VARIANTS = {
        "label_noise_experiment": (
            lambda base, v: harness.label_noise_experiment(
                base, {"name": "pnm", "lr": v}, base["optimizer"]),
            lambda base, v: {"base": base, "optimizer_a": {"name": "pnm", "lr": v},
                             "optimizer_b": base["optimizer"]}),
        "beta0_sweep": (
            lambda base, v: harness.beta0_sweep(
                {**base, "optimizer": {"name": "pnm", "lr": 0.5}}, [v]),
            lambda base, v: {"base": {**base, "optimizer": {"name": "pnm", "lr": 0.5}},
                             "beta0_grid": [v]}),
        "lr_wd_grid": (
            lambda base, v: harness.lr_wd_grid(base, [v], [0.0]),
            lambda base, v: {"base": base, "lrs": [v], "lams": [0.0]}),
    }

    @pytest.mark.parametrize("protocol", sorted(VARIANTS))
    def test_digest_hashes_the_whole_experiment(self, protocol):
        base = mlp_config(steps=2, seeds=[0])
        call, experiment = self.VARIANTS[protocol]
        digests = [call(base, v)["config_digest"] for v in (0.1, 0.2)]
        assert digests[0] != digests[1]
        assert digests == [config_digest(experiment(base, v)) for v in (0.1, 0.2)]
