"""Tests of the benchmark itself (not of pnmkit).

Run from the repository root:

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these tests out of the library's own test collection.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_pnmkit()

import tracing  # noqa: E402
import workloads  # noqa: E402
from pnmkit import harness  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_job(wl, rep=0):
    """One untimed job of ``wl``, as per-operation results."""
    return wl.extract({name: call() for name, call in wl.calls(rep)})
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def small_mlp(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "MLP_STEPS", 40)
    wl = workloads.MlpLabelNoise(5, tmp_path)
    wl.setup()
    return wl


@pytest.fixture
def small_cli(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CLI_STEPS", 200)
    monkeypatch.setattr(workloads, "CLI_SEEDS", 2)
    wl = workloads.CliEvalParallel(5, tmp_path)
    wl.setup()
    wl.prepare()
    return wl


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    wl = workloads.AnalysisClaims(5, tmp_path_factory.mktemp("analysis"))
    wl.setup()
    return wl, run_job(wl)


# -- checker -------------------------------------------------------------------

def test_mlp_checker_rejects_perturbed_result(small_mlp):
    results = run_job(small_mlp)
    assert not any(small_mlp.check(results).values())
    op = next(iter(results))
    bad = {**results[op], "final_test_error": 1.5}
    assert small_mlp.check({op: bad})[op]


def test_runner_counts_irreproducible_and_reference_mismatch(small_mlp):
    runner = run.Runner(small_mlp, reference=None)
    runner.job(0)
    assert runner.failed == 0 and runner.attempted == 4
    real_extract = small_mlp.extract

    def perturbed(raw):
        out = real_extract(raw)
        op = next(iter(out))
        out[op] = {**out[op], "final_loss": out[op]["final_loss"] * (1 + 2**-50)}
        return out

    small_mlp.extract = perturbed
    runner.job(1)
    assert runner.failed == 1 and runner.attempted == 8

    small_mlp.extract = real_extract
    reference = {op: dict(row) for op, row in runner.first.items()}
    op = next(iter(reference))
    reference[op]["final_test_error"] += 1e-12
    checked = run.Runner(small_mlp, reference=reference)
    checked.job(0)
    assert checked.failed == 1


def test_runner_counts_raised_job_as_all_ops_failed(small_mlp):
    def boom():
        raise FloatingPointError("diverged")

    small_mlp.calls = lambda rep: [("label_noise_experiment", boom)]
    runner = run.Runner(small_mlp, reference=None)
    runner.job(0)
    assert runner.attempted == runner.failed == 4


def test_analysis_checker_rejects_perturbed_results(analysis):
    wl, results = analysis
    assert not any(wl.check(results).values())
    perturbations = {
        "amplification.beta0_1": {"ratio": results["amplification.beta0_1"]["ratio"] * 1.1},
        "stationary.sgd": {"variance": results["stationary.sgd"]["variance"] * 1.3},
        "convergence": {"slope": -0.1},
        "covariance.batch40": {"trace": results["covariance.batch40"]["trace"] * 1.5},
        "pacbayes": {"monotone": False},
    }
    for op, change in perturbations.items():
        bad = dict(results)
        bad[op] = {**results[op], **change}
        flagged = {name for name, problems in wl.check(bad).items() if problems}
        assert flagged, op


def test_cli_checker_rejects_thread_dependence_and_short_csv(small_cli):
    results = run_job(small_cli)
    assert small_cli.check(results) == {"run": []}
    run_ = results["run"]
    seed = next(iter(run_["results"]))
    changed = {**run_["results"], seed: {**run_["results"][seed], "final_loss": 0.123}}
    assert small_cli.check({"run": {**run_, "results": changed}})["run"]
    short = {**run_["csv_rows"], seed: run_["csv_rows"][seed] - 1}
    assert small_cli.check({"run": {**run_, "csv_rows": short}})["run"]


# -- tracing -------------------------------------------------------------------

def _probe_state(probes):
    return [(p.owner, p.attr, vars(p.owner).get(p.attr)) for p in probes]


def test_tracer_restores_original_functions(small_mlp):
    probes = tracing.default_probes()
    before = _probe_state(probes)
    original = harness.run_seed
    tracer = tracing.Tracer(probes)
    with pytest.raises(RuntimeError):
        with tracer:
            assert harness.run_seed is not original
            raise RuntimeError("interrupted traced run")
    assert _probe_state(probes) == before
    with tracer:
        run_job(small_mlp)
    assert _probe_state(probes) == before
    assert tracer.spans()


def test_self_times_sum_to_traced_wall(small_mlp):
    runner = run.Runner(small_mlp, reference=None)
    untraced = min(runner.job(r) for r in range(3))
    tracer = tracing.Tracer(tracing.default_probes())
    with tracer:
        wall = runner.job(3, tracer)
    assert runner.failed == 0
    selfs = tracing.self_times(tracer.spans())
    root = next(s for s in tracer.spans() if s.name == "bench.job")
    total = sum(selfs.values())
    assert total == pytest.approx(root.duration, rel=1e-9)
    overhead = max(wall - untraced, 0.0)
    assert abs(wall - total) <= overhead + 1e-3
    names = {s.name for s in tracer.spans()}
    assert {"problems.batch_loss_gradient", "optim.Pnm.step", "optim.HeavyBall.step",
            "harness.run_seed"} <= names


def test_self_time_uses_union_of_overlapping_children():
    spans = [
        tracing.Span(1, "parent", None, 0, 0, 0.0, 10.0, None),
        tracing.Span(2, "a", 1, 1, 0, 1.0, 5.0, None),
        tracing.Span(3, "b", 1, 2, 0, 3.0, 7.0, None),
        tracing.Span(4, "c", 1, 1, 0, 9.0, 12.0, None),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_worker_thread_spans_nest_under_harness_run(small_cli):
    tracer = tracing.Tracer(tracing.default_probes())
    with tracer:
        harness.run(small_cli.config, None, threads=2)
    (run_span,) = [s for s in tracer.spans() if s.name == "harness.run"]
    seeds = [s for s in tracer.spans() if s.name == "harness.run_seed"]
    assert len(seeds) == 2 and all(s.parent == run_span.id for s in seeds)
    assert tracing.layer_metrics(tracer.spans(), 0.0)["harness.parallel_efficiency"] > 0


# -- declared metrics ----------------------------------------------------------

def test_metric_names_are_valid_and_match_the_emitted_metrics():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"] for m in SPEC["per_layer"]}
    loc = {n for n in layer if n.endswith(".loc")}
    assert set(tracing.layer_metrics([], 0.0)) == layer - loc
    assert "src.loc" in loc
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_exits_nonzero_without_pnmkit_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_label_noise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - started < 180
