"""Span tracing of pnmkit's public functions, applied from outside the package.

A :class:`Tracer` replaces selected functions and methods of pnmkit's modules
with wrappers that record one span per call: name, start, end, parent span,
thread id, the repetition it belongs to, and an optional work amount (FLOPs,
steps, samples, bytes) computed from the call's arguments. Spans stay in
memory (as tuples, to keep the wrappers cheap) until
:meth:`Tracer.write_jsonl`. :meth:`Tracer.restore` puts every
original attribute back, so the untraced runs measure pnmkit unchanged.

Self time is a span's duration minus the part of its interval covered by its
child spans. A span opened on a worker thread with no open span of its own
takes the innermost open span of the main thread as its parent, so seeds run
on a thread pool nest under the ``harness.run`` call that started them.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: ``owner.attr`` is recorded under ``name``.

    ``name`` may be a callable of the call's arguments (for spans named
    after an argument, such as the dynamics kind). ``work`` is called after
    the call as ``work(result, *args, **kwargs)`` and returns the span's
    work amount. ``cpu`` also records the calling thread's CPU time, which
    excludes time spent waiting for the interpreter lock.
    """

    owner: object
    attr: str
    name: Union[str, Callable[..., str]]
    work: Optional[Callable[..., float]] = None
    cpu: bool = False


def default_probes() -> list[Probe]:
    """The layer boundaries the benchmark traces, one probe per function."""
    from pnmkit import cli, convergence, core, harness, noise, optim, pacbayes, posterior, problems

    def mlp_flops(_r, self, theta, idx):
        # Matmuls only: X@W1, A1@W2 forward; A1^T dZ2, dZ2 W2^T, X^T dZ1 backward.
        n, d, h, k = len(idx), self.in_dim, self.hidden, self.n_classes
        return 4.0 * n * d * h + 6.0 * n * h * k

    def linreg_flops(_r, self, theta, idx):
        return 4.0 * len(idx) * self.dim

    def stationary_name(model, noise_cov, kind, *args, **kwargs):
        return f"posterior.simulate_stationary.{kind}"

    def stationary_steps(_r, model, noise_cov, kind, eta, burn_in, samples, rng,
                         thin=1, chains=64, beta0=1.0, beta1=0.9):
        return chains * (burn_in + -(-samples // chains) * thin)

    def file_bytes(_r, path, *args, **kwargs):
        return Path(path).stat().st_size

    return [
        Probe(core.RngStream, "choice_without_replacement", "core.choice_without_replacement"),
        Probe(problems.TinyMlpProblem, "batch_loss_gradient", "problems.batch_loss_gradient", mlp_flops),
        Probe(problems.LinearRegressionProblem, "batch_loss_gradient",
              "problems.batch_loss_gradient", linreg_flops),
        Probe(problems.DatasetProblem, "minibatch_gradient", "problems.minibatch_gradient"),
        Probe(problems.DatasetProblem, "full_gradient", "problems.full_gradient"),
        Probe(problems.QuadraticModel, "full_gradient", "problems.full_gradient"),
        Probe(problems.TinyMlpProblem, "error_rate", "problems.error_rate"),
        Probe(problems.AdditiveNoiseOracle, "stochastic_gradient", "problems.stochastic_gradient"),
        Probe(optim.Optimizer, "step", lambda self, *a, **k: f"optim.{type(self).__name__}.step"),
        Probe(harness, "build_classification_task", "harness.build_classification_task"),
        Probe(harness, "run_seed", "harness.run_seed", cpu=True),
        Probe(harness, "run", "harness.run",
              lambda _r, cfg, out_dir=None, threads=1, snapshots=False: threads),
        Probe(harness, "label_noise_experiment", "harness.label_noise_experiment"),
        Probe(harness, "write_json", "harness.write", file_bytes),
        Probe(harness, "write_trajectory_csv", "harness.write", file_bytes),
        Probe(noise, "pair_amplification_ratio", "noise.pair_amplification_ratio",
              lambda _r, beta1, beta0, steps, rng, dim=1, burn_in=None: steps * dim),
        Probe(noise, "estimate_gradient_noise_covariance",
              "noise.estimate_gradient_noise_covariance",
              lambda _r, problem, theta, batch_size, samples, rng: samples),
        Probe(posterior, "simulate_stationary", stationary_name, stationary_steps),
        Probe(posterior, "simulate_sgd_spectral", "posterior.simulate_sgd_spectral",
              lambda _r, model, sigma2, eta, burn_in, samples, *a, **k: burn_in + samples),
        Probe(convergence, "empirical_rate", "convergence.empirical_rate",
              lambda _r, oracle, theta0, horizons, seeds, *a, **k: sum(horizons) * len(seeds)),
        Probe(pacbayes, "bound_table", "pacbayes.bound_table",
              lambda _r, setting, gammas: len(gammas)),
        Probe(cli, "main", "cli.main"),
    ]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    rep: int
    start: float
    end: float
    work: Optional[float]
    cpu: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs probes, records spans, and restores the originals."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.records: list[tuple] = []  # Span fields, in order
        self.rep = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for probe in self.probes:
                present = probe.attr in vars(probe.owner)
                original = getattr(probe.owner, probe.attr)
                raw = vars(probe.owner)[probe.attr] if present else None
                self._saved.append((probe.owner, probe.attr, raw, present))
                setattr(probe.owner, probe.attr, self._wrap(original, probe))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for owner, attr, raw, present in reversed(self._saved):
            if present:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ------------------------------------------------------------

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]

    def _thread_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own code."""
        return _ManualSpan(self, name)

    def _wrap(self, fn, probe: Probe):
        # Kept flat: this wrapper's own cost is the tracing overhead.
        tracer = self
        name = probe.name
        fixed_name = isinstance(name, str)
        work = probe.work
        clock = time.perf_counter
        cpu_clock = time.thread_time if probe.cpu else None
        get_ident = threading.get_ident
        main_thread = self._main_thread
        main_stack = self._main_stack
        ids = self._ids
        append = self.records.append

        def traced(*args, **kwargs):
            thread = get_ident()
            stack = main_stack if thread == main_thread else tracer._thread_stack()
            if stack:
                parent = stack[-1]
            elif thread == main_thread:
                parent = None
            else:
                # A worker thread's first span nests under the main thread's open span.
                outer = main_stack[-1:]
                parent = outer[0] if outer else None
            span_id = next(ids)
            stack.append(span_id)
            cpu0 = cpu_clock() if cpu_clock else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                label = name if fixed_name else name(*args, **kwargs)
                append((span_id, label, parent, thread, tracer.rep, start, end, None, None))
                raise
            end = clock()
            cpu = cpu_clock() - cpu0 if cpu_clock else None
            stack.pop()
            label = name if fixed_name else name(*args, **kwargs)
            amount = float(work(result, *args, **kwargs)) if work else None
            append((span_id, label, parent, thread, tracer.rep, start, end, amount, cpu))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output -----------------------------------------------------------------

    def write_jsonl(self, path: Path, **tags) -> None:
        """One header object (field names plus ``tags``), then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "parent", "thread", "rep", "start", "end", "work", "cpu"]
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": fields, **tags}) + "\n")
            for record in self.records:
                fh.write(json.dumps(record) + "\n")


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.thread = threading.get_ident()
        self.stack = (tracer._main_stack if self.thread == tracer._main_thread
                      else tracer._thread_stack())
        outer = self.stack[-1:] or tracer._main_stack[-1:]
        self.parent = outer[0] if outer else None
        self.span_id = next(tracer._ids)
        self.stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.stack.pop()
        self.tracer.records.append((self.span_id, self.name, self.parent, self.thread,
                                    self.tracer.rep, self.start, end, None, None))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans}


def has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of the traced repetitions.

    Counts and per-job totals are medians over repetitions; call-latency
    quantiles and rates pool every call of every traced repetition. A layer
    the workload never calls reads 0. ``harness.parallel_efficiency`` is the
    CPU time of the seed runs over threads x ``harness.run`` wall time.
    """
    reps = sorted({s.rep for s in spans})
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    by_name_rep: dict[tuple[str, int], list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        by_name_rep.setdefault((s.name, s.rep), []).append(s)

    def per_rep(name, value) -> float:
        if not reps:
            return 0.0
        return statistics.median(value(by_name_rep.get((name, r), [])) for r in reps)

    def calls(name):
        return per_rep(name, len)

    def total_s(name):
        return per_rep(name, lambda g: sum(s.duration for s in g))

    def self_s(name):
        return per_rep(name, lambda g: sum(selfs[s.id] for s in g))

    def work(name):
        return per_rep(name, lambda g: sum(s.work or 0.0 for s in g))

    def p_us(name, q):
        return quantile([s.duration for s in by_name.get(name, [])], q) * 1e6

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def rate(name):
        group = by_name.get(name, [])
        return ratio(sum(s.work or 0.0 for s in group), sum(s.duration for s in group))

    blg = "problems.batch_loss_gradient"
    out = {
        "core.choice_without_replacement.calls": calls("core.choice_without_replacement"),
        "core.choice_without_replacement.p50_us": p_us("core.choice_without_replacement", 0.5),
        f"{blg}.calls": calls(blg),
        f"{blg}.p50_us": p_us(blg, 0.5),
        f"{blg}.p99_us": p_us(blg, 0.99),
        f"{blg}.self_s": self_s(blg),
        f"{blg}.gflops_computed": ratio(
            sum(s.work or 0.0 for s in by_name.get(blg, [])),
            sum(selfs[s.id] for s in by_name.get(blg, []))) / 1e9,
        "problems.minibatch_gradient.self_us": quantile(
            [selfs[s.id] for s in by_name.get("problems.minibatch_gradient", [])], 0.5) * 1e6,
    }
    for name in ("problems.full_gradient", "problems.error_rate", "problems.stochastic_gradient",
                 "optim.Pnm.step", "optim.HeavyBall.step"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.p50_us"] = p_us(name, 0.5)

    seed_spans = by_name.get("harness.run_seed", [])
    eval_s = sum(s.duration for name in ("problems.full_gradient", "problems.error_rate")
                 for s in by_name.get(name, []) if has_ancestor(s, "harness.run_seed", by_id))
    out.update({
        "harness.run_seed.calls": calls("harness.run_seed"),
        "harness.run_seed.self_s": self_s("harness.run_seed"),
        "harness.build_classification_task.s": total_s("harness.build_classification_task"),
        "harness.eval_share": ratio(eval_s, sum(s.duration for s in seed_spans)),
        "harness.parallel_efficiency": ratio(
            sum(s.cpu or 0.0 for s in seed_spans),
            sum((s.work or 1.0) * s.duration for s in by_name.get("harness.run", []))),
        "harness.write.s": total_s("harness.write"),
        "harness.write.bytes": work("harness.write"),
        "noise.pair_amplification_ratio.steps_per_s": rate("noise.pair_amplification_ratio"),
        "noise.estimate_gradient_noise_covariance.samples_per_s":
            rate("noise.estimate_gradient_noise_covariance"),
    })
    for kind in ("sgd", "pnm", "pnm_momentum"):
        name = f"posterior.simulate_stationary.{kind}"
        out[f"{name}.chain_steps_per_s"] = rate(name)
    pac = by_name.get("pacbayes.bound_table", [])
    out.update({
        "posterior.simulate_sgd_spectral.samples_per_s": rate("posterior.simulate_sgd_spectral"),
        "convergence.empirical_rate.s": total_s("convergence.empirical_rate"),
        "convergence.empirical_rate.steps_per_s": rate("convergence.empirical_rate"),
        "pacbayes.bound_table.us_per_row": ratio(
            sum(s.duration for s in pac), sum(s.work or 0.0 for s in pac)) * 1e6,
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": overhead_frac,
    })
    return out
