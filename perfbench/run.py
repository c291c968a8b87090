"""pnmkit benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload mlp_label_noise --seed 1 --seconds 30 --trace 0

Workloads, metrics and their bounds are declared in ``BENCHMARK.json``; this
script prints exactly the metrics listed there. With ``--trace 0`` it runs
the untraced job repeatedly for ``--seconds`` and reports ``wall_s`` (median
job time), ``setup_s`` (median, over several fresh processes, of the time
from process start to the end of set-up) and ``peak_rss_mb``. With
``--trace 1`` it alternates untraced and traced jobs (at most three pairs)
and reports the per-layer metrics plus the tracing overhead; the spans are
written to ``.bench_build/perfbench/spans_<workload>.jsonl``. Per-layer
times are raw, not scaled.

Both times are scaled to a reference machine speed. Right before each job
and each set-up probe the benchmark times a fixed calibration loop of its
own (interpreter and small-numpy work, no pnmkit) and multiplies the
measured time by ``CALIBRATION_REF_S / calibration time``. On a shared
2-core machine the CPU time of one job swings by up to 60% in phases of
tens of seconds to minutes; the median of raw job times over 30-second
windows then spread 12-24% (interquartile range over median), the median of
scaled times 5-8%. Raw medians are printed too.

Every job's outputs are checked: a first, untimed job is checked against the
claim tolerances (and, on the reference seed and stack, exactly against
``reference.json``), and every later job must reproduce it bit for bit. An
operation that raises or fails a check counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--record-reference`` rewrites this workload's entry in ``reference.json``
from one checked job on the given seed and the current stack.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE_PATH = BENCH_DIR / "reference.json"
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
MAX_TRACED_PAIRS = 3  # bounds the spans kept in memory and written out
SETUP_PROBES = 5
CALIBRATION_REF_S = 0.05  # calibration loop time at the reference speed


def import_pnmkit():
    """Import pnmkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pnmkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: pnmkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pnmkit

    if Path(pnmkit.__file__).resolve().parent != (SRC / "pnmkit").resolve():
        raise SystemExit(f"perfbench: imported pnmkit from {pnmkit.__file__}, not {SRC}")
    return pnmkit


# ---------------------------------------------------------------------------
# Machine, stack and source size
# ---------------------------------------------------------------------------

def _openblas_runtime() -> dict:
    """Thread count and kernel of the OpenBLAS that numpy loaded, if any."""
    import numpy as np

    out = {}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for key, stem, restype in (("blas_threads", "get_num_threads", ctypes.c_int),
                                   ("blas_core", "get_corename", ctypes.c_char_p),
                                   ("blas_config", "get_config", ctypes.c_char_p)):
            for sym in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_", f"openblas_{stem}"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    out[key] = value.decode() if isinstance(value, bytes) else value
                    break
    return out


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }
    info.update(_openblas_runtime())
    return info


def stack_fingerprint(info: dict) -> dict:
    """The parts of the stack that decide floating-point results bit for bit."""
    keys = ("machine", "python", "numpy", "scipy", "blas", "blas_version", "blas_core")
    return {k: info.get(k) for k in keys}


def source_loc() -> dict[str, int]:
    """Physical lines per module of ``src/pnmkit`` and their total."""
    loc = {}
    for path in sorted((SRC / "pnmkit").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        loc[f"{name}.loc"] = path.read_bytes().count(b"\n")
    loc["src.loc"] = sum(loc.values())
    return loc


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak of any child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Set-up timing in fresh processes
# ---------------------------------------------------------------------------

def calibration_s() -> float:
    """Seconds for a fixed loop of interpreter and small-numpy work."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    x = a
    for _ in range(300):
        x = np.tanh(x @ a * 0.01)
    return time.perf_counter() - start


def scaled(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REF_S / calibration


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from process start to end of set-up, in fresh
    interpreters.

    The parent stamps the wall clock just before starting the child; the
    child prints its wall clock when set-up is done, so the interval covers
    interpreter start, imports, input generation and model construction.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        calibration = calibration_s()
        started = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        times.append((ready - started, scaled(ready - started, calibration)))
    return times


# ---------------------------------------------------------------------------
# Running and checking jobs
# ---------------------------------------------------------------------------

def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


class Runner:
    """Runs jobs of one workload and counts attempted and failed operations."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def job(self, rep: int, tracer=None) -> float:
        """Run one job; returns its wall time in seconds."""
        from workloads import Failed

        raw = {}
        if tracer is not None:
            tracer.rep = rep
        t0 = time.perf_counter()
        with tracer.span("bench.job") if tracer is not None else contextlib.nullcontext():
            for name, call in self.workload.calls(rep):
                try:
                    raw[name] = call()
                except Exception as exc:  # a raising call is a failed operation
                    raw[name] = Failed(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self._account(self.workload.extract(raw))
        return elapsed

    def timed_job(self, rep: int, tracer=None) -> tuple[float, float]:
        """(raw, scaled) wall time of one job, calibrated right before it."""
        calibration = calibration_s()
        elapsed = self.job(rep, tracer)
        return elapsed, scaled(elapsed, calibration)

    def _account(self, results: dict) -> None:
        from workloads import Failed

        ok = {op: r for op, r in results.items() if not isinstance(r, Failed)}
        bad = {op: [str(r)] for op, r in results.items() if isinstance(r, Failed)}
        if self.first is None:
            self.first = results
            for op, problems in self.workload.check(ok).items():
                if problems:
                    bad.setdefault(op, []).extend(problems)
            if self.reference is not None:
                for op, r in ok.items():
                    if _canon(r) != _canon(self.reference.get(op)):
                        bad.setdefault(op, []).append("differs from the recorded reference")
        else:
            for op, r in ok.items():
                if _canon(r) != _canon(self.first.get(op)):
                    bad.setdefault(op, []).append("differs from the first job of this run")
        self.attempted += len(results)
        self.failed += len(bad)
        for op, problems in bad.items():
            self.problems.append(f"{op}: {'; '.join(problems)}")


def load_reference(workload: str, seed: int, fingerprint: dict) -> dict | None:
    """The recorded per-op results, when this seed and stack were recorded."""
    if not REFERENCE_PATH.is_file():
        return None
    ref = json.loads(REFERENCE_PATH.read_text())
    if ref.get("seed") != seed or ref.get("stack") != fingerprint:
        return None
    return ref["workloads"].get(workload)


def record_reference(runner: Runner, seed: int, fingerprint: dict) -> None:
    ref = {"seed": seed, "stack": fingerprint, "workloads": {}}
    if REFERENCE_PATH.is_file():
        old = json.loads(REFERENCE_PATH.read_text())
        if old.get("seed") == seed and old.get("stack") == fingerprint:
            ref = old
    ref["workloads"][runner.workload.name] = runner.first
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def report_times(label: str, times: list[tuple[float, float]]) -> None:
    for kind, values in (("raw", [r for r, _ in times]), ("scaled", [s for _, s in times])):
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1 else values * 3)
        print(f"{label}: {len(values)}, {kind} median {med:.4f} s "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, min {min(values):.4f})")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the ready time as JSON and exit (set-up timing)")
    p.add_argument("--record-reference", action="store_true",
                   help="write this workload's checked results to reference.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_pnmkit()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = WORK_DIR / f"{args.workload}_seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    if args.setup_only:
        workload.setup()
        print(json.dumps({"ready": time.time()}))
        return 0

    info = machine_info()
    fingerprint = stack_fingerprint(info)
    loc = source_loc()
    print("machine: " + json.dumps(info, sort_keys=True))
    print("source: " + json.dumps(loc))
    reference = None
    if not args.record_reference:
        reference = load_reference(args.workload, args.seed, fingerprint)
    print(f"reference check: {'exact' if reference is not None else 'tolerances only'} "
          f"(seed {args.seed})")

    workload.setup()
    workload.prepare()
    runner = Runner(workload, reference)
    runner.job(0)  # checked warm-up; untimed
    if args.record_reference:
        if runner.failed:
            raise SystemExit("perfbench: not recording a failing job: " + "; ".join(runner.problems))
        record_reference(runner, args.seed, fingerprint)
        print(f"recorded {args.workload} at seed {args.seed}")
        return 0

    if args.trace:
        metrics, jobs = run_traced(args, runner, tracing)
        declared = spec["per_layer"]
        # Modules added later count in src.loc; a declared module that is gone reads 0.
        metrics.update({m["name"]: loc.get(m["name"], 0) for m in declared
                        if m["name"].endswith(".loc")})
    else:
        jobs = []
        deadline = time.perf_counter() + args.seconds
        while len(jobs) < MIN_REPS or time.perf_counter() < deadline:
            jobs.append(runner.timed_job(len(jobs) + 1))
        rss = peak_rss_mb()  # before the set-up probes, which are child processes
        setups = measure_setup(args)
        report_times("set-up probes", setups)
        metrics = {"wall_s": statistics.median(s for _, s in jobs),
                   "setup_s": statistics.median(s for _, s in setups),
                   "peak_rss_mb": rss}
        declared = spec["end_to_end"]

    report_times(f"{args.workload} seed {args.seed}: {'traced' if args.trace else 'timed'} jobs",
                 jobs)
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    frac = runner.failed / runner.attempted
    print(f"ops_failed_frac = {frac:.6g} ({runner.failed}/{runner.attempted})")

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_traced(args, runner: Runner, tracing) -> tuple[dict, list[tuple[float, float]]]:
    """Alternate untraced and traced jobs; per-layer metrics from the traced ones.

    Runs for ``--seconds`` or three pairs, whichever ends first.
    """
    tracer = tracing.Tracer(tracing.default_probes())
    plain, traced = [], []
    rep = 1
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_TRACED_PAIRS or (
            time.perf_counter() < deadline and len(traced) < MAX_TRACED_PAIRS):
        plain.append(runner.timed_job(rep))
        rep += 1
        with tracer:
            traced.append(runner.timed_job(rep, tracer))
        rep += 1
    untraced_wall = statistics.median(s for _, s in plain)
    overhead = (statistics.median(s for _, s in traced) - untraced_wall) / untraced_wall
    spans_path = WORK_DIR / f"spans_{args.workload}.jsonl"
    tracer.write_jsonl(spans_path, workload=args.workload, seed=args.seed)
    print(f"spans: {len(tracer.records)} written to {spans_path.relative_to(ROOT)}")
    report_times("untraced jobs", plain)
    return tracing.layer_metrics(tracer.spans(), overhead), traced


if __name__ == "__main__":
    sys.exit(main())
