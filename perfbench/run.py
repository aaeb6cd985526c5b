"""Benchmark for pinchrelay: one workload per process, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_fig1 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
spends the first half of ``--seconds`` untraced and the second half with
spans recorded at every traced function, and reports per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report of the environment and sample counts.  See README.md.
"""

from __future__ import annotations

import os

# Single-threaded numpy; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, rebind, restore
from workloads import PLACEMENT_CASES, SolvePoint, SweepFig1, VerifyOracle, placement_case

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference" / "fig1.json"

WORKLOADS = ("sweep_fig1", "verify_oracle", "solve_point")
SETUP_RUNS = 16
SETUP_FASTEST = 4
MAX_SPANS = 1 << 19

TRACED = (
    "cli.cli_main",
    "sweep.run_sweep",
    "sweep.export_csv",
    "optimize.solve",
    "optimize.optimal_pin_position",
    "optimize.stationary_points",
    "optimize.pin_objective",
    "optimize.optimal_power_allocation",
    "model.channel_gains",
    "model.relay_tx_power_w",
    "model.total_power_w",
    "benchmarks.benchmark1_power",
    "benchmarks.benchmark1_tx_power_w",
    "benchmarks.benchmark1_link_gain",
    "benchmarks.benchmark2_power",
    "oracle.verify_scenario",
    "oracle.grid_search_pin",
    "oracle.numeric_power_min",
)

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import pinchrelay.cli
from pinchrelay.model import SystemConfig
SystemConfig()
print(time.perf_counter() - t0)
"""

NOTES = (
    "Only this benchmark's own processes were measured; nothing was done to CPU "
    "governors, cgroups, huge pages, caches or other processes."
)


class Package:
    """The pinchrelay modules, imported from this checkout's src/."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        for name in ("cli", "sweep", "optimize", "model", "benchmarks", "oracle"):
            setattr(self, name, importlib.import_module(f"pinchrelay.{name}"))
        origin = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"imported pinchrelay from {origin}, not from {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_sample() -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports the CLI and builds the
    default ``SystemConfig``, and the import time it reports itself."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return perf_counter() - t0, float(proc.stdout.strip())


def fastest_median(samples: list[float]) -> float:
    """Median of the ``SETUP_FASTEST`` smallest samples: other tenants only ever
    add time, so the fastest interpreters show the cost of the code."""
    return statistics.median(sorted(samples)[:SETUP_FASTEST])


class Phase:
    """Per-step operations, seconds and median call latency of one timed phase.

    On a shared 2-vCPU cloud host (Xeon, CPython 3.11) the speed of the same
    code swung by up to 1.5x over seconds to minutes because of other
    tenants, so a median over a whole run measured the neighbours as much as
    the code.  Throughput and median latency are therefore taken over the
    fastest twentieth of the phase's steps; whole-phase figures, from
    ``samples``, go to the report line.
    """

    FASTEST_SHARE = 0.05

    def __init__(self) -> None:
        self.ops: list[int] = []
        self.seconds: list[float] = []
        self.latency: list[float] = []
        self.samples = np.zeros(0)
        self.peak_kib = 0

    def fastest(self) -> list[int]:
        order = sorted(range(len(self.ops)), key=lambda i: self.seconds[i] / self.ops[i])
        return order[: max(1, math.ceil(self.FASTEST_SHARE * len(order)))]

    @property
    def ops_per_s(self) -> float:
        best = self.fastest()
        return sum(self.ops[i] for i in best) / sum(self.seconds[i] for i in best)

    @property
    def latency_p50_s(self) -> float:
        return statistics.median(self.latency[i] for i in self.fastest())

    @property
    def median_ops_per_s(self) -> float:
        return statistics.median(n / t for n, t in zip(self.ops, self.seconds))


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run steps for ``seconds``; a traced phase also ends once the span buffer is full."""
    phase = Phase()
    ring = workload.latency
    first = ring.count
    deadline = perf_counter() + seconds
    while True:
        start = ring.count
        n, elapsed = workload.step()
        phase.ops.append(n)
        phase.seconds.append(elapsed)
        phase.latency.append(float(np.median(ring.since(start))))
        if perf_counter() >= deadline or (tracer is not None and tracer.full):
            phase.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            phase.samples = ring.since(first)
            return phase


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def make_workload(name: str, pr: Package, seed: int, workdir: Path):
    if name == "sweep_fig1":
        return SweepFig1(pr, seed, workdir, REFERENCE)
    if name == "verify_oracle":
        return VerifyOracle(pr, seed)
    return SolvePoint(pr, seed)


def end_to_end(phase: Phase, setup_s: float) -> dict[str, dict]:
    return {
        "ops_per_s": {"value": phase.ops_per_s, "unit": "1/s"},
        "latency_p50_us": {"value": phase.latency_p50_s * 1e6, "unit": "us"},
        "peak_rss_mb": {"value": phase.peak_kib / 1024.0, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def placement_shares(pr: Package, workload) -> dict[str, float]:
    """Share of each placement case over the ``optimal_pin_position`` calls of
    one untimed step, recorded by a plain patch outside any traced phase."""
    calls: list[tuple] = []
    original = pr.optimize.optimal_pin_position

    def recording(config, ue):
        x_pin = original(config, ue)
        calls.append((config, ue, x_pin))
        return x_pin

    patches = rebind("pinchrelay", original, recording)
    try:
        workload.step()
    finally:
        restore(patches)
    cases = dict.fromkeys(PLACEMENT_CASES, 0)
    for config, ue, x_pin in calls:
        cases[placement_case(pr, config, ue, x_pin)] += 1
    return {case: count / len(calls) if calls else 0.0 for case, count in cases.items()}


def per_layer(pr: Package, workload, seconds: float) -> tuple[Phase, dict[str, dict]]:
    """Untraced then traced half-runs; spans turned into per-layer metrics."""
    untraced = measure(workload, seconds / 2.0)
    tracer = Tracer("pinchrelay", TRACED, MAX_SPANS)
    tracer.calibrate()
    bytes_before = workload.bytes_written
    tracer.install()
    try:
        traced = measure(workload, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    tracer.calibrate()
    bytes_traced = workload.bytes_written - bytes_before
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload.name}.npz")

    metrics: dict[str, dict] = {}
    for name, stats in tracer.layer_stats().items():
        for key, value in stats.items():
            metrics[f"{name}.{key}"] = {"value": value, "unit": "count" if key in ("calls", "errors") else "s"}
    for case, share in placement_shares(pr, workload).items():
        metrics[f"placement.{case}_share"] = {"value": share, "unit": "ratio"}

    link_gain_calls = metrics["benchmarks.benchmark1_link_gain.calls"]["value"]
    b1_ops = len(traced.ops) * workload.benchmark1_ops_per_step
    length = pr.model.SystemConfig().waveguide_length_m
    grid_points = np.arange(0.0, length, 1e-3).size + 1 + pr.oracle.DEFAULT_P1_POINTS
    metrics.update({
        "sweep.export_csv.bytes": {"value": float(bytes_traced), "unit": "B"},
        "trace.ops": {"value": float(sum(traced.ops)), "unit": "count"},
        "trace.overhead_ops_per_s": {"value": untraced.ops_per_s - traced.ops_per_s, "unit": "1/s"},
        "trace.span_overhead_s": {"value": tracer.inner_s + tracer.outer_s, "unit": "s"},
        "oracle.grid_points_per_trial": {"value": float(grid_points), "unit": "count"},
        "oracle.grid_bytes_per_trial": {"value": float(8 * grid_points), "unit": "B"},
        "benchmarks.link_gain_evals_per_op": {"value": link_gain_calls / b1_ops if b1_ops else 0.0, "unit": "count"},
    })
    return untraced, metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pinchrelay" / "__init__.py").is_file():
        print(f"perfbench: no pinchrelay sources at {SRC / 'pinchrelay'}; run from a checkout", file=sys.stderr)
        return 2
    setup_sample()  # compiles the bytecode, which users pay once per install, not per call
    # Set-up is sampled before and after the workload, so the fastest
    # interpreters are picked from more of the host's swings in speed.
    setup = [setup_sample() for _ in range(SETUP_RUNS // 2)]
    pr = Package()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = make_workload(args.workload, pr, args.seed, workdir)
        try:
            workload.step()  # warm-up: gated and counted, not timed
            if args.trace:
                phase, metrics = per_layer(pr, workload, args.seconds)
            else:
                phase = measure(workload, args.seconds)
            failed = workload.gate()
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir)
    setup += [setup_sample() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    setup_s = fastest_median([wall for wall, _ in setup])
    import_s = fastest_median([imported for _, imported in setup])
    if args.trace:
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    else:
        metrics = end_to_end(phase, setup_s)
    report = {
        "report": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "steps": len(phase.ops),
            "fastest_steps": len(phase.fastest()),
            "median_ops_per_s": phase.median_ops_per_s,
            "latency_samples": int(phase.samples.size),
            "latency_p50_us_all": float(np.percentile(phase.samples, 50.0) * 1e6),
            "latency_p99_us_all": float(np.percentile(phase.samples, 99.0) * 1e6),
            "setup_s": setup_s,
            "import_s": import_s,
            "env": environment(),
            "notes": NOTES,
        }
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
