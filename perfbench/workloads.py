"""The benchmark's three workloads and the correctness gate of each.

Every workload is a closed loop with one caller.  ``step()`` runs one timed
unit of work and returns ``(operations, seconds)``; the gate work of a step
(reading back and checking its output) runs after the clock has stopped.
The seed reaches the package only as generated inputs: CLI arguments,
configurations and user positions.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from array import array
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

SEED_MODULUS = 2**32

FIG1_VALUES_DB = tuple(10.0 + 2.0 * i for i in range(11))
FIG1_USERS = 1000
FIG1_SCHEMES = ("proposed", "benchmark1", "benchmark2")
FIG1_ARGS = ("sweep", "--var", "gamma0", "--values", "10:2:30dB", "--samples", str(FIG1_USERS))
FIG1_HEADER = "variable,scheme,mean_total_power_w,mean_bs_power_w,n_samples"
REFERENCE_REL_TOL = 1e-12

VERIFY_TRIALS = 100
VERIFY_LINE = re.compile(r"^trial +\d+: .*\| ok$")

SOLVE_PAIRS = 4096
SOLVE_BATCH = 1000
SOLVE_ALPHA_RANGE = (1e-4, 0.3)
SOLVE_GRID_CHECKS = 64
SNR_REL_TOL = 1e-9
PLACEMENT_REL_TOL = 1e-10


class LatencyRing:
    """Latency samples in a fixed, preallocated buffer that keeps the newest ones.

    The buffer never grows, so the number of calls a run makes does not move
    the process's peak memory.
    """

    def __init__(self, capacity: int = 1 << 18) -> None:
        self.buf = array("d", bytes(8 * capacity))
        self.capacity = capacity
        self.count = 0

    def add(self, seconds: float) -> None:
        self.buf[self.count % self.capacity] = seconds
        self.count += 1

    def since(self, start: int) -> np.ndarray:
        """A copy of the samples added since the count was ``start`` that are still held."""
        held = np.frombuffer(self.buf)
        if self.count - start >= self.capacity:
            return held.copy()
        lo, hi = start % self.capacity, self.count % self.capacity
        return held[lo:hi].copy() if lo <= hi else np.concatenate((held[lo:], held[:hi]))


def _run_cli(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Call ``cli.cli_main`` in-process; return (exit code or None if it raised, stdout, seconds)."""
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(sink):
            code = cli.cli_main(argv)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        print(f"perfbench: cli_main{argv[:1]} raised {exc!r}", file=sys.stderr)
        code = None
    return code, sink.getvalue(), perf_counter() - t0


class SweepFig1:
    """``pinchrelay sweep --var gamma0 --values 10:2:30dB --samples 1000`` in-process.

    One operation is one (sweep value, user, scheme) evaluation.  Every sweep
    of a run uses the same seed, so every CSV must match the first byte for
    byte.
    """

    name = "sweep_fig1"
    ops_per_step = len(FIG1_VALUES_DB) * FIG1_USERS * len(FIG1_SCHEMES)
    benchmark1_ops_per_step = len(FIG1_VALUES_DB) * FIG1_USERS

    def __init__(self, pr, seed: int, workdir: Path, reference_path: Path) -> None:
        self.cli = pr.cli
        self.seed = seed % SEED_MODULUS
        self.out = workdir / "fig1.csv"
        self.argv = [*FIG1_ARGS, "--seed", str(self.seed), "--out", str(self.out)]
        reference = json.loads(reference_path.read_text(encoding="utf-8"))["seeds"]
        rows = reference.get(str(self.seed))
        self.reference = None if rows is None else {(v, s): (t, b) for v, s, t, b in rows}
        self.latency = LatencyRing()
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self._first: tuple[bytes, dict, int] | None = None

    def step(self) -> tuple[int, float]:
        code, _, elapsed = _run_cli(self.cli, self.argv)
        self.latency.add(elapsed)
        self.attempted += self.ops_per_step
        if code != 0:
            self.failed += self.ops_per_step
            return self.ops_per_step, elapsed
        data = self.out.read_bytes()
        self.bytes_written += len(data)
        self.failed += self._check(data)
        return self.ops_per_step, elapsed

    def _check(self, data: bytes) -> int:
        """Failed operations in one sweep's CSV: 1000 per failed (value, scheme) row."""
        if self._first is not None and data == self._first[0]:
            return self._first[2]
        rows = _parse_fig1(data)
        first_rows = None if self._first is None else self._first[1]
        bad = set()
        for i, value in enumerate(FIG1_VALUES_DB):
            for scheme in FIG1_SCHEMES:
                key = (value, scheme)
                row = rows.get(key)
                if row is None:
                    bad.add(key)
                    continue
                total, bs_power, n_samples, line = row
                if not (math.isfinite(total) and math.isfinite(bs_power) and total > 0.0 and bs_power > 0.0):
                    bad.add(key)
                if n_samples != FIG1_USERS:
                    bad.add(key)
                if first_rows is not None and (key not in first_rows or first_rows[key][3] != line):
                    bad.add(key)
                previous = rows.get((FIG1_VALUES_DB[i - 1], scheme)) if i > 0 else None
                if previous is not None and not total > previous[0]:
                    bad.add(key)
                if self.reference is not None:
                    ref_total, ref_bs = self.reference[key]
                    if abs(total - ref_total) > REFERENCE_REL_TOL * abs(ref_total):
                        bad.add(key)
                    if abs(bs_power - ref_bs) > REFERENCE_REL_TOL * abs(ref_bs):
                        bad.add(key)
            proposed, bench2 = rows.get((value, "proposed")), rows.get((value, "benchmark2"))
            if proposed is not None and bench2 is not None and not proposed[0] <= bench2[0]:
                bad.add((value, "proposed"))
        failed = len(bad) * FIG1_USERS
        if self._first is None:
            self._first = (data, rows, failed)
        return failed

    def gate(self) -> int:
        return self.failed

    def close(self) -> None:
        pass


def _parse_fig1(data: bytes) -> dict[tuple[float, str], tuple[float, float, int, str]]:
    """CSV rows keyed by (sweep value, scheme); malformed rows are left out."""
    lines = data.decode("utf-8", errors="replace").split("\n")
    if not lines or lines[0] != FIG1_HEADER:
        return {}
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            continue
        try:
            rows[(float(parts[0]), parts[1])] = (float(parts[2]), float(parts[3]), int(parts[4]), line)
        except ValueError:
            continue
    return rows


def fig1_reference_rows(cli, seed: int, workdir: Path) -> list[list]:
    """The fig1 sweep's (value, scheme, mean total, mean BS power) rows for one seed."""
    out = workdir / "fig1.csv"
    code, _, _ = _run_cli(cli, [*FIG1_ARGS, "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"fig1 sweep failed for seed {seed}")
    rows = _parse_fig1(out.read_bytes())
    return [[value, scheme, total, bs] for (value, scheme), (total, bs, _, _) in rows.items()]


class VerifyOracle:
    """``pinchrelay verify --trials 100 --seed K`` in-process, 1 mm placement grid.

    One operation is one trial.  Each call draws a fresh ``K`` from the
    benchmark seed.  A trial's latency is the time of its ``verify_scenario``
    call, taken by a timing shim at ``pinchrelay.cli.verify_scenario``.
    """

    name = "verify_oracle"
    ops_per_step = VERIFY_TRIALS
    benchmark1_ops_per_step = 0

    def __init__(self, pr, seed: int) -> None:
        self.cli = pr.cli
        self.rng = np.random.default_rng(seed % SEED_MODULUS)
        self.latency = LatencyRing()
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        oracle, latency = pr.oracle, self.latency
        self._original = pr.cli.verify_scenario

        def timed_verify_scenario(*args, **kwargs):
            # Looked up on the oracle module at call time, so a tracer
            # installed later still sees the call underneath this shim.
            t0 = perf_counter()
            try:
                return oracle.verify_scenario(*args, **kwargs)
            finally:
                latency.add(perf_counter() - t0)

        pr.cli.verify_scenario = timed_verify_scenario

    def step(self) -> tuple[int, float]:
        seed = int(self.rng.integers(SEED_MODULUS))
        code, out, elapsed = _run_cli(self.cli, ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)])
        passed = sum(1 for line in out.splitlines() if VERIFY_LINE.match(line))
        failed = VERIFY_TRIALS - min(passed, VERIFY_TRIALS)
        if code != 0 and failed == 0:
            failed = VERIFY_TRIALS
        self.attempted += VERIFY_TRIALS
        self.failed += failed
        return VERIFY_TRIALS, elapsed

    def gate(self) -> int:
        return self.failed

    def close(self) -> None:
        self.cli.verify_scenario = self._original


class SolvePoint:
    """Closed loop of single ``solve(config, ue)`` calls over pre-generated pairs.

    Attenuation is log-uniform over ``SOLVE_ALPHA_RANGE`` and users are
    uniform over the coverage area, so every placement branch fires.  One
    operation is one call.  The loop cycles through the pairs and keeps each
    pair's latest result for the gate.
    """

    name = "solve_point"
    ops_per_step = SOLVE_BATCH
    benchmark1_ops_per_step = 0

    def __init__(self, pr, seed: int) -> None:
        self.pr = pr
        rng = np.random.default_rng(seed % SEED_MODULUS)
        base = pr.model.SystemConfig()
        lo, hi = (math.log10(a) for a in SOLVE_ALPHA_RANGE)
        alphas = 10.0 ** rng.uniform(lo, hi, SOLVE_PAIRS)
        xs = rng.uniform(0.0, base.coverage_x_m, SOLVE_PAIRS)
        ys = rng.uniform(0.0, base.coverage_y_m, SOLVE_PAIRS)
        self.pairs = [
            (replace(base, waveguide_attenuation_per_m=float(a)), pr.model.UePosition(float(x), float(y)))
            for a, x, y in zip(alphas, xs, ys)
        ]
        self.results: list[object] = [None] * SOLVE_PAIRS
        self.latency = LatencyRing()
        self.calls = 0
        self.raised = 0
        self.bytes_written = 0

    @property
    def attempted(self) -> int:
        return self.calls

    def step(self) -> tuple[int, float]:
        solve = self.pr.optimize.solve  # looked up per step so a tracer can wrap it
        pairs, results = self.pairs, self.results
        buf, capacity, count = self.latency.buf, self.latency.capacity, self.latency.count
        pos, elapsed, raised = self.calls, 0.0, 0
        for _ in range(SOLVE_BATCH):
            i = pos % SOLVE_PAIRS
            config, ue = pairs[i]
            t0 = perf_counter()
            try:
                result = solve(config, ue)
            except Exception:
                result = None
            dt = perf_counter() - t0
            if result is None:
                raised += 1
            results[i] = result
            buf[count % capacity] = dt
            count += 1
            elapsed += dt
            pos += 1
        self.latency.count = count
        self.calls = pos
        self.raised += raised
        return SOLVE_BATCH, elapsed

    def gate(self) -> int:
        """Raised calls, plus every call of a pair whose latest result fails a check."""
        failed = self.raised
        laps, extra = divmod(self.calls, SOLVE_PAIRS)
        for i, ((config, ue), result) in enumerate(zip(self.pairs, self.results)):
            if result is not None and not self._valid(config, ue, result, grid=i < SOLVE_GRID_CHECKS):
                failed += laps + (1 if i < extra else 0)
        return failed

    def _valid(self, config, ue, sol, grid: bool) -> bool:
        model = self.pr.model
        length = config.waveguide_length_m
        if not 0.0 <= sol.x_pin_m <= length:
            return False
        powers = (sol.p1_w, sol.beta_sq, sol.p2_w, sol.total_power_w)
        if not all(math.isfinite(p) and p > 0.0 for p in powers):
            return False
        try:
            snr = model.af_snr(sol.p1_w, sol.beta_sq, model.channel_gains(config, ue, sol.x_pin_m))
        except ValueError:
            return False
        if not abs(snr - config.snr_target_linear) <= SNR_REL_TOL * config.snr_target_linear:
            return False
        if grid:
            _, f_grid = self.pr.oracle.grid_search_pin(config, ue, 1e-3)
            f_closed = pin_objective(config, ue, sol.x_pin_m)
            if f_grid - f_closed > PLACEMENT_REL_TOL * f_grid:
                return False
        return True

    def close(self) -> None:
        pass


def pin_objective(config, ue, x_m: float) -> float:
    """Placement objective exp(-alpha x) / ((x_ue - x)^2 + y_ue^2 + d^2), written out here."""
    dx = ue.x_ue_m - x_m
    return math.exp(-config.waveguide_attenuation_per_m * x_m) / (
        dx * dx + ue.y_ue_m**2 + config.waveguide_height_m**2
    )


PLACEMENT_CASES = ("feed", "interior", "far_end", "no_root")


def placement_case(pr, config, ue, x_pin_m: float) -> str:
    """Which placement case produced ``x_pin_m``, from the stationary points."""
    if pr.optimize.stationary_points(config, ue).x2_m is None:
        return "no_root"
    if x_pin_m == 0.0:
        return "feed"
    if x_pin_m == config.waveguide_length_m:
        return "far_end"
    return "interior"
