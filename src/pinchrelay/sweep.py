"""Parameter-sweep engine: Monte Carlo averages over user placements, CSV export.

One sweep varies either the SNR target (in dB) or the BS-relay distance and
averages each scheme's total power, in linear watts, over users drawn
uniformly from the coverage rectangle.  The same seed is replayed at every
sweep value (common random numbers), so per-scheme means inherit the
per-sample monotonicity of the underlying schemes, and aggregation uses exact
summation so results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .benchmarks import (
    Benchmark1Config,
    benchmark1_distance_m,
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
)
from .model import SystemConfig, UePosition, db_to_linear
from .optimize import solve

SCHEMES = ("proposed", "benchmark1", "benchmark2")
VARIABLES = ("snr_target_db", "bs_relay_distance_m")

CSV_HEADER = ("variable", "scheme", "mean_total_power_w", "mean_bs_power_w", "n_samples")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which values, and how to average."""

    variable: str
    values: tuple[float, ...]
    ue_samples: int = 1000
    seed: int = 0
    schemes: tuple[str, ...] = SCHEMES
    benchmark1: Benchmark1Config = field(default_factory=Benchmark1Config)

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}, expected one of {VARIABLES}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.variable == "bs_relay_distance_m" and self.values[0] <= 0.0:
            raise ValueError("BS-relay distances must be positive")
        if self.ue_samples < 1:
            raise ValueError("ue_samples must be >= 1")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown or not self.schemes:
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}, got {self.schemes!r}")
        # canonical order, deduplicated, so downstream output is deterministic
        object.__setattr__(self, "schemes", tuple(s for s in SCHEMES if s in self.schemes))


@dataclass(frozen=True)
class SweepRecord:
    """Per-sweep-value Monte Carlo means, keyed by scheme."""

    variable_value: float
    mean_total_power_w: dict[str, float]
    mean_bs_power_w: dict[str, float]
    n_samples: int


def _configured(config: SystemConfig, variable: str, value: float) -> SystemConfig:
    if variable == "snr_target_db":
        return replace(config, snr_target_linear=db_to_linear(value))
    return replace(config, bs_relay_distance_m=value)


def _evaluate(
    cfg: SystemConfig,
    spec: SweepSpec,
    scheme: str,
    ue: UePosition,
    shadow_db: float,
) -> tuple[float, float]:
    """One (scheme, user) evaluation -> (total power, BS transmit power)."""
    if scheme == "proposed":
        sol = solve(cfg, ue)
        return sol.total_power_w, sol.p1_w
    if scheme == "benchmark2":
        sol = benchmark2_power(cfg, ue)
        return sol.total_power_w, sol.p1_w
    tx = benchmark1_tx_power_w(cfg, spec.benchmark1, benchmark1_distance_m(cfg, ue), shadow_db)
    return benchmark1_total_power_w(cfg, spec.benchmark1, tx), tx


def run_sweep(config: SystemConfig, spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate every requested scheme over the sweep values.

    Users are drawn uniformly over the coverage rectangle, shadowing is drawn
    once per user sample, and both are replayed identically at every sweep
    value.  Any scheme failure aborts with a diagnostic naming the sample.
    """
    records: list[SweepRecord] = []
    for value in spec.values:
        cfg = _configured(config, spec.variable, value)
        rng = np.random.default_rng(spec.seed)
        xs = rng.uniform(0.0, cfg.coverage_x_m, spec.ue_samples)
        ys = rng.uniform(0.0, cfg.coverage_y_m, spec.ue_samples)
        shadows = (
            rng.normal(0.0, spec.benchmark1.shadowing_std_db, spec.ue_samples)
            if "benchmark1" in spec.schemes
            else np.zeros(spec.ue_samples)
        )
        totals: dict[str, list[float]] = {s: [] for s in spec.schemes}
        bs_powers: dict[str, list[float]] = {s: [] for s in spec.schemes}
        for k in range(spec.ue_samples):
            ue = UePosition(float(xs[k]), float(ys[k]))
            for scheme in spec.schemes:
                try:
                    total, bs_w = _evaluate(cfg, spec, scheme, ue, float(shadows[k]))
                except Exception as exc:
                    raise RuntimeError(
                        f"scheme {scheme!r} failed at sample {k} "
                        f"(ue=({ue.x_ue_m:.6g}, {ue.y_ue_m:.6g}), {spec.variable}={value:g})"
                    ) from exc
                totals[scheme].append(total)
                bs_powers[scheme].append(bs_w)
        records.append(
            SweepRecord(
                variable_value=float(value),
                mean_total_power_w={s: math.fsum(totals[s]) / spec.ue_samples for s in spec.schemes},
                mean_bs_power_w={s: math.fsum(bs_powers[s]) / spec.ue_samples for s in spec.schemes},
                n_samples=spec.ue_samples,
            )
        )
    return records


def export_csv(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write sweep records as UTF-8, LF-terminated CSV at full double precision.

    One row per (sweep value, scheme); floats are rendered with 17 significant
    digits so parsing the file reproduces them bit for bit.
    """
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for record in records:
                for scheme, mean_total in record.mean_total_power_w.items():
                    fh.write(
                        f"{record.variable_value:.17g},{scheme},{mean_total:.17g},"
                        f"{record.mean_bs_power_w[scheme]:.17g},{record.n_samples}\n"
                    )
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[SweepRecord]:
    """Parse a file written by :func:`export_csv` back into records.

    A malformed row raises ``ValueError`` naming the file and its line.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(CSV_HEADER):
                raise ValueError(f"unexpected CSV header in {path}: {header!r}")
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path}: {exc}") from exc
    records: list[SweepRecord] = []
    for line, row in rows:
        try:
            value, scheme, mean_total, mean_bs, n_samples = row
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
            value_f, total_f, bs_f, n = float(value), float(mean_total), float(mean_bs), int(n_samples)
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: malformed sweep CSV row {row!r}: {exc}") from None
        if not records or records[-1].variable_value != value_f:
            records.append(SweepRecord(value_f, {}, {}, n))
        records[-1].mean_total_power_w[scheme] = total_f
        records[-1].mean_bs_power_w[scheme] = bs_f
    return records


def write_gnuplot_script(
    csv_path: str | Path,
    script_path: str | Path,
    xlabel: str,
    schemes: Sequence[str] = SCHEMES,
) -> None:
    """Emit a companion gnuplot script plotting mean total power per scheme."""
    csv_path = Path(csv_path)
    lines = [
        f"# companion plot script for {csv_path.name}",
        'set datafile separator ","',
        "set key top left",
        f'set xlabel "{xlabel}"',
        'set ylabel "mean total power [W]"',
        "set logscale y",
        "plot \\",
    ]
    plots = [
        f'  "{csv_path.name}" skip 1 using 1:(stringcolumn(2) eq "{s}" ? column(3) : NaN) '
        f'with linespoints title "{s}"'
        for s in schemes
    ]
    lines.append(", \\\n".join(plots))
    Path(script_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
