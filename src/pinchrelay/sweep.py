"""Parameter-sweep engine: Monte Carlo averages over user placements, CSV export.

One sweep varies either the SNR target (in dB) or the BS-relay distance and
averages each scheme's total power, in linear watts, over users drawn
uniformly from the coverage rectangle.  The same draws are reused at every
sweep value (common random numbers), so per-scheme means inherit the
per-sample monotonicity of the underlying schemes, and aggregation uses exact
summation so results do not depend on evaluation order.

At each sweep value every scheme is evaluated over all users at once, as
numpy arrays, by :mod:`.kernel`, which reruns a scheme's per-user stage only
when a SystemConfig field it reads differs from the previous sweep value.
Each user's result equals the scalar ``solve``/``benchmark2_power``/
``benchmark1_tx_power_w`` path bit for bit.  ``run_sweep`` imports the kernel
and numpy when it runs, so specs and CSVs are handled without them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from .benchmarks import SHADOWING_STD_DB
from .model import SystemConfig, db_to_linear

# One entry per sweep variable: the SystemConfig field a sweep value sets, the
# conversion of a value to that field, the unit suffixes the CLI accepts on
# values ("" for a bare number) and the plot axis label.
VARIABLES = {
    "snr_target_db": ("snr_target_linear", db_to_linear, ("", "db"), "SNR target [dB]"),
    "bs_relay_distance_m": ("bs_relay_distance_m", float, ("", "m"), "BS-relay distance [m]"),
}


# The kernel's schemes in the order of its ``_EVALUATORS`` table (a test holds the
# two equal), written out so that a spec or a CSV needs neither the kernel nor numpy.
SCHEMES = ("proposed", "benchmark1", "benchmark2")

CSV_HEADER = ("variable", "scheme", "mean_total_power_w", "mean_bs_power_w", "n_samples")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which values, and how to average."""

    variable: str
    values: tuple[float, ...]
    ue_samples: int = 1000
    seed: int = 0
    schemes: tuple[str, ...] = SCHEMES

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}, expected one of {tuple(VARIABLES)}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        field, to_si, _, _ = VARIABLES[self.variable]
        for value in self.values:
            if not 0.0 < to_si(value) < math.inf:
                raise ValueError(f"{self.variable} value {value!r} is out of range: {field} must be finite and positive")
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


def run_sweep(config: SystemConfig, spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate every requested scheme over the sweep values.

    Draws x, then y, then one shadowing value per user, whichever schemes run,
    once per call, and reuses them at every sweep value.  A scheme failure
    aborts with a ``RuntimeError`` naming the scheme, the sweep value, the
    sample and its user when one sample is at fault (a link gain out of range,
    a total or BS power that is not finite), and the cause.
    """
    import numpy as np

    from .kernel import SampleError, evaluate

    rng = np.random.default_rng(spec.seed)
    xs = rng.uniform(0.0, config.coverage_x_m, spec.ue_samples)
    ys = rng.uniform(0.0, config.coverage_y_m, spec.ue_samples)
    shadows = rng.normal(0.0, SHADOWING_STD_DB, spec.ue_samples)
    field, to_si, _, _ = VARIABLES[spec.variable]
    users: dict[str, tuple[tuple, Any]] = {}
    records: list[SweepRecord] = []
    for value in spec.values:
        cfg = replace(config, **{field: to_si(value)})
        mean_total: dict[str, float] = {}
        mean_bs: dict[str, float] = {}
        for scheme in spec.schemes:
            try:
                total, bs_w = evaluate(scheme, cfg, xs, ys, shadows, users)
            except SampleError as exc:
                k = exc.index
                raise RuntimeError(
                    f"scheme {scheme!r} failed at sample {k} "
                    f"(ue=({xs[k]:.6g}, {ys[k]:.6g}), {spec.variable}={value:g}): {exc}"
                ) from exc
            except (ArithmeticError, ValueError) as exc:
                raise RuntimeError(f"scheme {scheme!r} failed at {spec.variable}={value:g}: {exc}") from exc
            mean_total[scheme] = math.fsum(total.tolist()) / spec.ue_samples
            mean_bs[scheme] = math.fsum(bs_w.tolist()) / spec.ue_samples
        records.append(SweepRecord(float(value), mean_total, mean_bs, spec.ue_samples))
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
