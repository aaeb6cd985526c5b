"""Parameter-sweep engine: Monte Carlo averages over user placements, CSV export.

One sweep varies one scenario field (:data:`VARIABLES`) and averages each
scheme's total power, in linear watts, over users drawn
uniformly from the coverage rectangle.  The same draws are reused at every
sweep value (common random numbers), so per-scheme means inherit the
per-sample monotonicity of the underlying schemes, and aggregation uses exact
summation so results do not depend on evaluation order.

:func:`.kernel.sweep_sums` draws the users and evaluates every scheme over all
of them at once, as numpy arrays, at each sweep value: the stages that the swept
field does not reach run once per sweep, and the rest at each value, where one
pass serves both relay schemes.  It keeps of the once-stages' results only those
a per-value stage or an output reads, and of each value's only the rows it sums;
the requested schemes pick those rows, and every stage runs.  Each user's result
equals the scalar ``solve``/``benchmark2_power``/``benchmark1_tx_power_w`` path
bit for bit, and each mean is ``math.fsum`` bit for bit.  ``run_sweep`` builds
each value's config and turns the sums into means; it imports the kernel, and
with it numpy and :mod:`.benchmarks`, when it runs, so specs and CSVs are
handled without them.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .model import DOMAIN, SystemConfig, db_to_linear, out_of_domain

# Each sweep variable: the SystemConfig field a sweep value sets and the conversion of a value to it.
# A variable is a field of DOMAIN, its values in its SI unit, but the coverage extents, from which the users
# are drawn once per sweep, and the SNR target, swept as "snr_target_db", in dB as fig1's CSV has it.
VARIABLES = {name: (name, float) for name in DOMAIN if name not in ("coverage_x_m", "coverage_y_m", "snr_target_linear")}
VARIABLES["snr_target_db"] = ("snr_target_linear", db_to_linear)


# The kernel's schemes in the order of its ``_OUTPUTS`` table (a test holds the two equal),
# written out so that a spec or a CSV loads none of the kernel, numpy and the benchmarks.
SCHEMES = ("proposed", "benchmark1", "benchmark2")

CSV_HEADER = ("variable", "scheme", "mean_total_power_w", "mean_bs_power_w", "n_samples")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which values, and how to average.

    The values rise strictly, and each, converted to SI, lies in its field's ``DOMAIN`` row; ``ue_samples``
    and ``seed`` are integers of at least 1 and 0.  Each ``ValueError`` names what is at fault.
    """

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
        field, to_si = VARIABLES[self.variable]
        lo, hi = DOMAIN[field]
        for value in self.values:
            si_value = to_si(value)
            if not lo <= si_value <= hi:  # nan fails too
                raise ValueError(f"{out_of_domain(field, si_value, (lo, hi))} at {self.variable} = {value!r}")
        for name, least in (("ue_samples", 1), ("seed", 0)):
            value = getattr(self, name)
            # an int or a numpy integer; a bool has __index__ too, yet numpy takes it for no size or seed
            if not hasattr(value, "__index__") or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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
    """Evaluate every requested scheme over the sweep values, on one draw of users reused at each
    (:func:`.kernel.sweep_sums`)."""
    from .kernel import sweep_sums

    field, to_si = VARIABLES[spec.variable]
    # once: each value's config is these fields (DOMAIN's keys) with the swept one over them
    base = {name: getattr(config, name) for name in DOMAIN}
    configs = (SystemConfig(**{**base, field: to_si(value)}) for value in spec.values)
    n = spec.ue_samples
    records: list[SweepRecord] = []
    for value, sums in zip(spec.values, sweep_sums(spec.schemes, field, configs, n, spec.seed)):
        mean_total = {scheme: sums[2 * i] / n for i, scheme in enumerate(spec.schemes)}
        mean_bs = {scheme: sums[2 * i + 1] / n for i, scheme in enumerate(spec.schemes)}
        records.append(SweepRecord(float(value), mean_total, mean_bs, n))
    return records


def _write_file(path: Path, data: bytes, what: str) -> None:
    """Make ``data`` the whole content of the file at ``path``, creating it if need be.

    The file is rewritten in place: it is opened without ``O_TRUNC`` and cut to
    0 only when it is longer than ``data``, so a sweep that rewrites a CSV of
    the same length frees no blocks only to allocate them again, which is slow
    where the file system discards freed blocks.  A completed write leaves the
    bytes a truncating one leaves: a longer file is emptied first, and ``data``
    covers all of an equal or shorter one.  A FIFO or a character device
    reports size 0, so it is never truncated.  A write that fails part way
    empties the file before the error propagates: no file mixes two writes.
    An error is an ``OSError`` that names ``what`` the file holds and ``path``.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, 0)
            view = memoryview(data)
            while view:  # os.write may take only part of the bytes, as into a pipe when a signal arrives
                view = view[os.write(fd, view) :]
        except OSError:
            with contextlib.suppress(OSError):  # a FIFO cannot be truncated: the first error stands
                os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def export_csv(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write sweep records as UTF-8, LF-terminated CSV at full double precision, in one write.

    One row per (sweep value, scheme); floats are rendered with 17 significant
    digits so parsing the file reproduces them bit for bit.  An existing file
    is rewritten in place, not truncated first, and truncated only when it is
    longer than the new CSV, or when the write fails: the bytes left are those
    of a fresh write, or none.
    """
    path = Path(path)
    rows = [",".join(CSV_HEADER) + "\n"]
    for record in records:
        value, mean_bs, n_samples = f"{record.variable_value:.17g}", record.mean_bs_power_w, record.n_samples
        rows += [
            f"{value},{scheme},{mean_total:.17g},{mean_bs[scheme]:.17g},{n_samples}\n"
            for scheme, mean_total in record.mean_total_power_w.items()
        ]
    _write_file(path, "".join(rows).encode("utf-8"), "sweep CSV")


def read_csv(path: str | Path) -> list[SweepRecord]:
    """Parse a file written by :func:`export_csv` back into records.

    A malformed row raises ``ValueError`` naming the file and its line, and so does a row that
    :func:`export_csv` never writes: a value not above the previous one, a scheme repeated within
    a value, or an ``n_samples`` that differs from its value's first row.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:  # a leading byte-order mark is no part of the header
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(CSV_HEADER):
                raise ValueError(f"unexpected CSV header in {path}: {header!r}")
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError that names no file
        raise ValueError(f"cannot read sweep CSV from {path}: {exc}") from exc
    records: list[SweepRecord] = []
    for line, row in rows:
        try:
            value, scheme, mean_total, mean_bs, n_samples = row
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
            value_f, total_f, bs_f, n = float(value), float(mean_total), float(mean_bs), int(n_samples)
            starts_record = not records or value_f > records[-1].variable_value
            if not starts_record:
                if value_f != records[-1].variable_value:
                    raise ValueError(f"value {value_f!r} is not above the previous one, {records[-1].variable_value!r}")
                if scheme in records[-1].mean_total_power_w:
                    raise ValueError(f"scheme {scheme!r} repeats within its value")
                if n != records[-1].n_samples:
                    raise ValueError(f"n_samples {n} differs from its value's first row's {records[-1].n_samples}")
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: malformed sweep CSV row {row!r}: {exc}") from None
        if starts_record:
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
    """Emit a companion gnuplot script plotting mean total power per scheme.

    The CSV's file name is a single-quoted gnuplot string, which has no
    escapes, so a ``"`` or ``\\`` in it is literal and a ``'`` is written twice.
    Such a string cannot hold a line break: a name with one raises ``ValueError``.
    """
    csv_path = Path(csv_path)
    if any(c in csv_path.name for c in "\r\n"):
        raise ValueError(f"a gnuplot string cannot hold the line break in the CSV name {csv_path.name!r}")
    data_file = "'" + csv_path.name.replace("'", "''") + "'"
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
        f'  {data_file} skip 1 using 1:(stringcolumn(2) eq "{s}" ? column(3) : NaN) '
        f'with linespoints title "{s}"'
        for s in schemes
    ]
    lines.append(", \\\n".join(plots))
    _write_file(Path(script_path), ("\n".join(lines) + "\n").encode("utf-8"), "gnuplot script")
