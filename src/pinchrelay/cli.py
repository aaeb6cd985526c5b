"""Command-line interface: single-point solve, sweeps, oracle verification.

Exit codes: 0 success, 1 verification/runtime failure, 2 usage error.
Scenario flags accept human-friendly units (``--freq 28GHz``, ``--gamma0
20dB``); everything is converted to SI at this boundary and stays linear
inside the package.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Sequence

from .model import DOMAIN, SystemConfig, UePosition, db_to_linear
from .optimize import solve
from .sweep import SCHEMES, VARIABLES, SweepSpec, export_csv, run_sweep, write_gnuplot_script


class UsageError(ValueError):
    """Bad flag combination or unparsable input; maps to exit code 2."""


_QUANTITY_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([a-zA-Z]*)\s*$")


def _split_quantity(text: str) -> tuple[float, str]:
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise ValueError(f"cannot parse quantity {text!r}")
    return float(match.group(1)), match.group(2).lower()


def _unit_parser(units: dict[str, float], expected: str) -> Callable[[str], float]:
    """Parser for a number with an optional unit suffix from ``units``, scaled to SI."""

    def parse(text: str) -> float:
        value, unit = _split_quantity(text)
        if unit and unit not in units:
            raise ValueError(f"{text!r}: expected {expected}")
        return value * units.get(unit, 1.0)

    parse.__doc__ = f"Parse {expected}: a number, scaled by its unit suffix if it has one; another suffix is a ValueError."
    return parse


parse_frequency_hz = _unit_parser({"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}, "a frequency in Hz/kHz/MHz/GHz")
parse_length_m = _unit_parser({"m": 1.0, "cm": 1e-2, "mm": 1e-3, "km": 1e3}, "a length in m/cm/mm/km")
parse_power_w = _unit_parser({"w": 1.0, "mw": 1e-3, "kw": 1e3}, "a power in W/mW/kW")
parse_db_value = _unit_parser({"db": 1.0, "dbi": 1.0}, "a plain dB value")
parse_plain = _unit_parser({}, "a unitless number")


def parse_ratio_or_db(text: str) -> float:
    """Linear ratio, or an explicit dB value converted at the boundary."""
    value, unit = _split_quantity(text)
    if unit == "db":
        return db_to_linear(value)
    if unit:
        raise ValueError(f"{text!r}: expected a linear ratio or a value with a dB suffix")
    return value


def parse_db_or_none(text: str) -> float | None:
    """A plain dB value, or ``none`` (any case): the terminal reuses the relay's noise figure."""
    return None if text.strip().lower() == "none" else parse_db_value(text)


# One entry per SystemConfig field: the config-file key, then its CLI flag,
# value parser, metavar and help text, "quantity [unit]": a sweep's plot label.
_SCENARIO_FIELDS: dict[str, tuple[str, Callable[[str], float | None], str, str]] = {
    "carrier_frequency_hz": ("--freq", parse_frequency_hz, "F", "carrier frequency [Hz]"),
    "bandwidth_hz": ("--bandwidth", parse_frequency_hz, "B", "bandwidth [Hz]"),
    "noise_figure_db": ("--noise-figure", parse_db_value, "NF", "receiver noise figure [dB]"),
    "ue_noise_figure_db": ("--ue-noise-figure", parse_db_or_none, "NF|none", "terminal noise figure [dB]"),
    "waveguide_attenuation_per_m": ("--alpha-d", parse_plain, "A", "waveguide attenuation [1/m]"),
    "horn_gain_tx_dbi": ("--horn-tx-gain", parse_db_value, "G", "BS horn gain [dBi]"),
    "horn_gain_rx_dbi": ("--horn-rx-gain", parse_db_value, "G", "relay horn gain [dBi]"),
    "pa_efficiency": ("--eta-pa", parse_plain, "E", "power-amplifier efficiency [ratio]"),
    "relay_circuit_power_w": ("--amp-circ-power", parse_power_w, "P", "relay circuit power [W]"),
    "bs_rf_chain_power_w": ("--bs-rf-power", parse_power_w, "P", "BS RF-chain power [W]"),
    "waveguide_length_m": ("--length", parse_length_m, "L", "waveguide length [m]"),
    "waveguide_height_m": ("--height", parse_length_m, "D", "waveguide height [m]"),
    "bs_relay_distance_m": ("--d1", parse_length_m, "D1", "BS-relay distance [m]"),
    "snr_target_linear": ("--gamma0", parse_ratio_or_db, "G0", "SNR target [ratio, or dB with a dB suffix]"),
    "coverage_x_m": ("--coverage-x", parse_length_m, "X", "coverage rectangle x extent [m]"),
    "coverage_y_m": ("--coverage-y", parse_length_m, "Y", "coverage rectangle y extent [m]"),
}


def load_config_file(path: str | Path) -> dict[str, float | None]:
    """Parse a flat ``key = value`` scenario file (``#`` starts a comment)."""
    values: dict[str, float | None] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is no part of the first key
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _SCENARIO_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            values[key] = _SCENARIO_FIELDS[key][1](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> SystemConfig:
    values = load_config_file(args.config) if args.config else {}
    # the flags given win over the file
    values.update((name, value) for name, value in vars(args).items() if name in _SCENARIO_FIELDS)
    try:
        return SystemConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid scenario configuration: {exc}") from exc


def _argtype(parser_fn: Callable[[str], object]) -> Callable[[str], object]:
    def typed(text: str) -> object:
        try:
            return parser_fn(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def _parse_ue(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{text!r}: expected UE coordinates as 'x,y'")
    return float(parts[0]), float(parts[1])


# A range spec may expand to at most this many sweep values; the count is
# checked before any value is built.
MAX_RANGE_VALUES = 10_000
# The most users a sweep draws; a larger request is a usage error, not an allocation.
# tests/test_package.py::TestMemoryPeaks bounds the memory peak of sweeps at this cap.
MAX_SAMPLES = 10**6

_VALUES_RE = re.compile(r"^\s*(.*?(?:[\d.]|nan|inf(?:inity)?))\s*([a-z]*)\s*$", re.IGNORECASE)


def parse_values_spec(text: str) -> tuple[tuple[float, ...], str]:
    """Sweep values: ``start:step:stop[unit]`` or ``v1,v2,...[unit]``.

    The unit is the run of letters after the last number, so ``nan`` and
    ``inf`` read as values and reach the sweep's range check; it goes once, after
    the last value.  A range needs a finite start, step and stop and at most
    ``MAX_RANGE_VALUES`` values, ``start + i step`` for ``i = 0, 1, ...``: a last
    value that rounds past ``stop`` is ``stop``, and a step too small to
    separate two values at their magnitude is an error.
    """
    match = _VALUES_RE.match(text)
    body, unit = (match.group(1), match.group(2).lower()) if match else (text, "")
    separator = ":" if ":" in body else ","
    parts = body.split(separator)
    try:
        values = tuple(float(p) for p in parts)
        if separator == ":":
            if len(values) != 3:
                raise ValueError("range spec must be start:step:stop")
            start, step, stop = values
            if not all(math.isfinite(v) for v in values):
                raise ValueError("range spec needs a finite start, step and stop")
            if step <= 0.0 or stop < start:
                raise ValueError("range spec needs step > 0 and stop >= start")
            span = (stop - start) / step + 1e-9  # inf when the quotient overflows
            if not span < MAX_RANGE_VALUES:
                raise ValueError(f"range spec needs (stop - start) / step below {MAX_RANGE_VALUES}")
            values = tuple([min(start + i * step, stop) for i in range(int(math.floor(span)) + 1)])
            if len(set(values)) < len(values):  # the values never decrease, so only a tie can break the order
                raise ValueError("range spec needs a step that separates its values at their magnitude")
    except ValueError as exc:
        heads = [_VALUES_RE.match(p) for p in parts]
        # a valid number ends in a digit, '.', nan or inf: letters after a value before the last are a unit
        if all(heads) and any(head[2] for head in heads):
            fixed = separator.join(head[1].strip() for head in heads) + next(h[2] for h in reversed(heads) if h[2])
            exc = f"a unit goes once, after the last value ({fixed!r})"
        raise ValueError(f"cannot parse sweep values {text!r}: {exc}") from None
    return values, unit


# --var's choices, each a sweep variable or its field's flag without the dashes, with that variable and field
_VAR_CHOICES = {k: (name, field) for name, (field, _) in VARIABLES.items() for k in (name, _SCENARIO_FIELDS[field][0][2:])}


class _Parser(argparse.ArgumentParser):
    """A parser that reads a token starting with '-' and a digit, or '-.' and a digit, as a value.

    argparse reads such a token as a value only if it is a bare negative number, so
    ``--gamma0 -10dB`` or ``--values -10:2:30dB`` would name an unknown flag; no flag here
    starts with a digit.  A subcommand's parser is of the same class (argparse's ``parser_class``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the attribute argparse matches a token against (3.10-3.13) to tell a negative number from a flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _scenario_parser() -> argparse.ArgumentParser:
    # a scenario flag's default is SUPPRESS: it is in args only when it is given
    parser = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    group = parser.add_argument_group("scenario")
    group.add_argument("--config", default=None, metavar="FILE", help="flat 'key = value' scenario file; flags override it")
    for name, (flag, parse, metavar, help_text) in _SCENARIO_FIELDS.items():
        group.add_argument(flag, dest=name, type=_argtype(parse), metavar=metavar, help=help_text)
    return parser


# Built at the first call and reused: parse_args returns a fresh Namespace each time,
# and the commands it dispatches to look their helpers up when they run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pinchrelay",
        description="Power-minimizing design of a relay-fed pinching-antenna downlink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = _scenario_parser()

    p_solve = sub.add_parser("solve", parents=[scenario], help="solve one scenario for a single user position")
    p_solve.add_argument("--ue", type=_argtype(_parse_ue), metavar="X,Y", help="user position [m]; default: coverage center")
    p_solve.add_argument("--json", action="store_true", help="emit the solution as JSON instead of a table")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[scenario], help="sweep one scenario field, averaging over random user positions")
    var_help = "a scenario flag but --coverage-x/y, without its dashes (alpha-d, gamma0, ...), or a sweep variable"
    p_sweep.add_argument("--var", required=True, choices=sorted(_VAR_CHOICES), metavar="NAME", help=var_help)
    p_sweep.add_argument("--values", required=True, metavar="SPEC", help="'start:step:stop[unit]' or 'v1,v2,...'")
    p_sweep.add_argument("--samples", type=int, default=1000, metavar="N", help="user positions per sweep value")
    p_sweep.add_argument("--seed", type=int, default=0, help="random seed for user placement and shadowing")
    p_sweep.add_argument("--schemes", default=",".join(SCHEMES), metavar="LIST", help=f"comma list from {SCHEMES}")
    p_sweep.add_argument("--out", default="sweep.csv", metavar="FILE", help="output CSV path")
    p_sweep.add_argument("--gnuplot", action="store_true", help="also write a companion gnuplot script next to the CSV")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[scenario], help="check the closed forms against brute-force oracles")
    p_verify.add_argument("--trials", type=int, default=20, metavar="N", help="number of randomized scenarios")
    p_verify.add_argument("--seed", type=int, default=0, help="random seed for scenario draws")
    p_verify.set_defaults(func=_cmd_verify)

    p_dump = sub.add_parser("config-dump", parents=[scenario], help="print the effective scenario parameters")
    p_dump.set_defaults(func=_cmd_config_dump)

    return parser


def _cmd_solve(args: argparse.Namespace, config: SystemConfig) -> int:
    if args.ue is None:
        ue = UePosition(config.coverage_x_m / 2.0, config.coverage_y_m / 2.0)
    else:
        try:
            ue = UePosition.in_coverage(config, *args.ue)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    solution = solve(config, ue)
    if args.json:
        print(json.dumps(solution._asdict(), indent=2))
        return 0
    rows = list(zip(solution._fields, solution))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.10g}")
    return 0


def _cmd_sweep(args: argparse.Namespace, config: SystemConfig) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    # a directory, or a file in a missing directory, fails only at the write, after the whole sweep; Path('') is '.'
    if Path(args.out).is_dir():
        raise UsageError(f"--out must name a file, got {args.out!r}")
    if not Path(args.out).parent.is_dir():
        raise UsageError(f"--out must name a file in an existing directory, got {args.out!r}")
    if args.gnuplot and any(c in Path(args.out).name for c in "\r\n"):
        raise UsageError(f"--gnuplot cannot quote a line break in the CSV name {Path(args.out).name!r}")
    if args.gnuplot and Path(args.out).suffix == ".gp":  # the script's name is the CSV's with .gp
        raise UsageError(f"--gnuplot would write its script over the CSV {args.out!r}: give --out another suffix")
    variable, field = _VAR_CHOICES[args.var]
    flag, parse, _, label = _SCENARIO_FIELDS[field]
    # as in verify, a config-file value for the swept field is ignored, so a config-dump file still loads
    if field in vars(args):
        raise UsageError(f"sweep sets {field} at every value, so {flag} cannot set it")
    try:
        values, unit = parse_values_spec(args.values)
        probe = "1" + unit  # the flag's own unit; "1", not a value, so that nan and inf reach SweepSpec
        try:
            scale = parse(probe)
        except ValueError as exc:  # the parser's message names the probe: name the spec as typed and the flag
            expected = str(exc).removeprefix(f"{probe!r}: ")
            raise UsageError(f"--values {args.values!r}: {flag} takes no unit {unit!r}: {expected}") from None
        if variable != field:  # snr_target_db, in dB as fig1 has it: its flag's parser checks only the unit
            scale, label = 1.0, "SNR target [dB]"
        spec = SweepSpec(
            variable=variable,
            values=tuple(value * scale for value in values),
            ue_samples=args.samples,
            seed=args.seed,
            schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    records = run_sweep(config, spec)
    export_csv(records, args.out)
    if args.gnuplot:
        write_gnuplot_script(args.out, Path(args.out).with_suffix(".gp"), label, spec.schemes)
    print(f"wrote {len(records)} sweep values x {len(spec.schemes)} schemes to {args.out}")
    return 0


@functools.cache
def _oracle():
    from . import oracle

    return oracle


def verify_scenario(config: SystemConfig, ue: UePosition):
    """The oracle's :func:`~.oracle.verify_scenario`; the first call imports the oracle: only ``verify`` loads it."""
    return _oracle().verify_scenario(config, ue)


# verify draws these fields afresh in every trial, in this order: their flags are
# usage errors, and their config-file values are ignored, so a config-dump file still loads
_VERIFY_DRAWN_FIELDS: dict[str, Callable[[random.Random], float]] = {
    "waveguide_attenuation_per_m": lambda rng: 10.0 ** rng.uniform(-4.0, -1.3),
    "bs_relay_distance_m": lambda rng: rng.uniform(30.0, 100.0),
    "snr_target_linear": lambda rng: 10.0 ** rng.uniform(0.5, 3.0),
    "pa_efficiency": lambda rng: rng.uniform(0.7, 1.0),
}


def _cmd_verify(args: argparse.Namespace, config: SystemConfig) -> int:
    for name in _VERIFY_DRAWN_FIELDS:
        if name in vars(args):
            raise UsageError(f"verify draws {name} at random in every trial, so {_SCENARIO_FIELDS[name][0]} cannot set it")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    rng = random.Random(args.seed)
    # one dict of the fields (DOMAIN's keys) for all trials: each trial draws over its drawn fields
    kwargs = {name: getattr(config, name) for name in DOMAIN}
    failures = 0
    for k in range(args.trials):
        for name, draw in _VERIFY_DRAWN_FIELDS.items():
            kwargs[name] = draw(rng)
        cfg = SystemConfig(**kwargs)
        ue = UePosition(rng.uniform(0.0, cfg.coverage_x_m), rng.uniform(0.0, cfg.coverage_y_m))
        position, power = verify_scenario(cfg, ue)
        ok = position.passed and power.passed
        failures += 0 if ok else 1
        print(
            f"trial {k:3d}: position rel gap {position.rel_gap:.3e} | "
            f"power rel gap {power.rel_gap:.3e} | {'ok' if ok else 'FAIL'}"
        )
    print(f"verify: {args.trials - failures}/{args.trials} scenarios passed")
    return 1 if failures else 0


def _cmd_config_dump(args: argparse.Namespace, config: SystemConfig) -> int:
    for field in fields(SystemConfig):
        value = getattr(config, field.name)
        print(f"{field.name} = {'none' if value is None else repr(value)}")
    return 0


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Run the command in ``argv`` (default ``sys.argv[1:]``) and return its exit code: 0, 1 for a failed
    verification or a runtime error, 2 for a usage error.  Past argparse's own usage messages, an error
    is one ``error:`` line on stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage / help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args, _build_config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The ``pinchrelay`` entry point: exit with :func:`cli_main`'s code."""
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
