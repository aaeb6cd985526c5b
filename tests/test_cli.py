"""CLI: units parsing, config files, subcommands, exit codes."""

import argparse
import codecs
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import fields, replace
from decimal import Decimal, InvalidOperation
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pinchrelay.cli
from conftest import PIN_MUTANTS
from pinchrelay import SCHEMES, PowerSolution, SystemConfig, UePosition, optimal_pin_position
from pinchrelay.cli import (
    _SCENARIO_FIELDS,
    _VAR_CHOICES,
    _VERIFY_DRAWN_FIELDS,
    MAX_RANGE_VALUES,
    MAX_SAMPLES,
    _build_parser,
    _scenario_parser,
    cli_main,
    load_config_file,
    parse_frequency_hz,
    parse_length_m,
    parse_ratio_or_db,
    parse_values_spec,
)
from pinchrelay.sweep import VARIABLES

# Two values for each flag that a sweep's --var can name but gamma0, as typed after it: the numbers and the unit
SWEPT_FLAG_VALUES = {
    "freq": (("3.5", "60"), "GHz"),
    "bandwidth": (("100", "800"), "MHz"),
    "noise-figure": (("5", "12"), "dB"),
    "ue-noise-figure": (("3", "7"), "dB"),
    "alpha-d": (("0.001", "0.1"), ""),
    "horn-tx-gain": (("10", "25"), "dBi"),
    "horn-rx-gain": (("10", "25"), "dBi"),
    "eta-pa": (("0.5", "0.8"), ""),
    "amp-circ-power": (("100", "300"), "mW"),
    "bs-rf-power": (("50", "150"), "mW"),
    "length": (("0.01", "0.04"), "km"),
    "height": (("150", "500"), "cm"),
    "d1": (("0.03", "0.08"), "km"),
}


@st.composite
def range_specs(draw):
    """A finite ``(start, step, stop)`` whose range has at most ``MAX_RANGE_VALUES`` values: decimal
    steps as written on a command line, or any floats, with the step cut from the span."""
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(min_value=0, max_value=3))
        first, step_units = draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**4))
        last = draw(st.integers(first, first + step_units * (MAX_RANGE_VALUES - 1)))
        return first / scale, step_units / scale, last / scale
    finite = st.floats(allow_nan=False, allow_infinity=False)
    start, stop = sorted((draw(finite), draw(finite)))
    pieces = draw(st.integers(1, MAX_RANGE_VALUES - 1)) + draw(st.floats(0.0, 1.0, exclude_max=True))
    step = (stop - start) / pieces if stop > start else draw(st.floats(5e-324, 1e308))
    assume(math.isfinite(step) and step > 0.0 and (stop - start) / step + 1e-9 < MAX_RANGE_VALUES)
    return start, step, stop


class TestQuantityParsing:
    def test_frequency_units(self):
        assert parse_frequency_hz("28GHz") == pytest.approx(28e9)
        assert parse_frequency_hz("400MHz") == pytest.approx(400e6)
        assert parse_frequency_hz("1e9") == pytest.approx(1e9)
        with pytest.raises(ValueError):
            parse_frequency_hz("28parsecs")

    def test_lengths_and_ratios(self):
        assert parse_length_m("50") == 50.0
        assert parse_length_m("50m") == 50.0
        assert parse_length_m("5cm") == pytest.approx(0.05)
        assert parse_ratio_or_db("100") == 100.0
        assert parse_ratio_or_db("20dB") == pytest.approx(100.0)
        with pytest.raises(ValueError):
            parse_ratio_or_db("20dBm")

    def test_values_spec_range(self):
        values, unit = parse_values_spec("10:2:30dB")
        assert unit == "db"
        assert len(values) == 11
        assert values[0] == 10.0 and values[-1] == 30.0

    def test_values_spec_list(self):
        values, unit = parse_values_spec("30,50,70")
        assert unit == ""
        assert values == (30.0, 50.0, 70.0)

    def test_values_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_values_spec("10:0:30")
        with pytest.raises(ValueError):
            parse_values_spec("10:2")

    # a non-finite start, step or stop; (stop - start) / step overflowing or over the cap; a step below the
    # spacing of floats at 1e16, where start + step rounds back to start
    @pytest.mark.parametrize(
        "spec", ["0:1e-320:1dB", "-inf:1:0", "0:inf:5", "nan:1:3", "0:1e-9:1", "0:1:1e4", "1e16:1:1.0000000000000004e16"]
    )
    def test_values_spec_rejects_unbounded_ranges(self, spec):
        with pytest.raises(ValueError, match=f"^cannot parse sweep values {re.escape(repr(spec))}: range spec needs"):
            parse_values_spec(spec)

    def test_values_spec_range_may_reach_the_cap(self):
        values, _ = parse_values_spec(f"1:1:{MAX_RANGE_VALUES}")
        assert len(values) == MAX_RANGE_VALUES and values[-1] == MAX_RANGE_VALUES

    @given(range_specs())
    @example((20.6, 0.2, 60.0))  # start + 197 step rounds to 60.00000000000001
    @settings(max_examples=300, deadline=None)
    def test_values_spec_range_starts_at_start_rises_and_never_passes_stop(self, spec):
        start, step, stop = spec
        try:
            values, _ = parse_values_spec(f"{start!r}:{step!r}:{stop!r}")
        except ValueError as exc:
            # refused only where the step is a few float spacings at the range's magnitude
            assert "needs a step that separates its values" in str(exc)
            assert step <= 8.0 * math.ulp(max(abs(start), abs(stop)))
            return
        assert values[0] == start
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] <= stop
        assert len(values) == math.floor((stop - start) / step + 1e-9) + 1

    @pytest.mark.parametrize(
        "spec, fixed", [("20dB,21dB", "20,21dB"), ("20dB,21", "20,21dB"), ("10dB:2:30dB", "10:2:30dB")]
    )
    def test_a_unit_before_the_last_value_names_where_it_goes(self, spec, fixed):
        message = f"cannot parse sweep values {spec!r}: a unit goes once, after the last value ({fixed!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_values_spec(spec)


class TestSolveCommand:
    def test_prints_the_optimal_position(self, capsys):
        assert cli_main(["solve", "--ue", "15,5"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("x_pin_m"))
        assert abs(float(line.split()[-1]) - 14.83) <= 0.01

    def test_json_output(self, capsys):
        assert cli_main(["solve", "--ue", "15,5", "--json"]) == 0
        solution = json.loads(capsys.readouterr().out)
        assert abs(solution["x_pin_m"] - 14.83) <= 0.01
        assert solution["total_power_w"] > 0.3

    def test_defaults_to_coverage_center(self, capsys):
        assert cli_main(["solve", "--json"]) == 0
        solution = json.loads(capsys.readouterr().out)
        assert solution["total_power_w"] > 0.0

    def test_the_solution_is_an_immutable_record_whose_fields_are_the_printed_names(self, capsys):
        solution = pinchrelay.solve(SystemConfig(), pinchrelay.UePosition(15.0, 5.0))
        with pytest.raises(AttributeError):
            solution.p1_w = 0.0
        assert cli_main(["solve", "--ue", "15,5", "--json"]) == 0
        assert tuple(json.loads(capsys.readouterr().out)) == PowerSolution._fields
        assert cli_main(["solve", "--ue", "15,5"]) == 0
        assert tuple(line.split()[0] for line in capsys.readouterr().out.splitlines()) == PowerSolution._fields

    def test_rejects_user_outside_coverage(self, capsys):
        assert cli_main(["solve", "--ue", "40,5"]) == 2

    @pytest.mark.parametrize("ue", ["nan,5", "5,inf"])
    def test_non_finite_user_is_a_usage_error(self, capsys, ue):
        assert cli_main(["solve", "--ue", ue]) == 2
        assert re.fullmatch(r"error: [xy]_ue_m must lie in \[0, (30|10)\], got (nan|inf) \(the coverage rectangle\)\n",
                            capsys.readouterr().err)

    # a dB value past the float range reads as inf, which the field's domain rejects by name
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gamma0", "4000dB"], "snr_target_linear must lie in [0.001, 1e+06], got inf"),
            (["--horn-tx-gain", "4000"], "horn_gain_tx_dbi must lie in [-10, 60], got 4000.0"),
            (["--noise-figure", "4000"], "noise_figure_db must lie in [0, 40], got 4000.0"),
            (["--ue-noise-figure", "-3000"], "ue_noise_figure_db must lie in [0, 40], got -3000.0"),
            (["--gamma0", "1e308"], "snr_target_linear must lie in [0.001, 1e+06], got 1e+308"),
            (["--eta-pa", "5e-324"], "pa_efficiency must lie in [0.001, 1], got 5e-324"),
            (["--height", "1e-200"], "waveguide_height_m must lie in [0.01, 1000], got 1e-200"),
            # two or more faults at once: the first field in SystemConfig's order is named
            (["--horn-tx-gain", "4000", "--horn-rx-gain", "-4000"], "horn_gain_tx_dbi must lie in [-10, 60], got 4000.0"),
            (["--horn-tx-gain", "4000", "--ue-noise-figure", "4000"], "ue_noise_figure_db must lie in [0, 40], got 4000.0"),
            (["--height", "1e200", "--noise-figure", "4000"], "noise_figure_db must lie in [0, 40], got 4000.0"),
            (["--eta-pa", "5e-324", "--amp-circ-power", "1.7e308"], "pa_efficiency must lie in [0.001, 1], got 5e-324"),
            (
                [
                    *("--horn-tx-gain", "-30", "--horn-rx-gain", "3000"),
                    *("--noise-figure", "3000", "--ue-noise-figure", "3000"),
                ],
                "noise_figure_db must lie in [0, 40], got 3000.0",
            ),
        ],
    )
    def test_values_outside_the_domain_are_one_usage_error_line(self, capsys, argv, message):
        assert cli_main(["solve", "--ue", "15,5", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: invalid scenario configuration: {message}\n"

    @pytest.mark.parametrize("argv", [["--amp-circ-power", "1000"], ["--ue", "15,5"]])
    def test_every_table_value_reads_back_finite(self, capsys, argv):
        assert cli_main(["solve", *argv]) == 0
        assert cli_main(["solve", *argv, "--json"]) == 0
        table, exact = capsys.readouterr().out.split("{", 1)
        solution = json.loads("{" + exact)
        for line in table.splitlines():
            name, text = line.split()
            value = float(text)
            assert math.isfinite(value) and value == pytest.approx(solution[name], rel=5e-10)

    def test_scenario_flags_change_the_answer(self, capsys):
        assert cli_main(["solve", "--ue", "15,5", "--gamma0", "30dB", "--json"]) == 0
        strict = json.loads(capsys.readouterr().out)
        assert cli_main(["solve", "--ue", "15,5", "--gamma0", "10dB", "--json"]) == 0
        relaxed = json.loads(capsys.readouterr().out)
        assert strict["total_power_w"] > relaxed["total_power_w"]


# sha256 of the solve table and of solve --json, recorded when solve built a ChannelGains and a
# StationaryAnalysis on every call: any change to a solution's last bit, or to either format, shows here.
# The JSON of the three cases at the default attenuation was re-recorded when the pinch root took its
# cancellation-free form, whose x_pin_m 14.829855253826748 is the correctly rounded one.
GOLDEN_SOLVES = {
    "defaults": (
        [],
        "158422fb0098aa67822903900c900889eeb99d4161da6ecf192e55cdee353f84",
        "9b5d371498c6bcace308f6529bb0ccadf34fc5f490dbd5215d35740eebc368f0",
    ),
    "ue-15-5": (
        ["--ue", "15,5"],
        "158422fb0098aa67822903900c900889eeb99d4161da6ecf192e55cdee353f84",
        "9b5d371498c6bcace308f6529bb0ccadf34fc5f490dbd5215d35740eebc368f0",
    ),
    # past the end of a 5 m waveguide the clamped interior maximum radiates less than the feed
    "feed-wins": (
        ["--alpha-d", "0.1", "--length", "5", "--ue", "30,0"],
        "72a75cdb681414203a349fe37ba3338c3d7ce7468618395541c4492e93e045bf",
        "866c47f070e5075cf4b8fdf211a4904b44d3b042170564051e5329bdb86ced11",
    ),
    # alpha^2 C = 0.25 * 34 > 1: the placement quadratic has no real root
    "no-root": (
        ["--alpha-d", "0.5", "--ue", "15,5"],
        "d291f6876bd91674ae1046e756dfaad7af5f92332573aaf3a11eaf684afe7a2b",
        "0e70dcddbb5f67e5f416e1132684f378a12f15b05fb416f1ef1cc091d4d50e11",
    ),
    "no-attenuation": (
        ["--alpha-d", "0", "--ue", "15,5"],
        "1c43b05fdc7c0d8c9e628a24644f6834fd7cce9c07fc82f87dee11daf360862e",
        "cc0ac79400ebe8b0863d6014c8c548224c49653c0c29c8154c60f829496bb3c4",
    ),
    "ue-noise-figure": (
        ["--ue-noise-figure", "7", "--ue", "15,5"],
        "2be23818129494ace63051f7bd0d4a39274dc53d139e88bf20d9ce6bf64d0909",
        "e269fdd4935a35ef5976592c3e453872998fbffc8a96d4102489bb6f778a5c73",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVES))
def test_solve_bytes_are_the_recorded_ones(capsys, case):
    argv, table_sha256, json_sha256 = GOLDEN_SOLVES[case]
    for extra, sha256 in (([], table_sha256), (["--json"], json_sha256)):
        assert cli_main(["solve", *argv, *extra]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


class TestConfigHandling:
    def test_file_then_flag_precedence(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(
            "# sample scenario\n"
            "bs_relay_distance_m = 60\n"
            "snr_target_linear = 20dB  # converted at the boundary\n",
            encoding="utf-8",
        )
        assert cli_main(["config-dump", "--config", str(config)]) == 0
        dumped = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines()
        )
        assert dumped["bs_relay_distance_m"] == "60.0"
        assert dumped["snr_target_linear"] == "100.0"

        assert cli_main(["config-dump", "--config", str(config), "--d1", "70"]) == 0
        dumped = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert dumped["bs_relay_distance_m"] == "70.0"

    def test_ue_noise_figure_none_flag_is_the_default_and_overrides_a_file(self, tmp_path, capsys):
        config = tmp_path / "terminal.cfg"
        config.write_text("ue_noise_figure_db = 3\n", encoding="utf-8")
        file = ["--config", str(config)]
        outputs = []
        for extra in ([], ["--ue-noise-figure", "none"], file, [*file, "--ue-noise-figure", "None"]):
            assert cli_main(["solve", "--ue", "15,5", "--json", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        default, flag, from_file, overridden = outputs
        assert flag == overridden == default != from_file
        for none in ("none", " none "):
            assert cli_main(["config-dump", "--config", str(config), "--ue-noise-figure", none]) == 0
            assert "ue_noise_figure_db = none" in capsys.readouterr().out.splitlines()

    def test_a_leading_byte_order_mark_is_read_past(self, tmp_path, capsys):
        config = tmp_path / "marked.cfg"
        config.write_bytes(codecs.BOM_UTF8 + b"ue_noise_figure_db = 3\n")
        assert cli_main(["config-dump", "--config", str(config)]) == 0
        assert "ue_noise_figure_db = 3.0" in capsys.readouterr().out.splitlines()

    def test_dump_round_trips_through_the_loader(self, tmp_path, capsys):
        assert cli_main(["config-dump", "--freq", "26GHz", "--eta-pa", "0.8"]) == 0
        text = capsys.readouterr().out
        dumped = tmp_path / "dump.cfg"
        dumped.write_text(text, encoding="utf-8")
        values = load_config_file(dumped)
        assert values["carrier_frequency_hz"] == 26e9
        assert values["pa_efficiency"] == 0.8
        assert values["ue_noise_figure_db"] is None

    def test_every_field_has_one_flag_and_one_key(self, tmp_path, capsys):
        names = [f.name for f in fields(SystemConfig)]
        parser = _scenario_parser()
        actions = [a for a in parser._actions if a.dest not in ("help", "config")]
        assert sorted(a.dest for a in actions) == sorted(names)
        assert all(len(a.option_strings) == 1 for a in actions)
        flags = {a.dest: a.option_strings[0] for a in actions}

        # every field off its default; ue_noise_figure_db defaults to None
        halved = {name: 0.5 * (getattr(SystemConfig(), name) or 14.0) for name in names}
        argv = ["config-dump"]
        for name, value in halved.items():
            argv += [flags[name], repr(value)]
        assert cli_main(argv) == 0
        text = capsys.readouterr().out
        assert text.splitlines() == [f"{name} = {value!r}" for name, value in halved.items()]
        dumped = tmp_path / "dump.cfg"
        dumped.write_text(text, encoding="utf-8")
        assert load_config_file(dumped) == halved
        assert cli_main(["config-dump", "--config", str(dumped)]) == 0
        assert capsys.readouterr().out == text

    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_factor = 9\n", encoding="utf-8")
        assert cli_main(["config-dump", "--config", str(config)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    # a missing file, and one that is not UTF-8 text
    @pytest.mark.parametrize(
        "content", [None, b"bandwidth_hz = 400MHz\ncarrier_frequency_hz = 28\xffGHz\n"], ids=["missing", "not_utf8"]
    )
    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.cfg"
        if content is not None:
            path.write_bytes(content)
        assert cli_main(["config-dump", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ") and err.count("\n") == 1

    def test_a_repeated_key_is_a_usage_error_naming_both_lines(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("bandwidth_hz = 400MHz\n# comment\nbandwidth_hz = 100MHz\n", encoding="utf-8")
        assert cli_main(["config-dump", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}:3: key 'bandwidth_hz' repeats line 1\n"

    @pytest.mark.parametrize(
        "line, detail",
        [
            ("carrier_frequency_hz 28e9", "expected 'key = value', got 'carrier_frequency_hz 28e9'"),
            ("carrier_frequency_hz = fast", "cannot parse quantity 'fast'"),
        ],
    )
    def test_malformed_line_is_a_usage_error_naming_file_and_line(self, tmp_path, capsys, line, detail):
        config = tmp_path / "bad.cfg"
        config.write_text(f"# scenario\n{line}\n", encoding="utf-8")
        assert cli_main(["config-dump", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}:2: {detail}\n"

    def test_invalid_field_value_is_a_usage_error(self, capsys):
        assert cli_main(["config-dump", "--eta-pa", "1.5"]) == 2
        assert "pa_efficiency" in capsys.readouterr().err


class TestSweepCommand:
    def test_gamma0_sweep_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        argv = [
            "sweep", "--var", "gamma0", "--values", "10:2:30dB",
            "--samples", "5", "--seed", "1", "--out", str(out),
        ]
        assert cli_main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "variable,scheme,mean_total_power_w,mean_bs_power_w,n_samples"
        assert len(lines) == 1 + 11 * 3

    def test_a_range_ending_at_the_snr_domain_bound_sweeps_up_to_it(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        argv = ["sweep", "--var", "gamma0", "--values", "20.6:0.2:60dB", "--samples", "1", "--out", str(out)]
        assert cli_main(argv) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1].split(",")[0] == "60"

    def test_a_unit_on_every_listed_value_is_one_usage_error_line(self, tmp_path, capsys):
        argv = ["sweep", "--var", "gamma0", "--values", "20dB,21dB", "--samples", "1", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: cannot parse sweep values '20dB,21dB': a unit goes once, after the last value ('20,21dB')\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_repeat_runs_are_bitwise_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--var", "d1", "--values", "30,60", "--samples", "4", "--seed", "5"]
        assert cli_main(base + ["--out", str(first)]) == 0
        assert cli_main(base + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_out_to_the_null_device(self, capsys):
        argv = ["sweep", "--var", "gamma0", "--values", "10:2:30dB", "--samples", "5", "--out", os.devnull]
        assert cli_main(argv) == 0
        assert capsys.readouterr().err == ""

    # a usage error before the sweep, not a failed write after it: at MAX_SAMPLES that is a whole 10^6-user sweep
    def test_out_that_is_a_directory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pinchrelay.cli, "run_sweep", lambda config, spec: pytest.fail("the sweep ran"))
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "2", "--out", str(tmp_path)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: --out must name a file, got {str(tmp_path)!r}\n"

    @pytest.mark.parametrize("parent", ["no_such_dir", "a_file"])
    def test_out_in_no_directory_is_a_usage_error_before_the_sweep(self, tmp_path, capsys, monkeypatch, parent):
        monkeypatch.setattr(pinchrelay.cli, "run_sweep", lambda config, spec: pytest.fail("the sweep ran"))
        (tmp_path / "a_file").write_text("", encoding="utf-8")
        out = str(tmp_path / parent / "x.csv")
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "2", "--out", out]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: --out must name a file in an existing directory, got {out!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file"]

    def test_an_empty_out_is_a_usage_error_before_the_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(pinchrelay.cli, "run_sweep", lambda config, spec: pytest.fail("the sweep ran"))
        assert cli_main(["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "2", "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out must name a file, got ''\n"

    def test_scheme_subset_and_gnuplot(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        argv = [
            "sweep", "--var", "gamma0", "--values", "10,20", "--samples", "3",
            "--schemes", "proposed,benchmark2", "--out", str(out), "--gnuplot",
        ]
        assert cli_main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "mini.gp").exists()

    def test_unit_variable_mismatch(self, tmp_path, capsys):
        # one usage error that names --values, the spec as typed and the flag, with the flag parser's text
        cases = {
            ("d1", "10:2:30dB"): "--d1 takes no unit 'db': expected a length in m/cm/mm/km",
            ("freq", "1,2km"): "--freq takes no unit 'km': expected a frequency in Hz/kHz/MHz/GHz",
            ("gamma0", "10,20W"): "--gamma0 takes no unit 'w': expected values in dB, with an optional dB suffix",
            ("snr_target_db", "10,20W"): "--gamma0 takes no unit 'w': expected values in dB, with an optional dB suffix",
            ("d1", "30,40GHz"): "--d1 takes no unit 'ghz': expected a length in m/cm/mm/km",
        }
        for (var, values), message in cases.items():
            argv = ["sweep", "--var", var, "--values", values, "--out", str(tmp_path / "x.csv")]
            assert cli_main(argv) == 2
            assert capsys.readouterr() == ("", f"error: --values {values!r}: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "var, values",
        [
            ("gamma0", "nan"),
            ("gamma0", "inf"),
            ("gamma0", "1e999dB"),
            ("gamma0", "4000dB"),
            ("gamma0", "-4000dB"),
            ("d1", "0"),
            ("d1", "-1"),
            ("d1", "1e999"),
        ],
    )
    def test_values_out_of_range_are_usage_errors(self, tmp_path, capsys, var, values):
        argv = ["sweep", "--var", var, f"--values={values}", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("var", ["gamma0", "d1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("form", ["joined", "separate"])
    def test_non_finite_values_are_named(self, tmp_path, capsys, var, value, form):
        values = [f"--values={value}"] if form == "joined" else ["--values", value]
        argv = ["sweep", "--var", var, *values, "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        field = {"gamma0": "snr_target_linear", "d1": "bs_relay_distance_m"}[var]
        assert re.fullmatch(rf"error: {field} must lie in \[.*\], got \S+ at \w+ = {value}\n", capsys.readouterr().err)

    def test_a_field_outside_its_domain_is_a_usage_error_before_the_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--var", "d1", "--values", "30", "--out", str(tmp_path / "x.csv")]
        assert cli_main([*argv, "--horn-tx-gain", "4000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid scenario configuration: horn_gain_tx_dbi must lie in [-10, 60], got 4000.0\n"
        assert not (tmp_path / "x.csv").exists()

    # 1e18 users, 6.9 EiB per array: rejected before anything is allocated
    def test_samples_too_many_to_allocate_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", str(10**18), "--schemes", "proposed"]
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --samples must be at most {MAX_SAMPLES}, got {10**18}\n"
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_too_few_samples_name_the_flag(self, tmp_path, capsys, samples):
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--var", "gamma0", "--values", "20dB", f"--samples={samples}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --samples must be >= 1, got {samples}\n"
        assert not out.exists()

    # the sweep sets its variable's field at every value, so a flag for that field would be silently dropped
    @pytest.mark.parametrize(
        "var, values, flag, name",
        [("d1", "30:10:50", "--d1", "bs_relay_distance_m"), ("gamma0", "10,20", "--gamma0", "snr_target_linear")],
    )
    def test_the_swept_field_s_flag_is_a_usage_error(self, tmp_path, capsys, var, values, flag, name):
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--var", var, "--values", values, flag, "20", "--samples", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep sets {name} at every value, so {flag} cannot set it\n"
        assert not out.exists()

    def test_a_config_dump_file_sets_all_but_the_swept_field(self, tmp_path, capsys):
        assert cli_main(["config-dump", "--gamma0", "1e5", "--d1", "70"]) == 0
        dumped = tmp_path / "dump.cfg"
        dumped.write_text(capsys.readouterr().out, encoding="utf-8")
        for var, values, other in (("d1", "30:10:50", ["--gamma0", "1e5"]), ("gamma0", "10,20", ["--d1", "70"])):
            argv = ["sweep", "--var", var, "--values", values, "--samples", "5"]
            from_file, from_flag = tmp_path / f"{var}-file.csv", tmp_path / f"{var}-flag.csv"
            assert cli_main([*argv, "--config", str(dumped), "--out", str(from_file)]) == 0
            assert cli_main([*argv, *other, "--out", str(from_flag)]) == 0
            assert from_file.read_bytes() == from_flag.read_bytes()

    def test_samples_at_the_cap_pass_the_check(self, tmp_path, capsys, monkeypatch):
        specs = []
        monkeypatch.setattr(pinchrelay.cli, "run_sweep", lambda config, spec: specs.append(spec) or [])
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", str(MAX_SAMPLES)]
        assert cli_main([*argv, "--out", str(tmp_path / "x.csv")]) == 0
        assert [spec.ue_samples for spec in specs] == [MAX_SAMPLES]

    def test_failed_allocation_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def run_sweep(config, spec):
            raise MemoryError("Unable to allocate 6.94 EiB for an array with shape (1000000000000000000,)")

        monkeypatch.setattr(pinchrelay.cli, "run_sweep", run_sweep)
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--var", "gamma0", "--values", "20dB", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 6.94 EiB for an array with shape (1000000000000000000,)\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0:1e-320:1dB", "-inf:1:0", "0:inf:5", "0:1e-9:1"])
    def test_unbounded_range_specs_are_usage_errors(self, tmp_path, capsys, spec):
        argv = ["sweep", "--var", "gamma0", f"--values={spec}", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse sweep values {spec!r}: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value, named", [("--schemes", "nope", "nope"), ("--seed", "-1", "--seed")])
    def test_bad_schemes_and_seed_are_usage_errors(self, tmp_path, capsys, flag, value, named):
        argv = ["sweep", "--var", "d1", "--values", "30", "--samples", "1", "--out", str(tmp_path / "x.csv")]
        assert cli_main([*argv, flag, value]) == 2
        assert named in capsys.readouterr().err

    # a gnuplot string cannot hold a line break, which would end the script's comment and plot lines
    @pytest.mark.parametrize("name", ['a\nset output "x".csv', "a\rb.csv"])
    def test_gnuplot_line_break_in_the_name_is_a_usage_error(self, tmp_path, capsys, name):
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "2", "--out", str(tmp_path / name)]
        assert cli_main([*argv, "--gnuplot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --gnuplot cannot quote a line break in the CSV name {name!r}\n"
        assert list(tmp_path.iterdir()) == []
        assert cli_main(argv) == 0  # without a script the name is only a file name
        assert [p.name for p in tmp_path.iterdir()] == [name]

    # the script goes to the CSV's name with .gp: a CSV named *.gp would be overwritten by it
    def test_gnuplot_script_over_the_csv_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fig.gp"
        for values in ("10,20dB", "20dB"):
            argv = ["sweep", "--var", "gamma0", "--values", values, "--samples", "5", "--out", str(out)]
            assert cli_main([*argv, "--gnuplot"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: --gnuplot would write its script over the CSV {str(out)!r}: give --out another suffix\n"
            )
            assert list(tmp_path.iterdir()) == []
        assert cli_main(argv) == 0  # without a script the name is only a file name
        assert out.read_text(encoding="utf-8").startswith("variable,scheme,")

    # the script's write would fail only after the whole sweep, as would an --out that names a directory
    def test_gnuplot_script_path_that_is_a_directory_is_a_usage_error(self, tmp_path, capsys):
        out, script = tmp_path / "fig.csv", tmp_path / "fig.gp"
        script.mkdir()
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "5", "--out", str(out)]
        assert cli_main([*argv, "--gnuplot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --gnuplot must write its script to a file, got {str(script)!r}\n"
        assert list(tmp_path.iterdir()) == [script]
        assert cli_main(argv) == 0  # without a script the directory is only a neighbour
        assert out.read_text(encoding="utf-8").startswith("variable,scheme,")

    # each choice names a sweep variable, or its field's flag; the plot label is the flag's help text, or
    # the SNR target's in dB
    @pytest.mark.parametrize("name", sorted(_VAR_CHOICES))
    def test_every_variable_is_a_choice_with_its_axis_label(self, tmp_path, capsys, name):
        variable, field = _VAR_CHOICES[name]
        flag, _, _, label = _SCENARIO_FIELDS[field]
        assert variable in VARIABLES and VARIABLES[variable][0] == field and name in (variable, flag[2:])
        values, unit = SWEPT_FLAG_VALUES.get(flag[2:], (("20",), ""))
        out = tmp_path / "v.csv"
        argv = ["sweep", "--var", name, "--values", values[0] + unit, "--samples", "1", "--out", str(out), "--gnuplot"]
        assert cli_main(argv) == 0
        label = "SNR target [dB]" if variable == "snr_target_db" else label
        assert f'set xlabel "{label}"' in (tmp_path / "v.gp").read_text(encoding="utf-8").splitlines()

    def test_every_sweep_variable_is_a_choice_under_its_flag_s_name_too(self):
        flags = {name for name in _VAR_CHOICES if name not in VARIABLES}
        assert flags == {*SWEPT_FLAG_VALUES, "gamma0"}
        assert {_VAR_CHOICES[flag] for flag in flags} == {(name, field) for name, (field, _) in VARIABLES.items()}

    # the users are drawn from the coverage rectangle once per sweep
    @pytest.mark.parametrize("name", ["coverage-x", "coverage-y", "coverage_x_m", "coverage_y_m"])
    def test_a_coverage_field_is_no_choice(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setattr(pinchrelay.cli, "run_sweep", lambda config, spec: pytest.fail("the sweep ran"))
        argv = ["sweep", "--var", name, "--values", "10,20", "--samples", "2", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        assert f"argument --var: invalid choice: {name!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # a stage whose fields miss one it reads would reuse a result from before the swept field moved
    @pytest.mark.parametrize("flag", sorted(SWEPT_FLAG_VALUES))
    def test_sweeping_a_field_equals_setting_its_flag(self, tmp_path, capsys, flag):
        values, unit = SWEPT_FLAG_VALUES[flag]
        common = ["--samples", "200", "--seed", "3"]
        swept = tmp_path / "swept.csv"
        assert cli_main(["sweep", "--var", flag, "--values", ",".join(values) + unit, *common, "--out", str(swept)]) == 0
        rows = [line.split(",") for line in swept.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == len(values) * len(SCHEMES)
        parse = _SCENARIO_FIELDS[_VAR_CHOICES[flag][1]][1]
        for k, value in enumerate(values):
            alone = tmp_path / f"{k}.csv"
            argv = ["sweep", "--var", "gamma0", "--values", "20dB", f"--{flag}", value + unit, *common, "--out", str(alone)]
            assert cli_main(argv) == 0
            at_value = rows[k * len(SCHEMES) : (k + 1) * len(SCHEMES)]
            assert [float(row[0]) for row in at_value] == [parse(value + unit)] * len(SCHEMES)
            expected = [line.split(",")[1:] for line in alone.read_text(encoding="utf-8").splitlines()[1:]]
            assert [row[1:] for row in at_value] == expected


FAR_USERS = {"--coverage-x": "1e5", "--length": "10"}
_FLAG_FIELDS = {flag: name for name, (flag, *_) in _SCENARIO_FIELDS.items()}


def verify_draws(base, trials, seed=0):
    """``(config, user)`` pairs as ``pinchrelay verify`` draws them over ``base``."""
    rng = random.Random(seed)
    for _ in range(trials):
        config = replace(base, **{name: draw(rng) for name, draw in _VERIFY_DRAWN_FIELDS.items()})
        yield config, UePosition(rng.uniform(0.0, config.coverage_x_m), rng.uniform(0.0, config.coverage_y_m))


class TestVerifyCommand:
    def test_randomized_verification_passes(self, capsys):
        assert cli_main(["verify", "--seed", "7", "--trials", "100"]) == 0
        out = capsys.readouterr().out
        assert "verify: 100/100 scenarios passed" in out

    def test_trials_must_be_positive(self, capsys):
        assert cli_main(["verify", "--trials", "0"]) == 2

    def test_huge_horn_gain_is_one_usage_error_line(self, capsys):
        assert cli_main(["verify", "--trials", "1", "--horn-tx-gain", "4000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: invalid scenario configuration: horn_gain_tx_dbi must lie in [-10, 60], got 4000.0\n"

    def test_each_trial_calls_the_modules_verify_scenario(self, capsys, monkeypatch):
        calls = []
        original = pinchrelay.cli.verify_scenario
        monkeypatch.setattr(pinchrelay.cli, "verify_scenario", lambda *a, **k: calls.append(a) or original(*a, **k))
        assert cli_main(["verify", "--trials", "2"]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("freq", ["1e-150", "1e-148", "1e300"])
    def test_carrier_outside_its_domain_is_one_usage_error_line(self, capsys, freq):
        assert cli_main(["verify", "--trials", "1", "--freq", freq]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid scenario configuration: carrier_frequency_hz must lie in [1e+08, 1e+13], got {float(freq)!r}\n"
        )

    # the oracle derives the placement grid from the waveguide length, so --grid-step is no flag at all
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--grid-step", "0")])
    def test_bad_seed_and_grid_step_are_usage_errors(self, capsys, flag, value):
        assert cli_main(["verify", "--trials", "1", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert ("unrecognized arguments: --grid-step 0" in err) == (flag == "--grid-step")

    # each trial draws these four fields, so a flag that sets one would be silently ignored
    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--alpha-d", "waveguide_attenuation_per_m"),
            ("--d1", "bs_relay_distance_m"),
            ("--gamma0", "snr_target_linear"),
            ("--eta-pa", "pa_efficiency"),
        ],
    )
    def test_flags_for_drawn_fields_are_usage_errors(self, capsys, flag, name):
        assert cli_main(["verify", "--trials", "1", flag, "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verify draws {name} at random in every trial, so {flag} cannot set it\n"

    def test_trials_replace_exactly_the_drawn_fields(self, capsys, monkeypatch):
        configs, report = [], SimpleNamespace(passed=True, rel_gap=0.0)
        monkeypatch.setattr(pinchrelay.cli, "verify_scenario", lambda cfg, *a, **k: configs.append(cfg) or (report, report))
        assert cli_main(["verify", "--trials", "2"]) == 0
        assert len(configs) == 2
        for cfg in configs:
            changed = {f.name for f in fields(SystemConfig) if getattr(cfg, f.name) != getattr(SystemConfig(), f.name)}
            assert changed == set(_VERIFY_DRAWN_FIELDS)

    def test_a_drawn_field_s_flag_with_a_unit_is_a_usage_error_too(self, capsys):
        assert cli_main(["verify", "--trials", "1", "--gamma0", "20dB"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verify draws snr_target_linear at random in every trial, so --gamma0 cannot set it\n"
        )

    def test_full_config_dump_file_still_loads(self, tmp_path, capsys):
        assert cli_main(["config-dump", "--gamma0", "1e5", "--d1", "70"]) == 0
        dumped = tmp_path / "dump.cfg"
        dumped.write_text(capsys.readouterr().out, encoding="utf-8")
        assert cli_main(["verify", "--trials", "2", "--config", str(dumped)]) == 0
        assert "verify: 2/2 scenarios passed" in capsys.readouterr().out

    # longer than 1 mm x (10**7 - 1): a coarser grid of 10**7 points; shorter than 1 mm: the grid {0, L}
    @pytest.mark.parametrize("length", ["2e4", "5e-4"])
    def test_any_waveguide_length_gets_a_grid(self, capsys, length):
        assert cli_main(["verify", "--trials", "1", "--length", length]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("verify: 1/1 scenarios passed\n") and captured.err == ""

    # passing trials write nothing to stderr: no warning, no numpy RuntimeWarning
    @pytest.mark.parametrize(
        "argv",
        [
            ["--trials", "20", "--seed", "2"],
            ["--trials", "5", "--length", "7.3"],
            # alpha^2 C on both sides of 1: the placement search's Newton steps meet g'' near 0 and bisect instead
            ["--trials", "1000", "--seed", "1", "--coverage-y", "60", "--coverage-x", "100", "--length", "100"],
            # a corner of the noise domain: the power search's minimum lies far from where it starts
            ["--trials", "50", "--bandwidth", "1e3", "--noise-figure", "0", "--ue-noise-figure", "40"],
            # the opposite corner: the minimum lies below the power search's start (t - t0 from -3.4 to -0.8,
            # against 5.9 to 8.4 above), so its first step runs the other way
            ["--trials", "200", "--bandwidth", "1e11", "--noise-figure", "40", "--ue-noise-figure", "0"],
        ],
        ids=" ".join,
    )
    def test_passing_trials_write_nothing_to_stderr(self, capsys, argv):
        assert cli_main(["verify", *argv]) == 0
        trials = argv[argv.index("--trials") + 1]
        captured = capsys.readouterr()
        assert captured.out.endswith(f"verify: {trials}/{trials} scenarios passed\n") and captured.err == ""

    # each moves the closed form's (p1, beta_sq) and keeps its cost: see conftest.SPLIT_MUTANTS
    def test_operating_point_mutants_fail_every_trial(self, capsys, mutated_split):
        assert cli_main(["verify", "--trials", "20"]) == 1
        out = capsys.readouterr().out
        assert out.count("| FAIL\n") == 20 and out.endswith("verify: 0/20 scenarios passed\n")

    # each moves the closed-form pinch point off the maximum: see conftest.PIN_MUTANTS.  On verify's
    # default draws the clamped candidate always beats the feed.  For users up to 100 km past the end
    # of a 10 m waveguide the feed wins on all but one of the 20 draws; a trial fails where the mutant
    # moves the pinch point, and passes where it does not.  A pinch point off the waveguide, or at
    # the far end of a 1,000 km one, fails its trial on a FAIL line, even where f or |g2|^2 there
    # leaves the float range or its domain.
    @pytest.mark.parametrize(
        "mutated_pin, flags",
        [
            ("x+0.3mm", {}),
            ("x+0.3mm", FAR_USERS),
            ("clamped-candidate", FAR_USERS),
            ("x=-10km", {}),
            ("x=L", {"--length": "1e6"}),
        ],
        indirect=["mutated_pin"],
    )
    def test_placement_mutants_fail_every_trial_they_move(self, capsys, mutated_pin, flags):
        assert cli_main(["verify", "--trials", "20", *(text for flag in flags.items() for text in flag)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failed = [line.endswith("| FAIL") for line in captured.out.splitlines()[:-1]]
        base = SystemConfig(**{_FLAG_FIELDS[flag]: float(value) for flag, value in flags.items()})
        moved = [PIN_MUTANTS[mutated_pin](cfg, ue) != optimal_pin_position(cfg, ue) for cfg, ue in verify_draws(base, 20)]
        assert failed == moved and sum(moved) >= 19

    def test_far_users_pass(self, capsys):
        assert cli_main(["verify", "--trials", "20", *(text for flag in FAR_USERS.items() for text in flag)]) == 0
        assert capsys.readouterr().out.endswith("verify: 20/20 scenarios passed\n")

    def test_largest_power_gap_over_2000_trials(self, capsys):
        assert cli_main(["verify", "--trials", "2000", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        gaps = [float(gap) for gap in re.findall(r"power rel gap (\S+)", captured.out)]
        assert len(gaps) == 2000 and max(gaps) <= 1e-12
        assert captured.err == ""


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert cli_main(["solve", "--bogus"]) == 2

    def test_invalid_unit(self, capsys):
        assert cli_main(["solve", "--freq", "28parsecs"]) == 2

    def test_unparsable_quantity(self, capsys):
        assert cli_main(["solve", "--freq", "abc"]) == 2
        assert "argument --freq: cannot parse quantity 'abc'" in capsys.readouterr().err

    def test_ue_needs_exactly_two_coordinates(self, capsys):
        assert cli_main(["solve", "--ue", "1,2,3"]) == 2
        assert "argument --ue: '1,2,3': expected UE coordinates as 'x,y'" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    # a value outside its field's domain, on any command: exit 2 and one line that names the field and its bounds
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--noise-figure", "4000"], "noise_figure_db must lie in [0, 40], got 4000.0"),
            (["solve", "--ue-noise-figure", "4000"], "ue_noise_figure_db must lie in [0, 40], got 4000.0"),
            (["solve", "--horn-tx-gain", "4000"], "horn_gain_tx_dbi must lie in [-10, 60], got 4000.0"),
            (["solve", "--horn-tx-gain", "-4000"], "horn_gain_tx_dbi must lie in [-10, 60], got -4000.0"),
            (["verify", "--trials", "1", "--noise-figure", "4000"], "noise_figure_db must lie in [0, 40], got 4000.0"),
            (
                [
                    *("sweep", "--var", "gamma0", "--values", "20dB", "--samples", "5"),
                    *("--noise-figure", "-4000", "--schemes", "benchmark1", "--out", "n.csv"),
                ],
                "noise_figure_db must lie in [0, 40], got -4000.0",
            ),
            # two or more faults at once: the first field in SystemConfig's order is named
            (
                [
                    *("config-dump", "--horn-tx-gain", "4000", "--horn-rx-gain", "-4000"),
                    *("--noise-figure", "4000", "--freq", "1e-150", "--d1", "1e150"),
                ],
                "carrier_frequency_hz must lie in [1e+08, 1e+13], got 1e-150",
            ),
            (
                ["verify", "--height", "1.7e308", "--horn-tx-gain", "-4000"],
                "horn_gain_tx_dbi must lie in [-10, 60], got -4000.0",
            ),
            (
                ["verify", "--coverage-x", "1.7e308", "--bs-rf-power", "1e-40"],
                "coverage_x_m must lie in [0.01, 100000], got 1.7e+308",
            ),
        ],
    )
    def test_a_value_outside_the_domain_names_the_field(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: invalid scenario configuration: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestNegativeValues:
    """A token that starts with '-' and a digit, or '-.' and a digit, is the value of the flag before it."""

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (["solve", "--gamma0", "-10dB"], "snr_target_linear", 0.1),
            (["solve", "--gamma0", "-.5dB"], "snr_target_linear", 10.0**-0.05),
            (["solve", "--horn-tx-gain", "-5dBi"], "horn_gain_tx_dbi", -5.0),
            (["solve", "--ue", "15,5", "--gamma0", "-10dB"], "snr_target_linear", 0.1),
        ],
    )
    def test_a_negative_scenario_value_with_a_unit_is_parsed(self, capsys, argv, field, value):
        assert getattr(_build_parser().parse_args(argv), field) == value
        assert cli_main([*argv, "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["total_power_w"] > 0.0 and captured.err == ""

    @pytest.mark.parametrize("values", ["-10:2:30dB", "-10,0dB"])
    def test_a_negative_sweep_value_with_a_unit_is_swept(self, tmp_path, capsys, values):
        out = tmp_path / "fig1.csv"
        assert cli_main(["sweep", "--var", "gamma0", "--values", values, "--samples", "1", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].startswith("-10,proposed,")
        assert capsys.readouterr().err == ""

    def test_a_unit_on_every_negative_listed_value_reaches_the_values_spec(self, tmp_path, capsys):
        argv = ["sweep", "--var", "gamma0", "--values", "-10dB,0dB", "--samples", "1", "--out", str(tmp_path / "x.csv")]
        assert _build_parser().parse_args(argv).values == "-10dB,0dB"
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            "error: cannot parse sweep values '-10dB,0dB': a unit goes once, after the last value ('-10,0dB')\n"
        )

    def test_a_negative_user_coordinate_reaches_the_coverage_check(self, capsys):
        assert cli_main(["solve", "--ue", "-1,5"]) == 2
        assert capsys.readouterr().err == "error: x_ue_m must lie in [0, 30], got -1.0 (the coverage rectangle)\n"


class TestParser:
    @pytest.mark.parametrize("command", ["solve", "sweep", "verify", "config-dump"])
    def test_help_lists_each_scenario_flag_once_in_field_order(self, capsys, command):
        assert cli_main([command, "--help"]) == 0
        listed = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.MULTILINE)
        scenario_flags = ["--config", *(flag for flag, *_ in _SCENARIO_FIELDS.values())]
        assert [flag for flag in listed if flag in scenario_flags] == scenario_flags

    def test_subcommands_share_one_set_of_scenario_actions(self):
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        commands = subparsers.choices.values()
        scenario = {a.dest for a in _scenario_parser()._actions}
        shared = {id(a) for command in commands for a in command._actions if a.dest in scenario}
        assert len(shared) == len(scenario) == 1 + len(_SCENARIO_FIELDS)


class TestParserReuse:
    """One parser serves every ``cli_main`` call of a process, and no call leaves state for the next."""

    def test_the_parser_is_built_once(self, capsys):
        cli_main(["config-dump"])
        assert _build_parser() is _build_parser()

    def test_json_then_plain_solve_prints_a_table(self, capsys):
        assert cli_main(["solve", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["x_pin_m"] >= 0.0
        assert cli_main(["solve"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in table] == list(PowerSolution._fields)

    def test_gnuplot_sweep_then_plain_sweep_writes_no_script(self, tmp_path, capsys):
        argv = ["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "2"]
        assert cli_main([*argv, "--out", str(tmp_path / "a.csv"), "--gnuplot"]) == 0
        assert cli_main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.gp", "b.csv"]

    @pytest.mark.parametrize("bad", [["solve", "--bogus"], ["sweep", "--values", "20dB"], ["solve", "--freq", "abc"], []])
    def test_a_usage_error_then_a_valid_call_exits_zero(self, capsys, bad):
        assert cli_main(bad) == 2
        assert cli_main(["solve", "--ue", "15,5"]) == 0

    def test_help_prints_the_same_bytes_twice(self, capsys):
        assert cli_main(["solve", "--help"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["solve", "--help"]) == 0
        assert capsys.readouterr().out == first


# Scenario values at the ends of the float range, and dB values past the edge of a finite linear ratio
_EXTREMES = (
    *("0", "5e-324", "-5e-324", "1e-150", "1e150", "-1e150", "1.7e308", "-1.7e308"),
    *("3000", "-3000", "4000", "-4000"),
    # out of the float range once the unit is applied: 10**400 and 10**-400, or 1e308 times 1e9 or 1e3
    *("4000dB", "-4000dB", "1e308GHz", "1e308km"),
)
_COMMANDS = st.one_of(
    st.just(["solve"]),
    st.just(["config-dump"]),
    st.just(["verify", "--trials", "1"]),
    st.builds(
        lambda var, samples: ["sweep", "--var", var, "--values", "20", "--samples", str(samples)],
        st.sampled_from(["gamma0", "d1"]),
        st.integers(1, 5),
    ),
)
_VALUES = st.one_of(st.sampled_from(_EXTREMES), st.floats(allow_nan=False, allow_infinity=False).map(repr))
_SCENARIO = st.lists(
    st.sampled_from([flag for flag, *_ in _SCENARIO_FIELDS.values()]), min_size=1, max_size=4, unique=True
).flatmap(lambda flags: st.tuples(*(_VALUES.map(f"{flag}={{}}".format) for flag in flags)))


@pytest.fixture(scope="class")
def sweep_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("every_argv") / "sweep.csv"


class TestEveryArgv:
    """The whole CLI at extreme scenario values: a clean exit 0, or one ``error:`` line and exit 1 or 2."""

    # 10**400 overflows in db_to_linear: the domain error names the field, no OverflowError escapes
    @example(argv=["solve", "--gamma0", "4000dB"])
    # each example was a traceback or a silent inf before it became a named error
    @example(argv=["verify", "--trials", "1", "--height=1.7e308", "--horn-tx-gain=-4000"])
    @example(argv=["verify", "--trials", "1", "--coverage-x=1.7e308", "--bs-rf-power=1e-40"])
    @example(
        argv=[
            *("solve", "--ue", "15,5", "--horn-tx-gain=-30", "--horn-rx-gain=3000"),
            *("--noise-figure=3000", "--ue-noise-figure=3000"),
        ]
    )
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(argv=st.builds(lambda command, scenario: [*command, *scenario], _COMMANDS, _SCENARIO))
    def test_every_argv_ends_cleanly(self, sweep_csv, argv):
        if argv[0] == "sweep":
            sweep_csv.unlink(missing_ok=True)
            argv = [*argv, "--out", str(sweep_csv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        if code == 0:
            printed = out.getvalue() + (sweep_csv.read_text(encoding="utf-8") if argv[0] == "sweep" else "")
            # Decimal, not float: the table's 10 digits may round the largest double up past the float range
            numbers = []
            for token in re.split(r"[\s,:|=()\[\]{}\"/]+", printed):
                with contextlib.suppress(InvalidOperation):
                    numbers.append(Decimal(token))
            assert all(number.is_finite() for number in numbers), printed
        else:
            assert code in (1, 2)
            error_lines = [line for line in err.getvalue().splitlines() if "error:" in line]
            assert len(error_lines) == 1, err.getvalue()
