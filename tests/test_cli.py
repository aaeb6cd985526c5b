"""CLI: units parsing, config files, subcommands, exit codes."""

import argparse
import json
import re
from dataclasses import fields

import pytest

import pinchrelay.cli
from pinchrelay import SystemConfig
from pinchrelay.cli import (
    MAX_RANGE_VALUES,
    _add_scenario_flags,
    cli_main,
    load_config_file,
    parse_frequency_hz,
    parse_length_m,
    parse_ratio_or_db,
    parse_values_spec,
)
from pinchrelay.sweep import VARIABLES


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

    # a non-finite start, step or stop; (stop - start) / step overflowing or over the cap
    @pytest.mark.parametrize("spec", ["0:1e-320:1dB", "-inf:1:0", "0:inf:5", "nan:1:3", "0:1e-9:1", "0:1:1e4"])
    def test_values_spec_rejects_unbounded_ranges(self, spec):
        with pytest.raises(ValueError, match=f"^cannot parse sweep values {re.escape(repr(spec))}: range spec needs"):
            parse_values_spec(spec)

    def test_values_spec_range_may_reach_the_cap(self):
        values, _ = parse_values_spec(f"1:1:{MAX_RANGE_VALUES}")
        assert len(values) == MAX_RANGE_VALUES and values[-1] == MAX_RANGE_VALUES


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

    def test_rejects_user_outside_coverage(self, capsys):
        assert cli_main(["solve", "--ue", "40,5"]) == 2

    def test_overflowing_db_values_are_named_errors(self, capsys):
        assert cli_main(["solve", "--gamma0", "4000dB"]) == 2
        assert "--gamma0" in capsys.readouterr().err
        assert cli_main(["solve", "--horn-tx-gain", "4000"]) == 1
        assert capsys.readouterr().err == "error: 4000.0 dB is too large to convert to a linear ratio\n"

    def test_non_finite_power_is_one_error_line(self, capsys):
        assert cli_main(["solve", "--gamma0", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "snr_target_linear=1e+308" in captured.err

    def test_second_hop_overflow_is_one_error_line(self, capsys):
        assert cli_main(["solve", "--ue", "15,5", "--freq", "1e-150", "--d1", "1e150"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: link budget out of range on the relay-UE link: gain inf at ")
        assert captured.err.count("\n") == 1

    def test_first_hop_whose_4_pi_f_d_underflows_is_one_error_line(self, capsys):
        assert cli_main(["solve", "--ue", "15,5", "--freq", "1e-200", "--d1", "1e-200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: link budget out of range on the BS-relay link: gain inf at "
            "bs_relay_distance_m=1e-200, carrier_frequency_hz=1e-200\n"
        )

    def test_zero_pinch_to_user_distance_is_one_error_line(self, capsys):
        assert cli_main(["solve", "--ue", "5,0", "--height", "1e-200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: link budget out of range on the relay-UE link: gain inf at ")
        assert "waveguide_height_m=1e-200" in captured.err and captured.err.count("\n") == 1

    def test_scenario_flags_change_the_answer(self, capsys):
        assert cli_main(["solve", "--ue", "15,5", "--gamma0", "30dB", "--json"]) == 0
        strict = json.loads(capsys.readouterr().out)
        assert cli_main(["solve", "--ue", "15,5", "--gamma0", "10dB", "--json"]) == 0
        relaxed = json.loads(capsys.readouterr().out)
        assert strict["total_power_w"] > relaxed["total_power_w"]


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
        parser = argparse.ArgumentParser()
        _add_scenario_flags(parser)
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

    def test_repeat_runs_are_bitwise_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--var", "d1", "--values", "30,60", "--samples", "4", "--seed", "5"]
        assert cli_main(base + ["--out", str(first)]) == 0
        assert cli_main(base + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

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
        argv = ["sweep", "--var", "d1", "--values", "10:2:30dB", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2

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
    def test_non_finite_values_are_named(self, tmp_path, capsys, var, value):
        argv = ["sweep", "--var", var, f"--values={value}", "--out", str(tmp_path / "x.csv")]
        assert cli_main(argv) == 2
        assert f" value {value} is out of range" in capsys.readouterr().err

    def test_scheme_failure_prints_its_cause(self, tmp_path, capsys):
        argv = ["sweep", "--var", "d1", "--values", "30", "--out", str(tmp_path / "x.csv")]
        assert cli_main([*argv, "--horn-tx-gain", "4000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scheme 'proposed' failed at bs_relay_distance_m=30: ")
        assert "too large to convert" in err

    def test_direct_link_underflow_is_one_error_line(self, tmp_path, capsys):
        argv = ["sweep", "--var", "d1", "--values", "1e300", "--schemes", "benchmark1", "--samples", "3"]
        assert cli_main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: scheme 'benchmark1' failed at sample 0 ")
        assert "link budget out of range on the direct link: gain 0.0 at bs_relay_distance_m=1e+300" in err

    def test_first_hop_underflow_is_one_error_line(self, tmp_path, capsys):
        argv = ["sweep", "--var", "d1", "--values", "1e300", "--samples", "3"]
        assert cli_main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: scheme 'proposed' failed at bs_relay_distance_m=1e+300: link budget out of range on the "
            "BS-relay link: gain 0.0 at bs_relay_distance_m=1e+300, carrier_frequency_hz=28000000000.0\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_direct_link_overflow_is_one_error_line(self, tmp_path, capsys):
        argv = ["sweep", "--var", "d1", "--values", "30", "--schemes", "benchmark1", "--samples", "3"]
        assert cli_main([*argv, "--freq", "1e-300", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: scheme 'benchmark1' failed at sample 0 ")
        assert "link budget out of range on the direct link: gain inf at " in err
        assert not (tmp_path / "x.csv").exists()

    def test_second_hop_overflow_is_one_error_line(self, tmp_path, capsys):
        argv = ["sweep", "--var", "gamma0", "--values", "10dB", "--samples", "5", "--freq", "1e-150", "--d1", "1e150"]
        assert cli_main([*argv, "--schemes", "benchmark2", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: scheme 'benchmark2' failed at sample 0 ")
        assert "link budget out of range on the relay-UE link: gain inf at " in err
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("name", sorted(VARIABLES))
    def test_every_variable_is_a_choice_with_its_axis_label(self, tmp_path, capsys, name):
        out = tmp_path / "v.csv"
        argv = ["sweep", "--var", name, "--values", "20", "--samples", "1", "--out", str(out), "--gnuplot"]
        assert cli_main(argv) == 0
        label = VARIABLES[name][3]
        assert f'set xlabel "{label}"' in (tmp_path / "v.gp").read_text(encoding="utf-8").splitlines()


class TestVerifyCommand:
    def test_randomized_verification_passes(self, capsys):
        assert cli_main(["verify", "--seed", "7", "--trials", "100"]) == 0
        out = capsys.readouterr().out
        assert "verify: 100/100 scenarios passed" in out

    def test_trials_must_be_positive(self, capsys):
        assert cli_main(["verify", "--trials", "0"]) == 2

    def test_huge_horn_gain_is_one_error_line(self, capsys):
        assert cli_main(["verify", "--trials", "1", "--horn-tx-gain", "4000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4000.0 dBi" in err

    def test_each_trial_calls_the_modules_verify_scenario(self, capsys, monkeypatch):
        calls = []
        original = pinchrelay.cli.verify_scenario
        monkeypatch.setattr(pinchrelay.cli, "verify_scenario", lambda *a, **k: calls.append(a) or original(*a, **k))
        assert cli_main(["verify", "--trials", "2"]) == 0
        assert len(calls) == 2

    # the oracle's square overflows at 1e-150 Hz, its product with the horn gains at 1e-148 Hz
    @pytest.mark.parametrize("freq, gain", [("1e-150", "inf"), ("1e-148", "inf"), ("1e300", "0.0")])
    def test_first_hop_out_of_range_is_one_error_line(self, capsys, freq, gain):
        assert cli_main(["verify", "--trials", "1", "--freq", freq]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            rf"error: link budget out of range on the BS-relay link: gain {gain} at "
            rf"bs_relay_distance_m=[0-9.]+, carrier_frequency_hz={re.escape(repr(float(freq)))}\n",
            captured.err,
        )

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--grid-step", "0"), ("--grid-step", "31")])
    def test_bad_seed_and_grid_step_are_usage_errors(self, capsys, flag, value):
        assert cli_main(["verify", "--trials", "1", flag, value]) == 2
        assert flag in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert cli_main(["solve", "--bogus"]) == 2

    def test_invalid_unit(self, capsys):
        assert cli_main(["solve", "--freq", "28parsecs"]) == 2

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
