"""Sweep engine: Monte Carlo averaging, staged evaluation, CSV export/round-trip, determinism."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchrelay import (
    SweepRecord,
    SweepSpec,
    SystemConfig,
    UePosition,
    db_to_linear,
    export_csv,
    read_csv,
    run_sweep,
    solve,
    write_gnuplot_script,
)
from pinchrelay.benchmarks import SHADOWING_STD_DB
from pinchrelay.cli import cli_main
from pinchrelay.kernel import _EVALUATORS
from pinchrelay.sweep import SCHEMES, VARIABLES

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "fig1.json"
CONFIG_FIELDS = frozenset(f.name for f in fields(SystemConfig))

# Values for both sweep variables and for four a sweep could add.  Each added
# one moves a field that some user stage reads, where reusing its result is stale.
SWEEPS = {
    "snr_target_db": (0.0, 20.0, 43.0),
    "bs_relay_distance_m": (1.0, 50.0, 250.0),
    "waveguide_attenuation_per_m": (1e-3, 0.05, 0.3),
    "waveguide_length_m": (5.0, 12.0, 30.0),
    "waveguide_height_m": (0.5, 3.0, 7.0),
    "carrier_frequency_hz": (3.5e9, 28e9, 1.4e11),
}


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(variable="snr_target_db", values=(10.0, 20.0, 30.0), ue_samples=40, seed=3)
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_schemes_normalized_to_canonical_order(self):
        spec = small_spec(schemes=("benchmark2", "proposed"))
        assert spec.schemes == ("proposed", "benchmark2")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variable": "carrier_frequency_hz"},
            {"values": ()},
            {"values": (10.0, 10.0)},
            {"values": (20.0, 10.0)},
            {"ue_samples": 0},
            {"schemes": ("proposed", "nonsense")},
            {"schemes": ()},
            {"variable": "bs_relay_distance_m", "values": (-5.0, 10.0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            small_spec(**kwargs)

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("snr_target_db", math.nan),
            ("snr_target_db", math.inf),
            ("snr_target_db", 4000.0),
            ("snr_target_db", -4000.0),
            ("bs_relay_distance_m", 0.0),
            ("bs_relay_distance_m", -1.0),
        ],
    )
    def test_rejects_values_out_of_range(self, variable, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            small_spec(variable=variable, values=(value,))


class TestRunSweep:
    def test_degenerate_sweep_equals_single_solve(self, cfg):
        spec = SweepSpec(variable="snr_target_db", values=(20.0,), ue_samples=1, seed=9, schemes=("proposed",))
        [record] = run_sweep(cfg, spec)
        rng = np.random.default_rng(9)
        ue = UePosition(float(rng.uniform(0.0, 30.0, 1)[0]), float(rng.uniform(0.0, 10.0, 1)[0]))
        expected = solve(SystemConfig(snr_target_linear=db_to_linear(20.0)), ue)
        assert record.mean_total_power_w["proposed"] == expected.total_power_w
        assert record.mean_bs_power_w["proposed"] == expected.p1_w
        assert record.n_samples == 1

    def test_means_increase_with_snr_target(self, cfg):
        records = run_sweep(cfg, small_spec(values=(10.0, 15.0, 20.0, 25.0, 30.0)))
        for scheme in ("proposed", "benchmark1", "benchmark2"):
            means = [r.mean_total_power_w[scheme] for r in records]
            assert all(b > a for a, b in zip(means, means[1:])), scheme

    def test_means_increase_with_relay_distance(self, cfg):
        spec = small_spec(variable="bs_relay_distance_m", values=(30.0, 60.0, 90.0))
        records = run_sweep(cfg, spec)
        for scheme in ("proposed", "benchmark2"):
            means = [r.mean_total_power_w[scheme] for r in records]
            assert all(b > a for a, b in zip(means, means[1:])), scheme

    def test_record_shape(self, cfg):
        spec = small_spec(schemes=("proposed", "benchmark2"))
        records = run_sweep(cfg, spec)
        assert len(records) == len(spec.values)
        for record, value in zip(records, spec.values):
            assert record.variable_value == value
            assert tuple(record.mean_total_power_w) == spec.schemes
            assert tuple(record.mean_bs_power_w) == spec.schemes
            assert record.n_samples == spec.ue_samples
            assert all(v > 0.0 for v in record.mean_total_power_w.values())

    def test_doubling_samples_barely_moves_the_means(self, cfg):
        base = run_sweep(cfg, SweepSpec(variable="snr_target_db", values=(20.0,), ue_samples=2000, seed=1))
        double = run_sweep(cfg, SweepSpec(variable="snr_target_db", values=(20.0,), ue_samples=4000, seed=1))
        for scheme in ("proposed", "benchmark1", "benchmark2"):
            a = base[0].mean_total_power_w[scheme]
            b = double[0].mean_total_power_w[scheme]
            assert abs(a - b) < 0.02 * a, scheme

    @pytest.mark.parametrize(
        "variable, values",
        [("snr_target_db", (10.0, 20.0, 30.0)), ("bs_relay_distance_m", (30.0, 60.0, 90.0))],
    )
    def test_scheme_subsets_give_bitwise_equal_means(self, cfg, variable, values):
        full = run_sweep(cfg, small_spec(variable=variable, values=values))
        for schemes in (("proposed",), ("benchmark1",)):
            subset = run_sweep(cfg, small_spec(variable=variable, values=values, schemes=schemes))
            for whole, part in zip(full, subset):
                for scheme in schemes:
                    assert part.mean_total_power_w[scheme] == whole.mean_total_power_w[scheme]
                    assert part.mean_bs_power_w[scheme] == whole.mean_bs_power_w[scheme]

    def test_scheme_failure_names_the_sample(self):
        # At 1e170 Hz every second-hop gain underflows to 0 while a 1e-170 m first hop stays finite.
        spec = small_spec(variable="bs_relay_distance_m", values=(1e-170,), schemes=("proposed",))
        with pytest.raises(RuntimeError, match=r"scheme 'proposed' failed at sample 0") as info:
            run_sweep(SystemConfig(carrier_frequency_hz=1e170), spec)
        detail = (
            r"\(ue=\([\d.e+-]+, [\d.e+-]+\), bs_relay_distance_m=1e-170\): "
            r"link budget out of range on the relay-UE link: gain 0.0 at waveguide_attenuation_per_m=0.01, "
            r"waveguide_height_m=3.0, carrier_frequency_hz=1e\+170$"
        )
        assert re.search(detail, str(info.value))

    def test_non_finite_power_names_the_sample(self):
        spec = small_spec(variable="bs_relay_distance_m", values=(50.0,))
        with pytest.raises(RuntimeError, match=r"scheme 'proposed' failed at sample 0 .*: total power inf W"):
            run_sweep(SystemConfig(snr_target_linear=1e308), spec)

    def test_config_failure_names_the_value_and_the_cause(self):
        spec = small_spec(variable="bs_relay_distance_m", values=(30.0,), schemes=("benchmark2",))
        expected = "scheme 'benchmark2' failed at bs_relay_distance_m=30: 4000.0 dB is too large to convert"
        with pytest.raises(RuntimeError, match=re.escape(expected)):
            run_sweep(SystemConfig(horn_gain_tx_dbi=4000.0), spec)


class ReadRecordingConfig(SystemConfig):
    """A config that notes each of its fields read once ``reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name in CONFIG_FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestStages:
    def test_schemes_are_the_kernels_evaluators_in_order(self):
        assert SCHEMES == tuple(_EVALUATORS)

    @pytest.mark.parametrize("attenuation", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("scheme", sorted(_EVALUATORS))
    def test_user_stage_reads_only_its_declared_fields(self, scheme, attenuation):
        stages = _EVALUATORS[scheme]
        assert set(stages.fields) <= CONFIG_FIELDS
        cfg = ReadRecordingConfig(waveguide_attenuation_per_m=attenuation)
        object.__setattr__(cfg, "reads", set())
        rng = np.random.default_rng(5)
        stages.users(cfg, rng.uniform(0.0, 30.0, 20), rng.uniform(0.0, 10.0, 20), rng.normal(0.0, SHADOWING_STD_DB, 20))
        assert cfg.reads and cfg.reads <= set(stages.fields)

    @pytest.mark.parametrize("variable", sorted(SWEEPS))
    def test_each_record_equals_a_one_value_sweep(self, cfg, monkeypatch, variable):
        if variable not in VARIABLES:
            monkeypatch.setitem(VARIABLES, variable, (variable, float, ("",), variable))
        records = run_sweep(cfg, small_spec(variable=variable, values=SWEEPS[variable]))
        for record in records:
            [alone] = run_sweep(cfg, small_spec(variable=variable, values=(record.variable_value,)))
            assert record == alone

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_fig1_means_match_the_recorded_reference(self, tmp_path, seed):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        out = tmp_path / "fig1.csv"
        assert cli_main([*reference["argv"], "--seed", str(seed), "--out", str(out)]) == 0
        rows = [
            (record.variable_value, scheme, total, record.mean_bs_power_w[scheme])
            for record in read_csv(out)
            for scheme, total in record.mean_total_power_w.items()
        ]
        expected = reference["seeds"][str(seed)]
        assert [row[:2] for row in rows] == [tuple(row[:2]) for row in expected]
        for row, (_, _, total, bs_power) in zip(rows, expected):
            assert row[2] == pytest.approx(total, rel=1e-12, abs=0.0)
            assert row[3] == pytest.approx(bs_power, rel=1e-12, abs=0.0)


class TestCsv:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv([], path)
        assert path.read_bytes() == b"variable,scheme,mean_total_power_w,mean_bs_power_w,n_samples\n"

    def test_one_record_two_schemes_is_three_lines(self, tmp_path):
        record = SweepRecord(
            variable_value=20.0,
            mean_total_power_w={"proposed": 0.5, "benchmark2": 1.25},
            mean_bs_power_w={"proposed": 0.01, "benchmark2": 0.02},
            n_samples=7,
        )
        path = tmp_path / "one.csv"
        export_csv([record], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[1] == "20,proposed,0.5,0.01,7"
        assert lines[2] == "20,benchmark2,1.25,0.02,7"

    def test_round_trip_is_bitwise(self, cfg, tmp_path):
        records = run_sweep(cfg, small_spec(ue_samples=10))
        path = tmp_path / "sweep.csv"
        export_csv(records, path)
        parsed = read_csv(path)
        assert len(parsed) == len(records)
        for original, back in zip(records, parsed):
            assert back.variable_value == original.variable_value
            assert back.n_samples == original.n_samples
            assert back.mean_total_power_w == original.mean_total_power_w
            assert back.mean_bs_power_w == original.mean_bs_power_w

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("20,proposed,0.5,0.01", "expected 5, got 4"),
            ("20,proposed,0.5,0.01,7,9", "too many values"),
            ("20,proposed,half,0.01,7", "could not convert"),
            ("20,proposed,0.5,0.01,7.5", "invalid literal for int"),
            ("20,warp,0.5,0.01,7", "unknown scheme 'warp'"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, detail):
        path = tmp_path / "bad.csv"
        header = "variable,scheme,mean_total_power_w,mean_bs_power_w,n_samples"
        path.write_text(f"{header}\n20,benchmark2,1.25,0.02,7\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + f".*{re.escape(detail)}"):
            read_csv(path)

    @given(
        values=st.lists(st.floats(min_value=1.0, max_value=1e3), min_size=1, max_size=4, unique=True),
        powers=st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=8, max_size=8),
        n_samples=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_survives_arbitrary_doubles(self, tmp_path_factory, values, powers, n_samples):
        records = [
            SweepRecord(
                variable_value=value,
                mean_total_power_w={"proposed": powers[4 * (i % 2)], "benchmark1": powers[4 * (i % 2) + 1]},
                mean_bs_power_w={"proposed": powers[4 * (i % 2) + 2], "benchmark1": powers[4 * (i % 2) + 3]},
                n_samples=n_samples,
            )
            for i, value in enumerate(sorted(values))
        ]
        path = tmp_path_factory.mktemp("csv") / "records.csv"
        export_csv(records, path)
        parsed = read_csv(path)
        for original, back in zip(records, parsed):
            assert back.variable_value == original.variable_value
            assert back.mean_total_power_w == original.mean_total_power_w
            assert back.mean_bs_power_w == original.mean_bs_power_w
            assert back.n_samples == original.n_samples

    def test_identical_seeds_give_bitwise_identical_files(self, cfg, tmp_path):
        spec = small_spec(ue_samples=25)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(run_sweep(cfg, spec), first)
        export_csv(run_sweep(cfg, spec), second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_error_carries_the_path(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            export_csv([], missing_dir)

    def test_gnuplot_companion_script(self, cfg, tmp_path):
        csv_path = tmp_path / "fig.csv"
        export_csv(run_sweep(cfg, small_spec(ue_samples=5)), csv_path)
        script = tmp_path / "fig.gp"
        write_gnuplot_script(csv_path, script, "SNR target [dB]")
        text = script.read_text(encoding="utf-8")
        assert "fig.csv" in text
        for scheme in ("proposed", "benchmark1", "benchmark2"):
            assert scheme in text
