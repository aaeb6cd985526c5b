"""Sweep engine: Monte Carlo averaging, staged evaluation, CSV export/round-trip, determinism."""

import codecs
import hashlib
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import fields, replace
from functools import partial
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
from pinchrelay import kernel, optimize, sweep
from pinchrelay.benchmarks import SHADOWING_STD_DB
from pinchrelay.cli import cli_main
from pinchrelay.kernel import _OUTPUTS, _STAGES, _per_value
from pinchrelay.model import DOMAIN
from pinchrelay.sweep import SCHEMES, VARIABLES

from kernel_eval import evaluate

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "fig1.json"
CONFIG_FIELDS = frozenset(f.name for f in fields(SystemConfig))

# Values for fig1's and fig2's sweep variables and for four more.  Each of the four
# moves a field that some user stage reads, where reusing its result is stale.
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
            {"variable": "snr_target_linear"},  # the SNR target is swept in dB, as snr_target_db
            {"values": ()},
            {"values": (10.0, 10.0)},
            {"values": (20.0, 10.0)},
            {"ue_samples": 0},
            {"schemes": ("proposed", "nonsense")},
            {"schemes": ()},
            {"variable": "bs_relay_distance_m", "values": (-5.0, 10.0)},
            {"seed": -1},
            {"seed": 1.5},
            {"ue_samples": 5.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            small_spec(**kwargs)

    @pytest.mark.parametrize("name, value", [("seed", -1), ("seed", 1.5), ("ue_samples", 5.5), ("ue_samples", 0)])
    def test_integer_fields_are_named(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= [01], got {value!r}$"):
            small_spec(**{name: value})

    @pytest.mark.parametrize("name, value", [("ue_samples", True), ("seed", False), ("seed", True)])
    def test_bools_are_not_integers(self, name, value):
        # a bool passes an __index__ check, and would fail only inside numpy's generator
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= [01], got {value!r}$"):
            small_spec(**{name: value})

    def test_numpy_integers_are_integers(self):
        spec = small_spec(ue_samples=np.int64(7), seed=np.uint32(5))
        assert (spec.ue_samples, spec.seed) == (7, 5)

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("snr_target_db", math.nan),
            ("snr_target_db", math.inf),
            ("snr_target_db", 4000.0),
            ("snr_target_db", -4000.0),
            ("bs_relay_distance_m", 0.0),
            ("bs_relay_distance_m", -1.0),
            ("snr_target_db", 60.000000000001),
            ("bs_relay_distance_m", 1e300),
        ],
    )
    def test_rejects_values_out_of_range(self, variable, value):
        field, to_si = VARIABLES[variable]
        lo, hi = DOMAIN[field]
        message = f"{field} must lie in [{lo:g}, {hi:g}], got {to_si(value)!r} at {variable} = {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_spec(variable=variable, values=(value,))

    @pytest.mark.parametrize("field", ["coverage_x_m", "coverage_y_m"])
    def test_the_fields_the_users_are_drawn_from_are_no_sweep_variable(self, field):
        with pytest.raises(ValueError, match=f"^unknown sweep variable '{field}', expected one of "):
            small_spec(variable=field, values=(10.0, 20.0))


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

    @pytest.mark.parametrize("ue_samples", [1, 7, 1000])
    def test_means_are_exact_sums_of_the_kernel_arrays(self, cfg, ue_samples):
        spec = SweepSpec(variable="snr_target_db", values=(10.0, 20.0, 30.0), ue_samples=ue_samples, seed=4)
        records = run_sweep(cfg, spec)
        rng = np.random.default_rng(spec.seed)
        xs = rng.uniform(0.0, cfg.coverage_x_m, ue_samples)
        ys = rng.uniform(0.0, cfg.coverage_y_m, ue_samples)
        shadows = rng.normal(0.0, SHADOWING_STD_DB, ue_samples)
        for record in records:
            at = replace(cfg, snr_target_linear=db_to_linear(record.variable_value))
            for scheme in SCHEMES:
                total, bs_w = evaluate(scheme, at, xs, ys, shadows)
                assert record.mean_total_power_w[scheme] == math.fsum(total.tolist()) / ue_samples
                assert record.mean_bs_power_w[scheme] == math.fsum(bs_w.tolist()) / ue_samples

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
    @pytest.mark.parametrize(
        "schemes", [s for r in (1, 2, 3) for s in itertools.combinations(SCHEMES, r)], ids=",".join
    )
    def test_scheme_subsets_give_bitwise_equal_means(self, cfg, variable, values, schemes):
        full = run_sweep(cfg, small_spec(variable=variable, values=values))
        subset = run_sweep(cfg, small_spec(variable=variable, values=values, schemes=schemes))
        for whole, part in zip(full, subset, strict=True):
            assert tuple(part.mean_total_power_w) == tuple(part.mean_bs_power_w) == schemes
            for scheme in schemes:
                assert part.mean_total_power_w[scheme] == whole.mean_total_power_w[scheme]
                assert part.mean_bs_power_w[scheme] == whole.mean_bs_power_w[scheme]


class ReadRecordingConfig(SystemConfig):
    """A config that notes each of its fields read once ``reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name in CONFIG_FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestStages:
    def test_schemes_are_the_kernels_outputs_in_order(self):
        assert SCHEMES == tuple(_OUTPUTS)

    # _per_value splits the stages in one pass, and the sweep runs them in _STAGES' order.
    def test_each_stage_takes_only_draws_and_earlier_stages(self):
        ready = {"xs", "ys", "shadows"}
        for name, stage in _STAGES.items():
            assert set(stage.inputs) <= ready, name
            ready.add(name)
        assert all(stage in _STAGES for stage, _ in _OUTPUTS.values())

    # A stage's result is reused while its fields and those of the stages before it hold, which is
    # only correct if it reads nothing it does not declare.
    @pytest.mark.parametrize("attenuation", [0.0, 0.01, 0.3])
    def test_every_stage_reads_only_its_declared_fields(self, attenuation):
        rng = np.random.default_rng(5)
        results = {"xs": rng.uniform(0.0, 30.0, 20), "ys": rng.uniform(0.0, 10.0, 20)}
        results["shadows"] = rng.normal(0.0, SHADOWING_STD_DB, 20)
        for name, stage in _STAGES.items():
            assert set(stage.fields) <= CONFIG_FIELDS
            cfg = ReadRecordingConfig(waveguide_attenuation_per_m=attenuation)
            object.__setattr__(cfg, "reads", set())
            results[name] = stage.run(cfg, *(results[i] for i in stage.inputs))
            assert cfg.reads <= set(stage.fields), name
            assert cfg.reads or not stage.fields, name  # the recording sees a stage's reads

    @staticmethod
    def count_stage_runs(monkeypatch) -> Counter:
        runs: Counter = Counter()
        for name, stage in _STAGES.items():
            counted = partial(lambda name, run, *args: runs.update([name]) or run(*args), name, stage.run)
            monkeypatch.setitem(_STAGES, name, stage._replace(run=counted))
        return runs

    @pytest.mark.parametrize("variable", ["snr_target_db", "bs_relay_distance_m", "waveguide_attenuation_per_m"])
    def test_a_sweep_reruns_only_the_stages_its_variable_reaches(self, cfg, monkeypatch, variable):
        runs, g1_configs, bs_relay_gain = self.count_stage_runs(monkeypatch), [], optimize.bs_relay_gain
        monkeypatch.setattr(optimize, "bs_relay_gain", lambda config: g1_configs.append(config) or bs_relay_gain(config))
        values = SWEEPS[variable]
        run_sweep(cfg, small_spec(variable=variable, values=values))
        per_value = {"relay_power", "benchmark1_power"}
        if variable == "bs_relay_distance_m":  # |g1|^2, the split's terms and the direct path loss read d1
            per_value |= {"link", "relay_terms", "path_loss"}
        if variable == "waveguide_attenuation_per_m":  # the second hop reads alpha, the direct scheme does not
            per_value = {"second_hop", "relay_terms", "relay_power"}
        assert per_value <= set(_STAGES)
        assert runs == {name: len(values) if name in per_value else 1 for name in _STAGES}
        assert len(g1_configs) == runs["link"]  # |g1|^2 once per link stage: once per sweep, or once per d1

    def test_both_relay_schemes_split_their_powers_in_one_pass_per_value(self, cfg, monkeypatch):
        shapes, split_powers = [], kernel.split_powers
        counted = lambda target, cross, k: shapes.append(cross.shape) or split_powers(target, cross, k)  # noqa: E731
        monkeypatch.setattr(kernel, "split_powers", counted)
        spec = small_spec(schemes=("proposed", "benchmark2"))
        run_sweep(cfg, spec)
        assert shapes == [(2, spec.ue_samples)] * len(spec.values)

    @pytest.mark.parametrize(
        "variable, held",
        [
            ("snr_target_db", {"link", "relay_terms", "path_loss"}),
            ("bs_relay_distance_m", {"second_hop", "geometry", "shadowing"}),
            ("waveguide_attenuation_per_m", {"xs", "ys", "link", "benchmark1_power"}),  # second_hop reads the draws
        ],
    )
    def test_a_sweep_holds_a_result_only_while_a_later_stage_reads_it(self, cfg, monkeypatch, variable, held):
        field, to_si = VARIABLES[variable]
        per_value, run, shared, at_values = _per_value(field), kernel._run, {}, []

        def recording(name, at, results):
            run(name, at, results)
            shared["results"] = results  # the one dict the sweep's stages share
            if name == per_value[-1]:
                at_values.append(set(results))

        monkeypatch.setattr(kernel, "_run", recording)
        configs = [replace(cfg, **{field: to_si(value)}) for value in SWEEPS[variable]]
        at_sums = [set(shared["results"]) for _ in kernel.sweep_sums(SCHEMES, field, configs, 20, 5)]
        # at each value: the once-stages' results that a per-value stage or an output reads, and the value's own
        assert at_values == [held | set(per_value)] * len(configs)
        # the draws no per-value stage reads are released too, and each value's results before its rows are summed
        assert at_sums == [held] * len(configs)

    def test_a_sweep_writes_no_module_level_state(self, cfg):
        # the same objects, with the same contents, and no functools cache that holds an entry
        modules = (kernel, sweep)
        before = [dict(vars(module)) for module in modules]
        contents = [{k: repr(v) for k, v in names.items() if isinstance(v, (dict, list, set))} for names in before]
        run_sweep(cfg, small_spec(variable="horn_gain_rx_dbi", values=(10.0, 20.0)))
        for module, names, held in zip(modules, before, contents):
            assert vars(module).keys() == names.keys(), module.__name__
            assert all(vars(module)[k] is v for k, v in names.items()), module.__name__
            assert {k: repr(vars(module)[k]) for k in held} == held, module.__name__
            assert not [k for k, v in names.items() if getattr(v, "cache_info", None) and v.cache_info().currsize]

    def test_a_sweep_evaluates_the_feed_gain_once(self, cfg, monkeypatch):
        # one exp per user at the candidate the placement weighs, and one for all users at the
        # feed, whose gain the placement compares with and the fixed-antenna scheme powers
        calls, exp = [], math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        spec = small_spec()
        run_sweep(cfg, spec)
        assert spec.schemes == SCHEMES and len(calls) == spec.ue_samples + 1

    @pytest.mark.parametrize("variable", ["snr_target_db", "bs_relay_distance_m"])
    def test_a_sweep_calls_no_hypot_and_one_pow_per_user(self, cfg, monkeypatch, variable):
        # the direct link's ground distance and distance loss are operators and a square root; the one
        # libm pow left is the shadowing's, once per user for the whole sweep
        calls = {"hypot": [], "pow": []}
        for name, log in calls.items():
            monkeypatch.setattr(math, name, lambda *args, fn=getattr(math, name), log=log: log.append(args) or fn(*args))
        spec = small_spec(variable=variable, values=SWEEPS[variable])
        run_sweep(cfg, spec)
        assert spec.schemes == SCHEMES
        assert (len(calls["hypot"]), len(calls["pow"])) == (0, spec.ue_samples)

    @pytest.mark.parametrize("variable", sorted(SWEEPS))
    def test_each_record_equals_a_one_value_sweep(self, cfg, variable):
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


# sha256 of the fig1 and fig2 CSVs at seed 0 with 1,000 users, recorded when every mean was a
# plain math.fsum: any change to a mean's last bit, or to the CSV format, shows here.  fig1's was
# re-recorded when the pinch root took its cancellation-free form: its 26 dB proposed mean moved by rounding.
# All three were re-recorded when the direct link's ground distance and distance loss became IEEE operators
# and a square root in place of math.hypot and math.pow(d, -4): two of fig1's benchmark1 means and one of
# fig2's moved by rounding.
GOLDEN_SWEEPS = {
    "fig1": (
        ["--var", "gamma0", "--values", "10:2:30dB"],
        "bba17e7100d5cfdb792ee53eb09864d1e8456e0de2f9326a989f0f181c9788c8",
    ),
    # recorded while a lossless waveguide had a placement branch of its own: the general rule gives its bytes
    "fig1-lossless": (
        ["--var", "gamma0", "--values", "10:2:30dB", "--alpha-d", "0"],
        "7d50158b0c4d2479a5a70560c9f503a0700a8ef25a06a91e94d6654954890089",
    ),
    "fig2": (
        ["--var", "d1", "--values", "30:10:100"],
        "13b212938e09b064e7726b6e533618247507e86b392b7dea39a793e9f48cdcb5",
    ),
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_SWEEPS))
def test_figure_csv_bytes_are_the_recorded_ones_with_no_fsum_fallback(tmp_path, capsys, monkeypatch, figure):
    argv, sha256 = GOLDEN_SWEEPS[figure]
    fallbacks, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: fallbacks.append(values) or fsum(values))
    out = tmp_path / f"{figure}.csv"
    assert cli_main(["sweep", *argv, "--samples", "1000", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    assert fallbacks == []  # exact_sum certified every mean without math.fsum


# fig2's CSV is shorter than fig1's: each is written over the other, a longer and then a shorter file, at
# the default seed, 0; no numpy RuntimeWarning from the kernel or the exact sums reaches stderr
@pytest.mark.parametrize("first, second", [("fig1", "fig2"), ("fig2", "fig1")])
def test_a_sweep_over_another_figures_csv_leaves_the_recorded_bytes(tmp_path, capsys, first, second):
    out = tmp_path / "fig.csv"
    for figure in (first, second):
        assert cli_main(["sweep", *GOLDEN_SWEEPS[figure][0], "--samples", "1000", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEPS[second][1]


# a value's means are summed together, yet each is math.fsum's: leaving a scheme out changes no other row
@pytest.mark.parametrize("figure, schemes", [("fig1", "proposed,benchmark2"), ("fig1", "benchmark1"), ("fig2", "proposed")])
def test_a_scheme_subset_writes_exactly_its_rows_of_the_full_csv(tmp_path, capsys, figure, schemes):
    full, subset = tmp_path / "full.csv", tmp_path / "subset.csv"
    argv = ["sweep", *GOLDEN_SWEEPS[figure][0], "--samples", "1000"]
    assert cli_main([*argv, "--out", str(full)]) == 0
    assert cli_main([*argv, "--schemes", schemes, "--out", str(subset)]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = full.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [row for row in rows if row.split(",")[1] in schemes.split(",")]
    assert subset.read_text(encoding="utf-8") == "".join([header, *kept])


@pytest.mark.parametrize(
    "argv",
    [
        ["--var", "gamma0", "--values", "10:2:30dB", "--samples", "1", "--out", "fig1-1.csv"],
        # a lossless waveguide runs the general placement, whose root is x_ue there
        ["--var", "gamma0", "--values", "10:2:30dB", "--samples", "1000", "--alpha-d", "0", "--out", "lossless.csv"],
        # the direct link's operator forms at the domain's corners: d1 at both ends, with the widest coverage
        # at the highest frequency and the narrowest at the lowest; no warning from the squares or the reciprocal
        [
            *("--var", "d1", "--values", "0.1,1e5", "--samples", "2000"),
            *("--coverage-x", "1e5", "--coverage-y", "1e5", "--freq", "1e13", "--out", "far.csv"),
        ],
        [
            *("--var", "d1", "--values", "0.1,1e5", "--samples", "2000"),
            *("--coverage-x", "1e-2", "--coverage-y", "1e-2", "--freq", "1e8", "--out", "near.csv"),
        ],
        # a character device reports size 0, so it is written and never truncated
        ["--var", "gamma0", "--values", "10:2:30dB", "--samples", "1000", "--out", os.devnull],
    ],
    ids=" ".join,
)
def test_a_sweep_writes_nothing_to_stderr(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sweep", *argv]) == 0
    assert capsys.readouterr().err == ""


class TestCsv:
    # what was at the path before: nothing, a shorter file, one as long with other bytes, a longer one
    @pytest.mark.parametrize(
        "before",
        [None, lambda data: data[: len(data) // 2], lambda data: data[::-1], lambda data: data + b"stale,row\n" * 100],
        ids=["none", "shorter", "as-long", "longer"],
    )
    def test_a_write_leaves_the_bytes_of_a_fresh_write(self, cfg, tmp_path, before):
        records = run_sweep(cfg, small_spec(ue_samples=5))
        fresh, path = tmp_path / "fresh.csv", tmp_path / "sweep.csv"
        export_csv(records, fresh)
        expected = fresh.read_bytes()
        if before is not None:
            path.write_bytes(before(expected))
        export_csv(records, path)
        assert path.read_bytes() == expected

    def test_a_new_file_gets_the_mode_write_text_gives(self, tmp_path):
        export_csv([], tmp_path / "a.csv")
        (tmp_path / "b.csv").write_text("b\n", encoding="utf-8")
        assert stat.S_IMODE((tmp_path / "a.csv").stat().st_mode) == stat.S_IMODE((tmp_path / "b.csv").stat().st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_a_fifo_receives_the_exact_bytes(self, cfg, tmp_path):
        records = run_sweep(cfg, small_spec(ue_samples=5))
        fresh, fifo = tmp_path / "fresh.csv", tmp_path / "pipe.csv"
        export_csv(records, fresh)
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        export_csv(records, fifo)
        reader.join(timeout=10.0)
        assert not reader.is_alive() and received == [fresh.read_bytes()]

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

    def test_a_leading_byte_order_mark_is_read_past(self, cfg, tmp_path):
        records = run_sweep(cfg, small_spec(ue_samples=10))
        path = tmp_path / "sweep.csv"
        export_csv(records, path)
        assert not path.read_bytes().startswith(codecs.BOM_UTF8)  # the writer adds none
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert read_csv(marked) == read_csv(path)

    def test_wrong_header_names_the_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        message = f"unexpected CSV header in {path}: ['a', 'b']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_csv(path)

    def test_unreadable_file_names_the_path(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(OSError, match=f"^{re.escape(f'cannot read sweep CSV from {path}: ')}"):
            read_csv(path)

    def test_a_file_that_is_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"variable,scheme,mean_total_power_w,mean_bs_power_w,n_samples\n20,propos\xe9d,0.5,0.01,7\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'cannot read sweep CSV from {path}: ')}") as info:
            read_csv(path)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("20,proposed,0.5,0.01", "expected 5, got 4"),
            ("20,proposed,0.5,0.01,7,9", "too many values"),
            ("20,proposed,half,0.01,7", "could not convert"),
            ("20,proposed,0.5,0.01,7.5", "invalid literal for int"),
            ("20,warp,0.5,0.01,7", "unknown scheme 'warp'"),
            # rows export_csv never writes: each would overwrite or split a record
            ("20,benchmark2,0.5,0.01,7", "scheme 'benchmark2' repeats within its value"),
            ("10,proposed,0.5,0.01,7", "value 10.0 is not above the previous one, 20.0"),
            ("20,proposed,0.5,0.01,8", "n_samples 8 differs from its value's first row's 7"),
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

    def test_a_write_that_fails_part_way_leaves_the_old_bytes_or_none(self, tmp_path):
        # the seed-1 sweep runs in a child whose file-size limit stops its CSV half way over the seed-0 one
        pytest.importorskip("resource")
        out = tmp_path / "fig1.csv"
        argv = ["sweep", *GOLDEN_SWEEPS["fig1"][0], "--samples", "1000", "--out", str(out)]
        assert cli_main([*argv, "--seed", "1"]) == 0
        new = out.read_bytes()
        assert cli_main([*argv, "--seed", "0"]) == 0
        old = out.read_bytes()
        limit = len(old) // 2
        assert new != old and len(new) > limit
        code = (
            "import resource, sys, pinchrelay.cli, pinchrelay.kernel\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "sys.exit(pinchrelay.cli.cli_main(sys.argv[2:]))"
        )
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", code, str(limit), *argv, "--seed", "1"], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 1 and "cannot write sweep CSV" in child.stderr, child.stderr
        assert out.read_bytes() in (b"", old)

    def test_write_error_carries_the_path(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            export_csv([], missing_dir)

    def test_a_failed_script_write_names_the_script(self, tmp_path):
        script = tmp_path / "nope" / "fig.gp"
        with pytest.raises(OSError, match=f"^{re.escape(f'cannot write gnuplot script to {script}: ')}"):
            write_gnuplot_script(tmp_path / "fig.csv", script, "SNR target [dB]")

    def test_gnuplot_companion_script(self, cfg, tmp_path):
        csv_path = tmp_path / "fig.csv"
        export_csv(run_sweep(cfg, small_spec(ue_samples=5)), csv_path)
        script = tmp_path / "fig.gp"
        write_gnuplot_script(csv_path, script, "SNR target [dB]")
        text = script.read_text(encoding="utf-8")
        assert "fig.csv" in text
        for scheme in ("proposed", "benchmark1", "benchmark2"):
            assert scheme in text

    def test_gnuplot_script_over_a_longer_file_is_the_fresh_script(self, tmp_path):
        fresh, script = tmp_path / "fresh.gp", tmp_path / "fig.gp"
        write_gnuplot_script(tmp_path / "fig.csv", fresh, "SNR target [dB]", ("proposed",))
        write_gnuplot_script(tmp_path / "fig.csv", script, "SNR target [dB]")  # three schemes: a longer script
        write_gnuplot_script(tmp_path / "fig.csv", script, "SNR target [dB]", ("proposed",))
        assert script.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "name, quoted",
        [("fig.csv", "'fig.csv'"), ('a"b.csv', "'a\"b.csv'"), ("a\\b.csv", "'a\\b.csv'"), ("it's.csv", "'it''s.csv'")],
    )
    def test_gnuplot_script_quotes_the_csv_name(self, tmp_path, name, quoted):
        script = tmp_path / "fig.gp"
        write_gnuplot_script(tmp_path / name, script, "SNR target [dB]", ("proposed",))
        plot = script.read_text(encoding="utf-8").splitlines()[-1]
        assert plot.startswith(f"  {quoted} skip 1 using 1:")

    @pytest.mark.parametrize("name", ["a\nb.csv", "a\rb.csv"])
    def test_gnuplot_script_rejects_a_line_break_in_the_csv_name(self, tmp_path, name):
        script = tmp_path / "fig.gp"
        message = f"a gnuplot string cannot hold the line break in the CSV name {name!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_gnuplot_script(tmp_path / name, script, "SNR target [dB]", ("proposed",))
        assert not script.exists()
