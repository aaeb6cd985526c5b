"""Benchmark schemes: direct massive-array link and fixed-antenna relay link."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchrelay import (
    SystemConfig,
    UePosition,
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
    db_to_linear,
    solve,
)
from pinchrelay.benchmarks import NUM_ELEMENTS, PATH_LOSS_EXPONENT, SHADOWING_STD_DB
from pinchrelay.kernel import _EVALUATORS, SampleError
from pinchrelay.model import SPEED_OF_LIGHT_M_S, free_space_gain, relay_ue_gain

NO_SHADOW = 0.0


class TestBenchmark1:
    def test_friis_consistency(self, cfg):
        # d1 = 50 m plus a user 30 m down the waveguide axis: an 80 m direct path,
        # free space up to the 1 m anchor and exponent-4 decay beyond it
        assert cfg.bs_relay_distance_m == 50.0
        anchor = (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * cfg.carrier_frequency_hz)) ** 2
        gain = NUM_ELEMENTS * db_to_linear(2.15) * anchor * 80.0**-PATH_LOSS_EXPONENT
        tx = benchmark1_tx_power_w(cfg, 30.0, 0.0, NO_SHADOW)
        assert tx == pytest.approx(cfg.snr_target_linear * cfg.ue_noise_w / gain, rel=1e-12)

    def test_rf_chain_floor(self, cfg):
        # direct paths of 30, 65 and 130 m
        for d1, x_ue in ((30.0, 0.0), (50.0, 15.0), (100.0, 30.0)):
            near = replace(cfg, bs_relay_distance_m=d1)
            for shadow_db in (-10.0, 0.0, 10.0):
                total = benchmark1_total_power_w(near, benchmark1_tx_power_w(near, x_ue, 0.0, shadow_db))
                assert total > 64 * 0.1

    def test_shadowing_shifts_power_in_db(self, cfg):
        boosted = benchmark1_tx_power_w(cfg, 15.0, 0.0, 0.0)
        faded = benchmark1_tx_power_w(cfg, 15.0, 0.0, 10.0)
        assert boosted / faded == pytest.approx(10.0, rel=1e-12)

    def test_default_geometry(self, cfg):
        # the direct path is d1 plus the ground distance from the feed to the user
        at_feed = benchmark1_tx_power_w(cfg, 0.0, 0.0, NO_SHADOW)
        assert benchmark1_tx_power_w(replace(cfg, bs_relay_distance_m=20.0), 30.0, 0.0, NO_SHADOW) == at_feed
        far = benchmark1_tx_power_w(cfg, 30.0, 10.0, NO_SHADOW)
        assert far / at_feed == pytest.approx(((50.0 + math.hypot(30.0, 10.0)) / 50.0) ** 4, rel=1e-12)

    def test_mean_power_reproducible(self, cfg):
        def mean_total(seed: int) -> float:
            draws = np.random.default_rng(seed).normal(0.0, SHADOWING_STD_DB, 100_000)
            totals = benchmark1_total_power_w(cfg, benchmark1_tx_power_w(cfg, 15.0, 5.0, draws))
            return math.fsum(totals.tolist()) / totals.size

        assert mean_total(5) == mean_total(5)
        assert abs(mean_total(5) - mean_total(6)) <= 0.01 * mean_total(5)

    @pytest.mark.parametrize("field", ["bs_relay_distance_m", "carrier_frequency_hz"])
    def test_underflowing_link_gain_is_a_named_error(self, cfg, field):
        far = replace(cfg, **{field: 1e300})
        message = re.escape(
            "link budget out of range on the direct link: gain 0.0 at "
            f"bs_relay_distance_m={far.bs_relay_distance_m!r}, carrier_frequency_hz={far.carrier_frequency_hz!r}"
        )
        with pytest.raises(ValueError, match=message):
            benchmark1_tx_power_w(far, 15.0, 5.0, NO_SHADOW)
        # arrays fail the same way, naming the first user, with no numpy warning on the way
        xs = np.array([0.0, 15.0, 30.0])
        with pytest.raises(SampleError, match=message) as raised:
            benchmark1_tx_power_w(far, xs, np.full(3, 5.0), np.zeros(3))
        assert raised.value.index == 0

    def test_overflowing_link_gain_is_a_named_error(self, cfg):
        # a vanishing carrier makes the free-space anchor, and so the gain, inf
        low = replace(cfg, carrier_frequency_hz=1e-300)
        message = re.escape("link budget out of range on the direct link: gain inf at ")
        with pytest.raises(ValueError, match=message):
            benchmark1_tx_power_w(low, 15.0, 5.0, NO_SHADOW)
        with pytest.raises(SampleError, match=message) as raised:
            benchmark1_tx_power_w(low, np.array([0.0, 15.0]), np.full(2, 5.0), np.zeros(2))
        assert raised.value.index == 0

    @pytest.mark.parametrize(
        "x_ue, d1, shadow_db",
        [(0.0, 1e-100, NO_SHADOW), (15.0, 50.0, 4000.0)],
        ids=["path-loss-pow", "shadowing-pow"],
    )
    def test_overflowing_pow_is_a_named_error(self, cfg, x_ue, d1, shadow_db):
        # pow(d, -4) of a direct path under 1e-77 m, or pow(10, s / 10) of a
        # shadowing draw over 3083 dB, leaves the float range inside libm
        cfg = replace(cfg, bs_relay_distance_m=d1)
        message = re.escape(f"link budget out of range on the direct link: gain inf at bs_relay_distance_m={d1!r}, ")
        with pytest.raises(SampleError, match=message):
            benchmark1_tx_power_w(cfg, x_ue, 0.0, shadow_db)
        # arrays name the first user at fault; the one before it is in range
        xs, shadows = np.array([30.0, x_ue, x_ue]), np.array([NO_SHADOW, shadow_db, shadow_db])
        with pytest.raises(SampleError, match=message) as raised:
            benchmark1_tx_power_w(cfg, xs, np.zeros(3), shadows)
        assert raised.value.index == 1

    @pytest.mark.parametrize(
        "arg, value, gain",
        [
            (0, math.nan, "nan"),
            (1, math.nan, "nan"),
            (2, math.nan, "nan"),
            (0, math.inf, "0.0"),
            (1, math.inf, "0.0"),
            (2, -math.inf, "0.0"),
            (2, math.inf, "inf"),
        ],
        ids=["x-nan", "y-nan", "shadow-nan", "x-inf", "y-inf", "shadow--inf", "shadow-inf"],
    )
    def test_out_of_range_user_input_is_a_named_error(self, cfg, arg, value, gain):
        # arg = which of (x_ue_m, y_ue_m, shadow_db) is out of range
        message = re.escape(f"link budget out of range on the direct link: gain {gain} at ")
        floats = [15.0, 5.0, NO_SHADOW]
        floats[arg] = value
        with pytest.raises(ValueError, match=message):
            benchmark1_tx_power_w(cfg, *floats)
        # in arrays the bad input sits at the second user, which the error names
        arrays = [np.array([x, x, x]) for x in (15.0, 5.0, NO_SHADOW)]
        arrays[arg][1] = value
        with pytest.raises(SampleError, match=message) as raised:
            benchmark1_tx_power_w(cfg, *arrays)
        assert raised.value.index == 1

    @pytest.mark.parametrize(
        "frequency, d1, x_ue, y_ue, shadow_db",
        [
            (3.5e9, 10.0, 0.0, 0.0, 0.0),
            (28e9, 50.0, 15.0, 5.0, -6.0),
            (60e9, 200.0, 30.0, 10.0, 8.0),
            (140e9, 1.0, 3.0, 4.0, 2.5),
            (28e9, 1e3, 0.0, 10.0, -3.3),
        ],
    )
    def test_link_budget_matches_a_written_out_one(self, cfg, frequency, d1, x_ue, y_ue, shadow_db):
        # 64 elements of 2.15 dBi, free space to 1 m, exponent 4 beyond, shadowing in dB
        cfg = replace(cfg, carrier_frequency_hz=frequency, bs_relay_distance_m=d1)
        wavelength = SPEED_OF_LIGHT_M_S / frequency
        distance = d1 + math.sqrt(x_ue * x_ue + y_ue * y_ue)
        gain = 64 * 10.0 ** 0.215 * (wavelength / (4.0 * math.pi)) ** 2 / distance**4 * 10.0 ** (shadow_db / 10.0)
        tx = benchmark1_tx_power_w(cfg, x_ue, y_ue, shadow_db)
        assert tx == pytest.approx(cfg.snr_target_linear * cfg.ue_noise_w / gain, rel=1e-12)

    @pytest.mark.parametrize("pa_efficiency", [0.1, 0.35, 1.0])
    def test_total_power_is_pa_draw_plus_rf_chains(self, cfg, pa_efficiency):
        # 64 RF chains of 0.1 W each; the relay-side circuit and BS chain terms do not apply
        cfg = replace(cfg, pa_efficiency=pa_efficiency)
        tx = benchmark1_tx_power_w(cfg, 15.0, 5.0, NO_SHADOW)
        assert benchmark1_total_power_w(cfg, tx) == tx / pa_efficiency + 64 * 0.1
        txs = benchmark1_tx_power_w(cfg, np.array([0.0, 15.0, 30.0]), np.array([0.0, 5.0, 10.0]), np.zeros(3))
        assert benchmark1_total_power_w(cfg, txs).tolist() == [t / pa_efficiency + 64 * 0.1 for t in txs.tolist()]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("waveguide_attenuation_per_m", 0.3),
            ("waveguide_height_m", 7.0),
            ("waveguide_length_m", 40.0),
            ("horn_gain_tx_dbi", 30.0),
            ("horn_gain_rx_dbi", 5.0),
            ("relay_circuit_power_w", 2.0),
            ("bs_rf_chain_power_w", 1.0),
            ("noise_figure_db", 3.0),
        ],
    )
    def test_reads_no_relay_or_waveguide_field(self, cfg, field, value):
        # the direct scheme has no relay: with the terminal's own noise figure set,
        # no relay, waveguide or relay-noise field may move its powers
        base = replace(cfg, ue_noise_figure_db=7.0)
        changed = replace(base, **{field: value})
        assert getattr(changed, field) != getattr(base, field)
        rng = np.random.default_rng(11)
        xs, ys, shadows = rng.uniform(0.0, 30.0, 50), rng.uniform(0.0, 10.0, 50), rng.normal(0.0, SHADOWING_STD_DB, 50)
        tx = benchmark1_tx_power_w(base, xs, ys, shadows)
        assert benchmark1_tx_power_w(changed, xs, ys, shadows).tolist() == tx.tolist()
        assert benchmark1_total_power_w(changed, tx).tolist() == benchmark1_total_power_w(base, tx).tolist()


class TestBenchmark2:
    def test_matches_feed_pinned_antenna_at_origin(self, cfg):
        ue = UePosition(0.0, 0.0)
        fixed = free_space_gain(cfg.waveguide_height_m, cfg.carrier_frequency_hz)
        assert relay_ue_gain(cfg, ue, 0.0) == fixed  # attenuation factor is exactly 1 at the feed
        sol = benchmark2_power(cfg, ue)
        adjustable = solve(cfg, ue)
        assert adjustable.x_pin_m == 0.0
        assert sol.total_power_w == adjustable.total_power_w
        assert sol.p1_w == adjustable.p1_w

    def test_dominated_by_adjustable_antenna(self, cfg):
        ue = UePosition(15.0, 5.0)
        assert solve(cfg, ue).total_power_w <= benchmark2_power(cfg, ue).total_power_w

    def test_dominance_over_random_users(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ue = UePosition(float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 10.0)))
            adjustable = solve(cfg, ue)
            fixed = benchmark2_power(cfg, ue)
            g2_adjustable = relay_ue_gain(cfg, ue, adjustable.x_pin_m)
            g2_fixed = free_space_gain(
                math.sqrt(ue.x_ue_m**2 + ue.y_ue_m**2 + cfg.waveguide_height_m**2),
                cfg.carrier_frequency_hz,
            )
            assert g2_adjustable >= g2_fixed * (1.0 - 1e-12)
            assert adjustable.total_power_w <= fixed.total_power_w * (1.0 + 1e-12)

    @given(
        alpha=st.floats(min_value=1e-5, max_value=1.0),
        gamma0_db=st.floats(min_value=-20.0, max_value=60.0),
        d1=st.floats(min_value=1.0, max_value=1e4),
        x_ue=st.floats(min_value=0.0, max_value=30.0),
        y_ue=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_dominated_per_user_on_both_paths(self, alpha, gamma0_db, d1, x_ue, y_ue, seed):
        cfg = SystemConfig(
            waveguide_attenuation_per_m=alpha, snr_target_linear=db_to_linear(gamma0_db), bs_relay_distance_m=d1
        )
        ue = UePosition(x_ue, y_ue)
        assert solve(cfg, ue).total_power_w <= benchmark2_power(cfg, ue).total_power_w
        rng = np.random.default_rng(seed)
        xs, ys = rng.uniform(0.0, 30.0, 200), rng.uniform(0.0, 10.0, 200)
        adjustable, _ = _EVALUATORS["proposed"](cfg, xs, ys, np.zeros(200))
        fixed, _ = _EVALUATORS["benchmark2"](cfg, xs, ys, np.zeros(200))
        assert np.all(adjustable <= fixed)

    def test_monotone_in_snr_target(self, cfg):
        ue = UePosition(15.0, 5.0)
        totals = [
            benchmark2_power(replace(cfg, snr_target_linear=g0), ue).total_power_w
            for g0 in (10.0, 100.0, 1000.0)
        ]
        assert totals[0] < totals[1] < totals[2]

    def test_reports_feed_position(self, cfg):
        sol = benchmark2_power(cfg, UePosition(15.0, 5.0))
        assert sol.x_pin_m == 0.0
        assert sol.total_power_w == pytest.approx(
            sol.j_star_w / cfg.pa_efficiency + cfg.relay_circuit_power_w + cfg.bs_rf_chain_power_w, rel=1e-12
        )
