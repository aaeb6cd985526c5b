"""Benchmark schemes: direct massive-array link and fixed-antenna relay link."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pinchrelay import (
    Benchmark1Config,
    UePosition,
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
    solve,
)
from pinchrelay.model import free_space_gain, relay_ue_gain

NO_SHADOW = 0.0


class TestBenchmark1:
    def test_friis_consistency(self, cfg):
        # d1 = 50 m plus a user 30 m down the waveguide axis: an 80 m direct path
        assert cfg.bs_relay_distance_m == 50.0
        b1 = Benchmark1Config(num_elements=1, element_gain_dbi=0.0, path_loss_exponent=2.0, shadowing_std_db=0.0)
        tx = benchmark1_tx_power_w(cfg, b1, 30.0, 0.0, NO_SHADOW)
        expected = cfg.snr_target_linear * cfg.ue_noise_w / free_space_gain(80.0, cfg.carrier_frequency_hz)
        assert tx == pytest.approx(expected, rel=1e-12)

    def test_rf_chain_floor(self, cfg):
        b1 = Benchmark1Config()
        # direct paths of 30, 65 and 130 m
        for d1, x_ue in ((30.0, 0.0), (50.0, 15.0), (100.0, 30.0)):
            near = replace(cfg, bs_relay_distance_m=d1)
            for shadow_db in (-10.0, 0.0, 10.0):
                total = benchmark1_total_power_w(near, b1, benchmark1_tx_power_w(near, b1, x_ue, 0.0, shadow_db))
                assert total > 64 * 0.1

    def test_shadowing_shifts_power_in_db(self, cfg):
        b1 = Benchmark1Config()
        boosted = benchmark1_tx_power_w(cfg, b1, 15.0, 0.0, 0.0)
        faded = benchmark1_tx_power_w(cfg, b1, 15.0, 0.0, 10.0)
        assert boosted / faded == pytest.approx(10.0, rel=1e-12)

    def test_array_gain_exponent_setting(self, cfg):
        linear = Benchmark1Config(array_gain_exponent=1.0)
        coherent = Benchmark1Config(array_gain_exponent=2.0)
        ratio = benchmark1_tx_power_w(cfg, linear, 15.0, 0.0, NO_SHADOW) / benchmark1_tx_power_w(
            cfg, coherent, 15.0, 0.0, NO_SHADOW
        )
        assert ratio == pytest.approx(64.0, rel=1e-12)

    def test_default_geometry(self, cfg):
        # the direct path is d1 plus the ground distance from the feed to the user
        b1 = Benchmark1Config()
        at_feed = benchmark1_tx_power_w(cfg, b1, 0.0, 0.0, NO_SHADOW)
        assert benchmark1_tx_power_w(replace(cfg, bs_relay_distance_m=20.0), b1, 30.0, 0.0, NO_SHADOW) == at_feed
        far = benchmark1_tx_power_w(cfg, b1, 30.0, 10.0, NO_SHADOW)
        assert far / at_feed == pytest.approx(((50.0 + math.hypot(30.0, 10.0)) / 50.0) ** 4, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_elements": 0},
            {"path_loss_exponent": 1.5},
            {"shadowing_std_db": -1.0},
            {"reference_distance_m": 0.0},
            {"array_gain_exponent": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            Benchmark1Config(**kwargs)

    def test_mean_power_reproducible(self, cfg):
        b1 = Benchmark1Config()

        def mean_total(seed: int) -> float:
            draws = np.random.default_rng(seed).normal(0.0, b1.shadowing_std_db, 100_000)
            totals = benchmark1_total_power_w(cfg, b1, benchmark1_tx_power_w(cfg, b1, 15.0, 5.0, draws))
            return math.fsum(totals.tolist()) / totals.size

        assert mean_total(5) == mean_total(5)
        assert abs(mean_total(5) - mean_total(6)) <= 0.01 * mean_total(5)


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
