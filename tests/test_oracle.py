"""Brute-force oracles: placement grid search, constraint-curve power grid, reports."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pinchrelay import (
    ChannelGains,
    SystemConfig,
    UePosition,
    channel_gains,
    grid_power_min_2d,
    grid_search_pin,
    numeric_power_min,
    optimal_pin_position,
    optimal_power_allocation,
    pin_objective,
    verify_scenario,
)


def symmetric_toy():
    cfg = SystemConfig(pa_efficiency=1.0, snr_target_linear=1.0)
    gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
    return gains, cfg


class TestGridSearchPin:
    def test_two_point_grid(self, cfg, ue_mid):
        x_best, f_best = grid_search_pin(cfg, ue_mid, cfg.waveguide_length_m)
        assert x_best in (0.0, cfg.waveguide_length_m)
        expected = max(pin_objective(cfg, ue_mid, 0.0), pin_objective(cfg, ue_mid, 30.0))
        assert f_best == pytest.approx(expected, rel=1e-12)

    def test_default_scenario(self, cfg, ue_mid):
        x_best, _ = grid_search_pin(cfg, ue_mid, 1e-3)
        root = math.sqrt(1.0 - 1e-4 * 34.0)
        assert abs(x_best - (15.0 - (1.0 - root) / 0.01)) <= 1e-3

    def test_no_attenuation_peak_under_the_user(self, ue_mid):
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        x_best, _ = grid_search_pin(cfg, ue_mid, 1e-3)
        assert 14.999 <= x_best <= 15.001

    def test_tie_breaks_to_smaller_x(self):
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        # grid {0, 10, 20, 30}: f(10) == f(20) exactly by symmetry around x_ue = 15
        x_best, _ = grid_search_pin(cfg, UePosition(15.0, 5.0), 10.0)
        assert x_best == 10.0

    @pytest.mark.parametrize("step", [0.0, -1.0, 30.0001])
    def test_rejects_bad_steps(self, cfg, ue_mid, step):
        with pytest.raises(ValueError):
            grid_search_pin(cfg, ue_mid, step)

    def test_never_beats_the_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cfg = SystemConfig(
                waveguide_attenuation_per_m=float(10.0 ** rng.uniform(-4, -1)),
                waveguide_height_m=float(rng.uniform(1.0, 10.0)),
                waveguide_length_m=float(rng.uniform(5.0, 50.0)),
            )
            ue = UePosition(float(rng.uniform(-10.0, 50.0)), float(rng.uniform(0.0, 20.0)))
            f_closed = pin_objective(cfg, ue, optimal_pin_position(cfg, ue))
            _, f_grid = grid_search_pin(cfg, ue, 1e-2)
            assert f_grid <= f_closed * (1.0 + 1e-12)


class TestNumericPowerMin:
    def test_symmetric_toy(self):
        gains, cfg = symmetric_toy()
        _, _, j_best = numeric_power_min(gains, cfg)
        assert j_best == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-5)

    def test_matches_closed_form_at_defaults(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, optimal_pin_position(cfg, ue_mid))
        _, _, j_best = numeric_power_min(gains, cfg)
        _, _, j_closed = optimal_power_allocation(gains, cfg)
        assert abs(j_closed - j_best) <= 1e-3 * j_best

    def test_never_undercuts_the_true_minimum(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        _, _, j_best = numeric_power_min(gains, cfg)
        _, _, j_closed = optimal_power_allocation(gains, cfg)
        assert j_best >= j_closed * (1.0 - 1e-9)

    def test_refining_a_nested_grid_never_hurts(self):
        gains, cfg = symmetric_toy()
        floor = cfg.snr_target_linear * gains.sigma_r_sq_w / gains.g1_sq
        coarse = np.logspace(math.log10(floor * (1.0 + 1e-6)), math.log10(100.0), 101)
        midpoints = np.sqrt(coarse[:-1] * coarse[1:])
        fine = np.sort(np.concatenate([coarse, midpoints]))  # strict superset of the coarse grid
        _, _, j_coarse = numeric_power_min(gains, cfg, coarse)
        _, _, j_fine = numeric_power_min(gains, cfg, fine)
        assert j_fine <= j_coarse

    def test_returns_a_constraint_consistent_pair(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        p1, beta_sq, j_best = numeric_power_min(gains, cfg)
        gamma0 = cfg.snr_target_linear
        required = gamma0 * gains.sigma_ue_sq_w / (gains.g2_sq * (p1 * gains.g1_sq - gamma0 * gains.sigma_r_sq_w))
        assert beta_sq == pytest.approx(required, rel=1e-12)
        assert j_best == pytest.approx(
            cfg.pa_efficiency * p1 + beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w), rel=1e-12
        )

    def test_rejects_bad_grids(self):
        gains, cfg = symmetric_toy()
        with pytest.raises(ValueError):
            numeric_power_min(gains, cfg, [])
        floor = cfg.snr_target_linear * gains.sigma_r_sq_w / gains.g1_sq
        with pytest.raises(ValueError):
            numeric_power_min(gains, cfg, [0.5 * floor, 2.0 * floor])

    def test_deterministic(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        assert numeric_power_min(gains, cfg) == numeric_power_min(gains, cfg)


class TestGridPowerMin2d:
    def test_agrees_with_closed_form(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, optimal_pin_position(cfg, ue_mid))
        p1_ref, beta_ref, _ = numeric_power_min(gains, cfg)
        p1_grid = np.logspace(math.log10(p1_ref / 3.0), math.log10(p1_ref * 3.0), 501)
        beta_grid = np.logspace(math.log10(beta_ref / 5.0), math.log10(beta_ref * 5.0), 501)
        _, _, j_2d = grid_power_min_2d(gains, cfg, p1_grid, beta_grid)
        _, _, j_closed = optimal_power_allocation(gains, cfg)
        assert abs(j_2d - j_closed) <= 1e-2 * j_closed
        assert j_2d >= j_closed * (1.0 - 1e-9)

    def test_rejects_empty_or_infeasible_grids(self):
        gains, cfg = symmetric_toy()
        with pytest.raises(ValueError):
            grid_power_min_2d(gains, cfg, [], [1.0])
        # below the power floor no relay gain can reach the target
        floor = cfg.snr_target_linear * gains.sigma_r_sq_w / gains.g1_sq
        with pytest.raises(ValueError):
            grid_power_min_2d(gains, cfg, [0.5 * floor], np.logspace(-3, 3, 50))


class TestVerifyScenario:
    def test_defaults_pass(self, cfg, ue_mid):
        position, power = verify_scenario(cfg, ue_mid)
        assert position.passed and power.passed
        assert position.rel_gap <= 1e-10
        assert power.rel_gap <= 1e-3

    def test_perturbed_position_fails(self, cfg, ue_mid, monkeypatch):
        shifted = lambda config, ue: optimal_pin_position(config, ue) + 1.0  # noqa: E731
        monkeypatch.setattr("pinchrelay.oracle.optimal_pin_position", shifted)
        position, _ = verify_scenario(cfg, ue_mid)
        assert not position.passed
        assert position.rel_gap > 1e-6

    def test_decreasing_gain_scenario(self, cfg):
        ue = UePosition(15.0, 100.0)
        assert optimal_pin_position(cfg, ue) == 0.0
        position, power = verify_scenario(cfg, ue)
        assert position.passed and power.passed

    def test_report_invariants(self, cfg, ue_mid):
        position, power = verify_scenario(cfg, ue_mid)
        for report, tol in ((position, 1e-10), (power, 1e-3)):
            assert report.passed == (report.rel_gap <= tol)
            assert report.abs_gap == pytest.approx(abs(report.closed_form_value - report.oracle_value))
        # maximization oracle can only fall short of the closed form
        assert position.oracle_value <= position.closed_form_value * (1.0 + 1e-12)
        # minimization oracle cannot undercut the true minimum by more than float noise
        assert power.oracle_value >= power.closed_form_value * (1.0 - 1e-9)

    def test_deterministic(self, cfg, ue_mid):
        assert verify_scenario(cfg, ue_mid) == verify_scenario(cfg, ue_mid)

    def test_randomized_scenarios_pass(self, cfg):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scenario = replace(
                cfg,
                waveguide_attenuation_per_m=float(10.0 ** rng.uniform(-4, -1.3)),
                bs_relay_distance_m=float(rng.uniform(30.0, 100.0)),
                snr_target_linear=float(10.0 ** rng.uniform(0.5, 3.0)),
                pa_efficiency=float(rng.uniform(0.7, 1.0)),
            )
            ue = UePosition(
                float(rng.uniform(0.0, scenario.coverage_x_m)),
                float(rng.uniform(0.0, scenario.coverage_y_m)),
            )
            position, power = verify_scenario(scenario, ue)
            assert position.passed and power.passed
