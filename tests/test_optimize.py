"""Closed-form placement and power split, cross-checked against brute force."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchrelay import (
    ChannelGains,
    SystemConfig,
    UePosition,
    af_snr,
    benchmark2_power,
    channel_gains,
    grid_search_pin,
    optimal_pin_position,
    optimal_power_allocation,
    pin_objective,
    solve,
)
from pinchrelay.kernel import _EVALUATORS, optimal_pin_positions, relay_ue_gains
from pinchrelay.model import SPEED_OF_LIGHT_M_S, relay_ue_gain
from pinchrelay.optimize import stationary_points

C = SPEED_OF_LIGHT_M_S


def symmetric_toy():
    cfg = SystemConfig(pa_efficiency=1.0, snr_target_linear=1.0)
    gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
    return gains, cfg


class TestPinObjective:
    def test_peak_without_attenuation(self):
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        ue = UePosition(15.0, 5.0)
        assert pin_objective(cfg, ue, 15.0) == pytest.approx(1.0 / 34.0, rel=1e-15)

    def test_feed_point_value(self, cfg, ue_mid):
        assert pin_objective(cfg, ue_mid, 0.0) == pytest.approx(1.0 / 259.0, rel=1e-15)
        assert pin_objective(cfg, ue_mid, 0.0) == pytest.approx(3.861e-3, rel=1e-3)

    def test_proportional_to_link_gain(self, cfg, ue_mid):
        constant = 16.0 * math.pi**2 * cfg.carrier_frequency_hz**2 / C**2
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, cfg.waveguide_length_m, 100):
            ratio = pin_objective(cfg, ue_mid, float(x)) / relay_ue_gain(cfg, ue_mid, float(x))
            assert ratio == pytest.approx(constant, rel=1e-12)


class TestStationaryPoints:
    def test_default_scenario(self, cfg, ue_mid):
        analysis = stationary_points(cfg, ue_mid)
        assert analysis.c_const == pytest.approx(34.0, rel=1e-15)
        assert analysis.delta == pytest.approx(4.0 - 4e-4 * 34.0, rel=1e-12)
        root = math.sqrt(1.0 - 1e-4 * 34.0)
        assert analysis.x1_m == pytest.approx(15.0 - (1.0 + root) / 0.01, rel=1e-12)
        assert analysis.x2_m == pytest.approx(15.0 - (1.0 - root) / 0.01, rel=1e-9)
        assert analysis.x1_m <= analysis.x2_m

    @pytest.mark.parametrize("x_root", ["x1_m", "x2_m"])
    def test_roots_satisfy_the_quadratic(self, cfg, ue_mid, x_root):
        alpha = cfg.waveguide_attenuation_per_m
        analysis = stationary_points(cfg, ue_mid)
        u = ue_mid.x_ue_m - getattr(analysis, x_root)
        residual = alpha * u * u - 2.0 * u + alpha * analysis.c_const
        scale = max(abs(alpha * u * u), abs(2.0 * u), abs(alpha * analysis.c_const))
        assert abs(residual) <= 1e-9 * scale

    def test_no_real_roots_for_distant_user(self, cfg):
        analysis = stationary_points(cfg, UePosition(15.0, 100.0))
        assert analysis.c_const == pytest.approx(10009.0)
        assert analysis.delta < 0.0
        assert analysis.x1_m is None and analysis.x2_m is None

    def test_repeated_root_at_zero_discriminant(self):
        # alpha^2 * C = 1 in exact binary arithmetic: alpha = 0.25, C = 16
        cfg = SystemConfig(waveguide_attenuation_per_m=0.25, waveguide_height_m=4.0)
        ue = UePosition(20.0, 0.0)
        analysis = stationary_points(cfg, ue)
        assert analysis.delta == 0.0
        assert analysis.x1_m == pytest.approx(20.0 - 4.0, rel=1e-12)
        assert analysis.x2_m == pytest.approx(analysis.x1_m, rel=1e-12)

    def test_zero_attenuation_has_no_analysis(self, ue_mid):
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        with pytest.raises(ValueError):
            stationary_points(cfg, ue_mid)


class TestOptimalPinPosition:
    def test_default_scenario(self, cfg, ue_mid):
        root = math.sqrt(1.0 - 1e-4 * 34.0)
        expected = 15.0 - (1.0 - root) / 0.01
        position = optimal_pin_position(cfg, ue_mid)
        assert position == pytest.approx(expected, rel=1e-12)
        assert position == pytest.approx(14.830, abs=5e-4)

    def test_no_attenuation_tracks_the_user(self):
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        assert optimal_pin_position(cfg, UePosition(15.0, 5.0)) == 15.0
        assert optimal_pin_position(cfg, UePosition(40.0, 5.0)) == 30.0
        assert optimal_pin_position(cfg, UePosition(-5.0, 5.0)) == 0.0

    def test_distant_user_pins_at_the_feed(self, cfg):
        assert optimal_pin_position(cfg, UePosition(15.0, 100.0)) == 0.0

    def test_clamps_to_waveguide_end(self, cfg):
        ue = UePosition(40.0, 5.0)
        assert optimal_pin_position(cfg, ue) == 30.0
        x_grid, _ = grid_search_pin(cfg, ue, 1e-3)
        assert x_grid == pytest.approx(30.0, abs=1e-3)

    def test_negative_interior_maximum_pins_at_the_feed(self, cfg):
        # x2 < 0 whenever the user sits behind the feed
        ue = UePosition(-3.0, 2.0)
        assert optimal_pin_position(cfg, ue) == 0.0

    @given(
        alpha=st.floats(min_value=1e-4, max_value=0.1),
        x_ue=st.floats(min_value=-10.0, max_value=50.0),
        y_ue=st.floats(min_value=0.0, max_value=20.0),
        height=st.floats(min_value=1.0, max_value=10.0),
        length=st.floats(min_value=5.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_beaten_by_a_grid(self, alpha, x_ue, y_ue, height, length):
        cfg = SystemConfig(
            waveguide_attenuation_per_m=alpha,
            waveguide_height_m=height,
            waveguide_length_m=length,
        )
        ue = UePosition(x_ue, y_ue)
        best = pin_objective(cfg, ue, optimal_pin_position(cfg, ue))
        _, f_grid = grid_search_pin(cfg, ue, 1e-3)
        assert best >= f_grid - 1e-12 * f_grid

    def test_a_candidate_whose_gain_underflows_loses_to_the_feed(self):
        # exp(-alpha x2) underflows to 0 at the interior candidate x2 ~ 1 m; comparing
        # it must not raise, and both paths go on with the feed's finite gain
        cfg = SystemConfig(waveguide_attenuation_per_m=1000.0, waveguide_height_m=0.5e-3)
        ue = UePosition(1.0, 0.0)
        assert stationary_points(cfg, ue).x2_m == pytest.approx(1.0, abs=1e-3)
        assert optimal_pin_position(cfg, ue) == 0.0
        x_pins, g2_sq = optimal_pin_positions(cfg, np.array([1.0]), np.array([0.0]))
        assert x_pins.tolist() == [0.0] and g2_sq.tolist() == [relay_ue_gain(cfg, ue, 0.0)]
        for scheme in ("proposed", "benchmark2"):
            total, bs_w = _EVALUATORS[scheme](cfg, np.array([1.0]), np.array([0.0]), np.zeros(1))
            assert np.isfinite(total).all() and np.isfinite(bs_w).all()
        assert solve(cfg, ue).total_power_w == benchmark2_power(cfg, ue).total_power_w == total[0]

    # The sweep varies only fields from this set, which is why a sweep could
    # place the antenna once for all of its values.
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        x_ue=st.floats(min_value=0.0, max_value=30.0),
        y_ue=st.floats(min_value=0.0, max_value=10.0),
        changes=st.fixed_dictionaries(
            {
                "snr_target_linear": st.floats(min_value=1e-3, max_value=1e6),
                "bs_relay_distance_m": st.floats(min_value=1.0, max_value=1e4),
                "horn_gain_tx_dbi": st.floats(min_value=-10.0, max_value=40.0),
                "horn_gain_rx_dbi": st.floats(min_value=-10.0, max_value=40.0),
                "bandwidth_hz": st.floats(min_value=1e3, max_value=1e10),
                "noise_figure_db": st.floats(min_value=0.0, max_value=20.0),
                "ue_noise_figure_db": st.floats(min_value=0.0, max_value=20.0),
                "pa_efficiency": st.floats(min_value=0.05, max_value=1.0),
            }
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_reads_only_geometry_and_attenuation(self, alpha, x_ue, y_ue, changes, seed):
        base = SystemConfig(waveguide_attenuation_per_m=alpha)
        changed = replace(base, **changes)
        ue = UePosition(x_ue, y_ue)
        x_pin = optimal_pin_position(changed, ue)
        assert x_pin == optimal_pin_position(base, ue)
        assert relay_ue_gain(changed, ue, x_pin) == relay_ue_gain(base, ue, x_pin)
        rng = np.random.default_rng(seed)
        xs, ys = rng.uniform(0.0, 30.0, 200), rng.uniform(0.0, 10.0, 200)
        x_pins, g2_sq = optimal_pin_positions(changed, xs, ys)
        base_pins, base_g2_sq = optimal_pin_positions(base, xs, ys)
        assert x_pins.tolist() == base_pins.tolist()
        assert g2_sq.tolist() == base_g2_sq.tolist()
        assert relay_ue_gains(changed, xs, ys, x_pins).tolist() == relay_ue_gains(base, xs, ys, x_pins).tolist()


class TestOptimalPowerAllocation:
    def test_symmetric_toy_exact(self):
        gains, cfg = symmetric_toy()
        p1, beta_sq, j = optimal_power_allocation(gains, cfg)
        assert p1 == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)
        assert beta_sq == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert j == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-12)

    def test_snr_constraint_active(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, optimal_pin_position(cfg, ue_mid))
        p1, beta_sq, _ = optimal_power_allocation(gains, cfg)
        snr = af_snr(p1, beta_sq, gains)
        assert abs(snr - cfg.snr_target_linear) <= 1e-9 * cfg.snr_target_linear

    @given(
        g1_sq=st.floats(min_value=1e-10, max_value=1e-2),
        g2_sq=st.floats(min_value=1e-12, max_value=1e-4),
        gamma0=st.floats(min_value=0.1, max_value=1e4),
        eta=st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_constraint_active_for_random_scenarios(self, g1_sq, g2_sq, gamma0, eta):
        cfg = SystemConfig(snr_target_linear=gamma0, pa_efficiency=eta)
        gains = ChannelGains(g1_sq=g1_sq, g2_sq=g2_sq, sigma_r_sq_w=1.6e-11, sigma_ue_sq_w=1.6e-11)
        p1, beta_sq, j = optimal_power_allocation(gains, cfg)
        assert af_snr(p1, beta_sq, gains) == pytest.approx(gamma0, rel=1e-9)
        direct = eta * p1 + beta_sq * (p1 * g1_sq + gains.sigma_r_sq_w)
        assert j == pytest.approx(direct, rel=1e-12)

    def test_power_floor_margin(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        gamma0, eta = cfg.snr_target_linear, cfg.pa_efficiency
        p1, _, _ = optimal_power_allocation(gains, cfg)
        floor = gamma0 * gains.sigma_r_sq_w / gains.g1_sq
        margin = (
            math.sqrt(gains.sigma_r_sq_w * gains.sigma_ue_sq_w / (gains.g1_sq * gains.g2_sq))
            * math.sqrt(gamma0 * (gamma0 + 1.0) / eta)
        )
        assert p1 > floor
        assert p1 - floor == pytest.approx(margin, rel=1e-9)

    def test_vanishing_target_costs_nothing(self):
        gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
        reference = optimal_power_allocation(gains, SystemConfig(snr_target_linear=1.0, pa_efficiency=1.0))
        tiny = optimal_power_allocation(gains, SystemConfig(snr_target_linear=1e-12, pa_efficiency=1.0))
        assert tiny[0] < 1e-5 * reference[0]
        assert tiny[2] < 1e-5 * reference[2]

    def test_non_finite_split_is_a_named_error(self, cfg, ue_mid):
        with pytest.raises(ValueError, match=r"snr_target_linear=1e\+308 .*: p1=inf, j=inf$"):
            solve(replace(cfg, snr_target_linear=1e308), ue_mid)
        faint = ChannelGains(g1_sq=1.0, g2_sq=1e-320, sigma_r_sq_w=1.6e-11, sigma_ue_sq_w=1.6e-11)
        with pytest.raises(ValueError, match=r"snr_target_linear=100.0 .*: j=inf$"):
            optimal_power_allocation(faint, cfg)

    def test_rejects_nonpositive_target(self):
        gains, cfg = symmetric_toy()
        with pytest.raises(ValueError):
            SystemConfig(snr_target_linear=-1.0)
        with pytest.raises(ValueError):
            ChannelGains(g1_sq=-1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)


class TestSolve:
    def test_total_power_identity(self, cfg, ue_mid):
        sol = solve(cfg, ue_mid)
        reconstructed = sol.j_star_w / cfg.pa_efficiency + cfg.relay_circuit_power_w + cfg.bs_rf_chain_power_w
        assert sol.total_power_w == pytest.approx(reconstructed, rel=1e-12)

    def test_relay_power_field_consistent(self, cfg, ue_mid):
        sol = solve(cfg, ue_mid)
        gains = channel_gains(cfg, ue_mid, sol.x_pin_m)
        assert sol.p2_w == pytest.approx(sol.beta_sq * (sol.p1_w * gains.g1_sq + gains.sigma_r_sq_w), rel=1e-12)

    def test_relay_power_split_at_the_optimum(self, cfg, ue_mid):
        # with the SNR constraint active, the relay power is the target-signal
        # term plus the amplified-noise term
        sol = solve(cfg, ue_mid)
        gains = channel_gains(cfg, ue_mid, sol.x_pin_m)
        gamma0 = cfg.snr_target_linear
        signal_term = gamma0 * gains.sigma_ue_sq_w / gains.g2_sq
        noise_term = (gamma0 + 1.0) * sol.beta_sq * gains.sigma_r_sq_w
        assert sol.p2_w == pytest.approx(signal_term + noise_term, rel=1e-12)

    def test_total_increases_with_snr_target(self, cfg, ue_mid):
        doubled = replace(cfg, snr_target_linear=2.0 * cfg.snr_target_linear)
        assert solve(doubled, ue_mid).total_power_w > solve(cfg, ue_mid).total_power_w

    def test_total_increases_with_relay_distance(self, cfg, ue_mid):
        farther = replace(cfg, bs_relay_distance_m=2.0 * cfg.bs_relay_distance_m)
        assert solve(farther, ue_mid).total_power_w > solve(cfg, ue_mid).total_power_w

    @pytest.mark.parametrize(
        "field, value, gain",
        [
            ("bs_relay_distance_m", 1e300, "0.0"),
            ("carrier_frequency_hz", 1e300, "0.0"),
            ("bs_relay_distance_m", 1e-300, "inf"),
            ("carrier_frequency_hz", 1e-300, "inf"),
        ],
    )
    @pytest.mark.parametrize("scheme", [solve, benchmark2_power], ids=["solve", "benchmark2_power"])
    def test_first_hop_out_of_range_is_a_named_error(self, cfg, ue_mid, scheme, field, value, gain):
        bad = replace(cfg, **{field: value})
        message = (
            f"link budget out of range on the BS-relay link: gain {gain} at "
            f"bs_relay_distance_m={bad.bs_relay_distance_m!r}, carrier_frequency_hz={bad.carrier_frequency_hz!r}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scheme(bad, ue_mid)

    @pytest.mark.parametrize("scheme", [solve, benchmark2_power], ids=["solve", "benchmark2_power"])
    def test_first_hop_whose_4_pi_f_d_underflows_is_a_named_error(self, cfg, ue_mid, scheme):
        bad = replace(cfg, carrier_frequency_hz=1e-200, bs_relay_distance_m=1e-200)
        message = (
            "link budget out of range on the BS-relay link: gain inf at "
            "bs_relay_distance_m=1e-200, carrier_frequency_hz=1e-200"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scheme(bad, ue_mid)

    # f d1 = 1 keeps the first hop in range while the second hop leaves it
    @pytest.mark.parametrize("frequency, d1, gain", [(1e-150, 1e150, "inf"), (1e170, 1e-170, "0.0")])
    @pytest.mark.parametrize("scheme", [solve, benchmark2_power], ids=["solve", "benchmark2_power"])
    def test_second_hop_out_of_range_is_a_named_error(self, cfg, ue_mid, scheme, frequency, d1, gain):
        bad = replace(cfg, carrier_frequency_hz=frequency, bs_relay_distance_m=d1)
        message = (
            f"link budget out of range on the relay-UE link: gain {gain} at waveguide_attenuation_per_m=0.01, "
            f"waveguide_height_m=3.0, carrier_frequency_hz={frequency!r}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scheme(bad, ue_mid)

    # Once the height's square underflows, a pinch point right above the user is at distance 0.
    @pytest.mark.parametrize("scheme, x_ue", [("proposed", 0.0), ("proposed", 5.0), ("benchmark2", 0.0)])
    def test_zero_pinch_to_user_distance_is_a_relay_ue_error_on_both_paths(self, cfg, scheme, x_ue):
        bad = replace(cfg, waveguide_height_m=1e-200)
        message = re.escape(
            "link budget out of range on the relay-UE link: gain inf at waveguide_attenuation_per_m=0.01, "
            "waveguide_height_m=1e-200, carrier_frequency_hz=28000000000.0"
        )
        scalar = {"proposed": solve, "benchmark2": benchmark2_power}[scheme]
        with pytest.raises(ValueError, match=f"^{message}$"):
            scalar(bad, UePosition(x_ue, 0.0))
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match=f"^{message}$"):
            _EVALUATORS[scheme](bad, np.array([x_ue]), np.zeros(1), np.zeros(1))

    def test_zero_distance_behind_full_attenuation_leaves_the_feed_on_both_paths(self):
        # exp(-1000) underflows, so the candidate above the user has gain 0 * inf = nan and the feed wins
        cfg = SystemConfig(waveguide_attenuation_per_m=100.0, waveguide_height_m=1e-200)
        ue = UePosition(10.0, 0.0)
        assert optimal_pin_position(cfg, ue) == 0.0
        sol = solve(cfg, ue)
        with np.errstate(all="ignore"):
            total, p1 = _EVALUATORS["proposed"](cfg, np.array([10.0]), np.zeros(1), np.zeros(1))
        assert (total[0], p1[0]) == (sol.total_power_w, sol.p1_w)
