"""Closed-form placement and power split, cross-checked against brute force."""

import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    solve,
)
from pinchrelay import model, optimize
from pinchrelay.kernel import evaluate, libm_exp, optimal_pin_positions
from pinchrelay.model import DOMAIN, SPEED_OF_LIGHT_M_S, UE_DOMAIN, bs_relay_gain, consumed_power, relay_tx_power, relay_ue_gain
from pinchrelay.model import unchecked_relay_ue_gain
from pinchrelay.optimize import StationaryAnalysis, solve_at, stationary_points, stationary_root
from grid_oracles import pin_objective

C = SPEED_OF_LIGHT_M_S


def kernel_placement(cfg, xs, ys):
    """The sweep kernel's ``(x_pins, g2_sq)``, compared with the feed's gains as the sweep compares them."""
    return optimal_pin_positions(cfg, xs, ys, unchecked_relay_ue_gain(cfg, xs, ys, 0.0, np.sqrt, libm_exp))


def symmetric_toy():
    cfg = SystemConfig(pa_efficiency=1.0, snr_target_linear=1.0)
    gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
    return gains, cfg


class TestPinObjective:
    def test_proportional_to_link_gain(self, cfg, ue_mid):
        constant = 16.0 * math.pi**2 * cfg.carrier_frequency_hz**2 / C**2
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, cfg.waveguide_length_m, 100):
            ratio = pin_objective(cfg, ue_mid, float(x)) / relay_ue_gain(cfg, ue_mid, float(x))
            assert ratio == pytest.approx(constant, rel=1e-12)


def random_placements(n: int, seed: int):
    """``n`` (config, user) pairs across attenuations, heights, lengths and user positions."""
    rng = np.random.default_rng(seed)
    draws = zip(*(rng.uniform(lo, hi, n).tolist() for lo, hi in ((1e-4, 0.3), (0.5, 10.0), (5.0, 50.0))))
    users = zip(rng.uniform(-10.0, 50.0, n).tolist(), rng.uniform(0.0, 20.0, n).tolist())
    for (alpha, height, length), (x_ue, y_ue) in zip(draws, users):
        cfg = SystemConfig(waveguide_attenuation_per_m=alpha, waveguide_height_m=height, waveguide_length_m=length)
        yield cfg, UePosition(x_ue, y_ue)


class TestStationaryPoints:
    """``stationary_points`` keeps only the interior maximum ``x2``, the root that placement reads."""

    @staticmethod
    def assert_solves_the_quadratic(cfg: SystemConfig, ue: UePosition, x2: float) -> None:
        # alpha u^2 - 2u + alpha C = 0 in u = x_ue - x2, to 1e-9 of its largest term
        alpha = cfg.waveguide_attenuation_per_m
        c_const = ue.y_ue_m * ue.y_ue_m + cfg.waveguide_height_m * cfg.waveguide_height_m
        u = ue.x_ue_m - x2
        terms = (alpha * u * u, -2.0 * u, alpha * c_const)
        assert abs(math.fsum(terms)) <= 1e-9 * max(map(abs, terms))

    def test_default_scenario(self, cfg, ue_mid):
        x2 = stationary_points(cfg, ue_mid).x2_m
        assert x2 == pytest.approx(15.0 - (1.0 - math.sqrt(1.0 - 1e-4 * 34.0)) / 0.01, rel=1e-12)
        self.assert_solves_the_quadratic(cfg, ue_mid, x2)

    def test_interior_maximum_solves_the_quadratic(self):
        solved = 0
        for cfg, ue in random_placements(500, seed=3):
            x2 = stationary_points(cfg, ue).x2_m
            if x2 is not None:
                self.assert_solves_the_quadratic(cfg, ue, x2)
                solved += 1
        assert solved >= 100

    def test_interior_maximum_on_the_waveguide_is_the_placement(self):
        # On [0, L] the objective rises from the local minimum x1 to x2, so x2 is the
        # placement unless x1 lies on the waveguide too and the feed radiates more.
        placed = 0
        for cfg, ue in random_placements(400, seed=5):
            x2 = stationary_points(cfg, ue).x2_m
            if x2 is None or not 0.0 <= x2 <= cfg.waveguide_length_m:
                continue
            position = optimal_pin_position(cfg, ue)
            best = pin_objective(cfg, ue, position)
            assert position == (x2 if relay_ue_gain(cfg, ue, x2) > relay_ue_gain(cfg, ue, 0.0) else 0.0)
            _, f_grid = grid_search_pin(cfg, ue, 1e-3)
            assert f_grid <= best * (1.0 + 1e-10)
            placed += position == x2
        assert placed >= 30

    def test_no_real_roots_for_distant_user(self, cfg):
        # 1 - alpha^2 C = 1 - 1e-4 * 10009 < 0
        assert stationary_points(cfg, UePosition(15.0, 100.0)).x2_m is None

    def test_repeated_root_at_zero_discriminant(self):
        # alpha^2 * C = 1 in exact binary arithmetic: alpha = 0.25, C = 16
        cfg = SystemConfig(waveguide_attenuation_per_m=0.25, waveguide_height_m=4.0)
        ue = UePosition(20.0, 0.0)
        assert stationary_points(cfg, ue).x2_m == 16.0
        # both paths test the same discriminant, so the array form matches bit for bit
        x_pins, g2_sq = kernel_placement(cfg, np.array([20.0]), np.array([0.0]))
        x_pin = optimal_pin_position(cfg, ue)
        assert x_pins.tolist() == [x_pin] and g2_sq.tolist() == [relay_ue_gain(cfg, ue, x_pin)]

    def test_zero_attenuation_puts_the_pinch_under_the_user(self):
        # alpha = 0 is the root's lossless limit, x2 = x_ue, and the general placement then clamps it
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        for x_ue in (-5.0, 0.0, 0.25, 15.0, 29.75, 30.0, 40.0):
            ue = UePosition(x_ue, 5.0)
            assert stationary_points(cfg, ue).x2_m.hex() == x_ue.hex()
            assert optimal_pin_position(cfg, ue).hex() == min(max(x_ue, 0.0), cfg.waveguide_length_m).hex()
        for cfg, ue in random_placements(300, seed=13):
            cfg = replace(cfg, waveguide_attenuation_per_m=0.0)
            assert stationary_points(cfg, ue).x2_m.hex() == ue.x_ue_m.hex()
            clamped = min(max(ue.x_ue_m, 0.0), cfg.waveguide_length_m)
            assert optimal_pin_position(cfg, ue).hex() == clamped.hex()

    def test_the_root_s_offset_is_within_4_ulp_of_a_decimal_reference(self):
        # at x_ue = 0 the root is the negated offset alpha C / (1 + sqrt(1 - alpha^2 C)) exactly; this form
        # does not cancel at small alpha.  alpha is log-uniform from 1e-12 up to alpha^2 C = 1/2: nearer 1
        # the discriminant itself is ill-conditioned.
        rng = random.Random(12)
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 60
            for _ in range(20_000):
                y_ue, height = rng.uniform(0.0, 10.0), rng.uniform(0.5, 10.0)
                c_const = Decimal(y_ue) ** 2 + Decimal(height) ** 2
                alpha = math.exp(rng.uniform(math.log(1e-12), math.log(math.sqrt(0.5 / float(c_const)))))
                exact = Decimal(alpha) * c_const / (1 + (1 - Decimal(alpha) ** 2 * c_const).sqrt())
                cfg = SystemConfig(waveguide_attenuation_per_m=alpha, waveguide_height_m=height)
                offset = -stationary_root(cfg, 0.0, y_ue, math.sqrt)[1]
                worst = max(worst, float(abs(Decimal(offset) - exact) / Decimal(math.ulp(offset))))
        assert worst <= 4.0


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
        # exp(-alpha x2) underflows to 0 at the interior candidate x2 ~ 10 m; comparing
        # it must not raise, and both paths go on with the feed's finite gain
        cfg = SystemConfig(waveguide_attenuation_per_m=99.0, waveguide_height_m=0.01)
        ue = UePosition(10.0, 0.0)
        assert stationary_points(cfg, ue).x2_m == pytest.approx(9.991, abs=1e-3)
        assert optimal_pin_position(cfg, ue) == 0.0
        x_pins, g2_sq = kernel_placement(cfg, np.array([10.0]), np.array([0.0]))
        assert x_pins.tolist() == [0.0] and g2_sq.tolist() == [relay_ue_gain(cfg, ue, 0.0)]
        for scheme in ("proposed", "benchmark2"):
            total, bs_w = evaluate(scheme, cfg, np.array([10.0]), np.array([0.0]), np.zeros(1))
            assert np.isfinite(total).all() and np.isfinite(bs_w).all()
        assert solve(cfg, ue).total_power_w == benchmark2_power(cfg, ue).total_power_w == total[0]

    def test_a_pinch_point_whose_gain_underflows_is_a_named_error_only_where_a_caller_puts_it(self):
        # far along a lossy guide exp(-alpha x) underflows; the placement never goes there
        cfg, ue = SystemConfig(waveguide_attenuation_per_m=100.0, waveguide_length_m=1e7), UePosition(15.0, 5.0)
        message = (
            "link budget out of range on the relay-UE link: gain 0.0 at waveguide_attenuation_per_m=100.0, "
            "waveguide_height_m=3.0, carrier_frequency_hz=28000000000.0"
        )
        for entry_point in (relay_ue_gain, solve_at, channel_gains):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                entry_point(cfg, ue, 10.0)
        assert all(map(math.isfinite, solve(cfg, ue)))

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
        x_pins, g2_sq = kernel_placement(changed, xs, ys)
        base_pins, base_g2_sq = kernel_placement(base, xs, ys)
        assert x_pins.tolist() == base_pins.tolist()
        assert g2_sq.tolist() == base_g2_sq.tolist()
        gains = [unchecked_relay_ue_gain(c, xs, ys, x_pins, np.sqrt, libm_exp).tolist() for c in (changed, base)]
        assert gains[0] == gains[1]


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

    def test_vanishing_target_costs_little(self):
        # p1 and j fall as sqrt(gamma0): at the domain's smallest target, 1e-3, to about 1.4% of a unit target's
        gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
        reference = optimal_power_allocation(gains, SystemConfig(snr_target_linear=1.0, pa_efficiency=1.0))
        tiny = optimal_power_allocation(gains, SystemConfig(snr_target_linear=1e-3, pa_efficiency=1.0))
        assert tiny[0] < 0.02 * reference[0]
        assert tiny[2] < 0.02 * reference[2]

    def test_a_split_past_the_domain_is_rejected_where_its_inputs_are_built(self, cfg):
        for changes, message in [
            ({"snr_target_linear": 1e308}, "snr_target_linear must lie in [0.001, 1e+06], got 1e+308"),
            ({"pa_efficiency": 5e-324}, "pa_efficiency must lie in [0.001, 1], got 5e-324"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                replace(cfg, **changes)
        with pytest.raises(ValueError, match=r"^g2_sq must lie in \[1e-30, 1e\+30\], got 1e-320$"):
            ChannelGains(g1_sq=1.0, g2_sq=1e-320, sigma_r_sq_w=1.6e-11, sigma_ue_sq_w=1.6e-11)

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


# Field values at the ends of their domain, and user coordinates at the ends of theirs
_COORDINATES = st.one_of(st.floats(min_value=-20.0, max_value=200.0), st.sampled_from((*UE_DOMAIN, 0.0)))
_DOMAIN_ENDS = st.dictionaries(st.sampled_from(sorted(DOMAIN)), st.sampled_from((0, 1)), max_size=2).map(
    lambda ends: {name: DOMAIN[name][end] for name, end in ends.items()}
)
_CONFIGS = st.builds(
    lambda alpha, length, ue_noise_figure_db, ends: SystemConfig(
        **{
            "waveguide_attenuation_per_m": alpha,
            "waveguide_length_m": length,
            "ue_noise_figure_db": ue_noise_figure_db,
            **ends,
        }
    ),
    # 0.05-0.3 per m: users well past the end of a short waveguide are placed at the feed
    alpha=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=0.05, max_value=0.3)),
    length=st.floats(min_value=0.5, max_value=60.0),
    ue_noise_figure_db=st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
    ends=_DOMAIN_ENDS,
)


def _composed(config, ue, x_pin_m):
    """The operating point from the public layers, one call each."""
    gains = channel_gains(config, ue, x_pin_m)
    assert (gains.sigma_r_sq_w, gains.sigma_ue_sq_w) == (config.relay_noise_w, config.ue_noise_w)
    p1, beta_sq, j = optimal_power_allocation(gains, config)
    p2 = relay_tx_power(p1, beta_sq, gains.g1_sq, gains.sigma_r_sq_w)
    return x_pin_m, p1, beta_sq, p2, j, consumed_power(p1, p2, config)


def _outcome(call):
    """``call()``'s values as reprs, so that equal means bit for bit, or its ``ValueError`` message."""
    try:
        values = call()
    except ValueError as exc:
        return str(exc)
    return tuple(map(repr, values if isinstance(values, tuple) else astuple(values)))


class TestOnePassSolve:
    """``solve``, ``solve_at`` and ``benchmark2_power`` take the link budget and split as floats, in one pass."""

    @example(config=SystemConfig(), x_ue=15.0, y_ue=5.0, fraction=0.5)
    @example(config=SystemConfig(waveguide_attenuation_per_m=0.1, waveguide_length_m=5.0), x_ue=30.0, y_ue=0.0, fraction=1)
    @example(config=SystemConfig(waveguide_attenuation_per_m=0.5), x_ue=15.0, y_ue=5.0, fraction=0.25)
    @example(config=SystemConfig(waveguide_attenuation_per_m=0.0), x_ue=40.0, y_ue=5.0, fraction=0.0)
    @example(config=SystemConfig(ue_noise_figure_db=7.0), x_ue=15.0, y_ue=5.0, fraction=-0.1)
    @example(config=SystemConfig(pa_efficiency=1e-3), x_ue=15.0, y_ue=5.0, fraction=0.5)
    # a caller's pinch point far along a lossy guide, where exp(-alpha x) underflows
    @example(config=SystemConfig(waveguide_attenuation_per_m=100.0), x_ue=15.0, y_ue=5.0, fraction=0.5)
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(config=_CONFIGS, x_ue=_COORDINATES, y_ue=_COORDINATES, fraction=st.floats(min_value=-0.25, max_value=1.25))
    def test_equals_the_public_composition_bit_for_bit(self, config, x_ue, y_ue, fraction):
        ue = UePosition(x_ue, y_ue)
        x_pin = fraction * config.waveguide_length_m
        cases = [
            (lambda: solve(config, ue), lambda: _composed(config, ue, optimal_pin_position(config, ue))),
            (lambda: solve_at(config, ue, x_pin), lambda: _composed(config, ue, x_pin)),
            (lambda: benchmark2_power(config, ue), lambda: _composed(config, ue, 0.0)),
        ]
        for one_pass, composed in cases:
            assert _outcome(one_pass) == _outcome(composed)

    @pytest.mark.parametrize("ue_noise_figure_db, noise_powers", [(None, 1), (7.0, 2)])
    @pytest.mark.parametrize("scheme", [solve, benchmark2_power], ids=["solve", "benchmark2_power"])
    def test_builds_no_record_and_each_noise_power_once(self, monkeypatch, scheme, ue_noise_figure_db, noise_powers):
        def unbuilt(*args, **kwargs):
            raise AssertionError("a one-pass solve builds no ChannelGains or StationaryAnalysis")

        monkeypatch.setattr(ChannelGains, "__init__", unbuilt)
        monkeypatch.setattr(StationaryAnalysis, "__init__", unbuilt)
        calls, noise_power_w = [], model.noise_power_w
        monkeypatch.setattr(model, "noise_power_w", lambda *args: calls.append(args) or noise_power_w(*args))
        scheme(SystemConfig(ue_noise_figure_db=ue_noise_figure_db), UePosition(15.0, 5.0))
        assert len(calls) == noise_powers

    def test_evaluates_the_second_hop_gain_at_most_once_per_candidate(self, monkeypatch):
        # one exp per |g2|^2 away from the feed (at the feed it is exp(-0.0) = 1): the pinch
        # point's gain is handed from the placement to the split, not evaluated again
        calls, exp = [], math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        cfg, ue = SystemConfig(), UePosition(15.0, 5.0)
        solve(cfg, ue)
        assert len(calls) <= 2
        calls.clear()
        benchmark2_power(cfg, ue)
        assert len(calls) <= 1

    def test_a_wrapped_placement_sees_every_solve_and_a_replaced_one_gets_its_own_gain(self, monkeypatch):
        cfg, ue = SystemConfig(), UePosition(15.0, 5.0)
        expected, placed = solve(cfg, ue), []
        monkeypatch.setattr(optimize, "optimal_pin_position", lambda c, u: placed.append(u) or optimal_pin_position(c, u))
        assert solve(cfg, ue) == expected and placed == [ue]
        # a replacement that places elsewhere leaves the latest placement's gain behind
        monkeypatch.setattr(optimize, "optimal_pin_position", lambda c, u: 7.5)
        got = _outcome(lambda: solve(cfg, ue))
        assert got == _outcome(lambda: _composed(cfg, ue, 7.5)) != _outcome(lambda: expected)

    def test_solves_in_threads_equal_the_serial_ones(self):
        # the chosen gain passes from the placement to the split through one module-level
        # slot; a solve that finds another thread's placement there evaluates its own gain
        pairs = [
            (SystemConfig(waveguide_attenuation_per_m=alpha), UePosition(x_ue, y_ue))
            for alpha in (1e-3, 0.05, 0.2, 0.5)
            for x_ue, y_ue in ((3.0, 1.0), (15.0, 5.0), (28.0, 9.0), (40.0, 0.5))
        ]
        expected = [solve(config, ue) for config, ue in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = [pool.submit(lambda: [solve(config, ue) for config, ue in pairs * 50]) for _ in range(8)]
                results = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected * 50 for result in results)


class TestConfigConstants:
    """A config's first solve computes |g1|^2, both noise powers and the split's factors, once."""

    @staticmethod
    def count_link_constants(monkeypatch) -> list:
        """Wrap |g1|^2 and the noise power under every name the package calls them by; returns the call log."""
        calls = []
        for module, name in ((model, "noise_power_w"), (model, "bs_relay_gain"), (optimize, "bs_relay_gain")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.append((_n, args[-1])) or _f(*args))
        return calls

    @pytest.mark.parametrize("ue_noise_figure_db", [None, 7.0])
    def test_solves_compute_each_link_constant_once(self, monkeypatch, ue_noise_figure_db):
        calls = self.count_link_constants(monkeypatch)
        cfg, ue = SystemConfig(ue_noise_figure_db=ue_noise_figure_db), UePosition(15.0, 5.0)
        assert replace(cfg, coverage_x_m=20.0) != cfg and calls == []  # building a config computes none
        solve(cfg, ue)
        first = list(calls)
        assert len(first) == len(set(first)) == (2 if ue_noise_figure_db is None else 3)  # one per constant
        assert {name for name, _ in first} == {"noise_power_w", "bs_relay_gain"}
        for _ in range(100):
            solve(cfg, ue)
        benchmark2_power(cfg, ue)
        assert calls == first

    @pytest.mark.parametrize("ue_noise_figure_db", [None, 7.0])
    def test_channel_gains_reads_the_configs_constants(self, monkeypatch, ue_noise_figure_db):
        cfg, ue = SystemConfig(ue_noise_figure_db=ue_noise_figure_db), UePosition(15.0, 5.0)
        expected = ChannelGains(bs_relay_gain(cfg), relay_ue_gain(cfg, ue, 7.5), cfg.relay_noise_w, cfg.ue_noise_w)
        calls = self.count_link_constants(monkeypatch)
        gains = [channel_gains(cfg, ue, x_pin) for x_pin in (0.0, 7.5, 14.83)]
        solve(cfg, ue)
        assert [name for name, _ in calls].count("bs_relay_gain") == 1  # |g1|^2 once per config, not per call
        assert len(calls) == (2 if ue_noise_figure_db is None else 3)  # and each noise power once
        assert gains[1] == expected

    def test_a_d1_sweep_computes_the_first_hop_gain_once_per_value(self, monkeypatch):
        from pinchrelay.sweep import SweepSpec, run_sweep

        calls = self.count_link_constants(monkeypatch)
        values = (30.0, 40.0, 50.0, 60.0)
        run_sweep(SystemConfig(), SweepSpec("bs_relay_distance_m", values, ue_samples=10))
        assert [config.bs_relay_distance_m for name, config in calls if name == "bs_relay_gain"] == list(values)
