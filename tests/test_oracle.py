"""Oracles: certified placement bounds, placement grid search, constraint-curve power search, reports."""

import logging
import math
import random
import statistics
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
    channel_gains,
    grid_search_pin,
    numeric_power_min,
    optimal_pin_position,
    optimal_power_allocation,
    verify_scenario,
)
from pinchrelay import oracle
from pinchrelay.cli import _VERIFY_DRAWN_FIELDS
from pinchrelay.model import CHANNEL_DOMAIN, DOMAIN
from pinchrelay.oracle import (
    DEFAULT_P1_POINTS,
    PLACEMENT_SEARCH_WIDTH,
    POSITION_REL_TOL,
    POWER_REL_TOL,
    POWER_SEARCH_WIDTH,
    ln_pin_objective,
    pin_bounds,
)
from grid_oracles import grid_power_min_2d, pin_objective
from test_package import fresh_interpreter

# noise powers at the corners of their domain: each alone at either end, and the two far apart
NOISE_CORNERS = [
    {"bandwidth_hz": 1e3},
    {"bandwidth_hz": 1e11, "noise_figure_db": 40.0},
    {"bandwidth_hz": 1e11, "ue_noise_figure_db": 0.0, "noise_figure_db": 40.0},
    {"bandwidth_hz": 1e3, "ue_noise_figure_db": 40.0, "noise_figure_db": 0.0},
]


class CountingMath:
    """The ``math`` module, counting calls to ``exp``: the power search takes one per evaluation of J, and one more."""

    def __init__(self):
        self.exp_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.exp_calls += 1
        return math.exp(x)


def verify_draws(seed, trials):
    """``(config, user)`` pairs drawn as ``pinchrelay verify`` draws them."""
    rng = random.Random(seed)
    for _ in range(trials):
        scenario = replace(SystemConfig(), **{name: draw(rng) for name, draw in _VERIFY_DRAWN_FIELDS.items()})
        x_ue = rng.uniform(0.0, scenario.coverage_x_m)
        yield scenario, UePosition(x_ue, rng.uniform(0.0, scenario.coverage_y_m))


def domain_draws(seed, trials):
    """``(config, user)`` pairs drawn over all of DOMAIN: log-uniform where a field spans more than two decades,
    alpha log-uniform on [1e-6, 100] with 5% zeros, the terminal's noise figure reused half the time, and
    the user uniform over the coverage."""
    rng = random.Random(seed)
    for _ in range(trials):
        values = {}
        for name, (lo, hi) in DOMAIN.items():
            decades = lo > 0.0 and hi > 100.0 * lo
            value = math.exp(rng.uniform(math.log(lo), math.log(hi))) if decades else rng.uniform(lo, hi)
            values[name] = min(max(value, lo), hi)  # exp may round past an end
        values["waveguide_attenuation_per_m"] = 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-6.0, 2.0)
        if rng.random() < 0.5:
            values["ue_noise_figure_db"] = None
        scenario = SystemConfig(**values)
        yield scenario, UePosition(rng.uniform(0.0, scenario.coverage_x_m), rng.uniform(0.0, scenario.coverage_y_m))


def far_minima():
    """``(gains, config)`` pairs whose minimum lies far from the power search's start: on the
    feasibility floor (t = -46) and at the 64 corners of CHANNEL_DOMAIN x gamma0 x eta (up to t = 142)."""
    floor = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1e10, sigma_ue_sq_w=1e-30)
    cases = [(floor, SystemConfig(snr_target_linear=100.0, pa_efficiency=0.9))]
    for index in range(2**6):
        bits = [(index >> k) & 1 for k in range(6)]
        gains = ChannelGains(*(CHANNEL_DOMAIN[bit] for bit in bits[:4]))
        ends = DOMAIN["snr_target_linear"][bits[4]], DOMAIN["pa_efficiency"][bits[5]]
        cases.append((gains, SystemConfig(snr_target_linear=ends[0], pa_efficiency=ends[1])))
    return cases


def symmetric_toy():
    cfg = SystemConfig(pa_efficiency=1.0, snr_target_linear=1.0)
    gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
    return gains, cfg


def tie_user_x(alpha, c_const):
    """The user x past the objective's stationary points at which f(0) equals f at the interior maximum."""
    root = math.sqrt(1.0 - alpha * alpha * c_const)
    u_max, u_min = (1.0 - root) / alpha, (1.0 + root) / alpha

    def interior_minus_feed(x_ue):
        return -alpha * (x_ue - u_max) - math.log(u_max * u_max + c_const) + math.log(x_ue * x_ue + c_const)

    lo, hi = u_min, 2.0 * u_min
    while interior_minus_feed(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if interior_minus_feed(mid) > 0.0 else (lo, mid)
    return lo


@st.composite
def placement_scenarios(draw):
    """A waveguide of 1 mm to 10 km and a user on it or off either end, at edge-case attenuations."""
    length = 10.0 ** draw(st.floats(-3.0, 4.0))
    height, y_ue = 10.0 ** draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 50.0))
    c_const = y_ue * y_ue + height * height
    x_ue = length * draw(st.floats(-1.0, 2.0))
    kind = draw(st.sampled_from(["zero", "tiny", "plain", "edge", "tie"]))
    if kind == "zero":
        alpha = 0.0
    elif kind == "tiny":
        alpha = 10.0 ** draw(st.floats(-14.0, -8.0))
    elif kind == "plain":
        alpha = 10.0 ** draw(st.floats(-4.0, 0.0))
    elif kind == "edge":  # alpha^2 C within 1e-16 to 1e-3 of 1, from either side
        alpha = (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -3.0))) / math.sqrt(c_const)
    else:  # the feed and the interior maximum radiate within a few ulps of each other
        alpha = draw(st.floats(0.05, 0.9)) / math.sqrt(c_const)
        x_ue = tie_user_x(alpha, c_const) * (1.0 + draw(st.integers(-4, 4)) * 2.0**-52)
        length = x_ue * draw(st.floats(0.5, 2.0))
    config = SystemConfig(waveguide_length_m=length, waveguide_height_m=height, waveguide_attenuation_per_m=alpha)
    return config, UePosition(x_ue, y_ue)


class TestPinBounds:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(scenario=placement_scenarios())
    def test_bounds_are_tight_beat_the_grid_and_pass_the_closed_form(self, scenario):
        config, ue = scenario
        x_best, g_lower, g_upper, width = pin_bounds(config, ue)
        assert 0.0 <= x_best <= config.waveguide_length_m and width >= 0.0
        assert g_lower == ln_pin_objective(config, ue, x_best)
        assert 0.0 <= math.expm1(g_upper - g_lower) <= 1e-12
        # 1 mm steps up to 100 m, and 10^5 + 1 points beyond
        step = min(config.waveguide_length_m, max(1e-3, config.waveguide_length_m / 1e5))
        _, f_grid = grid_search_pin(config, ue, step)
        assert math.log(f_grid) <= g_lower + 1e-14 * max(1.0, abs(g_lower))
        position, _ = verify_scenario(config, ue)
        assert position.passed, position
        # an interior maximum, well conditioned: the bracket holds the stationary point x2, here in
        # the stable form, up to 64 ulps of the geometry for x2's rounding and g' signs near its root
        length, alpha = config.waveguide_length_m, config.waveguide_attenuation_per_m
        c_const = ue.y_ue_m * ue.y_ue_m + config.waveguide_height_m * config.waveguide_height_m
        if alpha * alpha * c_const <= 0.99:
            x2 = ue.x_ue_m - alpha * c_const / (1.0 + math.sqrt(1.0 - alpha * alpha * c_const))
            g_ends = max(ln_pin_objective(config, ue, 0.0), ln_pin_objective(config, ue, length))
            if 0.0 < x2 < length and ln_pin_objective(config, ue, x2) > g_ends + 1e-12 * max(1.0, abs(g_ends)):
                rounding = 2.0**-46 * (abs(ue.x_ue_m) + math.sqrt(c_const))
                assert abs(x_best - x2) <= width + rounding

    def test_default_scenario_brackets_the_interior_maximum(self, cfg, ue_mid):
        x_best, g_lower, g_upper, width = pin_bounds(cfg, ue_mid)
        x2 = 15.0 - (1.0 - math.sqrt(1.0 - 1e-4 * 34.0)) / 0.01
        assert 0.0 < width < 1e-6 and abs(x_best - x2) <= width
        assert g_lower - 1e-15 <= ln_pin_objective(cfg, ue_mid, optimal_pin_position(cfg, ue_mid)) <= g_upper

    @pytest.mark.parametrize("gap", [1e-2, 1e-6])
    def test_upper_bound_holds_however_early_the_bisection_stops(self, monkeypatch, gap):
        monkeypatch.setattr("pinchrelay.oracle.PLACEMENT_SEARCH_GAP", gap)
        monkeypatch.setattr("pinchrelay.oracle.PLACEMENT_SEARCH_WIDTH", math.inf)
        for scenario, ue in verify_draws(5, 50):
            _, g_lower, g_upper, _ = pin_bounds(scenario, ue)
            _, f_grid = grid_search_pin(scenario, ue, 1e-3)
            g_closed = ln_pin_objective(scenario, ue, optimal_pin_position(scenario, ue))
            assert max(math.log(f_grid), g_closed) <= g_upper + 1e-15 and g_upper - g_lower <= gap

    def test_a_loose_bound_fails_the_closed_form_rather_than_passing_it(self, cfg, ue_mid, monkeypatch):
        # a gap of 1, and no width to reach, stop the search after its first bisection:
        # one Newton step more lands within 3e-7
        monkeypatch.setattr("pinchrelay.oracle.PLACEMENT_SEARCH_GAP", 1.0)
        monkeypatch.setattr("pinchrelay.oracle.PLACEMENT_SEARCH_WIDTH", math.inf)
        position, _ = verify_scenario(cfg, ue_mid)
        assert not position.passed and position.rel_gap > 1e-4

    def test_local_minimum_between_the_feed_and_the_interior_maximum(self):
        # C = 409 lies past u = 2/alpha: f falls from the feed to a local minimum near x = 102 m,
        # then rises to the interior maximum x2 near 297.9 m, inside the concave piece |u| < sqrt(C)
        config = SystemConfig(waveguide_length_m=400.0, waveguide_attenuation_per_m=0.01)
        ue = UePosition(300.0, 20.0)
        x2 = 300.0 - (1.0 - math.sqrt(1.0 - 1e-4 * 409.0)) / 0.01
        x_best, g_lower, _, width = pin_bounds(config, ue)
        assert abs(x_best - x2) <= width < 1e-6
        assert g_lower >= ln_pin_objective(config, ue, x2) - 1e-15 > ln_pin_objective(config, ue, 0.0)

    @pytest.mark.parametrize("x_ue", [-5.0, 45.0])
    def test_user_off_the_waveguide_peaks_at_an_end(self, cfg, x_ue):
        config = replace(cfg, waveguide_attenuation_per_m=0.0)
        x_best, g_lower, g_upper, width = pin_bounds(config, UePosition(x_ue, 5.0))
        assert x_best == min(max(x_ue, 0.0), cfg.waveguide_length_m)
        assert g_lower == g_upper and width == 0.0

    def test_final_bracket_is_at_most_its_stopping_width(self):
        # the gap rule alone left a bracket 7.0e-6 m wide on one of these draws
        widest = 0.0
        for scenario, ue in verify_draws(3, 2000):
            _, _, _, width = pin_bounds(scenario, ue)
            c_const = ue.y_ue_m * ue.y_ue_m + scenario.waveguide_height_m * scenario.waveguide_height_m
            assert width <= PLACEMENT_SEARCH_WIDTH * math.sqrt(c_const)
            assert verify_scenario(scenario, ue)[0].grid_resolution == width
            widest = max(widest, width)
        assert 0.0 < widest <= 1.1e-8

    def test_search_does_not_read_the_closed_form_placement(self, cfg, ue_mid, monkeypatch):
        before = pin_bounds(cfg, ue_mid)

        def unavailable(config, ue):
            raise AssertionError("pin_bounds called optimal_pin_position")

        monkeypatch.setattr("pinchrelay.oracle.optimal_pin_position", unavailable)
        assert pin_bounds(cfg, ue_mid) == before


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

    def test_equals_the_full_array_expression_exactly(self):
        # The objective as one full-array expression, each temporary a new array.
        def full_array_search(config, ue, step_m):
            xs = np.append(np.arange(0.0, config.waveguide_length_m, step_m), config.waveguide_length_m)
            alpha = config.waveguide_attenuation_per_m
            c_const = ue.y_ue_m**2 + config.waveguide_height_m**2
            values = np.exp(-alpha * xs) / ((ue.x_ue_m - xs) ** 2 + c_const)
            best = int(np.argmax(values))
            return float(xs[best]), float(values[best])

        rng = np.random.default_rng(5)
        for k in range(1200):
            cfg = SystemConfig(
                waveguide_attenuation_per_m=0.0 if k % 4 == 0 else float(10.0 ** rng.uniform(-4, -0.5)),
                waveguide_height_m=float(rng.uniform(0.5, 10.0)),
                waveguide_length_m=float(rng.uniform(1.0, 40.0)),
            )
            ue = UePosition(float(rng.uniform(-20.0, 60.0)), float(rng.uniform(-5.0, 30.0)))
            for step in (0.37, 2.5e-3):
                assert grid_search_pin(cfg, ue, step) == full_array_search(cfg, ue, step), (cfg, ue, step)


class TestNumericPowerMin:
    def test_symmetric_toy(self):
        gains, cfg = symmetric_toy()
        _, _, j_best = numeric_power_min(gains, cfg)
        assert j_best == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-15)

    def test_matches_closed_form_at_defaults(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, optimal_pin_position(cfg, ue_mid))
        _, _, j_best = numeric_power_min(gains, cfg)
        _, _, j_closed = optimal_power_allocation(gains, cfg)
        assert abs(j_closed - j_best) <= POWER_REL_TOL * j_best

    def test_never_undercuts_the_true_minimum(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        _, _, j_best = numeric_power_min(gains, cfg)
        _, _, j_closed = optimal_power_allocation(gains, cfg)
        assert j_best >= j_closed * (1.0 - 1e-9)

    def test_returns_a_constraint_consistent_pair(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        p1, beta_sq, j_best = numeric_power_min(gains, cfg)
        gamma0 = cfg.snr_target_linear
        required = gamma0 * gains.sigma_ue_sq_w / (gains.g2_sq * (p1 * gains.g1_sq - gamma0 * gains.sigma_r_sq_w))
        assert beta_sq == pytest.approx(required, rel=1e-12)
        assert j_best == pytest.approx(
            cfg.pa_efficiency * p1 + beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w), rel=1e-12
        )

    def test_deterministic(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        assert numeric_power_min(gains, cfg) == numeric_power_min(gains, cfg)

    def test_search_does_not_read_the_closed_form_split(self, cfg, ue_mid, monkeypatch):
        gains = channel_gains(cfg, ue_mid, 14.83)
        before = numeric_power_min(gains, cfg)

        def unavailable(gains, config):
            raise AssertionError("numeric_power_min called optimal_power_allocation")

        for split in (lambda g, c: (1e-6, 1e6, 1e-6), unavailable):
            monkeypatch.setattr("pinchrelay.oracle.optimal_power_allocation", split)
            assert numeric_power_min(gains, cfg) == before

    def test_search_keeps_its_written_out_bits(self):
        # The search written out in its two phases, with J and tanh(s - s*) = J' / J'' in one helper:
        # numeric_power_min's single loop gives the same bits.
        def written_out_search(gains, config):
            gamma0, eta = config.snr_target_linear, config.pa_efficiency
            surplus0 = gamma0 * gains.sigma_r_sq_w
            falling0 = gamma0 * gains.sigma_ue_sq_w * (surplus0 + gains.sigma_r_sq_w) / gains.g2_sq

            def at(s):
                u = surplus0 * math.exp(s)
                p1 = (u + surplus0) / gains.g1_sq
                j = eta * p1 + gamma0 * gains.sigma_ue_sq_w * (p1 * gains.g1_sq + gains.sigma_r_sq_w) / (gains.g2_sq * u)
                rising, falling = eta * u / gains.g1_sq, falling0 / u
                return j, (rising - falling) / (rising + falling)

            lo, j_lo, hi, j_hi = -math.inf, math.inf, math.inf, math.inf
            s = 0.0
            j, r = at(s)
            while abs(r) == 1.0:  # saturated: 18 toward the root, which lies further off
                lo, j_lo, hi, j_hi = (s, j, hi, j_hi) if r < 0.0 else (lo, j_lo, s, j)
                s += 18.0 if r < 0.0 else -18.0
                j, r = at(s)
            while True:
                if r > 0.0:
                    hi, j_hi = s, j
                else:
                    lo, j_lo = s, j
                if r == 0.0 or hi - lo <= POWER_SEARCH_WIDTH:
                    break
                # the root s* = s - atanh(r), and 0.45 of the stopping width past it, away from s
                past = 0.45 * POWER_SEARCH_WIDTH
                target = s - math.atanh(r) + (past if r < 0.0 else -past)
                s = target if lo < target < hi else 0.5 * (lo + hi)
                j, r = at(s)
            s, j = (lo, j_lo) if j_lo <= j_hi else (hi, j_hi)
            u = surplus0 * math.exp(s)
            return (u + surplus0) / gains.g1_sq, gamma0 * gains.sigma_ue_sq_w / (gains.g2_sq * u), j

        rng = np.random.default_rng(17)
        cases = [symmetric_toy(), *far_minima()]
        for _ in range(300):
            gamma0, eta = float(10.0 ** rng.uniform(0.5, 3.0)), float(rng.uniform(0.7, 1.0))
            config = SystemConfig(snr_target_linear=gamma0, pa_efficiency=eta)
            cases.append((ChannelGains(*(float(10.0 ** rng.uniform(-12.0, -1.0)) for _ in range(4))), config))
        for gains, config in cases:
            assert numeric_power_min(gains, config) == written_out_search(gains, config)

    def test_evaluations_stay_within_the_budget(self, cfg, ue_mid, monkeypatch):
        scenarios = [*verify_draws(29, 300), *((replace(cfg, **changes), ue_mid) for changes in NOISE_CORNERS)]
        evaluations = []
        for scenario, ue in scenarios:
            gains = channel_gains(scenario, ue, optimal_pin_position(scenario, ue))
            counting = CountingMath()
            monkeypatch.setattr("pinchrelay.oracle.math", counting)
            numeric_power_min(gains, scenario)
            monkeypatch.undo()
            evaluations.append(counting.exp_calls - 1)
        assert 0 < min(evaluations) and max(evaluations) <= DEFAULT_P1_POINTS

    def test_convergence_stays_superlinear(self, cfg, ue_mid, monkeypatch):
        # one evaluation at the start and one on each side of the root: 3 on every one of these draws,
        # against 9 in the median for a bracketed Newton search, 15 for Brent's method and 46 for golden sections
        scenarios = [*verify_draws(29, 300), *((replace(cfg, **changes), ue_mid) for changes in NOISE_CORNERS)]
        evaluations = []
        for scenario, ue in scenarios:
            gains = channel_gains(scenario, ue, optimal_pin_position(scenario, ue))
            counting = CountingMath()
            monkeypatch.setattr("pinchrelay.oracle.math", counting)
            numeric_power_min(gains, scenario)
            monkeypatch.undo()
            evaluations.append(counting.exp_calls - 1)
        assert statistics.median(evaluations) <= 3 and max(evaluations) <= 4

    def test_far_minima_take_few_evaluations_and_match_the_closed_form(self, monkeypatch):
        # steps of 18 while |J' / J''| rounds to 1, then three evaluations: 7 in the median, 11 at most
        for gains, config in far_minima():
            _, _, j_closed = optimal_power_allocation(gains, config)
            counting = CountingMath()
            monkeypatch.setattr("pinchrelay.oracle.math", counting)
            _, _, j_best = numeric_power_min(gains, config)
            monkeypatch.undo()
            assert counting.exp_calls - 1 <= 12, (gains, config)
            assert abs(j_best - j_closed) <= POWER_REL_TOL * j_closed, (gains, config)

    def test_returned_surplus_lies_within_the_stopping_width_of_the_root(self, cfg, ue_mid):
        # the root of J' found here by bisection on J' written out afresh, in t = ln u
        def root_of_slope(gains, config):
            gamma0, eta = config.snr_target_linear, config.pa_efficiency
            falling = gamma0 * gains.sigma_ue_sq_w * (gamma0 + 1.0) * gains.sigma_r_sq_w / gains.g2_sq

            def slope(t):  # J'(t) over u; it overflows to a signed inf at the far ends
                u = math.exp(t)
                return eta * u / gains.g1_sq - falling / u

            lo, hi = -700.0, 700.0
            while True:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    return mid
                lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)

        scenarios = [*verify_draws(5, 200), *((replace(cfg, **changes), ue_mid) for changes in NOISE_CORNERS)]
        draws = [(channel_gains(scenario, ue, optimal_pin_position(scenario, ue)), scenario) for scenario, ue in scenarios]
        for gains, config in [*draws, *far_minima()]:
            _, beta_sq, _ = numeric_power_min(gains, config)
            surplus = config.snr_target_linear * gains.sigma_ue_sq_w / (gains.g2_sq * beta_sq)
            assert abs(math.log(surplus) - root_of_slope(gains, config)) <= POWER_SEARCH_WIDTH, (gains, config)

    def test_a_saturated_step_never_passes_the_root(self):
        # r = (rising - falling) / (rising + falling) rounds to 1 only where rising / falling = e^(2 (t - t*))
        # exceeds about 2^53, past t - t* = 18.37: the search's saturated step of 18 stays on its side
        rng = random.Random(11)
        for _ in range(20000):
            distance, scale = rng.uniform(0.0, 18.3), 10.0 ** rng.uniform(-100.0, 100.0)
            rising, falling = scale * math.exp(distance), scale * math.exp(-distance)
            assert (rising - falling) / (rising + falling) < 1.0 and (falling - rising) / (falling + rising) > -1.0
        assert (math.exp(19.5) - math.exp(-19.5)) / (math.exp(19.5) + math.exp(-19.5)) == 1.0  # as it always does past 18.8

    def test_a_step_that_leaves_the_bracket_bisects(self, cfg, ue_mid, monkeypatch):
        # an atanh four times too large aims each step far past the root: the steps that leave the
        # bracket bisect it, and the search still stops on a certified bracket around the minimum
        class Overshooting(CountingMath):
            def atanh(self, x):
                return 4.0 * math.atanh(x)

        gains = channel_gains(cfg, ue_mid, 14.83)
        exact = numeric_power_min(gains, cfg)
        overshooting = Overshooting()
        monkeypatch.setattr("pinchrelay.oracle.math", overshooting)
        _, beta_sq, j_best = numeric_power_min(gains, cfg)
        monkeypatch.undo()
        assert 3 < overshooting.exp_calls - 1 <= DEFAULT_P1_POINTS
        assert beta_sq == pytest.approx(exact[1], rel=2.0 * POWER_SEARCH_WIDTH)
        assert abs(j_best - exact[2]) <= POWER_REL_TOL * exact[2]

    def test_search_past_its_budget_is_a_named_error(self, cfg, ue_mid, monkeypatch):
        gains = channel_gains(cfg, ue_mid, 14.83)
        counting = CountingMath()
        monkeypatch.setattr("pinchrelay.oracle.math", counting)
        # this search takes 3 evaluations here
        monkeypatch.setattr("pinchrelay.oracle.DEFAULT_P1_POINTS", 2)
        with pytest.raises(ValueError, match=r"^the P1 search found no minimum of the power cost within 2 evaluations$"):
            numeric_power_min(gains, cfg)
        assert counting.exp_calls == 2

    def test_uses_no_numpy(self, tmp_path):
        code = (
            "import sys\n"
            "from pinchrelay import SystemConfig, UePosition, channel_gains, numeric_power_min\n"
            "config = SystemConfig()\n"
            "numeric_power_min(channel_gains(config, UePosition(15.0, 5.0), 14.83), config)\n"
            "print('numpy' in sys.modules)"
        )
        assert fresh_interpreter(code, cwd=tmp_path) == "False"


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
        assert power.rel_gap <= POWER_REL_TOL

    # past the end, and 10 km before the feed of a lossy waveguide, where exp(-alpha x) leaves the float range
    @pytest.mark.parametrize("alpha, x_closed", [(0.01, 31.0), (0.1, -1e4)])
    def test_pinch_point_off_the_waveguide_fails(self, monkeypatch, alpha, x_closed):
        monkeypatch.setattr("pinchrelay.oracle.optimal_pin_position", lambda config, ue: x_closed)
        reports = verify_scenario(SystemConfig(waveguide_attenuation_per_m=alpha), UePosition(40.0, 5.0))
        for report in reports:
            assert not report.passed and report.rel_gap == math.inf and math.isnan(report.closed_form_value)

    # at the far end of a 1,000 km waveguide f underflows to 0: |g2|^2 there leaves CHANNEL_DOMAIN
    def test_a_second_hop_gain_past_its_domain_fails_the_power_check(self, monkeypatch):
        monkeypatch.setattr("pinchrelay.oracle.optimal_pin_position", lambda config, ue: config.waveguide_length_m)
        position, power = verify_scenario(SystemConfig(waveguide_length_m=1e6), UePosition(15.0, 5.0))
        assert not position.passed and position.rel_gap == 1.0
        assert not power.passed and power.rel_gap == math.inf and math.isnan(power.closed_form_value)

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

    def test_runs_the_public_power_search_once_and_reports_immutable_records(self, cfg, ue_mid, monkeypatch):
        calls, search = [], oracle.numeric_power_min
        monkeypatch.setattr(oracle, "numeric_power_min", lambda *args: calls.append(args) or search(*args))
        position, power = verify_scenario(cfg, ue_mid)
        assert len(calls) == 1
        for report in (position, power):
            with pytest.raises(AttributeError):
                report.passed = False

    def test_report_invariants(self, cfg, ue_mid):
        position, power = verify_scenario(cfg, ue_mid)
        for report, tol in ((position, POSITION_REL_TOL), (power, POWER_REL_TOL)):
            assert report.passed == (report.rel_gap <= tol)
            assert report.abs_gap == pytest.approx(abs(report.closed_form_value - report.oracle_value))
        # the search's best point sits within its gap of the maximum, which the closed form attains
        assert position.oracle_value == pytest.approx(position.closed_form_value, rel=1e-15)
        # minimization oracle cannot undercut the true minimum by more than float noise
        assert power.oracle_value >= power.closed_form_value * (1.0 - 1e-9)

    def test_deterministic(self, cfg, ue_mid):
        assert verify_scenario(cfg, ue_mid) == verify_scenario(cfg, ue_mid)

    def test_evaluates_the_closed_form_split_once(self, cfg, ue_mid, monkeypatch):
        calls = []
        counted = lambda *args: calls.append(args) or optimal_power_allocation(*args)  # noqa: E731
        monkeypatch.setattr("pinchrelay.oracle.optimal_power_allocation", counted)
        verify_scenario(replace(cfg, snr_target_linear=123.0), ue_mid)
        assert len(calls) == 1

    def test_default_scenario_logs_nothing(self, cfg, ue_mid, caplog):
        with caplog.at_level(logging.DEBUG, logger="pinchrelay"):
            verify_scenario(cfg, ue_mid)
        assert caplog.records == []

    def test_operating_point_off_the_optimum_fails(self, cfg, ue_mid, mutated_split):
        # each mutant keeps the closed form's cost, so only the cost and the SNR at its pair can catch it
        for scenario, ue in [(cfg, ue_mid), *verify_draws(3, 20)]:
            _, power = verify_scenario(scenario, ue)
            assert not power.passed and power.rel_gap > 1e-6

    def test_pair_on_the_cost_s_level_set_fails_on_its_snr(self, cfg, ue_mid, monkeypatch):
        # a BS power 1% high and the relay gain that keeps the reported cost: only the SNR is off
        def level_set(gains, config):
            p1, _, j = optimal_power_allocation(gains, config)
            p1 *= 1.01
            return p1, (j - config.pa_efficiency * p1) / (p1 * gains.g1_sq + gains.sigma_r_sq_w), j

        monkeypatch.setattr("pinchrelay.oracle.optimal_power_allocation", level_set)
        _, power = verify_scenario(cfg, ue_mid)
        assert not power.passed and power.rel_gap > 1e-6

    @pytest.mark.parametrize("gamma0", [3.0, 100.0, 1000.0])
    def test_power_resolution_is_the_search_s_stopping_width(self, cfg, ue_mid, gamma0):
        _, power = verify_scenario(replace(cfg, snr_target_linear=gamma0), ue_mid)
        assert power.grid_resolution == POWER_SEARCH_WIDTH == 1e-8
        assert power.passed and power.rel_gap <= POWER_REL_TOL

    @pytest.mark.parametrize("changes", NOISE_CORNERS)
    def test_power_check_holds_at_the_noise_domain_corners(self, cfg, ue_mid, changes):
        _, power = verify_scenario(replace(cfg, **changes), ue_mid)
        assert power.passed and power.rel_gap >= 0.0

    def test_optimum_on_the_feasibility_floor_passes_quietly(self, caplog):
        # tiny terminal noise puts the optimal BS power on the feasibility floor, to the last bit;
        # the closed form's cost, its pair's cost and its SNR still agree with the search
        cfg = SystemConfig(snr_target_linear=100.0, pa_efficiency=0.9)
        gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1e10, sigma_ue_sq_w=1e-30)
        with caplog.at_level(logging.DEBUG, logger="pinchrelay"):
            p1, beta_sq, j_closed = optimal_power_allocation(gains, cfg)
            _, _, j_search = numeric_power_min(gains, cfg)
        assert p1 == cfg.snr_target_linear * gains.sigma_r_sq_w / gains.g1_sq
        j_pair = cfg.pa_efficiency * p1 + beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w)
        gaps = (j_closed - j_search) / j_search, (j_pair - j_closed) / j_search, af_snr(p1, beta_sq, gains) / 100.0 - 1.0
        assert max(map(abs, gaps)) <= 1e-12 and caplog.records == []

    def test_scenarios_drawn_over_the_whole_domain_pass(self):
        # the corners verify's own draws never reach: huge or no attenuation, far users, extreme frequencies
        for scenario, ue in domain_draws(13, 400):
            position, power = verify_scenario(scenario, ue)
            assert position.passed and power.passed, (scenario, ue, position.rel_gap, power.rel_gap)

    def test_evaluates_the_objective_at_the_closed_form_once(self, cfg, ue_mid, monkeypatch):
        calls, ln_objective = [], oracle.ln_pin_objective
        monkeypatch.setattr(oracle, "ln_pin_objective", lambda *args: calls.append(args) or ln_objective(*args))
        position, power = verify_scenario(cfg, ue_mid)
        assert position.passed and power.passed
        assert calls == [(cfg, ue_mid, optimal_pin_position(cfg, ue_mid))]

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
