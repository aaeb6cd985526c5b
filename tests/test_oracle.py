"""Brute-force oracles: placement grid search, constraint-curve power search, reports."""

import logging
import math
import re
import tracemalloc
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
from pinchrelay.cli import _VERIFY_DRAWN_FIELDS
from pinchrelay.oracle import (
    _GOLDEN_RATIO,
    DEFAULT_P1_POINTS,
    GRID_STEP_M,
    MAX_GRID_POINTS,
    POWER_REL_TOL,
    POWER_SEARCH_WIDTH,
    _placement_grid,
)

# noise powers and gains whose products in J leave the float range, though J does not
EXTREME_NOISE = [
    {"bandwidth_hz": 1e-150},
    {"ue_noise_figure_db": 3000.0},
    {"bandwidth_hz": 1e303, "ue_noise_figure_db": 1e-150},
    {"noise_figure_db": -3000.0},
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
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        scenario = replace(SystemConfig(), **{name: float(draw(rng)) for name, draw in _VERIFY_DRAWN_FIELDS.items()})
        x_ue = float(rng.uniform(0.0, scenario.coverage_x_m))
        yield scenario, UePosition(x_ue, float(rng.uniform(0.0, scenario.coverage_y_m)))


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

    @pytest.mark.parametrize("length, step", [(30.0, 1e-3), (7.3, 0.007), (30.0, 10.0), (5.0, 5.0)])
    def test_cached_grid_is_read_only_and_ends_at_the_length(self, length, step):
        xs = _placement_grid(length, step)
        assert not xs.flags.writeable
        np.testing.assert_array_equal(xs, np.append(np.arange(0.0, length, step), length))

    def test_height_whose_square_overflows_is_a_named_error(self, cfg, ue_mid):
        message = r"^squared distance from the user to the waveguide overflows at user \(15\.0, 5\.0\) m, .*"
        with pytest.raises(ValueError, match=message + r"waveguide_height_m=1\.7e\+308, "):
            grid_search_pin(replace(cfg, waveguide_height_m=1.7e308), ue_mid, 1e-3)

    def test_objective_underflowing_on_the_whole_grid_is_a_named_error(self, cfg):
        message = (
            "placement objective underflows to 0 on the whole grid at user (1.7e+308, 5.0) m, "
            "waveguide_length_m=30.0, waveguide_height_m=3.0, waveguide_attenuation_per_m=0.01"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_search_pin(cfg, UePosition(1.7e308, 5.0), 1.0)

    def test_warm_call_allocates_at_most_two_grid_sized_buffers(self, cfg, ue_mid):
        grid_search_pin(cfg, ue_mid, 1e-3)
        tracemalloc.start()
        try:
            grid_search_pin(cfg, ue_mid, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 30_001 + 16 * 1024


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

    def test_search_keeps_its_unscaled_bits(self):
        # The search as first written, each hop unscaled: the power-of-two scaling in
        # numeric_power_min changes no bit of its result while these products stay in range.
        def unscaled_search(gains, config):
            gamma0, eta = config.snr_target_linear, config.pa_efficiency
            surplus0 = gamma0 * gains.sigma_r_sq_w

            def cost(s):
                u = surplus0 * math.exp(s)
                p1 = (u + surplus0) / gains.g1_sq
                return eta * p1 + gamma0 * gains.sigma_ue_sq_w * (p1 * gains.g1_sq + gains.sigma_r_sq_w) / (gains.g2_sq * u)

            a, j_a, b, j_b = 0.0, cost(0.0), 1.0, cost(1.0)
            if j_b > j_a:
                a, b, j_b = b, a, j_a
            c = b + _GOLDEN_RATIO * (b - a)
            j_c = cost(c)
            while j_c < j_b:
                a, b, j_b = b, c, j_c
                c = b + _GOLDEN_RATIO * (b - a)
                j_c = cost(c)
            low, high = min(a, c), max(a, c)
            while high - low > POWER_SEARCH_WIDTH:
                x = b + (2.0 - _GOLDEN_RATIO) * (high - b if high - b > b - low else low - b)
                j_x = cost(x)
                if j_x < j_b:
                    low, high = (low, b) if x < b else (b, high)
                    b, j_b = x, j_x
                else:
                    low, high = (x, high) if x < b else (low, x)
            u = surplus0 * math.exp(b)
            return (u + surplus0) / gains.g1_sq, gamma0 * gains.sigma_ue_sq_w / (gains.g2_sq * u), j_b

        rng = np.random.default_rng(17)
        for _ in range(300):
            gamma0, eta = float(10.0 ** rng.uniform(0.5, 3.0)), float(rng.uniform(0.7, 1.0))
            config = SystemConfig(snr_target_linear=gamma0, pa_efficiency=eta)
            gains = ChannelGains(*(float(10.0 ** rng.uniform(-12.0, -1.0)) for _ in range(4)))
            assert numeric_power_min(gains, config) == unscaled_search(gains, config)

    def test_evaluations_stay_within_the_budget(self, cfg, ue_mid, monkeypatch):
        scenarios = [*verify_draws(29, 300), *((replace(cfg, **changes), ue_mid) for changes in EXTREME_NOISE)]
        evaluations = []
        for scenario, ue in scenarios:
            gains = channel_gains(scenario, ue, optimal_pin_position(scenario, ue))
            counting = CountingMath()
            monkeypatch.setattr("pinchrelay.oracle.math", counting)
            numeric_power_min(gains, scenario)
            monkeypatch.undo()
            evaluations.append(counting.exp_calls - 1)
        assert 0 < min(evaluations) and max(evaluations) <= DEFAULT_P1_POINTS

    def test_search_past_its_budget_is_a_named_error(self, cfg, ue_mid, monkeypatch):
        gains = channel_gains(cfg, ue_mid, 14.83)
        counting = CountingMath()
        monkeypatch.setattr("pinchrelay.oracle.math", counting)
        monkeypatch.setattr("pinchrelay.oracle.DEFAULT_P1_POINTS", 10)
        with pytest.raises(ValueError, match=r"^the P1 search found no minimum of the power cost within 10 evaluations$"):
            numeric_power_min(gains, cfg)
        assert counting.exp_calls == 10

    def test_uses_no_numpy(self, cfg, ue_mid, monkeypatch):
        gains = channel_gains(cfg, ue_mid, 14.83)
        before = numeric_power_min(gains, cfg)
        monkeypatch.setattr("pinchrelay.oracle.np", None)
        assert numeric_power_min(gains, cfg) == before


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
        for report, tol in ((position, 1e-10), (power, POWER_REL_TOL)):
            assert report.passed == (report.rel_gap <= tol)
            assert report.abs_gap == pytest.approx(abs(report.closed_form_value - report.oracle_value))
        # maximization oracle can only fall short of the closed form
        assert position.oracle_value <= position.closed_form_value * (1.0 + 1e-12)
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

    # 1 mm up to 9,999.999 m; beyond, the finest step within MAX_GRID_POINTS; below 1 mm, the grid {0, L}
    @pytest.mark.parametrize(
        "length, step, points",
        [
            (5e-4, 5e-4, 2),
            (30.0, GRID_STEP_M, 30_001),
            (9999.999, GRID_STEP_M, MAX_GRID_POINTS),
            (1e4, 1e4 / (MAX_GRID_POINTS - 1), MAX_GRID_POINTS),
            # L / (L / (N - 1)) rounds above N - 1 here, so the step is one ulp coarser
            (10000.004368809548, math.nextafter(10000.004368809548 / 9_999_999, math.inf), MAX_GRID_POINTS),
            (2e4, 2e4 / (MAX_GRID_POINTS - 1), MAX_GRID_POINTS),
            (1.7e308, 1.7e308 / (MAX_GRID_POINTS - 1), MAX_GRID_POINTS),
        ],
    )
    def test_placement_grid_follows_the_length_within_the_budget(self, cfg, ue_mid, monkeypatch, length, step, points):
        sizes = []

        def recording(length_m, step_m):
            xs = _placement_grid(length_m, step_m)
            sizes.append(xs.size)
            return xs

        monkeypatch.setattr("pinchrelay.oracle._placement_grid", recording)
        try:
            position, power = verify_scenario(replace(cfg, waveguide_length_m=length), ue_mid)
        finally:
            _placement_grid.cache_clear()  # keep no 10**7-point grid for the rest of the session
        assert sizes == [points]
        assert position.grid_resolution == step
        assert position.passed and power.passed

    def test_pinch_on_the_user_is_a_relay_ue_error(self, cfg):
        # the height's square underflows, so the closed form pinches right above the user, at distance 0
        message = re.escape(
            "link budget out of range on the relay-UE link: gain inf at waveguide_attenuation_per_m=0.01, "
            "waveguide_height_m=1e-200, carrier_frequency_hz=28000000000.0"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_scenario(replace(cfg, waveguide_height_m=1e-200), UePosition(15.0, 0.0))

    @pytest.mark.parametrize("x_ue, height", [(15.0, 1.7e308), (1.7e308, 3.0)])
    def test_squares_past_the_float_range_are_named_errors(self, cfg, x_ue, height):
        at = f"at user ({x_ue!r}, 5.0) m, waveguide_length_m=30.0, waveguide_height_m={height!r}, "
        with pytest.raises(ValueError, match=f"^squared pinch-to-user distance overflows {re.escape(at)}"):
            verify_scenario(replace(cfg, waveguide_height_m=height), UePosition(x_ue, 5.0))

    @pytest.mark.parametrize("changes", EXTREME_NOISE)
    def test_power_check_holds_where_j_s_products_leave_the_float_range(self, cfg, ue_mid, changes):
        _, power = verify_scenario(replace(cfg, **changes), ue_mid)
        assert power.passed and power.rel_gap >= 0.0

    def test_minimum_cost_below_the_normal_float_range_is_a_named_error(self, cfg, ue_mid):
        # a 4 kHz carrier and a -3000 dB noise figure put the feasibility floor gamma0 sigma_r^2 / |g1|^2
        # at a subnormal 1.1e-319 W and the minimum cost at 2.1e-317 W, where a relative gap has few bits
        scenario = replace(cfg, carrier_frequency_hz=4000.0, noise_figure_db=-3000.0, snr_target_linear=10.0)
        message = (
            r"^the minimum power cost 2\.068591e-317 W lies outside the normal float range, "
            r"so no relative gap can be resolved$"
        )
        with pytest.raises(ValueError, match=message):
            verify_scenario(scenario, ue_mid)

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
