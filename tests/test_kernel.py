"""Sweep kernel: each array evaluator equals the scalar path bit for bit, user by user."""

from dataclasses import replace

import numpy as np
import pytest

from pinchrelay import (
    SystemConfig,
    UePosition,
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
    optimal_pin_position,
    solve,
)
from pinchrelay.model import relay_ue_gain, relay_ue_gains
from pinchrelay.optimize import optimal_pin_positions, stationary_points
from pinchrelay.sweep import _BENCHMARK1, _EVALUATORS, VARIABLES

USERS = 1000
PLACEMENT_USERS = 20_000  # placement and gains are cheap, and a last-bit slip is rare

# Together these fire every placement case: zero attenuation, no real root,
# the feed beating an interior or clamped candidate, the far-end clamp and the
# interior maximum.  A low waveguide makes alpha^2 C span (0, 1], where the
# interior root is most sensitive to the last bit of C.
CONFIGS = {
    "default": SystemConfig(),
    "zero_attenuation": SystemConfig(waveguide_attenuation_per_m=0.0, waveguide_length_m=20.0),
    "strong_attenuation": SystemConfig(waveguide_attenuation_per_m=0.3),
    "short_waveguide": SystemConfig(waveguide_attenuation_per_m=0.05, waveguide_length_m=5.0),
    "low_waveguide": SystemConfig(waveguide_attenuation_per_m=0.1, waveguide_height_m=0.5),
}
SWEEP_VALUES = {"snr_target_db": (0.0, 20.0, 43.0), "bs_relay_distance_m": (1.0, 50.0, 250.0)}


def placement_case(cfg: SystemConfig, ue: UePosition, x_pin: float) -> str:
    if cfg.waveguide_attenuation_per_m == 0.0:
        return "zero_attenuation"
    x2 = stationary_points(cfg, ue).x2_m
    if x2 is None:
        return "no_root"
    if x_pin == 0.0:
        return "feed_wins" if x2 > 0.0 else "below_feed"
    return "far_end" if x_pin == cfg.waveguide_length_m else "interior"


def draw(cfg: SystemConfig, seed: int, n: int = USERS):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, cfg.coverage_x_m, n)
    ys = rng.uniform(0.0, cfg.coverage_y_m, n)
    shadows = rng.normal(0.0, _BENCHMARK1.shadowing_std_db, n)
    return xs, ys, shadows


def positions(xs, ys) -> list[UePosition]:
    return [UePosition(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def scalar_results(cfg: SystemConfig, users, shadows) -> dict[str, tuple[list[float], list[float]]]:
    proposed = [solve(cfg, ue) for ue in users]
    fixed = [benchmark2_power(cfg, ue) for ue in users]
    tx = [benchmark1_tx_power_w(cfg, _BENCHMARK1, ue.x_ue_m, ue.y_ue_m, s) for ue, s in zip(users, shadows.tolist())]
    return {
        "proposed": ([s.total_power_w for s in proposed], [s.p1_w for s in proposed]),
        "benchmark1": ([benchmark1_total_power_w(cfg, _BENCHMARK1, t) for t in tx], tx),
        "benchmark2": ([s.total_power_w for s in fixed], [s.p1_w for s in fixed]),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_placement_and_gain_equal_the_scalar_path_bit_for_bit(name):
    cfg = CONFIGS[name]
    xs, ys, _ = draw(cfg, sorted(CONFIGS).index(name), PLACEMENT_USERS)
    users = positions(xs, ys)
    x_pins = optimal_pin_positions(cfg, xs, ys)
    assert x_pins.tolist() == [optimal_pin_position(cfg, ue) for ue in users]
    gains = relay_ue_gains(cfg, xs, ys, x_pins)
    assert gains.tolist() == [relay_ue_gain(cfg, ue, x) for ue, x in zip(users, x_pins.tolist())]


def test_configs_fire_every_placement_case():
    cases = set()
    for seed, name in enumerate(sorted(CONFIGS)):
        cfg = CONFIGS[name]
        xs, ys, _ = draw(cfg, seed)
        for ue in positions(xs, ys):
            cases.add(placement_case(cfg, ue, optimal_pin_position(cfg, ue)))
    assert cases >= {"zero_attenuation", "no_root", "feed_wins", "far_end", "interior"}


@pytest.mark.parametrize("variable", sorted(VARIABLES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_evaluators_equal_the_scalar_path_bit_for_bit(name, variable):
    field, to_si, _, _ = VARIABLES[variable]
    xs, ys, shadows = draw(CONFIGS[name], sorted(CONFIGS).index(name))
    users = positions(xs, ys)
    for value in SWEEP_VALUES[variable]:
        cfg = replace(CONFIGS[name], **{field: to_si(value)})
        for scheme, (totals, bs_powers) in scalar_results(cfg, users, shadows).items():
            total, bs_w = _EVALUATORS[scheme](cfg, xs, ys, shadows)
            assert total.tolist() == totals, (scheme, value)
            assert bs_w.tolist() == bs_powers, (scheme, value)
