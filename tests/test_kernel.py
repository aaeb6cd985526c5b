"""Sweep kernel: each array evaluator equals the scalar path bit for bit, user by user."""

import math
import re
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinchrelay import (
    ChannelGains,
    SystemConfig,
    UePosition,
    af_snr,
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
    channel_gains,
    db_to_linear,
    optimal_pin_position,
    solve,
)
from pinchrelay.model import bs_relay_gain, relay_ue_gain
from pinchrelay.optimize import split_power, stationary_points
from pinchrelay.benchmarks import SHADOWING_STD_DB
from pinchrelay.kernel import _EVALUATORS, optimal_pin_positions, relay_ue_gains
from pinchrelay.sweep import VARIABLES

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
    shadows = rng.normal(0.0, SHADOWING_STD_DB, n)
    return xs, ys, shadows


def positions(xs, ys) -> list[UePosition]:
    return [UePosition(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def squares_at_rounding_ties(ys: np.ndarray) -> np.ndarray:
    """``ys`` rounded to 27 significant bits.

    ``y * y`` is then exact in 54 bits, so about half of the squares fall
    exactly between two floats: the inputs on which libm ``pow(y, 2)`` most
    often differs from ``y * y`` (over 10% of them, against 0.08% at random).
    """
    mantissa, exponent = np.frexp(ys)
    return np.ldexp(np.round(mantissa * 2.0**27), exponent - 27)


@st.composite
def waveguides(draw):
    """A waveguide on which some users have real stationary points, and a generator for them."""
    alpha = draw(st.floats(min_value=0.05, max_value=1.0))
    height = draw(st.floats(min_value=0.1, max_value=min(5.0, 0.9 / alpha)))
    length = draw(st.floats(min_value=1.0, max_value=50.0))
    cfg = SystemConfig(waveguide_attenuation_per_m=alpha, waveguide_height_m=height, waveguide_length_m=length)
    return cfg, np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))


@st.composite
def wide_box(draw):
    """A config with alpha in [1e-5, 1] /m, gamma0 in [-20, 60] dB and d1 in [1, 1e4] m."""
    return SystemConfig(
        waveguide_attenuation_per_m=draw(st.floats(min_value=1e-5, max_value=1.0)),
        snr_target_linear=db_to_linear(draw(st.floats(min_value=-20.0, max_value=60.0))),
        bs_relay_distance_m=draw(st.floats(min_value=1.0, max_value=1e4)),
    )


@st.composite
def dynamic_range_box(draw):
    """A config with alpha in {0} or [1e-6, 1] /m, carrier in [1e8, 1e12] Hz, d1 in [1e-3, 1e6] m and gamma0 in
    [-30, 80] dB, each nonzero value log-uniform."""
    log_alpha = st.floats(min_value=-6.0, max_value=0.0)
    return SystemConfig(
        waveguide_attenuation_per_m=draw(st.just(0.0) | log_alpha.map(lambda e: 10.0**e)),
        carrier_frequency_hz=10.0 ** draw(st.floats(min_value=8.0, max_value=12.0)),
        bs_relay_distance_m=10.0 ** draw(st.floats(min_value=-3.0, max_value=6.0)),
        snr_target_linear=db_to_linear(draw(st.floats(min_value=-30.0, max_value=80.0))),
    )


def near_tie_users(cfg: SystemConfig, rng: np.random.Generator, n: int = 50, spread: int = 2):
    """Users whose ``x_ue`` makes the feed and the interior candidate radiate nearly the same.

    For each ``y`` the ``x`` where the placement switches from the candidate to
    the feed is bisected in numpy (``np.exp``, so only to within a float or
    two of the kernel's switch); the ``spread`` floats either side of it are
    users too, so both sides of the switch are present.
    """
    alpha, height, length = cfg.waveguide_attenuation_per_m, cfg.waveguide_height_m, cfg.waveguide_length_m
    ys = squares_at_rounding_ties(rng.uniform(0.0, 0.99 * math.sqrt(1.0 / (alpha * alpha) - height * height), n))
    c_const = ys * ys + height * height
    root = np.sqrt(1.0 - alpha * alpha * c_const)

    def candidate_wins(x):
        pin = np.clip(x - (1.0 - root) / alpha, 0.0, length)
        return np.exp(-alpha * pin) / ((x - pin) * (x - pin) + c_const) > 1.0 / (x * x + c_const)

    lo = (1.0 + root) / alpha  # the local minimum x1 sits at the feed, so the candidate wins
    hi = lo + 1e4  # far down the axis the feed wins
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        wins = candidate_wins(mid)
        lo, hi = np.where(wins, mid, lo), np.where(wins, hi, mid)
    xs = [lo]
    for _ in range(spread):
        xs = [np.nextafter(xs[0], -np.inf), *xs, np.nextafter(xs[-1], np.inf)]
    return np.concatenate(xs), np.tile(ys, len(xs))


def assert_placement_and_gain_match(cfg: SystemConfig, xs: np.ndarray, ys: np.ndarray) -> None:
    users = positions(xs, ys)
    x_pins, chosen = optimal_pin_positions(cfg, xs, ys)
    assert x_pins.tolist() == [optimal_pin_position(cfg, ue) for ue in users]
    gains = relay_ue_gains(cfg, xs, ys, x_pins)
    assert gains.tolist() == [relay_ue_gain(cfg, ue, x) for ue, x in zip(users, x_pins.tolist())]
    assert chosen.tolist() == gains.tolist()


def scalar_results(cfg: SystemConfig, users, shadows) -> dict[str, tuple[list[float], list[float]]]:
    proposed = [solve(cfg, ue) for ue in users]
    fixed = [benchmark2_power(cfg, ue) for ue in users]
    tx = [benchmark1_tx_power_w(cfg, ue.x_ue_m, ue.y_ue_m, s) for ue, s in zip(users, shadows.tolist())]
    return {
        "proposed": ([s.total_power_w for s in proposed], [s.p1_w for s in proposed]),
        "benchmark1": ([benchmark1_total_power_w(cfg, t) for t in tx], tx),
        "benchmark2": ([s.total_power_w for s in fixed], [s.p1_w for s in fixed]),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_placement_and_gain_equal_the_scalar_path_bit_for_bit(name):
    cfg = CONFIGS[name]
    xs, ys, _ = draw(cfg, sorted(CONFIGS).index(name), PLACEMENT_USERS)
    assert_placement_and_gain_match(cfg, xs, ys)


# Only a near-tie between the feed and the interior candidate lets the last bit
# of either objective flip the placement, so random users almost never test it.
@given(waveguides())
@settings(max_examples=100, deadline=None)
def test_placement_equals_the_scalar_path_at_feed_candidate_ties(waveguide):
    cfg, rng = waveguide
    assert_placement_and_gain_match(cfg, *near_tie_users(cfg, rng))


@given(waveguides(), st.floats(min_value=-20.0, max_value=60.0))
@settings(max_examples=100, deadline=None)
def test_adjustable_antenna_never_loses_to_the_fixed_one_at_ties(waveguide, gamma0_db):
    cfg, rng = waveguide
    cfg = replace(cfg, snr_target_linear=db_to_linear(gamma0_db))
    xs, ys = near_tie_users(cfg, rng)
    adjustable, _ = _EVALUATORS["proposed"](cfg, xs, ys, np.zeros(xs.size))
    fixed, _ = _EVALUATORS["benchmark2"](cfg, xs, ys, np.zeros(xs.size))
    assert np.all(adjustable <= fixed)


# Where alpha^2 C nears 1 the interior root sqrt(1 - alpha^2 C) turns the last
# bit of C into many bits of the candidate position.
@given(waveguides())
@settings(max_examples=100, deadline=None)
def test_placement_equals_the_scalar_path_at_the_discriminant_edge(waveguide):
    cfg, rng = waveguide
    alpha, height = cfg.waveguide_attenuation_per_m, cfg.waveguide_height_m
    ys = squares_at_rounding_ties(np.sqrt(rng.uniform(0.9, 1.0, 50) / (alpha * alpha) - height * height))
    root = np.sqrt(np.maximum(1.0 - alpha * alpha * (ys * ys + height * height), 0.0))
    xs = rng.uniform((1.0 - root) / alpha, (1.0 + root) / alpha)  # x1 < 0 < x2: x2 is the maximum
    assert_placement_and_gain_match(cfg, xs, ys)


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


def both_paths(cfg: SystemConfig, xs, ys, shadows) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """Each scheme's (total, BS power) per user from the scalar path and from its evaluator."""
    scalar = scalar_results(cfg, positions(xs, ys), shadows)
    return {
        scheme: [tuple(np.array(a) for a in scalar[scheme]), _EVALUATORS[scheme](cfg, xs, ys, shadows)]
        for scheme in _EVALUATORS
    }


@pytest.mark.parametrize("field", ["snr_target_linear", "bs_relay_distance_m"])
@given(wide_box(), wide_box(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_bs_power_rises_strictly_and_total_never_falls(field, cfg, other, seed):
    low, high = sorted((getattr(cfg, field), getattr(other, field)))
    assume(high > low * (1.0 + 1e-6))
    xs, ys, shadows = draw(cfg, seed, 20)
    lower = both_paths(replace(cfg, **{field: low}), xs, ys, shadows)
    higher = both_paths(replace(cfg, **{field: high}), xs, ys, shadows)
    for scheme in _EVALUATORS:
        for (total_lo, bs_lo), (total_hi, bs_hi) in zip(lower[scheme], higher[scheme]):
            assert np.all(bs_hi > bs_lo), scheme
            assert np.all(total_hi >= total_lo), scheme


@given(wide_box(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_every_scheme_meets_the_snr_target_across_the_wide_box(cfg, seed):
    xs, ys, shadows = draw(cfg, seed, 20)
    gamma0, g1_sq = cfg.snr_target_linear, bs_relay_gain(cfg)
    sigma_r_sq_w, sigma_ue_sq_w = cfg.relay_noise_w, cfg.ue_noise_w
    for ue in positions(xs, ys):
        for sol in (solve(cfg, ue), benchmark2_power(cfg, ue)):
            assert af_snr(sol.p1_w, sol.beta_sq, channel_gains(cfg, ue, sol.x_pin_m)) == pytest.approx(gamma0, rel=1e-9)
    for scheme in ("proposed", "benchmark2"):  # the relay user stage, then the split its power stage makes
        g2_sq, g2 = _EVALUATORS[scheme].users(cfg, xs, ys, shadows)
        p1, beta_sq, _ = split_power(cfg, g1_sq, sigma_r_sq_w, sigma_ue_sq_w, g2_sq, g2)
        for k in range(xs.size):
            gains = ChannelGains(g1_sq, float(g2_sq[k]), sigma_r_sq_w, sigma_ue_sq_w)
            assert af_snr(float(p1[k]), float(beta_sq[k]), gains) == pytest.approx(gamma0, rel=1e-9), scheme
    direct = _EVALUATORS["benchmark1"]
    gain = direct.users(cfg, xs, ys, shadows)
    _, tx = direct.power(cfg, gain)
    np.testing.assert_allclose(tx * gain / sigma_ue_sq_w, gamma0, rtol=1e-9, atol=0.0)
    for x, y, shadow in zip(xs.tolist(), ys.tolist(), shadows.tolist()):
        received = benchmark1_tx_power_w(cfg, x, y, shadow) * direct.users(cfg, x, y, shadow)
        assert received / sigma_ue_sq_w == pytest.approx(gamma0, rel=1e-9)


NAMES_A_FIELD_OR_LINK = re.compile("|".join([*(f.name for f in fields(SystemConfig)), r"the [\w-]+ link"]))


def result_or_named_error(fn, *args):
    """``fn(*args)``, or None if it raised a ``ValueError`` naming a SystemConfig field or a link."""
    try:
        return fn(*args)
    except ValueError as exc:
        assert NAMES_A_FIELD_OR_LINK.search(str(exc)), str(exc)
        return None


# The package's dynamic-range contract: every result is finite or a ValueError naming what is at fault.
@given(dynamic_range_box(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_entry_point_is_finite_or_a_named_error_across_the_dynamic_range_box(cfg, seed):
    xs, ys, shadows = draw(cfg, seed, 5)
    for ue, shadow in zip(positions(xs, ys), shadows.tolist()):
        for sol in (result_or_named_error(solve, cfg, ue), result_or_named_error(benchmark2_power, cfg, ue)):
            assert sol is None or all(map(math.isfinite, astuple(sol))), sol
        tx = result_or_named_error(benchmark1_tx_power_w, cfg, ue.x_ue_m, ue.y_ue_m, shadow)
        assert tx is None or math.isfinite(tx) and math.isfinite(benchmark1_total_power_w(cfg, tx)), tx
    with np.errstate(all="ignore"):  # as in run_sweep, which reports a non-finite result with its sample
        for evaluator in _EVALUATORS.values():
            result = result_or_named_error(evaluator, cfg, xs, ys, shadows)
            assert result is None or np.all(np.isfinite(result)), result
