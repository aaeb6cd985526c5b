"""Sweep kernel: each array evaluator equals the scalar path bit for bit, user by user."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from pinchrelay.optimize import link_factors, split_powers, split_terms, stationary_points, target_factors
from pinchrelay.benchmarks import SHADOWING_STD_DB, direct_path_gain, ground_distance_m, shadowing_gain
from pinchrelay.kernel import _OUTPUTS, _STAGES, exact_sum, libm_each
from pinchrelay import kernel
from pinchrelay.sweep import VARIABLES

from kernel_eval import evaluate

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
    """The second-hop stage's rows are the |g2| of the scalar placement and of the feed, bit for bit."""
    users = positions(xs, ys)
    placed, feed = _STAGES["second_hop"].run(cfg, xs, ys)
    assert placed.tolist() == [math.sqrt(relay_ue_gain(cfg, ue, optimal_pin_position(cfg, ue))) for ue in users]
    assert feed.tolist() == [math.sqrt(relay_ue_gain(cfg, ue, 0.0)) for ue in users]


def scalar_results(cfg: SystemConfig, users, shadows) -> dict[str, tuple[list[float], list[float]]]:
    proposed = [solve(cfg, ue) for ue in users]
    fixed = [benchmark2_power(cfg, ue) for ue in users]
    tx = [benchmark1_tx_power_w(cfg, ue.x_ue_m, ue.y_ue_m, s) for ue, s in zip(users, shadows.tolist())]
    return {
        "proposed": ([s.total_power_w for s in proposed], [s.p1_w for s in proposed]),
        "benchmark1": ([benchmark1_total_power_w(cfg, t) for t in tx], tx),
        "benchmark2": ([s.total_power_w for s in fixed], [s.p1_w for s in fixed]),
    }


def test_libm_each_reads_strided_arrays_element_by_element():
    base = np.random.default_rng(8).uniform(-5.0, 5.0, (40, 3))
    a, b = base[::2, 0], base[::-2, 2]  # a positive and a negative stride, neither contiguous
    assert not a.flags.contiguous and not b.flags.contiguous
    assert libm_each(math.hypot, a, b).tolist() == [math.hypot(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert libm_each(math.pow, 10.0, a).tolist() == [math.pow(10.0, x) for x in a.tolist()]
    assert libm_each(math.exp, b).tolist() == [math.exp(x) for x in b.tolist()]


def sum_outcome(fn, a: np.ndarray):
    """``fn(a)`` as its bits (``float.hex`` keeps the sign of 0; every NaN is one outcome), or its error."""
    try:
        value = fn(a)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "nan" if math.isnan(value) else value.hex()


def fsum_of_list(a: np.ndarray) -> float:
    return math.fsum(a.tolist())


# Scales of the elements, as powers of two: ordinary ones, where the split runs, and the edges,
# subnormal, at either end of the split's range, near 2^1000 and where a sum passes the float range
SUM_SCALES = (-899, -500, -60, -1, 0, 1, 60, 500, 899)
SUM_EDGE_SCALES = (-1074, -1064, -1022, -901, -900, 900, 1000, 1023)
SUM_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**1000, -(2.0**1000), 1.7e308, math.inf, -math.inf, math.nan)


SUM_SHAPES = ("mixed", "one_sign", "near_tie", "tie", "cancel", "zeros")


def sum_scale(draw) -> int:
    return draw(st.sampled_from(SUM_EDGE_SCALES if draw(st.integers(min_value=0, max_value=3)) == 3 else SUM_SCALES))


def sum_row(draw, rng: np.random.Generator, n: int, shape: str, scale: int) -> np.ndarray:
    """``n`` float64s of about ``2**scale`` with mixed signs or one sign, summing to an exact half-ulp tie,
    to within ``2**-k`` ulp of one, or to about 0 by cancellation, or signed zeros; perhaps with a few specials."""
    a = np.ldexp(rng.uniform(-1.0, 1.0, n), scale)
    if shape == "one_sign":
        a = np.abs(a)
    elif shape == "zeros":
        a = rng.choice(np.array([0.0, -0.0]), n)
    elif shape in ("near_tie", "tie", "cancel") and n >= 4:
        # pairs v, -v cancel exactly, so the sum is that of the first three elements
        pairs = (n - 3) // 2
        a[3 + pairs : 3 + 2 * pairs] = -a[3 : 3 + pairs]
        a[3 + 2 * pairs :] = 0.0
        if shape != "cancel":  # x + ulp(x)/2 lies halfway between two doubles; a third element may nudge it
            a[0] = np.ldexp(rng.uniform(1.0, 2.0), min(scale, 1022))
            a[1] = math.copysign(math.ulp(a[0]) / 2.0, rng.uniform(-1.0, 1.0))
            nudge = math.ulp(a[0]) * 2.0 ** -draw(st.integers(min_value=2, max_value=60))
            a[2] = math.copysign(nudge, rng.uniform(-1.0, 1.0)) if shape == "near_tie" else 0.0
        a = rng.permutation(a)
    specials = st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(SUM_SPECIALS)), max_size=3)
    for index, value in draw(specials) if draw(st.booleans()) else ():
        a[index % n] = value
    return a


@st.composite
def sum_arrays(draw):
    """1 to 2000 float64s, one :func:`sum_row`."""
    n = draw(st.integers(min_value=1, max_value=2000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(SUM_SHAPES))
    return sum_row(draw, rng, n, shape, sum_scale(draw))


@st.composite
def sum_blocks(draw):
    """2 to 6 :func:`sum_row` rows of 1 to 1000 float64s, their scales up to 2**100 (about 1e30) apart."""
    n = draw(st.integers(min_value=1, max_value=1000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    top = sum_scale(draw)
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        shape = draw(st.sampled_from(SUM_SHAPES))
        rows.append(sum_row(draw, rng, n, shape, top - draw(st.integers(min_value=0, max_value=100))))
    return np.array(rows)


@example(np.array([-0.0]))
@example(np.array([0.0, -0.0]))
@example(np.array([1.0, 2.0**-53]))  # a tie, rounded to even
@example(np.array([1.0 + 2.0**-52, 2.0**-53]))  # a tie, rounded up to even
@example(np.array([1.7e308, 1.7e308]))  # intermediate overflow
@example(np.array([math.inf, -math.inf]))
@example(np.array([math.nan, 1.0]))
@given(sum_arrays())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_exact_sum_is_fsum_bit_for_bit(a):
    assert sum_outcome(exact_sum, a) == sum_outcome(fsum_of_list, a)


def row_outcomes(block: np.ndarray):
    """Each row's ``math.fsum`` as its bits, or the first row's error: what ``exact_sum(block)`` must give."""
    outcomes = [sum_outcome(fsum_of_list, row) for row in block]
    return next((outcome for outcome in outcomes if isinstance(outcome, tuple)), outcomes)


def block_outcome(block: np.ndarray):
    try:
        sums = exact_sum(block)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return ["nan" if math.isnan(value) else value.hex() for value in sums]


# One sigma splits a whole block only when it can serve every row, and a row it cannot certify is
# split again on its own sigma; whichever path a row takes, its sum must be its own math.fsum.
@example(np.array([[1.0, 2.0**-53], [3.0, 4.0]]))  # a tie beside a row that certifies
@example(np.array([[1e30, 1.0], [1.0, 1e-30]]))
@example(np.array([[1.0, math.nan], [1.0, 2.0]]))
@example(np.array([[1.0, 2.0], [math.inf, -math.inf]]))
@given(sum_blocks())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_row_wise_exact_sum_is_each_rows_fsum_bit_for_bit(block):
    assert block_outcome(block) == row_outcomes(block)


@pytest.mark.parametrize("far_below", [False, True], ids=["one-sigma", "far-below"])
def test_exact_sum_falls_back_only_for_the_rows_it_cannot_certify(monkeypatch, far_below):
    rng = np.random.default_rng(4)
    block = np.zeros((5, 1000))
    block[0] = rng.uniform(0.1, 10.0, 1000)
    block[1, :2] = 1.0, 2.0**-53  # a tie
    block[2] = rng.uniform(0.1, 10.0, 1000) * (1e-30 if far_below else 1.0)
    block[3, :3] = 1.0, -1.0, 2.0**-60  # cancellation to about 0
    block[4] = rng.normal(0.0, 1e3, 1000)
    expected, calls, one_row, fsum, split = row_outcomes(block), [], [], math.fsum, kernel.exact_sum
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(bytes(values)) or fsum(values))
    monkeypatch.setattr(kernel, "exact_sum", lambda row: one_row.append(row.tobytes()) or split(row))
    assert block_outcome(block) == expected
    # a row far below the block's largest element puts every row on its own sigma; otherwise
    # only the rows the shared sigma cannot certify are split again, alone
    assert one_row == [block[k].tobytes() for k in ((0, 1, 2, 3, 4) if far_below else (1, 3))]
    assert calls == [block[k].tobytes() for k in (1, 3)]


@pytest.mark.parametrize(
    "a, falls_back",
    [
        (np.random.default_rng(2).uniform(0.1, 10.0, 1000), False),
        (np.random.default_rng(3).normal(0.0, 1e-200, 1000), False),
        (np.array([1.0, 2.0**-53]), True),  # a tie
        (np.array([1.0, -1.0, 2.0**-60]), True),  # cancellation to about 0
        (np.full(5, 1e300), True),  # past the split's range
        (np.array([5e-324, 1e-300]), True),  # below it
        (np.array([1.0, math.nan]), True),
    ],
    ids=["uniform", "tiny-mixed-signs", "tie", "cancellation", "huge", "subnormal", "nan"],
)
def test_exact_sum_falls_back_to_fsum_only_where_it_cannot_certify_the_rounding(monkeypatch, a, falls_back):
    expected, calls, fsum = sum_outcome(fsum_of_list, a), [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(values) or fsum(values))
    assert sum_outcome(exact_sum, a) == expected
    assert len(calls) == (1 if falls_back else 0)


@pytest.mark.parametrize(
    "a",
    [[math.nan, 1.0], [math.inf, 1.0], [math.inf, -math.inf], [-math.inf] * 300, [1.7e308, 1.7e308], [2.0**899] * 2000],
)
def test_exact_sum_raises_no_numpy_warning(a):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sum_outcome(exact_sum, np.array(a))
    assert caught == []


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
    adjustable, _ = evaluate("proposed", cfg, xs, ys, np.zeros(xs.size))
    fixed, _ = evaluate("benchmark2", cfg, xs, ys, np.zeros(xs.size))
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


@pytest.mark.parametrize("variable", sorted(SWEEP_VALUES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_evaluators_equal_the_scalar_path_bit_for_bit(name, variable):
    field, to_si = VARIABLES[variable]
    xs, ys, shadows = draw(CONFIGS[name], sorted(CONFIGS).index(name))
    users = positions(xs, ys)
    for value in SWEEP_VALUES[variable]:
        cfg = replace(CONFIGS[name], **{field: to_si(value)})
        for scheme, (totals, bs_powers) in scalar_results(cfg, users, shadows).items():
            total, bs_w = evaluate(scheme, cfg, xs, ys, shadows)
            assert total.tolist() == totals, (scheme, value)
            assert bs_w.tolist() == bs_powers, (scheme, value)


def both_paths(cfg: SystemConfig, xs, ys, shadows) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """Each scheme's (total, BS power) per user from the scalar path and from its evaluator."""
    scalar = scalar_results(cfg, positions(xs, ys), shadows)
    return {
        scheme: [tuple(np.array(a) for a in scalar[scheme]), evaluate(scheme, cfg, xs, ys, shadows)]
        for scheme in _OUTPUTS
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
    for scheme in _OUTPUTS:
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
    link = link_factors(g1_sq, sigma_r_sq_w, sigma_ue_sq_w)
    target = target_factors(gamma0, cfg.pa_efficiency, g1_sq, sigma_r_sq_w, sigma_ue_sq_w)
    # the relay schemes' second-hop stage (the placement's row, then the feed's), then the split their power stage makes
    for hop, g2 in zip(("placement", "feed"), _STAGES["second_hop"].run(cfg, xs, ys)):
        p1, beta_sq = split_powers(target, *split_terms(link, g2))
        for k in range(xs.size):
            gains = ChannelGains(g1_sq, float(g2[k]) * float(g2[k]), sigma_r_sq_w, sigma_ue_sq_w)
            assert af_snr(float(p1[k]), float(beta_sq[k]), gains) == pytest.approx(gamma0, rel=1e-9), hop
    _, tx = evaluate("benchmark1", cfg, xs, ys, shadows)
    # the direct scheme's path-loss stage, on its geometry and shadowing stages
    gain = _STAGES["path_loss"].run(cfg, _STAGES["geometry"].run(cfg, xs, ys), _STAGES["shadowing"].run(cfg, shadows))
    np.testing.assert_allclose(tx * gain / sigma_ue_sq_w, gamma0, rtol=1e-9, atol=0.0)
    for x, y, shadow in zip(xs.tolist(), ys.tolist(), shadows.tolist()):
        gain = direct_path_gain(cfg, ground_distance_m(x, y, math.sqrt), shadowing_gain(shadow, math.pow))
        received = benchmark1_tx_power_w(cfg, x, y, shadow) * gain
        assert received / sigma_ue_sq_w == pytest.approx(gamma0, rel=1e-9)
