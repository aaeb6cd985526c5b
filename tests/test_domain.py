"""The physical domain: one bounds table per input, checked where the input is built, and what it bounds."""

import dataclasses
import math
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    numeric_power_min,
    optimal_power_allocation,
    solve,
    total_power_w,
)
from pinchrelay.benchmarks import ARRAY_ELEMENT_GAIN, NUM_ELEMENTS, RF_CHAIN_POWER_W
from pinchrelay.benchmarks import SHADOW_DB_DOMAIN
from pinchrelay.cli import _SCENARIO_FIELDS, cli_main
from pinchrelay.model import BOLTZMANN_J_PER_K, CHANNEL_DOMAIN, DOMAIN, NOISE_REFERENCE_TEMP_K, SPEED_OF_LIGHT_M_S
from pinchrelay.model import OPERATING_DOMAIN, UE_DOMAIN
from pinchrelay.sweep import SCHEMES

from kernel_eval import evaluate

README = Path(__file__).resolve().parents[1] / "README.md"
# every derived bound lies at least 2^100 inside the normal float range
SAFE = (sys.float_info.min * 2.0**100, sys.float_info.max / 2.0**100)
CHANNEL_FIELDS = ("g1_sq", "g2_sq", "sigma_r_sq_w", "sigma_ue_sq_w")


def message(name, value, bounds):
    return f"{name} must lie in [{bounds[0]:g}, {bounds[1]:g}], got {value!r}"


def just_past(bounds):
    return math.nextafter(bounds[0], -math.inf), math.nextafter(bounds[1], math.inf)


# the sweep and verify build each config's field dict from DOMAIN's keys
def test_domain_has_one_key_per_config_field_in_field_order():
    assert list(DOMAIN) == [field.name for field in dataclasses.fields(SystemConfig)]


class TestReadme:
    def test_domain_table_is_the_codes(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Domain\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| (\S+) \| (\S+) \|", section, re.MULTILINE)
        table = {name: (float(lo), float(hi)) for name, lo, hi in rows}
        assert len(table) == len(rows)
        code = {**DOMAIN, "x_ue_m": UE_DOMAIN, "y_ue_m": UE_DOMAIN, "shadow_db": SHADOW_DB_DOMAIN}
        code.update(dict.fromkeys(CHANNEL_FIELDS, CHANNEL_DOMAIN))
        code.update(dict.fromkeys(("p1_w", "beta_sq"), OPERATING_DOMAIN))
        assert table == code


class TestNamedRejection:
    @pytest.mark.parametrize(
        "name, value", [(name, value) for name in DOMAIN for value in just_past(DOMAIN[name])]
    )
    def test_each_field_just_past_each_bound_is_one_named_error_on_every_route(self, tmp_path, capsys, name, value):
        expected = message(name, value, DOMAIN[name])
        for build in (SystemConfig, lambda **changes: dataclasses.replace(SystemConfig(), **changes)):
            with pytest.raises(ValueError) as raised:
                build(**{name: value})
            assert str(raised.value) == expected
        config = tmp_path / "past.cfg"
        config.write_text(f"{name} = {value!r}\n", encoding="utf-8")
        for argv in (["config-dump", "--config", str(config)], ["solve", f"{_SCENARIO_FIELDS[name][0]}={value!r}"]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: invalid scenario configuration: {expected}\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, None])
    @pytest.mark.parametrize("name", sorted(DOMAIN))
    def test_values_far_outside_are_named_too(self, name, value):
        if value is None and name == "ue_noise_figure_db":
            assert SystemConfig(ue_noise_figure_db=None).ue_noise_w == SystemConfig().relay_noise_w
            return
        lo, hi = DOMAIN[name]
        if value is not None and lo <= value <= hi:
            assert getattr(SystemConfig(**{name: value}), name) == value
            return
        with pytest.raises(ValueError) as raised:
            SystemConfig(**{name: value})
        assert str(raised.value) == message(name, value, DOMAIN[name])

    def test_of_two_faults_the_first_field_is_named(self, capsys):
        with pytest.raises(ValueError, match=r"^horn_gain_tx_dbi must lie in \[-10, 60\], got 4000\.0$"):
            SystemConfig(horn_gain_tx_dbi=4000.0, horn_gain_rx_dbi=-4000.0)
        assert cli_main(["solve", "--ue", "15,5", "--freq", "1e-150", "--d1", "1e150"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid scenario configuration: carrier_frequency_hz must lie in [1e+08, 1e+13], got 1e-150\n"
        )

    @pytest.mark.parametrize("value", [*just_past(UE_DOMAIN), math.nan, math.inf, -1.7e308])
    @pytest.mark.parametrize("name", ["x_ue_m", "y_ue_m"])
    def test_each_user_coordinate_past_its_domain_is_one_named_error(self, name, value):
        coordinates = {"x_ue_m": 15.0, "y_ue_m": 5.0, name: value}
        expected = message(name, value, UE_DOMAIN)
        with pytest.raises(ValueError) as raised:
            UePosition(**coordinates)
        assert str(raised.value) == expected
        with pytest.raises(ValueError) as raised:
            benchmark1_tx_power_w(SystemConfig(), *coordinates.values(), 0.0)
        assert str(raised.value) == expected

    @pytest.mark.parametrize("value", [*just_past(SHADOW_DB_DOMAIN), math.nan, 4000.0])
    def test_a_shadowing_draw_past_its_domain_is_one_named_error(self, value):
        expected = message("shadow_db", value, SHADOW_DB_DOMAIN)
        with pytest.raises(ValueError) as raised:
            benchmark1_tx_power_w(SystemConfig(), 15.0, 5.0, value)
        assert str(raised.value) == expected
        # an array names its first draw at fault
        with pytest.raises(ValueError) as raised:
            benchmark1_tx_power_w(SystemConfig(), np.full(3, 15.0), np.full(3, 5.0), np.array([0.0, value, -1e9]))
        assert str(raised.value) == expected

    @pytest.mark.parametrize("value", [*just_past(CHANNEL_DOMAIN), 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", CHANNEL_FIELDS)
    def test_each_channel_value_past_its_domain_is_one_named_error(self, name, value):
        with pytest.raises(ValueError) as raised:
            ChannelGains(**{**dict.fromkeys(CHANNEL_FIELDS, 1.0), name: value})
        assert str(raised.value) == message(name, value, CHANNEL_DOMAIN)


def free_space(distance, frequency):
    return (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * frequency * distance)) ** 2


def db(value):
    return 10.0 ** (value / 10.0)


def product(a, b):
    return a[0] * b[0], a[1] * b[1]


def split_bounds(g1_sq, g2_sq, noise, gamma0, eta):
    """Bounds on the power split over boxes of |g1|^2, |g2|^2, both noise powers, gamma0 and eta.

    Every factor is positive and monotone in each input, so each bound is the
    formula at the corner that makes it smallest or largest.
    """
    floor = gamma0[0] * noise[0] / g1_sq[1], gamma0[1] * noise[1] / g1_sq[0]
    cross = noise[0] / math.sqrt(g1_sq[1] * g2_sq[1]), noise[1] / math.sqrt(g1_sq[0] * g2_sq[0])  # sigma_r sigma_ue / g1 g2
    ratio = math.sqrt(noise[0] / noise[1]), math.sqrt(noise[1] / noise[0])  # sigma_ue / sigma_r
    p1 = floor[0], floor[1] + cross[1] * math.sqrt(gamma0[1] * (gamma0[1] + 1.0) / eta[0])
    beta_sq = (
        ratio[0] / math.sqrt(g1_sq[1] * g2_sq[1]) * math.sqrt(eta[0] * gamma0[0] / (gamma0[0] + 1.0)),
        ratio[1] / math.sqrt(g1_sq[0] * g2_sq[0]) * math.sqrt(eta[1] * gamma0[1] / (gamma0[1] + 1.0)),
    )
    p2 = beta_sq[0] * (p1[0] * g1_sq[0] + noise[0]), beta_sq[1] * (p1[1] * g1_sq[1] + noise[1])
    root_j = math.sqrt(eta[1] * gamma0[1] * (gamma0[1] + 1.0))
    j = eta[0] * floor[0], eta[1] * floor[1] + gamma0[1] * noise[1] / g2_sq[0] + 2.0 * cross[1] * root_j
    return {"floor": floor, "p1": p1, "beta_sq": beta_sq, "p2": p2, "j": j}


def derived_bounds():
    """Each derived quantity's bounds over the domain."""
    (f_lo, f_hi), (b_lo, b_hi) = DOMAIN["carrier_frequency_hz"], DOMAIN["bandwidth_hz"]
    (h_lo, h_hi), (d1_lo, d1_hi) = DOMAIN["waveguide_height_m"], DOMAIN["bs_relay_distance_m"]
    gamma0, eta = DOMAIN["snr_target_linear"], DOMAIN["pa_efficiency"]
    horns = product(*[tuple(map(db, DOMAIN[name])) for name in ("horn_gain_tx_dbi", "horn_gain_rx_dbi")])
    figures = [tuple(map(db, DOMAIN[name])) for name in ("noise_figure_db", "ue_noise_figure_db")]
    figure = min(lo for lo, _ in figures), max(hi for _, hi in figures)
    ue_far = max(map(abs, UE_DOMAIN))
    g1_sq = horns[0] * free_space(d1_hi, f_hi), horns[1] * free_space(d1_lo, f_lo)
    k_t0 = BOLTZMANN_J_PER_K * NOISE_REFERENCE_TEMP_K
    noise = product((k_t0 * b_lo, k_t0 * b_hi), figure)
    # the chosen pinch point radiates at least as much as the feed, and at most as a pinch right over the user
    g2_sq = free_space(math.sqrt(2.0 * ue_far * ue_far + h_hi * h_hi), f_hi), free_space(h_lo, f_lo)
    bounds = {"g1_sq": g1_sq, "g2_sq": g2_sq, "noise": noise, **split_bounds(g1_sq, g2_sq, noise, gamma0, eta)}
    circuit = DOMAIN["relay_circuit_power_w"][1] + DOMAIN["bs_rf_chain_power_w"][1]
    bounds["relay_total"] = bounds["p1"][0] + bounds["p2"][0], bounds["p1"][1] + bounds["p2"][1] / eta[0] + circuit
    path = d1_lo, d1_hi + math.hypot(ue_far, ue_far)
    direct_gain = (
        ARRAY_ELEMENT_GAIN * free_space(1.0, f_hi) * path[1] ** -4 * db(SHADOW_DB_DOMAIN[0]),
        ARRAY_ELEMENT_GAIN * free_space(1.0, f_lo) * path[0] ** -4 * db(SHADOW_DB_DOMAIN[1]),
    )
    tx = gamma0[0] * noise[0] / direct_gain[1], gamma0[1] * noise[1] / direct_gain[0]
    chains = NUM_ELEMENTS * RF_CHAIN_POWER_W
    bounds.update(direct_gain=direct_gain, direct_tx=tx, direct_total=(tx[0] + chains, tx[1] / eta[0] + chains))
    return bounds


BOUNDS = derived_bounds()
CHANNEL_GAMMA0_ETA = DOMAIN["snr_target_linear"], DOMAIN["pa_efficiency"]
CHANNEL_BOUNDS = split_bounds(CHANNEL_DOMAIN, CHANNEL_DOMAIN, CHANNEL_DOMAIN, *CHANNEL_GAMMA0_ETA)


def within(bounds, name, value):
    """``value`` lies within ``bounds[name]``, give or take the rounding of a bound computed at its corner."""
    lo, hi = bounds[name]
    assert lo * (1.0 - 1e-12) <= value <= hi * (1.0 + 1e-12), (name, value, bounds[name])


def corner_config(rng):
    """A config at a random corner of the domain, with the terminal's noise figure set or reused."""
    values = {name: rng.choice(bounds) for name, bounds in DOMAIN.items()}
    if rng.random() < 0.25:
        values["ue_noise_figure_db"] = None
    return SystemConfig(**values)


class TestDerivedRange:
    @pytest.mark.parametrize("bounds", [BOUNDS, CHANNEL_BOUNDS], ids=["config-domain", "channel-domain"])
    def test_every_bound_lies_2_to_the_100_inside_the_float_range(self, bounds):
        for name, (lo, hi) in bounds.items():
            assert SAFE[0] <= lo <= hi <= SAFE[1], (name, lo, hi)

    def test_every_solve_s_operating_point_lies_in_its_domain(self):
        for name in ("p1", "beta_sq"):
            assert OPERATING_DOMAIN[0] <= BOUNDS[name][0] <= BOUNDS[name][1] <= OPERATING_DOMAIN[1], name

    def test_the_code_stays_within_the_bounds_at_the_domains_corners(self):
        rng = random.Random(2026)
        ends = (UE_DOMAIN[0], 0.0, UE_DOMAIN[1])
        for _ in range(3000):
            config = corner_config(rng)
            ue = UePosition(rng.choice(ends), rng.choice(ends))
            sol = solve(config, ue)
            gains = channel_gains(config, ue, sol.x_pin_m)
            within(BOUNDS, "g1_sq", gains.g1_sq)
            within(BOUNDS, "g2_sq", gains.g2_sq)
            within(BOUNDS, "noise", gains.sigma_r_sq_w)
            within(BOUNDS, "noise", gains.sigma_ue_sq_w)
            within(BOUNDS, "floor", config.snr_target_linear * gains.sigma_r_sq_w / gains.g1_sq)
            for scheme in (sol, benchmark2_power(config, ue)):
                for name, value in (("p1", scheme.p1_w), ("beta_sq", scheme.beta_sq), ("p2", scheme.p2_w)):
                    within(BOUNDS, name, value)
                # the operating point lies in OPERATING_DOMAIN: both functions take it
                gains_at = channel_gains(config, ue, scheme.x_pin_m)
                assert af_snr(scheme.p1_w, scheme.beta_sq, gains_at) > 0.0
                within(BOUNDS, "relay_total", total_power_w(scheme.p1_w, scheme.beta_sq, gains_at, config))
                within(BOUNDS, "j", scheme.j_star_w)
                within(BOUNDS, "relay_total", scheme.total_power_w)
            tx = benchmark1_tx_power_w(config, ue.x_ue_m, ue.y_ue_m, rng.choice(SHADOW_DB_DOMAIN))
            within(BOUNDS, "direct_tx", tx)
            within(BOUNDS, "direct_total", benchmark1_total_power_w(config, tx))

    def test_the_split_and_the_power_search_stay_finite_at_the_channel_domains_corners(self):
        ends = CHANNEL_DOMAIN
        for index in range(2**6):
            bits = [(index >> k) & 1 for k in range(6)]
            gains = ChannelGains(*(ends[bit] for bit in bits[:4]))
            gamma0, eta = (CHANNEL_GAMMA0_ETA[k][bit] for k, bit in enumerate(bits[4:]))
            config = SystemConfig(snr_target_linear=gamma0, pa_efficiency=eta)
            p1, beta_sq, j = optimal_power_allocation(gains, config)
            within(CHANNEL_BOUNDS, "p1", p1)
            within(CHANNEL_BOUNDS, "beta_sq", beta_sq)
            within(CHANNEL_BOUNDS, "j", j)
            p1_search, beta_sq_search, j_search = numeric_power_min(gains, config)
            assert all(map(math.isfinite, (p1_search, beta_sq_search)))
            within(CHANNEL_BOUNDS, "j", j_search)
            assert j_search == pytest.approx(j, rel=1e-9), gains


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda e: min(max(math.exp(e), lo), hi))


def field_values(name):
    lo, hi = DOMAIN[name]
    if name.endswith(("_db", "_dbi")):  # already logarithmic
        values = st.floats(lo, hi)
    elif lo == 0.0:  # a loss or a circuit power: none, or log-uniform over eight decades
        values = st.just(0.0) | log_uniform(hi * 1e-8, hi)
    else:
        values = log_uniform(lo, hi)
    return (st.none() | values) if name == "ue_noise_figure_db" else values


def coordinates():
    return st.just(0.0) | st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1e-3, UE_DOMAIN[1])).map(
        lambda signed: signed[0] * signed[1]
    )


@given(
    values=st.fixed_dictionaries({name: field_values(name) for name in DOMAIN}),
    x_ue=coordinates(),
    y_ue=coordinates(),
    shadow_db=st.floats(*SHADOW_DB_DOMAIN),
)
@settings(max_examples=300, deadline=None)
def test_configs_drawn_from_the_domain_give_finite_positive_powers(values, x_ue, y_ue, shadow_db):
    config, ue = SystemConfig(**values), UePosition(x_ue, y_ue)
    for sol in (solve(config, ue), benchmark2_power(config, ue)):
        assert 0.0 <= sol.x_pin_m <= config.waveguide_length_m
        powers = sol.p1_w, sol.beta_sq, sol.p2_w, sol.j_star_w, sol.total_power_w
        assert all(0.0 < value < math.inf for value in powers), sol
        within(BOUNDS, "relay_total", sol.total_power_w)
    tx = benchmark1_tx_power_w(config, x_ue, y_ue, shadow_db)
    assert 0.0 < tx < math.inf and 0.0 < benchmark1_total_power_w(config, tx) < math.inf
    within(BOUNDS, "direct_tx", tx)
    # the sweep kernel, which checks nothing either, raises no numpy warning (the suite makes one an error)
    xs, ys, shadows = (np.array([value, 0.0]) for value in (x_ue, y_ue, shadow_db))
    for scheme in SCHEMES:
        total, bs_w = evaluate(scheme, config, xs, ys, shadows)
        assert np.all((0.0 < total) & (total < math.inf) & (0.0 < bs_w) & (bs_w < math.inf))
