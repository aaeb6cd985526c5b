"""Benchmark schemes: direct massive-array link and fixed-antenna relay link."""

import math
import random
import re
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchrelay import (
    SystemConfig,
    UePosition,
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
    db_to_linear,
    solve,
)
from pinchrelay.benchmarks import (
    NUM_ELEMENTS,
    SHADOW_DB_DOMAIN,
    SHADOWING_STD_DB,
    benchmark1_link_gain,
    distance_loss,
    ground_distance_m,
)
from pinchrelay.model import DOMAIN, SPEED_OF_LIGHT_M_S, UE_DOMAIN, free_space_gain, relay_ue_gain

from kernel_eval import evaluate

NO_SHADOW = 0.0


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return min(max(math.exp(rng.uniform(math.log(lo), math.log(hi))), lo), hi)


def coordinate(rng: random.Random, tiniest: float) -> float:
    """A user coordinate in UE_DOMAIN: 0, uniform, or of log-uniform magnitude from ``tiniest`` up, either sign."""
    r = rng.random()
    if r < 0.05:
        return 0.0
    if r < 0.5:
        return rng.uniform(*UE_DOMAIN)
    return math.copysign(log_uniform(rng, tiniest, UE_DOMAIN[1]), rng.random() - 0.5)


def ulps(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(value)))


class TestBenchmark1:
    def test_friis_consistency(self, cfg):
        # d1 = 50 m plus a user 30 m down the waveguide axis: an 80 m direct path,
        # free space up to the 1 m anchor and exponent-4 decay beyond it
        assert cfg.bs_relay_distance_m == 50.0
        anchor = (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * cfg.carrier_frequency_hz)) ** 2
        gain = NUM_ELEMENTS * db_to_linear(2.15) * anchor * 80.0**-4
        tx = benchmark1_tx_power_w(cfg, 30.0, 0.0, NO_SHADOW)
        assert tx == pytest.approx(cfg.snr_target_linear * cfg.ue_noise_w / gain, rel=1e-12)

    def test_rf_chain_floor(self, cfg):
        # direct paths of 30, 65 and 130 m
        for d1, x_ue in ((30.0, 0.0), (50.0, 15.0), (100.0, 30.0)):
            near = replace(cfg, bs_relay_distance_m=d1)
            for shadow_db in (-10.0, 0.0, 10.0):
                total = benchmark1_total_power_w(near, benchmark1_tx_power_w(near, x_ue, 0.0, shadow_db))
                assert total > 64 * 0.1

    def test_shadowing_shifts_power_in_db(self, cfg):
        boosted = benchmark1_tx_power_w(cfg, 15.0, 0.0, 0.0)
        faded = benchmark1_tx_power_w(cfg, 15.0, 0.0, 10.0)
        assert boosted / faded == pytest.approx(10.0, rel=1e-12)

    def test_default_geometry(self, cfg):
        # the direct path is d1 plus the ground distance from the feed to the user
        at_feed = benchmark1_tx_power_w(cfg, 0.0, 0.0, NO_SHADOW)
        assert benchmark1_tx_power_w(replace(cfg, bs_relay_distance_m=20.0), 30.0, 0.0, NO_SHADOW) == at_feed
        far = benchmark1_tx_power_w(cfg, 30.0, 10.0, NO_SHADOW)
        assert far / at_feed == pytest.approx(((50.0 + math.hypot(30.0, 10.0)) / 50.0) ** 4, rel=1e-12)

    def test_mean_power_reproducible(self, cfg):
        def mean_total(seed: int) -> float:
            draws = np.random.default_rng(seed).normal(0.0, SHADOWING_STD_DB, 100_000)
            totals = benchmark1_total_power_w(cfg, benchmark1_tx_power_w(cfg, 15.0, 5.0, draws))
            return math.fsum(totals.tolist()) / totals.size

        assert mean_total(5) == mean_total(5)
        assert abs(mean_total(5) - mean_total(6)) <= 0.01 * mean_total(5)

    @pytest.mark.parametrize(
        "arg, value",
        [(0, math.nan), (1, math.nan), (2, math.nan), (0, math.inf), (1, -math.inf), (2, -math.inf), (2, 4000.0)],
        ids=["x-nan", "y-nan", "shadow-nan", "x-inf", "y--inf", "shadow--inf", "shadow-4000"],
    )
    def test_out_of_domain_user_input_is_a_named_error(self, cfg, arg, value):
        # arg = which of (x_ue_m, y_ue_m, shadow_db) is outside its domain
        name, bounds = [("x_ue_m", "[-100000, 100000]"), ("y_ue_m", "[-100000, 100000]"), ("shadow_db", "[-100, 100]")][arg]
        message = f"{name} must lie in {bounds}, got {value!r}"
        floats = [15.0, 5.0, NO_SHADOW]
        floats[arg] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            benchmark1_tx_power_w(cfg, *floats)
        # in arrays the bad input sits at the second user, whose value the error names
        arrays = [np.array([x, x, x]) for x in (15.0, 5.0, NO_SHADOW)]
        arrays[arg][1:] = value, -1e9
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            benchmark1_tx_power_w(cfg, *arrays)

    @pytest.mark.parametrize(
        "frequency, d1, x_ue, y_ue, shadow_db",
        [
            (3.5e9, 10.0, 0.0, 0.0, 0.0),
            (28e9, 50.0, 15.0, 5.0, -6.0),
            (60e9, 200.0, 30.0, 10.0, 8.0),
            (140e9, 1.0, 3.0, 4.0, 2.5),
            (28e9, 1e3, 0.0, 10.0, -3.3),
        ],
    )
    def test_link_budget_matches_a_written_out_one(self, cfg, frequency, d1, x_ue, y_ue, shadow_db):
        # 64 elements of 2.15 dBi, free space to 1 m, exponent 4 beyond, shadowing in dB
        cfg = replace(cfg, carrier_frequency_hz=frequency, bs_relay_distance_m=d1)
        wavelength = SPEED_OF_LIGHT_M_S / frequency
        distance = d1 + math.sqrt(x_ue * x_ue + y_ue * y_ue)
        gain = 64 * 10.0 ** 0.215 * (wavelength / (4.0 * math.pi)) ** 2 / distance**4 * 10.0 ** (shadow_db / 10.0)
        tx = benchmark1_tx_power_w(cfg, x_ue, y_ue, shadow_db)
        assert tx == pytest.approx(cfg.snr_target_linear * cfg.ue_noise_w / gain, rel=1e-12)

    @pytest.mark.parametrize("pa_efficiency", [0.1, 0.35, 1.0])
    def test_total_power_is_pa_draw_plus_rf_chains(self, cfg, pa_efficiency):
        # 64 RF chains of 0.1 W each; the relay-side circuit and BS chain terms do not apply
        cfg = replace(cfg, pa_efficiency=pa_efficiency)
        tx = benchmark1_tx_power_w(cfg, 15.0, 5.0, NO_SHADOW)
        assert benchmark1_total_power_w(cfg, tx) == tx / pa_efficiency + 64 * 0.1
        txs = benchmark1_tx_power_w(cfg, np.array([0.0, 15.0, 30.0]), np.array([0.0, 5.0, 10.0]), np.zeros(3))
        assert benchmark1_total_power_w(cfg, txs).tolist() == [t / pa_efficiency + 64 * 0.1 for t in txs.tolist()]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("waveguide_attenuation_per_m", 0.3),
            ("waveguide_height_m", 7.0),
            ("waveguide_length_m", 40.0),
            ("horn_gain_tx_dbi", 30.0),
            ("horn_gain_rx_dbi", 5.0),
            ("relay_circuit_power_w", 2.0),
            ("bs_rf_chain_power_w", 1.0),
            ("noise_figure_db", 3.0),
        ],
    )
    def test_reads_no_relay_or_waveguide_field(self, cfg, field, value):
        # the direct scheme has no relay: with the terminal's own noise figure set,
        # no relay, waveguide or relay-noise field may move its powers
        base = replace(cfg, ue_noise_figure_db=7.0)
        changed = replace(base, **{field: value})
        assert getattr(changed, field) != getattr(base, field)
        rng = np.random.default_rng(11)
        xs, ys, shadows = rng.uniform(0.0, 30.0, 50), rng.uniform(0.0, 10.0, 50), rng.normal(0.0, SHADOWING_STD_DB, 50)
        tx = benchmark1_tx_power_w(base, xs, ys, shadows)
        assert benchmark1_tx_power_w(changed, xs, ys, shadows).tolist() == tx.tolist()
        assert benchmark1_total_power_w(changed, tx).tolist() == benchmark1_total_power_w(base, tx).tolist()


class TestDirectLinkForms:
    """The ground distance sqrt(x*x + y*y) and the distance loss 1/(d2*d2), d2 = d*d: IEEE operators and a
    correctly rounded square root, so the float and array paths agree on any CPU."""

    def test_each_form_is_within_its_ulp_bound_of_a_decimal_reference(self):
        # the ground distance wherever both squares are normal or 0 (coordinates from 1e-153 m); the
        # distance loss at its float input d = d1 + ground, over d1's domain and ground distances across
        # UE_DOMAIN.  math.hypot and math.pow(d, -4) were within 0.5 ulp; these reach 1.10 and 3.21 here.
        bounds = {"ground_distance_m": 1.5, "distance_loss": 4.0}
        rng = random.Random(36)
        failures = []
        with localcontext() as ctx:
            ctx.prec = 60
            for _ in range(20_000):
                x, y = coordinate(rng, 1e-153), coordinate(rng, 1e-153)
                d1 = log_uniform(rng, *DOMAIN["bs_relay_distance_m"])
                ground = ground_distance_m(x, y)
                loss = distance_loss(d1, ground)
                d = d1 + ground
                for field, inputs, value, exact in (
                    ("ground_distance_m", f"x={x!r}, y={y!r}", ground, (Decimal(x) ** 2 + Decimal(y) ** 2).sqrt()),
                    ("distance_loss", f"d1={d1!r}, ground={ground!r} (d={d!r})", loss, 1 / Decimal(d) ** 4),
                ):
                    error = ulps(value, exact)
                    if error > bounds[field]:
                        failures.append(f"{field} at {inputs}: {error:.2f} ulp, over {bounds[field]}")
        assert not failures, "; ".join(failures[:5])

    def test_coordinates_whose_squares_underflow_give_the_gain_at_the_feed(self, cfg):
        # below about 1e-154 m the squares underflow and the ground distance loses its ulp bound, but it
        # stays below 2e-154 m, which d1 >= 0.1 m absorbs: the gain is the one at ground distance 0, bit for bit
        rng = random.Random(37)
        for _ in range(2_000):
            cfg = replace(
                cfg,
                bs_relay_distance_m=log_uniform(rng, *DOMAIN["bs_relay_distance_m"]),
                carrier_frequency_hz=log_uniform(rng, *DOMAIN["carrier_frequency_hz"]),
            )
            x, y = (math.copysign(log_uniform(rng, 5e-324, 1e-154), rng.random() - 0.5) for _ in range(2))
            shadow_db = rng.uniform(*SHADOW_DB_DOMAIN)
            gain, at_feed = benchmark1_link_gain(cfg, x, y, shadow_db), benchmark1_link_gain(cfg, 0.0, 0.0, shadow_db)
            assert gain.hex() == at_feed.hex(), f"x={x!r}, y={y!r}, d1={cfg.bs_relay_distance_m!r}"

    @pytest.mark.parametrize("d1", [0.1, 50.0, 1e5])
    @pytest.mark.parametrize("frequency", [1e8, 28e9, 1e13])
    def test_floats_give_floats_equal_to_the_array_path(self, cfg, d1, frequency):
        cfg = replace(cfg, bs_relay_distance_m=d1, carrier_frequency_hz=frequency)
        rng = random.Random(38)
        corners = [(1e5, 1e5, 100.0), (-1e5, 0.0, -100.0), (1e-160, -1e-200, 0.0), (5e-324, 0.0, 3.0), (0.0, 0.0, 0.0)]
        users = corners + [
            (coordinate(rng, 5e-324), coordinate(rng, 5e-324), rng.uniform(*SHADOW_DB_DOMAIN)) for _ in range(300)
        ]
        xs, ys, shadows = (np.array(column) for column in zip(*users))
        for fn in (benchmark1_link_gain, benchmark1_tx_power_w):
            floats = [fn(cfg, x, y, shadow_db) for x, y, shadow_db in users]
            assert all(type(value) is float for value in floats), fn.__name__
            assert fn(cfg, xs, ys, shadows).tolist() == floats, fn.__name__


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

    @given(
        alpha=st.floats(min_value=1e-5, max_value=1.0),
        gamma0_db=st.floats(min_value=-20.0, max_value=60.0),
        d1=st.floats(min_value=1.0, max_value=1e4),
        x_ue=st.floats(min_value=0.0, max_value=30.0),
        y_ue=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_dominated_per_user_on_both_paths(self, alpha, gamma0_db, d1, x_ue, y_ue, seed):
        cfg = SystemConfig(
            waveguide_attenuation_per_m=alpha, snr_target_linear=db_to_linear(gamma0_db), bs_relay_distance_m=d1
        )
        ue = UePosition(x_ue, y_ue)
        assert solve(cfg, ue).total_power_w <= benchmark2_power(cfg, ue).total_power_w
        rng = np.random.default_rng(seed)
        xs, ys = rng.uniform(0.0, 30.0, 200), rng.uniform(0.0, 10.0, 200)
        adjustable, _ = evaluate("proposed", cfg, xs, ys, np.zeros(200))
        fixed, _ = evaluate("benchmark2", cfg, xs, ys, np.zeros(200))
        assert np.all(adjustable <= fixed)

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
