"""Acceptance gate: every release criterion, one pass/fail line each.

Run ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion lines.
Each criterion states its tolerance inline; randomized checks use frozen
seeds so the gate is deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np

from pinchrelay import (
    ChannelGains,
    SweepSpec,
    SystemConfig,
    UePosition,
    af_snr,
    channel_gains,
    export_csv,
    grid_search_pin,
    numeric_power_min,
    optimal_pin_position,
    optimal_power_allocation,
    run_sweep,
    solve,
)
from pinchrelay.cli import cli_main
from pinchrelay.model import consumed_power, relay_tx_power
from grid_oracles import grid_power_min_2d, pin_objective

BASE = SystemConfig()
SCHEMES = ("proposed", "benchmark1", "benchmark2")


def _report(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {status}{suffix}")
    assert passed, f"criterion {number} [{label}] failed{suffix}"


def _random_placement_scenario(rng) -> tuple[SystemConfig, UePosition]:
    cfg = replace(
        BASE,
        waveguide_attenuation_per_m=float(10.0 ** rng.uniform(-4.0, -1.0)),
        waveguide_height_m=float(rng.uniform(1.0, 10.0)),
        waveguide_length_m=float(rng.uniform(5.0, 50.0)),
    )
    ue = UePosition(float(rng.uniform(-10.0, 50.0)), float(rng.uniform(0.0, 20.0)))
    return cfg, ue


def _random_power_scenario(rng) -> tuple[SystemConfig, ChannelGains]:
    cfg = replace(
        BASE,
        waveguide_attenuation_per_m=float(10.0 ** rng.uniform(-4.0, -1.3)),
        bs_relay_distance_m=float(rng.uniform(30.0, 100.0)),
        waveguide_height_m=float(rng.uniform(2.0, 6.0)),
        snr_target_linear=float(10.0 ** rng.uniform(0.5, 3.0)),
        pa_efficiency=float(rng.uniform(0.6, 1.0)),
    )
    ue = UePosition(float(rng.uniform(0.0, cfg.coverage_x_m)), float(rng.uniform(0.0, cfg.coverage_y_m)))
    gains = channel_gains(cfg, ue, optimal_pin_position(cfg, ue))
    return cfg, gains


def test_criterion_1_placement_matches_grid_oracle():
    """1000 random scenarios: position within 1 cm of a 1 mm grid search and
    objective never beaten by more than 1e-10 relative, in under 30 s."""
    rng = np.random.default_rng(2026_08_08)
    started = time.perf_counter()
    worst_dx, worst_shortfall = 0.0, 0.0
    for _ in range(1000):
        cfg, ue = _random_placement_scenario(rng)
        x_closed = optimal_pin_position(cfg, ue)
        x_grid, f_grid = grid_search_pin(cfg, ue, 1e-3)
        f_closed = pin_objective(cfg, ue, x_closed)
        worst_dx = max(worst_dx, abs(x_closed - x_grid))
        worst_shortfall = max(worst_shortfall, (f_grid - f_closed) / f_grid)
    elapsed = time.perf_counter() - started
    ok = worst_dx <= 1e-2 and worst_shortfall <= 1e-10 and elapsed < 30.0
    _report(1, "placement vs 1 mm grid oracle", ok,
            f"max |dx| {worst_dx:.2e} m, max shortfall {worst_shortfall:.2e}, {elapsed:.1f} s")


def test_criterion_2_power_matches_numeric_oracle():
    """500 random scenarios: closed-form cost within 0.1% of the golden-section
    search along the constraint curve; 2-D feasibility grid agrees within 1% on
    20 of them; under 60 s."""
    rng = np.random.default_rng(314159)
    started = time.perf_counter()
    worst_1d, worst_2d = 0.0, 0.0
    for index in range(500):
        cfg, gains = _random_power_scenario(rng)
        _, _, j_closed = optimal_power_allocation(gains, cfg)
        p1_ref, beta_ref, j_grid = numeric_power_min(gains, cfg)
        worst_1d = max(worst_1d, abs(j_closed - j_grid) / j_grid)
        if index < 20:
            p1_grid = np.logspace(math.log10(p1_ref / 3.0), math.log10(p1_ref * 3.0), 501)
            beta_grid = np.logspace(math.log10(beta_ref / 5.0), math.log10(beta_ref * 5.0), 501)
            _, _, j_2d = grid_power_min_2d(gains, cfg, p1_grid, beta_grid)
            worst_2d = max(worst_2d, abs(j_2d - j_closed) / j_closed)
    elapsed = time.perf_counter() - started
    ok = worst_1d <= 1e-3 and worst_2d <= 1e-2 and elapsed < 60.0
    _report(2, "power split vs grid oracles", ok,
            f"max 1-D gap {worst_1d:.2e}, max 2-D gap {worst_2d:.2e}, {elapsed:.1f} s")


def test_criterion_3_snr_constraint_active_everywhere():
    """The optimal pair always meets the SNR target with equality, 1e-9 relative."""
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(500):
        cfg, gains = _random_power_scenario(rng)
        p1, beta_sq, _ = optimal_power_allocation(gains, cfg)
        worst = max(worst, abs(af_snr(p1, beta_sq, gains) - cfg.snr_target_linear) / cfg.snr_target_linear)
    _report(3, "SNR constraint active", worst <= 1e-9, f"max relative slack {worst:.2e}")


def test_criterion_4_symmetric_toy_exact():
    """Unit gains, unit noise, unit efficiency, unit target: hand-evaluated optimum."""
    cfg = SystemConfig(pa_efficiency=1.0, snr_target_linear=1.0)
    gains = ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
    p1, beta_sq, j = optimal_power_allocation(gains, cfg)
    ok = (
        abs(p1 - (1.0 + math.sqrt(2.0))) <= 1e-12 * (1.0 + math.sqrt(2.0))
        and abs(beta_sq - 1.0 / math.sqrt(2.0)) <= 1e-12
        and abs(j - (2.0 + 2.0 * math.sqrt(2.0))) <= 1e-12 * (2.0 + 2.0 * math.sqrt(2.0))
    )
    _report(4, "symmetric toy exactness", ok, f"p1={p1!r}, beta_sq={beta_sq!r}, j={j!r}")


def _ordering_holds(records) -> bool:
    return all(
        r.mean_total_power_w["proposed"] < r.mean_total_power_w["benchmark2"] < r.mean_total_power_w["benchmark1"]
        for r in records
    )


def _strictly_increasing(records, scheme) -> bool:
    means = [r.mean_total_power_w[scheme] for r in records]
    return all(b > a for a, b in zip(means, means[1:]))


def test_criterion_5_snr_target_sweep_trends():
    """SNR-target sweep 10-30 dB: per-scheme means strictly increase, the
    adjustable scheme beats the fixed relay beats the direct array at every
    point, the direct array never drops below its 6.4 W RF floor; under 2 min."""
    started = time.perf_counter()
    spec = SweepSpec(
        variable="snr_target_db",
        values=tuple(float(v) for v in range(10, 31, 2)),
        ue_samples=1000,
        seed=11,
    )
    records = run_sweep(BASE, spec)
    elapsed = time.perf_counter() - started
    increasing = all(_strictly_increasing(records, s) for s in SCHEMES)
    floored = all(r.mean_total_power_w["benchmark1"] > 6.4 for r in records)
    ok = increasing and _ordering_holds(records) and floored and elapsed < 120.0
    _report(5, "SNR-target sweep trends", ok, f"{len(records)} values, {elapsed:.1f} s")


def test_criterion_6_relay_distance_sweep_trends():
    """Distance sweep 30-100 m at a 20 dB target: relay schemes strictly
    increase and the scheme ordering holds at every point."""
    spec = SweepSpec(
        variable="bs_relay_distance_m",
        values=tuple(float(v) for v in range(30, 101, 10)),
        ue_samples=1000,
        seed=13,
    )
    records = run_sweep(BASE, spec)
    increasing = _strictly_increasing(records, "proposed") and _strictly_increasing(records, "benchmark2")
    ok = increasing and _ordering_holds(records)
    _report(6, "relay-distance sweep trends", ok, f"{len(records)} values")


def test_criterion_7_limit_behaviour():
    """Vanishing attenuation pins the antenna under the user with O(alpha)
    error; a user too far off the waveguide pins it at the feed exactly."""
    ue = UePosition(15.0, 5.0)
    c_const = ue.y_ue_m**2 + BASE.waveguide_height_m**2
    errors = []
    for alpha in (1e-3, 1e-4, 1e-5):
        cfg = replace(BASE, waveguide_attenuation_per_m=alpha)
        errors.append(abs(optimal_pin_position(cfg, ue) - 15.0))
    bounded = all(err <= alpha * c_const for err, alpha in zip(errors, (1e-3, 1e-4, 1e-5)))
    scaling = all(8.0 <= a / b <= 12.0 for a, b in zip(errors, errors[1:]))
    pinned = optimal_pin_position(BASE, UePosition(15.0, 100.0)) == 0.0
    ok = bounded and scaling and pinned
    _report(7, "limit behaviour", ok, f"errors {[f'{e:.2e}' for e in errors]}, feed-pinned: {pinned}")


def test_criterion_8_total_power_identity():
    """Total power decomposes exactly (1e-12 relative) for 10^4 random
    operating points, and at the optimum equals the closed-form cost over the
    PA efficiency plus the constant circuit terms."""
    ue = UePosition(15.0, 5.0)
    gains = channel_gains(BASE, ue, optimal_pin_position(BASE, ue))
    eta = BASE.pa_efficiency
    constants = BASE.relay_circuit_power_w + BASE.bs_rf_chain_power_w
    rng = np.random.default_rng(97)
    p1s = 10.0 ** rng.uniform(-6.0, 3.0, 10_000)
    betas = 10.0 ** rng.uniform(-3.0, 12.0, 10_000)
    worst = 0.0
    for p1, beta_sq in zip(p1s, betas):
        total = consumed_power(
            float(p1), relay_tx_power(float(p1), float(beta_sq), gains.g1_sq, gains.sigma_r_sq_w), BASE
        )
        p2 = beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w)
        direct = p1 + p2 / eta + constants
        cost = eta * p1 + beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w)
        via_cost = cost / eta + constants
        worst = max(worst, abs(total - direct) / total, abs(total - via_cost) / total)
    sol = solve(BASE, ue)
    at_optimum = abs(sol.total_power_w - (sol.j_star_w / eta + constants)) / sol.total_power_w
    ok = worst <= 1e-12 and at_optimum <= 1e-12
    _report(8, "total-power identity", ok, f"max gap {worst:.2e}, at optimum {at_optimum:.2e}")


def test_criterion_9_sweep_determinism(tmp_path):
    """Identical seeds give bitwise-identical CSV output, via the API and the CLI."""
    spec = SweepSpec(variable="snr_target_db", values=(10.0, 20.0, 30.0), ue_samples=200, seed=7)
    api_a, api_b = tmp_path / "api_a.csv", tmp_path / "api_b.csv"
    export_csv(run_sweep(BASE, spec), api_a)
    export_csv(run_sweep(BASE, spec), api_b)
    cli_a, cli_b = tmp_path / "cli_a.csv", tmp_path / "cli_b.csv"
    argv = ["sweep", "--var", "gamma0", "--values", "10:10:30dB", "--samples", "200", "--seed", "7"]
    assert cli_main(argv + ["--out", str(cli_a)]) == 0
    assert cli_main(argv + ["--out", str(cli_b)]) == 0
    ok = api_a.read_bytes() == api_b.read_bytes() and cli_a.read_bytes() == cli_b.read_bytes()
    _report(9, "sweep determinism", ok)
