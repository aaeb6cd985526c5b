"""Link-budget model: noise, free-space gain, hop gains, AF SNR, power accounting."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchrelay import (
    Benchmark1Config,
    ChannelGains,
    SystemConfig,
    UePosition,
    af_snr,
    channel_gains,
    db_to_linear,
    total_power_w,
)
from pinchrelay.model import (
    BOLTZMANN_J_PER_K,
    SPEED_OF_LIGHT_M_S,
    bs_relay_gain,
    free_space_gain,
    linear_to_db,
    noise_power_w,
    relay_tx_power_w,
    relay_ue_gain,
)

C = SPEED_OF_LIGHT_M_S


def toy_gains(g1_sq=1.0, g2_sq=1.0, sigma_r=1.0, sigma_ue=1.0) -> ChannelGains:
    return ChannelGains(g1_sq=g1_sq, g2_sq=g2_sq, sigma_r_sq_w=sigma_r, sigma_ue_sq_w=sigma_ue)


gain_values = st.floats(min_value=1e-14, max_value=1e-2)
noise_values = st.floats(min_value=1e-15, max_value=1e-9)


class TestNoisePower:
    def test_default_link(self):
        expected = BOLTZMANN_J_PER_K * 290.0 * 400e6 * 10.0  # kT0 * B * F, NF = 10 dB
        assert noise_power_w(400e6, 10.0) == pytest.approx(expected, rel=1e-12)
        assert noise_power_w(400e6, 10.0) == pytest.approx(1.602e-11, rel=1e-3)

    def test_per_hertz_floor(self):
        assert noise_power_w(1.0, 0.0) == pytest.approx(BOLTZMANN_J_PER_K * 290.0, rel=1e-12)
        assert noise_power_w(1.0, 0.0) == pytest.approx(4.004e-21, rel=1e-3)

    def test_ten_db_is_a_factor_ten(self):
        assert noise_power_w(400e6, 10.0) / noise_power_w(400e6, 0.0) == pytest.approx(10.0, rel=1e-15)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0])
    def test_rejects_nonpositive_bandwidth(self, bandwidth):
        with pytest.raises(ValueError):
            noise_power_w(bandwidth, 10.0)


class TestFreeSpaceGain:
    def test_reference_value(self):
        wavelength = C / 28e9
        expected = (wavelength / (4.0 * math.pi * 50.0)) ** 2
        assert free_space_gain(50.0, 28e9) == pytest.approx(expected, rel=1e-12)
        assert free_space_gain(50.0, 28e9) == pytest.approx(2.904e-10, rel=1e-3)

    @given(
        distance=st.floats(min_value=0.1, max_value=1e5),
        frequency=st.floats(min_value=1e8, max_value=1e12),
    )
    def test_inverse_square_laws(self, distance, frequency):
        base = free_space_gain(distance, frequency)
        assert abs(base / free_space_gain(2.0 * distance, frequency) - 4.0) < 1e-15
        assert abs(base / free_space_gain(distance, 2.0 * frequency) - 4.0) < 1e-15

    @pytest.mark.parametrize("distance,frequency", [(0.0, 28e9), (-1.0, 28e9), (50.0, 0.0), (50.0, -2.0)])
    def test_rejects_nonpositive_arguments(self, distance, frequency):
        with pytest.raises(ValueError):
            free_space_gain(distance, frequency)


class TestBsRelayGain:
    def test_defaults(self, cfg):
        expected = 1e4 * free_space_gain(50.0, 28e9)  # 20 + 20 dBi
        assert bs_relay_gain(cfg) == pytest.approx(expected, rel=1e-12)
        assert bs_relay_gain(cfg) == pytest.approx(2.904e-6, rel=1e-3)

    def test_unity_horns(self):
        cfg = SystemConfig(horn_gain_tx_dbi=0.0, horn_gain_rx_dbi=0.0)
        assert bs_relay_gain(cfg) == pytest.approx(free_space_gain(50.0, 28e9), rel=1e-15)

    def test_db_arithmetic(self, cfg):
        bumped = SystemConfig(horn_gain_tx_dbi=23.0)
        assert bumped.horn_gain_rx_dbi == 20.0
        assert bs_relay_gain(bumped) / bs_relay_gain(cfg) == pytest.approx(10.0 ** 0.3, rel=1e-12)


class TestRelayUeGain:
    def test_vertical_link_no_attenuation(self):
        cfg = SystemConfig(waveguide_attenuation_per_m=0.0)
        ue = UePosition(12.0, 0.0)
        expected = free_space_gain(cfg.waveguide_height_m, cfg.carrier_frequency_hz)
        assert relay_ue_gain(cfg, ue, 12.0) == pytest.approx(expected, rel=1e-15)

    def test_feed_point_value(self, cfg, ue_mid):
        # squared 3-D distance from (0, 0, 3) to (15, 5, 0) is 225 + 25 + 9 = 259
        expected = (C / (4.0 * math.pi * 28e9)) ** 2 / 259.0
        assert relay_ue_gain(cfg, ue_mid, 0.0) == pytest.approx(expected, rel=1e-12)
        assert relay_ue_gain(cfg, ue_mid, 0.0) == pytest.approx(2.80289e-9, rel=1e-5)

    def test_under_user_value(self, cfg, ue_mid):
        # pin at x = 15: squared distance 25 + 9 = 34, attenuation exp(-0.15)
        expected = math.exp(-0.15) * (C / (4.0 * math.pi * 28e9)) ** 2 / 34.0
        assert relay_ue_gain(cfg, ue_mid, 15.0) == pytest.approx(expected, rel=1e-12)
        assert relay_ue_gain(cfg, ue_mid, 15.0) == pytest.approx(1.83773e-8, rel=1e-5)

    @pytest.mark.parametrize("x_pin", [-0.01, 30.01, 1e3])
    def test_rejects_positions_off_the_waveguide(self, cfg, ue_mid, x_pin):
        with pytest.raises(ValueError):
            relay_ue_gain(cfg, ue_mid, x_pin)

    def test_log_decomposition(self, cfg, ue_mid):
        constant = math.log(C**2 / (16.0 * math.pi**2 * cfg.carrier_frequency_hz**2))
        for x_pin in np.linspace(0.0, cfg.waveguide_length_m, 13):
            dist_sq = (ue_mid.x_ue_m - x_pin) ** 2 + ue_mid.y_ue_m**2 + cfg.waveguide_height_m**2
            expected = -cfg.waveguide_attenuation_per_m * x_pin - math.log(dist_sq) + constant
            assert math.log(relay_ue_gain(cfg, ue_mid, float(x_pin))) == pytest.approx(expected, rel=1e-12)


class TestAfSnr:
    def test_no_signal(self):
        assert af_snr(0.0, 2.0, toy_gains()) == 0.0
        assert af_snr(1.0, 0.0, toy_gains()) == 0.0

    def test_first_hop_asymptote(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        cap = 1.0 * gains.g1_sq / gains.sigma_r_sq_w
        assert af_snr(1.0, 1e12, gains) == pytest.approx(cap, rel=1e-3)
        assert af_snr(1.0, 1e12, gains) < cap

    @given(
        p1=st.floats(min_value=0.0, max_value=1e3),
        beta_sq=st.floats(min_value=0.0, max_value=1e12),
        g1_sq=gain_values,
        g2_sq=gain_values,
        sr=noise_values,
        su=noise_values,
    )
    def test_matches_direct_formula(self, p1, beta_sq, g1_sq, g2_sq, sr, su):
        gains = toy_gains(g1_sq, g2_sq, sr, su)
        expected = (p1 * beta_sq * g1_sq * g2_sq) / (su + beta_sq * g2_sq * sr)
        assert af_snr(p1, beta_sq, gains) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_both_arguments(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 10.0)
        rng = np.random.default_rng(3)
        p1s = np.sort(rng.uniform(0.0, 10.0, 25))
        betas = np.sort(10.0 ** rng.uniform(0.0, 9.0, 25))
        for beta in betas[::5]:
            snrs = [af_snr(float(p), float(beta), gains) for p in p1s]
            assert all(b >= a for a, b in zip(snrs, snrs[1:]))
        for p1 in p1s[::5]:
            snrs = [af_snr(float(p1), float(b), gains) for b in betas]
            assert all(b >= a for a, b in zip(snrs, snrs[1:]))

    def test_first_hop_cap_everywhere(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 5.0)
        p1 = 0.37
        cap = p1 * gains.g1_sq / gains.sigma_r_sq_w
        for beta_sq in 10.0 ** np.arange(-3, 13):
            assert af_snr(p1, float(beta_sq), gains) < cap

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            af_snr(-1.0, 1.0, toy_gains())
        with pytest.raises(ValueError):
            af_snr(1.0, -1.0, toy_gains())


class TestRelayTxPower:
    def test_zero_gain(self):
        assert relay_tx_power_w(1.0, 0.0, toy_gains()) == 0.0

    def test_noise_only_amplification(self):
        gains = toy_gains(sigma_r=1.6e-11)
        assert relay_tx_power_w(0.0, 2.0, gains) == pytest.approx(3.2e-11, rel=1e-15)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            relay_tx_power_w(-0.1, 1.0, toy_gains())
        with pytest.raises(ValueError):
            relay_tx_power_w(0.1, -1.0, toy_gains())


class TestTotalPower:
    def test_idle_floor(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 0.0)
        assert total_power_w(0.0, 0.0, gains, cfg) == pytest.approx(0.3, rel=1e-15)

    @given(
        p1=st.floats(min_value=0.0, max_value=1e3),
        beta_sq=st.floats(min_value=0.0, max_value=1e12),
    )
    @settings(max_examples=200)
    def test_cost_identity(self, p1, beta_sq):
        cfg = SystemConfig()
        gains = channel_gains(cfg, UePosition(15.0, 5.0), 14.83)
        total = total_power_w(p1, beta_sq, gains, cfg)
        cost = cfg.pa_efficiency * p1 + beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w)
        reconstructed = cost / cfg.pa_efficiency + cfg.relay_circuit_power_w + cfg.bs_rf_chain_power_w
        assert total == pytest.approx(reconstructed, rel=1e-12)


class TestConfigAndTypes:
    def test_db_helpers_round_trip(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
        assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError, match="4000.0 dB"):
            db_to_linear(4000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"carrier_frequency_hz": 0.0},
            {"bandwidth_hz": -1.0},
            {"waveguide_attenuation_per_m": -0.01},
            {"pa_efficiency": 0.0},
            {"pa_efficiency": 1.2},
            {"snr_target_linear": 0.0},
            {"waveguide_length_m": -30.0},
            {"relay_circuit_power_w": -0.2},
        ],
    )
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize(
        "config_cls, name",
        [(cls, f.name) for cls in (SystemConfig, Benchmark1Config) for f in fields(cls)],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_fields(self, config_cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            config_cls(**{name: value})

    def test_ue_coverage_validation(self, cfg):
        ue = UePosition.in_coverage(cfg, 15.0, 5.0)
        assert (ue.x_ue_m, ue.y_ue_m) == (15.0, 5.0)
        for x, y in [(-0.1, 5.0), (30.1, 5.0), (15.0, -0.1), (15.0, 10.1)]:
            with pytest.raises(ValueError):
                UePosition.in_coverage(cfg, x, y)

    def test_channel_gains_reject_nonpositive(self):
        with pytest.raises(ValueError):
            ChannelGains(g1_sq=0.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
        with pytest.raises(ValueError):
            ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=-1.0, sigma_ue_sq_w=1.0)

    def test_gains_bounded_by_antenna_gains(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 14.83)
        horn_product = db_to_linear(cfg.horn_gain_tx_dbi) * db_to_linear(cfg.horn_gain_rx_dbi)
        assert 0.0 < gains.g1_sq < horn_product
        assert 0.0 < gains.g2_sq < 1.0

    def test_ue_noise_figure_override(self):
        cfg = SystemConfig(ue_noise_figure_db=13.0)
        assert cfg.relay_noise_w == pytest.approx(noise_power_w(400e6, 10.0), rel=1e-15)
        assert cfg.ue_noise_w == pytest.approx(noise_power_w(400e6, 13.0), rel=1e-15)
        same = SystemConfig()
        assert same.ue_noise_w == same.relay_noise_w
