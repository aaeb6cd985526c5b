"""Link-budget model: noise, free-space gain, hop gains, AF SNR, power accounting."""

import copy
import math
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchrelay import (
    ChannelGains,
    SystemConfig,
    UePosition,
    af_snr,
    benchmark2_power,
    channel_gains,
    db_to_linear,
    solve,
    verify_scenario,
)
from pinchrelay.model import (
    BOLTZMANN_J_PER_K,
    OPERATING_DOMAIN,
    SPEED_OF_LIGHT_M_S,
    bs_relay_gain,
    consumed_power,
    free_space_gain,
    noise_power_w,
    relay_tx_power,
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


class TestOperatingPointDomain:
    @pytest.mark.parametrize("value", [-5e-324, math.nextafter(1e30, math.inf), 1e308, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["p1_w", "beta_sq"])
    def test_a_value_past_its_domain_is_one_named_error(self, name, value):
        point = {"p1_w": 0.1, "beta_sq": 1.0, name: value}
        with pytest.raises(ValueError) as raised:
            af_snr(point["p1_w"], point["beta_sq"], toy_gains())
        assert str(raised.value) == f"{name} must lie in [0, 1e+30], got {value!r}"

    def test_the_domain_ends_give_finite_values(self, cfg):
        assert OPERATING_DOMAIN == (0.0, 1e30)
        for p1, beta_sq in ((0.0, 0.0), (1e30, 1e30), (1e30, 0.0), (0.0, 1e30)):
            assert math.isfinite(consumed_power(p1, relay_tx_power(p1, beta_sq, 1.0, 1.0), cfg))
            assert math.isfinite(af_snr(p1, beta_sq, toy_gains()))


class TestRelayTxPower:
    def test_zero_gain(self):
        assert relay_tx_power(1.0, 0.0, 1.0, 1.0) == 0.0

    def test_noise_only_amplification(self):
        assert relay_tx_power(0.0, 2.0, 1.0, 1.6e-11) == pytest.approx(3.2e-11, rel=1e-15)


class TestTotalPower:
    def test_idle_floor(self, cfg, ue_mid):
        gains = channel_gains(cfg, ue_mid, 0.0)
        idle = consumed_power(0.0, relay_tx_power(0.0, 0.0, gains.g1_sq, gains.sigma_r_sq_w), cfg)
        assert idle == pytest.approx(0.3, rel=1e-15)

    @given(
        p1=st.floats(min_value=0.0, max_value=1e3),
        beta_sq=st.floats(min_value=0.0, max_value=1e12),
    )
    @settings(max_examples=200)
    def test_cost_identity(self, p1, beta_sq):
        cfg = SystemConfig()
        gains = channel_gains(cfg, UePosition(15.0, 5.0), 14.83)
        total = consumed_power(p1, relay_tx_power(p1, beta_sq, gains.g1_sq, gains.sigma_r_sq_w), cfg)
        cost = cfg.pa_efficiency * p1 + beta_sq * (p1 * gains.g1_sq + gains.sigma_r_sq_w)
        reconstructed = cost / cfg.pa_efficiency + cfg.relay_circuit_power_w + cfg.bs_rf_chain_power_w
        assert total == pytest.approx(reconstructed, rel=1e-12)


class TestConfigAndTypes:
    def test_db_to_linear(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
        # a ratio past the float range is inf, which the domain of the field it sets rejects by name
        assert db_to_linear(4000.0) == math.inf

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

    @pytest.mark.parametrize("name", [f.name for f in fields(SystemConfig)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[.*\], got {value!r}$"):
            SystemConfig(**{name: value})

    def test_ue_coverage_validation(self, cfg):
        ue = UePosition.in_coverage(cfg, 15.0, 5.0)
        assert (ue.x_ue_m, ue.y_ue_m) == (15.0, 5.0)
        for x, y in [(-0.1, 5.0), (30.1, 5.0), (15.0, -0.1), (15.0, 10.1)]:
            with pytest.raises(ValueError):
                UePosition.in_coverage(cfg, x, y)

    # the position names the coordinate at fault, before any scheme reads it
    @pytest.mark.parametrize(
        "x, y, message",
        [
            (math.nan, 5.0, "x_ue_m must lie in [-100000, 100000], got nan"),
            (5.0, math.inf, "y_ue_m must lie in [-100000, 100000], got inf"),
            (-math.inf, 0.0, "x_ue_m must lie in [-100000, 100000], got -inf"),
        ],
    )
    @pytest.mark.parametrize(
        "scheme", [solve, benchmark2_power, verify_scenario], ids=["solve", "benchmark2_power", "verify_scenario"]
    )
    def test_non_finite_user_is_a_named_error(self, cfg, scheme, x, y, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scheme(cfg, UePosition(x, y))

    def test_finite_users_outside_coverage_stay_accepted(self, cfg):
        for x, y in [(-1e5, 5.0), (15.0, -1e5), (40.0, 5.0)]:
            ue = UePosition(x, y)
            assert (ue.x_ue_m, ue.y_ue_m) == (x, y)
        assert solve(cfg, UePosition(40.0, 5.0)).x_pin_m == cfg.waveguide_length_m

    def test_channel_gains_reject_nonpositive(self):
        with pytest.raises(ValueError):
            ChannelGains(g1_sq=0.0, g2_sq=1.0, sigma_r_sq_w=1.0, sigma_ue_sq_w=1.0)
        with pytest.raises(ValueError):
            ChannelGains(g1_sq=1.0, g2_sq=1.0, sigma_r_sq_w=-1.0, sigma_ue_sq_w=1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(ChannelGains)])
    @pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
    def test_channel_gains_reject_values_outside_their_domain(self, name, value):
        kwargs = {"g1_sq": 1.0, "g2_sq": 1.0, "sigma_r_sq_w": 1.0, "sigma_ue_sq_w": 1.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[1e-30, 1e\+30\], got {value!r}$"):
            ChannelGains(**kwargs)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: UePosition(None, 5.0), "x_ue_m must lie in [-100000, 100000], got None"),
            (lambda: ChannelGains(1.0, None, 1.0, 1.0), "g2_sq must lie in [1e-30, 1e+30], got None"),
            (lambda: SystemConfig(bandwidth_hz=None), "bandwidth_hz must lie in [1000, 1e+11], got None"),
        ],
    )
    def test_none_is_a_named_error_where_a_field_takes_no_none(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

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


# one instance of each frozen value type, its constructor arguments, and a field with a second value in its domain
VALUE_TYPES = {
    "SystemConfig": (SystemConfig, {"snr_target_linear": 200.0, "ue_noise_figure_db": 7.0}, "bandwidth_hz", 1e6),
    "UePosition": (UePosition, {"x_ue_m": 15.0, "y_ue_m": 5.0}, "y_ue_m", 6.0),
    "ChannelGains": (
        ChannelGains,
        {"g1_sq": 1e-6, "g2_sq": 2e-7, "sigma_r_sq_w": 3e-12, "sigma_ue_sq_w": 4e-12},
        "g2_sq",
        5e-7,
    ),
}


@pytest.mark.parametrize("kind", list(VALUE_TYPES))
class TestValueTypeContract:
    """SystemConfig, UePosition and ChannelGains behave as frozen dataclasses in every observable way."""

    @staticmethod
    def build(kind):
        cls, kwargs, name, other = VALUE_TYPES[kind]
        return cls, cls(**kwargs), name, other

    def test_frozen_on_set_and_delete(self, kind):
        _, value, name, other = self.build(kind)
        before = repr(value)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, other)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        with pytest.raises(FrozenInstanceError):
            value.unlisted = 1.0
        assert repr(value) == before

    def test_construction_takes_keywords_positions_and_defaults(self, kind):
        cls, value, _, _ = self.build(kind)
        assert cls(*astuple(value)) == value
        assert cls(**asdict(value)) == value
        with pytest.raises(TypeError):
            cls(*astuple(value), 1.0)
        with pytest.raises(TypeError):
            cls(**asdict(value), unlisted=1.0)
        if kind == "SystemConfig":
            assert cls() == SystemConfig(carrier_frequency_hz=28e9) and cls().ue_noise_figure_db is None
        else:
            with pytest.raises(TypeError):
                cls()

    def test_equality_hash_and_repr(self, kind):
        cls, value, name, other = self.build(kind)
        twin = cls(**asdict(value))
        assert value == twin and hash(value) == hash(twin) and value is not twin
        changed = replace(value, **{name: other})
        assert value != changed and changed != value
        assert value != astuple(value) and (value == astuple(value)) is False
        assert {value, twin, changed} == {value, changed}
        shown = ", ".join(f"{f.name}={getattr(value, f.name)!r}" for f in fields(cls))
        assert repr(value) == f"{kind}({shown})"

    def test_replace_fields_and_asdict(self, kind):
        cls, value, name, other = self.build(kind)
        _, kwargs, _, _ = VALUE_TYPES[kind]
        assert [f.name for f in fields(value)] == list(cls.__annotations__)
        assert asdict(value) == {f.name: getattr(value, f.name) for f in fields(cls)}
        assert all(asdict(value)[key] == expected for key, expected in kwargs.items())
        changed = replace(value, **{name: other})
        assert type(changed) is cls and getattr(changed, name) == other and getattr(value, name) != other
        assert {k: v for k, v in asdict(changed).items() if k != name} == {
            k: v for k, v in asdict(value).items() if k != name
        }
        assert replace(value) == value and replace(value) is not value
        # replace validates, as construction does
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[.*\], got nan$"):
            replace(value, **{name: math.nan})

    def test_no_instance_dict(self, kind):
        cls, value, _, _ = self.build(kind)
        assert not hasattr(value, "__dict__") and "__dict__" not in dir(cls)

    def test_copy_deepcopy_and_pickle(self, kind):
        cls, value, name, other = self.build(kind)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            with pytest.raises(FrozenInstanceError):
                setattr(twin, name, other)



def test_a_config_s_kept_link_constants_are_no_field():
    config, fresh = SystemConfig(), SystemConfig()
    solve(config, UePosition(15.0, 5.0))
    assert getattr(config, "_link_constants", None) is not None
    assert getattr(fresh, "_link_constants", None) is None
    assert config == fresh and hash(config) == hash(fresh) and repr(config) == repr(fresh)
    assert asdict(config) == asdict(fresh) and "_link_constants" not in asdict(config)
    assert "_link_constants" not in [f.name for f in fields(config)]
    assert getattr(replace(config), "_link_constants", None) is None
    assert getattr(replace(config, snr_target_linear=50.0), "_link_constants", None) is None
    assert pickle.loads(pickle.dumps(config)) == fresh


# Protocol-4 pickles of the value types written while each instance kept its fields in a __dict__, as the
# dict state {field: value} (CPython 3.11), and the value each must load equal to.
DICT_STATE_PICKLES = [
    # a fresh config
    (
        SystemConfig(snr_target_linear=200.0, ue_noise_figure_db=7.0),
        b'\x80\x04\x95\xfe\x01\x00\x00\x00\x00\x00\x00\x8c\x10pinchrelay.model\x94\x8c\x0cSystemConfig\x94'
        b'\x93\x94)\x81\x94}\x94(\x8c\x14carrier_frequency_hz\x94GB\x1a\x13\xb8`\x00\x00\x00\x8c\x0cbandwid'
        b'th_hz\x94GA\xb7\xd7\x84\x00\x00\x00\x00\x8c\x0fnoise_figure_db\x94G@$\x00\x00\x00\x00\x00\x00\x8c'
        b'\x12ue_noise_figure_db\x94G@\x1c\x00\x00\x00\x00\x00\x00\x8c\x1bwaveguide_attenuation_per_m\x94G?'
        b'\x84z\xe1G\xae\x14{\x8c\x10horn_gain_tx_dbi\x94G@4\x00\x00\x00\x00\x00\x00\x8c\x10horn_gain_rx_db'
        b'i\x94G@4\x00\x00\x00\x00\x00\x00\x8c\rpa_efficiency\x94G?\xec\xcc\xcc\xcc\xcc\xcc\xcd\x8c\x15rela'
        b'y_circuit_power_w\x94G?\xc9\x99\x99\x99\x99\x99\x9a\x8c\x13bs_rf_chain_power_w\x94G?\xb9\x99\x99'
        b'\x99\x99\x99\x9a\x8c\x12waveguide_length_m\x94G@>\x00\x00\x00\x00\x00\x00\x8c\x12waveguide_height'
        b'_m\x94G@\x08\x00\x00\x00\x00\x00\x00\x8c\x13bs_relay_distance_m\x94G@I\x00\x00\x00\x00\x00\x00'
        b'\x8c\x11snr_target_linear\x94G@i\x00\x00\x00\x00\x00\x00\x8c\x0ccoverage_x_m\x94G@>\x00\x00\x00'
        b'\x00\x00\x00\x8c\x0ccoverage_y_m\x94G@$\x00\x00\x00\x00\x00\x00ub.',
    ),
    # a config after one solve, its dict holding the kept link constants
    (
        SystemConfig(bandwidth_hz=1e6),
        b'\x80\x04\x95\x86\x02\x00\x00\x00\x00\x00\x00\x8c\x10pinchrelay.model\x94\x8c\x0cSystemConfig\x94'
        b'\x93\x94)\x81\x94}\x94(\x8c\x14carrier_frequency_hz\x94GB\x1a\x13\xb8`\x00\x00\x00\x8c\x0cbandwid'
        b'th_hz\x94GA.\x84\x80\x00\x00\x00\x00\x8c\x0fnoise_figure_db\x94G@$\x00\x00\x00\x00\x00\x00\x8c'
        b'\x12ue_noise_figure_db\x94N\x8c\x1bwaveguide_attenuation_per_m\x94G?\x84z\xe1G\xae\x14{\x8c\x10ho'
        b'rn_gain_tx_dbi\x94G@4\x00\x00\x00\x00\x00\x00\x8c\x10horn_gain_rx_dbi\x94G@4\x00\x00\x00\x00\x00'
        b'\x00\x8c\rpa_efficiency\x94G?\xec\xcc\xcc\xcc\xcc\xcc\xcd\x8c\x15relay_circuit_power_w\x94G?\xc9'
        b'\x99\x99\x99\x99\x99\x9a\x8c\x13bs_rf_chain_power_w\x94G?\xb9\x99\x99\x99\x99\x99\x9a\x8c\x12wave'
        b'guide_length_m\x94G@>\x00\x00\x00\x00\x00\x00\x8c\x12waveguide_height_m\x94G@\x08\x00\x00\x00\x00'
        b'\x00\x00\x8c\x13bs_relay_distance_m\x94G@I\x00\x00\x00\x00\x00\x00\x8c\x11snr_target_linear\x94G@'
        b'Y\x00\x00\x00\x00\x00\x00\x8c\x0ccoverage_x_m\x94G@>\x00\x00\x00\x00\x00\x00\x8c\x0ccoverage_y_m'
        b'\x94G@$\x00\x00\x00\x00\x00\x00\x8c\x0f_link_constants\x94(G>\xc8[\xd8\xe8\xcc\xb7\x03G=&\x8a3'
        b'\xc4\x9b\xa8(G=&\x8a3\xc4\x9b\xa8((G?[\xebO\xbb\xd0PsG?\x1e\xc85s\x11Q\xccG>\x8a\xdbH\x14\x89\xf3'
        b'_G?\xf0\x00\x00\x00\x00\x00\x00t\x94(G>\xb7"\x18\xe5\xcb\xd3AG@Z{\xd6\xe2\x97\x81\xbaG?\xee5\x0bf'
        b'\xd2R\x10G@W\xd5\xda\xff!\xf4\xc1G>\xb4\xd1\xe357qTG=\x91\x9b\xf8q\x99\x9b_t\x94t\x94ub.',
    ),
    # a user
    (
        UePosition(15.0, 5.0),
        b'\x80\x04\x95O\x00\x00\x00\x00\x00\x00\x00\x8c\x10pinchrelay.model\x94\x8c\nUePosition\x94\x93\x94'
        b')\x81\x94}\x94(\x8c\x06x_ue_m\x94G@.\x00\x00\x00\x00\x00\x00\x8c\x06y_ue_m\x94G@\x14\x00\x00\x00'
        b'\x00\x00\x00ub.',
    ),
    # channel gains
    (
        ChannelGains(1e-6, 2e-7, 3e-12, 4e-12),
        b'\x80\x04\x95\x80\x00\x00\x00\x00\x00\x00\x00\x8c\x10pinchrelay.model\x94\x8c\x0cChannelGains\x94'
        b'\x93\x94)\x81\x94}\x94(\x8c\x05g1_sq\x94G>\xb0\xc6\xf7\xa0\xb5\xed\x8d\x8c\x05g2_sq\x94G>\x8a\xd7'
        b'\xf2\x9a\xbc\xafH\x8c\x0csigma_r_sq_w\x94G=\x8acfA\xc4\xdf\x1a\x8c\rsigma_ue_sq_w\x94G=\x91\x97'
        b'\x99\x81-\xea\x11ub.',
    ),
]


@pytest.mark.parametrize("expected, data", DICT_STATE_PICKLES, ids=["config", "solved config", "user", "gains"])
def test_pickles_with_a_dict_state_still_load(expected, data):
    value = pickle.loads(data)
    assert type(value) is type(expected) and value == expected and repr(value) == repr(expected)
    assert not hasattr(value, "__dict__")
    if isinstance(value, SystemConfig):
        assert value._link_constants is None  # a cache, not state: the next solve computes it afresh
        assert solve(value, UePosition(15.0, 5.0)) == solve(expected, UePosition(15.0, 5.0))


def test_4096_config_user_pairs_take_at_most_450_bytes_each():
    """4,096 (config, user) pairs, built as perfbench's solve_point builds them (about 890 B each when the
    value types kept an instance dict, about 350 B as slotted ones)."""
    count = 4096
    rng = np.random.default_rng(11)
    base = SystemConfig()
    alphas, xs, ys = 10.0 ** rng.uniform(-4.0, 0.0, count), rng.uniform(0.0, 30.0, count), rng.uniform(0.0, 10.0, count)
    tracemalloc.start()
    try:
        pairs = [
            (replace(base, waveguide_attenuation_per_m=float(a)), UePosition(float(x), float(y)))
            for a, x, y in zip(alphas, xs, ys)
        ]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pairs) == count and size / count <= 450.0
