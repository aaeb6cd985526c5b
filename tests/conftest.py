import math

import pytest

from pinchrelay import SystemConfig, UePosition, optimal_pin_position, optimal_power_allocation

# The closed-form split's operating point moved, its reported cost kept: the
# power check sees each only by evaluating the cost and the SNR at the pair.
SPLIT_MUTANTS = {
    "p1/100": lambda p1, beta_sq: (p1 / 100.0, beta_sq),
    "p1*1.01,beta_sq*0.99": lambda p1, beta_sq: (p1 * 1.01, beta_sq * 0.99),
    "p1*1.01": lambda p1, beta_sq: (p1 * 1.01, beta_sq),
}



def _clamped_candidate(config, ue):
    """The interior maximum clamped to the waveguide, never compared with the feed."""
    alpha, length = config.waveguide_attenuation_per_m, config.waveguide_length_m
    if alpha == 0.0:
        return min(max(ue.x_ue_m, 0.0), length)
    discriminant = 1.0 - alpha * alpha * (ue.y_ue_m**2 + config.waveguide_height_m**2)
    if discriminant < 0.0:
        return 0.0
    return min(max(ue.x_ue_m - (1.0 - math.sqrt(discriminant)) / alpha, 0.0), length)


# The closed-form placement moved off the maximum: by 0.3 mm, to the clamped
# interior candidate where the feed radiates more, 10 km before the feed, where
# exp(-alpha x) at verify's largest attenuation draws leaves the float range, or
# to the far end, where on a long waveguide |g2|^2 underflows past its domain.
PIN_MUTANTS = {
    "x+0.3mm": lambda config, ue: optimal_pin_position(config, ue) + 3e-4,
    "clamped-candidate": _clamped_candidate,
    "x=-10km": lambda config, ue: -1e4,
    "x=L": lambda config, ue: config.waveguide_length_m,
}


@pytest.fixture
def cfg() -> SystemConfig:
    return SystemConfig()


@pytest.fixture
def ue_mid() -> UePosition:
    return UePosition(15.0, 5.0)


@pytest.fixture(params=list(SPLIT_MUTANTS))
def mutated_split(request, monkeypatch) -> str:
    """The oracle's closed-form split replaced by one of ``SPLIT_MUTANTS``; returns its name."""
    mutant = SPLIT_MUTANTS[request.param]

    def mutated(gains, config):
        p1, beta_sq, j = optimal_power_allocation(gains, config)
        return (*mutant(p1, beta_sq), j)

    monkeypatch.setattr("pinchrelay.oracle.optimal_power_allocation", mutated)
    return request.param


@pytest.fixture(params=list(PIN_MUTANTS))
def mutated_pin(request, monkeypatch) -> str:
    """The oracle's closed-form placement replaced by one of ``PIN_MUTANTS``; returns its name."""
    monkeypatch.setattr("pinchrelay.oracle.optimal_pin_position", PIN_MUTANTS[request.param])
    return request.param
