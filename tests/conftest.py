import pytest

from pinchrelay import SystemConfig, UePosition, optimal_power_allocation

# The closed-form split's operating point moved, its reported cost kept: the
# power check sees each only by evaluating the cost and the SNR at the pair.
SPLIT_MUTANTS = {
    "p1/100": lambda p1, beta_sq: (p1 / 100.0, beta_sq),
    "p1*1.01,beta_sq*0.99": lambda p1, beta_sq: (p1 * 1.01, beta_sq * 0.99),
    "p1*1.01": lambda p1, beta_sq: (p1 * 1.01, beta_sq),
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
