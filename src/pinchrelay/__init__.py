"""Power-minimizing design of a relay-fed pinching-antenna downlink.

A base station reaches a full-duplex amplify-and-forward relay over a
horn-antenna link; the relay drives a dielectric waveguide whose pinching
antenna radiates to the user.  The package provides the link-budget model,
closed-form placement and power allocation meeting an SNR target at minimum
total consumed power, brute-force verification oracles, two benchmark
schemes, and a sweep/CLI layer for reproducible experiments.
"""

import importlib

# Each public name, by the module that defines it.  A module is imported when
# one of its names is first read (PEP 562), so ``import pinchrelay`` imports no
# submodule and no numpy.
_MODULES = {
    "benchmarks": ("benchmark1_total_power_w", "benchmark1_tx_power_w", "benchmark2_power"),
    "model": ("ChannelGains", "SystemConfig", "UePosition", "af_snr", "channel_gains", "db_to_linear", "total_power_w"),
    "optimize": ("PowerSolution", "optimal_pin_position", "optimal_power_allocation", "solve"),
    "oracle": (
        "OracleReport", "grid_power_min_2d", "grid_search_pin", "numeric_power_min", "pin_objective", "verify_scenario"
    ),
    "sweep": ("SCHEMES", "SweepRecord", "SweepSpec", "export_csv", "read_csv", "run_sweep", "write_gnuplot_script"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
