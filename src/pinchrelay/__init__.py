"""Power-minimizing design of a relay-fed pinching-antenna downlink.

A base station reaches a full-duplex amplify-and-forward relay over a
horn-antenna link; the relay drives a dielectric waveguide whose pinching
antenna radiates to the user.  The package provides the link-budget model,
closed-form placement and power allocation meeting an SNR target at minimum
total consumed power, brute-force verification oracles, two benchmark
schemes, and a sweep/CLI layer for reproducible experiments.
"""

from .benchmarks import (
    benchmark1_total_power_w,
    benchmark1_tx_power_w,
    benchmark2_power,
)
from .model import (
    ChannelGains,
    SystemConfig,
    UePosition,
    af_snr,
    channel_gains,
    db_to_linear,
    total_power_w,
)
from .optimize import (
    PowerSolution,
    optimal_pin_position,
    optimal_power_allocation,
    solve,
)
from .oracle import (
    OracleReport,
    grid_power_min_2d,
    grid_search_pin,
    numeric_power_min,
    pin_objective,
    verify_scenario,
)
from .sweep import (
    SCHEMES,
    SweepRecord,
    SweepSpec,
    export_csv,
    read_csv,
    run_sweep,
    write_gnuplot_script,
)

__all__ = [
    "SCHEMES",
    "ChannelGains",
    "OracleReport",
    "PowerSolution",
    "SweepRecord",
    "SweepSpec",
    "SystemConfig",
    "UePosition",
    "af_snr",
    "benchmark1_total_power_w",
    "benchmark1_tx_power_w",
    "benchmark2_power",
    "channel_gains",
    "db_to_linear",
    "export_csv",
    "grid_power_min_2d",
    "grid_search_pin",
    "numeric_power_min",
    "optimal_pin_position",
    "optimal_power_allocation",
    "pin_objective",
    "read_csv",
    "run_sweep",
    "solve",
    "total_power_w",
    "verify_scenario",
    "write_gnuplot_script",
]

__version__ = "0.1.0"
