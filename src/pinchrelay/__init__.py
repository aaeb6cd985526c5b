"""Power-minimizing design of a relay-fed pinching-antenna downlink.

A base station reaches a full-duplex amplify-and-forward relay over a
horn-antenna link; the relay drives a dielectric waveguide whose pinching
antenna radiates to the user.  The package provides the link-budget model,
closed-form placement and power allocation meeting an SNR target at minimum
total consumed power, brute-force verification oracles, two benchmark
schemes, and a sweep/CLI layer for reproducible experiments.
"""

from .benchmarks import (
    Benchmark1Config,
    benchmark1_distance_m,
    benchmark1_link_gain,
    benchmark1_power,
    benchmark1_tx_power_w,
    benchmark2_power,
)
from .model import (
    BOLTZMANN_J_PER_K,
    NOISE_REFERENCE_TEMP_K,
    SPEED_OF_LIGHT_M_S,
    ChannelGains,
    SystemConfig,
    UePosition,
    af_snr,
    bs_relay_gain,
    channel_gains,
    db_to_linear,
    free_space_gain,
    linear_to_db,
    noise_power_w,
    relay_tx_power_w,
    relay_ue_gain,
    total_power_w,
)
from .optimize import (
    PowerSolution,
    StationaryAnalysis,
    optimal_pin_position,
    optimal_power_allocation,
    pin_objective,
    solve,
    stationary_points,
)
from .oracle import (
    OracleReport,
    grid_power_min_2d,
    grid_search_pin,
    numeric_power_min,
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
    "BOLTZMANN_J_PER_K",
    "NOISE_REFERENCE_TEMP_K",
    "SPEED_OF_LIGHT_M_S",
    "SCHEMES",
    "Benchmark1Config",
    "ChannelGains",
    "OracleReport",
    "PowerSolution",
    "StationaryAnalysis",
    "SweepRecord",
    "SweepSpec",
    "SystemConfig",
    "UePosition",
    "af_snr",
    "benchmark1_distance_m",
    "benchmark1_link_gain",
    "benchmark1_power",
    "benchmark1_tx_power_w",
    "benchmark2_power",
    "bs_relay_gain",
    "channel_gains",
    "db_to_linear",
    "export_csv",
    "free_space_gain",
    "grid_power_min_2d",
    "grid_search_pin",
    "linear_to_db",
    "noise_power_w",
    "numeric_power_min",
    "optimal_pin_position",
    "optimal_power_allocation",
    "pin_objective",
    "read_csv",
    "relay_tx_power_w",
    "relay_ue_gain",
    "run_sweep",
    "solve",
    "stationary_points",
    "total_power_w",
    "verify_scenario",
    "write_gnuplot_script",
]

__version__ = "0.1.0"
