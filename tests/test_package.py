"""Package root and cold start: lazily bound public names, numpy only where arrays are."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinchrelay

# The public names, by the module that defines them.
EXPORTS = {
    "pinchrelay.benchmarks": {"benchmark1_total_power_w", "benchmark1_tx_power_w", "benchmark2_power"},
    "pinchrelay.model": {
        "ChannelGains", "SystemConfig", "UePosition", "af_snr", "channel_gains", "db_to_linear", "total_power_w"
    },
    "pinchrelay.optimize": {"PowerSolution", "optimal_pin_position", "optimal_power_allocation", "solve"},
    "pinchrelay.oracle": {
        "OracleReport", "grid_power_min_2d", "grid_search_pin", "numeric_power_min", "pin_objective", "verify_scenario"
    },
    "pinchrelay.sweep": {
        "SCHEMES", "SweepRecord", "SweepSpec", "export_csv", "read_csv", "run_sweep", "write_gnuplot_script"
    },
}


def fresh_interpreter(code: str, *argv: str, cwd: Path) -> str:
    """The last line ``code`` prints, run with ``argv`` in a new interpreter that imports this pinchrelay."""
    src = str(Path(pinchrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestLazyRoot:
    def test_each_name_is_the_object_its_module_defines(self):
        assert set(pinchrelay.__all__) == set().union(*EXPORTS.values())
        assert len(pinchrelay.__all__) == 27
        for module, names in EXPORTS.items():
            for name in names:
                assert getattr(pinchrelay, name) is getattr(importlib.import_module(module), name)

    def test_import_loads_no_submodule_and_dir_lists_every_name(self, tmp_path):
        code = (
            "import sys, pinchrelay\n"
            "print([sorted(m for m in sys.modules if m.startswith('pinchrelay.')), "
            "sorted(set(pinchrelay.__all__) - set(dir(pinchrelay)))])"
        )
        assert fresh_interpreter(code, cwd=tmp_path) == "[[], []]"

    def test_star_import_binds_exactly_the_public_names(self):
        namespace: dict = {}
        exec("from pinchrelay import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(pinchrelay.__all__)

    def test_unknown_attribute_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'pinchrelay' has no attribute 'no_such_name'"):
            pinchrelay.no_such_name  # noqa: B018


class TestColdStart:
    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (["solve", "--ue", "15,5", "--json"], False),
            (["config-dump"], False),
            (["--help"], False),
            (["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "3", "--out", "x.csv"], True),
        ],
        ids=["solve", "config-dump", "help", "sweep"],
    )
    def test_numpy_is_loaded_only_by_commands_that_use_arrays(self, tmp_path, argv, loads_numpy):
        code = "import sys\nfrom pinchrelay.cli import cli_main\ncli_main(sys.argv[1:])\nprint('numpy' in sys.modules)"
        assert fresh_interpreter(code, *argv, cwd=tmp_path) == str(loads_numpy)
