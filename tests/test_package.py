"""Package root and fresh interpreters: lazily bound public names, numpy only where arrays are, page
faults per verify trial and per sweep, and README's commands."""

import importlib
import os
import shlex
import subprocess
import sys
import time
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
    "pinchrelay.oracle": {"OracleReport", "grid_search_pin", "numeric_power_min", "verify_scenario"},
    "pinchrelay.sweep": {
        "SCHEMES", "SweepRecord", "SweepSpec", "export_csv", "read_csv", "run_sweep", "write_gnuplot_script"
    },
}


def run_fresh(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """A new interpreter run with ``args``, importing this pinchrelay; its return code must be 0."""
    src = str(Path(pinchrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def fresh_interpreter(code: str, *argv: str, cwd: Path) -> str:
    """The last line ``code`` prints, run with ``argv`` in a new interpreter that imports this pinchrelay."""
    return run_fresh(["-c", code, *argv], cwd).stdout.splitlines()[-1]


class TestLazyRoot:
    def test_each_name_is_the_object_its_module_defines(self):
        assert set(pinchrelay.__all__) == set().union(*EXPORTS.values())
        assert len(pinchrelay.__all__) == 25
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
            (["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "1000001", "--out", "x.csv"], False),
            (["verify", "--trials", "0"], False),
            (["verify", "--trials", "1"], False),
        ],
        ids=["solve", "config-dump", "help", "sweep", "sweep-over-cap", "verify-usage-error", "verify"],
    )
    def test_numpy_is_loaded_only_by_commands_that_use_arrays(self, tmp_path, argv, loads_numpy):
        code = "import sys\nfrom pinchrelay.cli import cli_main\ncli_main(sys.argv[1:])\nprint('numpy' in sys.modules)"
        assert fresh_interpreter(code, *argv, cwd=tmp_path) == str(loads_numpy)

    def test_the_cli_parser_is_built_at_the_first_call_not_at_import(self, tmp_path):
        code = (
            "import pinchrelay.cli as cli\n"
            "built = cli._build_parser.cache_info().currsize\n"
            "cli.cli_main(['config-dump'])\n"
            "print(built, cli._build_parser.cache_info().currsize)"
        )
        assert fresh_interpreter(code, cwd=tmp_path) == "0 1"

    def test_the_oracle_is_imported_by_the_first_verify_trial_only(self, tmp_path):
        code = (
            "import contextlib, io, sys\n"
            "import pinchrelay.cli as cli\n"
            "loaded = 'pinchrelay.oracle' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.cli_main(['verify', '--trials', '3'])\n"
            "info = cli._oracle.cache_info()\n"
            "print(loaded, 'pinchrelay.oracle' in sys.modules, info.misses, info.hits)"
        )
        assert fresh_interpreter(code, cwd=tmp_path) == "False True 1 2"

    def test_the_cli_and_the_csv_helpers_load_no_numpy_kernel_or_benchmarks(self, tmp_path):
        code = (
            "import sys\n"
            "import pinchrelay.cli\n"
            "from pinchrelay.sweep import SweepRecord, SweepSpec, export_csv, read_csv, write_gnuplot_script\n"
            "SweepSpec(variable='snr_target_db', values=(10.0, 20.0))\n"
            "export_csv([SweepRecord(10.0, {'proposed': 1.0}, {'proposed': 0.5}, 3)], 's.csv')\n"
            "read_csv('s.csv')\n"
            "write_gnuplot_script('s.csv', 's.gp', 'SNR target [dB]')\n"
            "print([m for m in ('numpy', 'pinchrelay.kernel', 'pinchrelay.benchmarks') if m in sys.modules])"
        )
        assert fresh_interpreter(code, cwd=tmp_path) == "[]"


# The bounds were set on CPython 3.11, where CI ran these programs; another interpreter allocates otherwise.
on_cpython_3_11 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="page-fault bounds set on CPython 3.11",
)


class TestPageFaults:
    @on_cpython_3_11
    def test_a_verify_trial_takes_at_most_50_minor_page_faults(self, tmp_path):
        # verify trials allocate no grid: with numpy already imported, a trial may take at most 50 minor page faults
        code = """import resource, sys, numpy, pinchrelay.oracle
from pinchrelay.cli import cli_main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli_main(["verify", "--trials", "50"])
per_trial = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50
sys.exit(f"{per_trial:.1f} minor page faults per verify trial, over 50" if per_trial > 50 else rc)"""
        run_fresh(["-c", code], tmp_path)

    @on_cpython_3_11
    @pytest.mark.parametrize("name, var, values", [("fig1", "gamma0", "10:2:30dB"), ("fig2", "d1", "30:10:100")])
    def test_a_warm_sweep_takes_at_most_20_minor_page_faults(self, tmp_path, name, var, values):
        # a sweep sums one value's rows at a time: after a warm-up, a fig1 or fig2 sweep
        # may take at most 20 minor page faults (a whole-sweep fig1 block takes about 226)
        code = """import resource, sys
from pinchrelay.cli import cli_main
name, var, values, out = sys.argv[1:]
argv = ["sweep", "--var", var, "--values", values, "--samples", "1000", "--out", out]
rc = max(cli_main(argv) for _ in range(5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = max(rc, *(cli_main(argv) for _ in range(20)))
per_sweep = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
sys.exit(f"{per_sweep:.1f} minor page faults per {name} sweep, over 20" if per_sweep > 20 else rc)"""
        run_fresh(["-c", code, name, var, values, str(tmp_path / f"{name}-pf.csv")], tmp_path)


def readme_blocks() -> list[tuple[str, list[str]]]:
    """README's fenced blocks: each one's info string and lines."""
    blocks: list[tuple[str, list[str]]] = []
    fence = None
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        if fence is None and line.startswith("```"):
            fence = line[3:].strip()
            blocks.append((fence, []))
        elif fence is not None and line.startswith("```"):
            fence = None
        elif fence is not None:
            blocks[-1][1].append(line)
    return blocks


# each `pinchrelay` line of README's sh blocks, as argv, comments dropped
README_COMMANDS = [
    shlex.split(line, comments=True) for info, lines in readme_blocks() if info == "sh" for line in lines
    if line.startswith("pinchrelay ")
]


class TestReadmeCommands:
    def test_the_readme_commands_are_found(self):
        assert len(README_COMMANDS) >= 8

    # each command, in a fresh interpreter where the README's config file is scenario.cfg
    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_each_command_exits_0_within_3_s(self, tmp_path, argv):
        [config] = [lines for info, lines in readme_blocks() if info == ""]
        (tmp_path / "scenario.cfg").write_text("\n".join(config) + "\n", encoding="utf-8")
        start = time.perf_counter()
        run_fresh(["-m", "pinchrelay.cli", *argv[1:]], tmp_path)
        assert time.perf_counter() - start < 3.0
