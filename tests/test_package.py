"""Package root and fresh interpreters: lazily bound public names, each with a docstring, numpy only where
arrays are, page faults per verify trial and per sweep, 10^6-user sweep peaks, README's commands and the
names it must hold, and a CI workflow whose checks all live here in tests/."""

import argparse
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import pinchrelay
from pinchrelay.cli import _SCENARIO_FIELDS, _VAR_CHOICES, _build_parser

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

# the package's source directory, one .py file per module
PACKAGE = Path(pinchrelay.__file__).resolve().parent


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


class TestDocstrings:
    def test_every_public_function_and_class_has_a_docstring(self):
        missing = []
        for path in sorted(PACKAGE.glob("*.py")):
            module = importlib.import_module("pinchrelay" if path.stem == "__init__" else f"pinchrelay.{path.stem}")
            for name, value in vars(module).items():
                defined_here = (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module.__name__
                if defined_here and not name.startswith("_"):
                    doc = (value.__doc__ or "").strip()
                    # a dataclass or a named tuple declared without one gets "Name(fields)"
                    if not doc or doc.startswith(f"{value.__name__}("):
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []


class TestColdStart:
    # verify's oracles run in plain Python: its trials leave numpy unloaded
    @pytest.mark.parametrize(
        "argv, exit_code, loads_numpy",
        [
            (["solve", "--ue", "15,5", "--json"], 0, False),
            (["config-dump"], 0, False),
            (["--help"], 0, False),
            (["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "3", "--out", "x.csv"], 0, True),
            (["sweep", "--var", "gamma0", "--values", "20dB", "--samples", "1000001", "--out", "x.csv"], 2, False),
            (["verify", "--trials", "0"], 2, False),
            (["verify", "--trials", "1"], 0, False),
            (["verify", "--trials", "3"], 0, False),
        ],
        ids=["solve", "config-dump", "help", "sweep", "sweep-over-cap", "verify-usage-error", "verify", "verify-3"],
    )
    def test_numpy_is_loaded_only_by_commands_that_use_arrays(self, tmp_path, argv, exit_code, loads_numpy):
        code = "import sys\nfrom pinchrelay.cli import cli_main\nprint(cli_main(sys.argv[1:]), 'numpy' in sys.modules)"
        assert fresh_interpreter(code, *argv, cwd=tmp_path) == f"{exit_code} {loads_numpy}"

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
    reason="page-fault, ru_maxrss and tracemalloc bounds set on CPython 3.11",
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


# The 10^6-user sweep programs: each exits 1 with a message when its peak is over its bound.
RESIDENT_PEAK = """import resource, sys
from pinchrelay.cli import cli_main
name, var, values, bound, out = sys.argv[1:]
rc = cli_main(["sweep", "--var", var, "--values", values, "--samples", "1000000", "--out", out])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
sys.exit(f"a 10^6-user {name} sweep peaked at {peak:.1f} MiB, over {bound}" if peak > float(bound) else rc)"""
TRACED_PEAK = """import sys, tracemalloc, numpy, pinchrelay.kernel, pinchrelay.sweep
from pinchrelay.cli import cli_main
name, var, values, bound, out = sys.argv[1:]
tracemalloc.start()
rc = cli_main(["sweep", "--var", var, "--values", values, "--samples", "1000000", "--out", out])
peak = tracemalloc.get_traced_memory()[1] / 2**20
sys.exit(f"a 10^6-user {name} sweep traced a {peak:.1f} MiB peak, over {bound}" if peak > float(bound) else rc)"""
MEMORY_PEAKS = {
    # a sweep keeps only what a per-value stage or an output reads, and each value's results until its rows are
    # copied out: a fig1 sweep peaked at 203.5 MiB resident and a fig2 sweep at 211.0 MiB (2-vCPU Xeon, CPython 3.11.7)
    "fig1-resident": (RESIDENT_PEAK, "fig1", "gamma0", "10:2:30dB", "250"),
    "fig2-resident": (RESIDENT_PEAK, "fig2", "d1", "30:10:100", "270"),
    # the peak of traced allocations, which glibc's trim timing does not move as it moves ru_maxrss: with
    # numpy and the sweep's modules imported first, 145.9 MiB for fig1 and 168.8 MiB for fig2, each bounded 10 MiB over
    "fig1-traced": (TRACED_PEAK, "fig1", "gamma0", "10:2:30dB", "156"),
    "fig2-traced": (TRACED_PEAK, "fig2", "d1", "30:10:100", "179"),
    # a carrier-frequency sweep reruns every relay stage at each value, and holds more arrays than fig1 or
    # fig2 do: it peaked at 226.1 MiB resident and at 184.0 MiB traced, each bounded as fig2 is over its peak
    "freq-resident": (RESIDENT_PEAK, "freq", "freq", "10,28,60GHz", "285"),
    "freq-traced": (TRACED_PEAK, "freq", "freq", "10,28,60GHz", "194"),
}


@on_cpython_3_11
class TestMemoryPeaks:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Each program in a fresh interpreter, two at a time: one after another they take about 10 s."""
        cwd = tmp_path_factory.mktemp("memory_peaks")
        with ThreadPoolExecutor(max_workers=2) as pool:
            yield {
                case: pool.submit(run_fresh, ["-c", code, *argv, str(cwd / f"{case}.csv")], cwd)
                for case, (code, *argv) in MEMORY_PEAKS.items()
            }

    @pytest.mark.parametrize("case", MEMORY_PEAKS)
    def test_a_10_6_user_sweep_peaks_within_its_bound(self, runs, case):
        runs[case].result()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks() -> list[tuple[str, list[str]]]:
    """README's fenced blocks: each one's info string and lines."""
    blocks: list[tuple[str, list[str]]] = []
    fence = None
    for line in README.read_text(encoding="utf-8").splitlines():
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

    def test_the_readme_names_every_var_choice_and_each_plot_label_is_a_gnuplot_string(self):
        (subparsers,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (var,) = [a for a in subparsers.choices["sweep"]._actions if a.dest == "var"]
        readme = README.read_text(encoding="utf-8")
        assert sorted(var.choices) == sorted(_VAR_CHOICES)
        assert [choice for choice in var.choices if f"`{choice}`" not in readme] == []
        # the label is the swept flag's help text, written between double quotes, where gnuplot reads a
        # backslash as an escape and a line break ends the command
        labels = [_SCENARIO_FIELDS[field][3] for _, field in _VAR_CHOICES.values()]
        assert [label for label in labels if any(c in label for c in '"\\\r\n')] == []


def readme_prose() -> list[str]:
    """README's lines outside its fenced blocks."""
    lines, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced:
            lines.append(line)
    return lines


# a timing or a memory figure: a number, then a unit of time or of bytes
FIGURE = re.compile(r"\d\s?(?:ns|µs|us|ms|KiB|MiB|MB|GiB)\b")


class TestReadmeNames:
    """README says what the package holds: each module file and public name, no measured figure, and
    links that resolve."""

    def test_the_readme_names_each_module_file(self):
        readme, files = README.read_text(encoding="utf-8"), sorted(path.name for path in PACKAGE.glob("*.py"))
        assert "__init__.py" in files
        assert [name for name in files if f"`{name}`" not in readme] == []

    def test_the_readme_names_each_public_name(self):
        readme = README.read_text(encoding="utf-8")
        assert [name for name in pinchrelay.__all__ if not re.search(rf"`{name}\b", readme)] == []

    @pytest.mark.parametrize("line", ["5 ns", "took 138 µs", "22 us", "1,104 ms", "3 KiB", "41.5 MiB", "12MB", "1 GiB"])
    def test_the_pattern_finds_each_figure(self, line):
        assert FIGURE.search(line)

    @pytest.mark.parametrize("line", ["1000 users", "0.1 W", "28 GHz", "a 1 mm grid", "10 dBi", "2 mW"])
    def test_the_pattern_passes_other_numbers(self, line):
        assert not FIGURE.search(line)

    def test_no_line_holds_a_timing_or_memory_figure(self):
        assert [line for line in README.read_text(encoding="utf-8").splitlines() if FIGURE.search(line)] == []

    def test_each_anchor_link_names_a_heading(self):
        prose = readme_prose()
        # GitHub's anchor for a heading: lower case, punctuation dropped, spaces as hyphens
        anchors = {
            re.sub(r"[^\w\- ]", "", line.lstrip("#").strip().lower()).replace(" ", "-")
            for line in prose
            if re.match(r"#+ ", line)
        }
        links = [link for line in prose for link in re.findall(r"\]\(#([^)]*)\)", line)]
        assert links
        assert [link for link in links if link not in anchors] == []


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# a Python program written into a run step: `python -c`, a program on stdin (`python -`, a heredoc), a line of Python
INLINE_PYTHON = re.compile(r"\bpython\S*(?:\s+\S+)*?\s+-(?:[a-zA-Z]*c\b|\s|$)|<<|^\s*(?:import \w|from \S+ import )")


class TestWorkflow:
    """CI runs tier-1 and perfbench's smoke script: a check written into the YAML would run on CI alone,
    never with the tests."""

    @pytest.mark.parametrize(
        "line",
        [
            *("python -c 'import sys'", "python3 -I -c pass", "python - <<'EOF'", "cat <<EOF"),
            *("import resource, sys", "  from pinchrelay.cli import cli_main"),
        ],
    )
    def test_the_pattern_finds_each_form_of_inline_program(self, line):
        assert INLINE_PYTHON.search(line)

    def test_the_workflow_holds_no_inline_python(self):
        text = WORKFLOW.read_text(encoding="utf-8")
        assert "python tests/perfbench_smoke.py" in text
        assert [line.strip() for line in text.splitlines() if INLINE_PYTHON.search(line)] == []
