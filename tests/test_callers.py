"""Every package name has a caller in src/, or a stated reason; every name perfbench reads exists.

Both scans read source text with :mod:`ast`.  The caller scan lists each module-level function,
class and constant of ``src/pinchrelay/*.py`` but ``__init__.py``, whose name table only re-exports.
A reference from ``src/``, outside the name's own definition, is one of:

- a ``Name`` load in the defining module;
- a relative ``from .module import name``;
- an attribute read ``.name``, unless ``name`` is also a field of a package class, where an
  attribute read is taken for the field (``solution.total_power_w`` is no call of a function of
  that name).
"""

import ast
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pinchrelay

PACKAGE = Path(pinchrelay.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Each package name that nothing in src/ references, with the reason it stays.  A reason that starts
# with "perfbench" holds only while perfbench/*.py reads the name.
UNCALLED = {
    "model.af_snr": "perfbench: solve_point's gate checks each solution's SNR with it",
    "model.channel_gains": "perfbench: solve_point's gate builds the gains that af_snr reads",
    "oracle.grid_search_pin": "perfbench: solve_point's gate compares placements with its grid",
    "optimize.stationary_points": "perfbench: the placement classifier reads its root",
    "benchmarks.benchmark1_tx_power_w": "the direct scheme at one user, for a solve that prints the comparison",
    "benchmarks.benchmark2_power": "the fixed-antenna scheme at one user, for a solve that prints the comparison",
    "sweep.read_csv": "public API: reads back what export_csv writes",
}


def _top_level(body: list[ast.stmt]):
    """The module-level statements of ``body``, inside ``if`` and ``try`` blocks too."""
    for stmt in body:
        if isinstance(stmt, ast.If):
            yield from _top_level(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _top_level(stmt.body + [s for h in stmt.handlers for s in h.body] + stmt.orelse + stmt.finalbody)
        else:
            yield stmt


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def caller_scan(package: Path) -> tuple[dict[str, str], set[str]]:
    """Each scanned name of ``package`` as ``"module.name"`` with its ``"file:line"``, and those referenced."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    where: dict[str, str] = {}
    fields: set[str] = set()
    for module, tree in trees.items():
        for stmt in _top_level(tree.body):
            if module != "__init__":
                where.update((f"{module}.{name}", f"{module}.py:{stmt.lineno}") for name in _defined(stmt))
            if isinstance(stmt, ast.ClassDef):
                fields.update(s.target.id for s in stmt.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
    by_name: dict[str, list[str]] = {}
    for key in where:
        by_name.setdefault(key.split(".", 1)[1], []).append(key)
    referenced: set[str] = set()
    for module, tree in trees.items():
        for stmt in _top_level(tree.body):
            own = {f"{module}.{name}" for name in _defined(stmt)}
            found: set[str] = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(f"{module}.{node.id}")
                elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                    found.update(f"{node.module}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in fields:
                    found.update(by_name.get(node.attr, ()))
            referenced |= found - own
    return where, referenced & set(where)


def perfbench_reads(perfbench: Path, modules: set[str]) -> dict[str, str]:
    """Each ``"module.name"`` that ``perfbench/*.py`` reads from a package module, with one ``"file:line"``.

    A package module is an attribute or a name spelled as one (``pr.oracle``, ``self.cli``, a local
    ``model``); the traced names are strings, left out, since the tracer skips a missing one.
    """
    reads: dict[str, str] = {}
    for path in sorted(perfbench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and not node.attr.startswith("__"):
                base = node.value
                module = base.attr if isinstance(base, ast.Attribute) else base.id if isinstance(base, ast.Name) else None
                if module in modules:
                    reads.setdefault(f"{module}.{node.attr}", f"{path.name}:{node.lineno}")
    return reads


def modules_of(package: Path) -> set[str]:
    return {path.stem for path in package.glob("*.py")} - {"__init__"}


def offenders(where: dict[str, str], referenced: set[str], uncalled: dict[str, str]) -> list[str]:
    """``"file:line name"`` of each scanned name with no reference and no ``uncalled`` entry."""
    return [f"{where[key]} {key.split('.', 1)[1]}" for key in sorted(set(where) - referenced - set(uncalled))]


def stale(where: dict[str, str], referenced: set[str], uncalled: dict[str, str], reads: dict[str, str]) -> list[str]:
    """Each ``uncalled`` entry that no longer holds, with why."""
    found = []
    for key, reason in sorted(uncalled.items()):
        if key not in where:
            found.append(f"{key} no longer exists")
        elif key in referenced:
            found.append(f"{where[key]} {key} has a caller in src/ now")
        elif reason.startswith("perfbench") and key not in reads:
            found.append(f"{where[key]} {key}: perfbench/*.py no longer reads it")
    return found


def relative_imports(package: Path) -> dict[str, set[str]]:
    """Each module of ``package`` with the modules it imports relatively, at module level or in a function.

    ``from .x import name`` and ``from . import x`` import ``x``; ``__init__.py``'s ``importlib`` loader
    is no import statement, so nothing it loads is an edge.
    """
    graph: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem].update([node.module] if node.module else [alias.name for alias in node.names])
    return graph


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the import graph, as the modules along it with the first repeated at the end; [] if none."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        return exc.args[1]
    return []


class TestImportGraph:
    def test_the_package_imports_form_an_acyclic_graph(self):
        assert import_cycle(relative_imports(PACKAGE)) == []

    def test_model_imports_no_package_module(self):
        assert relative_imports(PACKAGE)["model"] == set()

    def test_a_function_level_back_import_is_a_cycle(self, tmp_path):
        (tmp_path / "a.py").write_text("def f():\n    from .b import g\n    return g()\n")
        (tmp_path / "b.py").write_text("from . import a\n\ndef g():\n    return a\n")
        (tmp_path / "c.py").write_text("from .a import f\nimport importlib\n")
        graph = relative_imports(tmp_path)
        assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
        assert sorted(import_cycle(graph)[:-1]) == ["a", "b"]


class TestCallers:
    def test_each_package_name_has_a_caller_in_src_or_a_reason(self):
        where, referenced = caller_scan(PACKAGE)
        assert offenders(where, referenced, UNCALLED) == []

    def test_each_uncalled_entry_holds(self):
        where, referenced = caller_scan(PACKAGE)
        assert stale(where, referenced, UNCALLED, perfbench_reads(PERFBENCH, modules_of(PACKAGE))) == []

    def test_a_stale_entry_is_reported(self):
        where, referenced = caller_scan(PACKAGE)
        table = {
            "model.db_to_linear": "called by the sweep and the CLI",
            "model.no_such_name": "gone",
            "sweep.read_csv": "perfbench: never read there",
        }
        assert stale(where, referenced, table, perfbench_reads(PERFBENCH, modules_of(PACKAGE))) == [
            f"{where['model.db_to_linear']} model.db_to_linear has a caller in src/ now",
            "model.no_such_name no longer exists",
            f"{where['sweep.read_csv']} sweep.read_csv: perfbench/*.py no longer reads it",
        ]

    def test_an_offender_is_named_with_its_file_and_line(self):
        where, referenced = caller_scan(PACKAGE)
        assert f"sweep.py:{pinchrelay.read_csv.__code__.co_firstlineno} read_csv" in offenders(where, referenced, {})

    def test_a_field_read_is_no_call_and_a_module_read_is_one(self, tmp_path):
        # a function named like a field and read only as an attribute, as model.total_power_w was beside
        # PowerSolution.total_power_w, has no caller; a module function read off a call, as cli's
        # _oracle().verify_scenario, has one; so do a relative import and a Name load, but not a recursion
        (tmp_path / "a.py").write_text(
            "class Solution:\n    total: float\n\n"
            "def total(s):\n    return s.total\n\n"
            "def check():\n    return 1\n\n"
            "def imported():\n    return 2\n\n"
            "def loaded():\n    return loaded() + _helper()\n\n"
            "def _helper():\n    return 3\n"
        )
        (tmp_path / "b.py").write_text(
            "from .a import imported\n\n"
            "def _module():\n    import a\n    return a\n\n"
            "def run(solution):\n    return solution.total, _module().check()\n"
        )
        where, referenced = caller_scan(tmp_path)
        assert set(where) - referenced == {"a.Solution", "a.total", "a.loaded", "b.run"}


class TestPerfbenchNames:
    def test_the_scan_finds_the_reads_of_each_form(self):
        reads = perfbench_reads(PERFBENCH, modules_of(PACKAGE))
        assert {"model.af_snr", "oracle.grid_search_pin", "optimize.stationary_points", "oracle.DEFAULT_P1_POINTS"} <= set(reads)
        assert {"cli.cli_main", "cli.verify_scenario", "model.SystemConfig", "optimize.solve"} <= set(reads)

    def test_each_name_perfbench_reads_from_a_package_module_exists(self):
        reads = perfbench_reads(PERFBENCH, modules_of(PACKAGE))
        missing = [
            f"{at} {key}" for key, at in sorted(reads.items())
            if not hasattr(importlib.import_module(f"pinchrelay.{key.split('.', 1)[0]}"), key.split(".", 1)[1])
        ]
        assert missing == []
