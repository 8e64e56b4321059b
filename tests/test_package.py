import ast
import builtins
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GUARD = """
import sys
import reoptlab
loaded = sorted(name for name in sys.modules if name.startswith("reoptlab."))
assert not loaded, loaded
import reoptlab.cnf as m
assert m is sys.modules["reoptlab.cnf"], m
"""


def test_each_library_name_has_one_import_path():
    # A fresh interpreter: the test session has already imported submodules.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", GUARD], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def _reoptlab_names_read(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) pairs that one benchmark file reads from reoptlab."""
    names = set()
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reoptlab":
            for alias in node.names:
                if node.module == "reoptlab":
                    modules[alias.asname or alias.name] = f"reoptlab.{alias.name}"
                else:
                    names.add((node.module, alias.name))
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and node.value.args and isinstance(node.value.args[0], ast.Constant)
              and str(node.value.args[0].value).startswith("reoptlab.")):
            # name = importlib.import_module("reoptlab.<module>")
            modules[node.targets[0].id] = node.value.args[0].value
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and node.target.id == "TARGETS"):
            # The tracer's (module, attribute, layer, counter) table.
            for entry in node.value.elts:
                names.add((f"reoptlab.{entry.elts[0].value}", entry.elts[1].value))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def _defined_classes() -> list[tuple[str, type]]:
    """(qualified name, class) of every class a library module defines."""
    package = importlib.import_module("reoptlab")
    modules = [importlib.import_module(f"reoptlab.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)]
    assert len(modules) > 10
    return [(f"{module.__name__}.{name}", value) for module in modules
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__]


def _exception_types() -> list[tuple[str, type]]:
    """(qualified name, class) of every exception class a library module defines."""
    return [(name, value) for name, value in _defined_classes() if issubclass(value, BaseException)]


def test_only_errors_defines_exception_types():
    # Every other refusal is a builtin ValueError or KeyError whose message
    # names what was refused, so no caller needs a per-module type.
    defined = _exception_types()
    assert {name for name, _ in defined} >= {"reoptlab.errors.BudgetExceededError"}
    strays = sorted(name for name, value in defined if value.__module__ != "reoptlab.errors")
    assert not strays, "\n".join(strays)


def test_only_errors_imports_json():
    # ``errors`` holds the one JSON codec: the canonical text every writer
    # emits and the strict reading every loader shares.
    importers = set()
    for path in sorted((ROOT / "src" / "reoptlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "json" for module in modules):
                importers.add(path.name)
    assert importers == {"errors.py"}, sorted(importers)


def test_every_runtime_error_is_a_budget_error():
    # The CLI exits 3 on BudgetExceededError; any other RuntimeError would
    # escape its exit-code contract, except the verdict mismatch (exit 2).
    # ``errors`` states the whole contract: it defines every type the CLI
    # catches by name.
    from reoptlab import cli
    from reoptlab.errors import BudgetExceededError, VerdictMismatchError

    strays = sorted(name for name, value in _exception_types()
                    if issubclass(value, RuntimeError)
                    and not issubclass(value, BudgetExceededError)
                    and value is not VerdictMismatchError)
    assert not strays, strays

    namespace = {**vars(builtins), **vars(cli)}
    handlers = [node for node in ast.walk(ast.parse(inspect.getsource(cli._run)))
                if isinstance(node, ast.ExceptHandler)]
    caught = {namespace[node.id] for handler in handlers for node in ast.walk(handler.type)
              if isinstance(node, ast.Name)}
    assert BudgetExceededError in caught
    outside = sorted(f"{cls.__module__}.{cls.__name__}" for cls in caught
                     if cls.__module__ not in ("builtins", "reoptlab.errors"))
    assert not outside, outside


def test_every_name_the_benchmark_reads_exists():
    # The benchmark is not part of tier-1; this catches a deleted library
    # name it still reads before a benchmark run does.
    names = set()
    for path in sorted((ROOT / "reoptbench").glob("*.py")):
        names |= _reoptlab_names_read(ast.parse(path.read_text(), str(path)))
    assert ("reoptlab.solvers", "solve_dpll_stats") in names  # the TARGETS table was read
    missing = sorted(f"{module}.{attr}" for module, attr in names
                     if not hasattr(importlib.import_module(module), attr))
    assert not missing, missing


def test_no_library_module_imports_another_ones_private_name():
    # An underscore name is its module's own; a second module that needs it
    # needs a public name, so no promise about it crosses a module line.
    imported = []
    for path in sorted((ROOT / "src" / "reoptlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "reoptlab"):
                imported += [f"{path.name}: {node.module or '.'}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert not imported, imported


def _equal_values():
    """A builder of one value for each frozen dataclass, by qualified name."""
    from reoptlab.cnf import ChangeSet, cnf
    from reoptlab.experiments import ExperimentConfig, TrialRow, run_experiment
    from reoptlab.gadgets import Gadget
    from reoptlab.graphs import graph
    from reoptlab.hints import add_change, compile_table, del_change
    from reoptlab.reductions import NsatInstance, reduce_fixed_model, reduce_unique_model
    from reoptlab.replanning import sat_to_replanning
    from reoptlab.strips import Goal, make_instance, make_operator

    formula = [(1, -2), (2, 3)]
    return {
        "reoptlab.cnf.CnfFormula": lambda: cnf(formula),
        "reoptlab.cnf.ChangeSet": lambda: ChangeSet(additions=((2, 1),), deletions=((1, -2),)),
        "reoptlab.experiments.ExperimentConfig": lambda: ExperimentConfig(seed=1, trials=2),
        "reoptlab.experiments.TrialRow": lambda: TrialRow(0, "sat", "+1", True, True, 3, 1, True),
        "reoptlab.experiments.ExperimentReport":
            lambda: run_experiment(ExperimentConfig(seed=1, trials=2)),
        "reoptlab.gadgets.Gadget": lambda: Gadget(cnf([(1,), (-1, 2)]), frozenset({-2})),
        "reoptlab.graphs.Graph": lambda: graph(["c"], [("a", "b")]),
        "reoptlab.hints.ElementaryChange": lambda: add_change(2, 1),
        "reoptlab.hints.HintTable":
            lambda: compile_table(cnf(formula), [add_change(-1), del_change(2, 3)], 2),
        "reoptlab.reductions.FixedModelInstance": lambda: reduce_fixed_model(cnf(formula)),
        "reoptlab.reductions.UniqueModelInstance": lambda: reduce_unique_model(cnf(formula)),
        "reoptlab.reductions.NsatInstance": lambda: NsatInstance(cnf(formula)),
        "reoptlab.replanning.ReplanningCase": lambda: sat_to_replanning(cnf(formula)),
        "reoptlab.strips.StripsOperator": lambda: make_operator(["p"], ["q"], ["r"], ["p"]),
        "reoptlab.strips.Goal": lambda: Goal(frozenset({"p"}), frozenset({"q"})),
        "reoptlab.strips.StripsInstance": lambda: make_instance(
            ["p", "q"], {"a": make_operator(pos_post=["p"])}, goal_true=["p"], goal_false=["q"]),
    }


def test_every_frozen_value_hashes_as_it_compares():
    # Equal values must hash equal, so any of them can key a dict or join a set.
    frozen = {name for name, value in _defined_classes()
              if dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen}
    builders = _equal_values()
    assert frozen == set(builders)
    for name, build in builders.items():
        first, second = build(), build()
        assert first is not second and first == second, name
        assert hash(first) == hash(second), name
        assert len({first, second}) == 1, name


# What the oracles may take from the library: graph and gadget-label
# builders, and the search budget's constant, type and error.  Anything
# else would let a library bug reach the judge of the library.
ORACLE_IMPORTS = {
    "reoptlab.graphs": {"graph", "edge", "add_edges", "remove_edges"},
    "reoptlab.gadgets": {"literal_node", "prime_node", "double_prime_node", "clause_node",
                         "ordered_clauses"},
    "reoptlab.strips": {"DEFAULT_SEARCH_BUDGET", "Plan"},
    "reoptlab.errors": {"SearchBudgetError"},
}


def test_the_oracles_import_only_their_allowed_library_names():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, "*") for alias in node.names
                         if alias.name.split(".")[0] == "reoptlab"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reoptlab":
            imported |= {(node.module, alias.name) for alias in node.names}
    assert ("reoptlab.graphs", "graph") in imported  # the walk saw the imports
    strays = sorted(f"{module}.{name}" for module, name in imported
                    if name not in ORACLE_IMPORTS.get(module, ()))
    assert not strays, strays
