"""A catalogue of hand-made mutations of the library and the tests that kill them.

Each ``Mutant`` is one wrong version of a file under ``src/``: the exact
edits that make it, as (text, replacement) pairs whose text occurs exactly
once in the file, and the ids of tests expected to fail on it.
``tests/test_mutants.py`` checks, without running any mutant, that every
text still occurs once and every named test still exists.

    python tests/mutants.py [--only NAME]

applies each mutant (or the one named) to a temporary copy of ``src/``
and runs its tests with ``pytest -x`` against that copy, one subprocess
at a time.  A mutant is killed when a test fails and survives when every
test passes; any other pytest outcome is an error.  The runner prints one
line per mutant and exits 1 if a mutant survived or errored.

A change that adds a search shortcut or a check adds here the mutations
its new tests were written to kill.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    edits: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]


GRAPHS = "src/reoptlab/graphs.py"
HINTS = "src/reoptlab/hints.py"
GADGETS = "src/reoptlab/gadgets.py"
WARM_START = "tests/test_graphs.py::test_warm_start_outcomes_follow_their_definitions"
REUSE_MODEL = "tests/test_hints.py::test_reuse_model_hits_iff_the_hint_satisfies_the_changed_formula"
GADGET_PATHS = "tests/test_gadgets.py::test_every_gadget_path_gives_the_graph_of_the_first_edit_rules"

CATALOGUE = (
    # Hint routes check their hint once.
    Mutant("warm-start-hit-ignores-budget", GRAPHS,
           (("if not missed and len(members) <= budget:", "if not missed:"),),
           (WARM_START,)),
    Mutant("warm-start-skips-added-edges", GRAPHS,
           (("missed = {e for e in g.edges if", "missed = {e for e in g.edges - added if"),),
           (WARM_START,)),
    Mutant("warm-start-never-hits", GRAPHS,
           (("if not missed and len(members) <= budget:", "if False:"),),
           ("tests/test_graphs.py::test_a_warm_start_hit_runs_no_search",)),
    Mutant("warm-start-accepts-missed-old-edges", GRAPHS,
           (("if not missed <= added:", "if not missed <= g.edges:"),),
           (WARM_START,)),
    Mutant("reuse-model-negated-literal-test", HINTS,
           (("(lit > 0) == (abs(lit) in hint)", "(lit > 0) != (abs(lit) in hint)"),),
           (REUSE_MODEL,)),
    Mutant("reuse-model-needs-every-literal-true", HINTS,
           (("any((lit > 0) == (abs(lit) in hint)", "all((lit > 0) == (abs(lit) in hint)"),),
           (REUSE_MODEL,)),
    Mutant("table-keyed-by-clause-without-op", HINTS,
           (("pairs = [(c.op, c.clause) for c in candidates]",
             "pairs = [c.clause for c in candidates]"),
            ('frozenset([*(("add", cl) for cl in changes.additions),\n'
             '                                        *(("del", cl) for cl in changes.deletions)])',
             "frozenset([*changes.additions, *changes.deletions])"),
            ("bit = {(c.op, c.clause): 1 << i", "bit = {c.clause: 1 << i")),
           ("tests/test_hints.py::test_lookup_builds_no_changes",)),
    Mutant("report-keeps-the-unresolved-scenario", "src/reoptlab/experiments.py",
           (("    config = validate_config(config)\n",
             "    original, config = config, validate_config(config)\n"),
            ("report = ExperimentReport(config)", "report = ExperimentReport(original)")),
           ("tests/test_experiments.py::test_json_config_names_the_default_scenario_that_ran[vc]",)),
    # A gadget's graph is derived from its source and removed literals.
    Mutant("gadget-without-relaxing-edges", GADGETS,
           (("edges.extend(edge(prime_node(lit), double_prime_node(lit)) for lit in self.removed)",
             "edges.extend(())"),),
           (GADGET_PATHS, "tests/test_gadgets.py::test_remove_unit_raises_budget")),
    Mutant("gadget-forces-source-units-only", GADGETS,
           (("forced = self.removed.union(cl[0] for cl in f.clauses if len(cl) == 1)",
             "forced = {cl[0] for cl in f.clauses if len(cl) == 1}"),),
           (GADGET_PATHS,)),
    Mutant("gadget-budget-ignores-removed", GADGETS,
           (("- len(clauses) + len(self.removed)", "- len(clauses)"),),
           (GADGET_PATHS, "tests/test_gadgets.py::test_remove_unit_raises_budget")),
    Mutant("add-unit-keeps-it-removed", GADGETS,
           (("g.removed - {lit})", "g.removed)"),),
           (GADGET_PATHS, "tests/test_gadgets.py::test_remove_then_readd_restores_graph_and_budget")),
    Mutant("loader-ignores-unit-presence", GADGETS,
           (("if clause(lit) not in parsed.clauses\n                        and edge(",
             "if edge("),),
           ("tests/test_gadgets.py::test_gadget_json_refuses_the_relaxing_edge_of_a_present_unit",)),
)


def mutated_text(mutant: Mutant) -> str:
    """The mutant's file after its edits; a text not found exactly once raises ``ValueError``."""
    text = (ROOT / mutant.path).read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            raise ValueError(f"{mutant.name}: {old!r} occurs {text.count(old)} times in {mutant.path}")
        text = text.replace(old, new)
    return text


def run_mutant(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``error (...)`` for one mutant."""
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (Path(scratch) / mutant.path).write_text(mutated_text(mutant))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # The ini's ``pythonpath`` would put the real ``src`` first; the
        # scratch directory as working directory keeps the hypothesis
        # database of failing mutants out of the repository.
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={src}", *(str(ROOT / test) for test in mutant.tests)]
        try:
            result = subprocess.run(command, cwd=scratch, env=env, capture_output=True,
                                    text=True, timeout=900)
        except subprocess.TimeoutExpired:
            return "error (timed out)"
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"error (pytest exit {result.returncode})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run the mutation catalogue")
    parser.add_argument("--only", metavar="NAME", help="run only the mutant of this name")
    args = parser.parse_args(argv)
    chosen = [m for m in CATALOGUE if args.only in (None, m.name)]
    if not chosen:
        parser.error(f"no mutant named {args.only!r}")
    start = time.perf_counter()
    failed = 0
    for mutant in chosen:
        began = time.perf_counter()
        outcome = run_mutant(mutant)
        failed += outcome != "killed"
        print(f"{outcome:<10} {mutant.name} ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
