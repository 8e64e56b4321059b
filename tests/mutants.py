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
STRIPS = "src/reoptlab/strips.py"
SOLVERS = "src/reoptlab/solvers.py"
INDEX_PATHS = "tests/test_strips.py::test_every_instance_path_carries_the_index_a_fresh_build_makes"
VALIDATE = "tests/test_strips.py::test_validate_plan_matches_the_reference_on_any_plan"
UNCUT_PLAN = "tests/test_strips.py::test_dead_end_cut_keeps_the_uncut_plan"
EXPERIMENTS = "src/reoptlab/experiments.py"
ERRORS = "src/reoptlab/errors.py"
CNF = "src/reoptlab/cnf.py"
CHANGED_MASKS = "tests/test_cnf.py::test_changed_formulas_carry_the_masks_a_fresh_build_makes"
RESOLVE = "tests/test_cnf.py::test_resolve_changes_keeps_present_deletions_and_new_additions"
DPLL_REFERENCE = ("tests/test_solvers.py::test_dpll_matches_recursive_reference_on_random_formulas",
                  "tests/test_solvers.py::test_dpll_matches_recursive_reference_on_small_formulas")

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
    Mutant("config-keeps-the-empty-scenario", EXPERIMENTS,
           (('        object.__setattr__(self, "scenario", self.scenario or '
             'next(iter(SCENARIOS[self.problem])))\n', ""),
            ("if self.scenario not in SCENARIOS[self.problem]:",
             "if (self.scenario or next(iter(SCENARIOS[self.problem]))) "
             "not in SCENARIOS[self.problem]:"),
            ("trial_fn = SCENARIOS[config.problem][config.scenario]",
             "trial_fn = SCENARIOS[config.problem][config.scenario "
             "or next(iter(SCENARIOS[config.problem]))]")),
           ("tests/test_experiments.py::test_json_config_names_the_default_scenario_that_ran[vc]",
            "tests/test_experiments.py::test_a_config_names_the_scenario_it_runs[vc]")),
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
    # A STRIPS instance carries its plan index; the plan search's cuts.
    Mutant("relevance-worklist-skips-a-new-condition", STRIPS,
           (("found.add(p)\n                    order.append(p)", "found.add(p)"),),
           (INDEX_PATHS,)),
    Mutant("relevance-stops-at-the-goal", STRIPS,
           (("order = list(found)", "order = []"),),
           ("tests/test_strips.py::test_plan_exists_finds_chain", INDEX_PATHS)),
    Mutant("validate-ignores-negative-preconditions", STRIPS,
           (("if state & pre != pre or state & neg:\n            return False, work",
             "if state & pre != pre:\n            return False, work"),),
           (VALIDATE, "tests/test_strips.py::test_validate_plan_runs_negative_postconditions")),
    Mutant("validate-ignores-negative-postconditions", STRIPS,
           (("state = (state | post) & ~drop", "state = state | post"),),
           (VALIDATE, "tests/test_strips.py::test_validate_plan_runs_negative_postconditions")),
    Mutant("validate-swaps-need-and-forbid", STRIPS,
           (("return state & index.need == index.need and not state & index.forbid, work",
             "return state & index.forbid == index.forbid and not state & index.need, work"),),
           (VALIDATE, "tests/test_strips.py::test_validate_plan")),
    Mutant("safe-split-by-negative-preconditions", STRIPS,
           (("safe = tuple(op for op in kept if not op[3] & watched)",
             "safe = tuple(op for op in kept if not op[2])"),
            ("unsafe = tuple(op for op in kept if op[3] & watched)",
             "unsafe = tuple(op for op in kept if op[2])")),
           (INDEX_PATHS, UNCUT_PLAN)),
    Mutant("dead-end-test-over-safe-operators", STRIPS,
           (("close(state, index.kept)[0]", "close(state, safe)[0]"),),
           (UNCUT_PLAN,)),
    Mutant("dead-end-liveness-in-the-growing-state", STRIPS,
           (("and not start & neg:", "and not state & neg:"),),
           (UNCUT_PLAN,)),
    Mutant("dead-end-test-never-cuts", STRIPS,
           (("if successors and close(state, index.kept)[0] & need == need:", "if successors:"),),
           ("tests/test_strips.py::test_dead_end_cut_skips_a_dead_subtree[3]",)),
    # A hint table's entries are derived from its base, candidates and bound.
    Mutant("table-skips-the-largest-subsets", HINTS,
           (("for size in range(effective + 1):", "for size in range(effective):"),),
           ("tests/test_hints.py::test_compile_table_single_candidate",)),
    Mutant("table-budget-unchecked", HINTS,
           (("if total > DEFAULT_TABLE_BUDGET:", "if False:"),),
           ("tests/test_hints.py::test_compile_table_budget",)),
    Mutant("table-entries-compared", HINTS,
           (("init=False, compare=False, repr=False)", "init=False, repr=False)"),),
           ("tests/test_hints.py::test_a_hint_table_is_its_base_candidates_and_bound",)),
    Mutant("irredundant-count-ignores-negative-preconditions", "src/reoptlab/replanning.py",
           (("if state & pre == pre and not state & neg and post & ~state",
             "if state & pre == pre and post & ~state"),),
           ("tests/test_replanning.py::test_count_irredundant_plans_respects_negative_preconditions",
            "tests/test_replanning.py::test_count_irredundant_plans_matches_brute_force")),
    # Soundness-critical cuts and checks, each made unsound.
    Mutant("cover-packing-cuts-at-the-budget", GRAPHS,
           (("elif bound > k:", "elif bound >= k:"),),
           ("tests/test_graphs.py::test_decide_cover_agrees_with_brute_oracle",)),
    Mutant("dpll-conflict-on-any-even-count", SOLVERS,
           (("if few & ~planes[0]:", "if unsat & ~planes[0]:"),),
           ("tests/test_solvers.py::test_dpll_matches_recursive_reference_on_random_formulas",
            "tests/test_solvers.py::test_dpll_matches_recursive_reference_on_small_formulas")),
    Mutant("dpll-unit-takes-an-assigned-literal", SOLVERS,
           (("if lit not in value:\n                    break", "if lit in value:\n                    break"),),
           ("tests/test_solvers.py::test_dpll_matches_recursive_reference_on_random_formulas",
            "tests/test_solvers.py::test_dpll_matches_recursive_reference_on_small_formulas")),
    Mutant("splice-deletion-keeps-the-higher-bits-in-place", "src/reoptlab/cnf.py",
           (("(m >> (i + 1) << i)", "(m >> (i + 1) << (i + 1))"),),
           ("tests/test_cnf.py::test_every_construction_path_carries_the_masks_a_fresh_build_makes",)),
    Mutant("splice-addition-appends", CNF,
           (("    for cl in added:\n        i = bisect_left(ordered, cl)",
             "    for cl in added:\n        i = len(ordered)"),),
           (CHANGED_MASKS,)),
    Mutant("splice-addition-sets-no-bit", CNF,
           (("occ[lit] = occ.get(lit, 0) | 1 << i", "occ[lit] = occ.get(lit, 0)"),),
           (CHANGED_MASKS,)),
    Mutant("splice-deletion-keeps-zero-masks", CNF,
           (("occ = {lit: spliced for lit, m in occ.items()\n"
             "                   if (spliced := (m & low) | (m >> (i + 1) << i))}",
             "occ = {lit: (m & low) | (m >> (i + 1) << i) for lit, m in occ.items()}"),),
           (CHANGED_MASKS,)),
    Mutant("resolve-counts-a-repeated-deletion-twice", CNF,
           (("deleted: set[Clause] = set()", "deleted: list[Clause] = []"),
            ("if cl in present and cl not in deleted:", "if cl in present:"),
            ("deleted.add(cl)", "deleted.append(cl)")),
           (RESOLVE, CHANGED_MASKS)),
    Mutant("resolve-counts-present-additions", CNF,
           (("return deleted, set(changes.additions) - present",
             "return deleted, set(changes.additions)"),),
           (RESOLVE, CHANGED_MASKS)),
    Mutant("masks-built-past-the-budget", CNF,
           (("    if (len(alphabet) * len(ordered) > DPLL_BUDGET\n"
             "            and len(_mentioned(alphabet, ordered)) * len(ordered) > DPLL_BUDGET):\n"
             "        return None\n", ""),),
           ("tests/test_cnf.py::test_a_formula_past_the_dpll_budget_carries_no_masks",
            "tests/test_cnf.py::test_masks_are_absent_exactly_when_dpll_refuses")),
    Mutant("dpll-propagates-the-highest-unit", SOLVERS,
           (("for lit in clauses[(few & -few).bit_length() - 1]:",
             "for lit in clauses[few.bit_length() - 1]:"),),
           DPLL_REFERENCE),
    # One home per rule: the config, the JSON codec and the generator's refusal.
    Mutant("config-allows-a-complete-graph", EXPERIMENTS,
           (("if self.edges >= self.nodes * (self.nodes - 1) // 2:",
             "if self.edges > self.nodes * (self.nodes - 1) // 2:"),),
           ("tests/test_experiments.py::test_invalid_configs[config5-edges]",)),
    Mutant("json-reader-keeps-a-repeated-key", ERRORS,
           (("return json.loads(text, object_pairs_hook=_unique_keys)", "return json.loads(text)"),),
           ("tests/test_strips.py::test_instance_json_refuses_a_repeated_key",
            "tests/test_gadgets.py::test_gadget_json_refuses_a_repeated_key",
            "tests/test_hints.py::test_table_json_refuses_a_repeated_entry_key")),
    Mutant("fields-of-translates-only-key-errors", ERRORS,
           (("except (KeyError, TypeError, AttributeError) as exc:", "except KeyError as exc:"),),
           ("tests/test_hints.py::test_table_json_rejects_a_malformed_field[candidates-5]",
            "tests/test_hints.py::test_table_json_rejects_a_malformed_field[bound-2]")),
    Mutant("generator-accepts-operators-without-conditions", "src/reoptlab/enumeration.py",
           (("    if num_conditions < 1 and num_operators > 0:\n"
             "        raise InvalidConfigError(\"conditions\", "
             "\"operators need at least one condition\")\n", ""),),
           ("tests/test_enumeration.py::"
            "test_random_plansat_instance_refuses_operators_without_conditions",
            "tests/test_cli.py::test_generate_refuses_sizes_it_cannot_honour[strips-sizes4-conditions]")),
    Mutant("table-file-keys-read-as-numbers", HINTS,
           (("entries = {key: None if model is None else frozenset(model)",
             "entries = {f\"0x{int(key, 16):x}\": None if model is None else frozenset(model)"),),
           ("tests/test_hints.py::test_table_json_reads_only_the_canonical_key_spelling[0x03]",
            "tests/test_hints.py::test_table_json_reads_only_the_canonical_key_spelling[0X3]")),
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
