"""Oracle-equivalence sweeps over exhaustive and seeded random instances.

Each sweep returns a list of failure strings, one minimal reproducer per
counterexample; an empty list is a pass.  The sweeps drive every
construction against the exhaustive oracles.  Their random samples are
drawn from ``DEFAULT_SEED`` unless a seed is given.  ``SUITES`` gives
each ``verify`` suite one function, whose parameters are its options.
"""

from __future__ import annotations

import random
from itertools import chain, combinations

from .cnf import ChangeSet, CnfFormula, apply_changes, clause, evaluate
from .dimacs import serialize_dimacs
from .enumeration import (
    iter_small_formulas,
    random_formula,
    random_hint_setup,
    random_plansat_instance,
)
from .gadgets import build_gadget, gadget_add_unit, gadget_remove_unit
from .graphs import decide_cover
from .hints import MISS, compile_table, lookup, subset_changes
from .reductions import reduce_fixed_model, reduce_unique_model, unique_model
from .replanning import (
    apply_initial_change,
    count_irredundant_plans,
    goal_compilation,
    sat_to_replanning,
)
from .solvers import count_models, solve_brute, solve_dpll
from .strips import instance_to_json, plan_exists, validate_plan

DEFAULT_SEED = 20260808


def describe_formula(f: CnfFormula) -> str:
    return serialize_dimacs(f).strip().replace("\n", " / ")


def sweep_solver_agreement(max_vars: int = 3, max_clauses: int = 3,
                           samples: int = 1000, seed: int = DEFAULT_SEED) -> list[str]:
    """DPLL verdicts must match exhaustive search; returned models must satisfy."""
    failures = []
    rng = random.Random(seed)
    sampled = (random_formula(rng, rng.randint(0, 6), rng.randint(0, 6)) for _ in range(samples))
    for f in chain(iter_small_formulas(max_vars, max_clauses), sampled):
        fast = solve_dpll(f)
        slow = solve_brute(f)
        if (fast is None) != (slow is None):
            failures.append(f"solver disagreement on {describe_formula(f)}")
        elif fast is not None and not evaluate(f, fast):
            failures.append(f"dpll returned a non-model {sorted(fast)} for {describe_formula(f)}")
    return failures


def sweep_fixed_model(max_vars: int = 3, max_clauses: int = 3) -> list[str]:
    """Known-model construction: hint satisfies, change is equisatisfiable, fresh var clean."""
    failures = []
    for g in iter_small_formulas(max_vars, max_clauses):
        inst = reduce_fixed_model(g)
        fresh = abs(inst.change_clause[0])
        modified = apply_changes(inst.formula, ChangeSet(additions=(inst.change_clause,)))
        problems = []
        if not evaluate(inst.formula, inst.hint_model):
            problems.append("hint fails the base formula")
        if fresh in g.alphabet:
            problems.append("fresh variable collides with the alphabet")
        if (solve_brute(g) is None) != (solve_brute(modified) is None):
            problems.append("equisatisfiability broken")
        if problems:
            failures.append(f"fixed-model on {describe_formula(g)}: {', '.join(problems)}")
    return failures


def sweep_unique_model(max_vars: int = 3, max_clauses: int = 3) -> list[str]:
    """Single-model construction: one model, the all-true one, swap equisatisfiable."""
    failures = []
    for g in iter_small_formulas(max_vars, max_clauses):
        inst = reduce_unique_model(g)
        problems = []
        if count_models(inst.formula) != 1:
            problems.append("model count is not 1")
        if not evaluate(inst.formula, unique_model(inst)):
            problems.append("the designated model is not a model")
        swapped = apply_changes(
            inst.formula,
            ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,)),
        )
        if (solve_brute(g) is None) != (solve_brute(swapped) is None):
            problems.append("swap equisatisfiability broken")
        if problems:
            failures.append(f"unique-model on {describe_formula(g)}: {', '.join(problems)}")
    return failures


def sweep_vc_gadget(max_vars: int = 3, max_clauses: int = 3,
                    samples: int = 500, seed: int = DEFAULT_SEED) -> list[str]:
    """Cover threshold tracks satisfiability, for base formulas and unit edits."""
    failures = []
    for f, tag, gadget, target in gadget_cases(max_vars, max_clauses, samples, seed):
        if (decide_cover(gadget.graph, gadget.budget) is not None) != _satisfiable(target):
            where = "for" if tag is None else f"after {tag} on"
            failures.append(f"gadget verdict wrong {where} {describe_formula(f)}")
    return failures


def gadget_cases(max_vars: int = 3, max_clauses: int = 3, samples: int = 500,
                 seed: int = DEFAULT_SEED):
    """The gadgets ``sweep_vc_gadget`` decides, as (formula, edit, gadget, target).

    For each formula, exhaustive ones first and then seeded random ones,
    this yields its own gadget (edit None) and then each single unit-clause
    edit of it (edit "add 2", "remove -1", ...); ``target`` is the formula
    the gadget encodes.  Random formulas are over four variables.
    """
    rng = random.Random(seed)
    sampled = (random_formula(rng, 4, max_clauses) for _ in range(samples))
    for f in chain(iter_small_formulas(max_vars, max_clauses), sampled):
        gadget = build_gadget(f)
        yield f, None, gadget, f
        for v in sorted(f.alphabet):
            for lit in (v, -v):
                unit = clause(lit)
                if unit in f.clauses:
                    yield (f, f"remove {lit}", gadget_remove_unit(gadget, lit),
                           apply_changes(f, ChangeSet(deletions=(unit,))))
                else:
                    yield (f, f"add {lit}", gadget_add_unit(gadget, lit),
                           apply_changes(f, ChangeSet(additions=(unit,))))


def _satisfiable(f: CnfFormula) -> bool:
    return solve_brute(f) is not None


def sweep_replanning(max_vars: int = 3, max_clauses: int = 3) -> list[str]:
    """Guard-deletion replanning: plan validity, unique irredundancy, equivalence."""
    failures = []
    for f in iter_small_formulas(max_vars, max_clauses):
        case = sat_to_replanning(f)
        problems = []
        if not validate_plan(case.instance, case.original_plan):
            problems.append("original plan invalid")
        if count_irredundant_plans(case.instance) != 1:
            problems.append("irredundant plan not unique")
        changed = apply_initial_change(case)
        if (plan_exists(changed) is not None) != _satisfiable(f):
            problems.append("replanning verdict wrong")
        if problems:
            failures.append(f"replanning on {describe_formula(f)}: {', '.join(problems)}")
    return failures


def sweep_goal_compilation(samples: int = 200, seed: int = DEFAULT_SEED) -> list[str]:
    """Folding the goal into a fresh operator preserves plan existence.

    Each sample has one to six conditions and one to six operators.
    """
    failures = []
    rng = random.Random(seed)
    for _ in range(samples):
        instance = random_plansat_instance(rng, rng.randint(1, 6), rng.randint(1, 6))
        before = plan_exists(instance) is not None
        after = plan_exists(goal_compilation(instance)) is not None
        if before != after:
            failures.append(
                "goal compilation changed the verdict on:\n" + instance_to_json(instance)
            )
    return failures


def sweep_hint_tables(samples: int = 50, seed: int = DEFAULT_SEED) -> list[str]:
    """Every table lookup matches the exhaustive verdict on the changed formula."""
    failures = []
    rng = random.Random(seed)
    for _ in range(samples):
        sizes = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4)
        bound = rng.randint(0, 2)
        base, candidates = random_hint_setup(rng, *sizes)
        table = compile_table(base, candidates, bound)
        for size in range(min(bound, len(candidates)) + 1):
            for combo in combinations(range(len(candidates)), size):
                changes = subset_changes(candidates, combo)
                got = lookup(table, changes)
                if got is MISS:
                    failures.append(f"unexpected miss for subset {combo} of {candidates}"
                                    f" on {describe_formula(base)}")
                    continue
                changed = apply_changes(base, changes)
                expected = solve_brute(changed)
                if (got is None) != (expected is None):
                    failures.append(
                        f"table verdict wrong for subset {combo} on {describe_formula(base)}"
                    )
                elif got is not None and not evaluate(changed, got):
                    failures.append(
                        f"table stores a non-model for subset {combo} on {describe_formula(base)}"
                    )
    return failures


def suite_sat_reductions(max_vars: int = 3, max_clauses: int = 3,
                         samples: int = 1000, seed: int = DEFAULT_SEED) -> list[str]:
    """Solver agreement, then the fixed-model and unique-model constructions."""
    return (sweep_solver_agreement(max_vars, max_clauses, samples, seed)
            + sweep_fixed_model(max_vars, max_clauses)
            + sweep_unique_model(max_vars, max_clauses))


def suite_plan_reductions(max_vars: int = 3, max_clauses: int = 3,
                          samples: int = 200, seed: int = DEFAULT_SEED) -> list[str]:
    """Guard-deletion replanning, then goal compilation."""
    return sweep_replanning(max_vars, max_clauses) + sweep_goal_compilation(samples, seed)


SUITES = {
    "sat-reductions": suite_sat_reductions,
    "vc-gadget": sweep_vc_gadget,
    "plan-reductions": suite_plan_reductions,
    "hint-tables": sweep_hint_tables,
}
