"""Seeded input generators owned by the benchmark.

Every generator draws from a caller-supplied ``random.Random`` and returns
text in one of the library's file formats (DIMACS, edge list, instance
JSON, change list), so the same seed gives byte-identical inputs and a
change to ``reoptlab.enumeration`` cannot change a workload.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

Clause = tuple[int, ...]


def random_3clause(rng: random.Random, num_vars: int) -> Clause:
    """A non-tautological clause over three distinct variables, sorted by variable."""
    variables = sorted(rng.sample(range(1, num_vars + 1), 3))
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def fresh_3clauses(rng: random.Random, num_vars: int, count: int, taken) -> list[Clause]:
    """``count`` distinct three-literal clauses, none of them in ``taken``."""
    seen = set(taken)
    out: list[Clause] = []
    while len(out) < count:
        cl = random_3clause(rng, num_vars)
        if cl not in seen:
            seen.add(cl)
            out.append(cl)
    return out


def satisfies(model, cl: Clause) -> bool:
    return any((lit > 0) == (abs(lit) in model) for lit in cl)


def clause_against(rng: random.Random, num_vars: int, model, satisfied: bool, taken) -> Clause:
    """A fresh three-literal clause that ``model`` satisfies, or one it falsifies."""
    while True:
        if satisfied:
            cl = random_3clause(rng, num_vars)
        else:
            variables = sorted(rng.sample(range(1, num_vars + 1), 3))
            cl = tuple(-v if v in model else v for v in variables)
        if satisfies(model, cl) == satisfied and cl not in taken:
            return cl


def clause_line(cl: Clause) -> str:
    return " ".join([*map(str, cl), "0"])


def pure_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> str:
    """DIMACS text of ``num_clauses`` distinct clauses, each of exactly three literals.

    Fixed width matters: mixed clause sizes near the 3-SAT threshold
    rarely give the satisfiable bases the reuse workloads need.
    """
    if num_clauses > 8 * math.comb(num_vars, 3):
        raise ValueError(f"{num_clauses} distinct 3-clauses do not exist over {num_vars} variables")
    clauses = fresh_3clauses(rng, num_vars, num_clauses, ())
    lines = [f"p cnf {num_vars} {num_clauses}", *map(clause_line, clauses)]
    return "\n".join(lines) + "\n"


def planted_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> tuple[str, frozenset[int]]:
    """DIMACS text of distinct three-literal clauses that a hidden model satisfies, and the model.

    Clauses are drawn uniformly among those the hidden model satisfies, so
    the formula is satisfiable at any clause ratio without a solver.
    """
    model = frozenset(v for v in range(1, num_vars + 1) if rng.random() < 0.5)
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    while len(clauses) < num_clauses:
        cl = clause_against(rng, num_vars, model, True, seen)
        seen.add(cl)
        clauses.append(cl)
    lines = [f"p cnf {num_vars} {num_clauses}", *map(clause_line, clauses)]
    return "\n".join(lines) + "\n", model


def random_graph(rng: random.Random, num_nodes: int, num_edges: int) -> str:
    """Edge-list text: isolated nodes one per line, then ``u v`` pairs."""
    labels = [f"v{i:02d}" for i in range(num_nodes)]
    pairs = rng.sample(list(combinations(labels, 2)), num_edges)
    touched = {n for pair in pairs for n in pair}
    lines = [n for n in labels if n not in touched] + [f"{u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def addonly_strips(rng: random.Random, num_conditions: int = 20, num_operators: int = 36,
                   initial_size: int = 4, goal_sizes: tuple[int, int] = (6, 7)) -> str:
    """Instance JSON of a random add-only STRIPS instance.

    Every operator has one negative precondition, so most conditions are
    consumed by some operator's negative precondition and only a few
    operators are safe to apply at will.
    """
    conditions = [f"p{i:02d}" for i in range(num_conditions)]
    operators = {}
    for i in range(num_operators):
        pos_pre = sorted(rng.sample(conditions, rng.randint(0, 2)))
        rest = [c for c in conditions if c not in pos_pre]
        neg_pre = sorted(rng.sample(rest, 1))
        pos_post = sorted(rng.sample(conditions, rng.randint(1, 2)))
        operators[f"o{i:02d}"] = [pos_pre, neg_pre, pos_post, []]
    initial = sorted(rng.sample(conditions, initial_size))
    outside = [c for c in conditions if c not in initial]
    goal = sorted(rng.sample(outside, rng.randint(*goal_sizes)))
    obj = {
        "conditions": conditions,
        "operators": operators,
        "initial": initial,
        "goal": {"must_true": goal, "must_false": []},
    }
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def candidate_universe(rng: random.Random, num_vars: int, base_clauses, size: int) -> str:
    """Change-list text of ``size`` candidate changes against a base formula.

    About a third delete base clauses; the rest add fresh three-literal
    clauses, so no clause is offered both ways.
    """
    base_clauses = list(base_clauses)
    deletions = rng.sample(base_clauses, min(len(base_clauses), size // 3))
    additions = fresh_3clauses(rng, num_vars, size - len(deletions), base_clauses)
    lines = [f"- {clause_line(cl)}" for cl in deletions] + [f"+ {clause_line(cl)}" for cl in additions]
    return "\n".join(lines) + "\n"
