"""Exhaustive small-instance enumeration and seeded random generators.

Everything here is deterministic: enumerations have a fixed order and the
random generators draw from a caller-supplied ``random.Random``, so sweeps
and experiments reproduce bit-for-bit from a seed.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

from .cnf import Clause, CnfFormula, clause, cnf
from .graphs import Graph, graph
from .hints import ElementaryChange
from .solvers import solve_dpll
from .strips import StripsInstance, make_instance, make_operator


def all_clauses(variables, min_size: int = 1, max_size: int = 3) -> list[Clause]:
    """Every non-tautological clause over distinct variables, sizes inclusive."""
    out = []
    ordered = sorted(variables)
    for size in range(min_size, max_size + 1):
        for combo in combinations(ordered, size):
            for signs in product((1, -1), repeat=size):
                out.append(clause(*(s * v for s, v in zip(signs, combo))))
    return out


def iter_small_formulas(max_vars: int = 3, max_clauses: int = 3, max_size: int = 3):
    """All formulas with at most ``max_clauses`` clauses from the clause pool
    over variables 1..max_vars; alphabets are the mentioned variables."""
    pool = all_clauses(range(1, max_vars + 1), 1, max_size)
    for count in range(max_clauses + 1):
        for subset in combinations(pool, count):
            yield cnf(subset)


def random_clause(rng: random.Random, num_vars: int, max_size: int = 3) -> Clause:
    size = rng.randint(1, min(max_size, num_vars))
    variables = rng.sample(range(1, num_vars + 1), size)
    return clause(*(v if rng.random() < 0.5 else -v for v in variables))


def random_formula(rng: random.Random, num_vars: int, num_clauses: int,
                   max_size: int = 3) -> CnfFormula:
    """A formula with up to ``num_clauses`` distinct random clauses over a
    declared alphabet 1..num_vars (fewer if duplicates keep colliding)."""
    alphabet = range(1, num_vars + 1)
    if num_vars == 0:
        return cnf((), alphabet=())
    chosen: set[Clause] = set()
    for _ in range(20 * num_clauses + 20):
        if len(chosen) == num_clauses:
            break
        chosen.add(random_clause(rng, num_vars, max_size))
    return cnf(chosen, alphabet=alphabet)


def clause_pool_size(num_vars: int, max_size: int = 3) -> int:
    """How many distinct clauses ``random_clause`` can draw: the most ``random_formula`` returns."""
    return sum(comb(num_vars, size) << size for size in range(1, min(max_size, num_vars) + 1))


def random_satisfiable_formula(rng: random.Random, num_vars: int, num_clauses: int,
                               max_size: int = 3, attempts: int = 200):
    """A satisfiable random formula together with one of its models."""
    for _ in range(attempts):
        f = random_formula(rng, num_vars, num_clauses, max_size)
        model = solve_dpll(f)
        if model is not None:
            return f, model
    raise ValueError(f"no satisfiable formula of {num_vars} variables and {num_clauses} clauses"
                     f" in {attempts} attempts")


def random_graph(rng: random.Random, num_nodes: int, num_edges: int) -> Graph:
    labels = [f"v{i:02d}" for i in range(1, num_nodes + 1)]
    pairs = list(combinations(labels, 2))
    picked = rng.sample(pairs, min(num_edges, len(pairs)))
    return graph(labels, picked)


def _random_subset(rng: random.Random, pool, max_size: int) -> list[str]:
    size = rng.randint(0, min(max_size, len(pool)))
    return rng.sample(pool, size)


def random_plansat_instance(rng: random.Random, num_conditions: int,
                            num_operators: int) -> StripsInstance:
    """A random add-only instance; goals are small so both verdicts occur."""
    conditions = [f"p{i}" for i in range(1, num_conditions + 1)]
    operators = {}
    for i in range(1, num_operators + 1):
        pos_pre = _random_subset(rng, conditions, 2)
        rest = [c for c in conditions if c not in pos_pre]
        neg_pre = _random_subset(rng, rest, 1)
        pos_post = rng.sample(conditions, rng.randint(1, min(2, num_conditions)))
        operators[f"op{i}"] = make_operator(pos_pre, neg_pre, pos_post)
    initial = _random_subset(rng, conditions, max(1, num_conditions // 2))
    goal_true = _random_subset(rng, conditions, 2)
    rest = [c for c in conditions if c not in goal_true]
    goal_false = _random_subset(rng, rest, 1)
    return make_instance(conditions, operators, initial, goal_true, goal_false)


def random_hint_setup(rng: random.Random, num_vars: int = 3, num_clauses: int = 3,
                      num_candidates: int = 3, bound: int = 2):
    """A base formula plus a compatible candidate-change universe.

    Deletion candidates target clauses of the base; addition candidates
    are fresh clauses, so no clause is offered as both.
    """
    base = random_formula(rng, num_vars, num_clauses)
    existing = sorted(base.clauses)
    num_dels = rng.randint(0, min(len(existing), num_candidates))
    dels = rng.sample(existing, num_dels)
    adds: set[Clause] = set()
    for _ in range(100):
        if len(adds) == num_candidates - num_dels:
            break
        candidate = random_clause(rng, max(num_vars, 1), 3)
        if candidate not in base.clauses and candidate not in dels:
            adds.add(candidate)
    candidates = [ElementaryChange("del", cl) for cl in dels]
    candidates += [ElementaryChange("add", cl) for cl in sorted(adds)]
    rng.shuffle(candidates)
    return base, tuple(candidates), bound
