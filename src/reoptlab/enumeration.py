"""Exhaustive small-instance enumeration and seeded random generators.

Everything here is deterministic: enumerations have a fixed order and the
random generators draw from a caller-supplied ``random.Random``, so sweeps
and experiments reproduce bit-for-bit from a seed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, combinations, product

from .cnf import Clause, CnfFormula, clause, cnf
from .errors import CONSTRUCTION_BUDGET, BudgetExceededError, InvalidConfigError
from .graphs import Graph, graph
from .hints import ElementaryChange
from .solvers import solve_dpll
from .strips import StripsInstance, make_instance, make_operator

SATISFIABLE_ATTEMPTS = 200


def all_clauses(variables, min_size: int = 1, max_size: int = 3) -> list[Clause]:
    """Every non-tautological clause over distinct variables, sizes inclusive."""
    out = []
    ordered = sorted(variables)
    for size in range(min_size, max_size + 1):
        for combo in combinations(ordered, size):
            for signs in product((1, -1), repeat=size):
                out.append(clause(*(s * v for s, v in zip(signs, combo))))
    return out


def iter_small_formulas(max_vars: int = 3, max_clauses: int = 3):
    """All formulas with at most ``max_clauses`` clauses of one to three literals
    over variables 1..max_vars; alphabets are the mentioned variables."""
    pool = all_clauses(range(1, max_vars + 1))
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
    declared alphabet 1..num_vars.

    Clauses are drawn with ``random_clause``; if duplicates keep colliding,
    the rest are sampled from the clauses not yet chosen, so the count
    falls short only when it exceeds the pool of distinct clauses, which
    ``experiments.check_formula_sizes`` refuses.  More than
    ``errors.CONSTRUCTION_BUDGET`` clauses times ``min(max_size, num_vars)``
    literals raise ``BudgetExceededError`` before any clause is drawn.
    """
    if num_clauses * min(max_size, num_vars) > CONSTRUCTION_BUDGET:
        raise BudgetExceededError(
            f"{num_clauses} clauses of up to {min(max_size, num_vars)} literals exceed "
            f"the construction budget of {CONSTRUCTION_BUDGET}")
    alphabet = range(1, num_vars + 1)
    if num_vars == 0:
        return cnf((), alphabet=())
    chosen: set[Clause] = set()
    for _ in range(20 * num_clauses + 20):
        if len(chosen) == num_clauses:
            break
        chosen.add(random_clause(rng, num_vars, max_size))
    if len(chosen) < num_clauses:
        rest = [cl for cl in all_clauses(alphabet, 1, max_size) if cl not in chosen]
        chosen.update(rng.sample(rest, min(num_clauses - len(chosen), len(rest))))
    return cnf(chosen, alphabet=alphabet)


def random_satisfiable_formula(rng: random.Random, num_vars: int, num_clauses: int,
                               max_size: int = 3):
    """A satisfiable random formula together with one of its models.

    The attempts share ``errors.CONSTRUCTION_BUDGET``: there are as many
    as the budget holds formulas of this many literal slots, at least one
    and at most ``SATISFIABLE_ATTEMPTS``.
    """
    slots = max(1, num_clauses * min(max_size, num_vars))
    attempts = min(SATISFIABLE_ATTEMPTS, max(1, CONSTRUCTION_BUDGET // slots))
    for _ in range(attempts):
        f = random_formula(rng, num_vars, num_clauses, max_size)
        model = solve_dpll(f)
        if model is not None:
            return f, model
    raise ValueError(f"no satisfiable formula of {num_vars} variables and {num_clauses} clauses"
                     f" in {attempts} attempt{'' if attempts == 1 else 's'}")


def random_graph(rng: random.Random, num_nodes: int, num_edges: int) -> Graph:
    """A graph of ``num_nodes`` nodes and ``num_edges`` distinct random edges.

    More than ``errors.CONSTRUCTION_BUDGET`` nodes plus edges raise
    ``BudgetExceededError`` before any is drawn.
    """
    if num_nodes + num_edges > CONSTRUCTION_BUDGET:
        raise BudgetExceededError(f"{num_nodes} nodes and {num_edges} edges exceed "
                                  f"the construction budget of {CONSTRUCTION_BUDGET}")
    labels = [f"v{i:02d}" for i in range(1, num_nodes + 1)]
    # Node pairs are drawn by their index in ``combinations(labels, 2)``
    # order without listing them; row i holds the pairs (i, j > i) and
    # starts at offsets[i].
    offsets = list(accumulate(range(num_nodes - 1, 0, -1), initial=0))
    picked = []
    for index in rng.sample(range(offsets[-1]), min(num_edges, offsets[-1])):
        row = bisect_right(offsets, index) - 1
        picked.append((labels[row], labels[row + 1 + index - offsets[row]]))
    return graph(labels, picked)


def _random_subset(rng: random.Random, pool, max_size: int) -> list:
    size = rng.randint(0, min(max_size, len(pool)))
    return rng.sample(pool, size)


def random_plansat_instance(rng: random.Random, num_conditions: int,
                            num_operators: int) -> StripsInstance:
    """A random add-only instance; goals are small so both verdicts occur.

    Every operator adds a condition, so operators without a condition to
    add raise ``InvalidConfigError`` naming ``conditions``.  More than
    ``errors.CONSTRUCTION_BUDGET`` conditions plus operators raise
    ``BudgetExceededError``.  Both are refused before anything is drawn.
    """
    if num_conditions < 1 and num_operators > 0:
        raise InvalidConfigError("conditions", "operators need at least one condition")
    if num_conditions + num_operators > CONSTRUCTION_BUDGET:
        raise BudgetExceededError(f"{num_conditions} conditions and {num_operators} operators "
                                  f"exceed the construction budget of {CONSTRUCTION_BUDGET}")
    conditions = [f"p{i}" for i in range(1, num_conditions + 1)]
    operators = {}
    for i in range(1, num_operators + 1):
        # Preconditions are drawn as indices, so an operator costs the same at
        # any size; a range samples as a list of its length would.  The negative
        # one indexes the conditions left over, so it steps past each taken one.
        taken = _random_subset(rng, range(num_conditions), 2)
        rest = _random_subset(rng, range(num_conditions - len(taken)), 1)
        for t in sorted(taken):
            rest = [j + 1 if j >= t else j for j in rest]
        pos_pre = [conditions[j] for j in taken]
        neg_pre = [conditions[j] for j in rest]
        pos_post = rng.sample(conditions, rng.randint(1, min(2, num_conditions)))
        operators[f"op{i}"] = make_operator(pos_pre, neg_pre, pos_post)
    initial = _random_subset(rng, conditions, max(1, num_conditions // 2))
    goal_true = _random_subset(rng, conditions, 2)
    rest = [c for c in conditions if c not in goal_true]
    goal_false = _random_subset(rng, rest, 1)
    return make_instance(conditions, operators, initial, goal_true, goal_false)


def random_hint_setup(rng: random.Random, num_vars: int = 3, num_clauses: int = 3,
                      num_candidates: int = 3):
    """A base formula plus a compatible candidate-change universe.

    Deletion candidates target clauses of the base; addition candidates
    are fresh clauses, so no clause is offered as both.
    """
    base = random_formula(rng, num_vars, num_clauses)
    existing = base.ordered
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
    return base, tuple(candidates)
