"""The two workloads: seeded set-up, query families, routes and checks.

A query is one changed instance plus its hint.  It is answered twice:
``cold`` solves the changed instance from scratch and ``hinted`` goes
through the hint engine.  ``check`` judges both answers outside the timed
region and raises ``WrongAnswer`` on a wrong verdict or invalid witness.
Set-up (generation, parsing, constructions, edits, hints, tables) happens
in ``build``; the routes only solve.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import generators as gen
from reoptlab import dimacs, gadgets, graphs, hints, reductions, replanning, solvers, strips

# The package re-exports a function named ``cnf`` over its submodule.
cnf = importlib.import_module("reoptlab.cnf")

# Normal queries take 0.1 ms to about 0.5 s here; the cliff (261 s cold)
# must hit the wall-clock cap, and nothing else may.
WALL_CAP_S = 2.0
# Plan search is capped by expansions, which is deterministic.  Both
# routes use the library's default cap, which is also what the fallback
# search of ``hints.reuse_plan`` uses; the largest normal plan query
# expands about 20k states.
PLAN_MAX_STATES = strips.DEFAULT_SEARCH_BUDGET
# Random add-only bases whose own plan search passes this are redrawn, to
# bound set-up time.
BASE_PLAN_MAX_STATES = 5_000
TABLE_BOUND = 2
# Edits drawn per base graph and per base STRIPS instance.  Queries on one
# base share its hardness, so fewer per base give a seed's sample more
# independent instances, at the cost of set-up time.
EDGES_PER_GRAPH = 2
REMOVALS_PER_BASE = 2

UNANSWERED = object()


class WrongAnswer(Exception):
    """A verdict or witness failed its check: the run is invalid."""


@dataclass
class Query:
    family: str
    cold: Callable[[], Any]
    hinted: Callable[[], tuple[Any, bool]]
    check: Callable[[Any, Any], None]


@dataclass
class Workload:
    """``queries`` are timed; ``probes`` run only in traced runs (see ``build_constructions``)."""

    queries: list[Query]
    probes: list[Query]
    inputs: list[str]

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for text in self.inputs:
            digest.update(text.encode())
        return digest.hexdigest()


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _agree(family: str, cold, hinted) -> None:
    if cold is not UNANSWERED and hinted is not UNANSWERED:
        _expect((cold is None) == (hinted is None), f"{family}: cold and hinted verdicts differ")


def _oracle(formula):
    """The exhaustive verdict on ``formula``, computed at most once; None without a formula."""
    if formula is None:
        return None
    return functools.cache(lambda: solvers.solve_brute(formula) is not None)


def _oracle_check(family: str, oracle, answers) -> None:
    if oracle is None:
        return
    for answer in answers:
        if answer is not UNANSWERED:
            _expect((answer is not None) == oracle(), f"{family}: verdict differs from solve_brute")


def sat_query(family, base, changes, changed, hint, oracle_formula=None) -> Query:
    oracle = _oracle(oracle_formula)

    def hinted():
        out = hints.reuse_model(base, changes, hint)
        return out.solution, out.hint_used

    def check(cold, warm):
        for model in (cold, warm):
            if model is not UNANSWERED and model is not None:
                _expect(cnf.evaluate(changed, model), f"{family}: model does not satisfy the changed formula")
        _agree(family, cold, warm)
        _oracle_check(family, oracle, (cold, warm))

    return Query(family, lambda: solvers.solve_dpll(changed), hinted, check)


def cover_query(family, g, budget, old_cover, added_edges, oracle_formula=None) -> Query:
    oracle = _oracle(oracle_formula)

    def hinted():
        cover, hint_used, _ = graphs.warm_start_cover_stats(g, old_cover, added_edges, budget)
        return cover, hint_used

    def check(cold, warm):
        for cover in (cold, warm):
            if cover is not UNANSWERED and cover is not None:
                _expect(graphs.is_cover(g, cover) and len(cover) <= budget,
                        f"{family}: invalid cover or over budget")
        _agree(family, cold, warm)
        _oracle_check(family, oracle, (cold, warm))

    return Query(family, lambda: graphs.decide_cover(g, budget), hinted, check)


def plan_query(family, changed, old_plan, oracle_formula=None) -> Query:
    oracle = _oracle(oracle_formula)

    def hinted():
        out = hints.reuse_plan(changed, old_plan)
        return out.solution, out.hint_used

    def check(cold, warm):
        for plan in (cold, warm):
            if plan is not UNANSWERED and plan is not None:
                _expect(strips.validate_plan(changed, plan), f"{family}: plan does not validate")
        _agree(family, cold, warm)
        _oracle_check(family, oracle, (cold, warm))

    return Query(family, lambda: strips.plan_exists(changed, max_states=PLAN_MAX_STATES), hinted, check)


def table_query(family, table, changes, changed) -> Query:
    def hinted():
        stored = hints.lookup(table, changes)
        if stored is hints.MISS:
            return solvers.solve_dpll(cnf.apply_changes(table.base, changes)), False
        return stored, True

    def check(cold, warm):
        for model in (cold, warm):
            if model is not UNANSWERED and model is not None:
                _expect(cnf.evaluate(changed, model), f"{family}: model does not satisfy the changed formula")
        _agree(family, cold, warm)

    return Query(family, lambda: solvers.solve_dpll(changed), hinted, check)


def round_robin(*families: list[Query]) -> list[Query]:
    return [q for group in zip(*families) for q in group]


# --- constructions -----------------------------------------------------------

def cover_from_model(g: gadgets.Gadget, model) -> frozenset[str]:
    """The size-``budget`` cover a model of the source formula induces on its gadget."""
    cover = {gadgets.literal_node(v if v in model else -v) for v in g.source.alphabet}
    for index, cl in enumerate(gadgets.ordered_clauses(g.source), start=1):
        if len(cl) == 1:
            continue
        keep = next(pos for pos, lit in enumerate(cl, start=1) if (lit > 0) == (abs(lit) in model))
        cover.update(gadgets.clause_node(index, pos) for pos in range(1, len(cl) + 1) if pos != keep)
    cover = frozenset(cover)
    _expect(graphs.is_cover(g.graph, cover) and len(cover) <= g.budget, "model-induced cover is invalid")
    return cover


def unique_swap(rng, inputs) -> Query:
    text = gen.pure_3cnf(rng, 12, 51)
    inputs.append(text)
    source = dimacs.parse_dimacs(text)
    inst = reductions.reduce_unique_model(source)
    formula = dimacs.parse_dimacs(dimacs.serialize_dimacs(inst.formula))
    changes = cnf.ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,))
    changed = cnf.apply_changes(formula, changes)
    return sat_query("unique_swap", formula, changes, changed, reductions.unique_model(inst), source)


def gadget_edit(rng, inputs, family, num_clauses, edit) -> Query:
    """A unit-clause edit on the gadget of a pure 3-CNF over four variables.

    ``edit`` is one of
    * ``"add_hit"``: add a unit the base model satisfies, so the hint still covers;
    * ``"add_miss"``: add a unit the base model falsifies;
    * ``"add_unsat"``: add a unit that makes the formula unsatisfiable;
    * ``"remove"``: remove a unit from F plus that unit (the hint never covers).
    The hint is the cover the base model induces on the base gadget.
    """
    while True:
        text = gen.pure_3cnf(rng, 4, num_clauses)
        var = rng.randint(1, 4)
        source = dimacs.parse_dimacs(text)
        if edit == "remove":
            lit = rng.choice((var, -var))
            base = cnf.CnfFormula(source.alphabet, source.clauses | {(lit,)})
        else:
            base = source
        model = solvers.solve_dpll(base)
        if model is None:
            continue
        if edit != "remove":
            lit = var if (var in model) == (edit == "add_hit") else -var
        if edit != "add_unsat" or solvers.solve_dpll(
                cnf.CnfFormula(base.alphabet, base.clauses | {(lit,)})) is None:
            break
    inputs.append(f"{text}{'-' if edit == 'remove' else '+'} {lit} 0\n")
    g = gadgets.build_gadget(base)
    hint = cover_from_model(g, model)
    edited = gadgets.gadget_remove_unit(g, lit) if edit == "remove" else gadgets.gadget_add_unit(g, lit)
    added = edited.graph.edges - g.graph.edges
    return cover_query(family, edited.graph, edited.budget, hint, added, edited.source)


def guard_removal(rng, inputs, num_vars, num_clauses) -> Query:
    text = gen.pure_3cnf(rng, num_vars, num_clauses)
    inputs.append(text)
    source = dimacs.parse_dimacs(text)
    case = replanning.sat_to_replanning(source)
    changed = strips.instance_from_json(strips.instance_to_json(replanning.apply_initial_change(case)))
    return plan_query("guard_removal", changed, case.original_plan, source)


def build_constructions(seed: int) -> Workload:
    """Sizes and edit kinds cycle instead of being drawn, so every seed has the same mix.

    The two probes are the tracked large cases.  They run only in traced
    runs: the cliff is expected to hit the wall-clock cap, which a timed
    run must not count as a failed query.
    """
    rng = random.Random(f"constructions:{seed}")
    inputs: list[str] = []
    per_family = 66
    unique = [unique_swap(rng, inputs) for _ in range(per_family)]
    gadget = [gadget_edit(rng, inputs, "gadget_unit", 8 + i % 3, ("add_hit", "remove", "add_miss", "remove")[i % 4])
              for i in range(per_family)]
    guard = [guard_removal(rng, inputs, 4, 7 + i % 2) for i in range(per_family)]
    probes = [
        # A unit edit that makes the gadget of a 4-variable, 17-clause
        # formula unsatisfiable: the cover search takes minutes, so it is capped.
        gadget_edit(rng, inputs, "cliff", 17, "add_unsat"),
        # Guard removal at 5 variables and 8 clauses: about 20k plan states.
        guard_removal(rng, inputs, 5, 8),
    ]
    return Workload(round_robin(unique, gadget, guard), probes, inputs)


# --- random-edits ------------------------------------------------------------

def sat_addition(rng, inputs, hit: bool) -> Query:
    """One-clause addition to a planted random 3-SAT base at clause ratio 4.2.

    The hint is the planted model; the added clause is drawn among those
    it satisfies (``hit``) or falsifies, so the hit share is set by the caller.
    """
    num_vars = 30
    text, model = gen.planted_3cnf(rng, num_vars, round(4.2 * num_vars))
    base = dimacs.parse_dimacs(text)
    cl = gen.clause_against(rng, num_vars, model, hit, base.clauses)
    inputs += [text, gen.clause_line(cl)]
    changes = cnf.ChangeSet(additions=(cl,))
    return sat_query("sat_add", base, changes, cnf.apply_changes(base, changes), model)


def minimum_cover(g: graphs.Graph) -> frozenset[str]:
    cover = graphs.decide_cover(g, len(g.nodes))
    while True:
        smaller = graphs.decide_cover(g, len(cover) - 1) if cover else None
        if smaller is None:
            return cover
        cover = smaller


def edge_additions(rng, inputs, hits) -> list[Query]:
    """One-edge additions to a random graph, with the old minimum as budget.

    Each flag in ``hits`` asks for an edge the old cover covers, or else one
    between two nodes outside it (always a non-edge: they are independent).
    """
    text = gen.random_graph(rng, 50, 150)
    inputs.append(text)
    g = graphs.parse_edge_list(text)
    cover = minimum_cover(g)
    inside, outside = sorted(cover), sorted(g.nodes - cover)
    labels = sorted(g.nodes)
    out = []
    for hit in hits:
        while True:
            u, v = (rng.choice(inside), rng.choice(labels)) if hit else rng.sample(outside, 2)
            if u != v and graphs.edge(u, v) not in g.edges:
                break
        pair = graphs.edge(u, v)
        inputs.append(" ".join(pair))
        changed = graphs.graph(g.nodes, [*g.edges, pair])
        out.append(cover_query("graph_edge", changed, len(cover), cover, [pair]))
    return out


def safe_operators(inst: strips.StripsInstance) -> int:
    """Operators whose effects no negative precondition or negative goal watches."""
    watched = set(inst.goal.must_false).union(*(op.neg_pre for op in inst.operators.values()))
    return sum(1 for op in inst.operators.values() if not op.pos_post & watched)


def relaxed_reachable(inst: strips.StripsInstance) -> set[str]:
    """Conditions reachable when negative preconditions are ignored."""
    reached = set(inst.initial)
    grew = True
    while grew:
        grew = False
        for op in inst.operators.values():
            if op.pos_pre <= reached and not op.pos_post <= reached:
                reached |= op.pos_post
                grew = True
    return reached


def old_plan_holds(changed: strips.StripsInstance, plan) -> bool:
    """True iff some suffix of ``plan`` solves ``changed``: the hinted route's fast path."""
    return any(strips.validate_plan(changed, plan[start:]) for start in range(len(plan) + 1))


def solvable_addonly(rng, inputs):
    """A random add-only base that has a plan, and that plan."""
    while True:
        text = gen.addonly_strips(rng)
        inst = strips.instance_from_json(text)
        # The relaxed check only skips bases the plan search would reject anyway.
        if not 2 <= safe_operators(inst) <= 4 or not inst.goal.must_true <= relaxed_reachable(inst):
            continue
        try:
            plan = strips.plan_exists(inst, max_states=BASE_PLAN_MAX_STATES)
        except strips.SearchBudgetError:
            continue
        if plan is not None:
            inputs.append(text)
            return inst, plan


def initial_removals(rng, inputs, hits, misses) -> list[Query]:
    """One-condition removals from the initial states of solvable add-only instances.

    Initial conditions of a base are candidate edits in random order, and
    at most ``REMOVALS_PER_BASE`` of them are taken.  Bases are drawn until
    there are ``hits`` removals after which a suffix of the old plan still
    solves the instance, and ``misses`` after which none does.
    """
    out = []
    while hits or misses:
        inst, plan = solvable_addonly(rng, inputs)
        taken = 0
        for cond in rng.sample(sorted(inst.initial), len(inst.initial)):
            if taken == REMOVALS_PER_BASE:
                break
            case = replanning.ReplanningCase(inst, plan, remove_from_initial=frozenset({cond}))
            changed = replanning.apply_initial_change(case)
            if old_plan_holds(changed, plan):
                if not hits:
                    continue
                hits -= 1
            else:
                if not misses:
                    continue
                misses -= 1
            taken += 1
            inputs.append(cond)
            out.append(plan_query("strips_init", changed, plan))
    return out


def build_random_edits(seed: int, tracer) -> Workload:
    rng = random.Random(f"random-edits:{seed}")
    inputs: list[str] = []
    # The four families come in equal shares, round-robin.  Their hit
    # shares are fixed by construction at about their natural values (7/8
    # of random clauses satisfy a given model, 5/8 of added edges touch
    # the old cover, about 11/16 of initial-state removals leave a suffix
    # of the old plan valid, and 3/4 of table queries are stored), so they
    # do not vary from seed to seed.
    per_family = 192
    sat = [sat_addition(rng, inputs, i % 8 != 7) for i in range(per_family)]
    cover = [q for i in range(0, per_family, EDGES_PER_GRAPH)
             for q in edge_additions(rng, inputs, [j % 8 not in (2, 5, 7) for j in range(i, i + EDGES_PER_GRAPH)])]
    plan = initial_removals(rng, inputs, per_family * 11 // 16, per_family * 5 // 16)
    # One table per (variables, base verdict); candidate counts cycle.
    configs = [(num_vars, satisfiable) for num_vars in (8, 9, 10) for satisfiable in (True, False)]
    per_table = per_family // len(configs)
    table = [q for i, (num_vars, satisfiable) in enumerate(configs)
             for q in table_queries(rng, inputs, tracer, num_vars, (12, 14, 16)[i % 3], satisfiable,
                                    per_table * 3 // 4, per_table // 4)]
    return Workload(round_robin(sat, cover, plan, table), [], inputs)


# --- tables ------------------------------------------------------------------

def table_queries(rng, inputs, tracer, num_vars, num_candidates, satisfiable, hits, misses) -> list[Query]:
    """``hits`` in-bound subsets of one compiled table and ``misses`` out of it, in random order.

    A miss either goes over the bound or adds a clause outside the universe;
    the hinted route then answers it cold.
    """
    while True:
        text = gen.pure_3cnf(rng, num_vars, 4 * num_vars)
        base = dimacs.parse_dimacs(text)
        if (solvers.solve_dpll(base) is not None) == satisfiable:
            break
    universe = gen.candidate_universe(rng, num_vars, sorted(base.clauses, key=cnf.clause_sort_key),
                                      num_candidates)
    inputs += [text, universe]
    offered = dimacs.parse_changes(universe)
    candidates = [hints.ElementaryChange("del", cl) for cl in offered.deletions]
    candidates += [hints.ElementaryChange("add", cl) for cl in offered.additions]
    table = hints.compile_table(base, candidates, TABLE_BOUND)
    with tracer.span("hints.table_json"):
        table = hints.table_from_json(hints.table_to_json(table))

    in_bound = [combo for size in range(TABLE_BOUND + 1) for combo in combinations(range(len(candidates)), size)]
    stored = [("table_hit", hints.subset_changes(candidates, combo)) for combo in rng.sample(in_bound, hits)]
    taken = set(base.clauses) | set(offered.additions)
    missed = []
    for i in range(misses):
        if i % 2:
            combo = rng.sample(range(len(candidates)), TABLE_BOUND + 1)
            changes = hints.subset_changes(candidates, combo)
        else:
            stranger = gen.fresh_3clauses(rng, num_vars, 1, taken)[0]
            chosen = hints.subset_changes(candidates, [rng.randrange(len(candidates))])
            changes = cnf.ChangeSet(chosen.additions + (stranger,), chosen.deletions)
        missed.append(("table_miss", changes))
    selections = stored + missed
    rng.shuffle(selections)
    return [table_query(family, table, changes, cnf.apply_changes(base, changes))
            for family, changes in selections]


def build(name: str, seed: int, tracer) -> Workload:
    if name == "constructions":
        return build_constructions(seed)
    return build_random_edits(seed, tracer)


WORKLOADS = ("constructions", "random-edits")
