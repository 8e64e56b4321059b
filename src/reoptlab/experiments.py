"""Cold-versus-hinted experiments over seeded random modified instances.

An ``ExperimentConfig`` checks itself when it is built, so a config that
exists can run and names its scenario.  Each trial builds an instance,
remembers a solution, applies a change, then solves the changed instance
both cold and through the hint engine.
The two verdicts must agree on every row, and a row whose hint went
unused must carry the cold route's witness and work, since the fallback
ran the same solver on the same instance; a mismatch is a hard failure
carrying a full reproducer.  Reported work units make the cost of the two
routes comparable: solver decisions plus propagations for formulas,
branch-and-bound nodes for covers, expanded states for plans.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import asdict, astuple, dataclass, fields

from .cnf import ChangeSet, apply_changes
from .dimacs import MAX_DIMACS_VARIABLES, serialize_changes, serialize_dimacs
from .enumeration import (
    random_clause,
    random_formula,
    random_graph,
    random_satisfiable_formula,
)
from .errors import InvalidConfigError, VerdictMismatchError, to_json
from .graphs import add_edges, decide_cover, decide_cover_stats, warm_start_cover_stats
from .hints import reuse_model, reuse_plan
from .reductions import reduce_unique_model, unique_model
from .replanning import apply_initial_change, sat_to_replanning
from .solvers import solve_dpll_stats
from .strips import instance_to_json, plan_exists_stats


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's seed, problem, scenario, trial count and sizes.

    Construction refuses a config no trial can run, with an
    ``InvalidConfigError`` naming the first field at fault, and resolves
    an empty scenario to the problem's first, its default; so every
    config is checked and names the scenario that runs.  Only the size
    fields the problem reads, ``SCALE_FIELDS[problem]``, are checked.
    """

    seed: int = 0
    problem: str = "sat"
    scenario: str = ""
    trials: int = 20
    variables: int = 4
    clauses: int = 4
    clause_size: int = 3
    nodes: int = 10
    edges: int = 14

    def __post_init__(self):
        if self.problem not in SCENARIOS:
            raise InvalidConfigError("problem", f"must be one of {sorted(SCENARIOS)}")
        object.__setattr__(self, "scenario", self.scenario or next(iter(SCENARIOS[self.problem])))
        if self.scenario not in SCENARIOS[self.problem]:
            raise InvalidConfigError(
                "scenario", f"must be one of {list(SCENARIOS[self.problem])} for {self.problem}"
            )
        for f in fields(self):
            if f.name in {"trials", *SCALE_FIELDS[self.problem]} and getattr(self, f.name) < 0:
                raise InvalidConfigError(f.name, "must be non-negative")
        if self.problem == "vc":
            if self.nodes < 2:
                raise InvalidConfigError("nodes", "need at least two nodes to add an edge")
            if self.edges >= self.nodes * (self.nodes - 1) // 2:
                raise InvalidConfigError("edges", "the base graph must be missing at least one edge")
            return
        if self.problem == "strips" and self.clauses < 1:
            raise InvalidConfigError("clauses", "the replanning scenario needs at least one clause")
        if self.scenario == "add-clause" and self.variables < 1:
            raise InvalidConfigError("variables", "the added clause needs at least one variable")
        check_formula_sizes(self.variables, self.clauses, self.clause_size)


def check_formula_sizes(variables: int, clauses: int, clause_size: int) -> None:
    """Refuse formula sizes that ``random_formula`` would shrink or DIMACS could not hold."""
    if clause_size < 1:
        raise InvalidConfigError("clause_size", "must be at least 1")
    if variables > MAX_DIMACS_VARIABLES:
        raise InvalidConfigError("variables", f"exceeds the DIMACS limit {MAX_DIMACS_VARIABLES}")
    pool, term = 0, 1  # distinct clauses, summed by size only until they hold ``clauses``
    for size in range(1, min(clause_size, variables) + 1):
        if pool >= clauses:
            return
        term = term * 2 * (variables - size + 1) // size  # comb(variables, size) << size
        pool += term
    if clauses > pool:
        raise InvalidConfigError("clauses", f"at most {pool} distinct clauses fit these sizes")


@dataclass(frozen=True)
class TrialRow:
    trial_id: int
    problem: str
    change_id: str
    cold_verdict: bool
    hinted_verdict: bool
    cold_work: int
    hinted_work: int
    hint_used: bool


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[TrialRow, ...] = ()

    def summary(self) -> dict:
        used = sum(1 for row in self.rows if row.hint_used)
        return {
            "seed": self.config.seed,
            "problem": self.config.problem,
            "scenario": self.config.scenario,
            "trials": len(self.rows),
            "hints_used": used,
            "hint_rate": used / len(self.rows) if self.rows else 0.0,
            "cold_work": sum(row.cold_work for row in self.rows),
            "hinted_work": sum(row.hinted_work for row in self.rows),
        }


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    rng = random.Random(config.seed)
    trial_fn = SCENARIOS[config.problem][config.scenario]
    rows = []
    for trial in range(config.trials):
        change_id, cold_solution, cold_work, hinted, reproducer = trial_fn(rng, config)
        cold_verdict, hinted_verdict = cold_solution is not None, hinted.solution is not None
        mismatch = None
        if cold_verdict != hinted_verdict:
            mismatch = f"cold={cold_verdict} hinted={hinted_verdict}"
        elif not hinted.hint_used and (cold_solution, cold_work) != (hinted.solution,
                                                                     hinted.work_units):
            mismatch = (f"the fallback differs from the cold route: witness {cold_solution!r} "
                        f"vs {hinted.solution!r}, work {cold_work} vs {hinted.work_units}")
        if mismatch:
            raise VerdictMismatchError(
                f"trial {trial} (seed {config.seed}, {config.problem}/{config.scenario}, "
                f"change {change_id}): {mismatch}\n{reproducer}"
            )
        rows.append(
            TrialRow(trial, config.problem, change_id, cold_verdict, hinted_verdict,
                     cold_work, hinted.work_units, hinted.hint_used)
        )
    return ExperimentReport(config, tuple(rows))


def _sat_add_clause_trial(rng, config):
    base, model = random_satisfiable_formula(rng, config.variables, config.clauses,
                                             config.clause_size)
    addition = random_clause(rng, config.variables, config.clause_size)
    changes = ChangeSet(additions=(addition,))
    cold_model, cold_work = solve_dpll_stats(apply_changes(base, changes))
    outcome = reuse_model(base, changes, model)
    change_id = serialize_changes(changes).strip()
    reproducer = f"base formula:\n{serialize_dimacs(base)}change: {change_id}"
    return change_id, cold_model, cold_work, outcome, reproducer


def _sat_unique_swap_trial(rng, config):
    g = random_formula(rng, config.variables, config.clauses, config.clause_size)
    inst = reduce_unique_model(g)
    hint = unique_model(inst)
    changes = ChangeSet(additions=(inst.add_clause,), deletions=(inst.del_clause,))
    cold_model, cold_work = solve_dpll_stats(apply_changes(inst.formula, changes))
    outcome = reuse_model(inst.formula, changes, hint)
    change_id = serialize_changes(changes).strip().replace("\n", " ; ")
    reproducer = f"single-model formula:\n{serialize_dimacs(inst.formula)}change: {change_id}"
    return change_id, cold_model, cold_work, outcome, reproducer


def _vc_edge_add_trial(rng, config):
    base = random_graph(rng, config.nodes, config.edges)
    # Draw the non-edge that ``rng.choice`` over all of them in combinations
    # order would, without listing the quadratically many pairs.
    labels = sorted(base.nodes)
    pick = rng.randrange(len(labels) * (len(labels) - 1) // 2 - len(base.edges))
    later = Counter(u for u, _ in base.edges)  # u's edges to labels after it
    for i, u in enumerate(labels):
        row = len(labels) - 1 - i - later[u]  # u's non-edges to labels after it
        if pick < row:
            break
        pick -= row
    new_edge = (u, [v for v in labels[i + 1:] if (u, v) not in base.edges][pick])
    old = decide_cover(base, len(base.nodes))  # exact, so shrinking it ends at a minimum
    while old and (smaller := decide_cover(base, len(old) - 1)) is not None:
        old = smaller
    grown = add_edges(base, [new_edge])
    budget = len(old)
    cold_cover, cold_work = decide_cover_stats(grown, budget)
    outcome = warm_start_cover_stats(grown, old, [new_edge], budget)
    change_id = f"+{new_edge[0]}-{new_edge[1]}"
    reproducer = f"graph edges: {sorted(grown.edges)} budget: {budget}"
    return change_id, cold_cover, cold_work, outcome, reproducer


def _strips_removal_trial(rng, config):
    f = random_formula(rng, config.variables, config.clauses, config.clause_size)
    case = sat_to_replanning(f)
    changed = apply_initial_change(case)
    cold_plan, cold_work = plan_exists_stats(changed)
    outcome = reuse_plan(changed, case.original_plan)
    change_id = "-" + " -".join(sorted(case.remove_from_initial))
    reproducer = f"changed instance:\n{instance_to_json(changed)}"
    return change_id, cold_plan, cold_work, outcome, reproducer


# Each problem's scenarios and their trial functions; the first is the default.
# A trial returns (change_id, cold solution, cold work, ReuseOutcome, reproducer).
SCENARIOS = {
    "sat": {"add-clause": _sat_add_clause_trial, "unique-swap": _sat_unique_swap_trial},
    "vc": {"edge-add": _vc_edge_add_trial},
    "strips": {"initial-removal": _strips_removal_trial},
}

# The size fields each problem's trials read: ``ExperimentConfig`` checks
# these and no others, and the CLI declares only these.
SCALE_FIELDS = {
    "sat": {"variables", "clauses", "clause_size"},
    "vc": {"nodes", "edges"},
    "strips": {"variables", "clauses", "clause_size"},
}


def report_to_csv(report: ExperimentReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(f.name for f in fields(TrialRow))
    for row in report.rows:
        writer.writerow(str(value).lower() if isinstance(value, bool) else value
                        for value in astuple(row))
    return buffer.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    obj = {
        "config": asdict(report.config),
        "summary": report.summary(),
        "rows": [asdict(row) for row in report.rows],
    }
    return to_json(obj)
