"""Cold-versus-hinted experiments over seeded random modified instances.

Each trial builds an instance, remembers a solution, applies a change,
then solves the changed instance both cold and through the hint engine.
The two verdicts must agree on every row; a mismatch is a hard failure
carrying a full reproducer.  Reported work units make the cost of the two
routes comparable: solver decisions plus propagations for formulas,
branch-and-bound nodes for covers, expanded states for plans.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, dataclass, field

from .cnf import ChangeSet, apply_changes
from .dimacs import serialize_changes, serialize_dimacs
from .enumeration import (
    clause_pool_size,
    random_clause,
    random_formula,
    random_graph,
    random_satisfiable_formula,
)
from .graphs import (
    DEFAULT_COVER_ORACLE_LIMIT,
    add_edges,
    decide_cover_stats,
    min_cover_brute,
    warm_start_cover_stats,
)
from .hints import ReuseOutcome, reuse_model, reuse_plan
from .reductions import reduce_unique_model, unique_model
from .replanning import apply_initial_change, sat_to_replanning
from .solvers import DEFAULT_ORACLE_LIMIT, solve_dpll_stats
from .strips import instance_to_json, plan_exists_stats

class InvalidConfigError(ValueError):
    """A configuration field is out of range; ``field`` names it."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class VerdictMismatchError(RuntimeError):
    """Cold and hinted solving disagreed; the message is a reproducer."""


@dataclass
class ExperimentConfig:
    seed: int = 0
    problem: str = "sat"
    scenario: str = ""
    trials: int = 20
    variables: int = 4
    clauses: int = 4
    clause_size: int = 3
    nodes: int = 10
    edges: int = 14

    def resolved_scenario(self) -> str:
        return self.scenario or next(iter(SCENARIOS[self.problem]))


def validate_config(config: ExperimentConfig) -> None:
    if config.problem not in SCENARIOS:
        raise InvalidConfigError("problem", f"must be one of {sorted(SCENARIOS)}")
    scenario = config.resolved_scenario()
    if scenario not in SCENARIOS[config.problem]:
        raise InvalidConfigError(
            "scenario", f"must be one of {list(SCENARIOS[config.problem])} for {config.problem}"
        )
    if config.trials < 0:
        raise InvalidConfigError("trials", "must be non-negative")
    if config.variables < 0:
        raise InvalidConfigError("variables", "must be non-negative")
    if config.clauses < 0:
        raise InvalidConfigError("clauses", "must be non-negative")
    if not 1 <= config.clause_size:
        raise InvalidConfigError("clause_size", "must be at least 1")
    if "variables" in SCALE_FIELDS[config.problem] and config.variables > DEFAULT_ORACLE_LIMIT:
        raise InvalidConfigError("variables", f"exceeds the oracle limit {DEFAULT_ORACLE_LIMIT}")
    if config.problem == "strips" and config.clauses < 1:
        raise InvalidConfigError("clauses", "the replanning scenario needs at least one clause")
    if scenario == "add-clause" and config.variables < 1:
        raise InvalidConfigError("variables", "the added clause needs at least one variable")
    if "clauses" in SCALE_FIELDS[config.problem]:
        size = config.clause_size if config.problem == "sat" else min(config.clause_size, 3)
        most = clause_pool_size(config.variables, size)
        if config.clauses > most:
            raise InvalidConfigError("clauses", f"at most {most} distinct clauses fit these sizes")
    if config.problem == "vc":
        if config.nodes < 2:
            raise InvalidConfigError("nodes", "need at least two nodes to add an edge")
        max_edges = config.nodes * (config.nodes - 1) // 2
        if config.edges >= max_edges:
            raise InvalidConfigError("edges", "the base graph must be missing at least one edge")
        if config.nodes > DEFAULT_COVER_ORACLE_LIMIT:
            raise InvalidConfigError(
                "nodes", f"exceeds the cover oracle limit {DEFAULT_COVER_ORACLE_LIMIT}")


@dataclass
class TrialRow:
    trial_id: int
    problem: str
    change_id: str
    cold_verdict: bool
    hinted_verdict: bool
    cold_work: int
    hinted_work: int
    hint_used: bool


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[TrialRow] = field(default_factory=list)

    def summary(self) -> dict:
        used = sum(1 for row in self.rows if row.hint_used)
        return {
            "seed": self.config.seed,
            "problem": self.config.problem,
            "scenario": self.config.resolved_scenario(),
            "trials": len(self.rows),
            "hints_used": used,
            "hint_rate": used / len(self.rows) if self.rows else 0.0,
            "cold_work": sum(row.cold_work for row in self.rows),
            "hinted_work": sum(row.hinted_work for row in self.rows),
        }


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    validate_config(config)
    scenario = config.resolved_scenario()
    rng = random.Random(config.seed)
    trial_fn = SCENARIOS[config.problem][scenario]
    report = ExperimentReport(config)
    for trial in range(config.trials):
        change_id, cold_solution, cold_work, hinted, reproducer = trial_fn(rng, config)
        cold_verdict, hinted_verdict = cold_solution is not None, hinted.solution is not None
        if cold_verdict != hinted_verdict:
            raise VerdictMismatchError(
                f"trial {trial} (seed {config.seed}, {config.problem}/{scenario}, "
                f"change {change_id}): cold={cold_verdict} hinted={hinted_verdict}\n{reproducer}"
            )
        report.rows.append(
            TrialRow(trial, config.problem, change_id, cold_verdict, hinted_verdict,
                     cold_work, hinted.work_units, hinted.hint_used)
        )
    return report


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
    non_edges = sorted(
        (u, v)
        for i, u in enumerate(sorted(base.nodes))
        for v in sorted(base.nodes)[i + 1:]
        if (u, v) not in base.edges
    )
    new_edge = rng.choice(non_edges)
    old = min_cover_brute(base)
    grown = add_edges(base, [new_edge])
    budget = old.size
    cold_cover, cold_work = decide_cover_stats(grown, budget)
    outcome = ReuseOutcome(*warm_start_cover_stats(grown, old.cover, [new_edge], budget))
    change_id = f"+{new_edge[0]}-{new_edge[1]}"
    reproducer = f"graph edges: {sorted(grown.edges)} budget: {budget}"
    return change_id, cold_cover, cold_work, outcome, reproducer


def _strips_removal_trial(rng, config):
    f = random_formula(rng, config.variables, config.clauses, min(config.clause_size, 3))
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

# The scale fields each problem's trials read.
SCALE_FIELDS = {
    "sat": {"variables", "clauses", "clause_size"},
    "vc": {"nodes", "edges"},
    "strips": {"variables", "clauses", "clause_size"},
}


def report_to_csv(report: ExperimentReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trial_id", "problem", "change_id", "cold_verdict", "hinted_verdict",
                     "cold_work", "hinted_work", "hint_used"])
    for row in report.rows:
        writer.writerow([
            row.trial_id, row.problem, row.change_id,
            str(row.cold_verdict).lower(), str(row.hinted_verdict).lower(),
            row.cold_work, row.hinted_work, str(row.hint_used).lower(),
        ])
    return buffer.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    obj = {
        "config": asdict(report.config),
        "summary": report.summary(),
        "rows": [asdict(row) for row in report.rows],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
