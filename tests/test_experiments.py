import csv
import io
import json
import random
import time
from dataclasses import fields, replace
from itertools import combinations

import pytest

from reoptlab import experiments
from reoptlab.dimacs import MAX_DIMACS_VARIABLES
from reoptlab.enumeration import all_clauses, random_graph
from reoptlab.errors import InvalidConfigError
from reoptlab.experiments import (
    SCALE_FIELDS,
    SCENARIOS,
    ExperimentConfig,
    check_formula_sizes,
    report_to_csv,
    report_to_json,
    run_experiment,
    validate_config,
)
from reoptlab.graphs import is_cover, min_cover_brute, remove_edges, warm_start_cover_stats

CSV_HEADER = ["trial_id", "problem", "change_id", "cold_verdict", "hinted_verdict",
              "cold_work", "hinted_work", "hint_used"]


def test_runs_are_seed_deterministic():
    config = ExperimentConfig(seed=11, problem="sat", trials=10)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.rows == second.rows
    other = run_experiment(ExperimentConfig(seed=12, problem="sat", trials=10))
    assert first.rows != other.rows


def test_sat_add_clause_rows_agree_and_sometimes_reuse():
    report = run_experiment(ExperimentConfig(seed=11, problem="sat", trials=12))
    assert all(row.cold_verdict == row.hinted_verdict for row in report.rows)
    assert any(row.hint_used for row in report.rows)
    assert any(not row.hint_used for row in report.rows)


def test_unique_swap_never_reuses():
    report = run_experiment(
        ExperimentConfig(seed=5, problem="sat", scenario="unique-swap", trials=25)
    )
    assert len(report.rows) == 25
    assert all(not row.hint_used for row in report.rows)
    assert all(row.cold_verdict == row.hinted_verdict for row in report.rows)


def test_strips_removal_never_reuses():
    report = run_experiment(ExperimentConfig(seed=5, problem="strips", trials=25))
    assert len(report.rows) == 25
    assert all(not row.hint_used for row in report.rows)
    assert all(row.cold_verdict == row.hinted_verdict for row in report.rows)


def test_vc_rows_agree():
    report = run_experiment(
        ExperimentConfig(seed=3, problem="vc", trials=15, nodes=8, edges=10)
    )
    assert all(row.cold_verdict == row.hinted_verdict for row in report.rows)


def test_vc_budget_is_the_exhaustive_minimum_of_the_pre_change_graph(monkeypatch):
    seen = []

    def recording(g, old_cover, added_edges, budget):
        seen.append((remove_edges(g, added_edges), old_cover, budget))
        return warm_start_cover_stats(g, old_cover, added_edges, budget)

    monkeypatch.setattr(experiments, "warm_start_cover_stats", recording)
    for seed in range(4):
        run_experiment(ExperimentConfig(seed=seed, problem="vc"))
    assert len(seen) == 4 * ExperimentConfig().trials
    for base, old_cover, budget in seen:
        assert budget == len(old_cover) == min_cover_brute(base).size
        assert is_cover(base, old_cover)


def test_vc_trial_adds_the_non_edge_a_choice_over_all_of_them_would():
    for seed, nodes, edges in [(0, 10, 14), (1, 14, 30), (2, 30, 400), (3, 6, 14), (4, 120, 300)]:
        rng = random.Random(seed)
        change_id = SCENARIOS["vc"]["edge-add"](rng, ExperimentConfig(nodes=nodes, edges=edges))[0]
        listed = random.Random(seed)
        base = random_graph(listed, nodes, edges)
        u, v = listed.choice([p for p in combinations(sorted(base.nodes), 2)
                              if p not in base.edges])
        assert change_id == f"+{u}-{v}"
        assert rng.getstate() == listed.getstate()


def test_zero_trials_is_an_empty_report():
    report = run_experiment(ExperimentConfig(seed=1, problem="sat", trials=0))
    assert report.rows == ()
    assert report.summary()["trials"] == 0


@pytest.mark.parametrize("config, field", [
    (ExperimentConfig(problem="tsp"), "problem"),
    (ExperimentConfig(problem="sat", scenario="edge-add"), "scenario"),
    (ExperimentConfig(trials=-1), "trials"),
    (ExperimentConfig(problem="strips", clauses=0), "clauses"),
    (ExperimentConfig(problem="vc", nodes=1), "nodes"),
    (ExperimentConfig(problem="vc", nodes=4, edges=6), "edges"),
    (ExperimentConfig(problem="vc", nodes=0, edges=0), "nodes"),
    (ExperimentConfig(variables=MAX_DIMACS_VARIABLES + 1), "variables"),
    (ExperimentConfig(clause_size=0), "clause_size"),
    (ExperimentConfig(variables=0, clauses=0), "variables"),
    (ExperimentConfig(variables=1, clauses=5), "clauses"),
    (ExperimentConfig(variables=2, clauses=5, clause_size=1), "clauses"),
    (ExperimentConfig(problem="strips", variables=1, clauses=5), "clauses"),
    (ExperimentConfig(problem="vc", edges=-1), "edges"),
    (ExperimentConfig(variables=-1), "variables"),
    (ExperimentConfig(clauses=-1), "clauses"),
    (ExperimentConfig(problem="vc", nodes=-3, edges=-1), "nodes"),
])
def test_invalid_configs(config, field):
    with pytest.raises(InvalidConfigError) as err:
        validate_config(config)
    assert err.value.field == field


COMMON_FIELDS = {"seed", "problem", "scenario", "trials"}
SIZE_FIELDS = set().union(*SCALE_FIELDS.values())


def test_every_config_field_is_common_or_read_by_some_problem():
    assert {f.name for f in fields(ExperimentConfig)} == COMMON_FIELDS | SIZE_FIELDS
    assert not COMMON_FIELDS & SIZE_FIELDS


@pytest.mark.parametrize("problem", sorted(SCALE_FIELDS))
def test_sizes_a_problem_does_not_read_are_not_checked(problem):
    for name in sorted(SIZE_FIELDS - SCALE_FIELDS[problem]):
        for value in (-1, 2**21):
            validate_config(replace(ExperimentConfig(problem=problem), **{name: value}))


@pytest.mark.parametrize("variables", range(6))
@pytest.mark.parametrize("clause_size", range(1, 7))
def test_clause_pool_limit_is_the_number_of_distinct_clauses(variables, clause_size):
    most = len(all_clauses(range(1, variables + 1), 1, clause_size))
    check_formula_sizes(variables, most, clause_size)
    with pytest.raises(InvalidConfigError, match=f"clauses: at most {most} distinct clauses fit"):
        check_formula_sizes(variables, most + 1, clause_size)


def test_clause_pool_limit_stops_summing_once_it_can_answer():
    start = time.perf_counter()
    check_formula_sizes(2**20, 1, 2**20)
    check_formula_sizes(10_000, 0, 10_000)
    assert time.perf_counter() - start < 1


def test_csv_shape():
    report = run_experiment(ExperimentConfig(seed=2, problem="sat", trials=4))
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 5
    assert rows[1][0] == "0"
    assert rows[1][3] in {"true", "false"}


def test_json_embeds_seed_and_summary():
    report = run_experiment(ExperimentConfig(seed=9, problem="sat", trials=3))
    obj = json.loads(report_to_json(report))
    assert obj["config"]["seed"] == 9
    assert obj["summary"]["seed"] == 9
    assert obj["summary"]["trials"] == 3
    assert len(obj["rows"]) == 3


@pytest.mark.parametrize("problem", sorted(SCENARIOS))
def test_json_config_names_the_default_scenario_that_ran(problem):
    # A library call may leave the scenario empty; the report names the
    # one that ran, the problem's first, in its config and its summary.
    obj = json.loads(report_to_json(run_experiment(ExperimentConfig(problem=problem, trials=2))))
    assert obj["config"]["scenario"] == obj["summary"]["scenario"] == next(iter(SCENARIOS[problem]))
