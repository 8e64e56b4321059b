import csv
import io
import json

import pytest

from reoptlab.experiments import (
    ExperimentConfig,
    InvalidConfigError,
    report_to_csv,
    report_to_json,
    run_experiment,
    validate_config,
)

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


def test_zero_trials_is_an_empty_report():
    report = run_experiment(ExperimentConfig(seed=1, problem="sat", trials=0))
    assert report.rows == []
    assert report.summary()["trials"] == 0


@pytest.mark.parametrize("config, field", [
    (ExperimentConfig(problem="tsp"), "problem"),
    (ExperimentConfig(problem="sat", scenario="edge-add"), "scenario"),
    (ExperimentConfig(trials=-1), "trials"),
    (ExperimentConfig(problem="strips", clauses=0), "clauses"),
    (ExperimentConfig(problem="vc", nodes=1), "nodes"),
    (ExperimentConfig(problem="vc", nodes=4, edges=6), "edges"),
    (ExperimentConfig(problem="vc", nodes=25, edges=10), "nodes"),
    (ExperimentConfig(variables=30), "variables"),
    (ExperimentConfig(clause_size=0), "clause_size"),
    (ExperimentConfig(variables=0, clauses=0), "variables"),
    (ExperimentConfig(variables=1, clauses=5), "clauses"),
    (ExperimentConfig(variables=2, clauses=5, clause_size=1), "clauses"),
    (ExperimentConfig(problem="strips", variables=1, clauses=5), "clauses"),
])
def test_invalid_configs(config, field):
    with pytest.raises(InvalidConfigError) as err:
        validate_config(config)
    assert err.value.field == field


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
