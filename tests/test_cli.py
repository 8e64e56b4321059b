import csv
import functools
import inspect
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab import graphs, solvers
from reoptlab.cli import build_parser, main
from reoptlab.cnf import ChangeSet, cnf
from reoptlab.dimacs import parse_changes, parse_dimacs
from reoptlab.enumeration import random_formula, random_graph
from reoptlab.errors import BudgetExceededError, SearchBudgetError
from reoptlab.experiments import SCALE_FIELDS, SCENARIOS
from reoptlab.gadgets import build_gadget, gadget_to_json
from reoptlab.graphs import graph, min_cover_brute, parse_edge_list, serialize_edge_list
from reoptlab.hints import add_change, compile_table
from reoptlab.replanning import apply_initial_change, sat_to_replanning
from reoptlab.solvers import solve_brute, solve_dpll_stats
from reoptlab.strips import instance_to_json
from reoptlab.verification import SUITES

from test_strips import dead_branch_instance

PAPER_CNF = "p cnf 2 2\n1 2 0\n-1 0\n"


def run(args):
    return main([str(a) for a in args])


def run_in_subprocess(args, timeout, **env):
    """Run the command line in a fresh interpreter, killed after ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "reoptlab.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_generate_sat_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.cnf"
    second = tmp_path / "b.cnf"
    assert run(["generate", "sat", "--seed", 1, "--out", first,
                "--variables", 3, "--clauses", 4]) == 0
    assert run(["generate", "sat", "--seed", 1, "--out", second,
                "--variables", 3, "--clauses", 4]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("p cnf 3 ")


def test_generate_different_seeds_differ(tmp_path):
    first = tmp_path / "a.cnf"
    second = tmp_path / "b.cnf"
    run(["generate", "sat", "--seed", 1, "--out", first])
    run(["generate", "sat", "--seed", 2, "--out", second])
    assert first.read_bytes() != second.read_bytes()


def test_generate_count_writes_indexed_files(tmp_path):
    out = tmp_path / "batch.cnf"
    assert run(["generate", "sat", "--seed", 1, "--out", out, "--count", 3]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["batch-000.cnf", "batch-001.cnf", "batch-002.cnf"]


def test_random_gadget_is_the_gadget_of_a_generated_formula(tmp_path):
    formula = tmp_path / "f.cnf"
    gadget_file = tmp_path / "g.json"
    assert run(["generate", "sat", "--seed", 3, "--out", formula]) == 0
    assert run(["reduce", "--out", gadget_file, "--kind", "vc-gadget", "--input", formula]) == 0
    expected = gadget_to_json(build_gadget(random_formula(random.Random(3), 4, 4, 3)))
    assert gadget_file.read_text() == expected


def test_reduce_vc_gadget_rejects_wide_clauses(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    assert run(["generate", "sat", "--seed", 3, "--out", formula, "--clause-size", 4]) == 0
    assert max(map(len, parse_dimacs(formula.read_text()).clauses)) == 4
    capsys.readouterr()
    assert run(["reduce", "--kind", "vc-gadget", "--input", formula]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_generate_strips_and_solve(tmp_path):
    instance = tmp_path / "plan.json"
    assert run(["generate", "strips", "--seed", 4, "--out", instance]) == 0
    assert run(["solve", "strips", "--input", instance]) == 0


def test_generate_strips_past_the_construction_budget_exits_3(capsys):
    assert run(["generate", "strips", "--conditions", 65536, "--operators", 1]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: 65536 conditions and 1 operators exceed "
                            "the construction budget of 65536\n")


def test_reduce_and_export_dot(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    gadget_file = tmp_path / "gadget.json"
    assert run(["reduce", "--out", gadget_file, "--kind", "vc-gadget", "--input", source]) == 0
    payload = json.loads(gadget_file.read_text())
    assert payload["budget"] == 3
    assert len(payload["nodes"]) == 14

    capsys.readouterr()
    assert run(["export-dot", "--input", gadget_file]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph gadget {")
    assert dot.count(" -- ") == len(payload["edges"])


def test_export_dot_gains_one_edge_after_unit_add(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    run(["reduce", "--out", before, "--kind", "vc-gadget", "--input", source])
    changes = tmp_path / "d.changes"
    changes.write_text("+ -2 0\n")
    assert run(["mutate", "--out", after, "--input", before,
                "--changes", changes]) == 0
    n_before = len(json.loads(before.read_text())["edges"])
    n_after = len(json.loads(after.read_text())["edges"])
    assert n_after == n_before + 1


def test_reduce_unique_model_and_nsat_fields(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    out = tmp_path / "uniq.json"
    assert run(["reduce", "--out", out, "--kind", "unique-model", "--input", source]) == 0
    payload = json.loads(out.read_text())
    assert payload["add_clause"] == [-2]
    assert payload["del_clause"] == [2]
    assert run(["reduce", "--out", out, "--kind", "nsat", "--input", source]) == 0
    assert json.loads(out.read_text())["unary_part"] == "1"


def test_generate_vc_edge_list_and_solve(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    assert run(["generate", "vc", "--seed", 6, "--out", edges, "--nodes", 6, "--edges", 7]) == 0
    assert len(edges.read_text().splitlines()) >= 7
    capsys.readouterr()
    assert run(["solve", "vc", "--input", edges, "--budget", 6]) == 0
    assert json.loads(capsys.readouterr().out)["within_budget"] is True


def test_mutate_gadget_with_change_file(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    gadget_file = tmp_path / "g.json"
    run(["reduce", "--out", gadget_file, "--kind", "vc-gadget", "--input", source])
    changes = tmp_path / "d.changes"
    changes.write_text("- -1 0\n+ -2 0\n")
    out = tmp_path / "mutated.json"
    assert run(["mutate", "--out", out, "--input", gadget_file,
                "--changes", changes]) == 0
    payload = json.loads(out.read_text())
    assert payload["budget"] == 4  # one removal raises the budget


def test_reduce_fixed_model_fields(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    out = tmp_path / "fixed.json"
    assert run(["reduce", "--out", out, "--kind", "fixed-model", "--input", source]) == 0
    payload = json.loads(out.read_text())
    assert payload["change_clause"] == [-3]
    assert payload["hint_model"] == [3]
    assert payload["formula"].startswith("p cnf 3 2")


def test_reduce_replanning_fields(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    out = tmp_path / "case.json"
    assert run(["reduce", "--out", out, "--kind", "replanning", "--input", source]) == 0
    payload = json.loads(out.read_text())
    assert payload["original_plan"] == ["e"]
    assert payload["remove_from_initial"] == ["a"]
    assert "e" in payload["instance"]["operators"]


@pytest.mark.parametrize("kind, keys", [
    ("fixed-model", {"formula", "change_clause", "hint_model"}),
    ("unique-model", {"formula", "add_clause", "del_clause"}),
    ("nsat", {"unary_part", "formula"}),
    ("replanning", {"instance", "original_plan", "remove_from_initial"}),
    ("vc-gadget", {"source", "budget", "nodes", "edges"}),
])
def test_reduce_output_keys(tmp_path, capsys, kind, keys):
    # The keys are the output format: renaming a record field changes it.
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    assert run(["reduce", "--kind", kind, "--input", source]) == 0
    assert json.loads(capsys.readouterr().out).keys() == keys


def test_solve_sat_reports_model(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    assert run(["solve", "sat", "--input", source]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfiable"] is True
    assert payload["model"] == [1]


def test_solve_strips_work_skips_a_dead_subtree(tmp_path, capsys):
    # Without the dead-end cut the search expands the 2^6 states below {d, x0}.
    source = tmp_path / "plan.json"
    source.write_text(instance_to_json(dead_branch_instance(6)))
    assert run(["solve", "strips", "--input", source]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"plan": ["b0", "b1", "b2", "b3", "b4", "b5", "b6", "win"], "work": 8}


def test_solve_vc_on_long_path(tmp_path, capsys):
    edges = tmp_path / "path.txt"
    edges.write_text("".join(f"p{i:04d} p{i + 1:04d}\n" for i in range(4000)))
    assert run(["solve", "vc", "--input", edges, "--budget", 2000]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["within_budget"] and len(result["cover"]) == 2000


def test_solve_vc_needs_budget(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\n")
    assert run(["solve", "vc", "--input", edges]) == 1
    capsys.readouterr()
    assert run(["solve", "vc", "--input", edges, "--budget", 1]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_budget"] is True
    assert payload["cover"] == ["b"]


def test_solve_budget_exceeded_exit_code(tmp_path):
    wide = tmp_path / "wide.cnf"
    run(["generate", "sat", "--seed", 2, "--out", wide, "--variables", 21,
         "--clauses", 4])
    assert run(["solve", "sat", "--method", "brute", "--input", wide]) == 3


def test_solve_vc_past_the_cover_search_cap_exits_3(tmp_path, monkeypatch, capsys):
    # 200 nodes and 600 edges, about 5 KB: at budget 120, a little below
    # the minimum cover, the search runs past even the real cap of 10^6
    # nodes; the patched cap keeps the test fast.
    edges = tmp_path / "g.txt"
    edges.write_text(serialize_edge_list(random_graph(random.Random(7), 200, 600)))
    monkeypatch.setattr(graphs, "COVER_SEARCH_BUDGET", 1000)
    assert run(["solve", "vc", "--input", edges, "--budget", 120]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: more than 1000 cover search nodes explored\n"


def test_solve_vc_past_the_graph_node_limit_exits_3(tmp_path, capsys):
    edges = tmp_path / "path.txt"
    edges.write_text("".join(f"p{i:04d} p{i + 1:04d}\n"
                             for i in range(graphs.MAX_COVER_GRAPH_NODES)))
    assert run(["solve", "vc", "--input", edges, "--budget", 10]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: 8193 graph nodes exceed the cover search limit "
                            "of 8192\n")
    assert parse_edge_list(edges.read_text()).cover_index is None


def test_solve_vc_at_the_graph_node_limit_searches(tmp_path, capsys):
    edges = tmp_path / "path.txt"
    edges.write_text("".join(f"p{i:04d} p{i + 1:04d}\n"
                             for i in range(graphs.MAX_COVER_GRAPH_NODES - 1)))
    assert run(["solve", "vc", "--input", edges, "--budget", 10]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "budget": 10, "within_budget": False, "cover": None, "work": 1}


def test_solve_sat_past_the_dpll_step_cap_exits_3(tmp_path, monkeypatch, capsys):
    # Every sign pattern of three variables: DPLL refutes it in 10 steps.
    # With the real cap of 10^6 steps, a 6.5 KB random 3-CNF file of 120
    # variables and 511 clauses stops in about 2.5 s.
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 3 8\n" + "".join(
        f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2) for c in (3, -3)))
    assert solve_dpll_stats(parse_dimacs(source.read_text())) == (None, 10)
    monkeypatch.setattr(solvers, "DPLL_SEARCH_BUDGET", 9)
    assert run(["solve", "sat", "--input", source]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: more than 9 DPLL decisions and propagations made\n"


def test_mutate_applies_change_file(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    changes = tmp_path / "d.changes"
    changes.write_text("- 1 0\n+ -1 0\n")
    assert run(["mutate", "--input", source, "--changes", changes]) == 0
    assert capsys.readouterr().out == "p cnf 1 1\n-1 0\n"


def test_change_lists_skip_blank_lines_and_comments(tmp_path, capsys):
    plain, noisy = "- 1 0\n+ -1 0\n", "c swap the unit\n\n- 1 0\n   \n  c then\n+ -1 0\n\n"
    assert parse_changes(noisy) == parse_changes(plain) == ChangeSet(((-1,),), ((1,),))
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    changes = tmp_path / "d.changes"
    for text in (plain, noisy):
        changes.write_text(text)
        assert run(["mutate", "--input", source, "--changes", changes]) == 0
        assert capsys.readouterr().out == "p cnf 1 1\n-1 0\n"


@pytest.mark.parametrize("command, text", [
    (["mutate", "--changes", "{changes}"], "p cnf 2 1\n1 2 0\n"),
    (["reduce", "--kind", "fixed-model"], "p cnf 1048576 1\n1 0\n"),
], ids=["mutate-adds-a-variable", "reduce-adds-a-fresh-variable"])
def test_a_formula_past_the_dimacs_limit_is_not_written(tmp_path, capsys, command, text):
    # Either output would be headed by a variable count parse_dimacs refuses.
    source = tmp_path / "f.cnf"
    source.write_text(text)
    changes = tmp_path / "c.changes"
    changes.write_text("+ 2000000 0\n")
    out = tmp_path / "out"
    command = [str(a).format(changes=changes) for a in command]
    assert run([*command, "--input", source]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exceeds the DIMACS limit" in captured.err
    assert run([*command, "--input", source, "--out", out]) == 1
    assert not out.exists()


def test_mutate_reports_an_absent_deletion_as_one_warning_line(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 2 1\n1 2 0\n")
    changes = tmp_path / "d.changes"
    changes.write_text("- 1 0\n")
    assert run(["mutate", "--input", source, "--changes", changes]) == 0
    captured = capsys.readouterr()
    assert captured.out == "p cnf 2 1\n1 2 0\n"
    assert captured.err == "warning: deleted clause not present: (1,)\n"
    assert "cli.py" not in captured.err


def test_mutate_requires_changes_in_dimacs_mode(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    assert run(["mutate", "--input", source]) == 1
    gadget_file = tmp_path / "g.json"
    gadget_file.write_text(gadget_to_json(build_gadget(cnf([(1,)]))))
    assert run(["mutate", "--input", gadget_file]) == 1
    assert "--changes" in capsys.readouterr().err


def test_verify_suite_passes_at_small_scale(capsys):
    assert run(["verify", "hint-tables", "--samples", 5]) == 0
    assert "PASS" in capsys.readouterr().out


def fake_suite(monkeypatch, name, result=list):
    """Swap suite ``name`` for a stand-in with its signature that returns ``result()``.

    Returns the list of option dicts the stand-in is called with.
    """
    calls = []

    @functools.wraps(SUITES[name])
    def suite(**options):
        calls.append(options)
        return result()

    monkeypatch.setitem(SUITES, name, suite)
    return calls


def test_verify_counterexample_exit_code(monkeypatch, capsys):
    fake_suite(monkeypatch, "vc-gadget", lambda: ["witness formula"])
    assert run(["verify", "vc-gadget"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness formula" in out


def _raise(error):
    def exceed(monkeypatch):
        raise error("over the cap")
    return exceed, "over the cap"


def _dpll_refusal(monkeypatch):
    monkeypatch.setattr("reoptlab.cnf.DPLL_BUDGET", 5)
    solve_dpll_stats(cnf([(1,), (1, 2), (-2,)]))


# The oracle, DPLL, cover-oracle and table refusals each once raised a
# per-module class; the ids keep those names and each case runs its refusal.
@pytest.mark.parametrize("refuse, message", [
    pytest.param(*_raise(BudgetExceededError), id="BudgetExceededError"),
    pytest.param(*_raise(SearchBudgetError), id="SearchBudgetError"),
    pytest.param(lambda monkeypatch: solve_brute(cnf((), alphabet=range(1, 22))),
                 "21 variables exceed the oracle limit of 20", id="OracleLimitError"),
    pytest.param(_dpll_refusal, "2 variables times 3 clauses exceed the DPLL budget of 5",
                 id="DpllBudgetError"),
    pytest.param(lambda monkeypatch: min_cover_brute(graph([f"n{i}" for i in range(25)])),
                 "25 nodes exceed the exhaustive limit of 24", id="GraphTooLargeError"),
    pytest.param(lambda monkeypatch: compile_table(
                     cnf(), [add_change(v) for v in range(1, 18)], 17),
                 "131072 entries exceed the table budget of 65536", id="TableBudgetError"),
])
def test_every_budget_error_exits_3(monkeypatch, capsys, refuse, message):
    fake_suite(monkeypatch, "vc-gadget", lambda: refuse(monkeypatch))
    assert run(["verify", "vc-gadget"]) == 3
    assert capsys.readouterr().err == f"budget exceeded: {message}\n"


def test_verify_forwards_the_global_seed(monkeypatch):
    seen = fake_suite(monkeypatch, "vc-gadget")
    assert run(["verify", "vc-gadget", "--seed", 5]) == 0
    # Without --seed the sweeps keep their own default, the acceptance tests' seed.
    assert run(["verify", "vc-gadget"]) == 0
    assert seen == [{"seed": 5}, {}]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_help_shows_each_option_with_the_suite_default(capsys, suite):
    assert run(["verify", suite, "-h"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    options = inspect.signature(SUITES[suite]).parameters.values()
    assert options
    for option in options:
        flag = "--" + option.name.replace("_", "-")
        assert f"{flag} {option.name.upper()} (default: {option.default})" in shown, flag


def test_verify_all_gives_each_suite_the_given_options_it_declares(monkeypatch, capsys):
    seen = {name: fake_suite(monkeypatch, name) for name in SUITES}
    assert run(["verify", "all", "--samples", 3, "--max-vars", 2]) == 0
    assert seen == {"sat-reductions": [{"samples": 3, "max_vars": 2}],
                    "vc-gadget": [{"samples": 3, "max_vars": 2}],
                    "plan-reductions": [{"samples": 3, "max_vars": 2}],
                    "hint-tables": [{"samples": 3}]}
    assert capsys.readouterr().out.count("PASS") == 4


def test_verify_usage_errors():
    assert run(["verify", "nonsense"]) == 1
    assert run(["verify"]) == 1
    assert run([]) == 1
    assert run(["frobnicate"]) == 1


def test_experiment_writes_csv_and_json(tmp_path, capsys):
    report_csv = tmp_path / "report.csv"
    assert run(["experiment", "strips", "--seed", 7, "--out", report_csv, "--trials", 5]) == 0
    with open(report_csv) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 6
    assert rows[0][0] == "trial_id"
    report_json = tmp_path / "r.json"
    assert run(["experiment", "strips", "--seed", 7, "--out", report_json, "--format", "json",
                "--trials", 5]) == 0
    assert json.loads(report_json.read_text())["summary"]["trials"] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "report.csv"]
    assert capsys.readouterr().out == f"wrote {report_csv}\nwrote {report_json}\n"


def test_experiment_stdout_json(capsys):
    assert run(["experiment", "sat", "--format", "json", "--trials", 2]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["summary"]["trials"] == 2
    assert "oracle_limit" not in payload["config"]
    assert captured.err.startswith("trials=2 hint_rate=")


def test_experiment_stdout_csv_is_the_report_alone(capsys):
    assert run(["experiment", "vc", "--trials", 3]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert len(rows) == 4
    assert rows[0][0] == "trial_id"
    assert captured.err.startswith("trials=3 ")


def test_experiment_verdict_mismatch_exits_2_with_the_reproducer(monkeypatch, capsys):
    import reoptlab.experiments as experiments

    trial = experiments.SCENARIOS["vc"]["edge-add"]

    def flipped(rng, config):
        change_id, cold, cold_work, hinted, reproducer = trial(rng, config)
        wrong = hinted._replace(solution=None if cold is not None else frozenset())
        return change_id, cold, cold_work, wrong, reproducer

    monkeypatch.setitem(experiments.SCENARIOS["vc"], "edge-add", flipped)
    assert run(["experiment", "vc", "--trials", 1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verdict mismatch: trial 0 (seed 0, vc/edge-add, change +")
    assert "\ngraph edges: [(" in captured.err and "budget: " in captured.err


def test_experiment_divergent_fallback_exits_2_with_the_reproducer(monkeypatch, capsys):
    import reoptlab.experiments as experiments

    real = experiments.reuse_model

    def one_more(f, changes, hint):
        outcome = real(f, changes, hint)
        return outcome._replace(work_units=outcome.work_units + 1)

    # The unique-model swap never keeps its hint, so every row is a fallback.
    monkeypatch.setattr(experiments, "reuse_model", one_more)
    assert run(["experiment", "sat", "--scenario", "unique-swap", "--trials", 1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verdict mismatch: trial 0 (seed 0, sat/unique-swap, change ")
    assert "): the fallback differs from the cold route: witness " in captured.err
    assert "\nsingle-model formula:\np cnf " in captured.err


@pytest.mark.parametrize("problem, sizes, options", [
    ("vc", ["--nodes", 50, "--edges", 151], ["--budget", 29]),
    ("sat", ["--variables", 20, "--clauses", 20], []),
    ("strips", None, []),
])
def test_solve_output_does_not_depend_on_the_hash_salt(tmp_path, problem, sizes, options):
    # String hashing is salted per process, so no iteration over a set of
    # labels may reach a witness or a work count.
    instance = tmp_path / "instance"
    if sizes is None:
        # A guard-removal instance that has a plan, found after a real search.
        f = random_formula(random.Random(5), 6, 6)
        instance.write_text(instance_to_json(apply_initial_change(sat_to_replanning(f))))
    else:
        assert run(["generate", problem, "--seed", 5, "--out", instance, *sizes]) == 0
    outputs = set()
    for salt in ("0", "1"):
        result = run_in_subprocess(["solve", problem, "--input", instance, *options],
                                   timeout=60, PYTHONHASHSEED=salt)
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1, outputs


@pytest.mark.parametrize("kind, status, seconds", [
    ("vc-gadget", 3, 2), ("replanning", 3, 2), ("unique-model", 3, 2),
    ("fixed-model", 1, 10), ("nsat", 0, 10),
])
def test_reduce_does_not_grow_with_a_huge_header(tmp_path, kind, status, seconds):
    # parse_dimacs builds the alphabet 1..2^20 from this two-line file; a
    # construction that grows with it must be refused before it is built.
    source = tmp_path / "huge.cnf"
    source.write_text("p cnf 1048576 1\n1 0\n")
    out = tmp_path / "out"
    result = run_in_subprocess(["reduce", "--kind", kind, "--input", source, "--out", out],
                               timeout=seconds)
    assert result.returncode == status, result.stderr
    if status == 3:
        assert result.stderr.startswith("budget exceeded: ")
    if status == 1:
        assert "exceeds the DIMACS limit" in result.stderr
    assert out.exists() == (status == 0)


def test_missing_input_file_is_a_usage_error(tmp_path):
    assert run(["solve", "sat", "--input", tmp_path / "nope.cnf"]) == 1


def test_solve_sat_on_long_chain(tmp_path, capsys):
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 3000 1500\n" + "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(1500)))
    assert run(["solve", "sat", "--input", chain]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfiable"] is True
    assert payload["work"] == 1500


def test_solve_sat_past_the_dpll_budget_exits_3(tmp_path, capsys):
    # 8,193 implications over 8,194 variables: just over 2^26 variables x clauses.
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 8194 8193\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, 8194)))
    assert run(["solve", "sat", "--input", chain]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")


def test_solve_sat_rejects_a_negative_header_count(tmp_path, capsys):
    source = tmp_path / "neg.cnf"
    source.write_text("p cnf -1 0\n")
    assert run(["solve", "sat", "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_sat_rejects_a_huge_header_count(tmp_path, capsys):
    source = tmp_path / "huge.cnf"
    source.write_text("p cnf 999999999 0\n")
    assert run(["solve", "sat", "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", ["1 -2 0\np cnf 2 1\n", "1 -2\np cnf 2 1\n0\n"])
def test_solve_sat_rejects_a_clause_before_the_header(tmp_path, capsys, text):
    source = tmp_path / "late-header.cnf"
    source.write_text(text)
    assert run(["solve", "sat", "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: clause line before the 'p cnf' header")


@pytest.mark.parametrize("command, text", [
    (["solve", "strips"], "[]"),
    (["solve", "strips"], '"x"'),
    (["solve", "strips"],
     '{"operators": 5, "conditions": [], "initial": [], "goal": {"must_true": [], "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {}, "conditions": "abc", "initial": [], "goal": {"must_true": ["a"], "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {}, "conditions": [1, "a"], "initial": [], "goal": {"must_true": ["a"], "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {}, "conditions": ["a"], "initial": "a", "goal": {"must_true": ["a"], "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {}, "conditions": ["a"], "initial": [], "goal": {"must_true": "a", "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {}, "conditions": ["a"], "initial": [], "goal": {"must_true": [], "must_false": [0]}}'),
    (["solve", "strips"],
     '{"operators": {"o": ["", [], ["a"], []]}, "conditions": ["a"], "initial": [],'
     ' "goal": {"must_true": ["a"], "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {"o": "abcd"}, "conditions": ["a"], "initial": [],'
     ' "goal": {"must_true": ["a"], "must_false": []}}'),
    (["solve", "strips"],
     '{"operators": {"o": [[], [], [1], []]}, "conditions": ["a"], "initial": [],'
     ' "goal": {"must_true": ["a"], "must_false": []}}'),
    (["export-dot"], '{"nodes": 5, "edges": [], "budget": 0, "roles": {}, "source": "p cnf 0 0\\n"}'),
    (["mutate", "--changes", os.devnull], '"x"'),
], ids=["strips-list", "strips-string", "strips-operators-int", "strips-conditions-string",
        "strips-conditions-int", "strips-initial-string", "strips-must-true-string",
        "strips-must-false-int", "strips-operator-part-string", "strips-operator-string",
        "strips-operator-part-int", "gadget-nodes-int", "mutate-gadget-string"])
def test_wrong_shaped_json_is_an_input_error(tmp_path, capsys, command, text):
    source = tmp_path / "input.json"
    source.write_text(text)
    assert run([*command, "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("offset", [-1, 1])
def test_export_dot_rejects_a_hand_edited_budget(tmp_path, offset):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    gadget_file = tmp_path / "gadget.json"
    assert run(["reduce", "--out", gadget_file, "--kind", "vc-gadget", "--input", source]) == 0
    assert run(["export-dot", "--input", gadget_file]) == 0
    payload = json.loads(gadget_file.read_text())
    payload["budget"] += offset
    gadget_file.write_text(json.dumps(payload))
    assert run(["export-dot", "--input", gadget_file]) == 1


def test_planning_sizes_belong_to_generate_only(tmp_path):
    instance = tmp_path / "p.json"
    assert run(["generate", "strips", "--out", instance, "--conditions", 3, "--operators", 2]) == 0
    payload = json.loads(instance.read_text())
    assert len(payload["conditions"]) == 3
    assert len(payload["operators"]) == 2
    assert run(["experiment", "strips", "--conditions", 99]) == 1


@pytest.mark.parametrize("problem, unread", [
    ("sat", ["--nodes", 2]),
    ("sat", ["--edges", 999]),
    ("strips", ["--nodes", 5]),
    ("vc", ["--variables", 3]),
    ("vc", ["--clauses", 99, "--clause-size", 7]),
])
def test_experiment_rejects_scale_options_its_problem_does_not_read(capsys, problem, unread):
    assert run(["experiment", problem, "--trials", 1, *unread]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread[0]}" in captured.err


@pytest.mark.parametrize("problem", sorted(SCENARIOS))
def test_experiment_scenario_is_a_choice_among_the_problem_own(capsys, problem):
    assert run(["experiment", problem, "-h"]) == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert f"(default: {next(iter(SCENARIOS[problem]))})" in shown
    other = next(name for p in sorted(SCENARIOS) if p != problem for name in SCENARIOS[p])
    assert run(["experiment", problem, "--scenario", other, "--trials", 1]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --scenario: invalid choice: '{other}'" in captured.err


@pytest.mark.parametrize("problem, unread", [
    ("sat", ["--nodes", 40]),
    ("sat", ["--conditions", 2]),
    ("vc", ["--variables", 9]),
    ("vc", ["--operators", 3]),
    ("strips", ["--variables", 9, "--nodes", 2]),
    ("strips", ["--clause-size", 2]),
])
def test_generate_rejects_size_options_its_problem_does_not_read(capsys, problem, unread):
    assert run(["generate", problem, "--seed", 3]) == 0
    capsys.readouterr()
    assert run(["generate", problem, "--seed", 3, *unread]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread[0]}" in captured.err


@pytest.mark.parametrize("problem, sizes, option", [
    ("sat", ["--clause-size", 0], "clause_size"),
    ("sat", ["--variables", 0, "--clauses", 3], "clauses"),
    ("vc", ["--nodes", 1, "--edges", 5], "edges"),
    ("vc", ["--nodes", 3, "--edges", 50], "edges"),
    ("strips", ["--conditions", 0, "--operators", 3], "conditions"),
    ("sat", ["--variables", 1, "--clauses", 5], "clauses"),
    ("sat", ["--variables", 2, "--clauses", 5, "--clause-size", 1], "clauses"),
    ("sat", ["--count", 0], "count"),
    ("sat", ["--count", 2], "count"),
    ("sat", ["--variables", 2**20 + 1, "--clauses", 1], "variables"),
])
def test_generate_refuses_sizes_it_cannot_honour(capsys, problem, sizes, option):
    assert run(["generate", problem, "--seed", 3, *sizes]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid configuration: {option}: ")
    assert "Traceback" not in captured.err


def test_generate_accepts_the_boundary_sizes(capsys):
    assert run(["generate", "vc", "--seed", 3, "--nodes", 3, "--edges", 3]) == 0
    assert len(parse_edge_list(capsys.readouterr().out).edges) == 3
    assert run(["generate", "sat", "--variables", 0, "--clauses", 0]) == 0
    assert capsys.readouterr().out == "p cnf 0 0\n"
    assert run(["generate", "sat", "--seed", 3, "--variables", 1, "--clauses", 2]) == 0
    assert capsys.readouterr().out.startswith("p cnf 1 2\n")


@pytest.mark.parametrize("seed", [1, 2])
def test_generate_honours_a_clause_count_at_the_pool_size(capsys, seed):
    # 4992 is every clause of 1..3 literals over 16 variables; the draw loop
    # alone stops a clause or two short of it.
    assert run(["generate", "sat", "--seed", seed, "--variables", 16, "--clauses", 4992]) == 0
    assert capsys.readouterr().out.startswith("p cnf 16 4992\n")


SMALL_SIZES = st.fixed_dictionaries({
    "variables": st.integers(0, 4), "nodes": st.integers(0, 4), "conditions": st.integers(0, 4),
    "clauses": st.integers(0, 10), "edges": st.integers(0, 10), "operators": st.integers(0, 10),
    "clause-size": st.integers(0, 3),
})


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["generate", "experiment"]),
       problem=st.sampled_from(["sat", "vc", "strips"]),
       scenario=st.sampled_from([None, "unique-swap"]), sizes=SMALL_SIZES)
def test_generate_and_experiment_exit_with_a_documented_code_on_small_sizes(
        command, problem, scenario, sizes):
    reads = {"sat": ["variables", "clauses", "clause-size"], "vc": ["nodes", "edges"],
             "strips": (["conditions", "operators"] if command == "generate"
                        else ["variables", "clauses", "clause-size"])}[problem]
    args = [command, problem, "--seed", 1]
    for name in reads:
        args += ["--" + name, sizes[name]]
    if command == "experiment":
        args += ["--trials", 1] + (["--scenario", scenario] if problem == "sat" and scenario
                                   else [])
    with tempfile.TemporaryDirectory() as scratch:
        assert run([*args, "--out", Path(scratch) / "out"]) in (0, 1, 2, 3), args


NESTED_ARRAYS = "[" * 200_000 + "]" * 200_000
NESTED_OBJECTS = '{"a":' * 200_000 + "1" + "}" * 200_000


@pytest.mark.parametrize("command, text", [
    (["export-dot"], NESTED_ARRAYS),
    (["mutate"], NESTED_ARRAYS),
    (["solve", "strips"], NESTED_OBJECTS),
], ids=["export-dot", "mutate-gadget", "solve-strips"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command, text):
    source = tmp_path / "deep.json"
    source.write_text(text)
    changes = tmp_path / "add.changes"
    changes.write_text("+ -2 0\n")
    extra = ["--changes", changes] if command[0] == "mutate" else []
    assert run([*command, "--input", source, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


SOLVABLE = {
    "sat": PAPER_CNF,
    "vc": "a b\n",
    "strips": json.dumps({"conditions": ["a"], "operators": {}, "initial": ["a"],
                          "goal": {"must_true": ["a"], "must_false": []}}),
}


@pytest.mark.parametrize("problem, unread", [
    ("sat", ["--budget", 7]),
    ("vc", ["--method", "brute"]),
    ("vc", ["--method", "dpll"]),
    ("strips", ["--budget", 1]),
    ("strips", ["--method", "brute"]),
])
def test_solve_rejects_options_its_problem_does_not_read(tmp_path, capsys, problem, unread):
    source = tmp_path / "input"
    source.write_text(SOLVABLE[problem])
    command = ["solve", problem, "--input", source]
    if problem == "vc":
        command += ["--budget", 1]
    assert run(command) == 0
    capsys.readouterr()
    assert run([*command, *unread]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread[0]}" in captured.err


def test_experiment_takes_the_scale_options_its_problem_reads(capsys):
    assert run(["experiment", "vc", "--format", "json", "--trials", 1,
                "--nodes", 6, "--edges", 5]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["nodes"], config["edges"], config["variables"]) == (6, 5, 4)


def test_strips_experiment_reads_clause_sizes_above_three(capsys):
    outputs = []
    for size in (3, 4):
        assert run(["experiment", "strips", "--seed", 7, "--trials", 5,
                    "--variables", 5, "--clauses", 6, "--clause-size", size]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


def test_experiment_sizes_are_not_bounded_by_the_oracle_limits():
    # Trials solve only with the capped searches, so the exhaustive
    # oracles' limits (20 variables, 24 nodes) do not apply.
    assert run(["experiment", "sat", "--variables", 21, "--trials", 1]) == 0
    assert run(["experiment", "vc", "--nodes", 25, "--edges", 10, "--trials", 1]) == 0


def test_experiment_on_a_dense_24_node_graph_finishes():
    result = run_in_subprocess(["experiment", "vc", "--nodes", 24, "--edges", 275,
                                "--trials", 20], timeout=20)
    assert result.returncode == 0, result.stderr


def test_top_level_takes_no_option_but_help(capsys):
    assert run(["-h"]) == 0
    options = capsys.readouterr().out.split("options:")[1]
    assert options.split() == ["-h,", "--help", "show", "this", "help", "message", "and", "exit"]


@pytest.mark.parametrize("command, unread", [
    (["solve", "sat", "--input", "{cnf}"], ["--seed", 3]),
    (["reduce", "--kind", "nsat", "--input", "{cnf}"], ["--format", "json"]),
    (["verify", "hint-tables", "--samples", 1], ["--out", "{out}"]),
    (["export-dot", "--input", "{gadget}"], ["--seed", 3]),
    (["experiment", "sat", "--trials", 1], ["--oracle-limit", 20]),
], ids=["solve-seed", "reduce-format", "verify-out", "export-dot-seed",
        "experiment-oracle-limit"])
def test_an_option_is_refused_where_it_is_not_read(tmp_path, capsys, command, unread):
    files = {"cnf": tmp_path / "f.cnf", "gadget": tmp_path / "g.json", "out": tmp_path / "out"}
    files["cnf"].write_text(PAPER_CNF)
    files["gadget"].write_text(gadget_to_json(build_gadget(parse_dimacs(PAPER_CNF))))
    command, unread = ([str(a).format(**files) for a in args] for args in (command, unread))
    assert run(command) == 0
    capsys.readouterr()
    assert run([*command, *unread]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + unread[0] in captured.err
    assert not files["out"].exists()


@pytest.mark.parametrize("command, option", [
    (["generate", "vc"], ["--nodes", -3]),
    (["generate", "sat"], ["--variables", -1]),
    (["experiment", "vc", "--trials", 1], ["--edges", -1]),
    (["solve", "vc", "--input", "{edges}"], ["--budget", -1]),
    (["verify", "sat-reductions"], ["--samples", -5]),
    (["verify", "sat-reductions"], ["--max-vars", -1]),
    (["verify", "vc-gadget"], ["--max-clauses", -2]),
])
def test_a_negative_size_is_refused(tmp_path, capsys, command, option):
    edges = tmp_path / "g.edges"
    edges.write_text("a b\n")
    assert run([*(str(a).format(edges=edges) for a in command), *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option[0]}: must be non-negative" in captured.err


@pytest.mark.parametrize("suite, options, code", [
    ("hint-tables", ["--max-vars", 9, "--samples", 2], 1),
    ("hint-tables", ["--max-clauses", 1], 1),
    ("sat-reductions", ["--max-vars", 2, "--max-clauses", 2, "--samples", 2], 0),
    ("plan-reductions", ["--max-vars", 2, "--samples", 2], 0),
    ("all", ["--max-vars", 2, "--max-clauses", 2, "--samples", 2], 0),
])
def test_verify_refuses_scale_options_its_suites_do_not_read(monkeypatch, capsys,
                                                            suite, options, code):
    for name in SUITES:
        fake_suite(monkeypatch, name)
    assert run(["verify", suite, *options]) == code
    captured = capsys.readouterr()
    assert (f"unrecognized arguments: {options[0]}" in captured.err) == bool(code)
    assert ("PASS" in captured.out) != bool(code)


def _parses(argv) -> bool:
    try:
        build_parser().parse_args([str(a) for a in argv])
    except SystemExit:
        return False
    return True


GENERATE_SIZES = {**SCALE_FIELDS, "strips": {"conditions", "operators"}}


def test_the_parsers_declare_exactly_the_sizes_the_library_reads():
    sizes = set().union(*GENERATE_SIZES.values(), *SCALE_FIELDS.values())
    for command, reads in (("generate", GENERATE_SIZES), ("experiment", SCALE_FIELDS)):
        for problem, names in reads.items():
            for name in sorted(sizes):
                parsed = _parses([command, problem, "--" + name.replace("_", "-"), 1])
                assert parsed == (name in names), (command, problem, name)
    for suite in (*SUITES, "all"):
        declared = {p for name in SUITES if suite in (name, "all")
                    for p in inspect.signature(SUITES[name]).parameters}
        for name in ("max_vars", "max_clauses", "samples"):
            parsed = _parses(["verify", suite, "--" + name.replace("_", "-"), 1])
            assert parsed == (name in declared), (suite, name)


def _token_text(tokens, max_size=40):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


def _clause_lines(prefixes):
    literal = st.integers(-4, 4).filter(bool)
    line = st.builds(lambda prefix, lits: " ".join([prefix, *map(str, lits), "0"]).strip(),
                     st.sampled_from(prefixes), st.lists(literal, max_size=3))
    return st.lists(line, max_size=6)


_SMALL_INTS = [str(i) for i in range(-3, 4)]
# Well-formed text most of the time, so that the commands get past parsing:
# a header whose counts may be off by one, or token soup.
DIMACS_LIKE = st.one_of(
    st.builds(lambda v, lines, skew: "\n".join([f"p cnf {v} {len(lines) + skew}", *lines]) + "\n",
              st.sampled_from((0, 2, 3, 4, 4, 4)), _clause_lines([""]),
              st.sampled_from((0, 0, 0, 0, 1, -1))),
    _token_text(["p", "cnf", "dnf", "c", "%", "x", " ", " ", "\n", "\n", *_SMALL_INTS]),
)
CHANGES_LIKE = st.one_of(
    _clause_lines(["+", "-"]).map(lambda lines: "".join(line + "\n" for line in lines)),
    _token_text(["+", "-", "c", " ", " ", "\n", "\n", "0", *_SMALL_INTS]),
)
EDGES_LIKE = _token_text(["a", "b", "c", "#", " ", " ", "\n", "\n"])
_NAMES = st.sampled_from(["a", "b", "c", "d"])
_NAME_LISTS = st.lists(_NAMES, max_size=3)
SMALL_FORMULAS = st.lists(
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))),
             min_size=1, max_size=3, unique_by=lambda pair: pair[0])
    .map(lambda pairs: [v * s for v, s in pairs]),
    max_size=4,
).map(cnf)


@st.composite
def strips_like(draw):
    """The guard-removed replanning instance of a small formula with clauses, so
    its plan search runs, possibly with one condition renamed to an integer
    throughout or one list given as a bare string."""
    f = draw(SMALL_FORMULAS.filter(lambda f: f.clauses))
    obj = json.loads(instance_to_json(apply_initial_change(sat_to_replanning(f))))
    edit = draw(st.sampled_from(["integer-name", "bare-string", "none"]))
    if edit == "integer-name":
        name = draw(st.sampled_from(obj["conditions"]))
        obj = json.loads(json.dumps(obj).replace(json.dumps(name), "1"))
    elif edit == "bare-string":
        key = draw(st.sampled_from(["conditions", "initial"]))
        obj[key] = "".join(obj[key])
    return obj


STRIPS_LIKE = st.one_of(
    st.fixed_dictionaries({
        "conditions": st.one_of(st.just(["a", "b", "c", "d"]), _NAME_LISTS),
        "operators": st.dictionaries(st.sampled_from(["o1", "o2", "o3"]),
                                     st.lists(_NAME_LISTS, min_size=3, max_size=5), max_size=3),
        "initial": _NAME_LISTS,
        "goal": st.fixed_dictionaries({"must_true": _NAME_LISTS, "must_false": _NAME_LISTS}),
    }),
    strips_like(),
)


@st.composite
def gadget_like(draw):
    """A gadget file built from a small formula, possibly with one field edited."""
    obj = json.loads(gadget_to_json(build_gadget(draw(SMALL_FORMULAS))))
    edit = draw(st.sampled_from(["none", "budget", "drop-edge", "drop-node", "source"]))
    if edit == "budget":
        obj["budget"] += draw(st.sampled_from((-1, 1)))
    elif edit == "drop-edge" and obj["edges"]:
        obj["edges"].pop(draw(st.integers(0, len(obj["edges"]) - 1)))
    elif edit == "drop-node" and obj["nodes"]:
        obj["nodes"].pop(draw(st.integers(0, len(obj["nodes"]) - 1)))
    elif edit == "source":
        obj["source"] = draw(DIMACS_LIKE)
    return obj


_JSON_KEYS = ["nodes", "edges", "budget", "source", "operators", "conditions", "initial",
              "goal", "must_true", "must_false", "a"]
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from(["a", "b", "x1", "-x1", "c1_1", "p cnf 0 0\n", "p cnf 1 1\n1 0\n"]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=5)),
    max_leaves=20,
)
JSON_LIKE = st.one_of(
    STRIPS_LIKE.map(json.dumps),
    gadget_like().map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    _token_text(["{", "}", "[", "]", ",", ":", '"nodes"', '"source"', '"a"', "null", "1", " "]),
)


@settings(max_examples=120, deadline=None)
@given(dimacs=DIMACS_LIKE, changes=CHANGES_LIKE, edges=EDGES_LIKE, obj=JSON_LIKE,
       budget=st.integers(-1, 3), unit=st.integers(-3, 3).filter(bool))
def test_every_subcommand_exits_with_a_documented_code_on_fuzzed_files(
        dimacs, changes, edges, obj, budget, unit):
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        files = {"dimacs": dimacs, "changes": changes, "edges": edges, "json": obj,
                 "unit": f"+ {unit} 0\n"}
        for name, text in files.items():
            (folder / name).write_text(text)
        f = {name: folder / name for name in files}
        commands = [
            ["solve", "sat", "--input", f["dimacs"]],
            ["solve", "sat", "--method", "brute", "--input", f["dimacs"]],
            ["solve", "vc", "--budget", budget, "--input", f["edges"]],
            ["solve", "strips", "--input", f["json"]],
            *(["reduce", "--kind", kind, "--input", f["dimacs"]]
              for kind in ("fixed-model", "unique-model", "nsat", "vc-gadget", "replanning")),
            ["mutate", "--input", f["dimacs"], "--changes", f["changes"]],
            ["mutate", "--input", f["json"], "--changes", f["changes"]],
            ["mutate", "--input", f["json"], "--changes", f["unit"]],
            ["export-dot", "--input", f["json"]],
        ]
        for command in commands:
            assert run([*command, "--out", folder / "out"]) in (0, 1, 2, 3), command
