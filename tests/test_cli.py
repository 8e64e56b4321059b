import csv
import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab.cli import main
from reoptlab.cnf import cnf
from reoptlab.dimacs import parse_dimacs
from reoptlab.enumeration import random_formula
from reoptlab.gadgets import build_gadget, gadget_to_json
from reoptlab.graphs import parse_edge_list

PAPER_CNF = "p cnf 2 2\n1 2 0\n-1 0\n"


def run(args):
    return main([str(a) for a in args])


def test_generate_sat_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.cnf"
    second = tmp_path / "b.cnf"
    assert run(["generate", "--seed", 1, "--out", first, "--problem", "sat",
                "--variables", 3, "--clauses", 4]) == 0
    assert run(["generate", "--seed", 1, "--out", second, "--problem", "sat",
                "--variables", 3, "--clauses", 4]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("p cnf 3 ")


def test_generate_different_seeds_differ(tmp_path):
    first = tmp_path / "a.cnf"
    second = tmp_path / "b.cnf"
    run(["generate", "--seed", 1, "--out", first, "--problem", "sat"])
    run(["generate", "--seed", 2, "--out", second, "--problem", "sat"])
    assert first.read_bytes() != second.read_bytes()


def test_generate_count_writes_indexed_files(tmp_path):
    out = tmp_path / "batch.cnf"
    assert run(["generate", "--seed", 1, "--out", out, "--problem", "sat", "--count", 3]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["batch-000.cnf", "batch-001.cnf", "batch-002.cnf"]


def test_random_gadget_is_the_gadget_of_a_generated_formula(tmp_path):
    formula = tmp_path / "f.cnf"
    gadget_file = tmp_path / "g.json"
    assert run(["generate", "--seed", 3, "--out", formula, "--problem", "sat"]) == 0
    assert run(["reduce", "--out", gadget_file, "--kind", "vc-gadget", "--input", formula]) == 0
    expected = gadget_to_json(build_gadget(random_formula(random.Random(3), 4, 4, 3)))
    assert gadget_file.read_text() == expected


def test_reduce_vc_gadget_rejects_wide_clauses(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    assert run(["generate", "--seed", 3, "--out", formula, "--problem", "sat",
                "--clause-size", 4]) == 0
    assert max(map(len, parse_dimacs(formula.read_text()).clauses)) == 4
    capsys.readouterr()
    assert run(["reduce", "--kind", "vc-gadget", "--input", formula]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_generate_strips_and_solve(tmp_path):
    instance = tmp_path / "plan.json"
    assert run(["generate", "--seed", 4, "--out", instance, "--problem", "strips"]) == 0
    assert run(["solve", "--problem", "strips", "--input", instance]) == 0


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
    assert run(["mutate", "--out", after, "--gadget", "--input", before,
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
    assert run(["generate", "--seed", 6, "--out", edges, "--problem", "vc",
                "--nodes", 6, "--edges", 7]) == 0
    assert len(edges.read_text().splitlines()) >= 7
    capsys.readouterr()
    assert run(["solve", "--problem", "vc", "--input", edges, "--budget", 6]) == 0
    assert json.loads(capsys.readouterr().out)["within_budget"] is True


def test_mutate_gadget_with_change_file(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    gadget_file = tmp_path / "g.json"
    run(["reduce", "--out", gadget_file, "--kind", "vc-gadget", "--input", source])
    changes = tmp_path / "d.changes"
    changes.write_text("- -1 0\n+ -2 0\n")
    out = tmp_path / "mutated.json"
    assert run(["mutate", "--out", out, "--gadget", "--input", gadget_file,
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


def test_solve_sat_reports_model(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    assert run(["solve", "--problem", "sat", "--input", source]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfiable"] is True
    assert payload["model"] == [1]


def test_solve_vc_on_long_path(tmp_path, capsys):
    edges = tmp_path / "path.txt"
    edges.write_text("".join(f"p{i:04d} p{i + 1:04d}\n" for i in range(4000)))
    assert run(["solve", "--problem", "vc", "--input", edges, "--budget", 2000]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["within_budget"] and len(result["cover"]) == 2000


def test_solve_vc_needs_budget(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\n")
    assert run(["solve", "--problem", "vc", "--input", edges]) == 1
    capsys.readouterr()
    assert run(["solve", "--problem", "vc", "--input", edges, "--budget", 1]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_budget"] is True
    assert payload["cover"] == ["b"]


def test_solve_budget_exceeded_exit_code(tmp_path):
    wide = tmp_path / "wide.cnf"
    run(["generate", "--seed", 2, "--out", wide, "--problem", "sat", "--variables", 21,
         "--clauses", 4])
    assert run(["solve", "--problem", "sat", "--method", "brute", "--input", wide]) == 3


def test_mutate_applies_change_file(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    changes = tmp_path / "d.changes"
    changes.write_text("- 1 0\n+ -1 0\n")
    assert run(["mutate", "--input", source, "--changes", changes]) == 0
    assert capsys.readouterr().out == "p cnf 1 1\n-1 0\n"


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
    assert run(["mutate", "--gadget", "--input", gadget_file]) == 1
    assert "--changes" in capsys.readouterr().err


def test_verify_suite_passes_at_small_scale(capsys):
    assert run(["verify", "--suite", "hint-tables", "--samples", 5]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_counterexample_exit_code(monkeypatch, capsys):
    import reoptlab.cli as cli

    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: ["witness formula"])
    assert run(["verify", "--suite", "vc-gadget"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness formula" in out


def test_verify_forwards_the_global_seed(monkeypatch):
    import reoptlab.cli as cli

    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: seen.append((name, kw)) or [])
    assert run(["verify", "--seed", 5, "--suite", "vc-gadget"]) == 0
    assert seen == [("vc-gadget",
                     {"max_vars": None, "max_clauses": None, "samples": None, "seed": 5})]


def test_verify_usage_errors():
    assert run(["verify", "--suite", "nonsense"]) == 1
    assert run(["verify"]) == 1
    assert run([]) == 1
    assert run(["frobnicate"]) == 1


def test_experiment_writes_csv_and_json(tmp_path, capsys):
    report_csv = tmp_path / "report.csv"
    assert run(["experiment", "--seed", 7, "--out", report_csv, "--problem", "strips",
                "--trials", 5]) == 0
    with open(report_csv) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 6
    assert rows[0][0] == "trial_id"
    report_json = tmp_path / "r.json"
    assert run(["experiment", "--seed", 7, "--out", report_json, "--format", "json",
                "--problem", "strips", "--trials", 5]) == 0
    assert json.loads(report_json.read_text())["summary"]["trials"] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "report.csv"]
    assert capsys.readouterr().out == f"wrote {report_csv}\nwrote {report_json}\n"


def test_experiment_stdout_json(capsys):
    assert run(["experiment", "--format", "json", "--problem", "sat", "--trials", 2]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["summary"]["trials"] == 2
    assert "oracle_limit" not in payload["config"]
    assert captured.err.startswith("trials=2 hint_rate=")


def test_experiment_stdout_csv_is_the_report_alone(capsys):
    assert run(["experiment", "--problem", "vc", "--trials", 3]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert len(rows) == 4
    assert rows[0][0] == "trial_id"
    assert captured.err.startswith("trials=3 ")


def test_missing_input_file_is_a_usage_error(tmp_path):
    assert run(["solve", "--problem", "sat", "--input", tmp_path / "nope.cnf"]) == 1


def test_solve_sat_on_long_chain(tmp_path, capsys):
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 3000 1500\n" + "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(1500)))
    assert run(["solve", "--problem", "sat", "--input", chain]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfiable"] is True
    assert payload["work"] == 1500


def test_solve_sat_past_the_dpll_budget_exits_3(tmp_path, capsys):
    # 8,193 implications over 8,194 variables: just over 2^26 variables x clauses.
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 8194 8193\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, 8194)))
    assert run(["solve", "--problem", "sat", "--input", chain]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")


def test_solve_sat_rejects_a_negative_header_count(tmp_path, capsys):
    source = tmp_path / "neg.cnf"
    source.write_text("p cnf -1 0\n")
    assert run(["solve", "--problem", "sat", "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_sat_rejects_a_huge_header_count(tmp_path, capsys):
    source = tmp_path / "huge.cnf"
    source.write_text("p cnf 999999999 0\n")
    assert run(["solve", "--problem", "sat", "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, text", [
    (["solve", "--problem", "strips"], "[]"),
    (["solve", "--problem", "strips"], '"x"'),
    (["solve", "--problem", "strips"],
     '{"operators": 5, "conditions": [], "initial": [], "goal": {"must_true": [], "must_false": []}}'),
    (["export-dot"], '{"nodes": 5, "edges": [], "budget": 0, "roles": {}, "source": "p cnf 0 0\\n"}'),
    (["mutate", "--gadget", "--changes", os.devnull], '"x"'),
], ids=["strips-list", "strips-string", "strips-operators-int", "gadget-nodes-int",
        "mutate-gadget-string"])
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
    assert run(["generate", "--out", instance, "--problem", "strips",
                "--conditions", 3, "--operators", 2]) == 0
    payload = json.loads(instance.read_text())
    assert len(payload["conditions"]) == 3
    assert len(payload["operators"]) == 2
    assert run(["experiment", "--problem", "strips", "--conditions", 99]) == 1


@pytest.mark.parametrize("problem, unread", [
    ("sat", ["--nodes", 2]),
    ("sat", ["--edges", 999]),
    ("strips", ["--nodes", 5]),
    ("vc", ["--variables", 3]),
    ("vc", ["--clauses", 99, "--clause-size", 7]),
])
def test_experiment_rejects_scale_options_its_problem_does_not_read(capsys, problem, unread):
    assert run(["experiment", "--problem", problem, "--trials", 1, *unread]) == 1
    assert "does not read" in capsys.readouterr().err


@pytest.mark.parametrize("problem, unread", [
    ("sat", ["--nodes", 40]),
    ("sat", ["--conditions", 2]),
    ("vc", ["--variables", 9]),
    ("vc", ["--operators", 3]),
    ("strips", ["--variables", 9, "--nodes", 2]),
    ("strips", ["--clause-size", 2]),
])
def test_generate_rejects_size_options_its_problem_does_not_read(capsys, problem, unread):
    assert run(["generate", "--seed", 3, "--problem", problem]) == 0
    capsys.readouterr()
    assert run(["generate", "--seed", 3, "--problem", problem, *unread]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not read" in captured.err


@pytest.mark.parametrize("problem, sizes, option", [
    ("sat", ["--clause-size", 0], "clause_size"),
    ("sat", ["--variables", 0, "--clauses", 3], "clauses"),
    ("vc", ["--nodes", 1, "--edges", 5], "edges"),
    ("vc", ["--nodes", 3, "--edges", 50], "edges"),
    ("strips", ["--conditions", 0, "--operators", 3], "conditions"),
    ("sat", ["--variables", 1, "--clauses", 5], "clauses"),
    ("sat", ["--variables", 2, "--clauses", 5, "--clause-size", 1], "clauses"),
])
def test_generate_refuses_sizes_it_cannot_honour(capsys, problem, sizes, option):
    assert run(["generate", "--seed", 3, "--problem", problem, *sizes]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid configuration: {option}: ")
    assert "Traceback" not in captured.err


def test_generate_accepts_the_boundary_sizes(capsys):
    assert run(["generate", "--seed", 3, "--problem", "vc", "--nodes", 3, "--edges", 3]) == 0
    assert len(parse_edge_list(capsys.readouterr().out).edges) == 3
    assert run(["generate", "--problem", "sat", "--variables", 0, "--clauses", 0]) == 0
    assert capsys.readouterr().out == "p cnf 0 0\n"
    assert run(["generate", "--seed", 3, "--problem", "sat", "--variables", 1, "--clauses", 2]) == 0
    assert capsys.readouterr().out.startswith("p cnf 1 2\n")


SMALL_SIZES = st.fixed_dictionaries({
    "variables": st.integers(0, 4), "nodes": st.integers(0, 4), "conditions": st.integers(0, 4),
    "clauses": st.integers(0, 10), "edges": st.integers(0, 10), "operators": st.integers(0, 10),
    "clause-size": st.integers(0, 3),
})


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["generate", "experiment"]),
       problem=st.sampled_from(["sat", "vc", "strips"]),
       scenario=st.sampled_from(["", "unique-swap"]), sizes=SMALL_SIZES)
def test_generate_and_experiment_exit_with_a_documented_code_on_small_sizes(
        command, problem, scenario, sizes):
    reads = {"sat": ["variables", "clauses", "clause-size"], "vc": ["nodes", "edges"],
             "strips": (["conditions", "operators"] if command == "generate"
                        else ["variables", "clauses", "clause-size"])}[problem]
    args = [command, "--problem", problem, "--seed", 1]
    for name in reads:
        args += ["--" + name, sizes[name]]
    if command == "experiment":
        args += ["--trials", 1] + (["--scenario", scenario] if problem == "sat" else [])
    with tempfile.TemporaryDirectory() as scratch:
        assert run([*args, "--out", Path(scratch) / "out"]) in (0, 1, 2, 3), args


NESTED_ARRAYS = "[" * 200_000 + "]" * 200_000
NESTED_OBJECTS = '{"a":' * 200_000 + "1" + "}" * 200_000


@pytest.mark.parametrize("command, text", [
    (["export-dot"], NESTED_ARRAYS),
    (["mutate", "--gadget"], NESTED_ARRAYS),
    (["solve", "--problem", "strips"], NESTED_OBJECTS),
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
    command = ["solve", "--problem", problem, "--input", source]
    if problem == "vc":
        command += ["--budget", 1]
    assert run(command) == 0
    capsys.readouterr()
    assert run([*command, *unread]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not read" in captured.err


def test_experiment_takes_the_scale_options_its_problem_reads(capsys):
    assert run(["experiment", "--format", "json", "--problem", "vc", "--trials", 1,
                "--nodes", 6, "--edges", 5]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["nodes"], config["edges"], config["variables"]) == (6, 5, 4)


def test_oracle_limit_applies_only_to_problems_that_read_variables(capsys):
    assert run(["experiment", "--problem", "vc", "--trials", 1]) == 0
    capsys.readouterr()
    assert run(["experiment", "--problem", "sat", "--variables", 21, "--trials", 1]) == 1
    assert "exceeds the oracle limit 20" in capsys.readouterr().err


def test_top_level_takes_no_option_but_help(capsys):
    assert run(["-h"]) == 0
    options = capsys.readouterr().out.split("options:")[1]
    assert options.split() == ["-h,", "--help", "show", "this", "help", "message", "and", "exit"]


@pytest.mark.parametrize("command, unread", [
    (["solve", "--problem", "sat", "--input", "{cnf}"], ["--seed", 3]),
    (["reduce", "--kind", "nsat", "--input", "{cnf}"], ["--format", "json"]),
    (["verify", "--suite", "hint-tables", "--samples", 1], ["--out", "{out}"]),
    (["export-dot", "--input", "{gadget}"], ["--seed", 3]),
    (["experiment", "--problem", "sat", "--trials", 1], ["--oracle-limit", 20]),
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
    (["generate", "--problem", "vc"], ["--nodes", -3]),
    (["generate", "--problem", "sat"], ["--variables", -1]),
    (["experiment", "--problem", "vc", "--trials", 1], ["--edges", -1]),
    (["solve", "--problem", "vc", "--input", "{edges}"], ["--budget", -1]),
    (["verify", "--suite", "sat-reductions"], ["--samples", -5]),
    (["verify", "--suite", "sat-reductions"], ["--max-vars", -1]),
    (["verify", "--suite", "vc-gadget"], ["--max-clauses", -2]),
])
def test_a_negative_size_is_refused(tmp_path, capsys, command, option):
    edges = tmp_path / "g.edges"
    edges.write_text("a b\n")
    assert run([*(str(a).format(edges=edges) for a in command), *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option[0]}: must be non-negative" in captured.err


@pytest.mark.parametrize("suite, options, code", [
    ("hint-tables", ["--samples", 2, "--max-vars", 9], 1),
    ("hint-tables", ["--max-clauses", 1], 1),
    ("sat-reductions", ["--max-vars", 2, "--max-clauses", 2, "--samples", 2], 0),
    ("plan-reductions", ["--max-vars", 2, "--samples", 2], 0),
    ("all", ["--max-vars", 2, "--max-clauses", 2, "--samples", 2], 0),
])
def test_verify_refuses_scale_options_its_suites_do_not_read(monkeypatch, capsys,
                                                            suite, options, code):
    import reoptlab.cli as cli

    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: [])
    assert run(["verify", "--suite", suite, *options]) == code
    captured = capsys.readouterr()
    assert ("does not read it" in captured.err) == bool(code)


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
STRIPS_LIKE = st.fixed_dictionaries({
    "conditions": st.one_of(st.just(["a", "b", "c", "d"]), _NAME_LISTS),
    "operators": st.dictionaries(st.sampled_from(["o1", "o2", "o3"]),
                                 st.lists(_NAME_LISTS, min_size=3, max_size=5), max_size=3),
    "initial": _NAME_LISTS,
    "goal": st.fixed_dictionaries({"must_true": _NAME_LISTS, "must_false": _NAME_LISTS}),
})


@st.composite
def gadget_like(draw):
    """A gadget file built from a small formula, possibly with one field edited."""
    signed = st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))),
                      min_size=1, max_size=3, unique_by=lambda pair: pair[0])
    f = cnf(draw(st.lists(signed.map(lambda pairs: [v * s for v, s in pairs]), max_size=4)))
    obj = json.loads(gadget_to_json(build_gadget(f)))
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
            ["solve", "--problem", "sat", "--input", f["dimacs"]],
            ["solve", "--problem", "sat", "--method", "brute", "--input", f["dimacs"]],
            ["solve", "--problem", "vc", "--budget", budget, "--input", f["edges"]],
            ["solve", "--problem", "strips", "--input", f["json"]],
            *(["reduce", "--kind", kind, "--input", f["dimacs"]]
              for kind in ("fixed-model", "unique-model", "nsat", "vc-gadget", "replanning")),
            ["mutate", "--input", f["dimacs"], "--changes", f["changes"]],
            ["mutate", "--gadget", "--input", f["json"], "--changes", f["changes"]],
            ["mutate", "--gadget", "--input", f["json"], "--changes", f["unit"]],
            ["export-dot", "--input", f["json"]],
        ]
        for command in commands:
            assert run([*command, "--out", folder / "out"]) in (0, 1, 2, 3), command
