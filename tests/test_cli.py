import csv
import json

import pytest

from reoptlab.cli import main

PAPER_CNF = "p cnf 2 2\n1 2 0\n-1 0\n"


def run(args):
    return main([str(a) for a in args])


def test_generate_sat_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.cnf"
    second = tmp_path / "b.cnf"
    assert run(["--seed", 1, "--out", first, "generate", "--problem", "sat",
                "--variables", 3, "--clauses", 4]) == 0
    assert run(["--seed", 1, "--out", second, "generate", "--problem", "sat",
                "--variables", 3, "--clauses", 4]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().startswith("p cnf 3 ")


def test_generate_different_seeds_differ(tmp_path):
    first = tmp_path / "a.cnf"
    second = tmp_path / "b.cnf"
    run(["--seed", 1, "--out", first, "generate", "--problem", "sat"])
    run(["--seed", 2, "--out", second, "generate", "--problem", "sat"])
    assert first.read_bytes() != second.read_bytes()


def test_generate_count_writes_indexed_files(tmp_path):
    out = tmp_path / "batch.cnf"
    assert run(["--seed", 1, "--out", out, "generate", "--problem", "sat", "--count", 3]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["batch-000.cnf", "batch-001.cnf", "batch-002.cnf"]


def test_generate_vc_gadget_rejects_wide_clauses(tmp_path, capsys):
    code = run(["--out", tmp_path / "g.json", "generate", "--problem", "vc",
                "--gadget", "--clause-size", 4])
    assert code == 1
    assert "clause_size" in capsys.readouterr().err


def test_generate_strips_and_solve(tmp_path):
    instance = tmp_path / "plan.json"
    assert run(["--seed", 4, "--out", instance, "generate", "--problem", "strips"]) == 0
    assert run(["solve", "--problem", "strips", "--input", instance]) == 0


def test_reduce_and_export_dot(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    gadget_file = tmp_path / "gadget.json"
    assert run(["--out", gadget_file, "reduce", "--kind", "vc-gadget", "--input", source]) == 0
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
    run(["--out", before, "reduce", "--kind", "vc-gadget", "--input", source])
    assert run(["--out", after, "mutate", "--gadget", "--input", before,
                "--add-unit", -2]) == 0
    n_before = len(json.loads(before.read_text())["edges"])
    n_after = len(json.loads(after.read_text())["edges"])
    assert n_after == n_before + 1


def test_reduce_unique_model_and_nsat_fields(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    out = tmp_path / "uniq.json"
    assert run(["--out", out, "reduce", "--kind", "unique-model", "--input", source]) == 0
    payload = json.loads(out.read_text())
    assert payload["add_clause"] == [-2]
    assert payload["del_clause"] == [2]
    assert run(["--out", out, "reduce", "--kind", "nsat", "--input", source]) == 0
    assert json.loads(out.read_text())["unary_part"] == "1"


def test_generate_vc_edge_list_and_solve(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    assert run(["--seed", 6, "--out", edges, "generate", "--problem", "vc",
                "--nodes", 6, "--edges", 7]) == 0
    assert len(edges.read_text().splitlines()) >= 7
    capsys.readouterr()
    assert run(["solve", "--problem", "vc", "--input", edges, "--budget", 6]) == 0
    assert json.loads(capsys.readouterr().out)["within_budget"] is True


def test_mutate_gadget_with_change_file(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    gadget_file = tmp_path / "g.json"
    run(["--out", gadget_file, "reduce", "--kind", "vc-gadget", "--input", source])
    changes = tmp_path / "d.changes"
    changes.write_text("- -1 0\n+ -2 0\n")
    out = tmp_path / "mutated.json"
    assert run(["--out", out, "mutate", "--gadget", "--input", gadget_file,
                "--changes", changes]) == 0
    payload = json.loads(out.read_text())
    assert payload["budget"] == 4  # one removal raises the budget


def test_reduce_fixed_model_fields(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    out = tmp_path / "fixed.json"
    assert run(["--out", out, "reduce", "--kind", "fixed-model", "--input", source]) == 0
    payload = json.loads(out.read_text())
    assert payload["change_clause"] == [-3]
    assert payload["hint_model"] == [3]
    assert payload["formula"].startswith("p cnf 3 2")


def test_reduce_replanning_fields(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text(PAPER_CNF)
    out = tmp_path / "case.json"
    assert run(["--out", out, "reduce", "--kind", "replanning", "--input", source]) == 0
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
    run(["--seed", 2, "--out", wide, "generate", "--problem", "sat", "--variables", 21,
         "--clauses", 4])
    assert run(["solve", "--problem", "sat", "--method", "brute", "--input", wide]) == 3


def test_mutate_applies_change_file(tmp_path, capsys):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    changes = tmp_path / "d.changes"
    changes.write_text("- 1 0\n+ -1 0\n")
    assert run(["mutate", "--input", source, "--changes", changes]) == 0
    assert capsys.readouterr().out == "p cnf 1 1\n-1 0\n"


def test_mutate_requires_changes_in_dimacs_mode(tmp_path):
    source = tmp_path / "f.cnf"
    source.write_text("p cnf 1 1\n1 0\n")
    assert run(["mutate", "--input", source]) == 1


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
    assert run(["--seed", 5, "verify", "--suite", "vc-gadget"]) == 0
    assert seen == [("vc-gadget",
                     {"max_vars": None, "max_clauses": None, "samples": None, "seed": 5})]


def test_verify_usage_errors():
    assert run(["verify", "--suite", "nonsense"]) == 1
    assert run(["verify"]) == 1
    assert run([]) == 1
    assert run(["frobnicate"]) == 1


def test_experiment_writes_csv_and_json(tmp_path):
    base = tmp_path / "report"
    assert run(["--seed", 7, "--out", base, "experiment", "--problem", "strips",
                "--trials", 5]) == 0
    with open(base.with_suffix(".csv")) as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 6
    assert rows[0][0] == "trial_id"
    payload = json.loads(base.with_suffix(".json").read_text())
    assert payload["summary"]["trials"] == 5


def test_experiment_stdout_json(capsys):
    assert run(["--format", "json", "experiment", "--problem", "sat", "--trials", 2]) == 0
    out = capsys.readouterr().out
    body, summary_line = out.rsplit("\n", 2)[0], out.splitlines()[-1]
    assert json.loads(body)["summary"]["trials"] == 2
    assert summary_line.startswith("trials=2")


def test_missing_input_file_is_a_usage_error(tmp_path):
    assert run(["solve", "--problem", "sat", "--input", tmp_path / "nope.cnf"]) == 1


def test_solve_sat_on_long_chain(tmp_path, capsys):
    chain = tmp_path / "chain.cnf"
    chain.write_text("p cnf 3000 1500\n" + "".join(f"{2 * i + 1} {2 * i + 2} 0\n" for i in range(1500)))
    assert run(["solve", "--problem", "sat", "--input", chain]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfiable"] is True
    assert payload["work"] == 1500


def test_solve_sat_rejects_a_negative_header_count(tmp_path, capsys):
    source = tmp_path / "neg.cnf"
    source.write_text("p cnf -1 0\n")
    assert run(["solve", "--problem", "sat", "--input", source]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, text", [
    (["solve", "--problem", "strips"], "[]"),
    (["solve", "--problem", "strips"], '"x"'),
    (["solve", "--problem", "strips"],
     '{"operators": 5, "conditions": [], "initial": [], "goal": {"must_true": [], "must_false": []}}'),
    (["export-dot"], '{"nodes": 5, "edges": [], "budget": 0, "roles": {}, "source": "p cnf 0 0\\n"}'),
    (["mutate", "--gadget"], '"x"'),
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
    assert run(["--out", gadget_file, "reduce", "--kind", "vc-gadget", "--input", source]) == 0
    assert run(["export-dot", "--input", gadget_file]) == 0
    payload = json.loads(gadget_file.read_text())
    payload["budget"] += offset
    gadget_file.write_text(json.dumps(payload))
    assert run(["export-dot", "--input", gadget_file]) == 1


def test_planning_sizes_belong_to_generate_only(tmp_path):
    instance = tmp_path / "p.json"
    assert run(["--out", instance, "generate", "--problem", "strips",
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


def test_experiment_takes_the_scale_options_its_problem_reads(capsys):
    assert run(["--format", "json", "experiment", "--problem", "vc", "--trials", 1,
                "--nodes", 6, "--edges", 5]) == 0
    config = json.loads(capsys.readouterr().out.rsplit("\n", 2)[0])["config"]
    assert (config["nodes"], config["edges"], config["variables"]) == (6, 5, 4)


def test_oracle_limit_applies_only_to_problems_that_read_variables(capsys):
    assert run(["--oracle-limit", 2, "experiment", "--problem", "vc", "--trials", 1]) == 0
    capsys.readouterr()
    assert run(["--oracle-limit", 2, "experiment", "--problem", "sat", "--variables", 3]) == 1
    assert "exceeds the oracle limit 2" in capsys.readouterr().err
