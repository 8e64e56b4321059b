"""Acceptance suite: oracle-equivalence sweeps at full scale.

Each test prints one PASS/FAIL line (run pytest with -s to watch them) and
enforces its runtime ceiling.  Scales and tolerances are pinned here; all
numeric checks are exact.
"""

import csv
import random
import time

from reoptlab.cnf import cnf
from reoptlab.dimacs import parse_dimacs, serialize_dimacs
from reoptlab.enumeration import (
    random_formula,
    random_graph,
    random_hint_setup,
    random_plansat_instance,
)
from reoptlab.gadgets import build_gadget, gadget_from_json, gadget_to_json
from reoptlab.graphs import min_cover_brute, parse_edge_list, serialize_edge_list
from reoptlab.hints import compile_table, table_from_json, table_to_json
from reoptlab.strips import instance_from_json, instance_to_json
from reoptlab.verification import (
    sweep_fixed_model,
    sweep_goal_compilation,
    sweep_hint_tables,
    sweep_replanning,
    sweep_solver_agreement,
    sweep_unique_model,
    sweep_vc_gadget,
)

SEED = 20260808


def report(name, failures, elapsed, limit):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"acceptance {name}: {status} ({elapsed:.1f}s of {limit:.0f}s allowed)")
    for failure in failures[:3]:
        print(f"  counterexample: {failure}")
    assert not failures, f"{len(failures)} counterexamples, first: {failures[0]}"
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeded the {limit:.0f}s ceiling"


def test_criterion_1_worked_gadget_example():
    start = time.perf_counter()
    failures = []
    gadget = build_gadget(cnf([(1, 2), (-1,)]))
    if len(gadget.graph.nodes) != 14:
        failures.append(f"expected 14 nodes, got {len(gadget.graph.nodes)}")
    if gadget.budget != 3:
        failures.append(f"expected budget 3, got {gadget.budget}")
    size = min_cover_brute(gadget.graph).size
    if size != 3:
        failures.append(f"expected minimum cover 3, got {size}")
    report("1 worked gadget example", failures, time.perf_counter() - start, 1.0)


def test_criterion_2_gadget_equivalence_sweep():
    start = time.perf_counter()
    failures = sweep_vc_gadget(max_vars=3, max_clauses=3, samples=500, seed=SEED)
    report("2 gadget equivalence sweep", failures, time.perf_counter() - start, 300.0)


def test_criterion_3_sat_reductions():
    start = time.perf_counter()
    failures = sweep_fixed_model(3, 3) + sweep_unique_model(3, 3)
    report("3 sat reductions", failures, time.perf_counter() - start, 120.0)


def test_criterion_4_replanning_reduction():
    start = time.perf_counter()
    failures = sweep_replanning(3, 3)
    report("4 replanning reduction", failures, time.perf_counter() - start, 300.0)


def test_criterion_5_goal_compilation():
    start = time.perf_counter()
    failures = sweep_goal_compilation(samples=200, seed=SEED)
    report("5 goal compilation", failures, time.perf_counter() - start, 120.0)


def test_criterion_6_hint_tables():
    start = time.perf_counter()
    failures = sweep_hint_tables(samples=50, seed=SEED)
    report("6 hint tables", failures, time.perf_counter() - start, 60.0)


def test_criterion_7_solver_cross_check():
    start = time.perf_counter()
    failures = sweep_solver_agreement(max_vars=3, max_clauses=3, samples=1000, seed=SEED)
    report("7 solver cross-check", failures, time.perf_counter() - start, 60.0)


def test_criterion_8_hint_behavior_demonstrations(tmp_path):
    start = time.perf_counter()
    failures = []
    from reoptlab.cli import main

    for problem, scenario, tag in (
        ("strips", "initial-removal", "guard removal"),
        ("sat", "unique-swap", "single-model swap"),
    ):
        report_csv = tmp_path / f"{problem}-report.csv"
        code = main(["experiment", problem, "--seed", str(SEED), "--out", str(report_csv),
                     "--scenario", scenario, "--trials", "40"])
        if code != 0:
            failures.append(f"{tag}: experiment exited {code}")
            continue
        with open(report_csv) as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != 40:
            failures.append(f"{tag}: expected 40 rows, got {len(rows)}")
        for row in rows:
            if row["hint_used"] != "false":
                failures.append(f"{tag}: trial {row['trial_id']} reused the hint")
            if row["cold_verdict"] != row["hinted_verdict"]:
                failures.append(f"{tag}: trial {row['trial_id']} verdicts diverge")
    report("8 hint behavior demonstrations", failures, time.perf_counter() - start, 120.0)


def test_criterion_9_format_round_trips():
    start = time.perf_counter()
    failures = []
    rng = random.Random(SEED)
    for index in range(100):
        f = random_formula(rng, rng.randint(1, 8), rng.randint(0, 8))
        if parse_dimacs(serialize_dimacs(f)) != f:
            failures.append(f"DIMACS round trip broke on artifact {index}")
        gadget = build_gadget(f)
        if gadget_from_json(gadget_to_json(gadget)) != gadget:
            failures.append(f"gadget JSON round trip broke on artifact {index}")

        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        if parse_edge_list(serialize_edge_list(g)) != g:
            failures.append(f"edge-list round trip broke on artifact {index}")

        inst = random_plansat_instance(rng, rng.randint(1, 6), rng.randint(0, 6))
        if instance_from_json(instance_to_json(inst)) != inst:
            failures.append(f"instance JSON round trip broke on artifact {index}")

        sizes = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        bound = rng.randint(0, 2)
        base, candidates = random_hint_setup(rng, *sizes)
        table = compile_table(base, candidates, bound)
        if table_from_json(table_to_json(table)) != table:
            failures.append(f"hint-table round trip broke on artifact {index}")
    report("9 format round trips", failures, time.perf_counter() - start, 60.0)
