"""The same seed gives byte-identical benchmark inputs.

    python3 -m pytest reoptbench/test_generators.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import generators as gen
import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from reoptlab import dimacs  # noqa: E402
from tracing import Tracer  # noqa: E402

MAKERS = {
    "pure_3cnf": lambda rng: gen.pure_3cnf(rng, 30, 126),
    "random_graph": lambda rng: gen.random_graph(rng, 50, 150),
    "addonly_strips": lambda rng: gen.addonly_strips(rng),
    "candidate_universe": lambda rng: gen.candidate_universe(rng, 9, [(1, 2, 3), (-2, 4, 9), (3, -5, 7)], 14),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_generator_repeats_bytes_for_a_seed(name):
    make = MAKERS[name]
    assert make(random.Random(7)) == make(random.Random(7))
    assert make(random.Random(7)) != make(random.Random(8))


def test_pure_3cnf_has_fixed_width_distinct_clauses():
    formula = dimacs.parse_dimacs(gen.pure_3cnf(random.Random(3), 12, 51))
    assert len(formula.clauses) == 51
    assert all(len(cl) == 3 for cl in formula.clauses)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_repeat_bytes_for_a_seed(name):
    first = workloads.build(name, 5, Tracer())
    again = workloads.build(name, 5, Tracer())
    assert first.inputs == again.inputs
    assert first.fingerprint() != workloads.build(name, 6, Tracer()).fingerprint()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
