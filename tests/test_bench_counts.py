"""The benchmark's work counts at one seed, pinned.

Each workload is built at seed 101 under the benchmark's tracer, and
every timed query is answered once cold and once hinted.  The counts are
what the search cores and hint paths report, so they move only when a
search order, a work definition or a workload's inputs change; a change
that moves one updates this table and records old -> new.  They read the
same under every string hash salt tried.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "reoptbench"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 101
COUNTS = {
    "constructions": {
        ("query", "graphs.decide_cover"): {"nodes": 3164},
        ("query", "graphs.warm_start_cover"): {"hits": 17, "work": 1407},
        ("query", "hints.reuse_model"): {"hits": 0, "work": 2988},
        ("query", "hints.reuse_plan"): {"hits": 0, "work": 447},
        ("query", "solvers.solve_dpll"): {"work": 5976},
        ("query", "strips.plan_exists"): {"expanded": 894},
        ("query", "strips.validate_plan"): {"work": 1188},
        ("setup", "solvers.solve_dpll"): {"work": 393},
        ("setup", "strips.validate_plan"): {"work": 1207},
    },
    "random-edits": {
        ("query", "graphs.decide_cover"): {"nodes": 46733},
        ("query", "graphs.warm_start_cover"): {"hits": 120, "work": 16630},
        ("query", "hints.lookup"): {"misses": 48},
        ("query", "hints.reuse_model"): {"hits": 168, "work": 27039},
        ("query", "hints.reuse_plan"): {"hits": 132, "work": 8021},
        ("query", "solvers.solve_dpll"): {"work": 46420},
        ("query", "strips.plan_exists"): {"expanded": 6515},
        ("query", "strips.validate_plan"): {"work": 12763},
        ("setup", "graphs.decide_cover"): {"nodes": 38067},
        ("setup", "hints.compile_table"): {"entries": 1288},
        ("setup", "solvers.solve_dpll"): {"work": 32029},
        ("setup", "strips.plan_exists"): {"expanded": 4626},
        ("setup", "strips.validate_plan"): {"work": 22791},
    },
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_work_counts_are_pinned(name):
    tracer = Tracer()
    with tracer.installed():
        built = workloads.build(name, SEED, tracer)
        tracer.phase = "query"
        for q in built.queries:
            q.cold()
            q.hinted()
    assert {key: dict(counts) for key, counts in tracer.counts.items()} == COUNTS[name]
