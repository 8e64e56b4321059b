import warnings

import pytest

from reoptlab import verification
from reoptlab.verification import (
    SUITES,
    run_suite,
    sweep_fixed_model,
    sweep_goal_compilation,
    sweep_hint_tables,
    sweep_replanning,
    sweep_solver_agreement,
    sweep_unique_model,
    sweep_vc_gadget,
)


def test_all_sweeps_pass_at_reduced_scale():
    assert sweep_solver_agreement(2, 2, samples=50) == []
    assert sweep_fixed_model(2, 2) == []
    assert sweep_unique_model(2, 2) == []
    assert sweep_vc_gadget(2, 2, samples=20) == []
    assert sweep_replanning(2, 2) == []
    assert sweep_goal_compilation(samples=30) == []
    assert sweep_hint_tables(samples=10) == []


def test_sweeps_delete_only_present_clauses():
    # apply_changes warns when a deleted clause is absent; the sweeps never
    # delete one, so they raise no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sweep_fixed_model(2, 2) == []
        assert sweep_unique_model(2, 2) == []
        assert sweep_hint_tables(samples=10) == []


@pytest.mark.parametrize("offset", [1, -1])
def test_corrupted_gadget_budget_is_caught(monkeypatch, offset):
    real = verification.decide_cover
    monkeypatch.setattr(verification, "decide_cover",
                        lambda g, b: real(g, max(b + offset, 0)))
    failures = sweep_vc_gadget(2, 2, samples=0)
    assert failures
    assert "gadget verdict wrong" in failures[0]


def test_run_suite_dispatch():
    assert run_suite("hint-tables", samples=5) == []
    assert run_suite("sat-reductions", max_vars=2, max_clauses=2, samples=20) == []
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_run_suite_forwards_only_declared_overrides(monkeypatch):
    calls = []

    def sampled(samples=1, seed=2):
        calls.append(("sampled", {"samples": samples, "seed": seed}))
        return []

    def exhaustive(max_vars=3):
        calls.append(("exhaustive", {"max_vars": max_vars}))
        return ["counterexample"]

    monkeypatch.setattr(verification, "SUITES", {"fake": (sampled, exhaustive)})
    assert run_suite("fake", max_vars=4, samples=5, seed=6) == ["counterexample"]
    assert calls == [("sampled", {"samples": 5, "seed": 6}),
                     ("exhaustive", {"max_vars": 4})]
    calls.clear()
    assert run_suite("fake", max_clauses=7) == ["counterexample"]
    assert calls == [("sampled", {"samples": 1, "seed": 2}),
                     ("exhaustive", {"max_vars": 3})]


def test_suite_names():
    assert set(SUITES) == {"sat-reductions", "vc-gadget", "plan-reductions", "hint-tables"}
