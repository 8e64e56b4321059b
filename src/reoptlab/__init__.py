"""Reoptimization laboratory.

Executable constructions that tie satisfiability, vertex cover and
add-only STRIPS planning together under instance modification, with
exhaustive oracles, hint-reuse strategies, compiled bounded-change lookup
tables and an experiment harness that verifies every construction at desk
scale.
"""
