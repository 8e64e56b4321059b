import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reoptlab.cnf import ChangeSet, clause, cnf
from reoptlab.dimacs import (
    MAX_DIMACS_VARIABLES,
    parse_changes,
    parse_dimacs,
    serialize_changes,
    serialize_dimacs,
)
from reoptlab.enumeration import random_formula


@st.composite
def contiguous_formulas(draw):
    """Formulas over the alphabet 1..n, the only alphabets DIMACS keeps."""
    n = draw(st.integers(0, 8))
    literal = st.builds(lambda v, sign: sign * v,
                        st.integers(1, max(n, 1)), st.sampled_from((1, -1)))
    raw = draw(st.lists(st.lists(literal, max_size=4), max_size=10)) if n else []
    return cnf(raw, alphabet=range(1, n + 1))


CLAUSES = st.lists(st.integers(-6, 6).filter(bool), max_size=4).map(lambda lits: clause(*lits))


def test_serialize_golden():
    assert serialize_dimacs(cnf([(1, 2), (-1,)])) == "p cnf 2 2\n1 2 0\n-1 0\n"


def test_serialize_empty():
    assert serialize_dimacs(cnf()) == "p cnf 0 0\n"


def test_serialize_refuses_a_variable_the_reader_would_refuse():
    at_limit = cnf([(MAX_DIMACS_VARIABLES,)])
    assert serialize_dimacs(at_limit).startswith(f"p cnf {MAX_DIMACS_VARIABLES} 1\n")
    with pytest.raises(ValueError, match="exceeds the DIMACS limit"):
        serialize_dimacs(cnf([(1, 2), (-(MAX_DIMACS_VARIABLES + 1),)]))


def test_parse_basic():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -3 0\n2 0\n")
    assert f.alphabet == frozenset({1, 2, 3})
    assert f.clauses == frozenset({(1, -3), (2,)})


def test_parse_clause_spanning_lines():
    f = parse_dimacs("p cnf 2 1\n1\n2 0\n")
    assert f.clauses == frozenset({(1, 2)})


def test_parse_stops_at_percent_line():
    # SATLIB files end with a "%" line and a lone 0, which is not an empty clause.
    f = parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n")
    assert f.clauses == frozenset({(1, -2)})


def test_parse_serialize_identity_on_canonical_text():
    text = "p cnf 3 2\n1 2 0\n-1 -3 0\n"
    assert serialize_dimacs(parse_dimacs(text)) == text


def test_round_trip_random_formulas():
    rng = random.Random(3)
    for _ in range(25):
        f = random_formula(rng, rng.randint(1, 6), rng.randint(0, 6))
        assert parse_dimacs(serialize_dimacs(f)) == f


@settings(max_examples=150, deadline=None)
@given(contiguous_formulas())
def test_round_trip_generated_formulas(f):
    text = serialize_dimacs(f)
    assert parse_dimacs(text) == f
    assert serialize_dimacs(parse_dimacs(text)) == text


@pytest.mark.parametrize("text", [
    "1 2 0\n",                      # missing header
    "p cnf x 1\n1 0\n",             # malformed header
    "p dnf 1 1\n1 0\n",             # wrong format tag
    "p cnf -1 0\n",                 # negative variable count
    "p cnf 1 -1\n",                 # negative clause count
    "p cnf 1 1\n2 0\n",             # literal outside declared variables
    "p cnf 2 1\n1 2\n",             # unterminated clause
    "p cnf 2 2\n1 0\n",             # clause count mismatch
    "p cnf 999999999 0\n",          # variable count far above the bound
    f"p cnf {MAX_DIMACS_VARIABLES + 1} 0\n",  # one above it
    "p cnf 5 1\n1 0\np cnf 2 1\n",  # a second problem line
    "1 -2 0\np cnf 2 1\n",          # a clause before the header
    "1 -2\np cnf 2 1\n0\n",         # a clause split across the header
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_dimacs(text)


def test_changes_golden():
    cs = ChangeSet(additions=((1, -2),), deletions=((3,),))
    assert serialize_changes(cs) == "- 3 0\n+ 1 -2 0\n"


def test_changes_round_trip():
    cs = ChangeSet(additions=((1, -2), (2,)), deletions=((3,), ()))
    assert parse_changes(serialize_changes(cs)) == cs


@settings(max_examples=150, deadline=None)
@given(st.lists(CLAUSES, max_size=5, unique=True), st.lists(CLAUSES, max_size=5, unique=True))
def test_changes_round_trip_generated(additions, deletions):
    deletions = [cl for cl in deletions if cl not in additions]
    cs = ChangeSet(additions=tuple(additions), deletions=tuple(deletions))
    text = serialize_changes(cs)
    assert parse_changes(text) == cs
    assert serialize_changes(parse_changes(text)) == text


def test_changes_empty():
    assert serialize_changes(ChangeSet()) == ""
    assert parse_changes("") == ChangeSet()


def test_changes_allow_empty_clause():
    cs = parse_changes("+ 0\n")
    assert cs.additions == ((),)


@pytest.mark.parametrize("text", ["* 1 0\n", "+ 1\n", "+ 1 0 2 0\n"])
def test_changes_reject_malformed(text):
    with pytest.raises(ValueError):
        parse_changes(text)
