import subprocess
import sys
from collections import Counter

import pytest

import mutants


def test_each_mutant_edit_applies_exactly_once():
    assert max(Counter(m.name for m in mutants.CATALOGUE).values()) == 1
    for mutant in mutants.CATALOGUE:
        assert mutant.edits and mutant.tests, mutant.name
        original = (mutants.ROOT / mutant.path).read_text()
        assert mutants.mutated_text(mutant) != original, mutant.name


def test_each_test_a_mutant_names_exists():
    # Collection only: no mutant is applied and no test runs.
    ids = sorted({test for mutant in mutants.CATALOGUE for test in mutant.tests})
    result = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                             "-p", "no:cacheprovider", *ids],
                            cwd=mutants.ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert set(ids) <= set(result.stdout.splitlines())


def test_a_text_not_found_exactly_once_is_refused():
    missing = mutants.CATALOGUE[0]._replace(edits=(("no such text", "x"),))
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutated_text(missing)
