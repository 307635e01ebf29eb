"""The verification suites: today's case counts, and that they catch a broken key element."""

import pytest

from brc import verify
from brc.burnside import BurnsideElement, D, key_element
from brc.verify import run_suite, verify_involution, verify_prop_coeff


def test_run_suite_all_names_counts_and_no_failure():
    results = run_suite("all", seed=0)
    assert [(r.name, r.cases, r.first_failure) for r in results] == [
        ("table", 676, None),
        ("recurrence", 676, None),
        ("involution", 1298, None),
        ("prop-coeff", 500, None),
        ("rf1", 208, None),
    ]


def _negate_lowest_coefficient(s):
    # The real fold with the coefficient of its lowest dihedral class negated.
    k = key_element(s)
    g = D(k.dihedral_indices()[0])
    return BurnsideElement({**dict(k.terms()), g: -k.coeff(g)})


@pytest.mark.parametrize("suite", [verify_involution, verify_prop_coeff])
def test_suites_catch_a_wrong_key_element(monkeypatch, suite):
    monkeypatch.setattr(verify, "key_element", _negate_lowest_coefficient)
    result = suite()
    assert not result.ok
    assert result.failures > 0
    assert result.first_failure is not None and result.first_failure.startswith("S=")


def test_each_cap_admits_its_own_value(monkeypatch):
    # The caps are inclusive: at the cap every suite reaches its cases.
    # _run is stubbed, so no case runs.
    ran = []
    monkeypatch.setattr(verify, "_run", lambda name, cases: ran.append(name))
    run_suite("all", max_index=verify.MAX_TABLE_INDEX, trials=verify.MAX_TRIALS, max_irrep=verify.MAX_IRREP)
    assert ran == ["table", "recurrence", "involution", "prop-coeff", "rf1"]
