"""The verification suites: today's case counts, and that they catch a broken key element."""

import pytest

from brc import verify
from brc.burnside import BurnsideElement, D, key_coeff, key_coeff_mobius, key_element
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


def _negated(coeff):
    # A coefficient side that returns the negated coefficient.
    return lambda s, n: -coeff(s, n)


@pytest.mark.parametrize(
    "suite, side, wrong",
    [
        pytest.param(verify_involution, "key_element", _negate_lowest_coefficient, id="verify_involution"),
        pytest.param(verify_prop_coeff, "key_element", _negate_lowest_coefficient, id="verify_prop_coeff"),
        pytest.param(verify_prop_coeff, "key_coeff", _negated(key_coeff), id="verify_prop_coeff-key_coeff"),
        pytest.param(
            verify_prop_coeff, "key_coeff_mobius", _negated(key_coeff_mobius), id="verify_prop_coeff-key_coeff_mobius"
        ),
    ],
)
def test_suites_catch_a_wrong_key_element(monkeypatch, suite, side, wrong):
    # prop-coeff fails whichever of its three sides is wrong.
    monkeypatch.setattr(verify, side, wrong)
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


@pytest.mark.parametrize("name", ["rf1", "all"])
def test_run_suite_refuses_an_option_no_suite_takes(monkeypatch, name):
    # A misspelt option would otherwise run the default range and pass.
    ran = []
    monkeypatch.setattr(verify, "_run", lambda name, cases: ran.append(name))
    with pytest.raises(ValueError, match="unknown option 'max_irep'"):
        run_suite(name, max_irep=10**6)
    assert ran == []
