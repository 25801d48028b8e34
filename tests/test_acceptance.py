"""Acceptance gate: the ten end-to-end claims of ``verification.ALL_CHECKS`` at full scale.

The claims and their bounds are defined once, in ``odoshift.verification``;
``odoshift verify --level full`` runs the same checks.  The gate adds only
time limits, read from the same timer ``verify`` prints.  Each test prints
one PASS line with its measured figures (visible under ``pytest -s``).
Tolerances, sizes and time limits must not be loosened.
"""

from odoshift import substitution, verification
from odoshift.verification import ALL_CHECKS, FULL

# check -> name of its gate test, in the order of ALL_CHECKS
GATE_TESTS = {
    "check_closed_form": "test_01_closed_form_agreement",
    "check_essential_periods": "test_02_essential_periods_all_powers_of_two",
    "check_four_term_rigidity": "test_03_four_term_rigidity",
    "check_fixed_point_skeleton": "test_04_fixed_point_skeleton",
    "check_equivariance": "test_05_equivariance",
    "check_fiber_structure": "test_06_fiber_structure",
    "check_letter_measure": "test_07_letter_measure",
    "check_spectrum": "test_08_spectrum",
    "check_eigenfunction": "test_09_eigenfunction_equivariance",
    "check_cf_algebra": "test_10_odometer_cf_algebra",
}

# seconds, prefix generation included
TIME_LIMITS = {"check_closed_form": 5.0, "check_essential_periods": 30.0, "check_eigenfunction": 2.0,
               "check_cf_algebra": 2.0}


def gate_test(number, check):
    def test():
        # the limits cover generating the prefix, so it may not be cached
        substitution.grigorchuk_prefix.cache_clear()
        result = verification.run_check(check, FULL)
        assert result.ok, result.detail
        limit = TIME_LIMITS.get(check.__name__)
        if limit is not None:
            assert result.seconds < limit, f"{result.seconds:.2f}s over the {limit}s limit"
        print(f"ACCEPTANCE {number:2d} PASS in {result.seconds:.2f}s: {result.name}: {result.detail}")

    test.__name__ = GATE_TESTS[check.__name__]
    return test


for _number, _check in enumerate(ALL_CHECKS, start=1):
    globals()[GATE_TESTS[_check.__name__]] = gate_test(_number, _check)


def test_verification_suite_mirrors_the_gate():
    # one gate test per check, in order, and ten distinct claim names
    assert list(GATE_TESTS) == [check.__name__ for check in ALL_CHECKS]
    assert set(TIME_LIMITS) <= set(GATE_TESTS)
    names = [result.name for result in verification.run_all("quick")]
    assert len(names) == len(set(names)) == 10
