"""Acceptance suite: every headline property the toolkit must reproduce,
run at full grid sizes and stated tolerances, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
same checks back ``mixent validate``.
"""

import pytest

from mixent.checks import CheckResult, run_all_checks

CRITERIA = [
    ("c01_identity", "identity",
     "direct and identity deficits agree within combined quadrature errors"
     " (and 1e-8) on the 4-law x 5-sigma grid"),
    ("c02_sharpness_sandwich", "sharpness_sandwich",
     "fair-Bernoulli deficit sits between its closed-form lower/upper bounds"
     " for sigma in {0.15..0.45}, with the sigma=0.25 value inside"
     " [0.0140330, 0.4858927]"),
    ("c03_bound_chain", "bound_chain",
     "deficit <= numeric integral bound <= split-term sum <= closed form,"
     " every gap >= -1e-10"),
    ("c04_lattice_sum", "lattice_sum_bound",
     "lattice Gaussian sum stays below 1/sigma for 10 sigmas x 1000 seeded"
     " offsets; shift/reflection invariant to 1e-13"),
    ("c05_big_sigma", "big_sigma_lower",
     "deficit dominates ln2*Q(1/(2 sigma)) for sigma in {0.5,1,2,4};"
     " bound at sigma=1 equals erfc value within 1e-6"),
    ("c06_rate_match", "rate_match",
     "upper/lower closed-form ratio is exactly the rational factor"
     " (shared exponential cancels) to 1e-12 relative"),
    ("c07_landauer", "landauer_envelope",
     "bit-reset entropy drop within the closed-form envelope of ln 2 for"
     " sigma_eff in {0.05,0.1,0.25}"),
    ("c08_equality_cases", "equality_cases",
     "point-mass Z gives zero deficit within 1e-12; fair Bernoulli +"
     " uniform(1/4) gives h(X+Z)=0 and zero deficit within 1e-12"),
    ("c09_reference_deficits", "reference_deficits",
     "every two-atom deficit (Bernoulli(1/2) and Bernoulli(0.3) on the grid,"
     " fair Bernoulli on the sandwich sigmas) within its reported error of its"
     " frozen 30-digit value"),
    ("c10_tail_inequality", "tail_inequality",
     "phi(z)(1/z - 1/z^3) <= Q(z) with non-negative margin on 200 grid"
     " points z in [1.01, 10]"),
]


@pytest.fixture(scope="session")
def suite() -> dict[str, CheckResult]:
    results = run_all_checks()
    return {r.name: r for r in results}


def test_every_criterion_has_a_check(suite):
    assert {name for _, name, _ in CRITERIA} == set(suite)


@pytest.mark.parametrize(
    "label,check_name,description", CRITERIA, ids=[c[0] for c in CRITERIA]
)
def test_acceptance_criterion(suite, label, check_name, description):
    result = suite[check_name]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {label}: {description} :: {result.detail}")
    assert result.passed, f"{label} failed: {result.detail}"
