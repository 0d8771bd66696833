"""The validate checks report a broken inequality as a failure, quoting it."""

import pytest

import mixent.checks as checks
from mixent.entropy import EntropyMethod, EntropyValue
from mixent.numerics import DEFAULT_QUADRATURE


@pytest.mark.parametrize(
    "check, delta, quoted",
    [
        # far from the identity route, which does not call deficit_direct
        (checks.check_identity, 10.0, "> combined errors"),
        # above Theorem 1 at every sigma of the grid
        (checks.check_sharpness_sandwich, 10.0, "<= upper"),
        (checks.check_bound_chain, 10.0, "delta <= lemma1 violated"),
        # negative, below ln 2 * Q(1/(2 sigma))
        (checks.check_big_sigma_lower, -1.0, ">= bound"),
    ],
    ids=["identity", "sharpness_sandwich", "bound_chain", "big_sigma_lower"],
)
def test_impossible_deficit_fails_the_check(monkeypatch, check, delta, quoted):
    impossible = EntropyValue(delta, EntropyMethod.QUADRATURE, 1e-12)
    monkeypatch.setattr(checks, "deficit_direct", lambda *args: impossible)
    result = check(DEFAULT_QUADRATURE, quick=True)
    assert result.passed is False
    assert quoted in result.detail
