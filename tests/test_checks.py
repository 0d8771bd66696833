"""The validate checks report a broken inequality as a failure, quoting it,
and the fair-Bernoulli bound checks share one deficit per sigma."""

import pytest

import mixent.bounds as bounds
import mixent.checks as checks
from mixent.distributions import DiscreteLattice
from mixent.entropy import EntropyMethod, EntropyValue
from mixent.numerics import DEFAULT_QUADRATURE

FAIR = DiscreteLattice.bernoulli(0.5)


def _judge_reports(check):
    """Run ``check`` on fair Bernoulli reports built now, after patching."""
    return lambda: check(
        [bounds.sandwich_report(FAIR, s) for s in (0.15, 0.25, 0.45, 0.5, 1.0)]
    )


@pytest.mark.parametrize(
    "module, run, delta, quoted",
    [
        # far from the identity route, which does not call deficit_direct
        (checks, lambda: checks.check_identity(DEFAULT_QUADRATURE, quick=True),
         10.0, "> combined errors"),
        # above Theorem 1 at every sigma of the grid
        (bounds, _judge_reports(checks.check_sharpness_sandwich), 10.0, "<= upper"),
        (bounds, _judge_reports(checks.check_bound_chain), 10.0,
         "delta <= lemma1 violated"),
        # negative, below ln 2 * Q(1/(2 sigma))
        (bounds, _judge_reports(checks.check_big_sigma_lower), -1.0, ">= bound"),
    ],
    ids=["identity", "sharpness_sandwich", "bound_chain", "big_sigma_lower"],
)
def test_impossible_deficit_fails_the_check(monkeypatch, module, run, delta, quoted):
    impossible = EntropyValue(delta, EntropyMethod.QUADRATURE, 1e-12)
    monkeypatch.setattr(module, "deficit_direct", lambda *args: impossible)
    result = run()
    assert result.passed is False
    assert quoted in result.detail


def test_fair_bernoulli_deficits_are_computed_once(monkeypatch):
    # the sandwich reports evaluate each sigma of the bound checks once; the
    # identity check evaluates its own grid; nothing else in checks does
    sigmas = {bounds: [], checks: []}
    for module, seen in sigmas.items():
        def counting(z, g, *args, _seen=seen, _real=module.deficit_direct):
            if z == FAIR:
                _seen.append(g.sigma)
            return _real(z, g, *args)

        monkeypatch.setattr(module, "deficit_direct", counting)
    checks.run_all_checks(mc_samples=2)
    assert sorted(sigmas[bounds]) == sorted(
        checks.SHARPNESS_GRID + checks.BIG_SIGMA_GRID
    )
    assert sorted(sigmas[checks]) == sorted(checks.IDENTITY_SIGMA_GRID)
