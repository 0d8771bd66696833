"""The validate checks report a broken inequality as a failure, quoting it,
the fair-Bernoulli bound checks share one deficit per sigma, and the
identity and reference checks share one entropy report per law and sigma.
Every report and check runs once, on the calling thread."""

import dataclasses
import math

import numpy as np
import pytest

import mixent.bounds as bounds
import mixent.checks as checks
import mixent.entropy as entropy
from mixent.distributions import DiscreteLattice, GaussianDensity
from mixent.entropy import EntropyMethod, EntropyValue

FAIR = DiscreteLattice.bernoulli(0.5)
# the (law, base) of each grid entropy report; the equality check builds
# two more reports
GRID = {(z, GaussianDensity(s)) for z in checks.grid_laws().values()
        for s in checks.IDENTITY_SIGMA_GRID}


def _judge_reports(check):
    """Run ``check`` on fair Bernoulli reports built now, after patching."""
    return lambda: check(
        [bounds.sandwich_report(FAIR, s) for s in (0.15, 0.25, 0.45, 0.5, 1.0)]
    )


def _judge_entropy_rows(check):
    """Run ``check`` on fair Bernoulli entropy reports built now, after patching."""
    return lambda: check(
        [("bernoulli(1/2)", s, entropy.entropy_report(FAIR, GaussianDensity(s)))
         for s in (0.1, 0.25)]
    )


@pytest.mark.parametrize(
    "module, run, delta, quoted",
    [
        # far from the identity route, which does not call deficit_direct
        (entropy, _judge_entropy_rows(checks.check_identity), 10.0,
         "> combined errors"),
        # every comparison with NaN is False: each test is the negation of
        # the condition that must hold
        (entropy, _judge_entropy_rows(checks.check_identity), math.nan,
         "> combined errors"),
        # above Theorem 1 at every sigma of the grid
        (bounds, _judge_reports(checks.check_sharpness_sandwich), 10.0, "<= upper"),
        # 0, below the closed-form lower bound at every sigma of the grid
        (bounds, _judge_reports(checks.check_sharpness_sandwich), 0.0, ": lower "),
        (bounds, _judge_reports(checks.check_bound_chain), 10.0,
         "delta <= lemma1 violated"),
        (bounds, _judge_reports(checks.check_bound_chain), math.nan,
         "delta <= lemma1 violated"),
        # negative, below ln 2 * Q(1/(2 sigma))
        (bounds, _judge_reports(checks.check_big_sigma_lower), -1.0, ">= bound"),
        # far from the frozen values, on the grid rows and on the sandwich rows
        (entropy,
         _judge_entropy_rows(lambda rows: checks.check_reference_deficits(rows, [])),
         10.0, "bernoulli(1/2), sigma=0.1: |delta - reference| = "),
        (bounds,
         _judge_reports(lambda reports: checks.check_reference_deficits([], reports)),
         math.nan, "bernoulli(1/2), sigma=0.15: |delta - reference| = "),
    ],
    ids=["identity", "identity_nan", "sharpness_sandwich",
         "sharpness_sandwich_lower", "bound_chain", "bound_chain_nan",
         "big_sigma_lower", "reference_deficits", "reference_deficits_nan"],
)
def test_impossible_deficit_fails_the_check(monkeypatch, module, run, delta, quoted):
    impossible = EntropyValue(delta, EntropyMethod.QUADRATURE, 1e-12)
    monkeypatch.setattr(module, "deficit_direct", lambda *args: impossible)
    result = run()
    assert result.passed is False
    assert quoted in result.detail


def _replacing(real, **fields):
    """``real`` with these fields of its result replaced."""
    return lambda *args: dataclasses.replace(real(*args), **fields)


def _entropy(nats):
    return lambda *args: EntropyValue(nats, EntropyMethod.QUADRATURE, 1e-12)


def _violations(name, module, attr, fake, run, quoted, finite):
    """The case ``name`` with ``fake(finite)`` in place of ``module.attr``,
    and the case ``name_nan`` with ``fake(nan)``."""
    return [
        pytest.param(module, attr, fake(value), run, quoted, id=name + suffix)
        for value, suffix in ((finite, ""), (math.nan, "_nan"))
    ]


@pytest.mark.parametrize(
    "module, attr, fake, run, quoted",
    # a finite violation reaches each failure branch; NaN must too, so each
    # test is the negation of the condition that must hold
    _violations("big_sigma_reference", bounds, "big_sigma_lower_bound",
                lambda v: lambda sigma: v, _judge_reports(checks.check_big_sigma_lower),
                ["lower bound at sigma=1 is"], 0.25)
    + [pytest.param(bounds, "big_sigma_lower_bound",
                    lambda sigma: checks.BIG_SIGMA_LB_AT_1,
                    _judge_reports(checks.check_big_sigma_lower),
                    ["bound not increasing at sigma=1.0"], id="big_sigma_monotone")]
    + _violations("rate_match", checks, "theorem1_upper_bound",
                  lambda v: lambda sigma: v, checks.check_rate_match,
                  ["sigma=0.1: ratio", "> 1e-12)"], 1.0)
    + _violations("landauer_reference", checks, "reset_report",
                  lambda v: _replacing(checks.reset_report, envelope=v),
                  checks.check_landauer, ["envelope at sigma_eff=0.1 is"], 1.0)
    + _violations("landauer_envelope", checks, "reset_report",
                  lambda v: _replacing(checks.reset_report, delta_h=v),
                  checks.check_landauer, ["sigma_eff=0.05: |delta_h - ln2| = "], 0.0)
    + _violations("equality_direct", entropy, "deficit_direct", _entropy,
                  checks.check_equality_cases,
                  ["point mass: direct deficit", "uniform base: direct deficit"], 1e-6)
    + _violations("equality_identity", entropy, "deficit_via_identity", _entropy,
                  checks.check_equality_cases,
                  ["point mass: identity deficit", "uniform base: deficit"], 1e-6)
    + _violations("equality_uniform_mixture", entropy, "mixture_entropy", _entropy,
                  checks.check_equality_cases, ["uniform base: h(X+Z)"], 1e-6)
    + _violations("tail", checks, "tail_mass", lambda v: lambda g, z: v,
                  checks.check_tail_inequality,
                  ["tail bound exceeds tail by"], 0.0),
)
def test_violation_fails_the_check(monkeypatch, module, attr, fake, run, quoted):
    monkeypatch.setattr(module, attr, fake)
    result = run()
    assert result.passed is False
    assert all(q in result.detail for q in quoted), result.detail


@pytest.mark.parametrize(
    "fake, quoted, absent",
    [
        # at 1/sigma everywhere: the strict bound fails at every sigma
        (lambda g, eps: np.full(np.shape(eps), 1.0 / g.sigma), ">= 1/sigma",
         "invariance"),
        # grows with the nearest lattice point's square: even, not periodic
        (lambda g, eps, _real=checks.lattice_sum: _real(g, eps)
         + 1e-9 * np.round(eps) ** 2, "shift invariance broke", ">= 1/sigma"),
        # periodic but odd
        (lambda g, eps, _real=checks.lattice_sum: _real(g, eps)
         + 1e-9 * np.sin(2.0 * np.pi * np.asarray(eps)), "reflection invariance broke",
         "shift invariance"),
        # NaN at every shifted or mirrored offset
        (lambda g, eps, _real=checks.lattice_sum: np.full(np.shape(eps), np.nan)
         if np.ndim(eps) == 2 else _real(g, eps), "shift invariance broke",
         ">= 1/sigma"),
    ],
    ids=["at_the_bound", "not_shift_invariant", "not_even", "nan_when_moved"],
)
def test_broken_lattice_sum_fails_the_check(monkeypatch, fake, quoted, absent):
    monkeypatch.setattr(checks, "lattice_sum", fake)
    result = checks.check_lattice_sum_bound()
    assert result.passed is False
    assert quoted in result.detail and absent not in result.detail


def test_lattice_sum_bound_quotes_the_first_failing_eps_per_sigma(monkeypatch):
    calls = []

    def fake(g, eps):
        calls.append(np.shape(eps))
        return np.where(np.asarray(eps) > 4.0, 1.0 / g.sigma, 0.0)

    monkeypatch.setattr(checks, "lattice_sum", fake)
    detail = checks.check_lattice_sum_bound().detail
    eps = np.random.default_rng(checks.LEMMA2_SEED).uniform(-5.0, 5.0, size=1000)
    first = eps[np.flatnonzero(eps > 4.0)[0]]
    assert detail.count(">= 1/sigma") == 10
    assert detail.startswith(
        f"sigma=0.05, eps={first!r}: lattice_sum 20.0 >= 1/sigma 20.0; sigma=0.1,"
    )
    # one call per sigma for the bound, two for the invariances
    assert calls[:10] == [(1000,)] * 10 and len(calls) == 12


def test_fair_bernoulli_deficits_are_computed_once(monkeypatch):
    # the sandwich reports evaluate each sigma of the bound checks once; the
    # entropy reports evaluate the identity grid once; checks itself does
    # not (it binds neither name, and a later import of one is counted too).
    # The equality check's fair Bernoulli on a uniform base has no sigma.
    sigmas = {bounds: [], entropy: [], checks: []}
    real_deficit, real_mixture = entropy.deficit_direct, entropy.mixture_entropy
    for module, seen in sigmas.items():
        def counting(z, g, *args, _seen=seen):
            if z == FAIR and isinstance(g, GaussianDensity):
                _seen.append(g.sigma)
            return real_deficit(z, g, *args)

        monkeypatch.setattr(module, "deficit_direct", counting, raising=False)
    # every mixture entropy, by law and base, at each binding that runs one
    mixtures = []
    for module in (entropy, checks):
        def integrating(m, *args):
            mixtures.append((m.lattice, m.base))
            return real_mixture(m, *args)

        monkeypatch.setattr(module, "mixture_entropy", integrating, raising=False)
    checks.run_all_checks()
    assert sorted(sigmas[bounds]) == sorted(
        checks.SHARPNESS_GRID + checks.BIG_SIGMA_GRID
    )
    assert sorted(sigmas[entropy]) == sorted(checks.IDENTITY_SIGMA_GRID)
    assert sigmas[checks] == []
    assert GRID <= set(mixtures)
    assert len(mixtures) == len(set(mixtures))


def test_run_all_checks_makes_each_report_once(monkeypatch):
    calls = {name: 0 for name in
             ("entropy_report", "sandwich_report", "reset_report", "lattice_sum")}
    for name in calls:
        def counting(*args, _real=getattr(checks, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(checks, name, counting)
    assert all(r.passed for r in checks.run_all_checks())
    # 20 grid reports and 2 equality cases; 11 sandwiches; 3 Landauer
    # resets; 10 sigmas and 2 invariance calls
    assert calls == {
        "entropy_report": 22, "sandwich_report": 11,
        "reset_report": 3, "lattice_sum": 12,
    }
