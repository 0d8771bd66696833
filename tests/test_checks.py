"""The validate checks report a broken inequality as a failure, quoting it,
the fair-Bernoulli bound checks share one deficit per sigma, and the
identity and Monte Carlo checks share one mixture entropy per law and sigma.
Only the 20 Monte Carlo estimates run on a pool of one worker per usable
CPU, heaviest first; the reports and checks run on the calling thread.  The
estimates share one noise draw, the worker count changes no bit, and a
failing estimate stops the pool early."""

import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

import mixent.bounds as bounds
import mixent.checks as checks
import mixent.entropy as entropy
from mixent.distributions import DiscreteLattice, GaussianDensity
from mixent.entropy import EntropyMethod, EntropyValue

FAIR = DiscreteLattice.bernoulli(0.5)
# the (law, base) of each grid entropy report and Monte Carlo estimate; the
# equality check builds two more reports
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
        [("fair", s, entropy.entropy_report(FAIR, GaussianDensity(s)))
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
    ],
    ids=["identity", "identity_nan", "sharpness_sandwich",
         "sharpness_sandwich_lower", "bound_chain", "bound_chain_nan",
         "big_sigma_lower"],
)
def test_impossible_deficit_fails_the_check(monkeypatch, module, run, delta, quoted):
    impossible = EntropyValue(delta, EntropyMethod.QUADRATURE, 1e-12)
    monkeypatch.setattr(module, "deficit_direct", lambda *args: impossible)
    result = run()
    assert result.passed is False
    assert quoted in result.detail


@pytest.mark.parametrize("nats, se", [(math.nan, 1e-3), (1.0, math.nan)],
                         ids=["nan_estimate", "nan_standard_error"])
def test_nan_monte_carlo_fails_the_check(nats, se):
    rows = [("fair", s, entropy.entropy_report(FAIR, GaussianDensity(s)))
            for s in (0.1, 0.25)]
    rows[1][2]["h_mc"] = EntropyValue(nats, EntropyMethod.MONTE_CARLO, se)
    rows[0][2]["h_mc"] = rows[0][2]["h_mixture"]
    result = checks.check_mc_agreement(rows, 100)
    assert result.passed is False
    assert result.detail.startswith("fair, sigma=0.25: |mc - quadrature| = ")
    assert "> 4 SE" in result.detail


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
    checks.run_all_checks(mc_samples=2)
    assert sorted(sigmas[bounds]) == sorted(
        checks.SHARPNESS_GRID + checks.BIG_SIGMA_GRID
    )
    assert sorted(sigmas[entropy]) == sorted(checks.IDENTITY_SIGMA_GRID)
    assert sigmas[checks] == []
    assert GRID <= set(mixtures)
    assert len(mixtures) == len(set(mixtures))


def _pin_cpus(mp, n):
    """Make this process look like it may run on ``n`` CPUs."""
    mp.setattr(checks.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    mp.setattr(checks.os, "cpu_count", lambda: n)


def test_one_worker_per_usable_cpu_at_most_one_per_pair(monkeypatch):
    for cpus, workers in ((1, 1), (2, 2), (64, 20)):
        _pin_cpus(monkeypatch, cpus)
        assert checks._worker_count(20) == workers
    # no CPU set and an unknown CPU count: one worker
    monkeypatch.delattr(checks.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(checks.os, "cpu_count", lambda: None)
    assert checks._worker_count(20) == 1


def _run_on(cpus, n):
    """``run_all_checks`` at N=``n`` on ``cpus`` CPUs (None: this host's);
    also each of the 20 Monte Carlo estimates it made, by (law, base), and
    the threads that made them."""
    estimates, threads = {}, set()
    real = checks._mc_estimate

    def recording(m, counts, noise, scale):
        threads.add(threading.get_ident())
        estimates[m.lattice, m.base] = real(m, counts, noise, scale)
        return estimates[m.lattice, m.base]

    with pytest.MonkeyPatch.context() as mp:
        if cpus is not None:
            _pin_cpus(mp, cpus)
        mp.setattr(checks, "_mc_estimate", recording)
        results = checks.run_all_checks(mc_samples=n)
    return results, estimates, threads


def _bits(v):
    return v.nats.hex(), v.abs_error.hex(), v.method, v.converged


def test_worker_count_changes_no_bit():
    # two chunks per estimate, so the chunk merge runs too
    n = entropy.MC_CHUNK_SAMPLES + 5000
    serial, serial_estimates, serial_threads = _run_on(1, n)
    assert len(serial_threads) == 1
    assert serial_estimates.keys() == GRID
    for cpus in (4, None):
        results, estimates, threads = _run_on(cpus, n)
        assert results == serial
        if cpus is not None:
            assert len(threads) <= cpus
        assert estimates.keys() == GRID
        for pair, v in estimates.items():
            assert _bits(v) == _bits(serial_estimates[pair])


def test_only_the_estimates_leave_the_calling_thread(monkeypatch):
    # the quadratures hold the GIL, so the reports and the lattice sums run
    # on the thread that called run_all_checks, even with 4 workers
    threads = {name: [] for name in
               ("entropy_report", "sandwich_report", "reset_report", "lattice_sum")}
    for name, seen in threads.items():
        def recording(*args, _real=getattr(checks, name), _seen=seen):
            _seen.append(threading.get_ident())
            return _real(*args)

        monkeypatch.setattr(checks, name, recording)
    estimated = []
    real_estimate = checks._mc_estimate

    def estimating(*args):
        estimated.append(threading.get_ident())
        return real_estimate(*args)

    monkeypatch.setattr(checks, "_mc_estimate", estimating)
    _pin_cpus(monkeypatch, 4)
    assert all(r.passed for r in checks.run_all_checks(mc_samples=2000))
    me = threading.get_ident()
    # 20 grid reports and 2 equality cases; 11 sandwiches; 3 Landauer
    # resets; 10 sigmas and 2 invariance calls
    assert {name: len(seen) for name, seen in threads.items()} == {
        "entropy_report": 22, "sandwich_report": 11,
        "reset_report": 3, "lattice_sum": 12,
    }
    assert all(set(seen) == {me} for seen in threads.values())
    assert len(estimated) == 20 and me not in estimated


def test_a_failing_estimate_cancels_the_queued_ones(monkeypatch):
    # the first pair submitted, the most atoms' at the smallest sigma,
    # fails at once while the others take 20 ms each: the pool must not
    # start all 20 before the error comes back
    calls = []
    laws = checks.grid_laws()
    heaviest = max(laws.values(), key=lambda z: len(z.support))
    first = (heaviest, GaussianDensity(checks.IDENTITY_SIGMA_GRID[0]))

    def failing(m, counts, noise, scale):
        calls.append((m.lattice, m.base))
        if (m.lattice, m.base) == first:
            raise RuntimeError("pair 0 broke")
        time.sleep(0.02)
        return EntropyValue(0.0, EntropyMethod.MONTE_CARLO, 0.0)

    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(checks, "_mc_estimate", failing)
    with pytest.raises(RuntimeError, match="pair 0 broke"):
        checks.run_all_checks(mc_samples=2)
    assert len(calls) < 6, calls


class _CountingRng:
    """A ``np.random.Generator`` that records each ``standard_normal`` and
    ``multinomial`` draw in ``events``."""

    def __init__(self, rng, events):
        self._rng, self._events = rng, events

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size):
        self._events.append(("standard_normal", size))
        return self._rng.standard_normal(size)

    def multinomial(self, n, pvals):
        self._events.append(("multinomial", n, tuple(pvals)))
        return self._rng.multinomial(n, pvals)


def test_the_grid_draws_its_normals_once(monkeypatch):
    events = []
    real_rng, real_report = np.random.default_rng, checks.entropy_report

    def counting(seed):
        events.append(("default_rng", seed))
        return _CountingRng(real_rng(seed), events)

    def reporting(z, base):
        if (z, base) in GRID:
            events.append(("entropy_report",))
        return real_report(z, base)

    monkeypatch.setattr(np.random, "default_rng", counting)
    monkeypatch.setattr(checks, "entropy_report", reporting)
    results = checks.run_all_checks(mc_samples=5000)
    assert all(r.passed for r in results)
    assert [e for e in events if e[0] == "standard_normal"] == [("standard_normal", 5000)]
    # one generator, seeded MC_SEED, draws the normals and then every
    # pair's counts in grid order, all before the first report
    assert events.count(("default_rng", checks.MC_SEED)) == 1
    laws = checks.grid_laws()
    counts = [("multinomial", 5000, laws[label].probs)
              for label in laws for _ in checks.IDENTITY_SIGMA_GRID]
    first = events.index(("entropy_report",))
    assert events[:first] == [
        ("default_rng", checks.MC_SEED), ("standard_normal", 5000), *counts
    ]
    assert [e for e in events if e[0] == "multinomial"] == counts
    assert events.count(("entropy_report",)) == 20


def test_the_grid_holds_one_draw_and_a_few_mib_per_worker(monkeypatch):
    # 4 workers on one 8 MiB draw: each holds a 2 MiB chunk buffer and its
    # kernel blocks, where an own noise array each would add 32 MiB
    _pin_cpus(monkeypatch, 4)
    n = 2**20
    checks.run_all_checks(mc_samples=2)  # lazy imports
    tracemalloc.start()
    try:
        checks.run_all_checks(mc_samples=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 4 * 6 * 2**20


def test_an_unallocatable_sample_count_fails_before_any_report(monkeypatch):
    # 10**17 doubles are 711 PiB: the shared draw fails at once
    calls = []
    monkeypatch.setattr(bounds, "deficit_direct", lambda *args: calls.append(args))
    monkeypatch.setattr(checks, "entropy_report", lambda *args: calls.append(args))
    with pytest.raises(MemoryError):
        checks.run_all_checks(mc_samples=10**17)
    assert calls == []
