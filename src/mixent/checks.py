"""Self-validation suite: every analytic property the toolkit is built to
reproduce, expressed as named pass/fail checks.

The same checks back the ``validate`` CLI subcommand and the acceptance test
module.  Failure details always quote the inequality that broke, and any
unconverged quadrature is reported as a NonConvergence failure rather than
silently trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    BoundReport,
    bernoulli_lower_bound,
    sandwich_report,
    theorem1_upper_bound,
)
from .distributions import DiscreteLattice, GaussianDensity, UniformDensity, tail_mass
from .entropy import EntropyMethod, EntropyValue, entropy_report
from .landauer import BitMemoryModel, reset_report
from .numerics import _LN2, gaussian_tail_lower, lattice_sum


# Frozen reference values, evaluated from the closed forms at high precision.
BIG_SIGMA_LB_AT_1 = 0.21386192506482276  # ln 2 * Q(1/2) via erfc
THM1_ENVELOPE_AT_01 = 1.7840634176811572e-05  # exp(-12.5) * 12 / sqrt(2 pi)
DELTA_INTERVAL_AT_025 = (0.0140330, 0.4858927)  # closed-form envelope, rounded

LEMMA2_SEED = 1894772156

SHARPNESS_GRID = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
BIG_SIGMA_GRID = (0.5, 1.0, 2.0, 4.0)
IDENTITY_SIGMA_GRID = (0.05, 0.1, 0.25, 0.45, 1.0)

# The deficit of every two-atom (law, sigma) the checks evaluate: the
# Bernoulli rows of the identity grid and the fair rows of the sandwich
# grids.  Each is a 30-digit quadrature of the deficit's Fourier form
# (``pair_deficit_mp`` in the tests), rounded to the nearest double.
REFERENCE_DEFICITS = {
    ("bernoulli(1/2)", 0.05): 2.365713967298688e-23,
    ("bernoulli(1/2)", 0.1): 8.631659608453282e-07,
    ("bernoulli(1/2)", 0.15): 0.0012410567455957866,
    ("bernoulli(1/2)", 0.2): 0.01720460317896545,
    ("bernoulli(1/2)", 0.25): 0.06042698682307833,
    ("bernoulli(1/2)", 0.3): 0.1219957441857907,
    ("bernoulli(1/2)", 0.35): 0.1884211291010397,
    ("bernoulli(1/2)", 0.4): 0.25145270837880423,
    ("bernoulli(1/2)", 0.45): 0.3076679522545335,
    ("bernoulli(1/2)", 0.5): 0.3563163602131137,
    ("bernoulli(1/2)", 1.0): 0.5817256983752092,
    ("bernoulli(1/2)", 2.0): 0.6628358800391063,
    ("bernoulli(1/2)", 4.0): 0.685395091964733,
    ("bernoulli(0.3)", 0.05): 2.16634896107334e-23,
    ("bernoulli(0.3)", 0.1): 7.886694842676255e-07,
    ("bernoulli(0.3)", 0.25): 0.054714618042529174,
    ("bernoulli(0.3)", 0.45): 0.2759348312807022,
    ("bernoulli(0.3)", 1.0): 0.5159538281680961,
}


def grid_laws() -> dict[str, DiscreteLattice]:
    weights = [0.5**k for k in range(6)]
    total = sum(weights)
    geometric = DiscreteLattice(tuple(range(6)), tuple(w / total for w in weights))
    return {
        "bernoulli(1/2)": DiscreteLattice.bernoulli(0.5),
        "bernoulli(0.3)": DiscreteLattice.bernoulli(0.3),
        "uniform{-1,0,1}": DiscreteLattice((-1, 0, 1), (1 / 3, 1 / 3, 1 / 3)),
        "geometric{0..5}": geometric,
    }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], summary: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures))
    return CheckResult(name, True, summary)


def check_identity(rows: Sequence[tuple[str, float, dict]]) -> CheckResult:
    """Both deficit routes agree within their combined reported errors.

    ``rows`` holds ``(law label, sigma, entropy_report)`` triples."""
    failures = []
    worst = 0.0
    for label, sigma, q in rows:
        dd, di = q["delta_direct"], q["delta_identity"]
        if not (dd.converged and di.converged):
            failures.append(
                f"NonConvergence: quadrature did not converge for {label}, sigma={sigma}"
            )
            continue
        diff = abs(dd.nats - di.nats)
        budget = dd.abs_error + di.abs_error
        worst = max(worst, diff)
        if not diff <= budget:
            failures.append(
                f"{label}, sigma={sigma}: |direct - identity| = {diff:.3e} "
                f"> combined errors {budget:.3e}"
            )
        if not diff <= 1e-8:
            failures.append(
                f"{label}, sigma={sigma}: |direct - identity| = {diff:.3e} > 1e-8"
            )
        if not dd.nats >= -1e-10:
            failures.append(
                f"{label}, sigma={sigma}: deficit {dd.nats:.3e} < -1e-10"
            )
    return _result(
        "identity", failures, f"worst route disagreement {worst:.3e} over the grid"
    )


def check_sharpness_sandwich(reports: Sequence[BoundReport]) -> CheckResult:
    """Fair Bernoulli deficit sits between its closed-form bounds (rows with thm1)."""
    rows = [r for r in reports if r.thm1 is not None]
    failures = []
    for r in rows:
        if not r.converged:
            failures.append(f"NonConvergence at sigma={r.sigma}")
            continue
        if not r.bern_lb <= r.delta:
            failures.append(
                f"sigma={r.sigma}: lower {r.bern_lb:.9e} <= delta {r.delta:.9e} fails"
            )
        if not r.delta <= r.thm1:
            failures.append(
                f"sigma={r.sigma}: delta {r.delta:.9e} <= upper {r.thm1:.9e} fails"
            )
        if r.sigma == 0.25:
            lo, hi = DELTA_INTERVAL_AT_025
            if not lo <= r.delta <= hi:
                failures.append(
                    f"sigma=0.25: delta {r.delta:.9e} outside [{lo}, {hi}]"
                )
    return _result("sharpness_sandwich", failures, f"{len(rows)} sigma points inside")


def check_bound_chain(reports: Sequence[BoundReport]) -> CheckResult:
    """delta <= lemma1 <= lemma3 + lemma4 <= theorem1 (rows with thm1)."""
    rows = [r for r in reports if r.thm1 is not None]
    failures = []
    for r in rows:
        if not r.converged:
            failures.append(f"NonConvergence at sigma={r.sigma}")
            continue
        split = r.lemma3 + r.lemma4
        for lo, hi, what in (
            (r.delta, r.lemma1, "delta <= lemma1"),
            (r.lemma1, split, "lemma1 <= lemma3+lemma4"),
            (split, r.thm1, "lemma3+lemma4 <= theorem1"),
        ):
            if not hi - lo >= -1e-10:
                failures.append(
                    f"sigma={r.sigma}: {what} violated ({lo:.9e} vs {hi:.9e})"
                )
    return _result("bound_chain", failures, f"chain ordered at {len(rows)} sigmas")


def check_lattice_sum_bound() -> CheckResult:
    """sum_m f(eps + m) < 1/sigma over random eps; shift/reflection exact.

    Each sigma is judged by one array call of ``lattice_sum``; a failing
    sigma quotes its first failing eps."""
    rng = np.random.default_rng(LEMMA2_SEED)
    eps_values = rng.uniform(-5.0, 5.0, size=1000)
    sigmas = tuple(i / 20 for i in range(1, 11))
    failures = []
    for sigma in sigmas:
        cap = 1.0 / sigma
        sums = lattice_sum(GaussianDensity(sigma), eps_values)
        for i in np.flatnonzero(~(sums < cap))[:1]:
            failures.append(
                f"sigma={sigma}, eps={eps_values[i]!r}: "
                f"lattice_sum {float(sums[i])!r} >= 1/sigma {cap!r}"
            )
    # invariances on a deterministic subset
    g = GaussianDensity(0.25)
    eps = eps_values[:50]
    shifts = (-7, -1, 3)
    base = lattice_sum(g, eps)
    # rows: eps shifted by each of ``shifts``, then mirrored
    moved = lattice_sum(g, np.vstack([eps + np.array(shifts)[:, None], -eps]))
    broke = ~(np.abs(base - moved) <= 1e-13 * np.maximum(1.0, np.abs(base)))
    for i, j in zip(*np.nonzero(broke.T)):
        if j < len(shifts):
            failures.append(
                f"shift invariance broke at eps={eps[i]!r}, n={shifts[j]}: "
                f"{float(base[i])!r} vs {float(moved[j, i])!r}"
            )
        else:
            failures.append(f"reflection invariance broke at eps={eps[i]!r}")
    return _result(
        "lattice_sum_bound",
        failures,
        f"{len(sigmas)} sigmas x {len(eps_values)} offsets below 1/sigma",
    )


def check_big_sigma_lower(reports: Sequence[BoundReport]) -> CheckResult:
    """Fair Bernoulli deficit dominates ln2 * Q(1/(2 sigma)) (rows with bigsig_lb)."""
    rows = [r for r in reports if r.bigsig_lb is not None]
    failures = []
    ref = next(r.bigsig_lb for r in rows if r.sigma == 1.0)
    if not abs(ref - BIG_SIGMA_LB_AT_1) <= 1e-6:
        failures.append(
            f"lower bound at sigma=1 is {ref!r}, expected {BIG_SIGMA_LB_AT_1} +- 1e-6"
        )
    prev = None
    for r in rows:
        lb = r.bigsig_lb
        if prev is not None and not lb > prev:
            failures.append(f"bound not increasing at sigma={r.sigma}")
        prev = lb
        if not r.converged:
            failures.append(f"NonConvergence at sigma={r.sigma}")
        elif not r.delta >= lb:
            failures.append(
                f"sigma={r.sigma}: delta {r.delta:.9e} >= bound {lb:.9e} fails"
            )
    return _result("big_sigma_lower", failures, f"dominates on {len(rows)} sigmas")


def check_rate_match() -> CheckResult:
    """Upper/lower closed forms share the exponential factor exactly."""
    failures = []
    for sigma in (0.1, 0.25, 0.4):
        ratio = theorem1_upper_bound(sigma) / bernoulli_lower_bound(sigma)
        rational = (0.5 / sigma + 7.0) / (_LN2 * (2.0 * sigma - 8.0 * sigma**3))
        rel = abs(ratio - rational) / rational
        if not rel <= 1e-12:
            failures.append(
                f"sigma={sigma}: ratio {ratio!r} vs rational {rational!r} "
                f"(rel err {rel:.3e} > 1e-12)"
            )
    return _result("rate_match", failures, "exponential factor cancels to 1e-12")


def check_landauer() -> CheckResult:
    """Reset entropy drop within the report's closed-form envelope of ln 2."""
    sigmas = (0.05, 0.1, 0.25)
    failures = []
    for sigma_eff in sigmas:
        rr = reset_report(BitMemoryModel(mu=0.5, sigma=sigma_eff, p1=0.5))
        env = rr.envelope
        if sigma_eff == 0.1 and not (
            abs(env - THM1_ENVELOPE_AT_01) <= 1e-12 * THM1_ENVELOPE_AT_01
        ):
            failures.append(
                f"envelope at sigma_eff=0.1 is {env!r}, "
                f"expected {THM1_ENVELOPE_AT_01!r}"
            )
        if not rr.converged:
            failures.append(f"NonConvergence at sigma_eff={sigma_eff}")
            continue
        gap = abs(rr.delta_h - _LN2)
        if not gap <= env:
            failures.append(
                f"sigma_eff={sigma_eff}: |delta_h - ln2| = {gap:.3e} "
                f"> envelope {env:.3e}"
            )
    return _result("landauer_envelope", failures, f"{len(sigmas)} noise scales inside")


def check_equality_cases() -> CheckResult:
    """Point-mass Z and narrow uniform base give zero deficit, judged on one
    entropy report each."""
    failures = []
    point = entropy_report(DiscreteLattice.point_mass(0), GaussianDensity(0.25))
    dd, di = point["delta_direct"], point["delta_identity"]
    if not abs(dd.nats) <= 1e-12:
        failures.append(f"point mass: direct deficit {dd.nats!r} not 0 within 1e-12")
    if not abs(di.nats) <= 1e-10:
        failures.append(f"point mass: identity deficit {di.nats!r} not 0 within 1e-10")
    uniform = entropy_report(DiscreteLattice.bernoulli(0.5), UniformDensity(0.25))
    hm, du = uniform["h_mixture"], uniform["delta_identity"]
    if not abs(hm.nats) <= 1e-12:
        failures.append(f"uniform base: h(X+Z) = {hm.nats!r} not 0 within 1e-12")
    if not abs(du.nats) <= 1e-12:
        failures.append(f"uniform base: deficit {du.nats!r} not 0 within 1e-12")
    ud = uniform["delta_direct"]
    if not abs(ud.nats) <= 1e-12:
        failures.append(f"uniform base: direct deficit {ud.nats!r} not 0 within 1e-12")
    return _result("equality_cases", failures, "both equality cases exact")


def check_reference_deficits(
    rows: Sequence[tuple[str, float, dict]], reports: Sequence[BoundReport]
) -> CheckResult:
    """Each two-atom deficit within its reported error of its frozen
    30-digit value in ``REFERENCE_DEFICITS``: the direct deficits of the
    ``check_identity`` rows and the fair Bernoulli sandwich reports."""
    judged = [(label, s, q["delta_direct"]) for label, s, q in rows]
    judged += [
        ("bernoulli(1/2)", r.sigma,
         EntropyValue(r.delta, EntropyMethod.QUADRATURE, r.delta_err, r.converged))
        for r in reports
    ]
    judged = [row for row in judged if row[:2] in REFERENCE_DEFICITS]
    failures = []
    worst = 0.0
    for label, sigma, v in judged:
        ref = REFERENCE_DEFICITS[label, sigma]
        if not v.converged:
            failures.append(
                f"NonConvergence: quadrature did not converge for {label}, sigma={sigma}"
            )
            continue
        gap = abs(v.nats - ref)
        worst = max(worst, gap / ref)
        if not gap <= v.abs_error:
            failures.append(
                f"{label}, sigma={sigma}: |delta - reference| = {gap:.3e} "
                f"> error {v.abs_error:.3e}"
            )
    return _result(
        "reference_deficits",
        failures,
        f"{len(judged)} rows within their errors, worst relative gap {worst:.3e}",
    )


def check_tail_inequality() -> CheckResult:
    """phi(z)(1/z - 1/z^3) never exceeds the true tail on z in [1.01, 10]."""
    g = GaussianDensity(1.0)
    failures = []
    worst = math.inf
    for z in np.linspace(1.01, 10.0, 200):
        margin = tail_mass(g, z) - gaussian_tail_lower(z)
        worst = min(worst, margin)
        if not margin >= 0.0:
            failures.append(f"z={z!r}: tail bound exceeds tail by {-margin:.3e}")
            break
    return _result(
        "tail_inequality", failures, f"200 grid points, smallest margin {worst:.3e}"
    )


def run_all_checks() -> list[CheckResult]:
    """Run every named check; order is fixed and deterministic.

    The three fair-Bernoulli bound checks judge one set of sandwich
    reports, one row per sigma.  The identity check judges one entropy
    report per (law, sigma) of the grid, and the reference check the
    two-atom deficits of both.  Every report and check runs once, in print
    order.
    """
    rows = [
        (label, s, entropy_report(z, GaussianDensity(s)))
        for label, z in grid_laws().items()
        for s in IDENTITY_SIGMA_GRID
    ]
    fair = DiscreteLattice.bernoulli(0.5)
    reports = [sandwich_report(fair, s) for s in SHARPNESS_GRID + BIG_SIGMA_GRID]
    return [
        check_identity(rows),
        check_sharpness_sandwich(reports),
        check_bound_chain(reports),
        check_lattice_sum_bound(),
        check_big_sigma_lower(reports),
        check_rate_match(),
        check_landauer(),
        check_equality_cases(),
        check_reference_deficits(rows, reports),
        check_tail_inequality(),
    ]
