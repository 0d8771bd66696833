"""Output oracles for the benchmark's operations.

Each ``check_*`` function takes what one ``mixent`` invocation printed (and
its exit code) and returns a ``Verdict``: whether the output is right, why
not, and the numbers it carried, so that the numbers of every operation are
recorded next to its timings.  None of the oracles share code with the
routes they check: the gapped-law oracle is an mpmath integral, the others
re-check inequalities from the printed numbers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import mpmath

# Digits carried by the mpmath reference integral.
ORACLE_DPS = 25

# Route values must match each other, or the cluster oracle, within their
# reported error, but never tighter than this absolute floor.
AGREEMENT_FLOOR = 1e-8

# Printed numbers carry 15 significant digits; re-checked inequalities get
# this much relative slack for the rounding.
PRINT_SLACK = 1e-13

SWEEP_COLUMNS = (
    "sigma", "delta", "delta_err", "lemma1", "lemma3", "lemma4",
    "thm1", "bern_lb", "bigsig_lb", "ok",
)


@dataclass
class Verdict:
    ok: bool
    reasons: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def bernoulli_deficit(q: float, sigma: float, dps: int = ORACLE_DPS) -> float:
    """Deficit of the law ``P(Z=0)=q, P(Z=1)=1-q`` plus ``N(0, sigma^2)``.

    Integrates ``q f(x) ln(1 + r) + (1-q) f(x-1) ln(1 + 1/r)`` with
    ``r = f(x-1)(1-q) / (f(x) q) = ((1-q)/q) exp((2x-1) / (2 sigma^2))``
    by tanh-sinh quadrature at ``dps`` digits.  The integrand is positive,
    so no digits cancel.
    """
    with mpmath.workdps(dps):
        q = mpmath.mpf(q)
        s = mpmath.mpf(sigma)
        c = 1 / (2 * s * s)
        odds = (1 - q) / q
        norm = 1 / (mpmath.sqrt(2 * mpmath.pi) * s)

        def integrand(x):
            r = odds * mpmath.exp(c * (2 * x - 1))
            f0 = norm * mpmath.exp(-c * x * x)
            f1 = norm * mpmath.exp(-c * (x - 1) ** 2)
            return q * f0 * mpmath.log1p(r) + (1 - q) * f1 * mpmath.log1p(1 / r)

        # the mass sits around the atoms and the crossover at x = 1/2
        breaks = [-mpmath.inf, 0.5 - 10 * s, 0, 0.5, 1, 0.5 + 10 * s, mpmath.inf]
        breaks = sorted(set(breaks))
        return float(mpmath.quad(integrand, breaks))


def _parse_entropy(stdout: str, exit_code) -> Verdict:
    """The printed quantities of ``mixent entropy --format json`` as
    ``values``; a nonzero exit is a reason to fail, but the numbers are
    still recorded."""
    verdict = Verdict(True)
    if exit_code != 0:
        verdict.reasons.append(f"exit code {exit_code}")
    try:
        doc = json.loads(stdout)
        values = {
            name: {"nats": doc[name]["nats"], "abs_error": doc[name]["abs_error"]}
            for name in ("H_Z", "h_X", "h_mixture", "delta_direct", "delta_identity")
        }
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        verdict.reasons.append(f"unreadable output: {exc}")
    else:
        verdict.values = values
    return verdict


def check_entropy_contiguous(stdout: str, exit_code) -> Verdict:
    """Routes agree within ``max(combined reported error, 1e-8)`` and each
    lies in ``[0, H(Z)]``."""
    verdict = _parse_entropy(stdout, exit_code)
    v = verdict.values
    if v:
        dd, di, hz = v["delta_direct"], v["delta_identity"], v["H_Z"]["nats"]
        diff = abs(dd["nats"] - di["nats"])
        budget = max(dd["abs_error"] + di["abs_error"], AGREEMENT_FLOOR)
        if diff > budget:
            verdict.reasons.append(f"|direct - identity| = {diff:.3e} > {budget:.3e}")
        for name, d in (("direct", dd), ("identity", di)):
            if not 0.0 <= d["nats"] <= hz:
                verdict.reasons.append(
                    f"delta_{name} = {d['nats']!r} outside [0, H_Z = {hz!r}]")
    verdict.ok = not verdict.reasons
    return verdict


def check_entropy_cluster(stdout: str, exit_code, expected: float) -> Verdict:
    """Both routes match the cluster oracle within
    ``max(reported error, 1e-8)``."""
    verdict = _parse_entropy(stdout, exit_code)
    if verdict.values:
        verdict.values["oracle"] = expected
        for name in ("delta_direct", "delta_identity"):
            d = verdict.values[name]
            gap = abs(d["nats"] - expected)
            budget = max(d["abs_error"], AGREEMENT_FLOOR)
            if gap > budget:
                verdict.reasons.append(
                    f"{name} = {d['nats']!r} is {gap:.3e} from the cluster "
                    f"oracle {expected!r} (> {budget:.3e})")
    verdict.ok = not verdict.reasons
    return verdict


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _leq(a: float, b: float) -> bool:
    return a <= b + PRINT_SLACK * max(abs(a), abs(b))


def check_sweep(stdout: str, exit_code, sigmas: list[float]) -> Verdict:
    """Every row reads ``ok=true`` at the requested sigma, and the bound
    ordering holds on the printed numbers: lower bounds <= delta + err,
    delta - err <= every upper bound, lemma1 <= lemma3 + lemma4 <= thm1."""
    verdict = Verdict(True)
    if exit_code != 0:
        verdict.reasons.append(f"exit code {exit_code}")
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
        verdict.reasons.append(f"unexpected header {rows[:1]!r}")
        verdict.ok = False
        return verdict
    body = rows[1:]
    if len(body) != len(sigmas):
        verdict.reasons.append(f"{len(body)} rows for {len(sigmas)} sigmas")
    table = []
    for row, want in zip(body, sigmas):
        r = dict(zip(SWEEP_COLUMNS, row))
        nums = {k: _num(r[k]) for k in SWEEP_COLUMNS if k != "ok"}
        table.append(nums)
        s = nums["sigma"]
        if abs(s - want) > PRINT_SLACK * want:
            verdict.reasons.append(f"row sigma {s!r} != requested {want!r}")
        if r["ok"] != "true":
            verdict.reasons.append(f"sigma={s}: ok={r['ok']}")
        lo = nums["delta"] - nums["delta_err"]
        hi = nums["delta"] + nums["delta_err"]
        split = None
        if nums["lemma4"] is not None:
            split = nums["lemma3"] + nums["lemma4"]
        uppers = {"lemma1": nums["lemma1"], "lemma3+lemma4": split,
                  "thm1": nums["thm1"]}
        for name, ub in uppers.items():
            if ub is not None and not _leq(lo, ub):
                verdict.reasons.append(f"sigma={s}: delta-err {lo!r} > {name} {ub!r}")
        for name in ("bern_lb", "bigsig_lb"):
            lb = nums[name]
            if lb is not None and not _leq(lb, hi):
                verdict.reasons.append(f"sigma={s}: {name} {lb!r} > delta+err {hi!r}")
        chain = [(n, u) for n, u in uppers.items() if u is not None]
        for (n1, u1), (n2, u2) in zip(chain, chain[1:]):
            if not _leq(u1, u2):
                verdict.reasons.append(f"sigma={s}: {n1} {u1!r} > {n2} {u2!r}")
    verdict.values["rows"] = table
    verdict.ok = not verdict.reasons
    return verdict


def check_validate(stdout: str, exit_code, n_checks: int) -> Verdict:
    """Exit code 0 and the closing line ``n/n checks passed``."""
    lines = stdout.splitlines()
    verdict = Verdict(True, values={"lines": lines})
    if exit_code != 0:
        verdict.reasons.append(f"exit code {exit_code}")
    want = f"{n_checks}/{n_checks} checks passed"
    if not lines or lines[-1] != want:
        verdict.reasons.append(f"last line {lines[-1:]!r}, want {want!r}")
    verdict.ok = not verdict.reasons
    return verdict

