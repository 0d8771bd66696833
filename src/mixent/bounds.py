"""Closed-form and semi-numeric bounds on the mixture entropy deficit, and
sandwich reports that check a computed deficit against every applicable bound.

For a Gaussian base of standard deviation ``sigma`` the bounds chain as

    delta <= lemma1_upper_bound          (Z-independent integral)
          <= lemma3_near_zero_term + lemma4_far_term      (sigma < 1/2)
          <= theorem1_upper_bound                          (sigma < 1/2)

with ``theorem1_upper_bound = exp(-1/(8 sigma^2)) (1/(2 sigma) + 7) / sqrt(2 pi)``.
Matching lower bounds exist for the fair Bernoulli law on adjacent lattice
points: ``bernoulli_lower_bound`` (sigma < 1/2, same exponential factor, so
the rate is sharp) and ``big_sigma_lower_bound = ln 2 * Q(1/(2 sigma))``,
which grows toward ``ln 2 / 2`` and shows the deficit stays large once
``sigma >= 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .distributions import DiscreteLattice, GaussianDensity, tail_mass
from .entropy import (
    EntropyValue,
    _deficit_quadrature,
    deficit_direct,
    discrete_entropy,
)
from .numerics import _LN2, _SQRT_2PI


def _subcritical(sigma: float) -> bool:
    """The regime ``0 < sigma < 1/2`` of the closed-form bounds."""
    return 0.0 < sigma < 0.5


def _require_subcritical(sigma: float, what: str) -> float:
    sigma = float(sigma)
    if not _subcritical(sigma):
        raise ValueError(f"{what} requires 0 < sigma < 1/2 (got {sigma!r})")
    return sigma


def lemma1_upper_bound(g: GaussianDensity) -> EntropyValue:
    """Numeric value of the Z-independent deficit bound

        L = int f(y) ln(1 + sum_{m != 0} f(y+m) / f(y)) dy,

    folded onto one period (``y = u + n``, ``|u| <= 1/2``): the direct-route
    deficit quadrature on the one cell ``n = 0`` with unit-weight atoms
    ``-g.reach..g.reach``.
    """
    atoms = np.arange(-g.reach, g.reach + 1)
    cell = np.zeros(1, int)
    return _deficit_quadrature(atoms, np.zeros(atoms.size), g, cell)


def lemma3_near_zero_term(g: GaussianDensity) -> float:
    """Bound ``2 int_{1/2}^inf f`` on the near-zero piece of the deficit
    integral (valid for any symmetric density; evaluated for the Gaussian)."""
    return 2.0 * tail_mass(g, 0.5)


def lemma4_far_term(g: GaussianDensity) -> float:
    """Bound ``f(1/2)/2 + 5 int_{1/2}^inf f`` on the far-field piece,
    valid for a Gaussian base with ``sigma < 1/2``."""
    sigma = _require_subcritical(g.sigma, "far-field term")
    f_half = math.exp(-1.0 / (8.0 * sigma * sigma)) / (_SQRT_2PI * sigma)
    return 0.5 * f_half + 5.0 * tail_mass(g, 0.5)


def theorem1_upper_bound(sigma: float) -> float:
    """Closed-form deficit bound ``exp(-1/(8 sigma^2)) (1/(2 sigma) + 7) / sqrt(2 pi)``
    for any integer-valued Z, ``0 < sigma < 1/2``."""
    sigma = _require_subcritical(sigma, "closed-form upper bound")
    return math.exp(-1.0 / (8.0 * sigma * sigma)) * (0.5 / sigma + 7.0) / _SQRT_2PI


def bernoulli_lower_bound(sigma: float) -> float:
    """Closed-form deficit lower bound for the fair Bernoulli law on adjacent
    lattice points: ``exp(-1/(8 sigma^2)) ln 2 (2 sigma - 8 sigma^3) / sqrt(2 pi)``,
    positive exactly on ``0 < sigma < 1/2``."""
    sigma = _require_subcritical(sigma, "Bernoulli lower bound")
    return (
        math.exp(-1.0 / (8.0 * sigma * sigma))
        * _LN2
        * (2.0 * sigma - 8.0 * sigma**3)
        / _SQRT_2PI
    )


def big_sigma_lower_bound(sigma: float) -> float:
    """Deficit lower bound ``ln 2 * Q(1/(2 sigma))`` for the fair Bernoulli
    law (Q is the standard normal upper tail); monotone increasing in sigma
    toward ``ln 2 / 2``."""
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"lower bound requires sigma > 0 (got {sigma!r})")
    return _LN2 * tail_mass(GaussianDensity(1.0), 0.5 / sigma)


@dataclass(frozen=True)
class BoundReport:
    """Deficit estimate for one ``(sigma, Z)`` pair with every applicable
    bound; the fields are the sweep's output columns.

    ``ok`` is True when 0 and every present lower bound are at most
    ``delta + delta_err``, ``delta - delta_err`` is at most H(Z) and every
    present upper bound (lemma1, lemma3+lemma4, thm1), and the deficit and
    lemma1 quadratures converged (``converged``).
    """

    sigma: float
    z: DiscreteLattice
    delta: float
    delta_err: float
    lemma1: float
    lemma3: float
    lemma4: Optional[float]
    thm1: Optional[float]
    bern_lb: Optional[float]
    bigsig_lb: Optional[float]
    ok: bool
    converged: bool = True


CSV_COLUMNS = tuple(
    f.name for f in fields(BoundReport) if f.name not in ("z", "converged")
)


def sandwich_report(z: DiscreteLattice, sigma: float) -> BoundReport:
    """Compute the deficit and every bound applicable to ``(Z, sigma)``.

    The Bernoulli-specific lower bounds require an exact structural match
    (two equal-weight atoms on adjacent integers); ``bern_lb`` applies
    below ``sigma = 1/2``, ``bigsig_lb`` at and above it.
    """
    g = GaussianDensity(sigma)
    delta: EntropyValue = deficit_direct(z, g)
    lemma1 = lemma1_upper_bound(g)
    lemma3 = lemma3_near_zero_term(g)
    subcritical = _subcritical(sigma)
    lemma4 = lemma4_far_term(g) if subcritical else None
    thm1 = theorem1_upper_bound(sigma) if subcritical else None
    is_bern = z.is_fair_adjacent_bernoulli()
    bern_lb = bernoulli_lower_bound(sigma) if (is_bern and subcritical) else None
    bigsig_lb = big_sigma_lower_bound(sigma) if (is_bern and not subcritical) else None

    hi = delta.nats + delta.abs_error
    lo = delta.nats - delta.abs_error
    # 0 <= delta <= H(Z) holds for every law
    uppers = [discrete_entropy(z).nats, lemma1.nats]
    if lemma4 is not None:
        uppers.append(lemma3 + lemma4)
    if thm1 is not None:
        uppers.append(thm1)
    lowers = [b for b in (0.0, bern_lb, bigsig_lb) if b is not None]
    converged = delta.converged and lemma1.converged
    ok = (
        all(lb <= hi for lb in lowers)
        and all(lo <= ub for ub in uppers)
        and converged
    )
    return BoundReport(
        sigma=float(sigma),
        z=z,
        delta=delta.nats,
        delta_err=delta.abs_error,
        lemma1=lemma1.nats,
        lemma3=lemma3,
        lemma4=lemma4,
        thm1=thm1,
        bern_lb=bern_lb,
        bigsig_lb=bigsig_lb,
        ok=ok,
        converged=converged,
    )
