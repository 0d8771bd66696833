"""Entropies of lattice laws, base densities, and their mixtures, plus the
entropy deficit ``delta = H(Z) + h(X) - h(X+Z)`` computed by two routes.

``deficit_direct`` integrates the defining expression

    sum_k p_k int f(x-k) ln(1 + sum_{j!=k} p_j f(x-j) / (p_k f(x-k))) dx

and ``deficit_via_identity`` subtracts the quadrature mixture entropy from
``H(Z) + h(X)``.  All atoms are integers, so with ``x = u + n`` both are one
quadrature over ``u`` in ``[-1/2, 1/2]`` of a sum over the integer cells
``n`` near an atom, every cell evaluated in one numpy call.  A Gaussian
deficit integrand peaks at size ``exp(-d^2 / (8 sigma^2))``, ``d`` the
smallest gap between atoms, and is integrated scaled by the inverse of that
factor, so the absolute tolerance acts as a relative one.  Lemma 1 is the
same deficit quadrature on one cell.  The two routes check each other, and a
seeded Monte Carlo estimator is a third; ``entropy_report`` gathers all of
them for one law and base from one mixture-entropy quadrature.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .distributions import (
    BaseDensity,
    DiscreteLattice,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
    _log_sum_exp,
)
from .numerics import integrate


class EntropyMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    IDENTITY = "identity"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class EntropyValue:
    """An entropy (or deficit) in nats with an absolute-error estimate.

    ``abs_error`` is the quadrature error estimate or the Monte Carlo
    standard error; ``converged`` is False when an underlying quadrature
    exhausted its subdivision budget (the value is still usable, flagged).
    """

    nats: float
    method: EntropyMethod
    abs_error: float
    converged: bool = True


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError(
                f"mc-samples {self.samples}: samples must be >= 2 for a standard error"
            )
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def discrete_entropy(z: DiscreteLattice) -> EntropyValue:
    """Shannon entropy ``0 - sum p_i ln p_i`` in nats, +0 for a point mass
    (zero atoms were dropped at construction: ``0 ln 0 -> 0``)."""
    nats = 0.0 - math.fsum(p * lp for p, lp in zip(z.probs, z.log_probs))
    return EntropyValue(nats, EntropyMethod.CLOSED_FORM, 0.0)


def gaussian_entropy(g: BaseDensity) -> EntropyValue:
    """Closed-form differential entropy of a base density: ``(1/2) ln(2 pi e
    sigma^2)`` for a Gaussian, ``ln(2 w)`` for a uniform of half-width ``w``."""
    return EntropyValue(g.entropy_nats(), EntropyMethod.CLOSED_FORM, 0.0)


def _integrate_folded(body, support, log_probs, base, cells=None):
    """``int_{-1/2}^{1/2} body(t(u)) du`` with ``t(u)`` the C x w matrix of
    ``ln p_k + ln f(u + n - k)``: one row per cell ``n`` (default: every
    integer within the base's ``reach`` ``r`` of an atom), over the atoms
    within ``r`` of it, padded with log-weight -inf.  Farther components are
    below ``exp(-800)`` of their peak or zero; ``n - k`` is exact, so far
    atoms lose no digits."""
    w = base.half_width
    r = base.reach
    ks = np.asarray(support, dtype=np.int64)
    if cells is None:
        cells = np.unique(ks[:, None] + np.arange(-r, r + 1))
    lo = np.searchsorted(ks, cells - r)
    hi = np.searchsorted(ks, cells + r, side="right")
    idx = lo[:, None] + np.arange((hi - lo).max())
    pad = idx >= hi[:, None]
    idx[pad] = 0
    offsets = (cells[:, None] - ks[idx]).astype(float)
    offsets[pad] = 0.0  # a far padding offset would overflow u * u at tiny sigma
    lps = np.where(pad, -np.inf, np.asarray(log_probs, dtype=float)[idx])
    # every Gaussian peak sits at u = 0; a narrow one (w < 1/2) is also
    # fenced in at exactly +-w (not mod 1: w + 1/2 rounds to 1/2 below
    # w ~ 5.6e-17), or it falls between the Kronrod nodes next to 0; a
    # uniform base jumps at +-w mod 1
    points = [0.0]
    if isinstance(base, UniformDensity):
        points += [(w + 0.5) % 1.0 - 0.5, (0.5 - w) % 1.0 - 0.5]
    elif w < 0.5:
        points += [w, -w]
    # log(0) of an empty "others" sum is meant (ln(1 + 0) = 0); the inf/nan
    # terms of padding and of a uniform base's zero components are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        qr = integrate(
            lambda u: body(lps + base.log_pdf(u + offsets)),
            -0.5, 0.5, points=points,
        )
    return EntropyValue(
        qr.value, EntropyMethod.QUADRATURE, qr.abs_error_estimate, qr.converged
    )


def _entropy_body(t: np.ndarray) -> float:
    """``-M ln M`` summed over the cells, ``M`` being a cell's mixture density."""
    ld = _log_sum_exp(t)
    return float(-(np.exp(ld) * ld)[ld > -np.inf].sum())


def _deficit_body(t: np.ndarray) -> float:
    """``sum_k p_k f(x-k) ln(1 + r_k(x))`` summed over the cells, ``r_k``
    being the other atoms' mass over atom ``k``'s.

    ``ln(1 + r_k)`` is ``logaddexp(0, ln r_k)``, never ``ln M(x) - t_k``, so
    it keeps its relative accuracy where ``r_k`` is doubly-exponentially
    small; a vanishing component contributes zero.  Only the dominant atom's
    "others" sum is summed on its own; every other is the total minus its
    own term, losing at most one bit (the sum is >= 1, the term <= 1).  A
    cell's total is ``exp(top + ln sum)``, which cannot overflow where
    ``exp(top)`` would.
    """
    rows = np.arange(t.shape[0])
    i = t.argmax(axis=1)
    top = t[rows, i]
    live = top > -np.inf
    top[~live] = 0.0
    e = np.exp(t - top[:, None])
    e[rows, i] = 0.0
    rest = e.sum(axis=1)
    others = (rest[:, None] + 1.0) - e
    others[rows, i] = rest
    e[rows, i] = live
    ln1p_ratio = np.logaddexp(0.0, np.log(others) + (top[:, None] - t))
    total = (e * np.where(e > 0.0, ln1p_ratio, 0.0)).sum(axis=1)
    return float(np.exp(top + np.log(total)).sum())


def mixture_entropy(m: MixtureDensity) -> EntropyValue:
    """``-int f_{X+Z} ln f_{X+Z}`` by one quadrature over the folded period."""
    z = m.lattice
    return _integrate_folded(_entropy_body, z.support, z.log_probs, m.base)


def _deficit_quadrature(support, log_probs, base, cells=None) -> EntropyValue:
    """The deficit integral over the folded period.  For a Gaussian base the
    weights are scaled by ``exp(d^2 / (8 sigma^2))``, ``d`` the smallest gap,
    which brings the integrand (linear in a common weight) to a peak of
    order 1; the result is scaled back.  Below the smallest normal double
    the error also counts the roundings of the scale and the product."""
    s = 0.0
    if isinstance(base, GaussianDensity) and len(support) > 1:
        s = float(np.diff(support).min()) ** 2 / (8.0 * base.sigma**2)
    lps = np.add(log_probs, s)
    v = _integrate_folded(_deficit_body, support, lps, base, cells)
    scale = math.exp(-s)
    nats, err = v.nats * scale, v.abs_error * scale
    if v.nats > 0.0 and nats < sys.float_info.min:
        err += v.nats * math.ulp(scale) + math.ulp(nats)
    return replace(v, nats=nats, abs_error=err)


def deficit_direct(z: DiscreteLattice, base: BaseDensity) -> EntropyValue:
    """Deficit ``H(Z) + h(X) - h(X+Z)`` from its defining integral, one
    quadrature over the folded period.  For adjacent atoms it is subnormal
    below ``sigma`` ~ 0.0134 (its error covers the rounding) and 0 below ~ 0.0129."""
    return _deficit_quadrature(z.support, z.log_probs, base)


def deficit_via_identity(
    z: DiscreteLattice,
    base: BaseDensity,
    hm: Optional[EntropyValue] = None,
) -> EntropyValue:
    """Deficit as ``H(Z) + h(X) - h(X+Z)`` with the mixture entropy ``hm``
    (from quadrature unless given); the error is the sum of the component
    error estimates."""
    hz = discrete_entropy(z)
    hx = gaussian_entropy(base)
    if hm is None:
        hm = mixture_entropy(MixtureDensity(base, z))
    return EntropyValue(
        hz.nats + hx.nats - hm.nats,
        EntropyMethod.IDENTITY,
        hz.abs_error + hx.abs_error + hm.abs_error,
        hm.converged,
    )


def mc_entropy(m: MixtureDensity, cfg: McConfig) -> EntropyValue:
    """Plug-in Monte Carlo entropy: ``-mean(log_density(x_i))`` over samples
    drawn from the mixture itself, with the standard error of the mean as
    the error estimate.  Same seed, same result, bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    xs = m.sample(rng, cfg.samples)
    ld = m.log_density(xs)
    nats = -float(np.mean(ld))
    se = float(np.std(ld, ddof=1) / math.sqrt(cfg.samples))
    return EntropyValue(nats, EntropyMethod.MONTE_CARLO, se)


def entropy_report(
    z: DiscreteLattice,
    base: BaseDensity,
    mc: Optional[McConfig] = None,
) -> dict[str, EntropyValue]:
    """The quantities ``mixent entropy`` prints, by name in print order:
    ``H_Z``, ``h_X``, ``h_mixture``, ``delta_direct``, ``delta_identity``
    (from that one ``h_mixture``) and, with ``mc``, ``h_mc``."""
    m = MixtureDensity(base, z)
    hm = mixture_entropy(m)
    report = {
        "H_Z": discrete_entropy(z),
        "h_X": gaussian_entropy(base),
        "h_mixture": hm,
        "delta_direct": deficit_direct(z, base),
        "delta_identity": deficit_via_identity(z, base, hm),
    }
    if mc is not None:
        report["h_mc"] = mc_entropy(m, mc)
    return report
