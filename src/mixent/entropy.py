"""Entropies of lattice laws, base densities, and their mixtures, plus the
entropy deficit ``delta = H(Z) + h(X) - h(X+Z)`` computed by two routes.

``deficit_direct`` integrates the defining expression

    sum_k p_k int f(x-k) ln(1 + sum_{j!=k} p_j f(x-j) / (p_k f(x-k))) dx

and ``deficit_via_identity`` subtracts the quadrature mixture entropy from
``H(Z) + h(X)``.  Both integrate per cluster of overlapping atom windows, one
fused integrand per cluster evaluating all of its atoms in one numpy call.
The two routes check each other, and a seeded Monte Carlo estimator is a third.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .distributions import (
    BaseDensity,
    DiscreteLattice,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, integrate

# Gaussian mass truncated beyond this many sigmas from an atom is below
# exp(-800), far under every tolerance in use.
WINDOW_SIGMAS = 40.0

# Below this sigma the deficit integral underflows double precision; the
# direct route then reports 0 with the closed-form upper bound as its error.
SMALL_SIGMA_FLOOR = 0.02


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
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def discrete_entropy(z: DiscreteLattice) -> EntropyValue:
    """Shannon entropy ``-sum p_i ln p_i`` in nats (zero atoms were dropped
    at construction, implementing the ``0 ln 0 -> 0`` convention)."""
    nats = -math.fsum(p * lp for p, lp in zip(z.probs, z.log_probs))
    return EntropyValue(nats, EntropyMethod.CLOSED_FORM, 0.0)


def gaussian_entropy(g: GaussianDensity) -> EntropyValue:
    """Differential entropy ``(1/2) ln(2 pi e sigma^2)``."""
    return EntropyValue(g.entropy_nats(), EntropyMethod.CLOSED_FORM, 0.0)


def base_entropy(base: BaseDensity) -> EntropyValue:
    """Closed-form differential entropy of a supported base density."""
    return EntropyValue(base.entropy_nats(), EntropyMethod.CLOSED_FORM, 0.0)


class _Cluster(NamedTuple):
    """Atoms whose windows (``k +- 40 sigma``, or a uniform base's support)
    overlap.  Every point of ``[lo, hi]`` is at least one window from any
    atom outside the cluster, where a Gaussian component is below
    ``exp(-800)`` of its peak, so clusters are integrated apart."""

    lo: float
    hi: float
    support: np.ndarray
    log_probs: np.ndarray
    # Gaussian peaks (the atoms) or uniform edges: mandatory break points
    points: list[float]

    def log_terms(self, base: BaseDensity, x: float) -> np.ndarray:
        """``ln p_k + ln f(x - k)`` for every atom of the cluster."""
        return self.log_probs + base.log_pdf(x - self.support)


def _clusters(z: DiscreteLattice, base: BaseDensity) -> list[_Cluster]:
    """Merge the atoms' windows into clusters, in support order."""
    uniform = isinstance(base, UniformDensity)
    pad = base.half_width if uniform else WINDOW_SIGMAS * base.sigma
    ks = np.asarray(z.support, dtype=float)
    # windows that at most touch share no mass: start a new cluster there
    cuts = np.flatnonzero(np.diff(ks) >= 2.0 * pad) + 1
    clusters = []
    for idx in np.split(np.arange(ks.size), cuts):
        # integrals are shift invariant: centre each cluster on its first
        # atom so far-out atoms lose no digits to large abscissae
        k = ks[idx] - ks[idx[0]]
        points = np.union1d(k - pad, k + pad) if uniform else k
        lps = np.asarray(z.log_probs)[idx]
        clusters.append(_Cluster(k[0] - pad, k[-1] + pad, k, lps, points.tolist()))
    return clusters


def _integrate_clusters(clusters, base, integrand_for, cfg) -> EntropyValue:
    """One quadrature per cluster, summed; errors add, and all must converge."""
    total = err = 0.0
    converged = True
    for c in clusters:
        qr = integrate(integrand_for(c, base), c.lo, c.hi, cfg, points=c.points)
        total += qr.value
        err += qr.abs_error_estimate
        converged = converged and qr.converged
    return EntropyValue(total, EntropyMethod.QUADRATURE, err, converged)


def _entropy_integrand(c: _Cluster, base: BaseDensity):
    """Integrand ``-M ln M`` of the cluster's mixture density ``M``."""

    def integrand(x: float) -> float:
        t = c.log_terms(base, x)
        top = t.max()
        if top == -math.inf:
            return 0.0
        ld = top + math.log(np.exp(t - top).sum())
        return -math.exp(ld) * ld

    return integrand


def mixture_entropy(
    m: MixtureDensity, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> EntropyValue:
    """``-int f_{X+Z} ln f_{X+Z}`` by adaptive quadrature, one integral per
    cluster of overlapping atom windows."""
    return _integrate_clusters(
        _clusters(m.lattice, m.base), m.base, _entropy_integrand, cfg
    )


def _deficit_integrand(c: _Cluster, base: BaseDensity):
    """Integrand ``sum_k p_k f(x-k) ln(1 + r_k(x))`` over the cluster's
    atoms, ``r_k`` being the other atoms' mass over atom ``k``'s.

    ``ln(1 + r_k)`` is ``logaddexp(0, ln r_k)``, never ``ln M(x) - t_k``, so
    it keeps its relative accuracy where ``r_k`` is doubly-exponentially
    small.  A vanishing component contributes zero, the continuous limit.

    The "others" sums cost O(K): only the dominant atom's is summed on its
    own; every other atom's is the total minus its own term, which loses at
    most one bit because that sum is at least 1 and the term at most 1.
    """

    def integrand(x: float) -> float:
        t = c.log_terms(base, x)
        i = t.argmax()
        top = t[i]
        e = np.exp(t - top)
        e[i] = 0.0
        rest = e.sum()
        others = (rest + 1.0) - e
        others[i] = rest
        e[i] = 1.0
        ln1p_ratio = np.logaddexp(0.0, np.log(others) + (top - t))
        return math.exp(top) * float((e * np.where(e > 0.0, ln1p_ratio, 0.0)).sum())

    return integrand


def deficit_direct(
    z: DiscreteLattice,
    base: BaseDensity,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> EntropyValue:
    """Deficit ``H(Z) + h(X) - h(X+Z)`` from its defining integral, one
    quadrature per cluster of overlapping atom windows; a lone atom overlaps
    nothing and adds 0.

    For a Gaussian base with ``sigma < SMALL_SIGMA_FLOOR`` the integral
    underflows double precision; the result is then 0 with the closed-form
    upper bound as an honest error envelope.
    """
    if isinstance(base, GaussianDensity) and base.sigma < SMALL_SIGMA_FLOOR:
        from .bounds import theorem1_upper_bound

        return EntropyValue(
            0.0, EntropyMethod.QUADRATURE, theorem1_upper_bound(base.sigma)
        )
    clusters = [c for c in _clusters(z, base) if c.support.size > 1]
    # log(0) of an empty "others" sum is meant (ln(1 + 0) = 0); the inf/nan
    # terms of a zero component (uniform base) are masked by their weight
    with np.errstate(divide="ignore", invalid="ignore"):
        return _integrate_clusters(clusters, base, _deficit_integrand, cfg)


def deficit_via_identity(
    z: DiscreteLattice,
    base: BaseDensity,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    hm: Optional[EntropyValue] = None,
) -> EntropyValue:
    """Deficit as ``H(Z) + h(X) - h(X+Z)`` with the mixture entropy ``hm``
    (from quadrature unless given); the error is the sum of the component
    error estimates."""
    hz = discrete_entropy(z)
    hx = base_entropy(base)
    if hm is None:
        hm = mixture_entropy(MixtureDensity(base, z), cfg)
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
    if cfg.samples < 2:
        raise ValueError("mc_entropy needs samples >= 2 for a standard error")
    rng = np.random.default_rng(cfg.seed)
    xs = m.sample(rng, cfg.samples)
    ld = m.log_density(xs)
    nats = -float(np.mean(ld))
    se = float(np.std(ld, ddof=1) / math.sqrt(cfg.samples))
    return EntropyValue(nats, EntropyMethod.MONTE_CARLO, se)
