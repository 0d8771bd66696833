"""Discrete laws on the integer lattice, continuous base densities, and their mixtures.

The central object is the law of ``X + Z`` for an integer-valued ``Z`` and an
independent continuous ``X`` with density ``f``: its density is the shifted
mixture ``sum_k p_k f(x - k)``.  All mixture evaluation happens in log space
(max-shifted log-sum-exp) so that ratios of doubly-exponentially small
component densities remain representable.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import erfc

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Probability vectors whose sum is off by more than this are rejected;
# anything closer is silently renormalized (tolerates decimal literals).
PROB_SUM_TOL = 1e-12

# Lattice sums and quadratures reach this many sigmas out: exp(-800) underflows.
WINDOW_SIGMAS = 40.0


class DistributionError(ValueError):
    """A distribution parameter violates one of its construction invariants."""


def _real(x, what: str):
    """``x``, if it is a number: not a bool, a string or None (JSON ``null``)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DistributionError(f"{what} {x!r} is not a number")
    return x


def _positive(x, what: str) -> float:
    """``x`` as a float, if it is a positive finite number."""
    x = float(_real(x, what))
    if not (math.isfinite(x) and x > 0.0):
        raise DistributionError(f"{what} must be a positive finite real (got {x!r})")
    return x


def _lattice_int(x, what: str) -> int:
    """``x`` as an int, if it is an integer within +-2**53: beyond that
    doubles no longer hold every integer, so an entry would silently move."""
    exact = x if isinstance(_real(x, what), (int, np.integer)) else float(x)
    if isinstance(exact, float) and not exact.is_integer():
        raise DistributionError(f"{what} {x!r} is not an integer")
    if abs(exact) > 2**53:
        raise DistributionError(f"{what} {x!r} is beyond +-2**53")
    return int(exact)


@dataclass(frozen=True)
class DiscreteLattice:
    """Probability mass function on integer lattice points.

    Invariants enforced at construction:

    * support entries are integers, distinct, sorted ascending;
    * every probability lies in ``[0, 1]`` and the vector sums to 1 within
      ``PROB_SUM_TOL`` (then renormalized exactly);
    * zero-probability atoms are dropped, so ``0 ln 0`` terms never arise
      downstream.
    """

    support: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        support = list(self.support)
        probs = [float(_real(p, "probability")) for p in self.probs]
        if len(support) != len(probs):
            raise DistributionError(
                f"support has {len(support)} entries but probs has {len(probs)}"
            )
        if not support:
            raise DistributionError("support must not be empty")
        cleaned = [_lattice_int(k, "support entry") for k in support]
        for p in probs:
            if not (0.0 <= p <= 1.0):
                raise DistributionError(f"probability {p!r} is outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DistributionError(
                f"probabilities must sum to 1 within {PROB_SUM_TOL} (got {total!r})"
            )
        pairs = sorted(
            ((k, p / total) for k, p in zip(cleaned, probs) if p > 0.0),
        )
        if not pairs:
            raise DistributionError("all probabilities are zero")
        ks = [k for k, _ in pairs]
        if len(set(ks)) != len(ks):
            raise DistributionError(f"support entries are not distinct: {ks}")
        object.__setattr__(self, "support", tuple(ks))
        object.__setattr__(self, "probs", tuple(p for _, p in pairs))
        object.__setattr__(
            self, "_log_probs", tuple(math.log(p) for _, p in pairs)
        )

    @property
    def log_probs(self) -> tuple[float, ...]:
        return self._log_probs  # type: ignore[attr-defined]

    def is_fair_adjacent_bernoulli(self) -> bool:
        """Exactly two equal-weight atoms on adjacent integers (no fuzziness)."""
        return (
            len(self.support) == 2
            and self.support[1] - self.support[0] == 1
            and self.probs[0] == self.probs[1]
        )

    # -- construction helpers / JSON wire format --

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteLattice":
        """Law with P(Z=1) = p, P(Z=0) = 1 - p."""
        p = _real(p, "bernoulli")
        return cls((1, 0), (p, 1.0 - p))

    @classmethod
    def uniform_support(cls, n: int) -> "DiscreteLattice":
        """Uniform law on {0, 1, ..., n-1}."""
        n = _lattice_int(n, "uniform_support size")
        if n < 1:
            raise DistributionError(f"uniform_support size must be >= 1 (got {n})")
        return cls(tuple(range(n)), (1.0 / n,) * n)

    @classmethod
    def point_mass(cls, k: int = 0) -> "DiscreteLattice":
        return cls((k,), (1.0,))

    @classmethod
    def from_json(cls, doc: Union[str, dict]) -> "DiscreteLattice":
        """Parse ``{"support": [...], "probs": [...]}`` or the shorthands
        ``{"bernoulli": p}`` and ``{"uniform_support": n}``: the keys must be
        exactly one of these three forms."""
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise DistributionError(f"invalid distribution JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DistributionError("distribution JSON must be an object")
        if set(doc) not in ({"support", "probs"}, {"bernoulli"}, {"uniform_support"}):
            raise DistributionError(
                'distribution JSON needs exactly the keys "support" and "probs", '
                f'"bernoulli", or "uniform_support" (got {sorted(doc)})'
            )
        if "bernoulli" in doc:
            return cls.bernoulli(doc["bernoulli"])
        if "uniform_support" in doc:
            return cls.uniform_support(doc["uniform_support"])
        if not all(isinstance(doc[k], list) for k in ("support", "probs")):
            raise DistributionError('"support" and "probs" must be JSON arrays')
        return cls(tuple(doc["support"]), tuple(doc["probs"]))

    def to_json(self) -> dict:
        return {"support": list(self.support), "probs": list(self.probs)}


@dataclass(frozen=True)
class GaussianDensity:
    """Mean-zero normal density with standard deviation ``sigma`` (lattice units)."""

    sigma: float

    def __post_init__(self) -> None:
        sigma = _positive(self.sigma, "sigma")
        # the density, its entropy and the deficit's scale all square sigma;
        # these are exactly the sigmas whose square is a normal double
        if not 2.0**-511 <= sigma < 2.0**512:
            raise DistributionError(
                f"sigma {sigma!r} is outside [2**-511, 2**512): its square "
                "must be a finite normal double"
            )
        object.__setattr__(self, "sigma", sigma)

    @property
    def half_width(self) -> float:
        return WINDOW_SIGMAS * self.sigma

    @property
    def reach(self) -> int:
        """How many cells out from an atom the fold and lattice sums reach."""
        return math.ceil(0.5 + self.half_width)

    def log_pdf(self, x):
        u = np.asarray(x, dtype=float) / self.sigma
        return -0.5 * u * u - math.log(self.sigma) - _LOG_SQRT_2PI

    def entropy_nats(self) -> float:
        return 0.5 * math.log(2.0 * math.pi * math.e * self.sigma**2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=n)


@dataclass(frozen=True)
class UniformDensity:
    """Symmetric uniform density on ``(-half_width, half_width)``."""

    half_width: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "half_width", _positive(self.half_width, "half_width"))

    reach = GaussianDensity.reach  # the same rule on this half_width

    def log_pdf(self, x):
        inside_log = -math.log(2.0 * self.half_width)
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < self.half_width, inside_log, -np.inf)

    def entropy_nats(self) -> float:
        return math.log(2.0 * self.half_width)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=n)


BaseDensity = Union[GaussianDensity, UniformDensity]


def tail_mass(g: GaussianDensity, z: float) -> float:
    """Upper-tail integral of ``g`` beyond ``z``, via the complementary error
    function (accurate to >= 12 significant digits over ``|z/sigma| <= 30``)."""
    return 0.5 * erfc(float(z) / (g.sigma * math.sqrt(2.0)))


def _log_sum_exp(t: np.ndarray, axis: int = -1) -> np.ndarray:
    """``ln sum exp(t)`` over ``axis``, shifted by the maximum along it so
    that nothing overflows; a line of ``-inf`` gives ``-inf``.  Works in
    place: ``t`` is overwritten."""
    top = t.max(axis=axis, keepdims=True)
    top[top == -np.inf] = 0.0
    t -= top
    np.exp(t, out=t)
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis) + np.log(t.sum(axis=axis))


@dataclass(frozen=True)
class MixtureDensity:
    """Density of ``X + Z``: ``sum_k p_k f(x - k)`` with stable log evaluation."""

    base: BaseDensity
    lattice: DiscreteLattice

    def log_density(self, x):
        """``ln sum_k p_k f(x - k)`` via max-shifted log-sum-exp.

        Returns ``-inf`` only when every component is a true zero (uniform
        base outside its support); for a Gaussian base the value is finite at
        any finite ``x``.  Accepts scalars or arrays and keeps their shape.
        The components form one K x N array, atoms on axis 0, reduced in
        place over the atoms: adding K contiguous rows is much faster than
        summing N rows of length K.
        """
        x = np.asarray(x, dtype=float)
        col = (-1,) + (1,) * x.ndim
        support = np.asarray(self.lattice.support, dtype=float).reshape(col)
        t = self.base.log_pdf(x - support)
        t += np.asarray(self.lattice.log_probs).reshape(col)
        return _log_sum_exp(t, axis=0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        atoms = rng.choice(
            np.asarray(self.lattice.support, dtype=float),
            size=n,
            p=np.asarray(self.lattice.probs),
        )
        return atoms + self.base.sample(rng, n)
