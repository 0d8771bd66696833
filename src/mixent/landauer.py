"""Entropy accounting for resetting a single bit stored as a particle in a
double well.

Before reset the particle position follows a two-Gaussian mixture (weight
``p1`` in the well at ``+mu``, ``1 - p1`` at ``-mu``, in-well standard
deviation ``sigma``); after a reset to logic zero it follows the single
Gaussian.  The entropy drop equals the binary entropy ``H(p1)`` minus the
mixture deficit, so for well separations large against the noise the drop
approaches ``ln 2`` nats per bit, the entropy side of the Landauer relation
(heat and temperature bookkeeping are out of scope here).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .bounds import _subcritical, theorem1_upper_bound
from .distributions import (
    DiscreteLattice, DistributionError, GaussianDensity, _positive, _real,
)
from .entropy import deficit_direct, discrete_entropy
from .numerics import _LN2


@dataclass(frozen=True)
class BitMemoryModel:
    """Double-well bit: well centers at ``+-mu``, in-well deviation ``sigma``,
    probability ``p1`` of logic state one; ``sigma`` and ``p1`` are checked
    by the unit-lattice noise and law they map to."""

    mu: float
    sigma: float
    p1: float

    def __post_init__(self) -> None:
        _positive(self.mu, "mu")
        try:
            rescale_to_unit_lattice(self)
        except DistributionError as exc:
            fields = f"mu {self.mu!r}, sigma {self.sigma!r}, p1 {self.p1!r}"
            raise DistributionError(f"{fields}: {exc}") from exc

    @property
    def sigma_eff(self) -> float:
        """Noise scale after mapping the well separation to the unit lattice."""
        return _real(self.sigma, "sigma") / (2.0 * self.mu)


def rescale_to_unit_lattice(
    model: BitMemoryModel,
) -> tuple[DiscreteLattice, GaussianDensity]:
    """Map well centers ``{-mu, +mu}`` to lattice points ``{0, 1}``.

    The affine change ``x -> (x + mu) / (2 mu)`` divides the noise scale by
    ``2 mu`` and shifts every differential entropy by ``-ln(2 mu)``
    (``h(aX) = h(X) + ln a``); the deficit, a difference of entropies, is
    unchanged.  ``p1`` 0 or 1 leaves a point mass: the lattice drops the
    empty well.
    """
    return DiscreteLattice.bernoulli(model.p1), GaussianDensity(model.sigma_eff)


@dataclass(frozen=True)
class ResetReport:
    """Entropy balance of resetting the bit to logic zero.

    ``h_before`` is assembled through the exact identity
    ``h(mixture) = H(p1) + h(noise) - deficit`` with the deficit from
    quadrature.  ``delta_h`` is computed as ``ideal - deficit``, not as
    ``h_before - h_after``, whose rounding (up to an ulp of ``h_after``) can
    exceed the deficit by orders of magnitude, so the drop stays meaningful
    even when the deficit is far below the rounding error of the entropies.
    """

    mu: float
    sigma: float
    p1: float
    h_before: float
    h_after: float
    delta_h: float
    ideal: float
    deficit: float
    deficit_err: float
    envelope: Optional[float]
    converged: bool = True

    def in_bits(self) -> "ResetReport":
        """Same report with every entropy converted from nats to bits."""
        scale = 1.0 / _LN2
        nats = ("h_before", "h_after", "delta_h", "ideal",
                "deficit", "deficit_err", "envelope")
        return replace(self, **{
            f: v * scale for f in nats if (v := getattr(self, f)) is not None
        })


CSV_COLUMNS = tuple(
    f.name for f in fields(ResetReport) if f.name not in ("deficit_err", "converged")
)


def reset_report(model: BitMemoryModel) -> ResetReport:
    """Entropy before and after the reset, the drop, the ideal ``H(p1)``,
    the deficit correction, and (for ``sigma_eff < 1/2``) the closed-form
    envelope bounding how far the drop can fall short of ideal."""
    lattice, g_eff = rescale_to_unit_lattice(model)
    delta = deficit_direct(lattice, g_eff)
    ideal = discrete_entropy(lattice).nats
    h_after = GaussianDensity(model.sigma).entropy_nats()
    # h(noise_eff) + ln(2 mu) == h(noise) == h_after, so the identity
    # route gives h_before with the deficit as the only numeric term.
    h_before = ideal + h_after - delta.nats
    envelope = theorem1_upper_bound(g_eff.sigma) if _subcritical(g_eff.sigma) else None
    return ResetReport(
        mu=model.mu,
        sigma=model.sigma,
        p1=model.p1,
        h_before=h_before,
        h_after=h_after,
        delta_h=ideal - delta.nats,
        ideal=ideal,
        deficit=delta.nats,
        deficit_err=delta.abs_error,
        envelope=envelope,
        converged=delta.converged,
    )
