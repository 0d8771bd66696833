"""Numerical kernels: adaptive quadrature, lattice Gaussian sums, and
Gaussian tail estimates.

Quadrature is delegated to QUADPACK (``scipy.integrate.quad``): a globally
adaptive embedded Gauss-Kronrod rule with the fixed termination criterion
``estimate <= max(1e-12, 1e-10 * |value|)``; infinite endpoints are
handled by QUADPACK's smooth compactifying change of variables.  Results are
never raised as convergence errors; a failed subdivision budget is reported
through ``QuadratureResult.converged`` so callers can decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from scipy.integrate import quad as _quadpack

from .distributions import GaussianDensity

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# QUADPACK's subdivision budget; exhausting it flags a result unconverged.
_MAX_SUBDIVISIONS = 2000
# QUADPACK's termination tolerances: absolute, and relative to |value|.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10


class InvalidInterval(ValueError):
    """Integration interval with ``a >= b``."""


class DomainError(ValueError):
    """Argument outside the domain where a closed-form bound is meaningful."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool = True


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    points: Optional[Sequence[float]] = None,
) -> QuadratureResult:
    """Integrate ``f`` over ``(a, b)`` (endpoints may be infinite).

    ``points`` marks interior locations of spikes or kinks; they are passed
    to the subdivision as mandatory break points (finite intervals only).
    A result is always returned; ``converged`` is False when the estimate
    could not be brought below ``max(_ABS_TOL, _REL_TOL * |value|)``.
    """
    if not a < b:
        raise InvalidInterval(f"need a < b (got a={a!r}, b={b!r})")
    kwargs = {}
    if points is not None and math.isfinite(a) and math.isfinite(b):
        interior = sorted(p for p in points if a < p < b)
        if interior:
            kwargs["points"] = interior
    out = _quadpack(
        f,
        a,
        b,
        epsabs=_ABS_TOL,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
        **kwargs,
    )
    value, abs_err, info = out[0], out[1], out[2]
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(abs_err),
        evaluations=int(info["neval"]),
        converged=len(out) == 3,
    )


def lattice_sum(g: GaussianDensity, epsilon: float) -> float:
    """``sum_{m in Z} f(epsilon + m)`` for the density of ``g``.

    ``epsilon`` is first reduced modulo 1 to ``[-1/2, 1/2]`` (the sum is
    shift invariant), then symmetric term pairs are accumulated outward over
    ``m = 1 .. g.reach``, the quadratures' reach: every farther term
    underflows to 0.
    """
    sigma = g.sigma
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    eps = float(epsilon) - round(float(epsilon))
    total = math.exp(-(eps * eps) * inv2s2)
    for m in range(1, g.reach + 1):
        up = eps + m
        dn = eps - m
        total += math.exp(-(up * up) * inv2s2) + math.exp(-(dn * dn) * inv2s2)
    return total / (_SQRT_2PI * sigma)


def gaussian_tail_lower(z: float) -> float:
    """Closed-form lower bound ``phi(z) (1/z - 1/z^3)`` on the standard
    normal upper tail; positive and valid only for ``z > 1``."""
    z = float(z)
    if not z > 1.0:
        raise DomainError(f"tail lower bound requires z > 1 (got {z!r})")
    phi = math.exp(-0.5 * z * z) / _SQRT_2PI
    return phi * (1.0 / z - 1.0 / z**3)
