"""Numerical kernels: adaptive quadrature, lattice Gaussian sums, and
Gaussian tail estimates.

Quadrature is a globally adaptive 21-point Gauss-Kronrod rule in numpy:
QUADPACK's ``dqk21`` (Piessens et al., 1983) applied to every panel at
once, with the integrand called on all nodes of all new panels together.
It bisects the panels with the largest error until the summed estimate
meets ``max(_ABS_TOL, _REL_TOL * |value|)``, on finite intervals only: the
package integrates over one period of its folded integrands.  Results are
never raised as convergence errors; a spent subdivision budget, or an error
stuck at the round-off floor of every panel, is reported through
``QuadratureResult.converged`` so callers can decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import GaussianDensity

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# The subdivision budget: at most this many panels; running out flags a
# result unconverged.
_MAX_SUBDIVISIONS = 2000
# Termination tolerances: absolute, and relative to |value|.
_ABS_TOL = 1e-12
_REL_TOL = 1e-10

# QUADPACK's dqk21 tables: the Kronrod abscissae on [0, 1), those of the
# 10-point Gauss rule at the odd indices, and the two rules' weights;
# _XGK[10] = 0 is the centre.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208093160995, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# node offsets from a panel's centre, in half-lengths: -_XGK[0..9], 0, _XGK[9..0]
_NODES = np.concatenate([-_XGK[:10], _XGK[10::-1]])
# dqk21 adds the Kronrod terms of the Gauss nodes first
_KRONROD_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_EPS = 2.0**-52
_UFLOW = 2.0**-1022


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool = True


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's ``dqk21`` on the panels ``(lo[i], hi[i])``, all in one call
    of ``f``, in ``dqk21``'s order of operations: per panel the Kronrod
    value, the error estimate and its round-off floor ``50 eps resabs``,
    ``resabs`` being the rule applied to ``|f|`` (0 where that underflows).
    Each of ``dqk21``'s running sums is one ``np.add.accumulate`` down the
    node axis, which adds in the loop's order."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    fv = np.asarray(f((centr[:, None] + hlgth[:, None] * _NODES).ravel()), dtype=float)
    fv = fv.reshape(centr.size, 21)
    fc = fv[:, 10]
    f1, f2 = fv[:, :10].T, fv[:, :10:-1].T  # f(centr -+ hlgth * _XGK[j]), j = 0..9
    fsum = f1 + f2
    k = _KRONROD_ORDER
    w = _WGK[k, None]
    resg = np.add.accumulate(_WG[:, None] * fsum[1::2])[-1]
    resk = np.add.accumulate(np.vstack([_WGK[10] * fc, w * fsum[k]]))[-1]
    absk = np.vstack([np.abs(_WGK[10] * fc), w * (np.abs(f1[k]) + np.abs(f2[k]))])
    resabs = np.add.accumulate(absk)[-1]
    reskh = resk * 0.5
    dev = np.vstack([
        _WGK[10] * np.abs(fc - reskh),
        _WGK[:10, None] * (np.abs(f1 - reskh) + np.abs(f2 - reskh)),
    ])
    resasc = np.add.accumulate(dev)[-1]
    dhlgth = np.abs(hlgth)
    value = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    err = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (err != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(scaled, resasc * ratio, err)
    floor = np.where(resabs > _UFLOW / (50.0 * _EPS), (_EPS * 50.0) * resabs, 0.0)
    return value, np.maximum(floor, err), floor


def _sequential_sum(x: np.ndarray) -> float:
    """``x[0] + x[1] + ...`` left to right, as QUADPACK sums its panels."""
    return float(np.add.accumulate(x)[-1])


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    points: Optional[Sequence[float]] = None,
) -> QuadratureResult:
    """Integrate ``f`` over the finite interval ``(a, b)``.

    ``f`` maps a 1-D array of abscissae to the array of its values; it is
    called once per round, on the 21 nodes of every panel evaluated in that
    round; ``evaluations`` counts them.  ``points`` marks interior locations
    of spikes or kinks; the initial panels are the intervals between them.
    Each round bisects the panels with the largest error, as many as it
    takes for their errors to cover the excess over the tolerance, and
    evaluates only the new halves.  A result is always returned;
    ``converged`` is False when the estimate could not be brought below
    ``max(_ABS_TOL, _REL_TOL * |value|)``: the budget of
    ``_MAX_SUBDIVISIONS`` panels ran out, or every panel's error sits at its
    ``50 eps resabs`` round-off floor, which bisection cannot lower.  An
    infinite, NaN or empty interval raises ``ValueError``.
    """
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"need finite a < b (got a={a!r}, b={b!r})")
    edges = [a, b]
    if points is not None:
        edges = [a] + sorted({float(p) for p in points if a < p < b}) + [b]
    lo = np.array(edges[:-1], dtype=float)
    hi = np.array(edges[1:], dtype=float)
    value, err, floor = _gk21(f, lo, hi)
    evaluations = 21 * lo.size
    while True:
        total = _sequential_sum(value)
        errsum = _sequential_sum(err)
        excess = errsum - max(_ABS_TOL, _REL_TOL * abs(total))
        # bisect the largest errors above their round-off floor, enough of
        # them to cover the excess, within the budget
        live = np.flatnonzero(err > floor)
        room = _MAX_SUBDIVISIONS - lo.size
        if excess <= 0.0 or live.size == 0 or room <= 0:
            break
        live = live[np.argsort(-err[live], kind="stable")]
        need = int(np.searchsorted(np.cumsum(err[live]), excess)) + 1
        split = np.sort(live[: min(need, room)])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new = _gk21(f, new_lo, new_hi)
        evaluations += 21 * new_lo.size
        # the halves replace their panel; all stay in order of position
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        merged = [
            np.concatenate([old[keep], fresh])
            for old, fresh in zip((lo, hi, value, err, floor), (new_lo, new_hi) + new)
        ]
        order = np.argsort(merged[0], kind="stable")
        lo, hi, value, err, floor = (m[order] for m in merged)
    return QuadratureResult(
        value=total,
        abs_error_estimate=errsum,
        evaluations=evaluations,
        converged=excess <= 0.0,
    )


def lattice_sum(g: GaussianDensity, epsilon: float | np.ndarray) -> float | np.ndarray:
    """``sum_{m in Z} f(epsilon + m)`` for the density of ``g``, elementwise
    over a scalar or an array ``epsilon`` (a float for a scalar).

    ``epsilon`` is first reduced modulo 1 to ``[-1/2, 1/2]`` (the sum is
    shift invariant).  The peak and the symmetric term pairs of
    ``m = 1 .. g.reach``, the quadratures' reach (every farther term
    underflows to 0), are laid along a trailing axis and added outward,
    left to right, so each element has the bits of its own scalar call.
    """
    sigma = g.sigma
    inv2s2 = 1.0 / (2.0 * sigma * sigma)

    def term(x):
        return np.exp(-(x * x) * inv2s2)

    eps = np.asarray(epsilon, dtype=float)
    eps = (eps - np.round(eps))[..., None]
    m = np.arange(1, g.reach + 1)
    terms = np.concatenate([term(eps), term(eps + m) + term(eps - m)], axis=-1)
    total = np.add.accumulate(terms, axis=-1)[..., -1] / (_SQRT_2PI * sigma)
    return float(total) if total.ndim == 0 else total


def gaussian_tail_lower(z: float) -> float:
    """Closed-form lower bound ``phi(z) (1/z - 1/z^3)`` on the standard
    normal upper tail; positive and valid only for ``z > 1``."""
    z = float(z)
    if not z > 1.0:
        raise ValueError(f"tail lower bound requires z > 1 (got {z!r})")
    phi = math.exp(-0.5 * z * z) / _SQRT_2PI
    return phi * (1.0 / z - 1.0 / z**3)
