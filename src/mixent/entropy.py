"""Entropies of lattice laws, base densities, and their mixtures, plus the
entropy deficit ``delta = H(Z) + h(X) - h(X+Z)`` computed by two routes.

``deficit_direct`` integrates the defining expression

    sum_k p_k int f(x-k) ln(1 + sum_{j!=k} p_j f(x-j) / (p_k f(x-k))) dx

and ``deficit_via_identity`` subtracts the quadrature mixture entropy from
``H(Z) + h(X)``.  All atoms are integers, so with ``x = u + n`` both are one
quadrature over ``u`` in ``[-1/2, 1/2]`` of a sum over the integer cells
``n`` near an atom; one call of the integrand evaluates every node of a
quadrature round at every cell, in slices of bounded size with the atoms on
axis 0, and the deficit integrand is a closed sum of nonnegative terms.  A
Gaussian deficit integrand peaks at size ``exp(-d^2 / (8 sigma^2))``, ``d``
the smallest gap between atoms, and is integrated scaled by the inverse of
that factor, so the absolute tolerance acts as a relative one.  Lemma 1 is the
same deficit quadrature on one cell.  The two routes check each other, and a
seeded Monte Carlo estimator, which scores its samples by
``MixtureDensity.log_density``, is a third; ``entropy_report`` gathers all
of them for one law and base from one mixture-entropy quadrature.
"""

from __future__ import annotations

import enum
import math
import numbers
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


# Monte Carlo scores each atom's samples in blocks of at most this many
# (fewer where their K x block array of components would pass 2**18
# doubles), and a score's last bits can depend on where its run is cut
# into blocks.  On a 2-vCPU x86 host, mc_entropy at N = 10**6 on the 20
# (law, sigma) pairs of the checks' identity grid, one after another, took
# 0.63-0.82 s (median 0.67 s of 8 fresh processes), with peak RSS of 45 MB
# and a tracemalloc peak of 8.96 MiB for the fair Bernoulli at N = 2**20;
# uniform_support(1000) at sigma 2, N = 2 * 10**5, took 1.40-1.78 s.  A
# cap of 2**16 doubles was slower there: 1.65-1.67 s against 1.41-1.46 s.
MC_BLOCK_SAMPLES = 2**14
# The folded integrands evaluate their (atom, node, cell) entries in slices
# of at most this many.  On a 2-vCPU x86 host, both quadratures on 18 laws
# of <= 24 atoms took 43.7, 42.6, 47.6 and 46.2 ms at 2**13 to 2**16 (median
# of 40).
QUAD_BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} {value!r} is not an integer")
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
    """``int_{-1/2}^{1/2} sum_n body(t(u))_n du`` with ``t(u)`` the w x C
    matrix of ``ln p_k + ln f(u + n - k)`` and ``body`` giving one value per
    column: one column per cell ``n`` (default: every integer within the
    base's ``reach`` ``r`` of an atom), over the atoms within ``r`` of it,
    padded with log-weight -inf.  Farther components are below ``exp(-800)``
    of their peak or zero; ``n - k`` is exact, so far atoms lose no digits."""
    w = base.half_width
    r = base.reach
    ks = np.asarray(support, dtype=np.int64)
    if cells is None:
        try:
            window = np.arange(-r, r + 1)
        except ValueError as exc:  # numpy: more elements than any array holds
            raise MemoryError(f"{base!r}: {2 * r + 1} cells around each atom") from exc
        cells = np.unique(ks[:, None] + window)
    lo = np.searchsorted(ks, cells - r)
    hi = np.searchsorted(ks, cells + r, side="right")
    idx = lo + np.arange((hi - lo).max())[:, None]
    pad = idx >= hi
    idx[pad] = 0
    offsets = (cells - ks[idx]).astype(float)
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
    # the inf/nan of padding, of a uniform base's zero components and of a
    # column with no mass are taken to 0 by the bodies
    with np.errstate(divide="ignore", invalid="ignore"):
        qr = integrate(
            lambda u: _cell_sums(body, u, lps, offsets, base), -0.5, 0.5, points=points
        )
    return EntropyValue(
        qr.value, EntropyMethod.QUADRATURE, qr.abs_error_estimate, qr.converged
    )


def _cell_sums(body, u, lps, offsets, base) -> np.ndarray:
    """``sum_n body(t(u_i))_n`` over the cells, for each node ``u_i``.  The
    (atom, node, cell) entries are built in slices of at most
    ``QUAD_BLOCK_CELLS``, atoms on axis 0; each slice's values are summed
    per node and added to that node's total, so no nodes x cells array is
    held.  A node's cells are cut into the same slices whichever nodes are
    evaluated with it, so its value does not depend on them."""
    width, n_cells = offsets.shape
    rows = max(1, QUAD_BLOCK_CELLS // width)
    step_u, step_c = max(1, rows // n_cells), min(n_cells, rows)
    total = np.zeros(u.size)
    for i in range(0, u.size, step_u):
        ui = u[i : i + step_u, None]
        for c in range(0, n_cells, step_c):
            t = base.log_pdf(ui + offsets[:, None, c : c + step_c])
            t += lps[:, None, c : c + step_c]
            values = body(t.reshape(width, -1)).reshape(ui.size, -1)
            total[i : i + step_u] += values.sum(axis=1)
    return total


def _entropy_body(t: np.ndarray) -> np.ndarray:
    """``-M ln M`` for each column, ``M`` being the column's mixture density
    (0 for a column with no mass)."""
    ld = _log_sum_exp(t)
    return np.where(ld > -np.inf, -(np.exp(ld) * ld), 0.0)


def _deficit_body(t: np.ndarray) -> np.ndarray:
    """``sum_k p_k f(x-k) ln(1 + r_k(x))`` for each column, ``r_k`` being
    the other atoms' mass over atom ``k``'s; ``t`` is overwritten.

    With ``top = max t_k``, ``d_k = top - t_k``, ``e_k = exp(-d_k)`` and
    ``rest`` the sum of ``e_k`` over all atoms but one at ``d = 0`` (exact
    ties add 1 each), every other atom has ``1 + r_k = (1 + rest) / e_k``,
    so the sum is ``exp(top) ((1 + rest) log1p(rest) + sum_k e_k d_k)``.
    Every term is >= 0, so nothing cancels, and the top atom's ``log1p`` is
    exact where ``rest`` is doubly-exponentially small.  Padding, zero
    components and columns with no mass get a finite ``d_k`` and ``e_k =
    0``.  A column's value is ``exp(top + ln total)``, which cannot overflow
    where ``exp(top)`` would.
    """
    top = t.max(axis=0)
    t -= top
    np.fmax(t, -sys.float_info.max, out=t)  # -inf - top, or nan: no mass
    tie = t == 0.0
    e = np.exp(t)
    t *= e
    e -= tie
    rest = e.sum(axis=0) + np.maximum(tie.sum(axis=0) - 1, 0)
    total = (1.0 + rest) * np.log1p(rest) - t.sum(axis=0)
    return np.exp(top + np.log(total))


def mixture_entropy(m: MixtureDensity) -> EntropyValue:
    """``-int f_{X+Z} ln f_{X+Z}`` by one quadrature over the folded period."""
    z = m.lattice
    return _integrate_folded(_entropy_body, z.support, z.log_probs, m.base)


def _deficit_quadrature(support, log_probs, base, cells=None) -> EntropyValue:
    """The deficit integral over the folded period.  For a Gaussian base the
    weights are scaled by ``exp(d^2 / (8 sigma^2))``, ``d`` the smallest gap,
    which brings the integrand (linear in a common weight) to a peak of
    order 1; the result is scaled back.  Below the smallest normal double
    the error also counts the roundings of the scale and the product, and
    one unit in the last place, even where the value is 0.  A scale that
    overflows (a wide gap at tiny sigma) puts the deficit below the
    smallest subnormal: it is 0 within one unit in the last place."""
    s = 0.0
    if isinstance(base, GaussianDensity) and len(support) > 1:
        s = float(np.diff(support).min()) ** 2 / (8.0 * base.sigma**2)
    if s == math.inf:
        return EntropyValue(0.0, EntropyMethod.QUADRATURE, math.ulp(0.0))
    lps = np.add(log_probs, s)
    v = _integrate_folded(_deficit_body, support, lps, base, cells)
    scale = math.exp(-s)
    nats, err = v.nats * scale, v.abs_error * scale
    if s > 0.0 and nats < sys.float_info.min:
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
    """Plug-in Monte Carlo entropy: ``-mean(ln f(y_i))`` over samples ``y_i``
    drawn from the mixture itself, with the standard error of the mean as
    the error estimate.  Same seed, same result, bit for bit.

    ``MixtureDensity.sample`` draws the atom counts by one multinomial and
    the noise apart from them.  A sample of atom ``a`` with noise ``x`` is
    scored by ``m.log_density(x, a)``, in exact coordinates.  Each atom's
    run is scored in blocks of at most ``MC_BLOCK_SAMPLES`` samples, fewer
    where its K x block array of components would pass 2**18 doubles, and
    its scores overwrite the noise they came from.  The scores are then
    reduced once, in place, by the operations of ``np.mean`` and
    ``np.std(ddof=1)``, whose bits the estimate has at every N.  It holds
    the noise array and one block's components for any number of atoms K,
    not O(K N).
    """
    counts, noise = m.sample(np.random.default_rng(cfg.seed), cfg.samples)
    n = noise.size
    step = max(1, min(MC_BLOCK_SAMPLES, 2**18 // len(counts)))
    ends = np.cumsum(counts)
    for atom, start, end in zip(m.lattice.support, ends - counts, ends):
        for lo in range(start, end, step):
            x = noise[lo : min(lo + step, end)]
            x[...] = m.log_density(x, atom)
    mean = np.add.reduce(noise) / n
    noise -= mean
    noise *= noise
    se = np.sqrt(np.add.reduce(noise) / (n - 1)) / math.sqrt(n)
    return EntropyValue(-float(mean), EntropyMethod.MONTE_CARLO, float(se))


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
