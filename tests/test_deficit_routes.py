"""Regression tests of the two quadrature routes against sources of truth
that share no code with them: mpmath reference integrals, the cluster
decomposition of well-separated supports, closed forms for a uniform base,
and values frozen from the per-atom implementation the routes replaced."""

import functools

import math

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mixent.checks import grid_laws
from mixent.distributions import (
    DiscreteLattice,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
)
from mixent.entropy import (
    _deficit_body,
    _integrate_folded,
    deficit_direct,
    deficit_via_identity,
    discrete_entropy,
    mixture_entropy,
)

FAIR = DiscreteLattice.bernoulli(0.5)
THREE_ATOM = DiscreteLattice((0, 1, 2), (0.2, 0.5, 0.3))

# 30-digit tanh-sinh value of the fair Bernoulli deficit at sigma = 1/4
FAIR_BERNOULLI_025 = "0.06042698682307832775822"


@functools.lru_cache(maxsize=None)
def pair_deficit_mp(z: DiscreteLattice, sigma: float) -> mpmath.mpf:
    """Deficit of a two-atom law by 30-digit quadrature of its Fourier form

        2 sqrt(pq) e^-a int_0^inf e^(-a t^2) cos(lam t / 2) sech(pi t / 2) / (1 + t^2) dt,

    with ``a = d^2 / (8 sigma^2)``, ``d`` the gap and ``lam = ln(p/q)``.  The
    integrand peaks at t = 0 at every sigma and decays within
    ``w = sqrt(200 / a)`` (at most 60, where sech has taken over), so the
    same four panels serve every sigma."""
    (k, j), (p, q) = z.support, z.probs
    with mpmath.workdps(30):
        a = mpmath.mpf(j - k) ** 2 / (8 * mpmath.mpf(sigma) ** 2)
        lam = mpmath.log(mpmath.mpf(p) / q)
        w = min(60, mpmath.sqrt(200 / a))

        def integrand(t):
            return (mpmath.exp(-a * t * t) * mpmath.cos(lam * t / 2)
                    * mpmath.sech(mpmath.pi * t / 2) / (1 + t * t))

        i = mpmath.quad(integrand, [0, w / 8, w / 2, w, mpmath.inf])
        return 2 * mpmath.sqrt(mpmath.mpf(p) * q) * mpmath.exp(-a) * i


# Breaks around each crossover, where the integrand varies on a scale of
# sigma^2: geometric, so every panel's length matches its distance from the
# nearest complex singularity of log1p.
CROSSOVER_STEPS = (-64, -16, -4, -1, 0, 1, 4, 16, 64)


@functools.lru_cache(maxsize=None)
def deficit_mp(z: DiscreteLattice, sigma: float) -> mpmath.mpf:
    """Deficit of any law (the tests use it from three atoms up) by 50-digit
    Gauss-Legendre quadrature of

        sum_k p_k int f(x-k) log1p(sum_{j!=k} p_j f(x-j) / (p_k f(x-k))) dx,

    the ratio being ``(p_j/p_k) exp((j-k)(2x-j-k) / (2 sigma^2))``.  Atom
    ``k``'s integral breaks at ``k +- 1``, at the atoms next to it and at
    ``crossover + j sigma^2``.  mpmath stops on an absolute error, so the
    integrand is scaled by ``exp(d^2 / (8 sigma^2))``, ``d`` the smallest
    gap, the size of its peak."""
    with mpmath.workdps(50):
        s = mpmath.mpf(sigma)
        c = 1 / (2 * s * s)
        d = min(b - a for a, b in zip(z.support, z.support[1:]))
        norm = mpmath.exp(c * d * d / 4) / (mpmath.sqrt(2 * mpmath.pi) * s)
        ps = [mpmath.mpf(p) for p in z.probs]
        total = 0
        for i, (k, pk) in enumerate(zip(z.support, ps)):
            near = z.support[max(i - 1, 0):i + 2]
            pts = {k - 1, k, k + 1, *near}
            for a, b in zip(near, near[1:]):
                mid = mpmath.mpf(a + b) / 2
                pts.update(mid + j * s * s for j in CROSSOVER_STEPS)

            def integrand(x, k=k, pk=pk):
                ratio = mpmath.fsum(
                    pj / pk * mpmath.exp(c * (j - k) * (2 * x - j - k))
                    for j, pj in zip(z.support, ps)
                    if j != k
                )
                return pk * norm * mpmath.exp(-c * (x - k) ** 2) * mpmath.log1p(ratio)

            total += mpmath.quad(
                integrand,
                [-mpmath.inf, *sorted(pts), mpmath.inf],
                method="gauss-legendre",
            )
        return total / mpmath.exp(c * d * d / 4)


def test_mpmath_reference_reproduces_published_digits():
    with mpmath.workdps(30):
        ref = pair_deficit_mp(FAIR, 0.25)
        assert abs(ref - mpmath.mpf(FAIR_BERNOULLI_025)) < mpmath.mpf("1e-22")


def test_two_atom_reference_matches_the_x_form():
    # the two oracles share no code: one integrates over t, the other over x
    with mpmath.workdps(30):
        x_form = deficit_mp(FAIR, 0.05)
        assert abs(pair_deficit_mp(FAIR, 0.05) / x_form - 1) < mpmath.mpf("1e-25")


@pytest.mark.parametrize("route", [deficit_direct, deficit_via_identity])
def test_fair_bernoulli_matches_mpmath(route):
    value = route(FAIR, GaussianDensity(0.25)).nats
    assert abs(value - float(FAIR_BERNOULLI_025)) <= 1e-12


@pytest.mark.parametrize("sigma", [0.25, 1.0])
@pytest.mark.parametrize("far", [10**3, 10**4])
@pytest.mark.parametrize("route", [deficit_direct, deficit_via_identity])
def test_separated_clusters_decompose(route, far, sigma):
    # the atom at `far` overlaps nothing, so delta = 0.8 * delta_Bern(1/2)
    z = DiscreteLattice((0, 1, far), (0.4, 0.4, 0.2))
    expected = 0.8 * float(pair_deficit_mp(FAIR, sigma))
    v = route(z, GaussianDensity(sigma))
    assert v.converged
    assert abs(v.nats - expected) <= v.abs_error


def test_overlapping_uniform_components():
    # fair Bernoulli + U(-3/4, 3/4): density 1/3 on two unit intervals and
    # 2/3 on their half-length overlap, so delta = ln(2) / 3 exactly
    u = UniformDensity(0.75)
    for v in (deficit_direct(FAIR, u), deficit_via_identity(FAIR, u)):
        assert abs(v.nats - math.log(2.0) / 3.0) <= max(v.abs_error, 1e-14)


# (law, sigma, deficit_direct, mixture_entropy) from the per-atom routes
PINNED = [
    ("bernoulli(1/2)", 0.1, 8.63165960845319e-07, -0.19050024239538832),
    ("bernoulli(1/2)", 0.25, 0.06042698682307834, 0.6653643658216492),
    ("bernoulli(1/2)", 0.45, 0.3076679522545335, 1.005910065292313),
    ("bernoulli(1/2)", 1.0, 0.5817256983752093, 1.5303600153894092),
    ("bernoulli(0.3)", 0.1, 7.886694842676672e-07, -0.27278304640396334),
    ("bernoulli(0.3)", 0.25, 0.054714618042529195, 0.5887938560971465),
    ("bernoulli(0.3)", 0.45, 0.2759348312807022, 0.9553603077610923),
    ("bernoulli(0.3)", 1.0, 0.5159538281680962, 1.5138490070914699),
    ("uniform{-1,0,1}", 0.1, 1.1508879477937593e-06, 0.2149645779907891),
    ("uniform{-1,0,1}", 0.25, 0.08056935159119413, 1.0506871091616978),
    ("uniform{-1,0,1}", 0.45, 0.41203151505802355, 1.3070116105969873),
    ("uniform{-1,0,1}", 1.0, 0.8448063040242151, 1.6727445178485674),
    ("geometric{0..5}", 0.1, 1.19884874661259e-06, 0.4208842283174731),
    ("geometric{0..5}", 0.25, 0.08342031109330064, 1.2537558479470476),
    ("geometric{0..5}", 0.45, 0.42457010473071677, 1.5003927192117508),
    ("geometric{0..5}", 1.0, 0.8990996672873931, 1.8243708528728457),
]
# (law, sigma, mixture_entropy): the deficit is checked against the mpmath
# reference
PINNED_SMALL_SIGMA = [
    ("bernoulli(1/2)", 0.05, -0.883646559789373),
    ("bernoulli(0.3)", 0.05, -0.9659294382944245),
    ("uniform{-1,0,1}", 0.05, -0.47818145168120807),
    ("geometric{0..5}", 0.05, -0.27226175339375214),
    ("bernoulli(1/2)", 0.03, -1.3944721835553628),
    ("three_atom", 0.03, -1.057966350050736),
    ("three_atom", 0.05, -0.5471407262847446),
]
LAWS = {**grid_laws(), "three_atom": THREE_ATOM}


@pytest.mark.parametrize("label, sigma, direct, h_mixture", PINNED)
def test_pinned_values(label, sigma, direct, h_mixture):
    z = LAWS[label]
    g = GaussianDensity(sigma)
    dd = deficit_direct(z, g).nats
    hm = mixture_entropy(MixtureDensity(g, z)).nats
    assert abs(dd - direct) <= 1e-12
    assert abs(hm - h_mixture) <= 1e-12


@pytest.mark.parametrize("label, sigma, h_mixture", PINNED_SMALL_SIGMA)
def test_small_sigma_values(label, sigma, h_mixture):
    z = LAWS[label]
    g = GaussianDensity(sigma)
    dd = deficit_direct(z, g)
    oracle = pair_deficit_mp if len(z.support) == 2 else deficit_mp
    truth = float(oracle(z, sigma))
    assert dd.converged
    assert abs(dd.nats - truth) <= 1e-10 * truth
    assert dd.abs_error <= 1e-10 * truth
    assert abs(mixture_entropy(MixtureDensity(g, z)).nats - h_mixture) <= 1e-12


# fair Bernoulli deficits (``deficit_mp`` at 50 digits), rounded to 11 digits
@pytest.mark.parametrize(
    "sigma, truth",
    [
        (0.03, 3.5816646348e-62),
        (0.05, 2.3657139673e-23),
        (0.015, 1.9934197248e-243),
        (0.0135, 4.5572549900e-300),
    ],
)
def test_fair_bernoulli_small_sigma_truths(sigma, truth):
    assert abs(float(pair_deficit_mp(FAIR, sigma)) - truth) <= 1e-10 * truth
    assert abs(deficit_direct(FAIR, GaussianDensity(sigma)).nats - truth) <= 1e-10 * truth


# 50-digit fair Bernoulli deficits (``deficit_mp``) where the double is
# subnormal or 0: the error must cover the rounding to so few digits
@pytest.mark.parametrize(
    "sigma, truth",
    [
        (0.0132, "9.0275478537e-314"),
        (0.013, "1.94379237645e-323"),
        (0.0125, "1.14765003916e-349"),
    ],
)
def test_subnormal_deficits_carry_their_rounding(sigma, truth):
    dd = deficit_direct(FAIR, GaussianDensity(sigma))
    assert dd.converged
    assert 0.0 < dd.abs_error <= 2 * math.ulp(dd.nats)
    assert abs(mpmath.mpf(dd.nats) - mpmath.mpf(truth)) <= dd.abs_error


@pytest.mark.xfail(
    strict=True,
    reason="below sigma ~ 0.004 the scaled deficit integrand's mass lies "
    "within ~40 sigma^2 of the cell edges u = +-1/2, and the fold "
    "converges without sampling it",
)
def test_scaled_fold_sees_the_small_sigma_deficit():
    # deficit_direct underflows to 0 here, which hides the defect: with the
    # weights scaled by exp(1 / (8 sigma^2)) the fold returns 2.4e-14,
    # converged, where the scaled truth is e^-4.77 ~ 8.5e-3
    sigma = 0.0034
    s = 1.0 / (8.0 * sigma**2)
    v = _integrate_folded(
        _deficit_body, FAIR.support, [lp + s for lp in FAIR.log_probs],
        GaussianDensity(sigma),
    )
    truth = float(mpmath.log(pair_deficit_mp(FAIR, sigma)))  # -10817.913933510681
    assert abs(math.log(v.nats) - s - truth) <= v.abs_error / v.nats


def test_point_mass_deficit_stays_exact():
    for sigma in (0.0125, 0.25):
        dd = deficit_direct(DiscreteLattice.point_mass(3), GaussianDensity(sigma))
        assert (dd.nats, dd.abs_error) == (0.0, 0.0)


@pytest.mark.parametrize(
    "z",
    [
        DiscreteLattice.uniform_support(24),
        DiscreteLattice((0, 1, 10**4), (0.4, 0.4, 0.2)),
        DiscreteLattice.point_mass(3),
    ],
)
def test_one_quadrature_per_call(integrate_calls, z):
    g = GaussianDensity(0.25)
    deficit_direct(z, g)
    assert integrate_calls == [(-0.5, 0.5)]
    integrate_calls.clear()
    mixture_entropy(MixtureDensity(g, z))
    assert integrate_calls == [(-0.5, 0.5)]


@st.composite
def wide_laws(draw):
    # near gaps build multi-atom clusters, far ones separate them; the span
    # stays below 10^6
    gaps = draw(
        st.lists(
            st.one_of(st.integers(1, 4), st.integers(5, 140_000)),
            min_size=1,
            max_size=7,
        )
    )
    support = [0]
    for gap in gaps:
        support.append(support[-1] + gap)
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(support), max_size=len(support))
    )
    total = math.fsum(weights)
    return DiscreteLattice(tuple(support), tuple(w / total for w in weights))


@given(z=wide_laws(), sigma=st.floats(0.05, 4.0))
# 200 and 1000 contiguous atoms, where the direct route's "others" sums dominate
@example(z=DiscreteLattice.uniform_support(200), sigma=0.25)
@example(z=DiscreteLattice.uniform_support(1000), sigma=0.25)
def test_routes_agree_on_random_supports(z, sigma):
    g = GaussianDensity(sigma)
    dd = deficit_direct(z, g)
    di = deficit_via_identity(z, g)
    assert dd.converged and di.converged
    budget = dd.abs_error + di.abs_error
    assert abs(dd.nats - di.nats) <= min(budget, 1e-8)
    hz = discrete_entropy(z).nats
    for v in (dd, di):
        assert -v.abs_error <= v.nats <= hz + v.abs_error
