import json
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scipy.special import logsumexp
from scipy.stats import norm

from mixent.checks import grid_laws
from mixent.distributions import (
    DiscreteLattice,
    DistributionError,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
    _log_sum_exp,
    tail_mass,
)
from mixent.entropy import McConfig, mc_entropy
from mixent.numerics import integrate


class TestDiscreteLattice:
    def test_renormalizes_within_tolerance(self):
        z = DiscreteLattice((0, 1), (0.5, 0.5 + 1e-13))
        assert math.isclose(sum(z.probs), 1.0, rel_tol=0, abs_tol=1e-15)

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(DistributionError, match="sum to 1"):
            DiscreteLattice((0, 1), (0.4, 0.5))

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(DistributionError, match=r"outside \[0, 1\]"):
            DiscreteLattice((0, 1), (1.2, -0.2))

    def test_drops_zero_atoms(self):
        z = DiscreteLattice((0, 1, 2), (0.5, 0.0, 0.5))
        assert z.support == (0, 2)
        assert z.probs == (0.5, 0.5)

    def test_sorts_support_with_paired_probs(self):
        z = DiscreteLattice((3, -1), (0.25, 0.75))
        assert z.support == (-1, 3)
        assert z.probs == (0.75, 0.25)

    def test_rejects_duplicate_support(self):
        with pytest.raises(DistributionError, match="distinct"):
            DiscreteLattice((0, 0), (0.5, 0.5))

    def test_rejects_non_integer_support(self):
        with pytest.raises(DistributionError, match="not an integer"):
            DiscreteLattice((0, 1.5), (0.5, 0.5))

    @pytest.mark.parametrize("k", [2**53 + 1, -(2**53) - 1, 1e20])
    def test_rejects_support_beyond_2_53(self, k):
        # a double cannot hold every integer there: 2**53 + 1 would become 2**53
        with pytest.raises(DistributionError, match=re.escape(f"{k!r} is beyond")):
            DiscreteLattice((0, k), (0.5, 0.5))

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            DiscreteLattice((), ())

    def test_bernoulli_shorthand(self):
        z = DiscreteLattice.bernoulli(0.3)
        assert z.support == (0, 1)
        assert z.probs == (0.7, 0.3)

    @pytest.mark.parametrize("p", [None, "0.3"])
    def test_bernoulli_rejects_non_numbers(self, p):
        with pytest.raises(DistributionError, match="is not a number"):
            DiscreteLattice.bernoulli(p)

    def test_numpy_numbers_are_numbers(self):
        assert DiscreteLattice.bernoulli(np.float64(0.3)) == DiscreteLattice.bernoulli(0.3)
        assert GaussianDensity(np.float32(0.5)).sigma == 0.5
        assert UniformDensity(np.float64(0.25)).half_width == 0.25

    def test_uniform_support_shorthand(self):
        z = DiscreteLattice.uniform_support(4)
        assert z.support == (0, 1, 2, 3)
        assert all(p == 0.25 for p in z.probs)

    def test_point_mass(self):
        z = DiscreteLattice.point_mass(2)
        assert z.support == (2,)
        assert z.probs == (1.0,)

    def test_json_round_trip(self):
        z = DiscreteLattice((-1, 0, 1), (0.2, 0.5, 0.3))
        again = DiscreteLattice.from_json(json.dumps(z.to_json()))
        assert again == z

    @pytest.mark.parametrize(
        "doc,expected",
        [
            ('{"bernoulli": 0.5}', DiscreteLattice.bernoulli(0.5)),
            ('{"uniform_support": 3}', DiscreteLattice.uniform_support(3)),
            ({"support": [0], "probs": [1.0]}, DiscreteLattice.point_mass(0)),
        ],
    )
    def test_from_json_shorthands(self, doc, expected):
        assert DiscreteLattice.from_json(doc) == expected

    @pytest.mark.parametrize(
        "doc",
        ["not json", "[1,2]", "{}", '{"uniform_support":2.5}',
         '{"support":[0,1e20],"probs":[0.5,0.5]}',
         # only JSON numbers are entries, and support/probs are arrays
         '{"bernoulli":null}', '{"support":[0,null],"probs":[0.5,0.5]}',
         '{"uniform_support":null}', '{"support":5,"probs":1}',
         '{"support":"10","probs":[0.5,0.5]}', '{"bernoulli":"0.3"}',
         '{"bernoulli":true}', '{"support":[false,true],"probs":[0.5,0.5]}',
         '{"uniform_support":"3"}', '{"support":[0,1],"probs":["0.5",0.5]}',
         # the keys are exactly one of the three forms
         '{"support":[0,1],"probs":[0.5,0.5],"bernoulli":0.9}',
         '{"uniform_support":2,"support":[0,1,2],"probs":[0.2,0.3,0.5]}',
         '{"bernoulli":0.5,"uniform_support":3,"typo":1}',
         '{"support":[0,1],"probs":[0.5,0.5],"extra":1}'],
    )
    def test_from_json_rejects_garbage(self, doc):
        with pytest.raises(DistributionError):
            DiscreteLattice.from_json(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [('{"support":[0,1,2],"probs":[0.5,0.5]}',
          "support has 3 entries but probs has 2"),
         ('{"uniform_support":0}', "uniform_support size must be >= 1 (got 0)")],
    )
    def test_from_json_names_the_broken_invariant(self, doc, message):
        with pytest.raises(DistributionError, match=re.escape(message)):
            DiscreteLattice.from_json(doc)

    @pytest.mark.parametrize(
        "z,expected",
        [
            (DiscreteLattice.bernoulli(0.5), True),
            (DiscreteLattice.bernoulli(0.3), False),
            (DiscreteLattice((0, 2), (0.5, 0.5)), False),
            (DiscreteLattice.point_mass(0), False),
            (DiscreteLattice((4, 5), (0.5, 0.5)), True),
        ],
    )
    def test_fair_adjacent_bernoulli_detection(self, z, expected):
        assert z.is_fair_adjacent_bernoulli() is expected


class TestGaussianDensity:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan, "0.5", True, None])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(DistributionError):
            GaussianDensity(sigma)

    @pytest.mark.parametrize(
        "sigma, ok",
        [
            (2.0**-511, True),
            (math.nextafter(2.0**-511, 0.0), False),
            (math.nextafter(2.0**512, 0.0), True),
            (2.0**512, False),
            (1e-160, False),
            (1e155, False),
            (1e308, False),
        ],
    )
    def test_sigma_range_is_where_its_square_is_a_finite_normal_double(self, sigma, ok):
        assert (sys.float_info.min <= sigma * sigma <= sys.float_info.max) == ok
        if ok:
            assert GaussianDensity(sigma).sigma == sigma
        else:
            with pytest.raises(DistributionError, match=re.escape(f"sigma {sigma!r} is outside")):
                GaussianDensity(sigma)

    @pytest.mark.parametrize("sigma", [3.2e153, 5e153, math.nextafter(2.0**512, 0.0)])
    def test_entropy_is_finite_where_two_pi_e_sigma_squared_overflows(self, sigma):
        h = GaussianDensity(sigma).entropy_nats()
        assert h == pytest.approx(math.log(sigma) + 0.5 * math.log(2 * math.pi * math.e),
                                  rel=1e-15)

    def test_log_pdf_at_zero(self):
        assert GaussianDensity(1.0).log_pdf(0.0) == pytest.approx(
            -0.9189385332046727, rel=1e-15
        )

    def test_log_pdf_vectorized_matches_scalar(self):
        g = GaussianDensity(0.3)
        xs = np.linspace(-4, 4, 17)
        assert np.allclose(g.log_pdf(xs), [g.log_pdf(x) for x in xs], rtol=1e-15)

    @pytest.mark.parametrize("sigma", [1e-100, 0.05, 0.25, 1.0, 3.7, 1e150])
    def test_sample_has_the_bits_of_rng_normal(self, sigma):
        got = GaussianDensity(sigma).sample(np.random.default_rng(5), 10**5)
        want = np.random.default_rng(5).normal(0.0, sigma, size=10**5)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_normalizes(self):
        g = GaussianDensity(0.7)
        qr = integrate(lambda x: np.exp(g.log_pdf(x)), -28.0, 28.0)
        assert abs(qr.value - 1.0) <= max(qr.abs_error_estimate, 1e-12)


class TestTailMass:
    def test_half_at_zero(self):
        assert tail_mass(GaussianDensity(1.0), 0.0) == 0.5

    def test_two_sigma(self):
        assert tail_mass(GaussianDensity(1.0), 2.0) == pytest.approx(
            0.022750131948179195, rel=1e-13
        )

    def test_scaling_reduces_to_standard(self):
        assert tail_mass(GaussianDensity(0.25), 0.5) == pytest.approx(
            tail_mass(GaussianDensity(1.0), 2.0), rel=1e-15
        )

    def test_extreme_argument_keeps_digits(self):
        # z/sigma = 30: reference value from 30-digit erfc evaluation
        assert tail_mass(GaussianDensity(1.0), 30.0) == pytest.approx(
            4.906713927148187e-198, rel=1e-12
        )

    @pytest.mark.parametrize("sigma", [0.03, 1.0, 7.0])
    def test_matches_mpmath_erfc_to_the_last_digits(self, sigma):
        # erfc(x) / 2 at the argument tail_mass forms, over x in [0.01, 26]:
        # scipy's erfc was off by up to 5.6e-14 relative there
        g = GaussianDensity(sigma)
        for x in np.geomspace(0.01, 26.0, 61):
            z = x * sigma * math.sqrt(2.0)
            arg = z / (sigma * math.sqrt(2.0))
            with mpmath.workdps(30):
                exact = float(mpmath.erfc(mpmath.mpf(arg)) / 2)
            assert tail_mass(g, z) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_subnormal_tail_is_not_zero(self):
        # erfc(27) = 5.237e-319; scipy's erfc returned 0 from x ~ 26.7
        g = GaussianDensity(1.0)
        assert tail_mass(g, 27.0 * math.sqrt(2.0)) == pytest.approx(
            5.237048923789256e-319 / 2, rel=1e-3, abs=0.0
        )


class TestUniformDensity:
    def test_rejects_bad_width(self):
        with pytest.raises(DistributionError):
            UniformDensity(0.0)

    def test_rejects_string_width(self):
        with pytest.raises(DistributionError, match="is not a number"):
            UniformDensity("0.25")

    def test_log_pdf_inside_and_outside(self):
        u = UniformDensity(0.25)
        assert u.log_pdf(0.1) == pytest.approx(-math.log(0.5), rel=1e-15)
        assert u.log_pdf(0.3) == -math.inf
        out = u.log_pdf(np.array([-0.3, 0.0, 0.3]))
        assert out[0] == -math.inf and out[2] == -math.inf
        assert math.isfinite(out[1])

    def test_entropy(self):
        assert UniformDensity(0.5).entropy_nats() == pytest.approx(0.0, abs=1e-15)


class TestMixtureLogDensity:
    def test_point_mass_equals_gaussian(self):
        m = MixtureDensity(GaussianDensity(1.0), DiscreteLattice.point_mass(0))
        assert m.log_density(0.0) == pytest.approx(-0.9189385332046727, rel=1e-15)

    def test_fair_bernoulli_midpoint(self):
        # both components contribute equally by symmetry:
        # ln(exp(-2) / sqrt(2 pi 0.0625))
        m = MixtureDensity(GaussianDensity(0.25), DiscreteLattice.bernoulli(0.5))
        assert m.log_density(0.5) == pytest.approx(-1.5326441720847821, rel=1e-14)

    def test_far_field_stays_finite(self):
        m = MixtureDensity(GaussianDensity(0.05), DiscreteLattice.bernoulli(0.5))
        expected = (
            math.log(0.5)
            - 39.0**2 / (2.0 * 0.05**2)
            - math.log(math.sqrt(2 * math.pi) * 0.05)
        )
        got = m.log_density(40.0)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("x", [1e4, -1e4, 123.456])
    def test_finite_at_extreme_arguments(self, x):
        m = MixtureDensity(GaussianDensity(0.05), DiscreteLattice.bernoulli(0.5))
        assert math.isfinite(m.log_density(x))

    def test_uniform_base_outside_support_is_minus_inf(self):
        m = MixtureDensity(UniformDensity(0.25), DiscreteLattice.bernoulli(0.5))
        assert m.log_density(0.5) == -math.inf
        assert math.isfinite(m.log_density(0.1))
        xs = np.array([0.1, 0.5, -0.3, 0.9, 1.5, 0.25, 0.75, -0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ld = m.log_density(xs)
        outside = np.array([False, True, True, False, True, True, True, False])
        assert np.all(ld[outside] == -math.inf)
        assert np.all(np.isfinite(ld[~outside]))

    def test_vectorized_matches_scalar(self):
        m = MixtureDensity(
            GaussianDensity(0.4), DiscreteLattice((-2, 0, 3), (0.2, 0.5, 0.3))
        )
        xs = np.linspace(-6, 8, 29)
        assert np.allclose(m.log_density(xs), [m.log_density(x) for x in xs], rtol=1e-14)

    def test_symmetry_about_center(self):
        # symmetric lattice + symmetric base => density symmetric about 1/2
        m = MixtureDensity(GaussianDensity(0.3), DiscreteLattice.bernoulli(0.5))
        for t in np.linspace(0.0, 3.0, 13):
            left = m.log_density(0.5 - t)
            right = m.log_density(0.5 + t)
            assert abs(left - right) <= 1e-13 * max(1.0, abs(left))

    def test_integrates_to_one(self):
        m = MixtureDensity(
            GaussianDensity(0.25), DiscreteLattice((-1, 0, 1), (1 / 3, 1 / 3, 1 / 3))
        )
        qr = integrate(
            lambda x: np.exp(m.log_density(x)), -12.0, 12.0,
            points=[-1.0, 0.0, 1.0],
        )
        assert abs(qr.value - 1.0) <= max(qr.abs_error_estimate, 1e-10)

    def test_sampling_is_seed_deterministic(self):
        m = MixtureDensity(GaussianDensity(0.25), DiscreteLattice.bernoulli(0.5))
        counts_a, noise_a = m.sample(np.random.default_rng(7), 100)
        counts_b, noise_b = m.sample(np.random.default_rng(7), 100)
        assert np.array_equal(counts_a, counts_b) and np.array_equal(noise_a, noise_b)
        assert counts_a.shape == (2,) and counts_a.sum() == 100 and noise_a.shape == (100,)


def _geometric_law(k: int) -> DiscreteLattice:
    w = 0.5 ** np.arange(k) + 0.1
    return DiscreteLattice(tuple(range(k)), tuple(w / w.sum()))


def _log_sum_exp_unclamped(t: np.ndarray) -> np.ndarray:
    """The max-shifted log-sum-exp with every term exponentiated."""
    top = t.max(axis=0, keepdims=True)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return top[0] + np.log(np.exp(t - top).sum(axis=0))


# columns that mix ordinary log-terms with ones whose exp, after the shift,
# is tiny, subnormal or 0: the terms that _log_sum_exp raises to -700
_log_term = st.one_of(
    st.floats(-760.0, -690.0), st.floats(-40.0, 5.0), st.just(-math.inf)
)


@settings(max_examples=300, deadline=None)
@example(columns=[[-math.inf, -math.inf], [-720.0, 0.0], [-math.inf, -math.inf]])
@given(
    columns=st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(_log_term, min_size=k, max_size=k), min_size=1, max_size=8)
    )
)
def test_log_sum_exp_clamp_keeps_the_bits(columns):
    t = np.ascontiguousarray(np.array(columns).T)  # atoms on axis 0
    want = _log_sum_exp_unclamped(t)
    got = _log_sum_exp(t.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# one atom's row of terms: the log-sum-exp of one term is that term, for
# every double and +-inf, as a point-mass law's log-density reduces it
@settings(max_examples=400, deadline=None)
@example(terms=[-0.7, -math.inf, math.inf, -700.7, 699.3, -1e300, 1e300])
@given(terms=st.lists(
    st.one_of(st.floats(allow_nan=False), st.floats(-760.0, 760.0)), min_size=1, max_size=12
))
def test_log_sum_exp_of_one_row_keeps_the_bits(terms):
    t = np.array([terms])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sum_exp(t.copy())
        one = _log_sum_exp(t[:, 0].copy())  # a single column
    assert np.array_equal(got, t[0])
    assert one == t[0, 0] and np.ndim(one) == 0


class TestLogDensityKernel:
    """``log_density`` against a per-point reference that shares no code
    with it: scipy's log-sum-exp over scipy's normal log-density."""

    @pytest.mark.parametrize("shape", [(), (60,), (4, 15)])
    @pytest.mark.parametrize("sigma", [0.05, 1.0, 5.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 8, 12, 40])
    def test_matches_scipy_logsumexp(self, k, sigma, shape):
        z = _geometric_law(k)
        x = (np.linspace(-3.0, k + 2.0, 60) + 0.123)[: math.prod(shape)].reshape(shape)
        got = MixtureDensity(GaussianDensity(sigma), z).log_density(x)
        col = (-1,) + (1,) * x.ndim
        terms = np.reshape(z.log_probs, col) + norm.logpdf(
            x - np.reshape(z.support, col), scale=sigma
        )
        want = logsumexp(terms, axis=0)
        assert np.shape(got) == shape
        if shape == ():
            assert type(got) is np.float64
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        # the kernel itself on these terms plus a column with no mass, and
        # on no columns at all
        t = np.column_stack([terms.reshape(k, -1), np.full(k, -np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _log_sum_exp(t.copy())
            empty = _log_sum_exp(t[:, :0].copy())
        np.testing.assert_allclose(got[:-1], want.reshape(-1), rtol=1e-14, atol=0)
        assert got[-1] == -np.inf
        assert empty.shape == (0,)

    @pytest.mark.parametrize("k", [1, 3, 8, 40])
    def test_uniform_base_is_minus_inf_outside_its_support(self, k):
        w = 0.25
        x = np.linspace(-2.0, k + 1.0, 4 * (k + 3)).reshape(4, -1)
        ld = MixtureDensity(UniformDensity(w), _geometric_law(k)).log_density(x)
        outside = np.abs(x[None] - np.arange(k).reshape(-1, 1, 1)).min(axis=0) >= w
        assert ld.shape == x.shape
        assert np.all(ld[outside] == -math.inf)
        assert np.all(np.isfinite(ld[~outside]))


MC_PIN_SEED = 20260809
# mc_entropy(law, sigma, N, seed MC_PIN_SEED) as (nats, standard error), by
# (law, sigma, N), captured from the multinomial draw with each sample
# scored by MixtureDensity.log_density at its own atom, in exact
# coordinates: the same bits, not merely close values.  The scores are
# reduced once, by numpy's pairwise sum; N = 2**18 + 5000 holds that sum
# past 2**18 samples as well as at N = 10**5.
MC_BIT_PIN = {
    ("bernoulli(1/2)", 0.25, 10**5): ("0x1.552323fff8480p-1", "0x1.de610d8e5d73cp-10"),
    ("bernoulli(0.3)", 0.25, 10**5): ("0x1.2f1219e70e53bp-1", "0x1.20b66d9b4fd5fp-9"),
    ("uniform{-1,0,1}", 0.25, 10**5): ("0x1.0d50e8a56c816p+0", "0x1.b37811bdbe07cp-10"),
    ("geometric{0..5}", 0.25, 10**5): ("0x1.413be926d8f7cp+0", "0x1.88cc0d75a6db2p-9"),
    ("bernoulli(1/2)", 0.05, 10**5): ("-0x1.c2fd4944f4280p-1", "0x1.276dd46cd5b68p-9"),
    ("bernoulli(0.3)", 0.05, 10**5): ("-0x1.ec6dafde90867p-1", "0x1.50bffb432cdf0p-9"),
    ("uniform{-1,0,1}", 0.05, 10**5): ("-0x1.e6bf569568d91p-2", "0x1.2775d37ead811p-9"),
    ("geometric{0..5}", 0.05, 10**5): ("-0x1.13fbd3a745f8ap-2", "0x1.c426160a62fa4p-9"),
    ("uniform_support(12)", 0.05, 10**5): ("0x1.d25f7678f2a82p-1", "0x1.276e1c24e94ebp-9"),
    ("bernoulli(1/2)", 0.25, 2**18 + 5000): (
        "0x1.563c4902b0210p-1", "0x1.267c75b53254dp-10"),
    ("bernoulli(1/2)", 0.05, 2**18 + 5000): (
        "-0x1.c333cf050f57dp-1", "0x1.66f793eaf8f77p-10"),
}
PIN_LAWS = {**grid_laws(), "uniform_support(12)": DiscreteLattice.uniform_support(12)}


def _pin_id(label, sigma, n):
    """The law label, then its sigma where that is not 0.25 and its N where
    that is not 10**5."""
    unusual = [str(v) for v, usual in ((sigma, 0.25), (n, 10**5)) if v != usual]
    return "-".join([label] + unusual)


@pytest.mark.parametrize(
    "label, sigma, n", sorted(MC_BIT_PIN), ids=[_pin_id(*k) for k in sorted(MC_BIT_PIN)]
)
def test_mc_entropy_bits_are_pinned(label, sigma, n):
    m = MixtureDensity(GaussianDensity(sigma), PIN_LAWS[label])
    v = mc_entropy(m, McConfig(n, MC_PIN_SEED))
    assert (v.nats.hex(), v.abs_error.hex()) == MC_BIT_PIN[label, sigma, n]


@st.composite
def random_mixture(draw):
    support = draw(
        st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=len(support),
            max_size=len(support),
        )
    )
    total = sum(weights)
    z = DiscreteLattice(tuple(support), tuple(w / total for w in weights))
    sigma = draw(st.floats(0.05, 2.0, allow_nan=False))
    return MixtureDensity(GaussianDensity(sigma), z)


@settings(max_examples=150, deadline=None)
# an atom 10^3 past the rest, and a uniform base whose components overlap
@example(
    m=MixtureDensity(
        GaussianDensity(0.3), DiscreteLattice((0, 1, 3, 1003), (0.1, 0.2, 0.3, 0.4))
    ),
    x=1002.9,
)
@example(
    m=MixtureDensity(UniformDensity(0.7), DiscreteLattice((0, 1, 3), (0.2, 0.5, 0.3))),
    x=0.4,
)
@given(m=random_mixture(), x=st.floats(-10.0, 10.0, allow_nan=False))
def test_log_density_matches_direct_summation(m, x):
    direct = math.fsum(
        p * math.exp(m.base.log_pdf(x - k))
        for p, k in zip(m.lattice.probs, m.lattice.support)
    )
    # only meaningful where the linear-space sum has full precision
    assume(direct > 1e-280)
    assert abs(math.exp(m.log_density(x)) - direct) <= 1e-13 * direct
