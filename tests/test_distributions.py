import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.special import logsumexp
from scipy.stats import norm

from mixent.checks import MC_SEED_BASE, grid_laws
from mixent.distributions import (
    DiscreteLattice,
    DistributionError,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
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

    def test_log_pdf_at_zero(self):
        assert GaussianDensity(1.0).log_pdf(0.0) == pytest.approx(
            -0.9189385332046727, rel=1e-15
        )

    def test_log_pdf_vectorized_matches_scalar(self):
        g = GaussianDensity(0.3)
        xs = np.linspace(-4, 4, 17)
        assert np.allclose(g.log_pdf(xs), [g.log_pdf(x) for x in xs], rtol=1e-15)

    def test_normalizes(self):
        g = GaussianDensity(0.7)
        qr = integrate(lambda x: np.exp(g.log_pdf(x)), -np.inf, np.inf)
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
            lambda x: math.exp(m.log_density(x)), -12.0, 12.0,
            points=[-1.0, 0.0, 1.0],
        )
        assert abs(qr.value - 1.0) <= max(qr.abs_error_estimate, 1e-10)

    def test_sampling_is_seed_deterministic(self):
        m = MixtureDensity(GaussianDensity(0.25), DiscreteLattice.bernoulli(0.5))
        a = m.sample(np.random.default_rng(7), 100)
        b = m.sample(np.random.default_rng(7), 100)
        assert np.array_equal(a, b)


def _geometric_law(k: int) -> DiscreteLattice:
    w = 0.5 ** np.arange(k) + 0.1
    return DiscreteLattice(tuple(range(k)), tuple(w / w.sum()))


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
        want = logsumexp(
            np.reshape(z.log_probs, col)
            + norm.logpdf(x - np.reshape(z.support, col), scale=sigma),
            axis=0,
        )
        assert np.shape(got) == shape
        if shape == ():
            assert type(got) is np.float64
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", [1, 3, 8, 40])
    def test_uniform_base_is_minus_inf_outside_its_support(self, k):
        w = 0.25
        x = np.linspace(-2.0, k + 1.0, 4 * (k + 3)).reshape(4, -1)
        ld = MixtureDensity(UniformDensity(w), _geometric_law(k)).log_density(x)
        outside = np.abs(x[None] - np.arange(k).reshape(-1, 1, 1)).min(axis=0) >= w
        assert ld.shape == x.shape
        assert np.all(ld[outside] == -math.inf)
        assert np.all(np.isfinite(ld[~outside]))


# mc_entropy(grid law, sigma 0.25, N = 10**5, seed MC_SEED_BASE) as
# (nats, standard error), captured from the N x K kernel before it became a
# K x N one: the same bits, not merely close values, for laws of <= 7 atoms
MC_BIT_PIN = {
    "bernoulli(1/2)": ("0x1.55fa376d22af6p-1", "0x1.db9e48c68f6a6p-10"),
    "bernoulli(0.3)": ("0x1.2e7c5b447f2a8p-1", "0x1.1e77d6391b3dep-9"),
    "uniform{-1,0,1}": ("0x1.0db144390b604p+0", "0x1.b1630a5d0a072p-10"),
    "geometric{0..5}": ("0x1.412ca73dc692cp+0", "0x1.87d2004622449p-9"),
}


@pytest.mark.parametrize("label", sorted(MC_BIT_PIN))
def test_mc_entropy_bits_are_pinned(label):
    m = MixtureDensity(GaussianDensity(0.25), grid_laws()[label])
    v = mc_entropy(m, McConfig(10**5, MC_SEED_BASE))
    assert (v.nats.hex(), v.abs_error.hex()) == MC_BIT_PIN[label]


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
@given(m=random_mixture(), x=st.floats(-10.0, 10.0, allow_nan=False))
def test_log_density_matches_direct_summation(m, x):
    direct = math.fsum(
        p * math.exp(m.base.log_pdf(x - k))
        for p, k in zip(m.lattice.probs, m.lattice.support)
    )
    # only meaningful where the linear-space sum has full precision
    assume(direct > 1e-280)
    assert abs(math.exp(m.log_density(x)) - direct) <= 1e-13 * direct
