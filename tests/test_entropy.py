import math

import numpy as np
import pytest

from mixent.bounds import big_sigma_lower_bound, theorem1_upper_bound
from mixent.distributions import (
    DiscreteLattice,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
)
from mixent.entropy import (
    EntropyMethod,
    McConfig,
    deficit_direct,
    deficit_via_identity,
    discrete_entropy,
    gaussian_entropy,
    mc_entropy,
    mixture_entropy,
)
from mixent.numerics import integrate

LN2 = math.log(2.0)
FAIR = DiscreteLattice.bernoulli(0.5)


class TestDiscreteEntropy:
    def test_fair_bernoulli(self):
        v = discrete_entropy(FAIR)
        assert v.nats == pytest.approx(LN2, rel=1e-15)
        assert v.method is EntropyMethod.CLOSED_FORM
        assert v.abs_error == 0.0

    def test_point_mass(self):
        assert discrete_entropy(DiscreteLattice.point_mass(5)).nats == 0.0

    def test_uniform_four(self):
        v = discrete_entropy(DiscreteLattice.uniform_support(4))
        assert v.nats == pytest.approx(math.log(4.0), rel=1e-15)


class TestGaussianEntropy:
    def test_unit_sigma(self):
        assert gaussian_entropy(GaussianDensity(1.0)).nats == pytest.approx(
            1.4189385332046727, rel=1e-15
        )

    def test_unit_height_point(self):
        sigma = 1.0 / math.sqrt(2.0 * math.pi * math.e)
        assert gaussian_entropy(GaussianDensity(sigma)).nats == pytest.approx(
            0.0, abs=1e-15
        )

    def test_quarter_sigma_against_quadrature(self):
        g = GaussianDensity(0.25)
        closed = gaussian_entropy(g).nats
        assert closed == pytest.approx(0.0326441720847821, rel=1e-13)

        def integrand(x):
            lf = g.log_pdf(x)
            return -math.exp(lf) * lf

        qr = integrate(integrand, -np.inf, np.inf)
        assert abs(qr.value - closed) <= max(qr.abs_error_estimate, 1e-12)


class TestMixtureEntropy:
    def test_point_mass_equals_gaussian_entropy(self):
        m = MixtureDensity(GaussianDensity(0.25), DiscreteLattice.point_mass(0))
        hm = mixture_entropy(m)
        assert abs(hm.nats - gaussian_entropy(GaussianDensity(0.25)).nats) <= 1e-10

    def test_disjoint_uniform_components_give_zero(self):
        # fair Bernoulli + uniform(1/4): density is the indicator of a
        # length-one set, so the entropy vanishes identically
        m = MixtureDensity(UniformDensity(0.25), FAIR)
        assert abs(mixture_entropy(m).nats) <= 1e-12

    def test_small_sigma_near_identity_value(self):
        hm = mixture_entropy(MixtureDensity(GaussianDensity(0.1), FAIR))
        target = LN2 + gaussian_entropy(GaussianDensity(0.1)).nats
        delta = target - hm.nats
        assert 0.0 <= delta <= theorem1_upper_bound(0.1)

    def test_translation_invariance(self):
        z = DiscreteLattice((-1, 0, 1), (1 / 3, 1 / 3, 1 / 3))
        g = GaussianDensity(0.3)
        a = mixture_entropy(MixtureDensity(g, z))
        b = mixture_entropy(MixtureDensity(g, DiscreteLattice((6, 7, 8), z.probs)))
        assert abs(a.nats - b.nats) <= 1e-10


class TestDeficit:
    def test_point_mass_direct_is_zero(self):
        dd = deficit_direct(DiscreteLattice.point_mass(0), GaussianDensity(0.25))
        assert abs(dd.nats) <= 1e-12

    def test_point_mass_identity_is_zero(self):
        di = deficit_via_identity(DiscreteLattice.point_mass(0), GaussianDensity(0.25))
        assert abs(di.nats) <= 1e-10

    def test_fair_bernoulli_quarter_sigma(self):
        dd = deficit_direct(FAIR, GaussianDensity(0.25))
        # independent 30-digit quadrature reference
        assert dd.nats == pytest.approx(0.06042698682307833, rel=1e-9)
        assert 0.0140330 <= dd.nats <= 0.4858927

    @pytest.mark.parametrize("sigma", [0.25, 0.45])
    def test_routes_agree(self, sigma):
        g = GaussianDensity(sigma)
        dd = deficit_direct(FAIR, g)
        di = deficit_via_identity(FAIR, g)
        assert di.method is EntropyMethod.IDENTITY
        assert abs(dd.nats - di.nats) <= dd.abs_error + di.abs_error

    def test_large_sigma_exceeds_tail_bound(self):
        dd = deficit_direct(FAIR, GaussianDensity(1.0))
        assert dd.nats >= big_sigma_lower_bound(1.0)

    @pytest.mark.parametrize(
        "z",
        [
            FAIR,
            DiscreteLattice.bernoulli(0.3),
            DiscreteLattice((-1, 0, 1), (1 / 3, 1 / 3, 1 / 3)),
        ],
    )
    @pytest.mark.parametrize("sigma", [0.1, 0.45])
    def test_non_negative(self, z, sigma):
        assert deficit_direct(z, GaussianDensity(sigma)).nats >= -1e-10

    def test_independent_reference_values(self):
        # frozen from a 30-digit evaluation of the defining integral
        g = GaussianDensity(0.25)
        u3 = DiscreteLattice((-1, 0, 1), (1 / 3, 1 / 3, 1 / 3))
        assert deficit_direct(u3, g).nats == pytest.approx(
            0.08056935159119424, rel=1e-9
        )
        b3 = DiscreteLattice.bernoulli(0.3)
        assert deficit_direct(b3, g).nats == pytest.approx(
            0.05471461804252918, rel=1e-9
        )

    @pytest.mark.parametrize("half_width", [0.25, 0.5])
    def test_uniform_base_equality_case(self, half_width):
        # components stay disjoint for half_width <= 1/2, so the deficit
        # vanishes identically
        u = UniformDensity(half_width)
        assert abs(deficit_via_identity(FAIR, u).nats) <= 1e-12
        assert abs(deficit_direct(FAIR, u).nats) <= 1e-12

    def test_small_sigma_is_resolved_until_it_underflows(self):
        # no floor: at sigma = 0.015 delta ~ 2e-243 is resolved to a relative
        # 1e-8; at 0.01 it is below the smallest double and comes out as 0
        dd = deficit_direct(FAIR, GaussianDensity(0.015))
        assert dd.converged
        assert 0.0 < dd.abs_error < 1e-8 * dd.nats
        assert dd.nats <= theorem1_upper_bound(0.015)
        tiny = deficit_direct(FAIR, GaussianDensity(0.01))
        assert tiny.converged
        assert tiny.nats == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [2.0**-511, 1e-20, 1e-18, 1e-6, 1e-4])
    @pytest.mark.parametrize("z", [FAIR, DiscreteLattice((0, 2, 7), (0.2, 0.5, 0.3))])
    def test_narrow_peaks_give_exact_mixture_entropy(self, z, sigma):
        # the components do not overlap to double precision, so
        # h(X+Z) = H(Z) + h(X); below sigma ~ 1.4e-18 the fences at +-40
        # sigma would round to 0 unless placed exactly
        g = GaussianDensity(sigma)
        hm = mixture_entropy(MixtureDensity(g, z))
        exact = discrete_entropy(z).nats + gaussian_entropy(g).nats
        assert hm.converged
        assert abs(hm.nats - exact) <= 1e-12 * abs(exact)

    def test_nonconvergence_propagates(self, unreachable_tolerance):
        dd = deficit_direct(FAIR, GaussianDensity(0.25))
        di = deficit_via_identity(FAIR, GaussianDensity(0.25))
        assert not dd.converged
        assert not di.converged
        assert math.isfinite(dd.nats) and math.isfinite(di.nats)


class TestMcEntropy:
    def test_rejects_tiny_sample_count(self):
        # one sample has no standard error
        with pytest.raises(ValueError, match="samples must be >= 2"):
            McConfig(samples=1, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0, seed=0)
        with pytest.raises(ValueError):
            McConfig(samples=10, seed=-1)

    def test_seed_reproducibility_is_bit_exact(self):
        m = MixtureDensity(GaussianDensity(0.25), FAIR)
        a = mc_entropy(m, McConfig(samples=5000, seed=42))
        b = mc_entropy(m, McConfig(samples=5000, seed=42))
        assert a == b

    def test_different_seeds_differ(self):
        m = MixtureDensity(GaussianDensity(0.25), FAIR)
        a = mc_entropy(m, McConfig(samples=5000, seed=1))
        b = mc_entropy(m, McConfig(samples=5000, seed=2))
        assert a.nats != b.nats

    def test_point_mass_recovers_gaussian_entropy(self):
        m = MixtureDensity(GaussianDensity(1.0), DiscreteLattice.point_mass(0))
        est = mc_entropy(m, McConfig(samples=200_000, seed=11))
        assert est.method is EntropyMethod.MONTE_CARLO
        assert abs(est.nats - 1.4189385332046727) <= 4.0 * est.abs_error

    def test_agrees_with_quadrature(self):
        m = MixtureDensity(GaussianDensity(0.25), FAIR)
        est = mc_entropy(m, McConfig(samples=200_000, seed=3))
        hq = mixture_entropy(m)
        assert abs(est.nats - hq.nats) <= 4.0 * est.abs_error

    def test_uniform_base_sampling(self):
        m = MixtureDensity(UniformDensity(0.25), FAIR)
        est = mc_entropy(m, McConfig(samples=50_000, seed=5))
        # exact value is 0; log-density is constant so the SE is 0 too
        assert est.nats == pytest.approx(0.0, abs=1e-12)
