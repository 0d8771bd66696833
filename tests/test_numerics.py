import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mixent.numerics as numerics_mod
from mixent.checks import LEMMA2_SEED
from mixent.distributions import DiscreteLattice, GaussianDensity, MixtureDensity, tail_mass
from mixent.numerics import (
    QuadratureResult,
    gaussian_tail_lower,
    integrate,
    lattice_sum,
)

STD_NORMAL = GaussianDensity(1.0)


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestIntegrate:
    def test_half_gaussian_mass(self):
        qr = integrate(_phi, 0.0, 40.0)
        assert abs(qr.value - 0.5) <= 1e-12
        assert qr.converged and qr.evaluations >= 1

    def test_mixture_normalization(self):
        m = MixtureDensity(GaussianDensity(0.25), DiscreteLattice.bernoulli(0.5))
        qr = integrate(lambda x: np.exp(m.log_density(x)), -10.0, 11.0)
        assert abs(qr.value - 1.0) <= 1e-10

    def test_tail_matches_erfc_oracle(self):
        g = GaussianDensity(0.25)
        qr = integrate(lambda x: np.exp(g.log_pdf(x)), 0.5, 10.5)
        assert abs(qr.value - tail_mass(g, 0.5)) <= 1e-10

    def test_invalid_interval(self):
        # empty, reversed, infinite and NaN intervals
        for a, b in [(1.0, 1.0), (2.0, -2.0), (0.0, np.inf), (-np.inf, 0.0),
                     (-np.inf, np.inf), (np.nan, 1.0)]:
            with pytest.raises(ValueError):
                integrate(_phi, a, b)

    def test_nonconvergence_is_flagged_not_raised(self, unreachable_tolerance):
        qr = integrate(lambda x: np.exp(-x * x / 2e-4), -10.0, 10.0)
        assert isinstance(qr, QuadratureResult)
        assert not qr.converged
        assert math.isfinite(qr.value)

    def test_points_help_narrow_spikes(self):
        g = GaussianDensity(0.01)
        qr = integrate(lambda x: np.exp(g.log_pdf(x - 3.0)), -20.0, 20.0, points=[3.0])
        assert abs(qr.value - 1.0) <= 1e-9

    def test_evaluations_are_21_per_panel_evaluated(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x * x / 2e-4)

        qr = integrate(f, -10.0, 10.0, points=[-1.0, 2.0])
        assert qr.converged and len(sizes) > 1
        # the three initial panels, then two halves per bisected panel
        assert sizes[0] == 63 and all(n % 42 == 0 for n in sizes[1:])
        assert qr.evaluations == sum(sizes)

    def test_unreachable_tolerance_stops_at_the_round_off_floor(
        self, unreachable_tolerance
    ):
        qr = integrate(np.exp, 0.0, 1.0)
        assert not qr.converged
        assert qr.evaluations < 21 * numerics_mod._MAX_SUBDIVISIONS
        assert abs(qr.value - math.expm1(1.0)) <= qr.abs_error_estimate

    def test_break_points_bound_the_initial_panels(self):
        # a step at 1/3 is integrated exactly when 1/3 is a break point
        seen = []

        def step(x):
            seen.append(x)
            return (x > 1.0 / 3.0).astype(float)

        qr = integrate(step, 0.0, 1.0, points=[1.0 / 3.0, 5.0, -1.0])
        assert qr.converged and qr.evaluations == 42
        assert qr.value == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert (seen[0][:21] < 1.0 / 3.0).all() and (seen[0][21:] > 1.0 / 3.0).all()

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    def test_gaussian_moments_within_reported_error(self, sigma):
        g = GaussianDensity(sigma)
        window = 40.0 * sigma
        mass = integrate(lambda x: np.exp(g.log_pdf(x)), -window, window)
        assert abs(mass.value - 1.0) <= max(mass.abs_error_estimate, 1e-13)
        second = integrate(lambda x: x * x * np.exp(g.log_pdf(x)), -window, window)
        assert abs(second.value - sigma**2) <= max(
            second.abs_error_estimate, 1e-13 * sigma**2
        )

    @pytest.mark.parametrize(
        "f, a, b, points",
        [
            (np.exp, 0.0, 1.0, None),
            (np.cos, -1.0, 2.0, [0.5]),
            (lambda x: np.exp(-x * x / 2e-4), -10.0, 10.0, [-1.0, 2.0]),
            (np.sqrt, 0.0, 1.0, None),
            (lambda x: np.abs(x - 0.3) ** 0.25, -1.0, 1.0, [0.0]),
        ],
    )
    def test_agrees_with_quadpack(self, f, a, b, points):
        # scipy's QUADPACK as an oracle: the same bits where both converge
        # on the initial panels, else within the two error estimates
        kwargs = {} if points is None else {"points": points}
        value, err = quad(
            lambda x: float(f(np.array([x]))[0]), a, b, epsabs=1e-12, epsrel=1e-10,
            limit=2000, **kwargs,
        )
        qr = integrate(f, a, b, points=points)
        assert qr.converged
        if qr.evaluations == 21 * (1 + len(points or ())):
            assert (qr.value, qr.abs_error_estimate) == (value, err)
        else:
            assert abs(qr.value - value) <= qr.abs_error_estimate + err


class TestLatticeSum:
    @pytest.mark.parametrize(
        "sigma,eps,expected",
        [
            (0.5, 0.0, 1.0143837720622287),
            (0.5, 0.5, 0.9856162386389233),
            (0.1, 0.0, 3.989422804014327),
            (0.5, 0.3, 0.9955551673142677),
            # the narrowest and widest reaches, against a 30-digit mpmath sum
            # over |m| <= 400 that shares no code with lattice_sum
            (0.05, 0.3, 1.2151765699646612e-07),
            (0.05, 0.5, 3.0778394506825847e-21),
            (1.0, 0.3, 0.999999998346581),
            (3.0, 0.3, 1.0),
            (8.0, 0.3, 1.0),
        ],
    )
    def test_frozen_values(self, sigma, eps, expected):
        assert lattice_sum(GaussianDensity(sigma), eps) == pytest.approx(
            expected, rel=1e-13
        )

    @pytest.mark.parametrize(
        "sigma, expected",
        [
            (0.1, 3.989422804014327),
            (0.5, 1.0143837720622289),
            (1.0, 1.0000000053505758),
            (3.0, 1.0000000000000002),
        ],
    )
    def test_on_lattice_values_are_exact_pairings(self, sigma, expected):
        # the peak plus 2 exp(-m^2 / (2 sigma^2)) per pair, to the last bit
        for eps in (0.0, -0.0, 4.0, -3.0):
            assert lattice_sum(GaussianDensity(sigma), eps) == expected

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.25, 0.5])
    def test_below_inverse_sigma(self, sigma):
        g = GaussianDensity(sigma)
        for eps in np.linspace(-1.7, 1.7, 23):
            assert lattice_sum(g, eps) < 1.0 / sigma

    @pytest.mark.parametrize("shift", [-5, -1, 1, 12])
    def test_shift_invariance(self, shift):
        g = GaussianDensity(0.2)
        for eps in (0.0, 0.13, -0.47, 0.5):
            a = lattice_sum(g, eps)
            b = lattice_sum(g, eps + shift)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_reflection_invariance(self):
        g = GaussianDensity(0.35)
        for eps in (0.05, 0.31, 0.49, 2.2):
            a = lattice_sum(g, eps)
            b = lattice_sum(g, -eps)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    @pytest.mark.parametrize("sigma", [0.05, 0.25, 0.5, 1.0, 3.0])
    def test_matches_the_scalar_loop(self, sigma):
        # the per-offset math.exp loop lattice_sum replaced: the same
        # operations in the same order, so only exp's rounding differs
        g = GaussianDensity(sigma)
        inv2s2 = 1.0 / (2.0 * sigma * sigma)

        def loop(eps):
            eps = float(eps) - round(float(eps))
            total = math.exp(-(eps * eps) * inv2s2)
            for m in range(1, g.reach + 1):
                up, dn = eps + m, eps - m
                total += math.exp(-(up * up) * inv2s2) + math.exp(-(dn * dn) * inv2s2)
            return total / (math.sqrt(2.0 * math.pi) * sigma)

        eps = np.linspace(-5.0, 5.0, 401)
        want = np.array([loop(e) for e in eps])
        tol = 4 * np.finfo(float).eps * want
        assert np.all(np.abs(lattice_sum(g, eps) - want) <= tol)

    @pytest.mark.parametrize("sigma", [i / 20 for i in range(1, 11)])
    def test_array_call_matches_scalar_calls_bit_for_bit(self, sigma):
        # the offsets of the validate check, plus lattice points and ties
        g = GaussianDensity(sigma)
        eps = np.concatenate([
            np.random.default_rng(LEMMA2_SEED).uniform(-5.0, 5.0, size=1000),
            [0.0, -0.0, 4.0, 0.5, -0.5, 2.5],
        ])
        got = lattice_sum(g, eps)
        assert got.shape == eps.shape
        scalar = [lattice_sum(g, e) for e in eps]
        assert all(type(v) is float for v in scalar)
        assert [float(v).hex() for v in got] == [v.hex() for v in scalar]
        grid = eps[:1000].reshape(10, 100)
        assert np.array_equal(lattice_sum(g, grid), got[:1000].reshape(10, 100))


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.floats(0.05, 0.5, allow_nan=False),
    eps=st.floats(-5.0, 5.0, allow_nan=False),
)
def test_lattice_sum_bound_property(sigma, eps):
    assert lattice_sum(GaussianDensity(sigma), eps) < 1.0 / sigma


class TestGaussianTailLower:
    def test_at_two(self):
        got = gaussian_tail_lower(2.0)
        assert got == pytest.approx(0.02024661244244552, rel=1e-13)
        assert got <= tail_mass(STD_NORMAL, 2.0)

    def test_at_sqrt_three(self):
        got = gaussian_tail_lower(math.sqrt(3.0))
        true_tail = tail_mass(STD_NORMAL, math.sqrt(3.0))
        assert got == pytest.approx(0.03426229551194873, rel=1e-13)
        assert true_tail == pytest.approx(0.0416322583317752, rel=1e-12)
        assert got <= true_tail

    def test_just_above_one(self):
        got = gaussian_tail_lower(1.0001)
        assert 0.0 < got <= tail_mass(STD_NORMAL, 1.0001)

    @pytest.mark.parametrize("z", [1.0, 0.5, 0.0, -3.0])
    def test_domain_error_at_or_below_one(self, z):
        message = f"tail lower bound requires z > 1 (got {z!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            gaussian_tail_lower(z)

    def test_below_tail_on_grid(self):
        for z in np.linspace(1.01, 10.0, 50):
            assert gaussian_tail_lower(z) <= tail_mass(STD_NORMAL, z)
