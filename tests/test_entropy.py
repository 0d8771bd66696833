import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

import mixent.entropy as entropy_mod
from mixent.bounds import (
    big_sigma_lower_bound,
    lemma1_upper_bound,
    theorem1_upper_bound,
)
from mixent.distributions import (
    DiscreteLattice,
    GaussianDensity,
    MixtureDensity,
    UniformDensity,
)
from mixent.entropy import (
    MC_BLOCK_SAMPLES,
    MC_CHUNK_SAMPLES,
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
            return -np.exp(lf) * lf

        qr = integrate(integrand, -10.0, 10.0)
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
        di = deficit_via_identity(z, g, hm)
        assert abs(di.nats) <= di.abs_error

    def test_nonconvergence_propagates(self, unreachable_tolerance):
        dd = deficit_direct(FAIR, GaussianDensity(0.25))
        di = deficit_via_identity(FAIR, GaussianDensity(0.25))
        assert not dd.converged
        assert not di.converged
        assert math.isfinite(dd.nats) and math.isfinite(di.nats)


# float.hex of (value, abs_error) of quadratures that converge on their
# initial panels: the same bits as QUADPACK's dqagpe gave them on the same
# integrand values, which scipy.integrate.quad computed before the
# integrator moved into numpy; the deficit at sigma = 1 is 1 ulp above that,
# from the summation order of its integrand's row form
QUADRATURE_BIT_PINS = {
    ("deficit_direct", 0.45): ("0x1.3b0d4ec3d7904p-2", "0x1.ec44cb1200d16p-49"),
    ("mixture_entropy", 0.45): ("0x1.0183527125d04p+0", "0x1.925d30d0cb156p-47"),
    ("deficit_direct", 1.0): ("0x1.29d7f36387504p-1", "0x1.d1616c4b836d5p-48"),
    ("mixture_entropy", 1.0): ("0x1.87c5ac89341d0p+0", "0x1.32126ecb30b6ap-46"),
    ("deficit_direct", 4.0): ("0x1.5eec1b01a7a65p-1", "0x1.122875194af9fp-47"),
    ("mixture_entropy", 4.0): ("0x1.680fe454e3c88p+1", "0x1.194c6a6251f4ap-45"),
    ("lemma1_upper_bound", 1.0): ("0x1.6b3f8e4325f5bp+0", "0x1.1bc9a72475a7fp-46"),
}


@st.composite
def near_laws(draw):
    """Up to 8 atoms with gaps of 1 to 3 and weights down to 1e-6."""
    gaps = draw(st.lists(st.integers(1, 3), max_size=7))
    support = np.cumsum([draw(st.integers(-5, 5))] + gaps)
    weights = draw(
        st.lists(st.floats(1e-6, 1.0), min_size=support.size, max_size=support.size)
    )
    total = math.fsum(weights)
    return DiscreteLattice(tuple(support.tolist()), tuple(w / total for w in weights))


class TestFoldedQuadrature:
    @pytest.mark.parametrize("name, sigma", sorted(QUADRATURE_BIT_PINS))
    def test_bits_are_pinned(self, name, sigma):
        g = GaussianDensity(sigma)
        v = {
            "deficit_direct": lambda: deficit_direct(FAIR, g),
            "mixture_entropy": lambda: mixture_entropy(MixtureDensity(g, FAIR)),
            "lemma1_upper_bound": lambda: lemma1_upper_bound(g),
        }[name]()
        assert v.converged
        assert (v.nats.hex(), v.abs_error.hex()) == QUADRATURE_BIT_PINS[name, sigma]

    @given(z=near_laws(), sigma=st.floats(0.02, 16.0))
    def test_integrand_on_an_array_is_the_integrand_on_each_node(self, z, sigma):
        # the folded integrands, taken from the quadrature that runs them, at
        # the real slice budget and at 2**10, which groups many nodes into a
        # slice at small sigma and splits a node's cells at large sigma
        g = GaussianDensity(sigma)
        integrands = []
        real = entropy_mod.integrate

        def capture(f, *args, **kwargs):
            integrands.append(f)
            return real(f, *args, **kwargs)

        u = np.concatenate([np.linspace(-0.5, 0.5, 37), [-1e-17, 0.0, 2.0**-60]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy_mod, "integrate", capture)
            deficit_direct(z, g)
            mixture_entropy(MixtureDensity(g, z))
            with np.errstate(divide="ignore", invalid="ignore"):
                for budget in (entropy_mod.QUAD_BLOCK_CELLS, 2**10):
                    mp.setattr(entropy_mod, "QUAD_BLOCK_CELLS", budget)
                    for f in integrands:
                        whole = f(u)
                        each = np.concatenate([f(u[i : i + 1]) for i in range(u.size)])
                        assert whole.tobytes() == each.tobytes()

    def test_memory_stays_bounded_for_many_atoms(self):
        # all 42 initial nodes at once would take ~8 MiB per temporary
        z, g = DiscreteLattice.uniform_support(1000), GaussianDensity(0.25)
        tracemalloc.start()
        try:
            dd = deficit_direct(z, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dd.converged
        assert peak < 32 * 2**20

    def test_memory_stays_bounded_at_large_sigma(self):
        # ~80000 cells: each node's cells span several slices, whose sums
        # add into the node's total; one double per (node, cell) would
        # take 33 MiB
        sigma = 1e3
        tracemalloc.start()
        try:
            dd = deficit_direct(FAIR, GaussianDensity(sigma))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the next term of the expansion is O(sigma**-8)
        expected = math.log(2.0) - 0.5 * math.log1p(1.0 / (4.0 * sigma**2))
        assert dd.converged
        assert abs(dd.nats - expected) <= dd.abs_error + 1e-15
        assert peak < 16 * 2**20



@st.composite
def atom_columns(draw):
    """Columns of ``t = top - d`` over 1 to 24 atoms, atoms on axis 0.  A
    column is empty (no mass: every ``d`` infinite), near (one atom at
    ``d = 0``, the others at exact ties, ``d`` up to 40 or -inf padding) or
    far (the others at ``d >= 700`` or padding, so ``sum exp(-d)`` over
    them is below 1e-300), with ``top`` in [-300, 300]."""
    width = draw(st.integers(1, 24))
    others = {
        "near": st.one_of(st.just(0.0), st.floats(0.0, 40.0), st.just(math.inf)),
        "far": st.one_of(st.floats(700.0, 800.0), st.just(math.inf)),
    }
    cols = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(("empty", "near", "far")))
        if kind == "empty":
            d = [math.inf] * width
        else:
            d = [0.0] + draw(st.lists(others[kind], min_size=width - 1, max_size=width - 1))
            d = [d[i] for i in draw(st.permutations(range(width)))]
        cols.append(draw(st.floats(-300.0, 300.0)) - np.array(d))
    return np.array(cols).T.copy()


def logaddexp_deficit_rows(t):
    """The deficit integrand on rows of atoms (``t`` is N x w), with
    ``ln(1 + r_k) = logaddexp(0, ln r_k)`` per entry; returns the row
    values, ``top`` and the total they are ``exp(top + ln total)`` of."""
    rows = np.arange(t.shape[0])
    i = t.argmax(axis=1)
    top = t[rows, i]
    live = top > -np.inf
    top[~live] = 0.0
    e = np.exp(t - top[:, None])
    e[rows, i] = 0.0
    rest = e.sum(axis=1)
    others = (rest[:, None] + 1.0) - e
    others[rows, i] = rest
    e[rows, i] = live
    ln1p_ratio = np.logaddexp(0.0, np.log(others) + (top[:, None] - t))
    total = (e * np.where(e > 0.0, ln1p_ratio, 0.0)).sum(axis=1)
    return np.exp(top + np.log(total)), top, total


def assert_close_past_exp(got, want, top, log_sum, slack):
    """``got`` within 8 ulp of ``slack``, the size ``want``'s relative errors
    scale to, or both 0, beyond what the two share: each takes ``exp(top +
    log_sum)``, and rounding that sum moves the exponential by up to the
    spacing of its larger operand, relative."""
    with np.errstate(invalid="ignore"):
        move = np.spacing(np.maximum(np.abs(top), np.abs(log_sum)))
        tol = 8 * np.spacing(slack) + 2 * move * slack
        ok = ((got == 0) & (want == 0)) | (np.abs(got - want) <= tol)
    assert ok.all(), (got[~ok], want[~ok])


class TestIntegrandBodies:
    @given(t=atom_columns())
    def test_deficit_body_is_the_logaddexp_body(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            want, top, total = logaddexp_deficit_rows(t.T.copy())
            got = entropy_mod._deficit_body(t.copy())
            assert_close_past_exp(got, want, top, np.log(total), want)
        assert np.all(got >= 0.0)

    @given(t=atom_columns())
    def test_entropy_body_is_minus_m_ln_m(self, t):
        # M as a correctly rounded sum of the components, each below 2e130;
        # -M ln M also carries ln M's absolute error, times M: slack |want| + M
        m = np.array([math.fsum(np.exp(col)) for col in t.T])
        top = t.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(m > 0, -(m * np.log(m)), 0.0)
            got = entropy_mod._entropy_body(t.copy())
            assert_close_past_exp(got, want, top, np.log(m) - top, np.abs(want) + m)

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

    @pytest.mark.parametrize("sigma", [1e-100, 1e-16])
    def test_exact_coordinates_below_the_spacing_of_doubles(self, sigma):
        # 1 + noise rounds to 1 here: a sample must keep its noise apart
        m = MixtureDensity(GaussianDensity(sigma), FAIR)
        est = mc_entropy(m, McConfig(samples=2000, seed=0))
        assert abs(est.nats - mixture_entropy(m).nats) <= 4.0 * est.abs_error

    def test_far_atom_at_tiny_sigma_warns_nothing(self):
        # d^2 / (2 sigma^2) overflows for both far atoms; 1.5e-154 is just
        # above the smallest sigma, 2**-511
        for sigma, z in (
            (1e-150, DiscreteLattice((0, 20000), (0.5, 0.5))),
            (1.5e-154, DiscreteLattice((0, 1, 10**6), (0.25, 0.5, 0.25))),
        ):
            m = MixtureDensity(GaussianDensity(sigma), z)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = mc_entropy(m, McConfig(samples=2000, seed=0))
            assert math.isfinite(est.nats) and math.isfinite(est.abs_error)
            assert abs(est.nats - mixture_entropy(m).nats) <= 4.0 * est.abs_error

    def test_memory_stays_bounded_for_many_atoms(self):
        # one K x N array would take 24 bytes per cell: ~458 MiB here
        m = MixtureDensity(GaussianDensity(1.0), DiscreteLattice.uniform_support(1000))
        tracemalloc.start()
        try:
            mc_entropy(m, McConfig(samples=20_000, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_holds_one_array_of_the_sample_size(self):
        # 8 MiB of noise, only read, a 2 MiB chunk of its log-densities and
        # 256 KiB blocks; a log-density array of the sample size and np.std's
        # temporary would add 16 MiB
        m = MixtureDensity(GaussianDensity(0.25), FAIR)
        mc_entropy(m, McConfig(samples=2, seed=0))  # lazy imports, ~0.7 MiB
        tracemalloc.start()
        try:
            mc_entropy(m, McConfig(samples=2**20, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_one_atom_law_over_a_partial_block_is_the_base_log_pdf(self):
        n = MC_BLOCK_SAMPLES + 5
        g = GaussianDensity(0.7)
        est = mc_entropy(MixtureDensity(g, DiscreteLattice.point_mass(3)), McConfig(n, 9))
        rng = np.random.default_rng(9)
        rng.multinomial(n, [1.0])
        ld = g.log_pdf(g.sample(rng, n))
        assert est.nats == -float(np.mean(ld))
        assert est.abs_error == float(np.std(ld, ddof=1) / math.sqrt(n))

    @staticmethod
    def _against_scipy(n, seed):
        """``mc_entropy`` at ``n`` samples of a law with a 1e-12-weight atom
        against one full-array scipy evaluation of the same sample, and
        against ``_mc_estimate`` of that sample, which must leave its noise
        as it was; the atom counts."""
        z = DiscreteLattice((-2, 0, 5), (0.6, 1e-12, 0.4 - 1e-12))
        sigma = 0.8
        m = MixtureDensity(GaussianDensity(sigma), z)
        counts, noise = m.sample(np.random.default_rng(seed), n)
        atoms = np.repeat(z.support, counts)
        shifts = atoms[None, :] - np.reshape(z.support, (-1, 1))
        want = logsumexp(
            np.reshape(z.log_probs, (-1, 1)) + norm.logpdf(noise + shifts, scale=sigma),
            axis=0,
        )
        est = mc_entropy(m, McConfig(n, seed))
        kept = noise.copy()
        assert entropy_mod._mc_estimate(m, counts, noise) == est
        assert np.array_equal(noise, kept)  # the estimate only reads it
        assert est.nats == pytest.approx(-np.mean(want), rel=1e-14)
        assert est.abs_error == pytest.approx(np.std(want, ddof=1) / math.sqrt(n), rel=1e-12)
        return counts

    def test_zero_count_atom_and_partial_blocks_match_scipy(self):
        counts = self._against_scipy(2 * MC_BLOCK_SAMPLES + 7, 4)
        assert counts[1] == 0 and counts[0] > MC_BLOCK_SAMPLES

    def test_chunk_merge_matches_scipy(self):
        # three chunks, the last of 7 samples; both atom runs cross an edge
        counts = self._against_scipy(2 * MC_CHUNK_SAMPLES + 7, 4)
        assert counts[1] == 0
        assert MC_CHUNK_SAMPLES < counts[0] < 2 * MC_CHUNK_SAMPLES

    def test_scaled_noise_has_the_bits_of_the_noise_it_stands_for(self):
        # validate's rows scale one shared draw by their own sigma, a chunk
        # at a time, and leave the draw as it was
        z = DiscreteLattice((-2, 0, 5), (0.6, 1e-12, 0.4 - 1e-12))
        sigma, n = 0.8, 2 * MC_CHUNK_SAMPLES + 7
        m = MixtureDensity(GaussianDensity(sigma), z)
        rng = np.random.default_rng(12)
        counts = rng.multinomial(n, z.probs)
        shared = rng.standard_normal(n)
        kept = shared.copy()
        got = entropy_mod._mc_estimate(m, counts, shared, sigma)
        want = entropy_mod._mc_estimate(m, counts, shared * sigma)
        assert (got.nats.hex(), got.abs_error.hex()) == (
            want.nats.hex(), want.abs_error.hex())
        assert np.array_equal(shared, kept)


@st.composite
def _own_atom_case(draw):
    """A law of up to 7 atoms with gaps of at most 3 and one more atom 10^3
    past them, a base of scale ``sigma``, one of its atoms and noises that
    a sample of that atom can have: ``z sigma`` with ``|z| <= 8`` for a
    Gaussian, and inside the support for a uniform of half-width sigma."""
    gaps = draw(st.lists(st.integers(1, 3), max_size=6))
    support = np.cumsum([0] + gaps).tolist()
    support.append(support[-1] + 1000)
    weights = draw(st.lists(
        st.floats(1e-6, 1.0), min_size=len(support), max_size=len(support)))
    z = DiscreteLattice(tuple(support), tuple(np.divide(weights, math.fsum(weights))))
    sigma = 10.0 ** draw(st.floats(-3.0, math.log10(50.0)))
    gaussian = draw(st.booleans())
    base = GaussianDensity(sigma) if gaussian else UniformDensity(sigma)
    bound = 8.0 if gaussian else 1.0 - 2.0**-52
    zs = draw(st.lists(st.floats(-bound, bound), min_size=1, max_size=20))
    return z, base, draw(st.integers(0, len(support) - 1)), np.multiply(zs, sigma)


@settings(max_examples=300, deadline=None)
@given(_own_atom_case())
def test_own_atom_scores_match_log_density(case):
    z, base, a, x = case
    lps = np.asarray(z.log_probs)
    near = np.arange(len(lps)) != a
    shifts = (z.support[a] - np.asarray(z.support, dtype=float)[near])[:, None]
    got = x.copy()
    rho = np.empty((len(lps) - 1, x.size))
    entropy_mod._own_atom_scores(base, got, lps[a], shifts, lps[near][:, None], rho)
    want = MixtureDensity(base, z).log_density(x, z.support[a])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
