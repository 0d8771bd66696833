import functools
import json
import math
import re
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mixent.bounds as bounds_mod
from mixent.bounds import (
    CSV_COLUMNS,
    bernoulli_lower_bound,
    big_sigma_lower_bound,
    lemma1_upper_bound,
    lemma3_near_zero_term,
    lemma4_far_term,
    sandwich_report,
    theorem1_upper_bound,
)
from mixent.checks import SHARPNESS_GRID
from mixent.cli import main
from mixent.distributions import DiscreteLattice, GaussianDensity
from mixent.entropy import EntropyMethod, EntropyValue, deficit_direct

LN2 = math.log(2.0)
FAIR = DiscreteLattice.bernoulli(0.5)


def lemma1_mp(sigma: float, dps: int = 30) -> mpmath.mpf:
    """Lemma 1 as ``h(X) - h(X mod 1) = (1/2) ln(2 pi e sigma^2) + int theta ln theta``
    over one period, with the periodized density in its Jacobi theta form
    ``theta(y) = 1 + 2 sum_k exp(-2 pi^2 sigma^2 k^2) cos(2 pi k y)``."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(sigma)
        qs = [
            mpmath.exp(-2 * mpmath.pi**2 * s**2 * k**2)
            for k in range(1, int(3 / sigma) + 3)
        ]

        def theta(y):
            return 1 + 2 * mpmath.fsum(
                q * mpmath.cos(2 * mpmath.pi * k * y) for k, q in enumerate(qs, 1)
            )

        integral = mpmath.quad(lambda y: theta(y) * mpmath.log(theta(y)), [-0.5, 0, 0.5])
        return mpmath.log(2 * mpmath.pi * mpmath.e * s**2) / 2 + integral


@functools.lru_cache(maxsize=None)
def lemma1_log1p_mp(sigma: float) -> mpmath.mpf:
    """Lemma 1 from its defining integral in ``log1p`` form at 50 digits,
    ``int f(y) log1p(sum_{m != 0} exp(-m (2y + m) / (2 sigma^2))) dy``, for
    small sigma where the theta form cancels every digit.  The integrand
    varies on a scale of sigma^2 around the crossovers ``y = +-1/2``, so
    the Gauss-Legendre panels break at ``+-1/2 + j sigma^2`` (geometric
    ``j``); it is scaled by ``exp(1/(8 sigma^2))`` to peak near 1, because
    mpmath stops on an absolute error."""
    with mpmath.workdps(50):
        s = mpmath.mpf(sigma)
        c = 1 / (2 * s * s)
        norm = mpmath.exp(c / 4) / (mpmath.sqrt(2 * mpmath.pi) * s)
        ms = [m for m in range(-4, 5) if m]  # farther terms are below exp(-3c)
        pts = {-1, 0, 1}
        for half in (-0.5, 0.5):
            pts.update(half + j * s * s for j in (-64, -16, -4, -1, 0, 1, 4, 16, 64))

        def integrand(y):
            ratio = mpmath.fsum(mpmath.exp(-c * m * (2 * y + m)) for m in ms)
            return norm * mpmath.exp(-c * y * y) * mpmath.log1p(ratio)

        integral = mpmath.quad(
            integrand, [-mpmath.inf, *sorted(pts), mpmath.inf], method="gauss-legendre"
        )
        return integral / mpmath.exp(c / 4)


# Lemma 1 from the lattice-sum integrand over the whole line, on the sigma
# grids of geomspace(0.03, 8, 12), geomspace(0.03, 4, 12) and SHARPNESS_GRID;
# None where that integrand was not resolved (checked against
# lemma1_log1p_mp instead)
PINNED_SWEEP_TO_8 = (
    None,
    None,
    4.808782250122698e-09,
    0.0008199794065320967,
    0.07787834478818462,
    0.45481608246757194,
    0.9592895661691675,
    1.467107551611848,
    1.974925682430013,
    2.4827438132481774,
    2.9905619440663442,
    3.4983800748845097,
)
PINNED_SWEEP_TO_4 = (
    None,
    None,
    None,
    3.400003818059456e-05,
    0.013869594840869625,
    0.18552653580471198,
    0.5818259621492474,
    1.0260139066140064,
    1.4708186420227798,
    1.9156233927900412,
    2.360428143557302,
    2.8052328943245635,
)
PINNED_SHARPNESS_GRID = (
    0.0024821134911915746,
    0.034409206371645656,
    0.12085408112742649,
    0.24400504848862867,
    0.37708565102413805,
    0.5044556002789087,
    0.6207682472600499,
)
PINNED_SWEEPS = [
    *zip(np.geomspace(0.03, 8.0, 12), PINNED_SWEEP_TO_8),
    *zip(np.geomspace(0.03, 4.0, 12), PINNED_SWEEP_TO_4),
]


class TestClosedForms:
    def test_theorem1_frozen_values(self):
        assert theorem1_upper_bound(0.25) == pytest.approx(
            0.4859186986186925, rel=1e-13
        )
        assert theorem1_upper_bound(0.1) == pytest.approx(
            1.7840634176811572e-05, rel=1e-13
        )

    def test_theorem1_vanishes_at_zero_limit(self):
        assert theorem1_upper_bound(0.02) < 1e-130
        assert theorem1_upper_bound(0.005) == 0.0  # underflows double precision

    def test_bernoulli_frozen_values(self):
        assert bernoulli_lower_bound(0.25) == pytest.approx(
            0.01403388233037102, rel=1e-13
        )
        assert bernoulli_lower_bound(0.1) == pytest.approx(
            1.9785896446493348e-07, rel=1e-13
        )

    def test_bernoulli_root_at_half(self):
        assert bernoulli_lower_bound(0.4999999) == pytest.approx(0.0, abs=1e-7)
        assert bernoulli_lower_bound(0.49) > 0.0

    def test_lemma3_frozen_values(self):
        assert lemma3_near_zero_term(GaussianDensity(0.25)) == pytest.approx(
            0.04550026389635841, rel=1e-13
        )
        assert lemma3_near_zero_term(GaussianDensity(0.5)) == pytest.approx(
            0.3173105078629141, rel=1e-13
        )

    def test_lemma3_vanishes_for_small_sigma(self):
        assert lemma3_near_zero_term(GaussianDensity(0.01)) < 1e-300

    def test_lemma4_frozen_values(self):
        assert lemma4_far_term(GaussianDensity(0.25)) == pytest.approx(
            0.22173259276727214, rel=1e-13
        )
        assert lemma4_far_term(GaussianDensity(0.1)) == pytest.approx(
            8.866855433067458e-06, rel=1e-13
        )

    def test_lemma4_boundary(self):
        assert math.isfinite(lemma4_far_term(GaussianDensity(0.49)))
        with pytest.raises(
            ValueError, match=re.escape("far-field term requires 0 < sigma < 1/2 (got 0.5)")
        ):
            lemma4_far_term(GaussianDensity(0.5))

    @pytest.mark.parametrize("func", [theorem1_upper_bound, bernoulli_lower_bound])
    @pytest.mark.parametrize("sigma", [0.5, 0.75, 0.0, -0.1])
    def test_subcritical_domain_errors(self, func, sigma):
        what = {theorem1_upper_bound: "closed-form upper bound",
                bernoulli_lower_bound: "Bernoulli lower bound"}[func]
        message = f"{what} requires 0 < sigma < 1/2 (got {sigma!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            func(sigma)

    def test_big_sigma_frozen_values(self):
        assert big_sigma_lower_bound(1.0) == pytest.approx(
            0.21386192506482276, rel=1e-12
        )
        assert big_sigma_lower_bound(0.5) == pytest.approx(
            0.10997144194361163, rel=1e-12
        )

    def test_big_sigma_limit_and_monotonicity(self):
        assert big_sigma_lower_bound(1e7) == pytest.approx(LN2 / 2.0, rel=1e-7)
        grid = [0.5, 0.8, 1.3, 2.1, 3.4, 4.0]
        values = [big_sigma_lower_bound(s) for s in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_big_sigma_rejects_nonpositive(self):
        with pytest.raises(
            ValueError, match=re.escape("lower bound requires sigma > 0 (got 0.0)")
        ):
            big_sigma_lower_bound(0.0)


class TestLemma1:
    def test_orders_between_deficit_and_closed_form(self):
        g = GaussianDensity(0.25)
        value = lemma1_upper_bound(g).nats
        assert deficit_direct(FAIR, g).nats <= value <= theorem1_upper_bound(0.25)

    def test_below_closed_form_at_small_sigma(self):
        assert lemma1_upper_bound(GaussianDensity(0.1)).nats <= theorem1_upper_bound(0.1)

    def test_finite_positive_near_half(self):
        value = lemma1_upper_bound(GaussianDensity(0.45)).nats
        assert math.isfinite(value) and value > 0.0

    def test_independent_reference(self):
        # frozen from a 25-digit evaluation of the bound integral
        assert lemma1_upper_bound(GaussianDensity(0.25)).nats == pytest.approx(
            0.1208540811274, rel=1e-10
        )

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0, 8.0])
    def test_matches_theta_function_oracle(self, sigma):
        value = lemma1_upper_bound(GaussianDensity(sigma))
        assert value.converged
        assert abs(value.nats - float(lemma1_mp(sigma))) <= 1e-12 * value.nats

    @pytest.mark.parametrize(
        "sigma, pinned",
        [
            *((s, p) for s, p in PINNED_SWEEPS if p is not None),
            *zip(SHARPNESS_GRID, PINNED_SHARPNESS_GRID),
        ],
    )
    def test_pinned_values(self, sigma, pinned):
        value = lemma1_upper_bound(GaussianDensity(float(sigma)))
        assert value.converged
        assert abs(value.nats - pinned) <= 1e-12
        assert abs(value.nats - pinned) <= 1e-10 * pinned

    @pytest.mark.parametrize(
        "sigma", [float(s) for s, p in PINNED_SWEEPS if p is None]
    )
    def test_small_sigma_matches_log1p_oracle(self, sigma):
        value = lemma1_upper_bound(GaussianDensity(sigma))
        truth = float(lemma1_log1p_mp(sigma))
        assert value.converged
        assert abs(value.nats - truth) <= 1e-10 * truth
        assert value.abs_error <= 1e-10 * truth

    def test_small_sigma_truth(self):
        # 50-digit value, rounded to 11 digits: twice the fair Bernoulli
        # deficit at this sigma, as the m = +-1 terms dominate
        truth = 7.1633292697e-62
        assert abs(float(lemma1_log1p_mp(0.03)) - truth) <= 1e-10 * truth
        assert abs(lemma1_upper_bound(GaussianDensity(0.03)).nats - truth) <= 1e-10 * truth

    @pytest.mark.parametrize("sigma", [0.03, 0.25, 8.0])
    def test_one_quadrature_over_one_period(self, integrate_calls, sigma):
        lemma1_upper_bound(GaussianDensity(sigma))
        assert integrate_calls == [(-0.5, 0.5)]

    def test_carries_quadrature_error(self):
        value = lemma1_upper_bound(GaussianDensity(0.25))
        assert 0.0 <= value.abs_error <= 1e-10
        assert abs(value.nats - float(lemma1_mp(0.25))) <= value.abs_error + 1e-15


class TestOrderingChain:
    @pytest.mark.parametrize("sigma", [0.2, 0.45])
    @pytest.mark.parametrize(
        "z",
        [FAIR, DiscreteLattice((-1, 0, 1), (1 / 3, 1 / 3, 1 / 3))],
    )
    def test_chain_holds(self, z, sigma):
        g = GaussianDensity(sigma)
        delta = deficit_direct(z, g).nats
        l1 = lemma1_upper_bound(g).nats
        split = lemma3_near_zero_term(g) + lemma4_far_term(g)
        t1 = theorem1_upper_bound(sigma)
        assert l1 - delta >= -1e-10
        assert split - l1 >= -1e-10
        assert t1 - split >= -1e-10

    @pytest.mark.parametrize("sigma", [0.1, 0.25, 0.4])
    def test_rate_match(self, sigma):
        ratio = theorem1_upper_bound(sigma) / bernoulli_lower_bound(sigma)
        rational = (0.5 / sigma + 7.0) / (LN2 * (2.0 * sigma - 8.0 * sigma**3))
        assert abs(ratio - rational) <= 1e-12 * rational


class TestSandwichReport:
    def test_fair_bernoulli_subcritical(self):
        r = sandwich_report(FAIR, 0.25)
        assert r.ok and r.converged
        assert r.thm1 is not None
        assert r.lemma4 is not None
        assert r.bern_lb is not None
        assert r.bigsig_lb is None
        assert r.bern_lb <= r.delta <= r.thm1
        assert r.z == FAIR

    def test_fair_bernoulli_supercritical(self):
        r = sandwich_report(FAIR, 1.0)
        assert r.ok
        assert r.thm1 is None
        assert r.lemma4 is None
        assert r.bern_lb is None
        assert r.bigsig_lb == pytest.approx(0.21386192506482276, rel=1e-12)
        assert r.delta >= r.bigsig_lb

    def test_point_mass(self):
        r = sandwich_report(DiscreteLattice.point_mass(0), 0.25)
        assert abs(r.delta) <= 1e-12
        assert r.ok
        assert r.bern_lb is None  # not a two-atom law

    def test_unfair_bernoulli_gets_no_bernoulli_bound(self):
        r = sandwich_report(DiscreteLattice.bernoulli(0.3), 0.25)
        assert r.bern_lb is None
        assert r.bigsig_lb is None
        assert r.ok

    def test_csv_row_layout(self, capsys):
        code = main([
            "sweep", "--sigma-start", "0.25", "--sigma-end", "1", "--steps", "2",
            "--dist", '{"bernoulli":0.5}', "--format", "csv",
        ])
        assert code == 0
        header, row, row_big = (
            line.split(",") for line in capsys.readouterr().out.splitlines()
        )
        assert tuple(header) == CSV_COLUMNS
        assert header[0] == "sigma" and header[-1] == "ok"
        assert len(row) == len(CSV_COLUMNS) == 10
        assert row[0] == "0.25"
        assert row[-1] == "true"
        assert row[8] == ""  # big-sigma bound absent below 1/2

        assert row_big[0] == "1"
        assert row_big[5] == row_big[6] == row_big[7] == ""  # lemma4/thm1/bern absent
        assert row_big[8] != ""

    def test_json_dict_round_trips_through_json(self):
        r = sandwich_report(FAIR, 0.25)
        doc = json.loads(json.dumps(asdict(r)))
        assert doc["ok"] is True
        assert doc["z"] == FAIR.to_json()
        assert doc["bigsig_lb"] is None

    def test_unconverged_lemma1_is_not_ok(self, monkeypatch):
        real = bounds_mod.lemma1_upper_bound

        def unconverged(g):
            return EntropyValue(real(g).nats, EntropyMethod.QUADRATURE, 0.0, False)

        monkeypatch.setattr(bounds_mod, "lemma1_upper_bound", unconverged)
        r = sandwich_report(FAIR, 0.25)
        assert not r.converged
        assert not r.ok
        assert r.converged is False

    @pytest.mark.parametrize(
        "z, delta",
        [
            (FAIR, 1.0),  # above H(Z) = ln 2, below lemma1 = 1.467
            (DiscreteLattice.bernoulli(0.3), -1e-3),  # no lower bound applies
        ],
    )
    def test_impossible_deficit_is_not_ok(self, monkeypatch, z, delta):
        impossible = EntropyValue(delta, EntropyMethod.QUADRATURE, 1e-12)
        monkeypatch.setattr(bounds_mod, "deficit_direct", lambda *args: impossible)
        r = sandwich_report(z, 1.0)
        assert r.converged
        assert r.lemma1 > 1.0
        assert not r.ok


@given(
    z=st.sampled_from([FAIR, DiscreteLattice((0, 1, 2), (0.2, 0.5, 0.3))]),
    sigma=st.floats(0.0135, 0.1),
)
def test_small_sigma_sandwich_is_resolved(z, sigma):
    # an ok row rests on a deficit resolved to a relative 1e-8, never on
    # delta - err < 0
    r = sandwich_report(z, sigma)
    assert r.ok and r.converged
    assert 0.0 < r.delta_err < 1e-8 * r.delta
    if r.bern_lb is not None:
        assert r.bern_lb <= r.delta
    assert r.delta <= r.lemma1 <= r.thm1
