import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixent.bounds import big_sigma_lower_bound, theorem1_upper_bound
from mixent.distributions import (
    DiscreteLattice,
    DistributionError,
    GaussianDensity,
    MixtureDensity,
)
from mixent.cli import main
from mixent.entropy import discrete_entropy, mixture_entropy
from mixent.landauer import (
    CSV_COLUMNS,
    BitMemoryModel,
    rescale_to_unit_lattice,
    reset_report,
)

LN2 = math.log(2.0)


class TestBitMemoryModel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0, "sigma": 0.1, "p1": 0.5},
            {"mu": 0.5, "sigma": 0.0, "p1": 0.5},
            {"mu": 0.5, "sigma": 0.1, "p1": 1.5},
            {"mu": 0.5, "sigma": 0.1, "p1": -0.1},
            {"mu": math.inf, "sigma": 0.1, "p1": 0.5},
            {"mu": "1", "sigma": 0.1, "p1": 0.5},
            {"mu": 0.5, "sigma": "0.1", "p1": 0.5},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(DistributionError):
            BitMemoryModel(**kwargs)

    @pytest.mark.parametrize("mu, sigma", [(1e-10, 1e-160), (1e200, 1e200)])
    def test_in_well_sigma_beyond_a_double_names_the_model(self, capsys, mu, sigma):
        # sigma / (2 mu) is a fine unit-lattice noise, but the in-well noise
        # itself squares out of range: construction says so, not the report
        fault = f"mu {mu!r}, sigma {sigma!r}, p1 0.5: sigma {sigma!r} is outside"
        with pytest.raises(DistributionError, match="^" + re.escape(fault)):
            BitMemoryModel(mu=mu, sigma=sigma, p1=0.5)
        argv = ["landauer", "--mu", repr(mu), "--sigma", repr(sigma), "--p1", "0.5"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: " + fault)


class TestBinaryEntropy:
    @staticmethod
    def binary_entropy(p):
        return discrete_entropy(DiscreteLattice.bernoulli(p)).nats

    def test_values(self):
        assert self.binary_entropy(0.5) == pytest.approx(LN2, rel=1e-15)
        assert self.binary_entropy(0.0) == 0.0
        assert self.binary_entropy(1.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DistributionError):
            self.binary_entropy(1.2)


class TestRescale:
    def test_unit_spacing(self):
        lattice, g = rescale_to_unit_lattice(
            BitMemoryModel(mu=0.5, sigma=0.25, p1=0.5)
        )
        assert lattice.support == (0, 1)
        assert g.sigma == 0.25

    def test_affine_scaling(self):
        lattice, g = rescale_to_unit_lattice(
            BitMemoryModel(mu=1.0, sigma=0.2, p1=0.5)
        )
        assert g.sigma == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("p1,atom", [(0.0, 0), (1.0, 1)])
    def test_degenerate_weights_become_point_mass(self, p1, atom):
        lattice, _ = rescale_to_unit_lattice(
            BitMemoryModel(mu=0.5, sigma=0.1, p1=p1)
        )
        assert lattice.support == (atom,)

    def test_round_trip_entropy(self):
        # mu = 1 puts the original well centers on lattice points, so both
        # entropies are computable by quadrature and must differ by ln(2 mu)
        model = BitMemoryModel(mu=1.0, sigma=0.2, p1=0.5)
        original = MixtureDensity(
            GaussianDensity(model.sigma), DiscreteLattice((-1, 1), (0.5, 0.5))
        )
        lattice, g_eff = rescale_to_unit_lattice(model)
        rescaled = MixtureDensity(g_eff, lattice)
        a = mixture_entropy(original)
        b = mixture_entropy(rescaled)
        assert abs(a.nats - (b.nats + math.log(2.0 * model.mu))) <= 1e-10


class TestResetReport:
    def test_near_ideal_drop_at_small_noise(self):
        rr = reset_report(BitMemoryModel(mu=0.5, sigma=0.1, p1=0.5))
        envelope = theorem1_upper_bound(0.1)
        assert rr.envelope == pytest.approx(envelope, rel=1e-15)
        assert LN2 - envelope <= rr.delta_h <= LN2
        assert rr.ideal == pytest.approx(LN2, rel=1e-15)

    def test_already_reset_bit_drops_nothing(self):
        rr = reset_report(BitMemoryModel(mu=0.5, sigma=0.25, p1=1.0))
        assert abs(rr.delta_h) <= 1e-12
        assert rr.ideal == 0.0
        assert math.copysign(1.0, rr.ideal) == 1.0  # +0, printed "0" not "-0"

    def test_large_noise_loses_most_of_the_bit(self):
        rr = reset_report(BitMemoryModel(mu=0.5, sigma=1.0, p1=0.5))
        assert rr.envelope is None
        assert rr.delta_h <= LN2 - big_sigma_lower_bound(1.0) + 1e-10

    def test_identity_invariants_are_exact(self):
        rr = reset_report(BitMemoryModel(mu=0.7, sigma=0.2, p1=0.3))
        assert rr.delta_h == rr.h_before - rr.h_after
        assert rr.delta_h == pytest.approx(
            rr.ideal - rr.deficit, abs=1e-15
        )
        assert rr.delta_h <= rr.ideal

    def test_drop_non_negative_for_fair_bit(self):
        for sigma in (0.05, 0.3, 1.0, 2.0):
            rr = reset_report(BitMemoryModel(mu=0.5, sigma=sigma, p1=0.5))
            assert rr.delta_h >= 0.0

    def test_envelope_grid(self):
        for sigma_eff in (0.05, 0.1, 0.15, 0.2, 0.25):
            rr = reset_report(BitMemoryModel(mu=0.5, sigma=sigma_eff, p1=0.5))
            assert abs(rr.delta_h - LN2) <= theorem1_upper_bound(sigma_eff)

    def test_bits_conversion(self):
        rr = reset_report(BitMemoryModel(mu=0.5, sigma=0.1, p1=0.5))
        bb = rr.in_bits()
        assert bb.delta_h == pytest.approx(rr.delta_h / LN2, rel=1e-15)
        assert bb.ideal == pytest.approx(1.0, rel=1e-12)
        assert bb.mu == rr.mu and bb.sigma == rr.sigma and bb.p1 == rr.p1

    def test_csv_row_layout(self, capsys):
        def csv_cells(sigma):
            argv = ["landauer", "--mu", "0.5", "--sigma", sigma, "--p1", "0.5"]
            assert main(argv + ["--format", "csv"]) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert tuple(header.split(",")) == CSV_COLUMNS
            return row.split(",")

        row = csv_cells("0.1")
        assert len(row) == len(CSV_COLUMNS) == 9
        assert row[0] == "0.5" and row[2] == "0.5"
        assert row[-1] != ""

        assert csv_cells("1")[-1] == ""  # envelope absent at sigma_eff >= 1/2


@given(
    log10_mu=st.floats(-12.0, 12.0),
    sigma_eff=st.floats(0.03, 0.45),
    p1=st.floats(0.05, 0.95),
)
def test_drop_is_ideal_minus_deficit_inside_the_envelope(log10_mu, sigma_eff, p1):
    # the drop carries no rounding of h_before or h_after, which grow with
    # |ln mu| while the deficit can be far below one of their ulps
    mu = 10.0**log10_mu
    rr = reset_report(BitMemoryModel(mu=mu, sigma=sigma_eff * 2.0 * mu, p1=p1))
    assert rr.delta_h == rr.ideal - rr.deficit
    assert abs(rr.delta_h - rr.ideal) <= rr.envelope
