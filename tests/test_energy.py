import math

import pytest

from crowdflow.energy import (EnergyReport, excess_mass, free_energy,
                              internal_energy, potential_energy,
                              regularize_to_feasible)
from crowdflow.model import GridSpec, make_grid_density, to_quantile
from crowdflow.potentials import potential_catalog
from crowdflow.transport import w2_distance

from conftest import indicator, random_density


@pytest.fixture
def g6():
    return GridSpec(-3.0, 3.0, 600)


class TestInternalEnergy:
    def test_indicator_power_is_identity(self, g6):
        rho = indicator(0, 1, g6)
        assert internal_energy(rho, 3.0) == pytest.approx(1.0 / 2.0, rel=1e-12)
        q = to_quantile(rho, 50)
        assert internal_energy(q, 3.0) == pytest.approx(1.0 / 2.0, rel=1e-10)

    def test_indicator_family_one_over_m_minus_one(self, g6):
        rho = indicator(-0.5, 0.5, g6)
        for m in (2.0, 5.0, 11.0):
            assert internal_energy(rho, m) == pytest.approx(1.0 / (m - 1.0),
                                                            rel=1e-12)

    def test_overshoot_hits_sentinel(self, g6):
        rho = indicator(0, 1, g6, height=1.2)
        assert internal_energy(rho, math.inf) == math.inf
        assert free_energy(rho, math.inf,
                           potential_catalog("quadratic", q=1.0)).total == math.inf

    def test_feasible_congestion_energy_is_zero(self, g6):
        rho = indicator(0, 1, g6)
        assert internal_energy(rho, math.inf) == 0.0

    def test_half_density_m2(self, g6):
        rho = indicator(0, 2, g6, height=0.5)
        assert internal_energy(rho, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_m_not_above_one_rejected(self, g6):
        with pytest.raises(ValueError):
            internal_energy(indicator(0, 1, g6), 1.0)


class TestPotentialEnergy:
    def test_zero_potential(self, g6):
        zero = potential_catalog("custom-polynomial", coef=[0.0])
        assert potential_energy(indicator(0, 1, g6), zero) == 0.0

    def test_indicator_quadratic_grid_and_quantile(self, quad_phi):
        # cell-midpoint quadrature error is dx^2/24 * |Phi''| per unit mass;
        # the box edges must sit on the grid so the density itself is exact
        g = GridSpec(-3, 3, 2400)
        rho = indicator(0, 1, g)
        assert potential_energy(rho, quad_phi) == pytest.approx(1.0 / 6.0,
                                                                abs=1e-6)
        q = to_quantile(rho, 64)
        assert potential_energy(q, quad_phi) == pytest.approx(1.0 / 6.0,
                                                              abs=1e-12)

    def test_centered_indicator(self, quad_phi):
        rho = indicator(-0.5, 0.5, GridSpec(-3, 3, 2500))
        assert potential_energy(rho, quad_phi) == pytest.approx(1.0 / 24.0,
                                                                abs=1e-6)

    def test_support_escape_rejected(self, quad_phi):
        g = GridSpec(-20, 20, 400)
        rho = indicator(9.0, 10.0, g)  # beyond the (-8, 8) working domain
        with pytest.raises(ValueError):
            potential_energy(rho, quad_phi)


class TestFreeEnergy:
    def test_stationary_patch_value(self, quad_phi):
        rho = indicator(-0.5, 0.5, GridSpec(-3, 3, 2500))
        rep = free_energy(rho, math.inf, quad_phi)
        assert rep.internal == 0.0
        assert rep.total == pytest.approx(1.0 / 24.0, abs=1e-6)

    def test_zero_potential_indicator(self, g6):
        zero = potential_catalog("custom-polynomial", coef=[0.0])
        rep = free_energy(indicator(0, 1, g6), 3.0, zero)
        assert rep.total == pytest.approx(1.0 / 2.0, rel=1e-12)

    def test_nonnegative_for_feasible_data(self, rng, g6, quad_phi):
        for _ in range(10):
            rho = random_density(rng, g6, max_height=0.9)
            rep = free_energy(rho, math.inf, quad_phi)
            assert rep.total >= 0.0
            assert rep.total == rep.internal + rep.potential


class TestExcessMass:
    def test_feasible_zero(self, g6):
        # edge-fraction round-off may leave an ulp above the ceiling
        assert excess_mass(indicator(0, 1, g6)) <= 1e-12

    def test_flat_overshoot(self, g6):
        assert excess_mass(indicator(0, 1, g6, height=1.2)) \
            == pytest.approx(0.2, rel=1e-12)


class TestRegularize:
    def test_below_threshold_unchanged(self, g6):
        mu = indicator(0, 1, g6, height=0.7)
        out = regularize_to_feasible(mu, 0.2)
        # values on the original cells unchanged; extension cells zero
        assert out.mass == pytest.approx(mu.mass, rel=1e-12)
        assert out.values.max() == pytest.approx(0.7, rel=1e-12)

    def test_mass_preserved_on_overshooting_input(self, rng):
        g = GridSpec(-3, 3, 900)
        for _ in range(10):
            base = random_density(rng, g, max_height=0.95)
            spike_h = rng.uniform(0.05, 0.15)
            lo, hi = base.support_extent()
            mid = 0.5 * (lo + hi)
            spike = make_grid_density(
                {"boxes": [(mid - 0.2, mid + 0.2, spike_h)]}, g)
            mu = base.with_values(base.values + spike.values)
            a = max(2.0 * excess_mass(mu), 0.1)
            if a >= 1.0:
                continue
            out = regularize_to_feasible(mu, a)
            assert out.mass == pytest.approx(mu.mass, rel=1e-12)
            assert out.values.max() <= 1.0 + g.dx  # 1 + eps_grid

    def test_lemma_regime_distance_bound(self, g6):
        # overshooting block: excess (mu-1)+ has mass 0.2; with a = 0.25 the
        # moved mass is <= 2a and travels at most the unit kernel radius
        mu = indicator(0, 1, g6, height=1.2)
        a = 0.25
        out = regularize_to_feasible(mu, a)
        assert out.values.max() <= 1.0 + 1e-9
        qa = to_quantile(mu, 200)
        qb = to_quantile(out, 200)
        assert w2_distance(qa, qb) <= math.sqrt(2.0 * a)

    def test_invalid_level_rejected(self, g6):
        with pytest.raises(ValueError):
            regularize_to_feasible(indicator(0, 1, g6), 1.5)

    def test_regime_violation_rejected(self, g6):
        mu = indicator(0, 1, g6, height=2.0)  # excess mass 1.0 > a
        with pytest.raises(ValueError):
            regularize_to_feasible(mu, 0.3)


def test_energy_report_total():
    rep = EnergyReport(internal=0.25, potential=0.5)
    assert rep.total == 0.75
