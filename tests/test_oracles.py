import math

import numpy as np
import pytest

from crowdflow.heleshaw import heleshaw_run
from crowdflow.model import GridDensity, GridSpec
from crowdflow.oracles import (barenblatt, barenblatt_halfwidth,
                               energy_minimizer_profile,
                               quadratic_interval_flow, stationary_patch,
                               stationary_profile, sublevel_intervals)
from crowdflow.model import Patch
from crowdflow.potentials import potential_catalog


class TestBarenblatt:
    def test_zero_outside_support(self):
        press, dens = barenblatt(np.array([5.0, -5.0]), 0.0, 1.0, 0.5, 2.0)
        assert np.all(press == 0.0) and np.all(dens == 0.0)

    def test_halfwidth_solves_zero_level(self):
        for (t, tau, C, m, d) in ((0.0, 1.0, 0.5, 2.0, 1),
                                  (1.5, 0.5, 1.0, 4.0, 1),
                                  (2.0, 1.0, 0.8, 3.0, 3)):
            hw = barenblatt_halfwidth(t, tau, C, m, d)
            press, _ = barenblatt(np.array([hw * (1 - 1e-9), hw * (1 + 1e-9)]),
                                  t, tau, C, m, d)
            assert press[0] > 0.0 and press[1] == 0.0

    def test_mass_constant_in_time(self):
        # quadrature of the sqrt-edged density needs a fine mesh for 1e-8
        g = GridSpec(-6, 6, 60000)
        masses = []
        for t in (0.5, 1.0, 2.0):
            _, dens = barenblatt(g.centers, t, 1.0, 0.5, 2.0)
            masses.append(float(np.sum(dens) * g.dx))
        assert max(masses) - min(masses) <= 1e-8 * masses[0]

    def test_discrete_pme_residual_first_order(self):
        # plug the profile into the discrete operator; the L1 residual of
        # (B(t+dt)-B(t))/dt against the flux divergence shrinks at least
        # linearly under refinement
        from crowdflow.pme import pme_step
        zero = potential_catalog("custom-polynomial", coef=[0.0])
        m, tau, C, t0 = 2.0, 1.0, 0.5, 0.5
        errs = []
        for n in (200, 400, 800, 1600):
            g = GridSpec(-3, 3, n)
            _, d0 = barenblatt(g.centers, t0, tau, C, m)
            dt = 0.02 * g.dx ** 2
            out = pme_step(GridDensity(g, d0), m, zero, dt)
            _, d1 = barenblatt(g.centers, t0 + dt, tau, C, m)
            errs.append(float(np.sum(np.abs(out.values - d1)) * g.dx) / dt)
        # front-cell alignment makes single halvings noisy; fit across all
        rate = math.log2(errs[0] / errs[-1]) / (len(errs) - 1)
        assert rate >= 0.8

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            barenblatt(np.zeros(3), 0.0, -1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            barenblatt(np.zeros(3), 0.0, 1.0, 0.5, 1.0)


class TestStationaryProfiles:
    def test_hard_constraint_profile_is_centered_unit_patch(self, quad_phi):
        g = GridSpec(-2, 2, 1000)
        rho = stationary_profile(math.inf, quad_phi, 1.0, g)
        lo, hi = rho.support_extent(1e-6)
        assert lo == pytest.approx(-0.5, abs=g.dx)
        assert hi == pytest.approx(0.5, abs=g.dx)
        assert rho.mass == pytest.approx(1.0, rel=1e-10)
        # level value: volume 2 sqrt(2C) = 1 means C = 1/8
        patch = stationary_patch(quad_phi, 1.0, (-2, 2))
        (a, b), = patch.intervals
        assert quad_phi.value(b) == pytest.approx(1.0 / 8.0, abs=1e-10)

    def test_m3_bisection_mass_and_shape(self, quad_phi):
        g = GridSpec(-2, 2, 2000)
        rho = stationary_profile(3.0, quad_phi, 1.0, g)
        assert rho.mass == pytest.approx(1.0, rel=1e-10)
        # profile = ((2/3)(C - x^2/2))^(1/2) with C = sqrt(3)/pi for unit mass
        C = math.sqrt(3.0) / math.pi
        expect = np.sqrt(2.0 / 3.0 * np.maximum(C - g.centers**2 / 2, 0.0))
        assert np.max(np.abs(rho.values - expect)) < 5e-3

    def test_profiles_approach_unit_patch_as_m_grows(self, quad_phi):
        g = GridSpec(-2, 2, 1000)
        target = stationary_profile(math.inf, quad_phi, 1.0, g)
        errs = []
        for m in (4.0, 16.0, 64.0, 256.0):
            rho = stationary_profile(m, quad_phi, 1.0, g)
            errs.append(float(np.sum(np.abs(rho.values - target.values)) * g.dx))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_minimizer_profile_beats_pde_profile_in_energy(self, quad_phi):
        # the 1/m-normalized free energy prefers the factor-free level
        # profile; the drift-diffusion stationary state carries (m-1)/m
        from crowdflow.energy import free_energy
        g = GridSpec(-2, 2, 4000)
        m = 3.0
        e_min = free_energy(energy_minimizer_profile(m, quad_phi, 1.0, g),
                            m, quad_phi).total
        e_pde = free_energy(stationary_profile(m, quad_phi, 1.0, g),
                            m, quad_phi).total
        assert e_min < e_pde

    def test_sublevel_set_minimizes_among_level_candidates(self, quad_phi):
        # the indicator supported on {Phi <= C} has lower potential energy
        # than any superlevel indicator of the same volume
        sub = stationary_patch(quad_phi, 1.0, (-3, 3))
        (a, b), = sub.intervals
        e_sub = quad_phi.avg(a, b) * (b - a)
        # superlevel candidate of the same volume: two outer slabs
        iv = sublevel_intervals(quad_phi, quad_phi.value(b), (-3, 3))
        (aa, bb), = iv
        outer = 0.5  # half-volume per side
        e_sup = quad_phi.avg(bb, bb + outer) * outer \
            + quad_phi.avg(aa - outer, aa) * outer
        assert e_sub < e_sup

    def test_unattainable_mass_rejected(self, quad_phi):
        g = GridSpec(-0.2, 0.2, 50)
        with pytest.raises(ValueError):
            stationary_profile(math.inf, quad_phi, 10.0, g)
        with pytest.raises(ValueError):
            stationary_profile(3.0, quad_phi, 100.0, g)

    @pytest.mark.parametrize("q", [0.5, 1.0, 4.0])
    def test_quadratic_patch_is_centered_interval(self, q):
        phi = potential_catalog("quadratic", q=q)
        for volume in (0.3, 1.0, 2.5):
            (a, b), = stationary_patch(phi, volume, (-3, 3)).intervals
            assert abs(a + 0.5 * volume) <= 1e-12
            assert abs(b - 0.5 * volume) <= 1e-12

    def test_double_well_sublevel_two_components(self):
        phi = potential_catalog("quartic-well", a=1.0, b=-1.0, c=0.0)
        patch = stationary_patch(phi, 0.5, (-3, 3))
        assert len(patch.intervals) == 2
        assert patch.volume == pytest.approx(0.5, rel=1e-9)


class TestQuadraticIntervalFlow:
    def test_initial_time(self):
        assert quadratic_interval_flow(0.5, 2.0, 1.3, 0.0) == (0.5, 2.0)

    def test_long_time_limit(self):
        a, b = quadratic_interval_flow(1.0, 2.0, 1.0, 50.0)
        assert a == pytest.approx(-0.5, abs=1e-12)
        assert b == pytest.approx(0.5, abs=1e-12)

    def test_derivative_matches_chord_slope(self, quad_phi):
        a0, b0, q = 0.3, 1.9, 1.0
        t, h = 0.8, 1e-6
        a1, b1 = quadratic_interval_flow(a0, b0, q, t - h)
        a2, b2 = quadratic_interval_flow(a0, b0, q, t + h)
        a, b = quadratic_interval_flow(a0, b0, q, t)
        slope = (quad_phi.value(b) - quad_phi.value(a)) / (b - a)
        assert (a2 - a1) / (2 * h) == pytest.approx(-slope, abs=1e-8)
        assert (b2 - b1) / (2 * h) == pytest.approx(-slope, abs=1e-8)

    def test_agrees_with_tracked_run(self, quad_phi):
        traj, _ = heleshaw_run(Patch(((0.25, 1.5),)), quad_phi, 2.0, 1e-3)
        t, p = traj[-1]
        a_ex, b_ex = quadratic_interval_flow(0.25, 1.5, 1.0, t)
        (a, b), = p.intervals
        assert max(abs(a - a_ex), abs(b - b_ex)) <= 1e-8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            quadratic_interval_flow(2.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            quadratic_interval_flow(0.0, 1.0, -1.0, 0.5)
