import math
import warnings

import numpy as np
import pytest

from crowdflow.heleshaw import heleshaw_run
from crowdflow.model import GridDensity, GridSpec
from crowdflow.oracles import (_SCAN_SAMPLES, _sublevel, barenblatt,
                               barenblatt_halfwidth, energy_minimizer_profile,
                               quadratic_interval_flow, stationary_patch)
from crowdflow.model import Patch
from crowdflow.potentials import gl_points, potential_catalog


def sublevel_intervals(phi, level, domain):
    """Intervals of ``{Phi <= level}`` inside ``domain``: the scan and
    bisection of ``stationary_patch`` at one level."""
    xs = np.linspace(domain[0], domain[1], _SCAN_SAMPLES)
    return _sublevel(phi, xs, phi.value(xs), level)


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
        rho = energy_minimizer_profile(math.inf, quad_phi, 1.0, g)
        lo, hi = rho.support_extent()
        assert lo == pytest.approx(-0.5, abs=g.dx)
        assert hi == pytest.approx(0.5, abs=g.dx)
        assert rho.mass == pytest.approx(1.0, rel=1e-10)
        # level value: volume 2 sqrt(2C) = 1 means C = 1/8
        patch = stationary_patch(quad_phi, 1.0, (-2, 2))
        (a, b), = patch.intervals
        assert quad_phi.value(b) == pytest.approx(1.0 / 8.0, abs=1e-10)

    def test_m3_bisection_mass_and_shape(self, quad_phi):
        g = GridSpec(-2, 2, 2000)
        rho = energy_minimizer_profile(3.0, quad_phi, 1.0, g)
        assert rho.mass == pytest.approx(1.0, rel=1e-10)
        # profile = ((2/3)(C - x^2/2))^(1/2) with C = sqrt(3)/pi for unit mass
        C = math.sqrt(3.0) / math.pi
        expect = np.sqrt(2.0 / 3.0 * np.maximum(C - g.centers**2 / 2, 0.0))
        assert np.max(np.abs(rho.values - expect)) < 5e-3

    def test_profiles_approach_unit_patch_as_m_grows(self, quad_phi):
        g = GridSpec(-2, 2, 1000)
        target = energy_minimizer_profile(math.inf, quad_phi, 1.0, g)
        errs = []
        for m in (4.0, 16.0, 64.0, 256.0):
            rho = energy_minimizer_profile(m, quad_phi, 1.0, g)
            errs.append(float(np.sum(np.abs(rho.values - target.values)) * g.dx))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_minimizer_beats_other_level_profiles(self, quad_phi):
        # the free energy int rho^m/(m-1) + rho Phi is least at the level
        # profile ((m-1)/m (C - Phi)+)^(1/(m-1)); the same-mass profiles
        # with another factor inside the power, 1 among them, cost more
        from crowdflow.energy import free_energy
        g = GridSpec(-2, 2, 4000)
        m = 3.0

        def level_profile(factor):
            # the same-mass profile with ``factor`` inside the power; the
            # level by bisection, the mass snapped onto the amplitude
            def at(c):
                return np.maximum(factor * (c - quad_phi.value(g.centers)),
                                  0.0) ** (1.0 / (m - 1.0))
            lo, hi = 0.0, 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if np.dot(at(mid), g.cell_measures) < 1.0 \
                    else (lo, mid)
            rho = GridDensity(g, at(hi))
            return rho.with_values(rho.values / rho.mass)

        e_min = free_energy(energy_minimizer_profile(m, quad_phi, 1.0, g),
                            m, quad_phi).total
        for factor in (1.0, 0.9 * (m - 1.0) / m, 1.1 * (m - 1.0) / m):
            assert e_min < free_energy(level_profile(factor), m,
                                       quad_phi).total

    def test_sublevel_set_minimizes_among_level_candidates(self, quad_phi):
        # the indicator supported on {Phi <= C} has lower potential energy
        # than any superlevel indicator of the same volume
        sub = stationary_patch(quad_phi, 1.0, (-3, 3))
        (a, b), = sub.intervals
        e_sub = quad_phi.avg(gl_points(a, b)) * (b - a)
        # superlevel candidate of the same volume: two outer slabs
        iv = sublevel_intervals(quad_phi, quad_phi.value(b), (-3, 3))
        (aa, bb), = iv
        outer = 0.5  # half-volume per side
        e_sup = quad_phi.avg(gl_points(bb, bb + outer)) * outer \
            + quad_phi.avg(gl_points(aa - outer, aa)) * outer
        assert e_sub < e_sup

    def test_unattainable_mass_rejected(self, quad_phi):
        g = GridSpec(-0.2, 0.2, 50)
        with pytest.raises(ValueError):
            energy_minimizer_profile(math.inf, quad_phi, 10.0, g)
        with pytest.raises(ValueError):
            energy_minimizer_profile(3.0, quad_phi, 100.0, g)

    @pytest.mark.parametrize("m", [1.0, 0.5, -math.inf, math.nan])
    def test_exponent_not_above_one_rejected(self, quad_phi, m):
        # without a check, m = 1 divided by zero, m = 0.5 warned and went
        # on, NaN failed on the density's sign and -inf built the m = +inf
        # indicator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="m > 1, got m = "):
                energy_minimizer_profile(m, quad_phi, 1.0,
                                         GridSpec(-4.0, 4.0, 80))

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


    def test_volume_below_the_scan_resolution_raises(self):
        # a sublevel set narrower than the scan spacing (9 / 8191) holds no
        # scan point; the bisection used to stop at the least scanned
        # value and return a patch 11 times the requested 1e-4
        phi = potential_catalog("quadratic", q=1.0)
        with pytest.raises(ValueError, match="8192-point scan"):
            stationary_patch(phi, 1e-4, (-4.5, 4.5))
        # just above the resolution the patch has the requested volume
        (a, b), = stationary_patch(phi, 2e-3, (-4.5, 4.5)).intervals
        assert b - a == pytest.approx(2e-3, rel=1e-9)

    def test_finite_m_level_constant_for_an_unnormalized_potential(self):
        # a linear potential has no finite infimum, so it is not shifted to
        # a least value of 0; the level bisection used to start at 0, above
        # the level of this mass, and the mass snap hid the wrong profile
        phi = potential_catalog("linear", g=1.0, domain=(-4.0, 4.0))
        g = GridSpec(-4.0, 4.0, 800)
        m = 3.0
        rho = energy_minimizer_profile(m, phi, 0.5, g)
        assert rho.mass == pytest.approx(0.5, rel=1e-12)
        on = rho.values > 0.0
        level = m / (m - 1.0) * rho.values[on] ** (m - 1.0) \
            + phi.value(g.centers[on])
        assert np.ptp(level) <= 1e-9


def _sublevel_reference(phi, level, domain, samples=8192):
    """Intervals of ``{Phi <= level}`` with the runs grouped index by
    index and the endpoints bisected on numpy scalars through
    ``Potential.value``: the reference ``sublevel_intervals`` must match."""
    lo, hi = domain
    xs = np.linspace(lo, hi, samples)
    idx = np.flatnonzero(phi.value(xs) <= level)
    if idx.size == 0:
        return ()
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i == prev + 1:
            prev = i
        else:
            runs.append((start, prev))
            start = prev = i
    runs.append((start, prev))

    def refine(x_in, x_out):
        for _ in range(80):
            mid = 0.5 * (x_in + x_out)
            if phi.value(mid) <= level:
                if mid == x_in:
                    break
                x_in = mid
            else:
                if mid == x_out:
                    break
                x_out = mid
        return 0.5 * (x_in + x_out)

    out = []
    for i0, i1 in runs:
        a = xs[i0] if i0 == 0 else refine(xs[i0], xs[i0 - 1])
        b = xs[i1] if i1 == samples - 1 else refine(xs[i1], xs[i1 + 1])
        if b > a:
            out.append((a, b))
    return tuple(out)


@pytest.mark.parametrize("kind,params,domain", [
    ("quadratic", {"q": 1.0}, (-4.5, 4.5)),
    # 1.3/2 (x + 0.4)^2 + 2, named by its shape
    pytest.param("custom-polynomial", {"coef": [2.104, 0.52, 0.65]},
                 (-3.0, 3.0), id="shifted-quadratic-params1-domain1"),
    ("quartic-well", {"a": 1.0, "b": -1.0}, (-3.0, 3.0)),
    ("quartic-well", {"a": 2.0, "b": -3.0, "c": 0.4}, (-2.0, 2.5)),
    ("linear", {"g": -0.7}, (-2.0, 1.0)),
    ("custom-polynomial", {"coef": [0.3, -0.1, 0.5, 0.0, 0.125]}, (-4.0, 3.0)),
])
def test_sublevel_intervals_match_per_index_grouping(kind, params, domain, rng):
    # levels below the least value (no interval), between the wells of a
    # double well (two), above the domain's ends (the whole domain, or runs
    # touching its ends), and random ones, among them exact scan values
    phi = potential_catalog(kind, params, domain=domain)
    vals = phi.value(np.linspace(*domain, 8192))
    levels = [float(vals.min()) - 1.0, float(vals.max()) + 1.0,
              float(vals.min()), float(vals[0]), float(vals[-1])]
    levels += rng.uniform(vals.min(), vals.max(), 20).tolist()
    levels += rng.choice(vals, 10).tolist()
    counts = set()
    for level in levels:
        got = sublevel_intervals(phi, level, domain)
        ref = _sublevel_reference(phi, level, domain)
        assert [tuple(map(float, ab)) for ab in ref] == list(got), level
        counts.add(len(got))
    if kind == "quartic-well":
        assert 2 in counts
    volume = 0.25 * (domain[1] - domain[0])
    assert stationary_patch(phi, volume, domain).volume == \
        pytest.approx(volume, rel=1e-9)

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
