import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from crowdflow.heleshaw import _rate_function, hausdorff_distance, heleshaw_run
from crowdflow.model import Patch
from crowdflow.oracles import quadratic_interval_flow, stationary_patch
from crowdflow.potentials import potential_catalog


class TestIntervalVelocity:
    # the tracker's endpoint rates (da/dt, db/dt) of one interval
    def test_chord_slope_velocity(self, quad_phi):
        rate = _rate_function(quad_phi, 1)
        for a, b in ((0.2, 1.0), (-2.0, -0.5), (-1.0, 3.0)):
            assert np.allclose(rate(a, b), -(a + b) / 2.0, atol=1e-13)

    def test_symmetric_interval_is_stationary(self, quad_phi):
        v = _rate_function(quad_phi, 1)(-0.8, 0.8)
        assert np.max(np.abs(v)) < 1e-14

    def test_level_set_patch_is_stationary(self):
        # endpoints of {Phi <= C} share the potential value: zero chord slope
        phi = potential_catalog("quartic-well", a=1.0, b=0.5, c=0.2)
        patch = stationary_patch(phi, 1.3, (-4, 4))
        rate = _rate_function(phi, 1)
        v = [rate(a, b) for a, b in patch.intervals]
        assert np.max(np.abs(v)) <= 1e-10

    def test_rigid_translation_preserves_length(self, quad_phi):
        traj, _ = heleshaw_run(Patch(((0.7, 2.1),)), quad_phi, 1.0, 1e-3)
        for _, p in traj:
            (a, b), = p.intervals
            assert b - a == pytest.approx(1.4, abs=1e-12)

    def test_radial_centered_ball_is_stationary(self):
        # the harmonic extension of a constant is that constant
        for d in (2, 3):
            phi = potential_catalog("quadratic", {"q": 1.0}, dim=d)
            assert _rate_function(phi, d)(0.0, 1.3) == (0.0, 0.0)

    def test_radial_annulus_velocities_preserve_volume(self):
        # volume rate = sum of area-weighted outward speeds = 0 for the
        # divergence-free quasi-static law; both fluxes are k B (d >= 3) or
        # -B (d = 2), so they agree to round-off (0.68 eps measured)
        eps = np.finfo(float).eps
        for d, (kind, params) in itertools.product(
                (2, 3, 4), (("quadratic", {"q": 1.0}),
                            ("quartic-well", {"a": 1.0, "b": -1.0}))):
            rate = _rate_function(potential_catalog(kind, params, dim=d), d)
            for r1, r2 in ((0.5, 1.5), (0.1, 0.2), (1.0, 1.0 + 1e-6),
                           (0.3, 3.0), (1.2, 1.7)):
                da, db = rate(r1, r2)
                inner = r1 ** (d - 1) * da
                assert abs(r2 ** (d - 1) * db - inner) <= 2 * eps * abs(inner)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind, params", [
        ("quadratic", {"q": 1.0}), ("quartic-well", {"a": 1.0, "b": -1.0})])
    def test_radial_annulus_rates_match_exact_arithmetic(self, d, kind,
                                                         params):
        # q = u + Phi = A + B psi(r), with psi = log r (d = 2) or r^-k,
        # k = d - 2, and B the quotient of the differences of Phi and psi
        # over [a, b]; each boundary moves with -B psi'.  The reference takes
        # the float inputs and coefficients as exact: Fractions for d >= 3,
        # 50-digit decimals with ln for d = 2.  The annuli keep clear of the
        # well's rate zero a^2 + b^2 = 2, where a relative error measures
        # the conditioning of the problem and not the method.  Measured max
        # relative error: 3.6e-16
        phi = potential_catalog(kind, params, dim=d)
        rate = _rate_function(phi, d)
        k = d - 2
        for a in (0.1, 0.45, 1.7):
            for width in (1e-7, 3e-6, 1e-4, 1e-2, 0.3, 3.0):
                b = a + width
                if d == 2:
                    with decimal.localcontext() as ctx:
                        ctx.prec = 50
                        xa, xb = decimal.Decimal(a), decimal.Decimal(b)
                        B = (sum(decimal.Decimal(c) * (xb ** j - xa ** j)
                                 for j, c in enumerate(phi._ccoef))
                             / (xb.ln() - xa.ln()))
                        exact = (float(-B / xa), float(-B / xb))
                else:
                    xa, xb = Fraction(a), Fraction(b)
                    B = (sum(Fraction(c) * (xb ** j - xa ** j)
                             for j, c in enumerate(phi._ccoef))
                         / (xb ** -k - xa ** -k))
                    exact = (float(k * B / xa ** (k + 1)),
                             float(k * B / xb ** (k + 1)))
                for got, ref in zip(rate(a, b), exact, strict=True):
                    assert abs(got - ref) <= 1e-15 * abs(ref), (a, b)


class TestRun:
    def test_matches_exponential_center_flow(self, quad_phi):
        traj, _ = heleshaw_run(Patch(((1.0, 2.0),)), quad_phi, 3.0, 1e-3)
        t, p = traj[-1]
        a_ex, b_ex = quadratic_interval_flow(1.0, 2.0, 1.0, t)
        (a, b), = p.intervals
        assert abs(a - a_ex) <= 1e-8
        assert abs(b - b_ex) <= 1e-8

    def test_volume_conserved_through_merge(self, quad_phi):
        patch0 = Patch(((-2.0, -1.0), (1.2, 2.2)))
        traj, volumes = heleshaw_run(patch0, quad_phi, 2.0, 1e-3)
        vols = np.array([v for _, v in volumes])
        assert np.max(np.abs(vols - vols[0])) <= 1e-10
        assert len(traj[-1][1].intervals) == 1

    def test_merge_time_matches_closed_form(self, quad_phi):
        # both centers contract exponentially; the gap closes when
        # (c2 - c1) e^{-t} equals the sum of the half-lengths
        patch0 = Patch(((-2.0, -1.0), (1.2, 2.2)))
        dt = 1e-3
        t_exact = math.log((1.7 + 1.5) / 1.0)
        traj, _ = heleshaw_run(patch0, quad_phi, 2.0, dt)
        merged = [t for t, p in traj if len(p.intervals) == 1]
        assert abs(merged[0] - t_exact) <= 2.0 * dt

    def test_snapshots_land_on_requested_times(self, quad_phi):
        patch0 = Patch(((-2.0, -1.0), (1.2, 2.2)))
        times = [0.1, 0.1 * 3, 1.5]  # 0.1 * 3 is not the float 0.3
        traj, _ = heleshaw_run(patch0, quad_phi, 2.0, 0.07,
                               snapshot_times=times)
        t_merge = next(t for t, p in traj if len(p.intervals) == 1)
        assert [t for t, _ in traj] == [0.0, 0.1, 0.1 * 3, t_merge, 1.5, 2.0]
        for k, t in enumerate(times):
            # the same steps as a run that stops there
            head, _ = heleshaw_run(patch0, quad_phi, t, 0.07,
                                   snapshot_times=times[:k + 1])
            assert dict(traj)[t] == head[-1][1]

    def test_run_commutes_with_mirroring_through_a_merge(self):
        # x -> -x with the intervals reversed, under Phi(-x): the odd
        # coefficients negated.  Every velocity is a negated chord slope and
        # every RK4 stage a negated sum, so the runs mirror exactly, the
        # merge instant included
        coef = [0.0, 0.3, 0.5, 0.05]
        phi = potential_catalog("custom-polynomial", coef=coef,
                                domain=(-3.0, 3.0))
        phi_m = potential_catalog("custom-polynomial", domain=(-3.0, 3.0),
                                  coef=[0.0, -0.3, 0.5, -0.05])
        traj, _ = heleshaw_run(Patch(((0.2, 0.8), (1.2, 2.0))), phi, 1.0, 1e-2)
        traj_m, _ = heleshaw_run(Patch(((-2.0, -1.2), (-0.8, -0.2))), phi_m,
                                 1.0, 1e-2)
        assert (len(traj[0][1].intervals), len(traj[-1][1].intervals)) == (2, 1)
        assert [t for t, _ in traj_m] == [t for t, _ in traj]
        for (_, p), (_, p_m) in zip(traj, traj_m, strict=True):
            assert tuple((-b, -a) for a, b in reversed(p_m.intervals)) \
                == p.intervals

    @pytest.mark.parametrize("s", [0.25, -0.375, 0.7])
    def test_run_commutes_with_translation_through_a_merge(self, quad_phi, s):
        # patch and well center moved by s: the chord slopes agree up to
        # rounding, so times and endpoints agree to a few ulps (4 and 7
        # times eps measured over 50 random shifts)
        phi_s = potential_catalog("quadratic", q=1.0, c=s)
        patch = ((0.2, 0.8), (1.2, 2.0))
        traj, _ = heleshaw_run(Patch(patch), quad_phi, 1.0, 1e-2)
        traj_s, _ = heleshaw_run(Patch(tuple((a + s, b + s) for a, b in patch)),
                                 phi_s, 1.0, 1e-2)
        assert len(traj[-1][1].intervals) == 1
        eps = np.finfo(float).eps
        for (t, p), (t_s, p_s) in zip(traj, traj_s, strict=True):
            assert abs(t_s - t) <= 16 * eps
            ends, ends_s = np.array(p.intervals), np.array(p_s.intervals)
            assert ends_s.shape == ends.shape
            assert np.abs(ends_s - s - ends).max() \
                <= 16 * eps * np.abs(ends).max()

    def test_decreasing_snapshot_times_rejected(self, quad_phi):
        with pytest.raises(ValueError, match="snapshot_times must be strictly"):
            heleshaw_run(Patch(((1.0, 2.0),)), quad_phi, 1.0, 1e-2,
                         snapshot_times=(0.5, 0.25))

    def test_converges_to_sublevel_equilibrium(self, quad_phi):
        traj, _ = heleshaw_run(Patch(((1.0, 2.0),)), quad_phi, 20.0, 1e-2)
        eq = stationary_patch(quad_phi, 1.0, (-3, 3))
        assert hausdorff_distance(traj[-1][1], eq) <= 1e-6

    def test_volume_drift_rate(self, quad_phi):
        _, volumes = heleshaw_run(Patch(((0.5, 1.75),)), quad_phi, 5.0, 1e-2)
        vols = np.array([v for _, v in volumes])
        assert np.max(np.abs(vols - vols[0])) / vols[0] <= 1e-9 * 5.0

    def test_nonconvex_drift_rejected_in_1d(self):
        lin = potential_catalog("linear", g=1.0)  # zero Laplacian
        with pytest.raises(ValueError):
            heleshaw_run(Patch(((0.0, 1.0),)), lin, 1.0, 1e-2)


@given(a=st.floats(0.25, 1.0), b=st.floats(0.5, 1.5), c=st.floats(-0.5, 0.5),
       start=st.floats(-2.0, -0.5),
       lengths=st.lists(st.floats(0.2, 0.6), min_size=2, max_size=3),
       gaps=st.lists(st.floats(0.02, 0.3), min_size=3, max_size=3),
       dt=st.floats(2e-3, 2e-2))
@settings(max_examples=30, deadline=None, derandomize=True,
          phases=(Phase.generate,))
def test_intervals_merge_with_continuous_volume(a, b, c, start, lengths, gaps,
                                                dt):
    # Phi'' >= b > 0, so each interval's chord slope is the mean of an
    # increasing Phi' and every gap closes at least as fast as the centers
    # contract like exp(-b t): by T = 3 all intervals have merged into one.
    # A translation step moves both endpoints by one rounded increment, so a
    # length changes by at most eps * scale per step; a merge adds the gap
    # left at the bisected contact instant, far below that
    phi = potential_catalog("quartic-well", a=a, b=b, c=c)
    ivs, x = [], c + start
    for length, gap in zip(lengths, gaps):
        ivs.append((x, x + length))
        x += length + gap
    times = (0.75, 1.5, 3.0)
    traj, volumes = heleshaw_run(Patch(tuple(ivs)), phi, 3.0, dt,
                                 snapshot_times=times)
    eps = np.finfo(float).eps
    scale = max(1.0, max(abs(e) for ab in ivs for e in ab))
    steps = len(volumes) - 1
    vols = np.array([v for _, v in volumes])
    assert np.abs(vols - vols[0]).max() <= len(ivs) * steps * eps * scale
    counts = [len(p.intervals) for _, p in traj]
    assert counts[-1] == 1
    merges = [(t, p) for (_, q), (t, p) in zip(traj, traj[1:])
              if len(p.intervals) < len(q.intervals)]
    # one trajectory entry per merge, at its contact instant, never at a
    # snapshot time; between merges the lengths hold
    assert len(merges) == len(ivs) - 1
    assert all(t not in times for t, _ in merges)
    assert [t for t, _ in traj if t in times or t == 0.0] == [0.0, *times]
    for (_, q), (_, p) in zip(traj, traj[1:]):
        if len(p.intervals) == len(q.intervals):
            for (a0, b0), (a1, b1) in zip(q.intervals, p.intervals):
                assert abs((b1 - a1) - (b0 - a0)) <= steps * eps * scale


class TestRadialRuns:
    def test_ball_remains_stationary(self):
        phi = potential_catalog("quadratic", {"q": 1.0}, dim=3)
        traj, _ = heleshaw_run(Patch(((0.0, 1.0),), dim=3), phi, 0.5, 1e-2)
        (a, b), = traj[-1][1].intervals
        assert a == 0.0 and b == pytest.approx(1.0, abs=1e-10)

    def test_annulus_hole_closes_into_ball(self):
        # the inner boundary collapses (its speed diverges at the center);
        # volume is conserved up to the integration error of the collapse.
        # In d = 2 an RK4 stage point crosses the center before the step
        # does; that step must go to the contact bisection too.
        for d, r_in, r_out, T in ((3, 0.5, 1.0, 0.5), (2, 0.1, 1.5, 0.4),
                                  (2, 0.5, 1.5, 0.4)):
            phi = potential_catalog("quadratic", {"q": 1.0}, dim=d)
            traj, volumes = heleshaw_run(Patch(((r_in, r_out),), dim=d), phi,
                                         T, 1e-3)
            (a, b), = traj[-1][1].intervals
            assert a == 0.0
            assert b == pytest.approx((r_out**d - r_in**d) ** (1.0 / d),
                                      abs=1e-4)
            vols = np.array([v for _, v in volumes])
            assert np.max(np.abs(vols - vols[0])) / vols[0] <= 1e-5


    @pytest.mark.parametrize("d", [2, 3])
    def test_double_well_rejected_in_every_dimension(self, d):
        # the quasi-static limit needs a strictly subharmonic drift in d
        # dimensions: the double well's Laplacian is negative at the
        # center, so the radial run is rejected as a 1D one is
        well = potential_catalog("quartic-well", a=1.0, b=-1.0, dim=d)
        assert not well.positive_laplacian
        with pytest.raises(ValueError, match="positive Laplacian"):
            heleshaw_run(Patch(((0.5, 1.0),), dim=d), well, 0.05, 1e-3)


class TestHausdorff:
    def test_identical(self):
        p = Patch(((0.0, 1.0), (2.0, 3.0)))
        assert hausdorff_distance(p, p) == 0.0

    def test_translate(self):
        assert hausdorff_distance(Patch(((0.0, 1.0),)),
                                  Patch(((0.1, 1.1),))) \
            == pytest.approx(0.1, abs=1e-14)

    def test_extra_component(self):
        assert hausdorff_distance(Patch(((0.0, 1.0),)),
                                  Patch(((0.0, 1.0), (5.0, 6.0)))) == 5.0

    def test_interior_gap_candidate(self):
        # the sup sits mid-gap, not at any endpoint
        assert hausdorff_distance(Patch(((0.0, 10.0),)),
                                  Patch(((0.0, 1.0), (9.0, 10.0)))) == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance(Patch(()), Patch(((0.0, 1.0),)))
