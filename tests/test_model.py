import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow.energy import internal_energy
from crowdflow.model import (GridDensity, GridSpec, Patch, QuantileRep,
                             _bisect, make_grid_density, to_grid,
                             to_quantile)

from conftest import indicator, random_density


class TestMakeGridDensity:
    def test_cell_aligned_indicator_exact_mass(self):
        g = GridSpec(-2, 2, 400)
        rho = make_grid_density({"boxes": [(0.0, 1.0, 1.0)]}, g)
        assert rho.mass == pytest.approx(1.0, abs=1e-14)
        assert rho.values.max() == pytest.approx(1.0, abs=1e-12)

    def test_half_cell_shift_conserves_mass(self):
        g = GridSpec(-2, 2, 400)
        dx = g.dx
        rho = make_grid_density({"boxes": [(0.0 + dx / 2, 1.0 + dx / 2, 1.0)]}, g)
        assert rho.mass == pytest.approx(1.0, abs=1e-14)
        # boundary cells carry the half fraction
        assert np.any(np.isclose(rho.values, 0.5))

    def test_two_bump_half_heights(self):
        g = GridSpec(-3, 3, 600)
        rho = make_grid_density(
            {"boxes": [(-2, -1, 0.5), (1, 2, 0.5)]}, g)
        assert rho.mass == pytest.approx(1.0, abs=1e-14)
        assert rho.values.max() == pytest.approx(0.5)

    def test_box_edge_on_a_rounded_grid_edge_leaves_no_sliver(self):
        # linspace puts the grid edge at -1.3 at -1.2999999999999998; the
        # cell left of it must not get the 2.2e-16 between them, which put
        # the quantile support one cell outside the density's
        g = GridSpec(-4, 4, 800)
        for box in ((-1.3, 1.0, 1.0), (-1.0, 1.3, 1.0), (-1.3, 1.3, 0.5)):
            rho = make_grid_density({"boxes": [box]}, g)
            nodes = to_quantile(rho, 100).nodes
            assert (nodes[0], nodes[-1]) == rho.support_extent(), box
            assert rho.mass == pytest.approx(box[2] * (box[1] - box[0]),
                                             rel=1e-14)

    def test_empty_support_rejected(self):
        g = GridSpec(-2, 2, 100)
        with pytest.raises(ValueError):
            make_grid_density({"boxes": []}, g)

    def test_negative_mass_rejected(self):
        g = GridSpec(-2, 2, 100)
        with pytest.raises(ValueError):
            make_grid_density({"boxes": [(0, 1, -2.0)]}, g)

    @pytest.mark.parametrize("height", [math.inf, -math.inf, math.nan])
    def test_non_finite_height_rejected_without_warning(self, height):
        # an infinite height once gave inf * 0 = nan in the uncovered cells:
        # a RuntimeWarning, then "density values must be nonnegative"
        g = GridSpec(-2, 2, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="height must be finite"):
                make_grid_density({"boxes": [(0, 1, height)]}, g)


class TestQuantileConversions:
    def test_uniform_cdf_nodes(self):
        g = GridSpec(-2, 2, 400)
        q = to_quantile(indicator(0, 1, g), 4)
        assert np.allclose(q.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_half_density_nodes(self):
        g = GridSpec(-1, 3, 400)
        q = to_quantile(indicator(0, 2, g, height=0.5), 2)
        assert np.allclose(q.nodes, [0.0, 1.0, 2.0], atol=1e-12)

    def test_to_grid_unit_block(self):
        q = QuantileRep(1.0, np.array([0.0, 0.5, 1.0]))
        g = GridSpec(-1, 2, 300)
        rho = to_grid(q, g)
        inside = (g.centers > 0.05) & (g.centers < 0.95)
        assert np.allclose(rho.values[inside], 1.0)
        assert rho.mass == pytest.approx(1.0, abs=1e-14)

    def test_to_grid_half_density(self):
        q = QuantileRep(1.0, np.array([0.0, 1.0, 2.0]))
        g = GridSpec(-1, 3, 400)
        rho = to_grid(q, g)
        inside = (g.centers > 0.05) & (g.centers < 1.95)
        assert np.allclose(rho.values[inside], 0.5)

    def test_feasible_rep_reconstructs_below_cap(self):
        # gaps >= w represent density <= 1; cell averages cannot exceed it
        q = QuantileRep(1.0, np.linspace(0.0, 1.0, 51))
        g = GridSpec(-1, 2, 311)  # deliberately misaligned grid
        rho = to_grid(q, g)
        assert rho.values.max() <= 1.0 + 1e-12

    def test_round_trip_mass_50_random(self, rng):
        g = GridSpec(-3, 3, 500)
        for _ in range(50):
            rho = random_density(rng, g)
            n = int(rng.integers(8, 200))
            back = to_grid(to_quantile(rho, n), g)
            assert back.mass == pytest.approx(rho.mass, rel=1e-10)

    def test_round_trip_l1_error_decreases_under_refinement(self):
        g = GridSpec(-3, 3, 1200)
        rho = make_grid_density(
            {"boxes": [(-2, -1, 0.5), (0.5, 2.0, 0.9)]}, g)
        errs = []
        for n in (25, 50, 100, 200, 400):
            back = to_grid(to_quantile(rho, n), g)
            errs.append(float(np.sum(np.abs(back.values - rho.values)) * g.dx))
        assert errs[-1] < 0.25 * errs[0]
        # error bounded by C (1/n + dx) with a modest constant
        for n, e in zip((25, 50, 100, 200, 400), errs):
            assert e <= 6.0 * (1.0 / n + g.dx)

    def test_gap_density_inversion_two_bumps(self):
        g = GridSpec(-3, 3, 600)
        rho = make_grid_density({"boxes": [(-2, -1, 0.5), (1, 2, 0.5)]}, g)
        q = to_quantile(rho, 10)
        assert q.nodes[0] == pytest.approx(-2.0, abs=1e-12)
        assert q.nodes[-1] == pytest.approx(2.0, abs=1e-12)
        # the middle level sits at the inter-bump gap
        assert -1.0 - 1e-9 <= q.nodes[5] <= 1.0 + 1e-9

    def test_degenerate_input_rejected(self):
        g = GridSpec(-1, 1, 10)
        rho = GridDensity(g, np.zeros(10))
        with pytest.raises(ValueError):
            to_quantile(rho, 4)

    def test_uncovering_grid_rejected(self):
        q = QuantileRep(1.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            to_grid(q, GridSpec(0.25, 2.0, 10))


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=4,
                max_size=40))
@settings(max_examples=60, deadline=None)
def test_to_quantile_nodes_nondecreasing(vals):
    vals = np.asarray(vals)
    if vals.sum() <= 0.1:
        return
    g = GridSpec(0.0, float(len(vals)), len(vals))
    q = to_quantile(GridDensity(g, vals), 17)
    assert np.all(np.diff(q.nodes) >= -1e-14)


class TestTypes:
    def test_quantile_rejects_decreasing_nodes(self):
        for mass, nodes in ((1.0, [0.0, 1.0, 0.5]), (1.0, [0.0, math.nan, 1.0]),
                            (math.nan, [0.0, 0.5, 1.0])):
            with pytest.raises(ValueError):
                QuantileRep(mass, np.array(nodes))

    def test_gap_readings_on_edge_cases(self, rng):
        # the ordering check and the gap readings, pinned on the edge cases:
        # NaN nodes and inf - inf gaps are rejected like a negative gap, with
        # no warning first; an infinite gap is kept, and a zero gap reads as
        # infinite density
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nodes in ([math.nan] * 3, [0.0, math.inf, math.inf],
                          [-math.inf, -math.inf, 0.0], [0.0, 0.5, 0.25],
                          [math.inf, math.inf]):
                with pytest.raises(ValueError, match="nondecreasing"):
                    QuantileRep(1.0, np.array(nodes))
            for nodes in ([0.0, 1.0, math.inf], [-math.inf, 0.0, math.inf]):
                QuantileRep(1.0, np.array(nodes))
        q = QuantileRep(1.0, np.array([0.0, 1.0, math.inf]))
        assert q.max_density == 0.5 and q.excess_mass() == 0.0
        q = QuantileRep(1.0, np.array([0.0, 0.5, 0.5]))
        assert q.max_density == math.inf
        assert q.excess_mass() == 0.5
        assert internal_energy(q, 3.0) == math.inf
        assert internal_energy(q, math.inf) == math.inf
        # on ordinary nodes, the same bits as the np.diff formulas
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.0, 0.1, 50))
            q = QuantileRep(2.0, x)
            gaps = np.diff(x)
            assert q.gaps.tobytes() == gaps.tobytes()
            assert q.max_density == float(q.w / np.min(gaps))
            assert q.excess_mass() == float(np.sum(np.maximum(q.w - gaps, 0.0)))
            assert internal_energy(q, 3.0) == \
                float(q.w * np.sum((q.w / gaps) ** 2.0) / 2.0)

    def test_quantile_feasibility_reading(self):
        q = QuantileRep(1.0, np.linspace(0, 1, 11))  # gaps exactly w
        assert q.max_density == pytest.approx(1.0)
        assert q.excess_mass() == pytest.approx(0.0, abs=1e-15)

    def test_grid_density_rejects_negative(self):
        g = GridSpec(0, 1, 4)
        for vals in ([0.1, -0.2, 0.3, 0.0], [0.1, math.nan, 0.3, 0.0]):
            with pytest.raises(ValueError):
                GridDensity(g, np.array(vals))

    def test_patch_volume_1d(self):
        p = Patch(((0.0, 1.0), (2.0, 2.5)))
        assert p.volume == pytest.approx(1.5)

    def test_patch_volume_radial(self):
        p = Patch(((1.0, 2.0),), dim=3)
        assert p.volume == pytest.approx(4.0 / 3.0 * math.pi * (8.0 - 1.0))

    def test_patch_rejects_overlap(self):
        with pytest.raises(ValueError):
            Patch(((0.0, 1.0), (0.5, 2.0)))

    def test_patch_indicator_cell_average(self):
        g = GridSpec(-1, 2, 300)
        rho = Patch(((0.0, 1.0),)).indicator(g)
        assert rho.mass == pytest.approx(1.0, abs=1e-12)

    def test_radial_cell_average_is_by_shell_volume(self):
        # a cell partly covered by a shell holds the covered fraction of its
        # volume, not of its width, so the mass is the shell's volume
        g = GridSpec(0.0, 2.0, 10, dim=3)
        p = Patch(((0.5, 1.05),), dim=3)
        rho = p.indicator(g)
        assert rho.mass == pytest.approx(p.volume, rel=1e-14)
        # cells [0.4, 0.6] and [1.0, 1.2] partly covered, [0.6, 0.8] fully
        assert rho.values[2] == pytest.approx(
            (0.6 ** 3 - 0.5 ** 3) / (0.6 ** 3 - 0.4 ** 3), rel=1e-12)
        assert rho.values[3] == 1.0
        assert rho.values[5] == pytest.approx(
            (1.05 ** 3 - 1.0) / (1.2 ** 3 - 1.0), rel=1e-12)
        box = make_grid_density({"boxes": [(0.5, 1.05, 0.7)]}, g)
        assert box.mass == pytest.approx(0.7 * p.volume, rel=1e-14)

    def test_grid_edges_computed_once_and_frozen(self):
        for g in (GridSpec(-4.0, 4.0, 4000), GridSpec(0.0, 1.0, 7, dim=3)):
            e = g.edges
            assert e is g.edges
            assert np.array_equal(e, np.linspace(g.x_lo, g.x_hi, g.n_cells + 1))
            assert not e.flags.writeable
            with pytest.raises(ValueError):
                e[0] = 0.0
            clone = pickle.loads(pickle.dumps(g))
            assert clone == g and not clone.edges.flags.writeable
            for name in ("cell_measures", "edge_areas"):
                a = getattr(g, name)
                assert a is getattr(g, name)
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0
                copy = getattr(clone, name)
                assert np.array_equal(copy, a) and not copy.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.n_cells = 8

    def test_states_leave_the_callers_array_writable(self):
        a, x = np.zeros(4), np.array([0.0, 0.5, 1.0])
        rho, q = GridDensity(GridSpec(0, 1, 4), a), QuantileRep(1.0, x)
        for mine, stored in ((a, rho.values), (x, q.nodes)):
            mine[0] = -1.0  # the caller's array is not frozen
            assert stored[0] == 0.0 and not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 1.0

    def test_unpickled_states_stay_read_only(self):
        rho = GridDensity(GridSpec(0, 1, 4), np.ones(4))
        q = QuantileRep(1.0, np.array([0.0, 0.5, 1.0]))
        for state, name in ((rho, "values"), (q, "nodes")):
            clone = pickle.loads(pickle.dumps(state))
            stored = getattr(clone, name)
            assert np.array_equal(stored, getattr(state, name))
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 2.0
        assert pickle.loads(pickle.dumps(q)).total_mass == q.total_mass

    @pytest.mark.parametrize("lo,hi", [(-math.inf, 4.0), (-4.0, math.inf),
                                       (math.nan, 4.0), (-math.inf, math.inf)])
    def test_grid_rejects_non_finite_bounds_without_warning(self, lo, hi):
        # an infinite bound once made linspace warn and fill the edges
        # with nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite x_lo < x_hi"):
                GridSpec(lo, hi, 10)

    def test_radial_grid_measures(self):
        g = GridSpec(0.0, 1.0, 4, dim=3)
        total = g.cell_measures.sum()
        assert total == pytest.approx(4.0 / 3.0 * math.pi, rel=1e-12)


class TestBisect:
    def test_stops_on_a_bracket_of_adjacent_floats(self):
        # the midpoint of two adjacent floats rounds to one of them; a
        # halving that replaced that end by itself would repeat forever
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        for a, b in ((lo, hi), (hi, lo)):
            calls = []

            def inside(x, a=a):
                calls.append(x)
                return x == a

            assert _bisect(inside, a, b, 80) == (a, b)
            assert len(calls) == 1

    def test_halves_toward_the_boundary_within_its_cap(self):
        calls = []

        def inside(x):
            calls.append(x)
            return x <= 0.3

        assert _bisect(inside, 0.0, 1.0, 3) == (0.25, 0.375)
        assert calls == [0.5, 0.25, 0.375]
        # from the other side, at full precision: ends one float apart
        a, b = _bisect(lambda x: x >= 0.3, 1.0, 0.0, 200)
        assert (b, a) == (math.nextafter(0.3, 0.0), 0.3)
