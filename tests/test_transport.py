import math

import numpy as np
import pytest

from crowdflow.energy import potential_energy
from crowdflow.model import GridSpec, QuantileRep, to_quantile
from crowdflow.potentials import potential_catalog
from crowdflow.transport import (generalized_geodesic, w2_cost_squared,
                                 w2_distance)

from conftest import indicator_quantile, random_density


def brute_force_w2(atoms_a, atoms_b, total_mass: float = 1.0) -> float:
    """Assignment-based oracle for the quadratic cost on equal-weight atoms.

    Sorting both lists and pairing in order is the optimal assignment in
    1D for convex costs; kept independent of the quantile machinery so it
    can serve as a cross-check.
    """
    xa = np.sort(np.asarray(atoms_a, dtype=float))
    xb = np.sort(np.asarray(atoms_b, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("atom lists must have equal length")
    if xa.size > 10_000:
        raise ValueError("brute-force oracle capped at 1e4 atoms")
    w_atom = total_mass / xa.size
    return float(np.sqrt(w_atom * np.sum((xa - xb) ** 2)))


def atoms_from_quantile(q: QuantileRep) -> np.ndarray:
    """Equal-weight atom positions (gap midpoints) for the brute-force oracle."""
    return 0.5 * (q.nodes[:-1] + q.nodes[1:])


@pytest.fixture
def g6():
    return GridSpec(-3.0, 3.0, 600)


class TestW2Distance:
    def test_zero_on_equal(self, g6):
        a = indicator_quantile(0, 1, g6)
        assert w2_distance(a, a) == 0.0

    def test_pure_translation_cost(self, g6):
        a = indicator_quantile(0, 1, g6)
        b = indicator_quantile(2, 3, g6)
        assert w2_distance(a, b) == pytest.approx(2.0, abs=1e-13)

    def test_scaling_matches_closed_form_and_oracle(self, g6):
        # inverse CDFs are s and 2s: integral of s^2 over [0,1] is 1/3
        a = indicator_quantile(0, 1, g6, n=100)
        b = indicator_quantile(0, 2, g6, n=100, height=0.5)
        exact = 1.0 / math.sqrt(3.0)
        assert w2_distance(a, b) == pytest.approx(exact, abs=1e-12)
        oracle = brute_force_w2(atoms_from_quantile(a), atoms_from_quantile(b))
        assert abs(oracle - exact) < 1e-2

    def test_mass_mismatch_rejected(self, g6):
        a = indicator_quantile(0, 1, g6)
        b = indicator_quantile(0, 2, g6, height=1.0)
        with pytest.raises(ValueError):
            w2_distance(a, b)

    def test_count_mismatch_needs_explicit_resample(self, g6):
        a = indicator_quantile(0, 1, g6, n=50)
        b = indicator_quantile(2, 3, g6, n=100)
        with pytest.raises(ValueError, match="node counts differ"):
            w2_distance(a, b)

    def test_metric_axioms_random_triples(self, rng, g6):
        for _ in range(20):
            reps = [to_quantile(random_density(rng, g6), 60) for _ in range(3)]
            # equalize masses by rescaling nodes' shared mass parameter
            reps = [QuantileRep(1.0, r.nodes) for r in reps]
            a, b, c = reps
            assert w2_distance(a, b) == w2_distance(b, a)
            assert w2_distance(a, c) <= w2_distance(a, b) + w2_distance(b, c) + 1e-10
            assert w2_distance(a, b) >= 0.0

    def test_translation_invariance(self, rng, g6):
        a = to_quantile(random_density(rng, g6), 80)
        b = to_quantile(random_density(rng, g6), 80)
        b = QuantileRep(a.total_mass, b.nodes)
        d0 = w2_distance(a, b)
        d1 = w2_distance(QuantileRep(a.total_mass, a.nodes + 0.35),
                         QuantileRep(b.total_mass, b.nodes + 0.35))
        assert d1 == pytest.approx(d0, abs=1e-12)

    def test_zero_iff_equal_nodes(self):
        # alternating perturbation with huge gaps: a degenerate quadrature
        # would report zero; the exact form must not
        xa = np.array([0.0, 10.0, 20.0])
        xb = np.array([1.0, 9.0, 21.0])
        assert w2_cost_squared(xa, xb, 1.0 / 2.0) > 0.1


class TestOptimalMap:
    # the monotone optimal map pairs equal mass levels: its images of the
    # source nodes are the target nodes, and its cost is w2_cost_squared
    def test_identity(self, g6):
        a = indicator_quantile(0, 1, g6)
        assert w2_cost_squared(a.nodes, a.nodes, a.w) == 0.0
        assert w2_distance(a, QuantileRep(a.total_mass, a.nodes.copy())) == 0.0

    def test_translation_map(self, g6):
        a = indicator_quantile(0, 1, g6)
        b = indicator_quantile(2, 3, g6)
        assert np.allclose(b.nodes, a.nodes + 2.0, atol=1e-12)

    def test_scaling_map_cost_matches_assignment_oracles(self, g6):
        a = indicator_quantile(0, 1, g6, n=50)
        b = indicator_quantile(0, 2, g6, n=50, height=0.5)
        assert np.allclose(b.nodes, 2.0 * a.nodes, atol=1e-10)
        cost = w2_cost_squared(a.nodes, b.nodes, a.w)
        assert cost == pytest.approx(w2_distance(a, b) ** 2, rel=1e-12)
        xa, xb = atoms_from_quantile(a), atoms_from_quantile(b)
        sorted_cost = brute_force_w2(xa, xb)
        assert abs(math.sqrt(cost) - sorted_cost) < 1e-2
        # independent assignment oracle: sorted pairing is truly optimal
        from scipy.optimize import linear_sum_assignment
        pair_cost = (xa[:, None] - xb[None, :]) ** 2
        rows, cols = linear_sum_assignment(pair_cost)
        hungarian = math.sqrt(pair_cost[rows, cols].sum() / xa.size)
        assert hungarian == pytest.approx(sorted_cost, rel=1e-12)

    def test_monotone_map_validation(self, g6):
        a = indicator_quantile(0, 1, g6, n=4)
        with pytest.raises(ValueError):
            QuantileRep(a.total_mass, np.array([0.0, 1.0, 0.5, 2.0, 3.0]))


class TestPushforward:
    # pushing a forward by a monotone map is the representation with the
    # map's images as nodes
    def test_identity(self, g6):
        a = indicator_quantile(0, 1, g6)
        out = QuantileRep(a.total_mass, a.nodes)
        assert np.allclose(out.nodes, a.nodes)
        assert out.w == a.w

    def test_exact_target(self, g6):
        a = indicator_quantile(0, 1, g6)
        b = indicator_quantile(-1, 0.5, g6, height=2.0 / 3.0)
        out = QuantileRep(a.total_mass, b.nodes)
        assert np.allclose(out.nodes, b.nodes)
        assert w2_distance(a, out) == pytest.approx(w2_distance(a, b), rel=1e-12)


class TestGeneralizedGeodesic:
    def test_endpoints(self, g6):
        base = indicator_quantile(0, 1, g6)
        mu2 = indicator_quantile(-1, 0, g6)
        mu3 = indicator_quantile(1, 2, g6)
        assert np.allclose(generalized_geodesic(base, mu2, mu3, 0.0).nodes,
                           mu2.nodes)
        assert np.allclose(generalized_geodesic(base, mu2, mu3, 1.0).nodes,
                           mu3.nodes)

    def test_midpoint_of_opposite_translates_is_base(self, g6):
        base = indicator_quantile(0, 1, g6)
        mu2 = QuantileRep(1.0, base.nodes - 1.0)
        mu3 = QuantileRep(1.0, base.nodes + 1.0)
        mid = generalized_geodesic(base, mu2, mu3, 0.5)
        assert np.allclose(mid.nodes, base.nodes, atol=1e-14)

    def test_potential_energy_semiconvexity_spot_check(self, rng, g6):
        # for a quadratic potential the modulus-lambda convexity inequality
        # along node-interpolated curves holds with exact equality
        phi = potential_catalog("quadratic", q=1.0)
        base = to_quantile(random_density(rng, g6), 64)
        mu2 = QuantileRep(base.total_mass,
                          np.sort(base.nodes + rng.normal(0, 0.2, base.n + 1)))
        mu3 = QuantileRep(base.total_mass,
                          np.sort(base.nodes + rng.normal(0, 0.2, base.n + 1)))
        d2 = w2_cost_squared(mu2.nodes, mu3.nodes, base.w)
        p2, p3 = potential_energy(mu2, phi), potential_energy(mu3, phi)
        for t in (0.25, 0.5, 0.75):
            pt = potential_energy(generalized_geodesic(base, mu2, mu3, t), phi)
            bound = (1 - t) * p2 + t * p3 - 0.5 * phi.lam * t * (1 - t) * d2
            assert pt <= bound + 1e-8
            assert pt == pytest.approx(bound, abs=1e-10)

    def test_feasibility_preserved_along_curve(self, g6):
        base = indicator_quantile(0, 1, g6, n=40)
        mu2 = indicator_quantile(-1, 0, g6, n=40)
        mu3 = indicator_quantile(0.5, 1.5, g6, n=40)
        for t in (0.25, 0.5, 0.75):
            mid = generalized_geodesic(base, mu2, mu3, t)
            assert mid.max_density <= 1.0 + 1e-12

    def test_parameter_range(self, g6):
        a = indicator_quantile(0, 1, g6)
        with pytest.raises(ValueError):
            generalized_geodesic(a, a, a, 1.5)


class TestBruteForce:
    def test_identical_atoms(self):
        x = np.array([0.0, 1.0, 2.0])
        assert brute_force_w2(x, x) == 0.0

    def test_single_atom_pair(self):
        assert brute_force_w2([0.0], [3.0]) == pytest.approx(3.0)

    def test_uniform_samples_scaling(self):
        s = (np.arange(100) + 0.5) / 100.0
        val = brute_force_w2(s, 2.0 * s)
        assert abs(val - 1.0 / math.sqrt(3.0)) < 2e-2

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_w2([0.0, 1.0], [0.0])

    def test_agreement_with_w2_on_random_pairs(self, rng, g6):
        for _ in range(20):
            a = to_quantile(random_density(rng, g6), 200)
            b = QuantileRep(a.total_mass,
                            to_quantile(random_density(rng, g6), 200).nodes)
            d_exact = w2_distance(a, b)
            d_atoms = brute_force_w2(atoms_from_quantile(a),
                                     atoms_from_quantile(b),
                                     total_mass=a.total_mass)
            assert abs(d_exact - d_atoms) < 1e-2
