import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow.energy import free_energy
from crowdflow.jko import (JkoConvergenceError, JkoOptions, jko_step,
                           jko_trajectory, pav_nondecreasing, project_spacing,
                           verify_comparison)
from crowdflow.model import GridSpec, QuantileRep, to_quantile
from crowdflow.oracles import energy_minimizer_profile, stationary_profile
from crowdflow.potentials import potential_catalog
from crowdflow.transport import w2_cost_squared

from conftest import indicator, indicator_quantile, random_density


@pytest.fixture
def g6():
    return GridSpec(-3.0, 3.0, 600)


# ---------------------------------------------------------------------------
# isotonic projection
# ---------------------------------------------------------------------------

def _qp_projection_oracle(v, gap):
    """Projection onto {x[j+1] - x[j] >= gap} by active-set enumeration.

    Solves every equality-restricted KKT system for small n and returns
    the unique candidate that is primal and dual feasible.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    best = None
    for mask in itertools.product([False, True], repeat=n - 1):
        # x minimizing ||x - v||^2 with x[j+1]-x[j] = gap for j in mask:
        # blocks of consecutive equalities move rigidly to their mean
        idx = np.zeros(n, dtype=int)
        for j, active in enumerate(mask):
            idx[j + 1] = idx[j] + (0 if active else 1)
        x = np.empty(n)
        offs = np.arange(n) * gap
        for b in range(idx[-1] + 1):
            sel = idx == b
            x[sel] = np.mean(v[sel] - offs[sel]) + offs[sel]
        gaps = np.diff(x)
        if np.any(gaps < gap - 1e-12):
            continue
        # dual feasibility: multipliers from stationarity cumsums
        g = x - v
        ok = True
        for b in range(idx[-1] + 1):
            sel = np.flatnonzero(idx == b)
            mu = -np.cumsum(g[sel])[:-1]
            if mu.size and np.min(mu) < -1e-12:
                ok = False
                break
        if ok:
            cand = float(np.sum((x - v) ** 2))
            if best is None or cand < best[0] - 1e-15:
                best = (cand, x)
    return best[1]


class TestProjection:
    def test_feasible_unchanged(self):
        x = np.array([0.0, 1.0, 2.5])
        assert np.allclose(project_spacing(x, 0.5), x)

    def test_two_point_mean_split(self):
        out = project_spacing(np.array([5.0, 5.0]), 0.5)
        assert np.allclose(out, [4.75, 5.25])

    def test_matches_qp_oracle_on_random_vectors(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 7))
            v = rng.normal(0.0, 1.0, n)
            gap = float(rng.uniform(0.0, 0.5))
            ours = project_spacing(v, gap)
            oracle = _qp_projection_oracle(v, gap)
            assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            project_spacing(np.array([0.0, 1.0]), -0.1)

    def test_weighted_pav_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            y = rng.normal(0.0, 1.0, n)
            wts = rng.uniform(0.1, 5.0, n)
            ours = pav_nondecreasing(y, wts)
            assert np.max(np.abs(ours - _weighted_isotonic_oracle(y, wts))) \
                < 1e-12


def _weighted_isotonic_oracle(y, wts):
    """Weighted isotonic regression by enumerating consecutive blocks.

    The projection is constant, at the block's weighted mean, on blocks of
    consecutive entries; among all block partitions whose means increase,
    it is the one with the least weighted squared error.
    """
    best = None
    for cuts in itertools.product([False, True], repeat=y.size - 1):
        ids = np.concatenate([[0], np.cumsum(cuts, dtype=int)])
        means = np.array([np.average(y[ids == b], weights=wts[ids == b])
                          for b in range(ids[-1] + 1)])
        if np.any(np.diff(means) < 0.0):
            continue
        cost = float(np.sum(wts * (means[ids] - y) ** 2))
        if best is None or cost < best[0]:
            best = (cost, means[ids])
    return best[1]


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1,
                max_size=30))
@settings(max_examples=80, deadline=None)
def test_pav_properties(vals):
    y = np.asarray(vals)
    out = pav_nondecreasing(y)
    assert np.all(np.diff(out) >= -1e-12)          # monotone
    again = pav_nondecreasing(out)
    assert np.allclose(again, out, atol=1e-12)     # idempotent
    assert np.sum(out) == pytest.approx(np.sum(y), abs=1e-8 * (1 + np.abs(y).sum()))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

class TestJkoStep:
    def test_zero_potential_fixed_point(self, g6):
        zero = potential_catalog("custom-polynomial", coef=[0.0])
        q0 = indicator_quantile(0, 1, g6, n=50)
        out = jko_step(q0, math.inf, 0.01, zero)
        assert np.allclose(out.state.nodes, q0.nodes, atol=1e-12)
        assert out.w2_increment < 1e-12

    def test_linear_drift_exact_translation(self, g6):
        lin = potential_catalog("linear", g=1.0)
        q0 = indicator_quantile(0, 1, g6, n=50)
        h = 0.01
        out = jko_step(q0, math.inf, h, lin)
        assert np.max(np.abs(out.state.nodes - (q0.nodes - h))) < 1e-12

    def test_stationary_profiles_are_fixed_points(self, g6, quad_phi):
        # the hard-constraint minimizer is exactly representable (aligned
        # indicator); finite-m profiles are grid-sampled, so their movement
        # is discretization-limited and must shrink under refinement
        rho_s = stationary_profile(math.inf, quad_phi, 1.0, g6)
        out = jko_step(to_quantile(rho_s, 200), math.inf, 0.01, quad_phi)
        assert out.w2_increment <= 1e-12
        fine = GridSpec(-3.0, 3.0, 2400)
        for m in (3.0, 10.0):
            moves = []
            for grid, n in ((g6, 100), (fine, 400)):
                q_s = to_quantile(
                    energy_minimizer_profile(m, quad_phi, 1.0, grid), n)
                out = jko_step(q_s, m, 0.01, quad_phi)
                moves.append(out.w2_increment)
                assert out.w2_increment <= 0.1 * (1.0 / n + grid.dx)
            assert moves[1] < 0.5 * moves[0]

    def test_one_step_excess_bound(self, g6, quad_phi):
        # potential-energy budget of the initial data bounds the overshoot
        q0 = indicator_quantile(1, 2, g6, n=200)
        M = free_energy(q0, 50.0, quad_phi).potential
        out = jko_step(q0, 50.0, 0.01, quad_phi)
        assert out.state.excess_mass() <= 2.0 * math.sqrt((M + 1.0) / 50.0)

    def test_excess_bound_with_genuine_overshoot(self, g6):
        # a steep well compresses the density above the cap at moderate m;
        # the overshoot must still respect the energy-budget bound
        steep = potential_catalog("quadratic", q=8.0)
        q0 = indicator_quantile(0, 1, g6, n=200)
        M = free_energy(q0, 5.0, steep).potential
        cur = q0
        peak = 0.0
        for _ in range(60):
            cur = jko_step(cur, 5.0, 0.02, steep).state
            peak = max(peak, cur.excess_mass())
            assert cur.excess_mass() <= 2.0 * math.sqrt((M + 1.0) / 5.0)
        assert peak > 1e-4  # the cap is genuinely exceeded along the run

    def test_one_step_optimality_random_perturbations(self, rng, g6, quad_phi):
        q0 = indicator_quantile(0.5, 1.5, g6, n=40)
        h = 0.02
        out = jko_step(q0, math.inf, h, quad_phi)
        x = out.state.nodes
        w = out.state.w

        def objective(nodes):
            rep = QuantileRep(1.0, nodes)
            return free_energy(rep, math.inf, quad_phi).total \
                + w2_cost_squared(nodes, q0.nodes, w) / (2 * h)

        f0 = objective(x)
        for _ in range(100):
            d = rng.normal(0.0, 1.0, x.size)
            scale = rng.uniform(1e-5, 1e-2)
            cand = project_spacing(x + scale * d, w)
            assert objective(cand) >= f0 - 1e-9

    def test_dissipation_inequality(self, rng, g6, quad_phi):
        # boxes may stack, so cap heights well below the congestion ceiling
        q = to_quantile(random_density(rng, g6, max_height=0.3), 80)
        for m in (4.0, math.inf):
            prev = free_energy(q, m, quad_phi).total
            out = jko_step(q, m, 0.05, quad_phi)
            cur = free_energy(out.state, m, quad_phi).total
            assert cur + out.w2_increment**2 / (2 * 0.05) <= prev + 1e-9
            assert out.dissipation >= -1e-9

    def test_objective_convex_along_random_segments(self, rng, g6, quad_phi):
        # second differences of the step objective along feasible chords
        q0 = indicator_quantile(0, 1, g6, n=30)
        h, w = 0.02, q0.w
        for m in (5.0, math.inf):
            for _ in range(20):
                xa = np.sort(q0.nodes + rng.normal(0, 0.3, q0.n + 1))
                xb = np.sort(q0.nodes + rng.normal(0, 0.3, q0.n + 1))
                if math.isinf(m):
                    xa = project_spacing(xa, w)
                    xb = project_spacing(xb, w)

                def f(s):
                    nodes = (1 - s) * xa + s * xb
                    rep = QuantileRep(1.0, np.maximum.accumulate(nodes))
                    e = free_energy(rep, m, quad_phi).total
                    return e + w2_cost_squared(rep.nodes, q0.nodes, w) / (2 * h)

                s = np.linspace(0.0, 1.0, 9)
                vals = np.array([f(si) for si in s])
                second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
                assert np.min(second) >= -1e-10 * max(1.0, np.abs(vals).max())

    def test_congested_step_matches_reference_optimizer(self, rng, g6, quad_phi):
        # independent oracle: a general-purpose SQP on the same objective
        from scipy.optimize import minimize
        from crowdflow.energy import free_energy as fe
        h = 0.02
        for _ in range(5):
            base = indicator_quantile(0, 1, g6, n=12)
            y = project_spacing(
                np.sort(base.nodes + rng.normal(0, 0.1, base.n + 1)), base.w)
            q0 = QuantileRep(1.0, y)
            w = q0.w
            out = jko_step(q0, math.inf, h, quad_phi)

            def obj(x):
                rep = QuantileRep(1.0, np.maximum.accumulate(x))
                return fe(rep, math.inf, quad_phi).potential                     + w2_cost_squared(rep.nodes, y, w) / (2 * h)

            cons = [{"type": "ineq",
                     "fun": (lambda x, j=j: x[j + 1] - x[j] - w)}
                    for j in range(q0.n)]
            ref = minimize(obj, y, constraints=cons, method="SLSQP",
                           options={"maxiter": 400, "ftol": 1e-14})
            assert obj(out.state.nodes) <= ref.fun + 1e-10
            assert np.max(np.abs(out.state.nodes - ref.x)) < 1e-5

    def test_kkt_residual_reported_small(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=100)
        for m in (7.0, math.inf):
            out = jko_step(q0, m, 0.01, quad_phi)
            assert out.kkt_residual <= 1e-9

    def test_step_guard_for_concave_potentials(self, g6):
        dw = potential_catalog("quartic-well", a=1.0, b=-1.0)
        assert dw.lam < 0
        q0 = indicator_quantile(0, 1, g6, n=20)
        with pytest.raises(ValueError):
            jko_step(q0, math.inf, 1.0 / abs(dw.lam), dw)
        out = jko_step(q0, math.inf, 0.1 / abs(dw.lam), dw)
        assert out.kkt_residual <= 1e-9

    def test_infeasible_start_rejected(self, g6, quad_phi):
        q0 = indicator_quantile(0, 1, g6, n=50, height=1.0)
        squeezed = QuantileRep(1.0, q0.nodes * 0.8)  # density 1.25
        with pytest.raises(ValueError):
            jko_step(squeezed, math.inf, 0.01, quad_phi)

    def test_bad_m_rejected(self, g6, quad_phi):
        q0 = indicator_quantile(0, 1, g6)
        with pytest.raises(ValueError):
            jko_step(q0, 1.0, 0.01, quad_phi)

    def test_nonconvergence_is_loud(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=100)
        with pytest.raises(JkoConvergenceError):
            jko_step(q0, 7.0, 0.01, quad_phi,
                     JkoOptions(tol_grad=1e-13, max_iterations=2))

    def test_mass_and_count_invariant(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=64)
        out = jko_step(q0, 8.0, 0.01, quad_phi)
        assert out.state.total_mass == q0.total_mass
        assert out.state.n == q0.n


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class TestTrajectory:
    def test_energy_monotone_and_dissipation_budget(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=100)
        for m in (6.0, math.inf):
            states, ledger = jko_trajectory(q0, m, 0.02, quad_phi, 0.5)
            E = ledger.column("E")
            assert np.all(np.diff(E) <= 1e-9)
            # telescoping dissipation stays within the initial budget
            assert E[0] - E[-1] <= E[0] + 1e-9
            assert ledger.validate()
            assert len(states) == len(E)

    def test_confinement_inside_dominating_stationary_support(self, g6, quad_phi):
        # start inside the stationary patch of a larger mass: stays inside
        q0 = indicator_quantile(1.0, 2.0, g6, n=80)
        big = stationary_profile(math.inf, quad_phi, 4.2, g6)
        lo, hi = big.support_extent(1e-6)
        assert lo <= 1.0 and hi >= 2.0
        states, _ = jko_trajectory(q0, math.inf, 0.01, quad_phi, 2.0)
        for s in states:
            assert s.nodes[0] >= lo - 1e-9
            assert s.nodes[-1] <= hi + 1e-9

    def test_ledger_energies_and_states_match_chained_steps(self, g6, quad_phi):
        # the trajectory reuses each step's energy report instead of
        # recomputing it: the ledger must still hold free_energy exactly,
        # and the states must be those of plain jko_step chaining
        q0 = indicator_quantile(1, 2, g6, n=60)
        h = 0.02
        for m in (4.0, math.inf):
            states, ledger = jko_trajectory(q0, m, h, quad_phi, 0.1)
            cur = q0
            for k, (state, row) in enumerate(zip(states, ledger.rows)):
                if k:
                    out = jko_step(cur, m, h, quad_phi)
                    assert out.dissipation == \
                        free_energy(cur, m, quad_phi).total - out.energy.total
                    cur = out.state
                assert state.nodes.tobytes() == cur.nodes.tobytes()
                rep = free_energy(state, m, quad_phi)
                assert row[2:5] == (rep.total, rep.internal, rep.potential)

    def test_piecewise_constant_step_count(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=20)
        states, ledger = jko_trajectory(q0, math.inf, 0.03, quad_phi, 0.1)
        assert len(states) == 5  # ceil(0.1/0.03) = 4 steps plus the start


# ---------------------------------------------------------------------------
# order preservation
# ---------------------------------------------------------------------------

class TestComparison:
    def test_identical_inputs_zero_violation(self, g6, quad_phi):
        rho = indicator(0, 1, g6)
        rep = verify_comparison(rho, rho, 10.0, 0.01, quad_phi, n_quantile=100)
        assert rep.passed
        assert rep.max_violation <= 1e-12

    def test_spec_pair(self, g6, quad_phi):
        r1 = indicator(0, 1, g6, height=0.5)
        r2 = indicator(-1, 2, g6)
        rep = verify_comparison(r1, r2, 10.0, 0.01, quad_phi, n_quantile=150)
        assert rep.passed

    def test_random_ordered_pairs_small(self, rng, g6, quad_phi):
        for _ in range(5):
            h2 = rng.uniform(0.5, 1.0)
            a2 = rng.uniform(-1.5, 0.0)
            b2 = a2 + rng.uniform(1.0, 2.0)
            r2 = indicator(a2, b2, g6, height=h2)
            c = rng.uniform(0.3, 1.0)
            a1 = rng.uniform(a2, 0.5 * (a2 + b2))
            b1 = rng.uniform(0.5 * (a2 + b2), b2)
            vals = np.where((g6.centers >= a1) & (g6.centers <= b1),
                            c * r2.values, 0.0)
            r1 = r2.with_values(vals)
            for m in (5.0, 50.0, math.inf):
                rep = verify_comparison(r1, r2, m, 0.01, quad_phi,
                                        n_quantile=120)
                assert rep.passed, (m, rep.max_violation, rep.eps_cmp)

    def test_low_m_refused(self, g6, quad_phi):
        rho = indicator(0, 1, g6)
        with pytest.raises(ValueError):
            verify_comparison(rho, rho, 2.0, 0.01, quad_phi)

    def test_unordered_inputs_rejected(self, g6, quad_phi):
        r1 = indicator(0, 1, g6, height=0.9)
        r2 = indicator(0, 1, g6, height=0.8)
        with pytest.raises(ValueError):
            verify_comparison(r1, r2, 10.0, 0.01, quad_phi)
