import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import scipy.linalg
from numpy.polynomial import polynomial as npoly

from crowdflow import energy, experiments, jko, transport
from crowdflow.config import ExperimentConfig
from crowdflow.energy import free_energy
from crowdflow.jko import (JkoConvergenceError, JkoOptions, jko_step,
                           jko_trajectory, pav_nondecreasing, project_spacing,
                           verify_comparison)
from crowdflow.model import GridSpec, QuantileRep, make_grid_density, to_quantile
from crowdflow.oracles import energy_minimizer_profile
from crowdflow.potentials import Potential, potential_catalog
from crowdflow.transport import w2_cost_squared, w2_distance

from conftest import (excess_bound, indicator, indicator_quantile,
                      random_density)


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
        # NaN once returned all-NaN nodes, and inf warned, then did the same
        for gap in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                project_spacing(np.array([0.0, 1.0, 2.0]), gap)

    def test_pav_matches_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            y = rng.normal(0.0, 1.0, n)
            ours = pav_nondecreasing(y)
            assert np.max(np.abs(ours - _isotonic_oracle(y))) < 1e-12


def _isotonic_oracle(y):
    """Isotonic regression by enumerating consecutive blocks.

    The projection is constant, at the block's mean, on blocks of
    consecutive entries; among all block partitions whose means increase,
    it is the one with the least squared error.
    """
    best = None
    for cuts in itertools.product([False, True], repeat=y.size - 1):
        ids = np.concatenate([[0], np.cumsum(cuts, dtype=int)])
        means = np.array([y[ids == b].mean() for b in range(ids[-1] + 1)])
        if np.any(np.diff(means) < 0.0):
            continue
        cost = float(np.sum((means[ids] - y) ** 2))
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
        assert w2_distance(out.state, q0) < 1e-12

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
        q_s = to_quantile(
            energy_minimizer_profile(math.inf, quad_phi, 1.0, g6), 200)
        out = jko_step(q_s, math.inf, 0.01, quad_phi)
        assert w2_distance(out.state, q_s) <= 1e-12
        fine = GridSpec(-3.0, 3.0, 2400)
        for m in (3.0, 10.0):
            moves = []
            for grid, n in ((g6, 100), (fine, 400)):
                q_s = to_quantile(
                    energy_minimizer_profile(m, quad_phi, 1.0, grid), n)
                out = jko_step(q_s, m, 0.01, quad_phi)
                moves.append(w2_distance(out.state, q_s))
                assert moves[-1] <= 0.1 * (1.0 / n + grid.dx)
            assert moves[1] < 0.5 * moves[0]

    def test_one_step_excess_bound(self, g6, quad_phi):
        # potential-energy budget of the initial data bounds the overshoot
        q0 = indicator_quantile(1, 2, g6, n=200)
        M = free_energy(q0, 50.0, quad_phi).potential
        out = jko_step(q0, 50.0, 0.01, quad_phi)
        assert out.state.excess_mass() <= excess_bound(M, 50.0)

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
            assert cur.excess_mass() <= excess_bound(M, 5.0)
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
            move = w2_distance(out.state, q)
            assert cur + move**2 / (2 * 0.05) <= prev + 1e-9
            assert prev - cur >= -1e-9

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
        well = potential_catalog("quartic-well", a=1.0, b=-1.0)
        base = indicator_quantile(0, 1, g6, n=12)
        starts = [project_spacing(np.sort(
            base.nodes + rng.normal(0, 0.1, base.n + 1)), base.w)
            for _ in range(8)]
        # squeezed: every gap in [w / (1 + 1e-9), w (1 - 1e-12)), density
        # above one by at most the admissible EPS_FEAS
        starts.append(base.nodes[0] + np.concatenate([[0.0], np.cumsum(
            base.w * (1.0 - rng.uniform(1e-12, 0.9e-9, base.n)))]))
        for phi, y in zip((quad_phi,) * 5 + (well,) * 3 + (quad_phi,),
                          starts, strict=True):
            q0 = QuantileRep(1.0, y)
            w = q0.w
            out = jko_step(q0, math.inf, h, phi)
            self._assert_congested_step_converged(q0, out)

            def obj(x, phi=phi):
                rep = QuantileRep(1.0, np.maximum.accumulate(x))
                return (fe(rep, math.inf, phi).potential
                        + w2_cost_squared(rep.nodes, y, w) / (2 * h))

            cons = [{"type": "ineq",
                     "fun": (lambda x, j=j: x[j + 1] - x[j] - w)}
                    for j in range(q0.n)]
            ref = minimize(obj, y, constraints=cons, method="SLSQP",
                           options={"maxiter": 400, "ftol": 1e-14})
            assert obj(out.state.nodes) <= ref.fun + 1e-10
            assert np.max(np.abs(out.state.nodes - ref.x)) < 1e-5

    @staticmethod
    def _assert_congested_step_converged(q0, out):
        assert out.kkt_residual <= 1e-9
        assert np.min(np.diff(out.state.nodes)) >= q0.w * (1.0 - 1e-12)

    def test_saturating_congested_step_sweeps_independent_of_n(self):
        # a box pushed into a steep well saturates every cell in one step;
        # the number of sweeps must not grow with the number of cells
        grid = GridSpec(-4.0, 4.0, 4000)
        phi = potential_catalog("quadratic", q=4.0)
        sweeps = set()
        for n in (100, 200, 400, 800, 1600, 3200):
            q0 = indicator_quantile(-1.5, 1.5, grid, n=n, height=0.6)
            out = jko_step(q0, math.inf, 0.5, phi)
            self._assert_congested_step_converged(q0, out)
            sweeps.add(out.iterations)
        assert len(sweeps) == 1

    def test_partly_saturated_quartic_step_sweeps_independent_of_n(self):
        # saturation grows from the well's centre; snapping each grown block
        # pushes its neighbours below the spacing, which must not cost a
        # sweep per few cells
        grid = GridSpec(-6.0, 6.0, 4800)
        phi = potential_catalog("quartic-well", a=2.0, b=0.5, c=0.3)
        sweeps = set()
        for n in (100, 400, 1600):
            q0 = indicator_quantile(-1.5, 1.5, grid, n=n, height=0.6)
            out = jko_step(q0, math.inf, 0.4, phi)
            self._assert_congested_step_converged(q0, out)
            assert 0 < out.active_count < q0.n
            sweeps.add(out.iterations)
        assert len(sweeps) == 1

    def test_saturating_finite_m_step_meets_tolerance_at_every_n(self):
        # the congested reproduction at finite m: a stiff barrier on fine
        # quantiles used to stall above tol_grad and be accepted there
        grid = GridSpec(-4.0, 4.0, 4000)
        phi = potential_catalog("quadratic", q=4.0)
        opts = JkoOptions()
        for m in (10.0, 50.0):
            iters = set()
            for n in (100, 200, 400, 800, 1600):
                q0 = indicator_quantile(-1.5, 1.5, grid, n=n, height=0.6)
                out = jko_step(q0, m, 0.5, phi, opts)
                assert out.kkt_residual <= opts.tol_grad, (m, n)
                iters.add(out.iterations)
            # the count does not grow with n (7 Newton steps at m = 10 and
            # 8 at m = 50 at every n); a last Newton step can land just
            # under tol_grad one step early
            assert max(iters) - min(iters) <= 1, (m, iters)

    def test_unreachable_finite_m_tolerance_raises(self, monkeypatch):
        # this step stalls near a residual of 1e-11 in double precision: a
        # tighter tolerance must raise, not return the best iterate
        monkeypatch.setattr(jko, "MAX_ITERATIONS", 50)
        grid = GridSpec(-4.0, 4.0, 4000)
        phi = potential_catalog("quadratic", q=4.0)
        q0 = indicator_quantile(-1.5, 1.5, grid, n=1600, height=0.6)
        with pytest.raises(JkoConvergenceError):
            jko_step(q0, 50.0, 0.5, phi, JkoOptions(tol_grad=1e-12))

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

    def test_overflowing_barrier_at_the_start_names_the_overflow(self):
        # one gap of 1e-9 among gaps of 1e-2: (w / gap)**50 overflows at the
        # start, which used to surface as the tridiagonal solve's complaint
        # about infs; (w / gap)**10 does not, and that step converges.  Two
        # such gaps side by side cancel to a NaN gradient, which used to
        # return the start as a step with a NaN residual
        phi = potential_catalog("quadratic", q=1.0)
        for collapsed in (1, 2):
            x = np.linspace(-1.0, 1.0, 201)
            for j in range(100, 100 + collapsed):
                x[j] = x[j - 1] + 1e-9
            q0 = QuantileRep(1.0, x)
            with pytest.raises(ValueError, match=r"overflow at m = 50 "
                                                 r"\(smallest gap 1\.000e-09"):
                jko_step(q0, 50.0, 1e-3, phi)
        assert jko_step(q0, 10.0, 1e-3, phi).kkt_residual <= 1e-9

    def test_bad_m_rejected(self, g6, quad_phi):
        # -inf once passed the guard and ran the m = +inf congested solver
        q0 = indicator_quantile(0, 1, g6)
        for m in (1.0, 0.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match="m > 1, got m = "):
                jko_step(q0, m, 0.01, quad_phi)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # an infinite tolerance once accepted every start as converged
        with pytest.raises(ValueError, match="tol_grad"):
            JkoOptions(tol_grad=tol)

    def test_nonconvergence_is_loud(self, g6, quad_phi, monkeypatch):
        monkeypatch.setattr(jko, "MAX_ITERATIONS", 2)
        q0 = indicator_quantile(1, 2, g6, n=100)
        with pytest.raises(JkoConvergenceError):
            jko_step(q0, 7.0, 0.01, quad_phi, JkoOptions(tol_grad=1e-13))

    def test_non_finite_residual_is_loud(self, g6, quad_phi, monkeypatch):
        # a NaN norm fails the loop's ``gnorm / w > tol`` test, so a line
        # search that returned one (only its untested tiny step can) once
        # ended Newton as converged, with kkt_residual = nan
        search = jko._line_search

        def nan_norm(*args):
            state, g, _, f = search(*args)
            return state, g, math.nan, f

        monkeypatch.setattr(jko, "_line_search", nan_norm)
        q0 = indicator_quantile(1, 2, g6, n=100)
        with pytest.raises(JkoConvergenceError, match="KKT residual nan"):
            jko_step(q0, 7.0, 0.01, quad_phi)

    def test_mass_and_count_invariant(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=64)
        out = jko_step(q0, 8.0, 0.01, quad_phi)
        assert out.state.total_mass == q0.total_mass
        assert out.state.n == q0.n

    def test_step_energy_checks_the_potential_domain(self, g6):
        # the step rejects a state outside the potential's domain
        narrow = potential_catalog("quadratic", q=1.0, domain=(-1.0, 1.0))
        q0 = indicator_quantile(0.5, 1.5, g6, n=40)
        with pytest.raises(ValueError, match="working domain"):
            jko_step(q0, 6.0, 0.02, narrow)


# ---------------------------------------------------------------------------
# tridiagonal solve
# ---------------------------------------------------------------------------

def _solve_tridiag_reference(hd, ho, rhs):
    """The solve through ``scipy.linalg.solveh_banded``, ridge retry included."""
    ab = np.zeros((2, hd.size))
    ab[0, 1:] = ho
    ab[1, :] = hd
    try:
        return scipy.linalg.solveh_banded(ab, rhs, lower=False)
    except scipy.linalg.LinAlgError:
        ab[1, :] = hd + (1e-12 * np.max(np.abs(hd)) + 1e-300)
        return scipy.linalg.solveh_banded(ab, rhs, lower=False)


class TestTridiagonalSolve:
    def test_spd_bit_identical_to_solveh_banded(self, rng):
        for n in (2, 3, 50, 801):
            ho = rng.uniform(-1.0, 1.0, n - 1)
            hd = rng.uniform(0.1, 2.0, n)
            hd[:-1] += np.abs(ho)
            hd[1:] += np.abs(ho)
            rhs = rng.normal(size=n)
            got = jko._solve_tridiag(hd, ho, rhs)
            assert got.tobytes() == _solve_tridiag_reference(hd, ho, rhs).tobytes()

    def test_singular_matrix_takes_the_ridge_retry(self):
        # a path-graph Laplacian: positive semidefinite, last pivot exactly
        # zero; one ridge retry solves it
        hd, ho = np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0])
        rhs = np.array([1.0, -1.0, 0.5])
        got = jko._solve_tridiag(hd, ho, rhs)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == _solve_tridiag_reference(hd, ho, rhs).tobytes()

    def test_indefinite_matrix_raises_after_the_ridge(self):
        hd, ho, rhs = np.array([1.0, -2.0, 1.0]), np.array([0.5, 0.5]), np.ones(3)
        for solve in (jko._solve_tridiag, _solve_tridiag_reference):
            with pytest.raises(np.linalg.LinAlgError):
                solve(hd, ho, rhs)

    def test_nonfinite_input_raises_value_error(self):
        hd, ho, rhs = np.full(4, 3.0), np.ones(3), np.ones(4)
        for bad in (np.nan, np.inf):
            for args in ((np.r_[hd[:-1], bad], ho, rhs),
                         (hd, np.r_[bad, ho[1:]], rhs),
                         (hd, ho, np.r_[rhs[:2], bad, rhs[3:]])):
                for solve in (jko._solve_tridiag, _solve_tridiag_reference):
                    with pytest.raises(ValueError):
                        solve(*args)

    def test_one_unknown_keeps_the_contract(self, g6, quad_phi, monkeypatch):
        # a 1x1 system used to be solved before the finiteness check and
        # whatever its sign: [nan] gave [nan] and [-2] gave -0.5
        empty, one = np.empty(0), np.ones(1)
        got = jko._solve_tridiag(np.array([2.0]), empty, np.array([1.0]))
        assert got.tolist() == [0.5]
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                jko._solve_tridiag(np.array([bad]), empty, one)
            with pytest.raises(ValueError):
                jko._solve_tridiag(np.array([2.0]), empty, np.array([bad]))
        with pytest.raises(np.linalg.LinAlgError):
            jko._solve_tridiag(np.array([-2.0]), empty, one)
        # a zero entry takes the ridge retry, as a singular larger matrix does
        got = jko._solve_tridiag(np.array([0.0]), empty, one)
        assert got.tolist() == [1.0 / 1e-300]
        # reachable: an m = inf step from a saturated box pools every node
        # into one block
        calls, solve_1x1 = [], jko._solve_1x1

        def spy(hd, ho, rhs):
            calls.append(hd.size)
            return solve_1x1(hd, ho, rhs)

        monkeypatch.setattr(jko, "_solve_1x1", spy)
        q0 = indicator_quantile(1, 2, g6, n=20)
        out = jko_step(q0, math.inf, 0.5, quad_phi)
        assert calls and set(calls) == {1}
        assert out.active_count == q0.n


# ---------------------------------------------------------------------------
# objective assembly: bit-identical to the per-derivative formulas
# ---------------------------------------------------------------------------

CATALOG = [
    ("quadratic", {"q": 1.0}),
    ("quadratic", {"q": 2.5, "c": 0.7}),
    ("custom-polynomial", {"coef": [2.104, 0.52, 0.65]}),
    ("quartic-well", {"a": 1.0, "b": 0.5, "c": 0.2}),
    ("quartic-well", {"a": 1.0, "b": -1.0}),
    ("linear", {"g": 1.0}),
    ("custom-polynomial", {"coef": [0.3, -0.1, 0.5, 0.0, 0.125]}),
]


def _node_loop(terms):
    acc = 0.0
    for row in terms:
        acc = acc + row
    return acc


def _gradient_reference(state, w, m, phi, h):
    """The step gradient with one sum over the Gauss-Legendre nodes per
    endpoint partial: the reference the stacked assembly must match."""
    _, d, gaps, pts = state
    nodes, weights = np.polynomial.legendre.leggauss(5)
    gv = phi.grad(pts)
    t = (0.5 * weights)[:, None] * gv * 0.5
    da = _node_loop(t * (1.0 - nodes)[:, None])
    db = _node_loop(t * (1.0 + nodes)[:, None])
    g = np.zeros_like(d)
    g[:-1] += w * da
    g[1:] += w * db
    mv = np.zeros_like(d)
    mv[:-1] += w / 3.0 * (2.0 * d[:-1] + d[1:])
    mv[1:] += w / 3.0 * (d[:-1] + 2.0 * d[1:])
    g += mv / (2.0 * h)
    if not math.isinf(m):
        dens = w / gaps
        sp = -dens ** m
        g[:-1] -= sp
        g[1:] += sp
    return g


def _hessian_reference(state, w, m, phi, h):
    """The step Hessian with one sum over the nodes per second partial:
    the reference the stacked assembly must match."""
    _, d, gaps, pts = state
    nodes, weights = np.polynomial.legendre.leggauss(5)
    c = phi.d2(pts)
    la, lb = (0.5 * (1.0 - nodes))[:, None], (0.5 * (1.0 + nodes))[:, None]
    t = (0.5 * weights)[:, None] * c
    ta = t * la
    haa, hab, hbb = _node_loop(ta * la), _node_loop(ta * lb), \
        _node_loop(t * lb * lb)
    hd = np.zeros(d.size)
    ho = np.zeros(d.size - 1)
    hd[:-1] += w * haa
    hd[1:] += w * hbb
    ho += w * hab
    hd[:-1] += w / (3.0 * h)
    hd[1:] += w / (3.0 * h)
    ho += w / (6.0 * h)
    if not math.isinf(m):
        dens = w / gaps
        spp = m * dens ** (m + 1.0) / w
        hd[:-1] += spp
        hd[1:] += spp
        ho -= spp
    return hd, ho


def test_objective_derivatives_bit_identical_to_reference(rng):
    # every catalog kind, finite and infinite m, from one gap to 400; a
    # symmetric node set puts Gauss-Legendre points and displacements at
    # exact zeros, so the sign of a zero sum shows too
    for kind, params in CATALOG:
        phi = potential_catalog(kind, params, domain=(-4.0, 4.0))
        for m in (2.5, 10.0, math.inf):
            for n in (1, 2, 3, 7, 64, 199, 400):
                w = 1.0 / n
                for sym in (False, True):
                    if sym:
                        x = np.linspace(-1.0, 1.0, n + 1)
                        d = np.zeros(n + 1)
                        d[::2] = -0.0
                    else:
                        x = np.cumsum(rng.uniform(0.3, 1.7, n + 1) * w) - 0.6
                        d = rng.normal(scale=1e-3, size=n + 1)
                        d[rng.random(n + 1) < 0.2] = -0.0
                    state = jko._newton_state(x, d, x[1:] - x[:-1])
                    h = float(rng.uniform(1e-3, 0.1))
                    args = (w, m, phi, h)
                    label = (kind, m, n, sym)
                    g = jko._gradient(state, *args)
                    assert g.tobytes() == \
                        _gradient_reference(state, *args).tobytes(), label
                    hd, ho = jko._hessian(state, *args)
                    rd, ro = _hessian_reference(state, *args)
                    assert hd.tobytes() == rd.tobytes(), label
                    assert ho.tobytes() == ro.tobytes(), label


def test_held_step_hessian_bit_identical_to_reference(rng):
    # a constant Phi'' holds the Hessian's constant part, keyed on the
    # potential, the gap count, w and h: consecutive states change the
    # potential (two of one shape), h or n, and each is read twice, so the
    # second call reads the held part
    phis = [potential_catalog("quadratic", q=1.0, domain=(-4.0, 4.0)),
            potential_catalog("quadratic", q=2.5, c=0.7, domain=(-4.0, 4.0))]
    for n in (7, 200, 64):
        w = 1.0 / n
        x = np.cumsum(rng.uniform(0.3, 1.7, n + 1) * w) - 0.6
        state = jko._newton_state(x, rng.normal(scale=1e-3, size=n + 1),
                                  x[1:] - x[:-1])
        for h, phi in itertools.product((1e-3, 0.05), phis * 2):
            for m in (2.5, 10.0, math.inf):
                args = (w, m, phi, h)
                rd, ro = _hessian_reference(state, *args)
                first = jko._hessian(state, *args)
                for hd, ho in (first, jko._hessian(state, *args)):
                    assert hd.tobytes() == rd.tobytes(), (n, h, m)
                    assert ho.tobytes() == ro.tobytes(), (n, h, m)
                    if math.isinf(m):
                        for a in (hd, ho):
                            with pytest.raises(ValueError, match="read-only"):
                                a[0] = 0.0
                    else:
                        # the caller's copy: writing into it reaches no
                        # later call
                        hd[...] = ho[...] = np.nan
                if math.isinf(m):
                    assert all(map(operator.is_, first, (hd, ho)))


def test_per_call_avg_hess_gives_a_fresh_step_hessian(rng):
    # a quartic well's Phi'' is not constant, so its Hessian's constant
    # part is derived on every call: fresh arrays with the reference bits.
    # It does not replace the held part of a quadratic called before it
    phi = potential_catalog("quartic-well", a=1.0, b=-1.0, domain=(-4.0, 4.0))
    quad = potential_catalog("quadratic", q=1.0, domain=(-4.0, 4.0))
    n = 64
    x = np.cumsum(rng.uniform(0.3, 1.7, n + 1) / n) - 0.6
    state = jko._newton_state(x, np.zeros(n + 1), x[1:] - x[:-1])
    for m in (2.5, math.inf):
        args = (1.0 / n, m, phi, 0.01)
        rd, ro = _hessian_reference(state, *args)
        first = jko._hessian(state, *args)
        second = jko._hessian(state, *args)
        for hd, ho in (first, second):
            assert hd.tobytes() == rd.tobytes() and ho.tobytes() == ro.tobytes()
        for a, b in zip(first, second):
            assert not np.shares_memory(a, b)
    quad_args = (1.0 / n, math.inf, quad, 0.01)
    held = jko._hessian(state, *quad_args)
    jko._hessian(state, 1.0 / n, math.inf, phi, 0.01)
    assert all(map(operator.is_, held, jko._hessian(state, *quad_args)))


# ---------------------------------------------------------------------------
# solver starts: no predictor, warm start, spacing projection
# ---------------------------------------------------------------------------

def _congested_cases():
    """The saturating box of the congested reproduction at five sizes."""
    grid = GridSpec(-4.0, 4.0, 4000)
    rho0 = make_grid_density({"boxes": [(-1.5, 1.5, 0.6)]}, grid)
    return potential_catalog("quadratic", q=4.0), \
        [to_quantile(rho0, n) for n in (100, 200, 400, 800, 1600)]


def _longtime_case():
    """configs/longtime.txt physics: a unit box in a quadratic well, n = 200."""
    grid = GridSpec(-4.5, 4.5, 900)
    rho0 = make_grid_density({"boxes": [(2.0, 3.0, 1.0)]}, grid)
    return potential_catalog("quadratic", q=1.0), to_quantile(rho0, 200)


class TestSolverStarts:
    def test_cold_finite_m_steps_bit_identical_with_reference_kernels(
            self, monkeypatch):
        # Horner in place of polyval and dptsv in place of solveh_banded
        # change no bit of a step taken without a predictor
        phi, cases = _congested_cases()
        fast = [jko_step(q0, m, 0.5, phi) for q0 in cases for m in (10.0, 50.0)]
        for name, deriv in (("value", 0), ("grad", 1), ("d2", 2)):
            monkeypatch.setattr(
                Potential, name, lambda self, x, k=deriv: npoly.polyval(
                    np.asarray(x, dtype=float), npoly.polyder(self.coef, k)))
        monkeypatch.setattr(jko, "_solve_tridiag", _solve_tridiag_reference)
        ref = [jko_step(q0, m, 0.5, phi) for q0 in cases for m in (10.0, 50.0)]
        for a, b in zip(fast, ref):
            assert a.state.nodes.tobytes() == b.state.nodes.tobytes()
            assert (a.kkt_residual, a.iterations) == (b.kkt_residual, b.iterations)

    def test_warm_start_meets_tolerance_and_tracks_the_cold_chain(self):
        # configs/longtime.txt physics: the previous displacement predicts
        # the next, so the warm chain takes fewer Newton steps, and its
        # states stay within 5e-11 of the cold chain's (2.2e-11 measured
        # over these 300 steps)
        phi, q0 = _longtime_case()
        opts = JkoOptions()
        for m in (3.0, 10.0, 50.0):
            cold, warm, move = q0, q0, None
            iters_cold = iters_warm = 0
            for _ in range(300):
                out_cold = jko_step(cold, m, 1e-3, phi, opts)
                out_warm = jko_step(warm, m, 1e-3, phi, opts, move)
                assert out_warm.kkt_residual <= opts.tol_grad
                move = out_warm.state.nodes - warm.nodes
                cold, warm = out_cold.state, out_warm.state
                iters_cold += out_cold.iterations
                iters_warm += out_warm.iterations
                assert np.max(np.abs(cold.nodes - warm.nodes)) <= 5e-11, m
            assert iters_warm < iters_cold, m

    def test_predictor_collapsing_a_gap_starts_cold_malformed_raises(
            self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=40)
        cold = jko_step(q0, 6.0, 0.02, quad_phi)
        crossing = np.zeros_like(q0.nodes)
        crossing[5] = -1.0  # moves node 5 below node 4
        out = jko_step(q0, 6.0, 0.02, quad_phi, None, crossing)
        assert out.state.nodes.tobytes() == cold.state.nodes.tobytes()
        for bad in (crossing[:-1], np.full_like(crossing, np.nan)):
            with pytest.raises(ValueError):
                jko_step(q0, 6.0, 0.02, quad_phi, None, bad)

    def test_finite_m_step_evaluates_each_derivative_once(self, monkeypatch):
        # one Hessian per Newton step, and one gradient per point the solve
        # builds: the start and every line-search trial, each one
        # _newton_state; the cold congested steps backtrack
        counts = dict.fromkeys(("_gradient", "_hessian", "_newton_state"), 0)
        for name in counts:
            def counted(*args, fn=getattr(jko, name), name=name):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(jko, name, counted)
        phi, cases = _congested_cases()
        lt_phi, lt_q0 = _longtime_case()
        runs = [(q0, m, 0.5, phi) for q0 in cases[:2] for m in (10.0, 50.0)]
        runs.append((lt_q0, 10.0, 1e-3, lt_phi))
        backtracked = False
        for q0, m, h, pot in runs:
            for name in counts:
                counts[name] = 0
            out = jko_step(q0, m, h, pot)
            trials = counts["_newton_state"] - 1
            assert counts["_hessian"] == out.iterations
            assert counts["_gradient"] == 1 + trials
            assert trials >= out.iterations
            backtracked |= trials > out.iterations
        assert backtracked

    def test_no_start_projected_and_an_over_cap_start_rejected(
            self, g6, quad_phi, monkeypatch):
        # the solver projects no start it admits: a trajectory, and a start
        # squeezed within the admissible density 1 + EPS_FEAS, go straight
        # to the active set read off their gaps; a start above it is
        # rejected before any solve
        calls = []
        for name in ("project_spacing", "pav_nondecreasing"):
            def counted(*args, fn=getattr(jko, name), name=name):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(jko, name, counted)
        q0 = indicator_quantile(1, 2, g6, n=50)
        jko_trajectory(q0, math.inf, 0.02, quad_phi, 0.2)
        # gaps 1e-10 below the spacing: density one within the admissible
        # 1e-9, but below the solver's floor
        squeezed = QuantileRep(q0.total_mass,
                               q0.nodes[0] + (q0.nodes - q0.nodes[0]) * (1 - 1e-10))
        out = jko_step(squeezed, math.inf, 0.02, quad_phi)
        assert out.kkt_residual <= 1e-9
        assert np.diff(out.state.nodes).min() >= q0.w * (1.0 - 1e-12)
        over = QuantileRep(q0.total_mass,
                           q0.nodes[0] + (q0.nodes - q0.nodes[0]) * (1 - 1e-8))
        with pytest.raises(ValueError, match="density exceeds one"):
            jko_step(over, math.inf, 0.02, quad_phi)
        assert calls == []


# ---------------------------------------------------------------------------
# line search: gradient test first
# ---------------------------------------------------------------------------

def _armijo_first_line_search(state, step, slope, gnorm, args, f=None):
    """The line search with the Armijo test, and its gradient-growth
    guard, first: the objective at the start and at every trial, then the
    gradient, whose decrease is tested only where the guarded Armijo test
    fails.  It takes no objective value from the caller and returns none;
    the returned gradient norm is taken here, once per return."""
    x, d, gaps, _ = state
    dgap = np.diff(step)
    shrink = dgap < 0.0
    alpha = 1.0
    if np.any(shrink):
        alpha = min(1.0, 0.95 * float(np.min(gaps[shrink] / -dgap[shrink])))
    f = jko._objective(state, *args)

    def accept(trial, g_new):
        return trial, g_new, float(np.max(np.abs(g_new))), None

    while True:
        trial = jko._newton_state(x + alpha * step, d + alpha * step,
                                  gaps + alpha * dgap)
        if not alpha > 1e-16:
            return accept(trial, jko._gradient(trial, *args))
        armijo = jko._objective(trial, *args) <= f + jko.ARMIJO * alpha * slope
        g_new = jko._gradient(trial, *args)
        if np.all(np.isfinite(g_new)):
            gnorm_new = float(np.max(np.abs(g_new)))
            if armijo and gnorm_new <= jko.GROWTH * gnorm:
                return accept(trial, g_new)
            if gnorm_new <= (1.0 - 0.5 * alpha) * gnorm:
                return accept(trial, g_new)
        alpha *= jko.BACKTRACK


def _counting_objective(monkeypatch):
    """Patch ``jko._objective`` to record its calls; returns the record."""
    calls, objective = [], jko._objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(jko, "_objective", counted)
    return calls


class TestLineSearch:
    @staticmethod
    def _assert_same_steps(fast, ref):
        assert len(fast) == len(ref)
        for a, b in zip(fast, ref):
            assert a.state.nodes.tobytes() == b.state.nodes.tobytes()
            assert (a.kkt_residual, a.iterations) == (b.kkt_residual, b.iterations)

    def test_cold_congested_steps_bit_identical_to_armijo_first(
            self, monkeypatch):
        # the first step length that passes either test does not depend on
        # their order; these stiff steps backtrack, so the objective branch
        # runs too
        phi, cases = _congested_cases()
        with monkeypatch.context() as mp:
            calls = _counting_objective(mp)
            fast = [jko_step(q0, m, 0.5, phi) for q0 in cases
                    for m in (10.0, 50.0)]
        assert calls
        monkeypatch.setattr(jko, "_line_search", _armijo_first_line_search)
        ref = [jko_step(q0, m, 0.5, phi) for q0 in cases for m in (10.0, 50.0)]
        self._assert_same_steps(fast, ref)

    def test_warm_chain_bit_identical_to_armijo_first(self, monkeypatch):
        phi, q0 = _longtime_case()

        def chain():
            cur, move, outs = q0, None, []
            for _ in range(300):
                out = jko_step(cur, 10.0, 1e-3, phi, None, move)
                move = out.state.nodes - cur.nodes
                cur = out.state
                outs.append(out)
            return outs

        fast = chain()
        monkeypatch.setattr(jko, "_line_search", _armijo_first_line_search)
        self._assert_same_steps(fast, chain())

    def test_accepted_objective_carried_to_the_next_search(self, monkeypatch):
        # a trial accepted on the Armijo test hands its objective value to
        # the next line search, which then does not evaluate it again: the
        # same steps, one objective evaluation fewer per step at m = 50
        phi, cases = _congested_cases()

        def run():
            outs, counts = [], []
            with monkeypatch.context() as mp:
                calls = _counting_objective(mp)
                for q0 in cases:
                    for m in (10.0, 50.0):
                        before = len(calls)
                        outs.append(jko_step(q0, m, 0.5, phi))
                        counts.append(len(calls) - before)
            return outs, counts

        fast, counts = run()
        search = jko._line_search
        monkeypatch.setattr(
            jko, "_line_search",
            lambda state, step, slope, gnorm, args, f=None:
                search(state, step, slope, gnorm, args))
        ref, ref_counts = run()
        self._assert_same_steps(fast, ref)
        assert counts == [2, 3] * len(cases)
        assert ref_counts == [2, 4] * len(cases)

    def test_cold_congested_steps_accept_no_jump_in_the_gradient(
            self, monkeypatch):
        # an Armijo accept once let the gradient max-norm grow 75-fold (n =
        # 400, m = 10, second Newton step), and winning that back took
        # about four more Newton steps: 10 to 12 per step instead of 7 or 8
        phi, cases = _congested_cases()
        search, growths = jko._line_search, []

        def recorded(state, step, slope, gnorm, args, f=None):
            out = search(state, step, slope, gnorm, args, f)
            growths.append(out[2] <= jko.GROWTH * gnorm)
            return out

        monkeypatch.setattr(jko, "_line_search", recorded)
        for q0 in cases:
            for m, most in ((10.0, 7), (50.0, 8)):
                out = jko_step(q0, m, 0.5, phi)
                assert out.iterations <= most, (q0.n, m, out.iterations)
        assert growths and all(growths)

    def test_returned_norm_is_the_max_norm_of_the_returned_gradient(
            self, monkeypatch):
        # the Newton loop takes this norm in place of its own, so it must
        # carry the bits of float(np.abs(g).max()) on either test's accept
        phi, cases = _congested_cases()
        search, returns = jko._line_search, []

        def recorded(*args):
            returns.append(search(*args))
            return returns[-1]

        monkeypatch.setattr(jko, "_line_search", recorded)
        for q0 in cases[:2]:
            for m in (10.0, 50.0):
                jko_step(q0, m, 0.5, phi)
        assert {f is None for *_, f in returns} == {True, False}
        for _, g, gnorm, _ in returns:
            assert gnorm.hex() == float(np.abs(g).max()).hex()

    def test_full_newton_steps_evaluate_no_objective(self, monkeypatch):
        # every Newton step of this cold step passes the gradient test at
        # full length, so the objective is never needed
        phi, q0 = _longtime_case()
        calls = _counting_objective(monkeypatch)
        out = jko_step(q0, 10.0, 1e-3, phi)
        assert out.iterations > 1
        assert out.kkt_residual <= JkoOptions().tol_grad
        assert calls == []


# ---------------------------------------------------------------------------
# mirror symmetry
# ---------------------------------------------------------------------------

@given(c1=st.floats(-1.0, 1.0), c2=st.floats(0.2, 2.0),
       c3=st.floats(-0.5, 0.5), c4=st.floats(0.0, 0.5),
       degree=st.integers(1, 4), a=st.floats(-2.0, 1.0),
       width=st.floats(0.3, 1.0), height=st.floats(0.3, 1.0),
       n=st.integers(20, 120), h=st.floats(1e-3, 0.02))
# no shrinking: a failing draw is reported as drawn, since shrinking ten
# floats through solver runs took minutes on a deliberately broken solver
@settings(max_examples=20, deadline=None, derandomize=True,
          phases=(Phase.generate,))
def test_step_commutes_with_mirroring(c1, c2, c3, c4, degree, a, width,
                                      height, n, h):
    # x -> -x with the nodes reversed, under Phi(-x): the odd coefficients
    # negated.  The mirrored step is the mirrored result up to the order of
    # its roundings, with the same iteration count; a sign or index slip in
    # the solvers breaks it.  On (-3, 3), Phi'' >= -8.6, so every h here is
    # admissible.  These steps take at most a dozen iterations; the cap
    # makes a broken solver fail fast instead of running out 500
    grid = GridSpec(-3.0, 3.0, 600)
    coef = [0.0, c1, c2, c3, c4][:degree + 1]
    phi = potential_catalog("custom-polynomial", coef=coef, domain=(-3.0, 3.0))
    phi_m = potential_catalog("custom-polynomial", domain=(-3.0, 3.0),
                              coef=[-c if k % 2 else c for k, c in enumerate(coef)])
    q0 = indicator_quantile(a, a + width, grid, n=n, height=height)
    q0_m = QuantileRep(q0.total_mass, -q0.nodes[::-1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jko, "MAX_ITERATIONS", 50)
        for m in (3.0, 10.0, 50.0, math.inf):
            out = jko_step(q0, m, h, phi)
            out_m = jko_step(q0_m, m, h, phi_m)
            assert out_m.iterations == out.iterations, m
            # 3.5 ulps of the data scale measured over 200 random draws
            scale = max(np.abs(q0.nodes).max(), np.abs(out.state.nodes).max())
            err = np.abs(-out_m.state.nodes[::-1] - out.state.nodes).max()
            assert err <= 16 * np.finfo(float).eps * scale, m


@given(s=st.floats(-1.5, 1.5), q=st.floats(0.5, 2.0), c=st.floats(-0.5, 0.5),
       a=st.floats(-1.5, 1.0), width=st.floats(0.3, 1.0),
       height=st.floats(0.3, 1.0), n=st.integers(20, 120),
       h=st.floats(1e-3, 0.02))
@settings(max_examples=20, deadline=None, derandomize=True,
          phases=(Phase.generate,))
def test_step_commutes_with_translation(s, q, c, a, width, height, n, h):
    # nodes and the well's center c both moved by s: the result moves by s,
    # up to the roundings of the moved data, with the same iteration count
    # (4.5 ulps of the data scale measured over 200 random draws)
    grid = GridSpec(-3.0, 3.0, 600)
    phi, phi_s = (potential_catalog("quadratic", q=q, c=center,
                                    domain=(-6.0, 6.0))
                  for center in (c, c + s))
    q0 = indicator_quantile(a, a + width, grid, n=n, height=height)
    q0_s = QuantileRep(q0.total_mass, q0.nodes + s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jko, "MAX_ITERATIONS", 50)
        for m in (10.0, math.inf):
            out = jko_step(q0, m, h, phi)
            out_s = jko_step(q0_s, m, h, phi_s)
            assert out_s.iterations == out.iterations, m
            scale = max(np.abs(q0_s.nodes).max(),
                        np.abs(out_s.state.nodes).max())
            err = np.abs(out_s.state.nodes - s - out.state.nodes).max()
            assert err <= 16 * np.finfo(float).eps * scale, m


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

class TestTrajectory:
    @pytest.mark.parametrize("h", [-0.1, 0.0])
    def test_nonpositive_step_rejected(self, g6, quad_phi, h):
        # a negative h used to give ceil(T / h) < 1 steps and a silent PASS
        q0 = indicator_quantile(1, 2, g6, n=20)
        with pytest.raises(ValueError):
            jko_trajectory(q0, 4.0, h, quad_phi, 0.5)

    def test_energy_monotone_and_dissipation_budget(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=100)
        for m in (6.0, math.inf):
            states = jko_trajectory(q0, m, 0.02, quad_phi, 0.5)
            assert len(states) == 26
            E = np.array([free_energy(s, m, quad_phi).total for s in states])
            assert np.all(np.diff(E) <= 1e-9)
            # telescoping dissipation stays within the initial budget
            assert E[0] - E[-1] <= E[0] + 1e-9
            mass = np.array([s.total_mass for s in states])
            assert np.max(np.abs(mass - mass[0])) <= 1e-10 * mass[0]

    def test_confinement_inside_dominating_stationary_support(self, g6, quad_phi):
        # start inside the stationary patch of a larger mass: stays inside
        q0 = indicator_quantile(1.0, 2.0, g6, n=80)
        big = energy_minimizer_profile(math.inf, quad_phi, 4.2, g6)
        lo, hi = big.support_extent()
        assert lo <= 1.0 and hi >= 2.0
        states = jko_trajectory(q0, math.inf, 0.01, quad_phi, 2.0)
        for s in states:
            assert s.nodes[0] >= lo - 1e-9
            assert s.nodes[-1] <= hi + 1e-9

    def test_ledger_energies_and_states_match_chained_steps(self, g6, quad_phi):
        # the states are those of plain jko_step chaining, each step
        # predicted by the previous step's displacement, and single-run's
        # ledger holds free_energy of each of them exactly
        q0 = indicator_quantile(1, 2, g6, n=60)
        h = 0.02
        for m in (4.0, math.inf):
            states = jko_trajectory(q0, m, h, quad_phi, 0.1)
            cfg = ExperimentConfig.from_text(
                "potential.kind = quadratic\npotential.q = 1\ngrid.lo = -3\n"
                "grid.hi = 3\ngrid.n = 600\ninit.boxes = 1,2,1\n"
                f"quantile.n = 60\njko.h = {h}\nrun.T = 0.1\nm = {m}\n")
            rows = experiments.single_run(cfg).tables["ledger"][1]
            assert len(rows) == len(states) == 6
            cur, move = q0, None
            for k, (state, row) in enumerate(zip(states, rows)):
                if k:
                    out = jko_step(cur, m, h, quad_phi, None, move)
                    move = out.state.nodes - cur.nodes
                    cur = out.state
                assert state.nodes.tobytes() == cur.nodes.tobytes()
                rep = free_energy(state, m, quad_phi)
                assert row[2:5] == (rep.total, rep.internal, rep.potential)

    def test_piecewise_constant_step_count(self, g6, quad_phi):
        q0 = indicator_quantile(1, 2, g6, n=20)
        states = jko_trajectory(q0, math.inf, 0.03, quad_phi, 0.1)
        assert len(states) == 5  # ceil(0.1/0.03) = 4 steps plus the start

    def test_sampled_runs_keep_the_trajectory_states(self, monkeypatch):
        # longtime's sampled runs step through the same warm-started loop
        # as jko_trajectory, keep the states they use, and compute no
        # energy or movement
        phi, q0 = _longtime_case()
        h, T = 1e-3, 0.05
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for m in (10.0, math.inf):
            states = jko_trajectory(q0, m, h, phi, T)
            assert len(states) == 51
            with monkeypatch.context() as mp:
                for mod, name in ((energy, "internal_energy"),
                                  (energy, "potential_energy"),
                                  (transport, "w2_cost_squared")):
                    mp.setattr(mod, name, counted(name, getattr(mod, name)))
                idx, sampled = experiments._traj_samples(q0, m, h, phi, T,
                                                         16)
            assert calls == []
            assert idx.tolist() == np.unique(
                np.linspace(0, 50, 17).astype(int)).tolist()
            assert len(sampled) == idx.size and sampled[0] is q0
            for j, state in zip(idx, sampled):
                assert state.nodes.tobytes() == states[j].nodes.tobytes()

    def test_trajectory_predicts_only_at_finite_m(self, monkeypatch):
        # each finite-m step after the first is handed the previous step's
        # displacement; the m = inf solver ignores a predictor, so none is
        # built
        phi, q0 = _longtime_case()
        seen = []

        def spy(rho0, m, h, phi, opts=None, predictor=None):
            seen.append(predictor)
            return jko_step(rho0, m, h, phi, opts, predictor)

        monkeypatch.setattr(jko, "jko_step", spy)
        for m in (10.0, math.inf):
            seen.clear()
            states = jko_trajectory(q0, m, 1e-3, phi, 0.005)
            assert len(seen) == 5 and seen[0] is None
            for k, predictor in enumerate(seen[1:], 1):
                if math.isinf(m):
                    assert predictor is None
                else:
                    move = states[k].nodes - states[k - 1].nodes
                    assert predictor.tobytes() == move.tobytes()

    def test_leaving_the_domain_raises_at_the_same_step(self, g6, monkeypatch):
        # a linear drift carries the state out of a narrow working domain;
        # every path through the step loop raises at the same step
        phi = potential_catalog("linear", g=1.0, domain=(-1.0, 1.0))
        q0 = indicator_quantile(-0.6, -0.1, g6, n=40)
        steps = []

        def counted(*args):
            steps.append(1)
            return jko_step(*args)

        monkeypatch.setattr(jko, "jko_step", counted)
        runs = (lambda m: jko_trajectory(q0, m, 0.02, phi, 1.0),
                lambda m: experiments._traj_samples(q0, m, 0.02, phi, 1.0,
                                                    16))
        for m, at in ((10.0, 13), (math.inf, 21)):
            for run in runs:
                steps.clear()
                with pytest.raises(ValueError, match="working domain"):
                    run(m)
                assert len(steps) == at, m


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
        # -inf once passed the guard and stepped both densities at m = +inf
        rho = indicator(0, 1, g6)
        for m in (2.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"m > 2 .*got m = "):
                verify_comparison(rho, rho, m, 0.01, quad_phi, n_quantile=200)
        # a zero quantile count once divided by zero
        with pytest.raises(ValueError, match="n_quantile = 0"):
            verify_comparison(rho, rho, 10.0, 0.01, quad_phi, n_quantile=0)

    def test_unordered_inputs_rejected(self, g6, quad_phi):
        r1 = indicator(0, 1, g6, height=0.9)
        r2 = indicator(0, 1, g6, height=0.8)
        with pytest.raises(ValueError):
            verify_comparison(r1, r2, 10.0, 0.01, quad_phi, n_quantile=200)
