"""Acceptance suite: one test per numbered criterion, one printed verdict each.

Every tolerance is pinned here, not computed from the run.  The slow
convergence studies are marked, but the default run executes everything.
"""

import math

import numpy as np
import pytest

from crowdflow.config import ExperimentConfig
from crowdflow.energy import excess_mass, free_energy, regularize_to_feasible
from crowdflow.experiments import (compare_sweep, converge_in_h,
                                   converge_in_m, crossval, longtime_decay)
from crowdflow.heleshaw import heleshaw_run
from crowdflow.jko import jko_step, jko_trajectory
from crowdflow.model import (GridDensity, GridSpec, Patch, QuantileRep,
                             make_grid_density, to_grid, to_quantile)
from crowdflow.oracles import barenblatt, quadratic_interval_flow
from crowdflow.pme import pme_run
from crowdflow.potentials import potential_catalog
from crowdflow.transport import (generalized_geodesic, w2_cost_squared,
                                 w2_distance)
from crowdflow.energy import potential_energy

from conftest import excess_bound

QUAD = potential_catalog("quadratic", q=1.0, c=0.0)
ZERO = potential_catalog("custom-polynomial", coef=[0.0])


def verdict(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


# -- 1 -----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_01_barenblatt_oracle():
    """Self-similar solution reproduced in L1 at the pinned resolution."""
    m, tau, C, T = 2.0, 1.0, 0.5, 1.0
    errs = []
    for n in (750, 1500, 3000):          # dx: 8e-3, 4e-3, 2e-3
        grid = GridSpec(-3.0, 3.0, n)
        _, dens0 = barenblatt(grid.centers, 0.0, tau, C, m)
        (snaps,), _ = pme_run(GridDensity(grid, dens0), [m], ZERO, T,
                              grid.dx / 2,
                              snapshot_times=np.linspace(0, T, 3)[1:])
        _, exact = barenblatt(grid.centers, T, tau, C, m)
        errs.append(float(np.sum(np.abs(snaps[-1][1].values - exact)) * grid.dx))
    order = math.log2(errs[0] / errs[-1]) / 2.0
    ok = errs[-1] <= 5e-3 and order >= 0.8
    verdict(1, ok, f"L1 error {errs[-1]:.3e} <= 5e-3 at dx=2e-3, "
                   f"fitted order {order:.2f} >= 0.8 (errors {errs})")


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_one_step_excess_mass_bound():
    """Excess mass above the cap stays below ``excess_bound`` at every step.

    Derivation, for mass ``mu``, ``M = int rho0 Phi`` and ``m >= 2``.  A
    minimizing movement never raises the free energy ``int rho^m/(m-1) +
    rho Phi``, and ``Phi >= 0`` (its infimum is shifted to zero), so every
    step keeps ``int rho^m/(m-1) <= mu/(m-1) + M``: the start lies below
    the cap, so ``rho0^m <= rho0``.  Hence ``int rho^m <= mu + (m-1) M``.
    On ``{rho > 1}`` write ``rho = 1 + s``; ``(1+s)^m >= m(m-1)/2 s^2`` for
    ``s >= 0``, so ``int s^2 <= 2 (mu + (m-1) M) / (m (m-1))``.  The set
    ``{rho > 1}`` has measure below ``mu``, and Cauchy-Schwarz gives the
    excess ``int (rho-1)+ <= sqrt(mu int s^2) = sqrt(2 mu (M + mu/(m-1)) /
    m)``.
    """
    grid = GridSpec(-3.0, 3.0, 600)
    q0 = to_quantile(make_grid_density({"boxes": [(1.0, 2.0, 1.0)]}, grid), 400)
    M = free_energy(q0, 10.0, QUAD).potential  # integral of rho0 Phi
    h, worst = 0.01, 0.0
    for m in (10.0, 50.0, 200.0):
        bound = excess_bound(M, m, q0.total_mass)
        cur = q0
        for _ in range(100):
            out = jko_step(cur, m, h, QUAD)
            cur = out.state
            ratio = cur.excess_mass() / bound
            worst = max(worst, ratio)
        assert cur.excess_mass() <= bound
    verdict(2, worst <= 1.0,
            f"max excess/bound ratio {worst:.3e} over 300 steps, m in 10/50/200")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_feasibility_regularization():
    """Mass-exact flattening below the cap, close in transport distance.

    The level is criterion 02's bound ``a``; cell averaging onto the grid
    does not raise the excess (Jensen), so it stays below ``a``.  The
    flattening keeps ``min(mu, 1-a)`` in place and spreads the rest with a
    kernel uniform on [-1, 1], whose second moment is 1/3.  At unit mass
    the rest weighs at most the excess plus ``a |{mu > 1-a}| <= a/(1-a)``,
    so at most ``6a`` when ``a <= 0.8``, and ``W2^2 <= 2a``.
    """
    grid = GridSpec(-3.0, 3.0, 600)
    q0 = to_quantile(make_grid_density({"boxes": [(1.0, 2.0, 1.0)]}, grid), 400)
    M = free_energy(q0, 10.0, QUAD).potential
    ok, details = True, []
    for m in (10.0, 50.0, 200.0):
        out = jko_step(q0, m, 0.01, QUAD)
        mu = to_grid(out.state, grid)
        a = excess_bound(M, m, q0.total_mass)
        assert a <= 0.8 and excess_mass(mu) <= a
        tilde = regularize_to_feasible(mu, a)
        eps_grid = grid.dx / out.state.w
        mass_ok = abs(tilde.mass - mu.mass) <= 1e-12 * mu.mass
        sup_ok = float(tilde.values.max()) <= 1.0 + eps_grid
        dist = w2_distance(to_quantile(mu, 400), to_quantile(tilde, 400))
        w2_bound = math.sqrt(2.0 * a)
        ok &= mass_ok and sup_ok and dist <= w2_bound
        details.append(f"m={m:g}: W2 {dist:.3f} <= {w2_bound:.3f}")
    verdict(3, ok, "; ".join(details))


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_comparison_principle():
    """20 random ordered pairs, one step each, m in {5, 50, inf}: ordered."""
    cfg = ExperimentConfig.from_text(
        "potential.kind = quadratic\npotential.q = 1\n"
        "grid.lo = -4\ngrid.hi = 4\ngrid.n = 800\n"
        "trials = 20\nm.list = 5,50,inf\njko.h = 0.01\n"
        "quantile.n = 200\nseed = 11\n")
    rep = compare_sweep(cfg)
    _, rows = rep.tables["compare"]
    assert len(rows) == 60
    worst = max(r[2] for r in rows)
    eps = max(r[3] for r in rows)
    verdict(4, rep.all_passed,
            f"60/60 ordered; max violation {worst:.2e} <= eps_cmp {eps:.2e}")


# -- 5 -----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_convergence_in_m():
    """Wasserstein gap to the constrained flow strictly decreasing in m."""
    cfg = ExperimentConfig.from_text(
        "potential.kind = quadratic\npotential.q = 1\n"
        "init.boxes = 1,2,1\ngrid.lo = -3\ngrid.hi = 3\ngrid.n = 600\n"
        "quantile.n = 400\nm.list = 4,8,16,32,64\njko.h = 0.01\nrun.T = 1.0\n")
    rep = converge_in_m(cfg)
    _, rows = rep.tables["converge_m"]
    sups = [r[1] for r in rows]
    verdict(5, rep.all_passed,
            f"sup-W2 column {['%.4f' % s for s in sups]} strictly decreasing, "
            f"final/first {sups[-1] / sups[0]:.3f} <= 0.5")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_step_size_rate():
    """Self-convergence exponent in h at the hard constraint >= 0.45."""
    cfg = ExperimentConfig.from_text(
        "potential.kind = quadratic\npotential.q = 1\n"
        "init.boxes = 1,2,1\ngrid.lo = -3\ngrid.hi = 3\ngrid.n = 600\n"
        "quantile.n = 200\nm = inf\njko.h = 0.04\nh.halvings = 4\n"
        "run.T = 1.0\n")
    rep = converge_in_h(cfg)
    slope = rep.criteria[0]["value"]
    lo, hi = rep.extras["slope_ci95"]
    verdict(6, rep.all_passed,
            f"fitted slope {slope:.3f} >= 0.45 (95% CI [{lo:.3f}, {hi:.3f}])")


# -- 7 -----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_commuting_diagram():
    """Degenerate-diffusion supports converge to the tracked free boundary."""
    cfg = ExperimentConfig.from_text(
        "potential.kind = quadratic\npotential.q = 1\n"
        "init.boxes = 1,2,1\ngrid.lo = -0.5\ngrid.hi = 2.5\ngrid.n = 72\n"
        "m.list = 4,8,16,32,64\ncrossval.times = 0.25,0.5,1.0\n"
        "heleshaw.dt = 0.001\npme.eps_supp = 0.25\nthreshold.interior = 0.05\n")
    rep = crossval(cfg)
    dh = {c["id"]: c for c in rep.criteria}
    interior = dh["crossval.interior-density"]
    finals = [c["value"] for cid, c in dh.items() if "hausdorff-final" in cid]
    verdict(7, rep.all_passed,
            f"d_H decreasing over m at each t, final d_H max {max(finals):.3f}"
            f" <= 5dx={5 * (3.0 / 72):.3f}, interior |rho-1| "
            f"{interior['value']:.3f} <= 0.05")


# -- 8 -----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_patch_preservation():
    """The constrained flow keeps indicator data an indicator."""
    grid = GridSpec(-1.0, 3.0, 400)  # dx = 0.01
    n, h, T = 400, 1e-3, 1.0
    q0 = to_quantile(make_grid_density({"boxes": [(1.0, 2.0, 1.0)]}, grid), n)
    states = jko_trajectory(q0, math.inf, h, QUAD, T)
    compared = range(0, len(states), 100)
    traj, _ = heleshaw_run(Patch(((1.0, 2.0),)), QUAD, T, 1e-3,
                           snapshot_times=[k * h for k in compared])
    patch_at = dict(traj)
    w = q0.w
    l1_budget = 3.0 * grid.dx + 3.0 * w
    worst_l1, worst_w2 = 0.0, 0.0
    for k in compared:
        state = states[k]
        rho = to_grid(state, grid)
        mask = rho.values > 0.5
        idx = np.flatnonzero(mask)
        a, b = grid.edges[idx[0]], grid.edges[idx[-1] + 1]
        indicator = Patch(((a, b),)).indicator(grid)
        l1 = float(np.sum(np.abs(rho.values - indicator.values)) * grid.dx)
        worst_l1 = max(worst_l1, l1)
        (pa, pb), = patch_at[k * h].intervals
        q_patch = QuantileRep(1.0, np.linspace(pa, pb, n + 1))
        worst_w2 = max(worst_w2, w2_distance(state, q_patch))
    ok = worst_l1 <= l1_budget and worst_w2 <= 0.05
    verdict(8, ok, f"L1 to nearest indicator {worst_l1:.4f} <= {l1_budget:.4f}; "
                   f"W2 to tracked patch {worst_w2:.4f} <= 0.05")


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_volume_conservation():
    """Patch volume is flat in time and continuous across merges."""
    _, vols1 = heleshaw_run(Patch(((0.5, 1.75),)), QUAD, 5.0, 1e-2)
    v1 = np.array([v for _, v in vols1])
    drift = float(np.max(np.abs(v1 - v1[0]))) / (v1[0] * 5.0)
    _, vols2 = heleshaw_run(Patch(((-2.0, -1.0), (1.2, 2.2))), QUAD, 2.0, 1e-3)
    v2 = np.array([v for _, v in vols2])
    jump = float(np.max(np.abs(np.diff(v2))))
    ok = drift <= 1e-9 and jump <= 1e-10
    verdict(9, ok, f"volume drift {drift:.2e} per unit time <= 1e-9; "
                   f"merge jump {jump:.2e} <= 1e-10")


# -- 10 ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_longtime_decay_and_contraction():
    """Exponential decay to the minimizer and two-flow contraction, T=5."""
    cfg = ExperimentConfig.from_text(
        "potential.kind = quadratic\npotential.q = 1\n"
        "init.boxes = 2,3,1\ninit2.boxes = 3,4,1\n"
        "grid.lo = -4.5\ngrid.hi = 4.5\ngrid.n = 900\nquantile.n = 200\n"
        "m.list = 10,inf\njko.h = 0.001\nrun.T = 5.0\neps.rate = 0.1\n"
        "snapshots = 16\n")
    rep = longtime_decay(cfg, workers=2)
    vals = {c["id"]: c["value"] for c in rep.criteria}
    verdict(10, rep.all_passed,
            "decay and contraction within e^{-t}(1.1) at all snapshots; "
            + ", ".join(f"{k.split('.', 1)[1]} ratio {v:.3f}"
                        for k, v in sorted(vals.items())))


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_heleshaw_closed_form():
    """Tracked endpoints match the exponential interval flow to 1e-8."""
    traj, _ = heleshaw_run(Patch(((1.0, 2.0),)), QUAD, 3.0, 1e-3)
    t, p = traj[-1]
    a_ex, b_ex = quadratic_interval_flow(1.0, 2.0, 1.0, t)
    (a, b), = p.intervals
    err = max(abs(a - a_ex), abs(b - b_ex))
    verdict(11, err <= 1e-8, f"max endpoint error {err:.2e} <= 1e-8 "
                             f"at dt=1e-3, T=3")


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_semiconvexity_along_geodesics():
    """Modulus-1 convexity of the drift energy along interpolated maps."""
    rng = np.random.default_rng(42)
    grid = GridSpec(-3.0, 3.0, 600)
    worst_defect = -math.inf
    feasible_ok = True
    for _ in range(50):
        n = int(rng.integers(20, 80))
        a, b = rng.uniform(-2, 0), rng.uniform(0.5, 2)
        base = to_quantile(make_grid_density(
            {"boxes": [(a, b, 1.0 / (b - a))]}, grid), n)
        # feasible endpoints: spacing floor enforced via sorted jitter
        from crowdflow.jko import project_spacing
        mu2 = QuantileRep(1.0, project_spacing(
            np.sort(base.nodes + rng.normal(0, 0.3, n + 1)), base.w))
        mu3 = QuantileRep(1.0, project_spacing(
            np.sort(base.nodes + rng.normal(0, 0.3, n + 1)), base.w))
        d2 = w2_cost_squared(mu2.nodes, mu3.nodes, base.w)
        p2, p3 = potential_energy(mu2, QUAD), potential_energy(mu3, QUAD)
        for t in (0.25, 0.5, 0.75):
            mid = generalized_geodesic(base, mu2, mu3, t)
            bound = (1 - t) * p2 + t * p3 - 0.5 * QUAD.lam * t * (1 - t) * d2
            worst_defect = max(worst_defect, potential_energy(mid, QUAD) - bound)
            feasible_ok &= mid.max_density <= 1.0 + 1e-12
    ok = worst_defect <= 1e-8 and feasible_ok
    verdict(12, ok, f"max convexity defect {worst_defect:.2e} <= 1e-8 over "
                    f"50 triples; geodesic midpoints stay below the cap")
