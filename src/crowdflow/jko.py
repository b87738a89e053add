"""Minimizing-movement (JKO) steps in quantile coordinates.

One step from nodes ``Y`` minimizes, over monotone node vectors ``X``,

    F(X) = S_m(X) + P(X) + W2^2(X, Y) / (2h),

where all three terms are evaluated exactly for the piecewise-constant
density the nodes represent: the internal energy ``int rho^m / (m-1)``
is the sum of gap powers ``energy.gap_energy``, the potential energy uses
exact per-gap averages, and the movement limiter is the exact inverse-CDF
quadratic form.  For finite m the gap powers act as a barrier and the
problem is smooth and unconstrained; it is solved by damped Newton whose
state tracks the gaps and displacements next to the nodes, so every
accepted step meets ``tol_grad``, and ``JkoStepResult.iterations`` counts
the Newton steps taken.  For m = inf the internal energy vanishes and
the congestion cap becomes the gap constraint ``gap_j >= w``, handled by
primal-dual active-set sweeps: active gaps pool consecutive nodes into
rigid blocks, each sweep takes one Newton step on the blocks and then
adds every violated gap or releases every gap with a negative
multiplier, and ``iterations`` counts sweeps.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .energy import EPS_FEAS, _check_domain, gap_energy
from .model import (GridDensity, GridSpec, QuantileRep, _check_positive,
                    to_grid, to_quantile)
from .potentials import Potential, gl_points
from .transport import _cost


BACKTRACK = 0.5   # line-search shrink factor
ARMIJO = 1e-4     # sufficient-decrease constant
GROWTH = 10.0     # largest gradient max-norm growth an Armijo accept allows
MAX_ITERATIONS = 500  # Newton steps (finite m) or sweeps (m = inf) per step


class JkoConvergenceError(RuntimeError):
    """Raised when a step fails to reach the requested KKT residual."""


@dataclass
class JkoOptions:
    tol_grad: float = 1e-9        # max KKT residual, in units of cell mass

    def __post_init__(self):
        if not 0 < self.tol_grad < math.inf:  # NaN fails too
            raise ValueError("tol_grad must be positive and finite")


@dataclass
class JkoStepResult:
    """An accepted step: the new state and the solver's telemetry."""

    state: QuantileRep
    kkt_residual: float
    active_count: int
    iterations: int


# ---------------------------------------------------------------------------
# isotonic projection
# ---------------------------------------------------------------------------

def pav_nondecreasing(y):
    """Least-squares projection onto nondecreasing vectors.

    Classic pool-adjacent-violators: amortized O(n).  A pooled block's
    weight is its entry count.  The pooling stack holds Python floats: the
    same double arithmetic as numpy scalars, without their per-element
    indexing cost.
    """
    means, count = [], []
    for mean in np.asarray(y, dtype=float).tolist():
        c = 1
        while means and means[-1] > mean:
            prev_c = count.pop()
            tot = prev_c + c
            mean = (prev_c * means.pop() + c * mean) / tot
            c = tot
        means.append(mean)
        count.append(c)
    return np.repeat(means, count)


def project_spacing(x, gap):
    """Euclidean projection onto ``{x : x[j+1] - x[j] >= gap}``.

    Shift by ``j * gap`` to reduce to isotonic regression, project by
    pool-adjacent-violators, and shift back.
    """
    if not 0 <= gap < math.inf:  # NaN fails too
        raise ValueError(f"spacing must be nonnegative and finite, got {gap}")
    x = np.asarray(x, dtype=float)
    ramp = gap * np.arange(x.size)
    return pav_nondecreasing(x - ramp) + ramp


# ---------------------------------------------------------------------------
# objective assembly (all terms per-gap, Hessians tridiagonal)
# ---------------------------------------------------------------------------

def _movement_grad(d, w):
    g = np.zeros(d.size)
    two_d = 2.0 * d
    g[:-1] += w / 3.0 * (two_d[:-1] + d[1:])
    g[1:] += w / 3.0 * (d[:-1] + two_d[1:])
    return g


def _newton_state(x, d, gaps):
    """An iterate: the nodes, displacements ``d``, gaps, and the
    Gauss-Legendre points of the gaps, which the value, gradient and
    Hessian terms below all read."""
    return x, d, gaps, gl_points(x[:-1], x[1:])


def _objective(state, w, m, phi, h):
    """Step objective of a finite-m iterate from ``_newton_state``."""
    _, d, gaps, pts = state
    val = w * phi.avg(pts).sum()
    val += _cost(d, w) / (2.0 * h)
    val += gap_energy(w, gaps, m)
    return float(val)


def _gradient(state, w, m, phi, h):
    """Gradient of the step objective.  At finite m its gap powers, and
    the Hessian's, may overflow: the caller's ``np.errstate`` decides
    whether that warns."""
    _, d, gaps, pts = state
    g = np.zeros(d.size)
    da, db = w * phi.avg_grad(pts)
    g[:-1] += da
    g[1:] += db
    g += _movement_grad(d, w) / (2.0 * h)
    if not math.isinf(m):
        sp = -(w / gaps) ** m
        g[:-1] -= sp
        g[1:] += sp
    return g


# (phi, gap count, w, h, (diag, offdiag)): the constant part of the step
# Hessian last derived for a constant Phi'', read-only.  Replaced whole, so
# a reader unpacks one consistent entry; holding phi keeps its identity from
# being reused while it is the key
_held_hessian = (None, None, None, None, None)


def _hessian(state, w, m, phi, h):
    """Tridiagonal Hessian of the step objective: (diag, offdiag).

    With a constant ``Phi''`` (degree at most 2) the constant part
    (potential and movement terms) depends only on ``phi``, the gap count,
    ``w`` and ``h``: it is held per that key, and derived per call for any
    other potential.  It is returned read-only at m = inf; a finite-m step
    adds the barrier to a copy.  The same operations in the same order, so
    every bit is unchanged.
    """
    global _held_hessian
    _, _, gaps, pts = state
    held, held_n, held_w, held_h, pair = _held_hessian
    if not (held is phi and held_n == gaps.size and held_w == w
            and held_h == h):
        pair = _hessian_constant_part(phi.avg_hess(pts), w, h)
        for a in pair:
            a.setflags(write=False)
        if phi.coef.size <= 3:
            _held_hessian = (phi, gaps.size, w, h, pair)
    if math.isinf(m):
        return pair
    hd, ho = pair[0].copy(), pair[1].copy()
    spp = m * (w / gaps) ** (m + 1.0) / w
    hd[:-1] += spp
    hd[1:] += spp
    ho -= spp
    return hd, ho


def _hessian_constant_part(hess, w, h):
    """The step Hessian without the barrier, from ``avg_hess`` ``hess``."""
    n1 = hess.shape[1] + 1
    hd = np.zeros(n1)
    ho = np.zeros(n1 - 1)
    haa, hab, hbb = w * hess
    hd[:-1] += haa
    hd[1:] += hbb
    ho += hab
    hd[:-1] += w / (3.0 * h)
    hd[1:] += w / (3.0 * h)
    ho += w / (6.0 * h)
    return hd, ho


def _solve_tridiag(hd, ho, rhs):
    """Solve the symmetric tridiagonal system (diag ``hd``, offdiag ``ho``).

    LAPACK ``dptsv`` directly, the routine ``scipy.linalg.solveh_banded``
    picks for a tridiagonal matrix, without that wrapper's per-call cost or
    its package's load (``_dptsv``); a 1x1 system loads no LAPACK.
    Non-finite input raises ``ValueError``.  A matrix that is not positive
    definite gets one retry with a ridge of ``1e-12`` of its largest
    diagonal entry, then raises ``LinAlgError``; a 1x1 matrix too.
    """
    if not np.isfinite(np.concatenate((hd, ho, rhs))).all():
        raise ValueError("array must not contain infs or NaNs")
    solve = _solve_1x1 if hd.size == 1 else _dptsv()
    _, _, x, info = solve(hd, ho, rhs)
    if info > 0:
        ridge = 1e-12 * np.abs(hd).max() + 1e-300
        _, _, x, info = solve(hd + ridge, ho, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    return x


def _solve_1x1(hd, ho, rhs):
    """``dptsv``'s contract for one unknown, which it rejects (its
    off-diagonal would be empty): ``(d, e, x, info)``, ``info = 1`` when
    the entry is not positive."""
    if hd[0] > 0.0:
        return hd, ho, rhs / hd, 0
    return hd, ho, rhs, 1


_LAPACK = "scipy.linalg._flapack"


@functools.cache
def _dptsv():
    """LAPACK ``dptsv``, from scipy's compiled LAPACK module alone.

    Loaded at the first solve, the one place that needs it, and without
    the ``scipy.linalg`` package (nor ``scipy`` itself): that package costs
    about 28 MB and a quarter of a second to load, its LAPACK module about
    2.5 MB and a few milliseconds, and PME, front-tracking and crossval
    runs take no JKO step.  If the module is loaded already (by
    ``scipy.linalg``), it is reused.  The module puts itself into
    ``sys.modules``, so a later ``import scipy.linalg`` reuses it too and
    calls the same routine; that package then lacks the private attribute
    ``_flapack``, which scipy reads only by ``from scipy.linalg import
    _flapack``, an import that finds the module in ``sys.modules``.
    """
    module = sys.modules.get(_LAPACK)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _LAPACK, [os.path.join(p, "linalg")
                      for p in scipy.submodule_search_locations])
        if spec is None:
            raise ImportError(f"no module named {_LAPACK!r}", name=_LAPACK)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.dptsv


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _step_guard(h, phi):
    _check_positive("time step", "h", h)
    lam_neg = max(0.0, -phi.lam)
    if lam_neg > 0.0 and h >= 1.0 / (2.0 * lam_neg):
        raise ValueError(f"h = {h} outside the admissible range "
                         f"(need h < {1.0 / (2.0 * lam_neg):.6g} for this potential)")


def _line_search(state, step, slope, gnorm, args, f=None):
    """Backtrack along ``step`` (finite-m damped Newton).

    ``state`` is an iterate from ``_newton_state``; a trial point moves
    the nodes, displacements and gaps by the same step.  The first trial
    is the full step, shortened to keep every gap positive.  A trial is
    accepted on decrease of the max-norm of its gradient, the test that
    holds near the optimum where the objective is flat to round-off, or
    on Armijo decrease of the objective, provided its gradient max-norm
    grew at most ``GROWTH`` times: an Armijo accept may not undo most of
    the progress toward the exit test, which reads that norm (a cold
    congested step would otherwise accept a 75-fold growth and spend
    about four Newton steps winning it back).  The first step length that
    passes either test does not depend on which runs first, so the
    gradient, which the caller needs anyway, runs first; the objective
    (at ``state`` and at the trial) is evaluated only when that test
    fails and the growth guard holds.  ``args`` are the objective's
    trailing arguments ``(w, m, phi, h)``; ``f`` is the objective at
    ``state`` when the caller has it.

    Returns ``(state_new, g_new, gnorm_new, f_new)``: the trial, its
    gradient and that gradient's max-norm, and its objective when the
    Armijo test accepted it (else None, as nothing evaluated it).  A
    non-finite gradient has a NaN or infinite norm, which fails both
    tests against the caller's finite ``gnorm``.  When backtracking runs
    out the tiny step is taken untested.
    """
    x, d, gaps, _ = state
    dgap = step[1:] - step[:-1]
    shrink = dgap < 0.0
    alpha = 1.0
    if shrink.any():
        alpha = min(1.0, 0.95 * float((gaps[shrink] / -dgap[shrink]).min()))
    while True:
        s = alpha * step
        trial = _newton_state(x + s, d + s, gaps + alpha * dgap)
        g_new = _gradient(trial, *args)
        gnorm_new = float(np.abs(g_new).max())
        if not alpha > 1e-16 or gnorm_new <= (1.0 - 0.5 * alpha) * gnorm:
            return trial, g_new, gnorm_new, None
        if gnorm_new <= GROWTH * gnorm:
            if f is None:
                f = _objective(state, *args)
            f_new = _objective(trial, *args)
            if f_new <= f + ARMIJO * alpha * slope:
                return trial, g_new, gnorm_new, f_new
        alpha *= BACKTRACK


def _solve_finite_m(y, gaps_y, w, m, phi, h, opts, predictor):
    """Damped Newton; the gap powers act as an interior barrier.

    The iterate is the triple ``(x, d, gaps)``: the nodes, the
    displacement ``d = x - y`` and the gaps, all moved by the same Newton
    step.  The barrier reads the tracked gaps and the movement term reads
    ``d``, so neither inherits the ``eps * |x|`` rounding of differences
    of absolute positions, which the stiff barrier would amplify like
    ``m * n**2`` into a residual floor above ``tol_grad``.  A
    ``predictor`` displacement ``p`` starts the iterate at ``(y + p, p,
    diff(y) + diff(p))`` when those gaps are all positive; otherwise, and
    without one, Newton starts at ``y``; ``gaps_y`` are the gaps of ``y``.
    The Newton step is the only search direction: the step Hessian is
    positive definite, so it descends.
    Returns at ``kkt_residual <= tol_grad`` or raises after
    ``MAX_ITERATIONS`` Newton steps: the nodes, the KKT residual, and the
    number of steps taken as the iteration count.  A start whose gap
    powers or barrier curvature overflow raises ``ValueError``.  A
    trial's gap powers may overflow to inf, and two adjacent ones then
    cancel to NaN; the line search rejects both, so one ``np.errstate``
    over the whole solve ignores overflow and invalid values.  Only its
    untested tiny step can return a non-finite gradient, as a non-finite
    Newton step does, and that raises ``JkoConvergenceError``: a NaN
    residual would pass the exit test.
    """
    args = (w, m, phi, h)
    gaps0 = None if predictor is None \
        else gaps_y + (predictor[1:] - predictor[:-1])
    if gaps0 is not None and (gaps0 > 0.0).all():
        state = _newton_state(y + predictor, predictor, gaps0)
    else:
        state = _newton_state(y, np.zeros_like(y), gaps_y)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _gradient(state, *args)
        gnorm = float(np.abs(g).max())
        # the curvature overflows first, at the smallest gap; a numpy
        # scalar's power gives inf where a Python float's raises
        gap_min = state[2].min()
        if not (math.isfinite(gnorm)
                and math.isfinite(m * (w / gap_min) ** (m + 1.0) / w)):
            raise ValueError(
                f"infeasible start: the gap powers overflow at m = {m:g} "
                f"(smallest gap {float(gap_min):.3e}, "
                f"cell mass {w:.3e})")
        f = None  # objective at ``state``, when a line search evaluated it
        it = 0
        while gnorm / w > opts.tol_grad:
            if it == MAX_ITERATIONS:
                raise JkoConvergenceError(
                    f"step did not converge in {MAX_ITERATIONS} "
                    f"iterations (KKT residual {gnorm / w:.3e}, "
                    f"tol {opts.tol_grad:.1e})")
            it += 1
            step = _solve_tridiag(*_hessian(state, *args), -g)
            state, g, gnorm, f = _line_search(
                state, step, float(np.dot(step, g)), gnorm, args, f)
            if not math.isfinite(gnorm):  # NaN would pass the loop test
                raise JkoConvergenceError(
                    f"non-finite gradient after {it} iterations "
                    f"(KKT residual {gnorm / w:.3e}, "
                    f"tol {opts.tol_grad:.1e})")
    return state[0], gnorm / w, it


def _blocks_from_active(active):
    """Node block ids from the boolean active-gap mask."""
    ids = np.zeros(active.size + 1, dtype=int)
    ids[1:] = (~active).cumsum()
    return ids


def _snap_active(x, ids, w):
    """Rebuild rigid blocks at exact spacing ``w``, preserving block means;
    ``ids`` are the node block ids from ``_blocks_from_active``."""
    if ids[-1] == x.size - 1:  # no active gap: every node its own block
        return x
    counts = np.bincount(ids)
    mean_x = np.bincount(ids, weights=x) / counts
    # a block of k nodes from index s has its mean node at s + (k - 1) / 2,
    # a half-integer: exact, as is every difference from it below
    center = counts.cumsum() - 0.5 * (counts + 1)
    return mean_x[ids] + w * (np.arange(x.size) - center[ids])


def _multipliers(g, inactive, ids):
    """Constraint multipliers from blockwise gradient sums; ``inactive``
    is the complement of the active-gap mask, and ``ids`` are its node
    block ids.

    On a rigid block, stationarity stacks the node gradients into the
    chain of active-gap multipliers by partial summation.
    """
    cg = g.cumsum()
    borders = np.flatnonzero(inactive)
    before = np.concatenate([[0.0], cg[borders]])
    mu = np.where(inactive, 0.0, -(cg[:-1] - before[ids[:-1]]))
    return mu


def _kkt_residual(g, mu, w):
    dt_mu = np.zeros(g.size)
    dt_mu[1:] += mu
    dt_mu[:-1] -= mu
    stat = float(np.abs(g - dt_mu).max())
    neg = float(max(0.0, -mu.min())) if mu.size else 0.0
    return max(stat, neg) / w


def _solve_congested(y, gaps, w, phi, h, opts):
    """Primal-dual active-set Newton for the m = inf step.

    Active gaps (at the congestion spacing ``w``) pool nodes into rigid
    blocks; the reduced problem over block positions stays tridiagonal,
    so every sweep is O(n).  A sweep takes one full Newton step on the
    current blocks.  It then adds every gap that closed below ``w`` or,
    only when none did, releases every active gap with a negative
    multiplier (primal-dual active set: Hintermueller, Ito and Kunisch,
    SIAM J. Optim. 13, 2002), and snaps the blocks back to spacing ``w``.
    Adding before releasing matters: a release next to a violated gap
    sees a spurious negative multiplier.  The objective is convex for
    admissible h, so the final KKT point is the global step minimizer.
    ``gaps`` are the gaps of ``y``.  Returns the nodes, the KKT residual,
    the active count, and the number of sweeps as the iteration count.
    """
    args = (w, math.inf, phi, h)
    floor = w * (1.0 - 1e-12)  # inactive gaps below this are violated
    # the start's active set is read off its gaps: every gap at the spacing,
    # or within the admissible 1 + EPS_FEAS density squeezed below it.  The
    # snap moves a start that keeps the spacing by round-off; a neighbour it
    # pushes below the floor is added by the first sweep's violated gaps
    active = gaps <= w * (1.0 + 1e-12)
    ids = _blocks_from_active(active)
    x = _snap_active(y, ids, w)
    state = _newton_state(x, x - y, x[1:] - x[:-1])
    g = _gradient(state, *args)
    for sweep in range(1, MAX_ITERATIONS + 1):
        inactive = ~active
        nblocks = ids[-1] + 1
        hd, ho = _hessian(state, *args)
        hd_red = np.bincount(ids, weights=hd, minlength=nblocks)
        hd_red += 2.0 * np.bincount(ids[:-1][active], weights=ho[active],
                                    minlength=nblocks)
        g_red = np.bincount(ids, weights=g, minlength=nblocks)
        x = x + _solve_tridiag(hd_red, ho[inactive], -g_red)[ids]
        gaps = x[1:] - x[:-1]
        state = _newton_state(x, x - y, gaps)
        g = _gradient(state, *args)
        mu = _multipliers(g, inactive, ids)
        res = _kkt_residual(g, mu, w)
        violated = inactive & (gaps < floor)
        if not violated.any():
            if res <= opts.tol_grad:
                return x, res, int(active.sum()), sweep
            active = active & (mu >= 0.0)
            ids = _blocks_from_active(active)
            x = _snap_active(x, ids, w)
            gaps = x[1:] - x[:-1]
        else:
            newton_x = x
            while violated.any():
                active = active | violated
                ids = _blocks_from_active(active)
                # snapping a grown block to spacing w can push its neighbours
                # below w; adding them now keeps the sweep count independent
                # of n
                x = _snap_active(newton_x, ids, w)
                gaps = x[1:] - x[:-1]
                violated = ~active & (gaps < floor)
        state = _newton_state(x, x - y, gaps)
        g = _gradient(state, *args)
    raise JkoConvergenceError(
        f"congested step did not converge in {MAX_ITERATIONS} sweeps "
        f"(KKT residual {res:.3e}, tol {opts.tol_grad:.1e})")


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def jko_step(rho0: QuantileRep, m, h: float, phi: Potential,
             opts: JkoOptions | None = None,
             predictor=None) -> JkoStepResult:
    """One minimizing-movement step of size ``h`` from ``rho0``.

    ``predictor`` is an optional guess of the node displacement, such as
    the previous step's in a trajectory.  Finite-m Newton starts from it
    when it keeps every gap positive; it changes only where the solve
    starts, never the tolerance it must meet.  The m = inf solver starts
    from ``rho0`` and ignores it.

    Raises
    ------
    ValueError
        Step size outside the admissible convexity range, an infeasible
        start (m = inf with density above one; finite m with a collapsed
        gap, or gap powers that overflow), a predictor of the wrong shape
        or not finite, or a result whose support leaves the potential's
        working domain.
    JkoConvergenceError
        The requested KKT residual was not reached; never silently
        accepted.
    """
    opts = opts or JkoOptions()
    _step_guard(h, phi)
    if not m > 1:  # +inf passes; -inf and NaN fail
        raise ValueError(f"congestion exponent must satisfy m > 1, "
                         f"got m = {m}")
    y = rho0.nodes  # read-only; no solver writes to its start
    w = rho0.w
    if predictor is not None:
        predictor = np.asarray(predictor, dtype=float)
        if predictor.shape != y.shape or not np.isfinite(predictor).all():
            raise ValueError(f"predictor must be a finite array of the nodes' "
                             f"shape {y.shape}")
    gaps = y[1:] - y[:-1]
    if math.isinf(m):
        # rho0.max_density, from the gaps at hand
        gap_min = gaps.min()
        if not gap_min > 0.0 or w / gap_min > 1.0 + EPS_FEAS:
            raise ValueError("infeasible start: density exceeds one")
        x, res, nact, iters = _solve_congested(y, gaps, w, phi, h, opts)
    else:
        if (gaps <= 0.0).any():
            raise ValueError("infeasible start: collapsed gap at finite m")
        x, res, iters = _solve_finite_m(y, gaps, w, m, phi, h, opts,
                                        predictor)
        nact = 0
    state = QuantileRep(rho0.total_mass, x)
    _check_domain(phi, state.nodes[0], state.nodes[-1])
    return JkoStepResult(state, res, nact, iters)


def _step_count(T, h, phi):
    """Number of steps of size ``h`` to horizon ``T``, after checking both."""
    _check_positive("horizon", "T", T)
    _step_guard(h, phi)
    return int(math.ceil(T / h - 1e-12))


def _trajectory_steps(rho0, m, h, phi, n_steps):
    """The ``n_steps`` steps of a trajectory from ``rho0``, yielded one
    ``JkoStepResult`` at a time, so a caller keeps only what it reads.

    At finite m each step after the first takes the previous step's
    displacement as its ``predictor``; the m = inf solver ignores one, so
    none is built.  Steps go through the module's public ``jko_step``,
    with the default options.
    """
    opts = JkoOptions()
    cur, move = rho0, None
    for _ in range(n_steps):
        out = jko_step(cur, m, h, phi, opts, move)
        if not math.isinf(m):
            move = out.state.nodes - cur.nodes
        cur = out.state
        yield out


def jko_trajectory(rho0: QuantileRep, m, h: float, phi: Potential, T: float):
    """Piecewise-constant-in-time trajectory to horizon ``T``: the list of
    states, the initial state included.  At finite m each step after the
    first takes the previous step's displacement as its ``predictor``.
    """
    steps = _trajectory_steps(rho0, m, h, phi, _step_count(T, h, phi))
    return [rho0] + [out.state for out in steps]


@dataclass
class ComparisonReport:
    passed: bool
    max_violation: float
    eps_cmp: float


def verify_comparison(rho01: GridDensity, rho02: GridDensity, m, h: float,
                      phi: Potential, n_quantile: int) -> ComparisonReport:
    """Order preservation of one step from ordered grid densities.

    Both densities are represented with a shared cell mass ``w`` (so the
    lighter one gets fewer cells), stepped once, reconstructed on a
    common grid, and compared cell by cell.  The lighter density is
    scaled down by at most one cell mass so its total is an exact
    multiple of ``w``; scaling down preserves both the ordering and the
    congestion bound.

    Restricted to ``m > 2`` (or inf): the two-sided perturbation argument
    behind the property does not cover smaller exponents, so they are an
    experiment rather than an assertion here.
    """
    if not m > 2:  # +inf passes; -inf and NaN fail
        raise ValueError(f"comparison verification requires m > 2 (or inf), "
                         f"got m = {m}")
    if rho01.grid != rho02.grid:
        raise ValueError("ordered pair must live on a common grid")
    if np.any(rho01.values > rho02.values + 1e-12):
        raise ValueError("inputs are not ordered: rho01 must not exceed rho02")
    m1, m2 = rho01.mass, rho02.mass
    if m1 > m2 + 1e-12:
        raise ValueError("mass of rho01 must not exceed mass of rho02")
    if math.isinf(m):
        if max(np.max(rho01.values), np.max(rho02.values)) > 1.0 + EPS_FEAS:
            raise ValueError("m = inf comparison needs both densities <= 1")
    _check_positive("quantile count", "n_quantile", n_quantile)

    w = m2 / n_quantile
    n1 = int(math.floor(m1 / w + 1e-9))
    if n1 < 2:
        raise ValueError("mass ratio too extreme for the requested resolution")
    scale1 = (n1 * w) / m1
    q1 = to_quantile(rho01.with_values(rho01.values * scale1), n1)
    q2 = to_quantile(rho02, n_quantile)

    out1 = jko_step(q1, m, h, phi)
    out2 = jko_step(q2, m, h, phi)

    pad = 2.0 * max(q1.w, q2.w) + h * (phi.grad_sup() + 1.0)
    lo = min(out1.state.nodes[0], out2.state.nodes[0]) - pad
    hi = max(out1.state.nodes[-1], out2.state.nodes[-1]) + pad
    dx = rho01.dx
    recon = GridSpec(lo, hi, max(int(math.ceil((hi - lo) / dx)), 8))
    g1 = to_grid(out1.state, recon)
    g2 = to_grid(out2.state, recon)
    violation = float(np.max(g1.values - g2.values))
    violation = max(violation, 0.0)
    eps_cmp = 1e-6 * (1.0 + recon.dx / w)
    return ComparisonReport(passed=violation <= eps_cmp,
                            max_violation=violation, eps_cmp=eps_cmp)
