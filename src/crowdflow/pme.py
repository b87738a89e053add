"""Conservative backward-Euler finite-volume solver for degenerate diffusion
with drift.

Density form ``rho_t = div(grad(rho^m) + rho grad(Phi))`` on a box with
no-flux walls.  The diffusive flux takes centered differences of
``rho^m`` across edges (conservative, degenerate-friendly); the drift
flux is first-order upwind on the edge velocity ``-Phi'``, which keeps
the scheme monotone so ordered data stay ordered.  Radial mode weights
fluxes by surface area with a reflecting center.

Each step is backward Euler on these fluxes (Bessemoulin-Chatard and
Filbet, SIAM J. Sci. Comput. 34, 2012), so no CFL bound limits it.  The
implicit system is solved by Newton's method from the previous state.
Newton stops on its step size: once a step is at most ``TOL_STEP`` times
the iterate's maximum, or once the contraction of its last two steps
predicts that the next one would be (Deuflhard, Newton Methods for
Nonlinear Problems, 2004, ch. 2), which saves the sweep that would only
confirm convergence.
Every Newton and Picard matrix is a tridiagonal M-matrix whose columns
sum to the cell measures, because the fluxes telescope: every iterate
keeps the mass, and the Picard iterate, taken with secant coefficients
``(u_{j+1}^m - u_j^m) / (u_{j+1} - u_j) >= 0`` whenever a Newton iterate
goes negative, is nonnegative by construction.  Nothing is clipped.

A run steps a stack of states, one row per exponent, in lockstep: each
Newton iteration does its array work once for the whole stack, then
solves each row's system by its own sweep.  The rows share no outcome.
A row leaves the stack once its own steps pass either exit, and
counts its own iterations against ``MAX_ITERATIONS``; the rows whose
solve fails are stepped again, as a sub-stack, in two half steps.  So
every row takes the operations its run alone would take, in the same
order, and its states are bit for bit those of that run.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (GridDensity, GridSpec, Patch, _check_positive, _runs,
                    _snapshot_schedule, _step_toward)
from .potentials import Potential


class PmeStabilityError(RuntimeError):
    """Raised when a step does not converge even after repeated halving."""


#: Newton stops once its step, or the next step that the contraction of its
#: last two Newton steps predicts, ``|delta_k|^2 / |delta_{k-1}|``, is this
#: small against the iterate's maximum
TOL_STEP = 1e-12
#: iterations one implicit solve may take before its step is halved
MAX_ITERATIONS = 40
#: halvings of one requested step before the run gives up
MAX_HALVINGS = 30


def _check_exponent(m):
    if not 1 < m < math.inf:  # NaN fails too
        raise ValueError(f"diffusion exponent must satisfy 1 < m < inf, got "
                         f"m = {m}; m = inf is the hard constraint of the "
                         "jko scheme")


def stable_dt(rho: GridDensity, m: float, phi: Potential) -> float:
    """Step bound of an explicit update of ``rho``, with a 0.4 safety factor.

    The smaller of the diffusion bound ``dx^2 / (2 m rho_max^(m-1))`` and
    the drift bound ``dx / max|Phi'|``.  The implicit step needs neither;
    this is the reference scale of an explicit step.
    """
    _check_exponent(m)
    grid = rho.grid
    dx = grid.dx
    rho_max = max(float(rho.values.max()), 1e-12)
    vmax = float(np.max(np.abs(phi.grad(grid.edges))))
    return 0.4 * min(dx * dx / (2.0 * m * rho_max ** (m - 1.0)),
                     dx / (vmax + 1e-30))


def _solve_balanced(meas, fwd, bwd, rhs):
    """Solve the tridiagonal system whose columns sum to ``meas``.

    The matrix has diagonal ``meas[i] + fwd[i] + bwd[i-1]``, subdiagonal
    ``-fwd[i]`` and superdiagonal ``-bwd[i]``, with ``fwd, bwd >= 0``
    given on the ``n - 1`` interior edges: an M-matrix, so elimination
    needs no pivoting.  Each pivot is rebuilt from nonnegative terms, the
    column sum left after elimination plus ``fwd[i]`` (the last pivot is
    that column sum alone), so no cancellation enters; for ``rhs >= 0``
    the solution is ``>= 0`` in floating point.  Plain lists in and out:
    numpy has no banded solver, and LAPACK's ``dgtsv`` would load scipy's
    LAPACK module (about 2.5 MB, as the JKO solve does), which no PME run
    otherwise needs, and has no such sign guarantee.
    """
    n = len(rhs)
    if n == 1:
        return [rhs[0] / meas[0]]
    piv = [0.0] * n
    y = [0.0] * n
    col = meas[0]  # what is left of the column sum after elimination
    p = piv[0] = col + fwd[0]
    yi = y[0] = rhs[0]
    for i in range(1, n - 1):
        r = 1.0 / p
        col = meas[i] + bwd[i - 1] * col * r
        yi = y[i] = rhs[i] + fwd[i - 1] * yi * r
        p = piv[i] = col + fwd[i]
    r = 1.0 / p
    col = meas[-1] + bwd[-1] * col * r
    x = (rhs[-1] + fwd[-1] * yi * r) / col
    out = [0.0] * n
    out[-1] = x
    for i in range(n - 2, -1, -1):
        x = out[i] = (y[i] + bwd[i] * x) / piv[i]
    return out


class _Stencil:
    """What the implicit update needs of one grid under one potential.

    The edge velocity ``-Phi'`` is evaluated once, here: its positive part
    carries mass rightward out of the cell left of each interior edge, its
    negative part leftward out of the cell on the right.  A run builds one
    stencil and steps a ``(k, n)`` stack of value rows through it, row
    ``i`` under exponent ``m[i]``.
    """

    def __init__(self, grid: GridSpec, phi: Potential):
        # one-row arrays: against a stack of one row, numpy takes its fast
        # path for operands of one shape
        vel = -phi.grad(grid.edges)[None, 1:-1]
        areas = grid.edge_areas[None, 1:-1]
        self.meas = grid.cell_measures[None]
        self.meas_list = grid.cell_measures.tolist()
        self.diff = areas / grid.dx
        self.right = areas * np.maximum(vel, 0.0)
        self.left = areas * np.maximum(-vel, 0.0)

    def step(self, v: np.ndarray, m: np.ndarray, dt: float,
             depth: int = 0) -> np.ndarray:
        """One backward-Euler step of ``dt`` from each row of ``v``.

        The rows whose solve fails are stepped again, as one sub-stack, in
        two half steps, down to ``MAX_HALVINGS`` halvings; below that it
        raises.
        """
        u, ok = self._solve(v, m, dt)
        if ok.all():
            return u
        if depth == MAX_HALVINGS:
            raise PmeStabilityError(
                f"backward-Euler step did not converge at dt = {dt:.3e}, "
                f"{depth} halvings below the requested step")
        bad = ~ok
        half = 0.5 * dt
        u[bad] = self.step(self.step(v[bad], m[bad], half, depth + 1),
                           m[bad], half, depth + 1)
        return u

    def _solve(self, v: np.ndarray, m: np.ndarray, dt: float):
        """``(u, ok)``: the implicit state of each row after ``dt``, and
        whether its solve succeeded; a failed row of ``u`` is meaningless.

        Newton on the residual ``meas (u - v) - dt div F(u)``, started at
        ``v``.  A Newton iterate with a negative value is replaced by the
        Picard iterate from the same point; a non-finite iterate, or no
        convergence within ``MAX_ITERATIONS``, fails the row.  A row
        converges at ``u + delta_k`` once ``max|delta_k| <= TOL_STEP
        max(u)``, or, between two Newton steps, once ``max|delta_k|^2 <=
        TOL_STEP max(u) max|delta_{k-1}|``: the contraction exit, which
        never fires on a row's first iteration, nor when either step is a
        Picard replacement.
        The rows share each iteration's array work but not its outcome: a
        row leaves the stack once its own steps pass an exit, or fails.
        """
        meas, meas_list = self.meas, self.meas_list
        c_diff = dt * self.diff
        c_right, c_left = dt * self.right, dt * self.left
        out = np.empty_like(v)
        ok = np.zeros(len(v), dtype=bool)
        rows = list(range(len(v)))  # the rows of out still being solved
        # each row's last Newton step size; 0.0, which lets no contraction
        # exit fire, before its first step and after a Picard replacement
        last = [0.0] * len(v)
        m_list = m.tolist()
        m = m[:, None]
        u = v
        # u ** m may overflow for a wild iterate; it is rejected by value
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(MAX_ITERATIONS):
                # one power per row, by a float: numpy takes u ** 2.0 and
                # u ** 0.5 as a square and a square root, but a power by a
                # column of exponents through pow, which can differ in the
                # last bit
                um1 = np.array([row ** (m_i - 1.0)
                                for row, m_i in zip(u, m_list)])
                deriv = m * um1
                w = um1 * u
                dw = w[:, 1:] - w[:, :-1]
                flux = c_diff * dw - c_right * u[:, :-1] + c_left * u[:, 1:]
                res = meas * (v - u)
                res[:, :-1] += flux
                res[:, 1:] -= flux
                delta = np.empty_like(u)
                for i, system in enumerate(zip(
                        (c_diff * deriv[:, :-1] + c_right).tolist(),
                        (c_diff * deriv[:, 1:] + c_left).tolist(),
                        res.tolist())):
                    delta[i] = _solve_balanced(meas_list, *system)
                new = u + delta
                neg = []  # the rows whose Newton iterate went negative
                if not new.min() >= 0.0:
                    neg = [i for i, low in enumerate(new.min(axis=1).tolist())
                           if not low >= 0.0]
                    du = u[neg, 1:] - u[neg, :-1]
                    coef = c_diff * np.where(du != 0.0, dw[neg] / du,
                                             deriv[neg, :-1])
                    for i, system in zip(neg, zip(
                            (coef + c_right).tolist(),
                            (coef + c_left).tolist(),
                            (meas * v[neg]).tolist())):
                        new[i] = _solve_balanced(meas_list, *system)
                        delta[i] = new[i] - u[i]
                u = new
                left = []
                for i, (size, top) in enumerate(zip(
                        abs(delta).max(axis=1).tolist(),
                        u.max(axis=1).tolist())):
                    if not size < math.inf:  # NaN fails too
                        continue
                    newton = i not in neg
                    if (size <= TOL_STEP * top or newton
                            and size * size <= TOL_STEP * top * last[i]):
                        out[rows[i]] = u[i]
                        ok[rows[i]] = True
                    else:
                        left.append(i)
                        last[i] = size if newton else 0.0
                if len(left) == len(rows):
                    continue
                if not left:
                    break
                rows = [rows[i] for i in left]
                m_list = [m_list[i] for i in left]
                last = [last[i] for i in left]
                u, v, m = u[left], v[left], m[left]
        return out, ok


def pme_step(rho: GridDensity, m: float, phi: Potential,
             dt: float) -> GridDensity:
    """One backward-Euler step of ``dt``, halved as often as it must be."""
    _check_exponent(m)
    _check_positive("time step", "dt", dt)
    u = _Stencil(rho.grid, phi).step(rho.values[None], np.array([m]), dt)
    return rho.with_values(u[0])


def pme_run(rho0: GridDensity, m_list, phi: Potential, T: float,
            dt: float, snapshot_times=None):
    """Advance to time ``T`` under each exponent of ``m_list``, in
    backward-Euler steps of ``dt``.

    Returns ``(runs, steps)``: ``runs[i]`` is the list of ``(t,
    GridDensity)`` snapshots under ``m_list[i]``, including the initial
    and final states, and ``steps`` the number of steps taken up to each
    snapshot, the same for every exponent.  The snapshot times are
    ``model._snapshot_schedule(T, snapshot_times)``, and each step lands
    on them by ``model._step_toward``, the rule ``heleshaw_run`` shares.
    The exponents step as one stack of value rows, with the same update
    as ``pme_step``, so each run is bit for bit the run of its exponent
    alone.
    """
    m = np.array(m_list, dtype=float)
    if m.ndim != 1 or not m.size:
        raise ValueError(f"pme_run takes a nonempty list of exponents, got "
                         f"{m_list!r}")
    for m_i in m.tolist():
        _check_exponent(m_i)
    _check_positive("time step", "dt", dt)
    schedule = _snapshot_schedule(T, snapshot_times)
    stencil = _Stencil(rho0.grid, phi)
    v = np.tile(rho0.values, (m.size, 1))
    t = 0.0
    runs = [[(0.0, rho0)] for _ in range(m.size)]
    steps = [0]
    step_count = 0
    for t_snap in schedule:
        while t < t_snap:
            step, lands = _step_toward(t, t_snap, dt)
            v = stencil.step(v, m, step)
            t = t_snap if lands else t + step
            step_count += 1
        for run, row in zip(runs, v):
            run.append((t, rho0.with_values(row)))
        steps.append(step_count)
    return runs, steps


def pressure(rho: GridDensity, m: float) -> np.ndarray:
    """Pressure transform ``m/(m-1) rho^(m-1)`` as a grid field."""
    _check_exponent(m)
    return m / (m - 1.0) * rho.values ** (m - 1.0)


def support_set(rho: GridDensity, eps: float) -> Patch:
    """Maximal intervals of cells above threshold, bridging one-cell gaps."""
    if not eps > 0:
        raise ValueError("support threshold must be positive")
    idx = np.flatnonzero(rho.values > eps)
    if idx.size == 0:
        return Patch((), dim=rho.grid.dim)
    e = rho.grid.edges
    return Patch(tuple((float(e[a]), float(e[b + 1]))
                       for a, b in zip(*_runs(idx, 2))), dim=rho.grid.dim)
