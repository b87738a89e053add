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
Every Newton and Picard matrix is a tridiagonal M-matrix whose columns
sum to the cell measures, because the fluxes telescope: every iterate
keeps the mass, and the Picard iterate, taken with secant coefficients
``(u_{j+1}^m - u_j^m) / (u_{j+1} - u_j) >= 0`` whenever a Newton iterate
goes negative, is nonnegative by construction.  Nothing is clipped.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (EPS_SUPP, GridDensity, GridSpec, Patch, _check_positive,
                    _snapshot_schedule)
from .potentials import Potential


class PmeStabilityError(RuntimeError):
    """Raised when a step does not converge even after repeated halving."""


#: Newton stops once its step is this small against the iterate's maximum
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
    numpy has no banded solver, and scipy's would load ``scipy.linalg``,
    which no PME run otherwise needs.
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
    stencil and steps raw value arrays through it.
    """

    def __init__(self, grid: GridSpec, phi: Potential):
        vel = -phi.grad(grid.edges)[1:-1]
        areas = grid.edge_areas[1:-1]
        self.meas = grid.cell_measures
        self.meas_list = self.meas.tolist()
        self.diff = areas / grid.dx
        self.right = areas * np.maximum(vel, 0.0)
        self.left = areas * np.maximum(-vel, 0.0)

    def step(self, v: np.ndarray, m: float, dt: float,
             depth: int = 0) -> np.ndarray:
        """One backward-Euler step of ``dt`` from ``v``.

        A step whose solve fails is split into two half steps, down to
        ``MAX_HALVINGS`` halvings; below that it raises.
        """
        u = self._solve(v, m, dt)
        if u is not None:
            return u
        if depth == MAX_HALVINGS:
            raise PmeStabilityError(
                f"backward-Euler step did not converge at dt = {dt:.3e}, "
                f"{depth} halvings below the requested step")
        half = 0.5 * dt
        return self.step(self.step(v, m, half, depth + 1), m, half, depth + 1)

    def _solve(self, v: np.ndarray, m: float, dt: float):
        """The implicit state after ``dt``, or None if the solve fails.

        Newton on the residual ``meas (u - v) - dt div F(u)``, started at
        ``v``.  A Newton iterate with a negative value is replaced by the
        Picard iterate from the same point; a non-finite iterate, or no
        convergence within ``MAX_ITERATIONS``, fails the solve.
        """
        meas, meas_list = self.meas, self.meas_list
        c_diff = dt * self.diff
        c_right, c_left = dt * self.right, dt * self.left
        rhs_picard = None
        u = v
        # u ** m may overflow for a wild iterate; it is rejected by value
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(MAX_ITERATIONS):
                um1 = u ** (m - 1.0)
                deriv = m * um1
                w = um1 * u
                dw = w[1:] - w[:-1]
                flux = c_diff * dw - c_right * u[:-1] + c_left * u[1:]
                res = meas * (v - u)
                res[:-1] += flux
                res[1:] -= flux
                fwd = (c_diff * deriv[:-1] + c_right).tolist()
                bwd = (c_diff * deriv[1:] + c_left).tolist()
                delta = np.array(_solve_balanced(meas_list, fwd, bwd,
                                                 res.tolist()))
                new = u + delta
                if not new.min() >= 0.0:
                    du = u[1:] - u[:-1]
                    coef = c_diff * np.where(du != 0.0, dw / du, deriv[:-1])
                    if rhs_picard is None:
                        rhs_picard = (meas * v).tolist()
                    fwd = (coef + c_right).tolist()
                    bwd = (coef + c_left).tolist()
                    new = np.array(_solve_balanced(meas_list, fwd, bwd,
                                                   rhs_picard))
                    delta = new - u
                size = float(abs(delta).max())
                if not size < math.inf:  # NaN fails too
                    return None
                u = new
                if size <= TOL_STEP * float(u.max()):
                    return u
        return None


def pme_step(rho: GridDensity, m: float, phi: Potential,
             dt: float) -> GridDensity:
    """One backward-Euler step of ``dt``, halved as often as it must be."""
    _check_exponent(m)
    _check_positive("time step", "dt", dt)
    return rho.with_values(_Stencil(rho.grid, phi).step(rho.values, m, dt))


def pme_run(rho0: GridDensity, m: float, phi: Potential, T: float,
            dt: float, snapshot_times=None):
    """Advance to time ``T`` in backward-Euler steps of ``dt``.

    Returns ``(snapshots, steps)``: snapshots is a list of ``(t,
    GridDensity)`` including the initial and final states, and ``steps``
    the number of steps taken up to each snapshot.  The snapshot times
    are ``model._snapshot_schedule(T, snapshot_times)``; the step that
    would pass one, or stop within ``1e-9 dt`` of it, is fitted to land on
    it exactly.  Between snapshots the run steps the value array, with the
    same update as ``pme_step``.
    """
    _check_exponent(m)
    _check_positive("time step", "dt", dt)
    schedule = _snapshot_schedule(T, snapshot_times)
    stencil = _Stencil(rho0.grid, phi)
    v = rho0.values
    t = 0.0
    snapshots = [(0.0, rho0)]
    steps = [0]
    step_count = 0
    for t_snap in schedule:
        while t < t_snap:
            last = t_snap - t <= dt * (1.0 + 1e-9)
            v = stencil.step(v, m, t_snap - t if last else dt)
            t = t_snap if last else t + dt
            step_count += 1
        snapshots.append((t, rho0.with_values(v)))
        steps.append(step_count)
    return snapshots, steps


def pressure(rho: GridDensity, m: float) -> np.ndarray:
    """Pressure transform ``m/(m-1) rho^(m-1)`` as a grid field."""
    _check_exponent(m)
    return m / (m - 1.0) * rho.values ** (m - 1.0)


def support_set(rho: GridDensity, eps: float = EPS_SUPP) -> Patch:
    """Maximal intervals of cells above threshold, bridging one-cell gaps."""
    if not eps > 0:
        raise ValueError("support threshold must be positive")
    mask = rho.values > eps
    if not np.any(mask):
        return Patch((), dim=rho.grid.dim)
    idx = np.flatnonzero(mask)
    runs = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i - prev <= 2:  # bridge single-cell gaps
            prev = i
        else:
            runs.append((start, prev))
            start = prev = i
    runs.append((start, prev))
    e = rho.grid.edges
    return Patch(tuple((float(e[a]), float(e[b + 1])) for a, b in runs),
                 dim=rho.grid.dim)
