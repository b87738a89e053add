"""Conservative explicit finite-volume solver for degenerate diffusion with drift.

Density form ``rho_t = div(grad(rho^m) + rho grad(Phi))`` on a box with
no-flux walls.  The diffusive flux takes centered differences of
``rho^m`` across edges (conservative, degenerate-friendly); the drift
flux is first-order upwind
on the edge velocity ``-Phi'``, which keeps the scheme monotone so
ordered data stay ordered.  Radial mode weights fluxes by surface area
with a reflecting center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import excess_mass, free_energy
from .model import (EPS_SUPP, GridDensity, GridSpec, Patch, RunLedger,
                    _snapshot_schedule, to_quantile)
from .potentials import Potential
from .transport import w2_distance


class PmeStabilityError(RuntimeError):
    """Raised when a run produces more than a round-off sliver of negative mass."""


#: largest tolerated clipped mass, as a fraction of the mass, per step
CLIP_ABORT = 1e-12


@dataclass
class PmeOptions:
    cfl: float = 0.4              # safety factor on the explicit stability bound

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl safety factor must lie in (0, 1]")


def _drift_dt(vel, dx) -> float:
    """Drift bound of the explicit step: ``dx`` over the largest ``|vel|``."""
    return dx / (float(np.max(np.abs(vel))) + 1e-30)


def _check_exponent(m):
    if not 1 < m < math.inf:  # NaN fails too
        raise ValueError(f"diffusion exponent must satisfy 1 < m < inf, got "
                         f"m = {m}; m = inf is the hard constraint of the "
                         "jko scheme")


def _cfl_dt(values, dx, m, drift_dt):
    """The smaller of the diffusion and drift bounds on the explicit step."""
    _check_exponent(m)
    rho_max = max(float(values.max()), 1e-12)
    return min(dx * dx / (2.0 * m * rho_max ** (m - 1.0)), drift_dt)


def stable_dt(rho: GridDensity, m: float, phi: Potential,
              opts: PmeOptions | None = None) -> float:
    """CFL-limited explicit step: diffusion and drift bounds combined."""
    opts = opts or PmeOptions()
    return opts.cfl * _Stencil(rho.grid, phi).bound(rho.values, m)


class _Stencil:
    """What the explicit update needs of one grid under one potential.

    The edge velocity ``-Phi'`` is evaluated once, here: its maximum gives
    the drift bound, its interior values drive the upwind flux.  A run
    builds one stencil and steps raw value arrays through it.
    """

    def __init__(self, grid: GridSpec, phi: Potential):
        vel = -phi.grad(grid.edges)
        self.dx = grid.dx
        self.drift_dt = _drift_dt(vel, self.dx)
        self.vel = vel[1:-1]
        # the advected density is taken upwind of the transport speed -Phi'
        n = grid.n_cells
        self.upwind = np.where(self.vel > 0.0, np.arange(n - 1),
                               np.arange(1, n))
        self.areas = grid.edge_areas[1:-1]
        self.meas = grid.cell_measures
        self.total = np.zeros(n + 1)  # edge fluxes; the walls stay zero

    def bound(self, v: np.ndarray, m: float) -> float:
        """The CFL bound on ``dt`` for values ``v``, without the ``cfl`` factor."""
        return _cfl_dt(v, self.dx, m, self.drift_dt)

    def advance(self, v: np.ndarray, m: float, dt: float,
                bound: float) -> np.ndarray:
        """One conservative explicit update of ``v``.

        ``bound`` is ``self.bound(v, m)``; a ``dt`` above it is rejected.
        Negative values beyond round-off abort; round-off negatives are
        zeroed and the mass restored by rescaling.
        """
        if dt > bound * (1.0 + 1e-9):
            raise ValueError(f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}")
        rhom = v ** m
        # interior edges: flux F = d(rho^m)/dx + rho * Phi' (so rho_t = dF/dx)
        flux = (rhom[1:] - rhom[:-1]) / self.dx - self.vel * v[self.upwind]
        total = self.total
        np.multiply(self.areas, flux, out=total[1:-1])
        new = v + dt * (total[1:] - total[:-1]) / self.meas
        if new.min() >= 0.0:
            return new
        return _clipped(v, new, self.meas)


def _clipped(v: np.ndarray, new: np.ndarray, meas: np.ndarray) -> np.ndarray:
    """``new`` with round-off negatives zeroed, rescaled to the mass of ``v``."""
    mass = float(np.dot(v, meas))
    neg = new < 0.0
    lost = -float(np.sum(new[neg] * meas[neg]))
    if lost > CLIP_ABORT * mass:
        raise PmeStabilityError(
            f"negative mass {lost:.3e} exceeds round-off budget; "
            "the step size is unstable for this state")
    new = np.maximum(new, 0.0)
    pos_mass = float(np.dot(new, meas))
    if pos_mass > 0.0:
        new = new * (mass / pos_mass)
    if not new.min() >= 0.0:  # NaN passes through the clip
        raise ValueError("density values must be nonnegative")
    return new


def pme_step(rho: GridDensity, m: float, phi: Potential,
             dt: float) -> GridDensity:
    """One conservative explicit update; rejects over-CFL steps.

    ``dt`` may not exceed the CFL bound without the ``cfl`` factor.
    Negative values beyond round-off abort; round-off negatives are
    zeroed and the mass restored by rescaling.
    """
    stencil = _Stencil(rho.grid, phi)
    bound = stencil.bound(rho.values, m)
    return rho.with_values(stencil.advance(rho.values, m, dt, bound))


def pme_run(rho0: GridDensity, m: float, phi: Potential, T: float,
            opts: PmeOptions | None = None, snapshot_times=None):
    """Advance to time ``T`` with the step size re-limited every step.

    Returns ``(snapshots, ledger)`` where snapshots is a list of
    ``(t, GridDensity)`` including the initial and final states, and the
    ledger carries the energy split, mass, support extent and excess mass
    at the snapshot times (the Wasserstein increment column holds the
    distance between consecutive snapshots in 1D, nan in radial mode).
    The snapshot times are ``model._snapshot_schedule(T, snapshot_times)``.
    Between snapshots the run steps the value array, with the same update
    as ``pme_step``.
    """
    if not T > 0:
        raise ValueError("horizon must be positive")
    opts = opts or PmeOptions()
    stencil = _Stencil(rho0.grid, phi)
    v = rho0.values
    t = 0.0
    snapshots = [(0.0, rho0)]
    ledger = RunLedger()
    _ledger_row(ledger, 0, 0.0, rho0, None, m, phi)
    step_count = 0
    prev_snap = rho0
    for t_snap in _snapshot_schedule(T, snapshot_times):
        while t < t_snap - 1e-14:
            bound = stencil.bound(v, m)
            dt = min(opts.cfl * bound, t_snap - t)
            v = stencil.advance(v, m, dt, bound)
            t += dt
            step_count += 1
        t = t_snap
        rho = rho0.with_values(v)
        snapshots.append((t, rho))
        _ledger_row(ledger, step_count, t, rho, prev_snap, m, phi)
        prev_snap = rho
    return snapshots, ledger


def _ledger_row(ledger: RunLedger, step: int, t: float, rho: GridDensity,
                prev: GridDensity | None, m: float, phi: Potential):
    rep = free_energy(rho, m, phi)
    lo, hi = rho.support_extent()
    if prev is None or rho.grid.dim != 1:
        w2 = 0.0 if prev is None else math.nan
    else:
        n = min(max(rho.grid.n_cells // 2, 16), 400)
        w2 = w2_distance(to_quantile(prev, n), to_quantile(rho, n))
    ledger.append(step, t, rep.total, rep.internal, rep.potential, w2,
                  rho.mass, lo, hi, excess_mass(rho))


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
