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
from .model import EPS_SUPP, GridDensity, Patch, RunLedger, to_quantile
from .potentials import Potential
from .transport import w2_distance


class PmeStabilityError(RuntimeError):
    """Raised when a run produces more than a round-off sliver of negative mass."""


@dataclass
class PmeOptions:
    cfl: float = 0.4              # safety factor on the explicit stability bound
    clip_abort: float = 1e-12     # max tolerated clipped mass fraction per run
    n_snapshots: int = 16

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl safety factor must lie in (0, 1]")


def _drift_dt(vel, dx) -> float:
    """Drift bound of the explicit step: ``dx`` over the largest ``|vel|``."""
    return dx / (float(np.max(np.abs(vel))) + 1e-30)


def _cfl_dt(values, dx, m, drift_dt, cfl):
    """``cfl`` times the smaller of the diffusion and drift bounds."""
    if not m > 1:
        raise ValueError("diffusion exponent must satisfy m > 1")
    rho_max = max(float(np.max(values)), 1e-12)
    return cfl * min(dx * dx / (2.0 * m * rho_max ** (m - 1.0)), drift_dt)


def stable_dt(rho: GridDensity, m: float, phi: Potential,
              opts: PmeOptions | None = None) -> float:
    """CFL-limited explicit step: diffusion and drift bounds combined."""
    opts = opts or PmeOptions()
    drift_dt = _drift_dt(phi.grad(rho.grid.edges), rho.dx)
    return _cfl_dt(rho.values, rho.dx, m, drift_dt, opts.cfl)


def pme_step(rho: GridDensity, m: float, phi: Potential, dt: float,
             opts: PmeOptions | None = None) -> GridDensity:
    """One conservative explicit update; rejects over-CFL steps.

    The edge velocity ``-Phi'`` is evaluated once: its maximum bounds
    ``dt`` (the CFL bound without the ``cfl`` factor), its interior values
    drive the upwind flux.  Negative values beyond round-off abort;
    round-off negatives are zeroed and the mass restored by rescaling.
    """
    opts = opts or PmeOptions()
    grid, v, dx = rho.grid, rho.values, rho.dx
    vel = -phi.grad(grid.edges)
    limit = _cfl_dt(v, dx, m, _drift_dt(vel, dx), 1.0)
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt:.3e} exceeds the stability bound {limit:.3e}")
    rhom = v ** m
    # interior edges: flux F = d(rho^m)/dx + rho * Phi' (so rho_t = dF/dx);
    # the advected density is taken upwind of the transport speed -Phi'
    diff_flux = (rhom[1:] - rhom[:-1]) / dx
    vel = vel[1:-1]
    upwind = np.where(vel > 0.0, v[:-1], v[1:])
    flux = diff_flux - vel * upwind
    total = np.zeros(v.size + 1)
    total[1:-1] = grid.edge_areas[1:-1] * flux
    new = v + dt * (total[1:] - total[:-1]) / grid.cell_measures
    return _clipped(rho, new, opts)


def _clipped(rho: GridDensity, new: np.ndarray, opts: PmeOptions) -> GridDensity:
    neg = new < 0.0
    if not np.any(neg):
        return rho.with_values(new)
    meas = rho.grid.cell_measures
    lost = -float(np.sum(new[neg] * meas[neg]))
    if lost > opts.clip_abort * rho.mass:
        raise PmeStabilityError(
            f"negative mass {lost:.3e} exceeds round-off budget; "
            "the step size is unstable for this state")
    new = np.maximum(new, 0.0)
    pos_mass = float(np.dot(new, meas))
    if pos_mass > 0.0:
        new = new * (rho.mass / pos_mass)
    return rho.with_values(new)


def pme_run(rho0: GridDensity, m: float, phi: Potential, T: float,
            opts: PmeOptions | None = None, snapshot_times=None):
    """Advance to time ``T`` with the step size re-limited every step.

    Returns ``(snapshots, ledger)`` where snapshots is a list of
    ``(t, GridDensity)`` including the initial and final states, and the
    ledger carries the energy split, mass, support extent and excess mass
    at the snapshot times (the Wasserstein increment column holds the
    distance between consecutive snapshots in 1D, nan in radial mode).
    """
    if not T > 0:
        raise ValueError("horizon must be positive")
    opts = opts or PmeOptions()
    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, T, opts.n_snapshots + 1)[1:]
    snap_iter = [float(s) for s in snapshot_times if 0.0 < s <= T]
    if not snap_iter or snap_iter[-1] < T:
        snap_iter.append(T)

    # static pieces of the CFL bound
    dx = rho0.dx
    drift_dt = _drift_dt(phi.grad(rho0.grid.edges), dx)

    rho = rho0
    t = 0.0
    snapshots = [(0.0, rho0)]
    ledger = RunLedger()
    _ledger_row(ledger, 0, 0.0, rho0, None, m, phi)
    step_count = 0
    prev_snap = rho0
    for t_snap in snap_iter:
        while t < t_snap - 1e-14:
            dt = min(_cfl_dt(rho.values, dx, m, drift_dt, opts.cfl), t_snap - t)
            rho = pme_step(rho, m, phi, dt, opts)
            t += dt
            step_count += 1
        t = t_snap
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
    if not m > 1:
        raise ValueError("pressure transform requires m > 1")
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
