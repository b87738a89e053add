"""Free energy functionals: power-law internal energy plus drift potential.

The free energy is ``int rho^m / (m-1) + rho Phi``, the energy whose
Wasserstein gradient flow is ``rho_t = lap(rho^m) + div(rho grad Phi)``
(Otto, Comm. PDE 26, 2001): the minimizing-movement scheme descends it,
and the drift-diffusion solver integrates its flow.  The congestion
parameter ``m`` ranges over (1, inf]; ``math.inf`` selects the
hard-constraint functional whose internal part is 0 on densities
bounded by one and +inf otherwise.  Quantile-side formulas are exact for
the piecewise-constant density the representation carries, which keeps
them consistent with the minimizing-movement objective to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GridDensity, GridSpec, QuantileRep
from .potentials import Potential, gl_points

#: feasibility slack for the hard constraint on grid data; cell-averaging
#: of feasible quantile data may overshoot one by a sliver and must not
#: trip the infinite-energy sentinel.
EPS_FEAS = 1e-9


@dataclass
class EnergyReport:
    internal: float
    potential: float

    @property
    def total(self):
        return self.internal + self.potential


def gap_energy(w, gaps, m) -> float:
    """Internal energy of a quantile density with cell mass ``w``:
    ``sum w (w/gap)^(m-1) / (m-1)``, the integral of ``rho^m / (m-1)``
    over the gaps.  Its derivative in a gap is ``-(w/gap)^m``, its second
    derivative ``m (w/gap)^(m+1) / w``.  A gap power that overflows gives
    +inf, without a warning."""
    with np.errstate(over="ignore"):
        return float(w * ((w / gaps) ** (m - 1.0)).sum() / (m - 1.0))


def internal_energy(rho, m) -> float:
    """Power-law internal energy, or the 0/+inf congestion sentinel.

    Finite m: integral of ``rho^m / (m-1)``.  m = inf: 0 when the density
    stays below ``1 + EPS_FEAS``, +inf otherwise.
    """
    if not m > 1:
        raise ValueError("internal energy requires m > 1")
    if isinstance(rho, QuantileRep):
        if math.isinf(m):
            return 0.0 if rho.max_density <= 1.0 + EPS_FEAS else math.inf
        gaps = rho.gaps
        if (gaps <= 0.0).any():
            return math.inf
        return gap_energy(rho.w, gaps, m)
    if math.isinf(m):
        return 0.0 if float(np.max(rho.values)) <= 1.0 + EPS_FEAS else math.inf
    meas = rho.grid.cell_measures
    return float(np.dot(rho.values ** m, meas) / (m - 1.0))


def potential_energy(rho, phi: Potential) -> float:
    """Integral of density times potential.

    Grid data: midpoint rule over cells (radial measures in radial mode).
    Quantile data: exact per-gap averages of the potential, so the value
    agrees with the minimizing-movement objective exactly.
    """
    if isinstance(rho, QuantileRep):
        x = rho.nodes
        _check_domain(phi, x[0], x[-1])
        return float(rho.w * phi.avg(gl_points(x[:-1], x[1:])).sum())
    lo, hi = rho.support_extent()
    if not math.isnan(lo):
        _check_domain(phi, lo, hi)
    vals = phi.value(rho.grid.centers)
    return float(np.dot(rho.values * vals, rho.grid.cell_measures))


def free_energy(rho, m, phi: Potential) -> EnergyReport:
    return EnergyReport(internal=internal_energy(rho, m),
                        potential=potential_energy(rho, phi))


def excess_mass(rho: GridDensity) -> float:
    """Mass above the congestion ceiling: integral of ``(rho - 1)+``."""
    over = np.maximum(rho.values - 1.0, 0.0)
    return float(np.dot(over, rho.grid.cell_measures))


def regularize_to_feasible(mu: GridDensity, a: float) -> GridDensity:
    """Flatten the part of a density above ``1 - a`` below the ceiling.

    Splits ``mu = min(mu, 1-a) + (mu - (1-a))+`` and spreads the second
    part with the unit-mass kernel equal to one half on [-1, 1].  The
    output lives on a grid extended by the kernel radius; its mass equals
    the input mass to round-off, and its sup stays below ``1 + eps_grid``
    whenever the overshoot mass ``integral (mu-1)+`` is at most ``a``
    (the regime the construction is meant for; checked).
    """
    if not 0.0 < a < 1.0:
        raise ValueError("regularization level must lie in (0, 1)")
    if mu.grid.dim != 1:
        raise ValueError("feasibility regularization implemented in 1D")
    if excess_mass(mu) > a * (1.0 + 1e-9):
        raise ValueError("overshoot mass exceeds the regularization level")
    dx = mu.dx
    base = np.minimum(mu.values, 1.0 - a)
    spike = mu.values - base

    # cell-averaged kernel density on offsets covering [-1, 1], normalized
    # so the discrete convolution preserves mass exactly
    k = int(math.ceil(1.0 / dx)) + 1
    off_lo = (np.arange(-k, k + 1) - 0.5) * dx
    off_hi = off_lo + dx
    overlap = np.clip(off_hi, -1.0, 1.0) - np.clip(off_lo, -1.0, 1.0)
    kern = 0.5 * np.maximum(overlap, 0.0) / dx
    kern /= np.sum(kern) * dx

    ext = GridSpec(mu.grid.x_lo - (k + 1) * dx, mu.grid.x_hi + (k + 1) * dx,
                   mu.grid.n_cells + 2 * (k + 1))
    vals = np.zeros(ext.n_cells)
    vals[k + 1:k + 1 + mu.grid.n_cells] = base
    smeared = np.convolve(spike, kern, mode="full") * dx
    vals[1:1 + smeared.size] += smeared
    out = GridDensity(ext, vals)
    # exact mass restoration against accumulated round-off
    scale = mu.mass / out.mass
    return out.with_values(out.values * scale)


def _check_domain(phi: Potential, lo: float, hi: float):
    dlo, dhi = phi.domain
    slack = 1e-9 * (dhi - dlo)
    if lo < dlo - slack or hi > dhi + slack:
        raise ValueError(f"support [{lo:.6g}, {hi:.6g}] escapes the potential's "
                         f"working domain [{dlo:.6g}, {dhi:.6g}]")
