"""Closed-form reference solutions used as independent ground truth.

Self-similar source solutions of the plain porous medium equation, the
rest state of the penalized and hard-congestion free energies, and the
exact interval flow under a quadratic drift.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GridDensity, GridSpec, Patch, _bisect, _runs
from .potentials import Potential, _horner


def barenblatt(x, t, tau, C, m, d=1, x0=0.0):
    """Self-similar source solution: returns ``(pressure, density)``.

    Pressure ``(C s^(2 lam) - K |x - x0|^2)+ / s`` with ``s = t + tau``,
    ``lam = 1 / ((m - 1) d + 2)`` and ``K = lam / 2``; the density is the
    inverse pressure transform ``((m-1)/m u)^(1/(m-1))``.
    """
    if not (m > 1 and t + tau > 0 and C > 0):
        raise ValueError("need m > 1, t + tau > 0 and C > 0")
    x = np.asarray(x, dtype=float)
    lam = 1.0 / ((m - 1.0) * d + 2.0)
    K = lam / 2.0
    s = t + tau
    press = np.maximum(C * s ** (2.0 * lam) - K * (x - x0) ** 2, 0.0) / s
    dens = ((m - 1.0) / m * press) ** (1.0 / (m - 1.0))
    return press, dens


def barenblatt_halfwidth(t, tau, C, m, d=1):
    """Support half-width ``sqrt(C/K) (t + tau)^lam`` of the source solution."""
    lam = 1.0 / ((m - 1.0) * d + 2.0)
    return math.sqrt(C / (lam / 2.0)) * (t + tau) ** lam


def energy_minimizer_profile(m: float, phi: Potential, mass: float,
                             grid: GridSpec) -> GridDensity:
    """Minimizer of the free energy ``int rho^m/(m-1) + rho Phi`` at fixed
    mass, on a grid: the rest state of both the minimizing-movement flow
    and the drift-diffusion equation.

    Finite m: ``((m-1)/m (C - Phi)+)^(1/(m-1))``, the Euler-Lagrange level
    set ``m/(m-1) rho^(m-1) + Phi = C`` on the support, where the diffusive
    and drift fluxes cancel pointwise; the level C is the upper end of a
    bracket on the grid mass, bisected until no float lies inside it.
    m = inf: the indicator of the sublevel set ``{Phi <= C}`` with volume
    equal to the mass, cell-averaged (fractional boundary cells).
    """
    if not m > 1:  # +inf passes; -inf and NaN fail
        raise ValueError(f"free energy minimizer requires m > 1, got m = {m}")
    if mass <= 0:
        raise ValueError("mass must be positive")
    if math.isinf(m):
        patch = stationary_patch(phi, mass, (grid.x_lo, grid.x_hi))
        return patch.indicator(grid)
    phi_c = phi.value(grid.centers)

    def profile(c):
        lift = np.maximum(c - phi_c, 0.0)
        return ((m - 1.0) / m * lift) ** (1.0 / (m - 1.0))

    def mass_at(c):
        return float(np.dot(profile(c), grid.cell_measures))

    c_hi = float(max(phi.value(grid.x_lo), phi.value(grid.x_hi)))
    if mass_at(c_hi) < mass:
        raise ValueError("requested mass is not attainable inside the grid box")
    # no mass at or below the least value on the grid, which is below 0
    # for a potential without a finite infimum (linear)
    c_lo = min(0.0, float(phi_c.min()))
    _, c_hi = _bisect(lambda c: mass_at(c) < mass, c_lo, c_hi, 200)
    rho = GridDensity(grid, profile(c_hi))
    # snap the level's residual quadrature error onto the amplitude
    return rho.with_values(rho.values * (mass / rho.mass))


# points of the scan that finds the components of a sublevel set
_SCAN_SAMPLES = 8192


def _sublevel(phi, xs, vals, level):
    """Intervals of ``{Phi <= level}`` from the scan ``vals = Phi(xs)``:
    each run of scan points below the level, with every endpoint inside
    the scan bisected between its run's last point and the next one, on
    Python floats, which ``_horner`` evaluates with the bits of
    ``Potential.value``."""
    idx = np.flatnonzero(vals <= level)
    if idx.size == 0:
        return ()
    end = xs.size - 1

    def refine(i_in, i_out):
        # root of Phi - level between a point inside and a point outside
        a, b = _bisect(lambda x: _horner(phi._ccoef, x) <= level,
                       float(xs[i_in]), float(xs[i_out]), 80)
        return 0.5 * (a + b)

    out = []
    for i0, i1 in zip(*_runs(idx, 1)):
        a = float(xs[0]) if i0 == 0 else refine(i0, i0 - 1)
        b = float(xs[end]) if i1 == end else refine(i1, i1 + 1)
        if b > a:
            out.append((a, b))
    return tuple(out)


def stationary_patch(phi: Potential, volume: float, domain) -> Patch:
    """Sublevel set ``{Phi <= C}`` with prescribed volume, as a patch.

    Raises ``ValueError`` for a volume the domain cannot hold or the scan
    cannot resolve."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    lo, hi = domain
    xs = np.linspace(lo, hi, _SCAN_SAMPLES)
    vals = phi.value(xs)  # one scan for every level

    def vol(level):
        return sum(b - a for a, b in _sublevel(phi, xs, vals, level))

    c_hi = float(max(phi.value(lo), phi.value(hi)))
    if vol(c_hi) < volume:
        raise ValueError("requested volume is not attainable inside the domain")
    c_lo = float(np.min(vals))
    floor = vol(c_lo)  # no scan point lies in a smaller sublevel set
    if floor > volume:
        raise ValueError(f"requested volume {volume:g} is below {floor:g}, "
                         f"the least the {_SCAN_SAMPLES}-point scan resolves")
    _, c_hi = _bisect(lambda c: vol(c) < volume, c_lo, c_hi, 200)
    return Patch(_sublevel(phi, xs, vals, c_hi))


def quadratic_interval_flow(a0, b0, q, t):
    """Exact interval endpoints under the quadratic drift ``q x^2 / 2``.

    The interval translates rigidly; its center contracts exponentially
    at rate q while the length stays constant.
    """
    if not (b0 > a0 and q > 0):
        raise ValueError("need a0 < b0 and q > 0")
    c0 = 0.5 * (a0 + b0)
    half = 0.5 * (b0 - a0)
    c = c0 * math.exp(-q * t)
    return (c - half, c + half)
