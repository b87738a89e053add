"""Closed-form reference solutions used as independent ground truth.

Self-similar source solutions of the plain porous medium equation, the
stationary profiles of the penalized and hard-congestion free energies,
and the exact interval flow under a quadratic drift.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GridDensity, GridSpec, Patch
from .potentials import Potential


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


def _power_profile(phi: Potential, m: float, C: float, grid: GridSpec,
                   factor: float) -> np.ndarray:
    vals = np.maximum(C - phi.value(grid.centers), 0.0)
    return (factor * vals) ** (1.0 / (m - 1.0))


def _level_profile(m: float, phi: Potential, mass: float, grid: GridSpec,
                   factor: float) -> GridDensity:
    """Profile ``(factor (C - Phi)+)^(1/(m-1))`` with C fixed by the mass."""
    if mass <= 0:
        raise ValueError("mass must be positive")
    if math.isinf(m):
        patch = stationary_patch(phi, mass, (grid.x_lo, grid.x_hi))
        return patch.indicator(grid)
    meas = grid.cell_measures

    def mass_at(c):
        return float(np.dot(_power_profile(phi, m, c, grid, factor), meas))

    c_hi = float(max(phi.value(grid.x_lo), phi.value(grid.x_hi)))
    if mass_at(c_hi) < mass:
        raise ValueError("requested mass is not attainable inside the grid box")
    c_lo = 0.0
    for _ in range(200):
        c_mid = 0.5 * (c_lo + c_hi)
        if mass_at(c_mid) < mass:
            c_lo = c_mid
        else:
            c_hi = c_mid
        if abs(mass_at(c_hi) - mass) <= 1e-12 * mass:
            break
    rho = GridDensity(grid, _power_profile(phi, m, c_hi, grid, factor))
    # snap the level's residual quadrature error onto the amplitude
    return rho.with_values(rho.values * (mass / rho.mass))


def stationary_profile(m: float, phi: Potential, mass: float,
                       grid: GridSpec) -> GridDensity:
    """Stationary state of the drift-diffusion equation, on a grid.

    Finite m: ``((m-1)/m (C - Phi)+)^(1/(m-1))`` with the level C found
    by bisection until the grid mass matches to 1e-10 relative; this is
    the profile whose diffusive and drift fluxes cancel pointwise.
    m = inf: the indicator of the sublevel set ``{Phi <= C}`` with volume
    equal to the mass, cell-averaged (fractional boundary cells).
    """
    return _level_profile(m, phi, mass, grid, (m - 1.0) / m
                          if not math.isinf(m) else 1.0)


def energy_minimizer_profile(m: float, phi: Potential, mass: float,
                             grid: GridSpec) -> GridDensity:
    """Minimizer of the free energy ``int rho^m/m + rho Phi`` at fixed mass.

    Finite m: ``((C - Phi)+)^(1/(m-1))`` (the Euler-Lagrange level set of
    the 1/m-normalized internal energy, so the rest point of the
    minimizing-movement flow).  At m = inf it coincides with
    ``stationary_profile``; at finite m the two differ by the
    ``(m-1)/m`` inside the power, reflecting that the drift-diffusion
    equation as written diffuses ``rho^m`` with unit coefficient while
    the gradient flow of the 1/m energy carries ``(m-1)/m``.
    """
    return _level_profile(m, phi, mass, grid, 1.0)


def sublevel_intervals(phi: Potential, level: float, domain, samples=8192):
    """Intervals of ``{Phi <= level}`` inside ``domain`` by scan plus bisection."""
    lo, hi = domain
    xs = np.linspace(lo, hi, samples)
    below = phi.value(xs) <= level
    if not np.any(below):
        return ()
    idx = np.flatnonzero(below)
    intervals = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i == prev + 1:
            prev = i
        else:
            intervals.append((start, prev))
            start = prev = i
    intervals.append((start, prev))

    def refine(x_in, x_out):
        # root of Phi - level between a point inside and a point outside;
        # a step that leaves the bracket unchanged repeats forever, so stop
        for _ in range(80):
            mid = 0.5 * (x_in + x_out)
            if phi.value(mid) <= level:
                if mid == x_in:
                    break
                x_in = mid
            else:
                if mid == x_out:
                    break
                x_out = mid
        return 0.5 * (x_in + x_out)

    out = []
    for i0, i1 in intervals:
        a = xs[i0] if i0 == 0 else refine(xs[i0], xs[i0 - 1])
        b = xs[i1] if i1 == samples - 1 else refine(xs[i1], xs[i1 + 1])
        if b > a:
            out.append((a, b))
    return tuple(out)


def stationary_patch(phi: Potential, volume: float, domain) -> Patch:
    """Sublevel set ``{Phi <= C}`` with prescribed volume, as a patch."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    lo, hi = domain

    def vol(level):
        return sum(b - a for a, b in sublevel_intervals(phi, level, domain))

    c_hi = float(max(phi.value(lo), phi.value(hi)))
    if vol(c_hi) < volume:
        raise ValueError("requested volume is not attainable inside the domain")
    c_lo = float(np.min(phi.value(np.linspace(lo, hi, 8192))))
    for _ in range(200):
        c_mid = 0.5 * (c_lo + c_hi)
        # a step that leaves the bracket unchanged repeats forever: stop
        if vol(c_mid) < volume:
            if c_mid == c_lo:
                break
            c_lo = c_mid
        else:
            if c_mid == c_hi:
                break
            c_hi = c_mid
    return Patch(sublevel_intervals(phi, c_hi, domain))


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
