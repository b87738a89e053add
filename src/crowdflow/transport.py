"""Exact 1D optimal transport on quantile representations.

For equal-mass measures given by inverse-CDF samples at common mass
levels, the squared quadratic transport cost is the L2 distance of the
(piecewise linear) inverse distribution functions.  That integral is a
piecewise quadratic in the mass variable and is computed exactly, cell
by cell, so the distance is a true metric on node vectors: zero iff the
nodes coincide, exact for translations and scalings.
"""

from __future__ import annotations

import numpy as np

from .model import GridSpec, QuantileRep, to_grid, to_quantile

MASS_RTOL = 1e-12


#: grid cells per quantile node in the ``resample_quantile`` round trip
RESAMPLE_CELLS_PER_NODE = 4


def _check_pair(a: QuantileRep, b: QuantileRep):
    if abs(a.total_mass - b.total_mass) > MASS_RTOL * max(a.total_mass, b.total_mass):
        raise ValueError("transport distance needs equal total mass")
    if a.n != b.n:
        raise ValueError("node counts differ; resample one side with "
                         "resample_quantile")


def w2_cost_squared(xa: np.ndarray, xb: np.ndarray, w: float) -> float:
    """Exact integral of ``|Xa(s) - Xb(s)|^2`` over mass levels.

    ``xa`` and ``xb`` sample piecewise-linear inverse CDFs at common
    levels spaced by ``w``; the difference is linear on each level cell,
    so the cell integral is ``w/3 * (d0^2 + d0*d1 + d1^2)``.
    """
    d = np.asarray(xa, dtype=float) - np.asarray(xb, dtype=float)
    d0, d1 = d[:-1], d[1:]
    return float(w / 3.0 * np.sum(d0 * d0 + d0 * d1 + d1 * d1))


def w2_distance(a: QuantileRep, b: QuantileRep) -> float:
    """Quadratic Wasserstein distance between equal-mass representations."""
    _check_pair(a, b)
    return float(np.sqrt(max(w2_cost_squared(a.nodes, b.nodes, a.w), 0.0)))


def generalized_geodesic(base: QuantileRep, mu2: QuantileRep,
                         mu3: QuantileRep, t: float) -> QuantileRep:
    """Interpolate the optimal maps from a common base measure.

    The monotone optimal map from ``base`` to ``mu_i`` pairs equal mass
    levels, so its images of the base nodes are the nodes of ``mu_i``; at
    parameter ``t`` the nodes are the node-wise affine interpolation
    ``(1 - t) X2 + t X3``.  Gaps interpolate too, so feasibility
    (density <= 1) is preserved along the whole curve.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("geodesic parameter must lie in [0, 1]")
    _check_pair(base, mu2)
    _check_pair(base, mu3)
    nodes = (1.0 - t) * mu2.nodes + t * mu3.nodes
    return QuantileRep(base.total_mass, nodes)


def brute_force_w2(atoms_a, atoms_b, total_mass: float = 1.0) -> float:
    """Assignment-based oracle for the quadratic cost on equal-weight atoms.

    Sorting both lists and pairing in order is the optimal assignment in
    1D for convex costs; kept independent of the quantile machinery so it
    can serve as a cross-check.
    """
    xa = np.sort(np.asarray(atoms_a, dtype=float))
    xb = np.sort(np.asarray(atoms_b, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("atom lists must have equal length")
    if xa.size > 10_000:
        raise ValueError("brute-force oracle capped at 1e4 atoms")
    w_atom = total_mass / xa.size
    return float(np.sqrt(w_atom * np.sum((xa - xb) ** 2)))


def atoms_from_quantile(q: QuantileRep) -> np.ndarray:
    """Equal-weight atom positions (gap midpoints) for the brute-force oracle."""
    return 0.5 * (q.nodes[:-1] + q.nodes[1:])


def resample_quantile(q: QuantileRep, n: int) -> QuantileRep:
    """Re-sample to ``n`` cells through a grid reconstruction round trip."""
    lo, hi = float(q.nodes[0]), float(q.nodes[-1])
    pad = max(1e-9, 1e-9 * (hi - lo))
    grid = GridSpec(lo - pad, hi + pad, RESAMPLE_CELLS_PER_NODE * max(n, q.n))
    return to_quantile(to_grid(q, grid), n)
