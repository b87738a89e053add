"""Core state types and loss-controlled conversions between them.

Three views of the same mass: cell-averaged densities on a uniform grid
(the PDE side), monotone quantile node vectors (the transport side, where
the quadratic Wasserstein distance is exact), and finite unions of
intervals (the free-boundary side).  Conversions are mass-exact by
construction; everything is treated as an immutable value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: density threshold that defines "support" for grid data; strictly
#: positive so denormal tails of explicit PDE output do not count.
EPS_SUPP = 1e-8


def _ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _check_positive(what, name, val):
    """Raise a ValueError unless ``val`` is positive and finite: the
    library's check of every step size and horizon."""
    if not 0 < val < math.inf:  # NaN fails too
        raise ValueError(f"{what} must be positive and finite, got "
                         f"{name} = {val}")


def _bisect(inside, a, b, iters):
    """The library's one bisection: at most ``iters`` halvings of the
    bracket from ``a``, where ``inside`` holds, to ``b`` (on either side),
    where it does not, stopping once the midpoint equals the end it would
    replace, as no float lies between the ends.  Returns the last ends."""
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if inside(mid):
            if mid == a:
                break
            a = mid
        else:
            if mid == b:
                break
            b = mid
    return a, b


def _runs(idx, span):
    """The library's one split of sorted indices ``idx`` (not empty) into
    runs whose consecutive entries lie at most ``span`` apart: the first
    and the last index of each run, as two lists of ints."""
    cut = np.flatnonzero(np.diff(idx) > span)
    return ([int(idx[0])] + idx[cut + 1].tolist(),
            idx[cut].tolist() + [int(idx[-1])])


def _snapshot_schedule(T, snapshot_times):
    """Output times of a run to ``T``: the requested floats in ``(0, T]``
    (strictly increasing; 16 even times by default), then ``T`` if missing.
    ``T`` must be positive and finite."""
    _check_positive("horizon", "T", T)
    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, T, 17)[1:]
    times = [float(s) for s in snapshot_times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"snapshot_times must be strictly increasing, got {times}")
    kept = [s for s in times if 0.0 < s <= T]
    if not kept or kept[-1] < T:
        kept.append(T)
    return kept


def _step_toward(t, t_snap, dt):
    """``(step, lands)`` from ``t`` toward the snapshot ``t_snap``: ``dt``,
    or the rest of the way when that is at most ``dt (1 + 1e-9)``."""
    rest = t_snap - t
    return (rest, True) if rest <= dt * (1.0 + 1e-9) else (dt, False)


def _locked(a):
    """A read-only float copy of ``a``; the caller's array stays writable."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1D grid (or radial mesh on [0, r_max] when dim > 1)."""

    x_lo: float
    x_hi: float
    n_cells: int
    dim: int = 1
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    _cell_measures: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_cells < 1 or not -math.inf < self.x_lo < self.x_hi < math.inf:
            raise ValueError("grid needs finite x_lo < x_hi and at least "
                             "one cell")
        if self.dim > 1 and self.x_lo != 0.0:
            raise ValueError("radial grids must start at r = 0")
        d = self.dim
        e = np.linspace(self.x_lo, self.x_hi, self.n_cells + 1)
        if d == 1:
            meas, areas = np.full(self.n_cells, self.dx), np.ones(e.size)
        else:
            meas = _ball_volume(d) * (e[1:] ** d - e[:-1] ** d)
            # not d * _ball_volume(d): that rounds the last bit up at d = 3
            areas = (d * math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
                     * e ** (d - 1))
        for name, a in (("_edges", e), ("_cell_measures", meas),
                        ("_edge_areas", areas)):
            object.__setattr__(self, name, _locked(a))

    def __reduce__(self):
        # rebuild when unpickled: a pickled array comes back writable
        return GridSpec, (self.x_lo, self.x_hi, self.n_cells, self.dim)

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def edges(self):
        """Cell edges, computed once; read-only."""
        return self._edges

    @property
    def centers(self):
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def cell_measures(self):
        """Cell lengths in 1D, annular shell volumes in radial mode; read-only."""
        return self._cell_measures

    @property
    def edge_areas(self):
        """Ones in 1D, sphere surface areas at the edges in radial mode; read-only."""
        return self._edge_areas


@dataclass
class GridDensity:
    """Nonnegative cell-averaged density on a uniform grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per cell")
        if not np.min(v) >= 0.0:  # NaN fails too
            raise ValueError("density values must be nonnegative")
        self.values = _locked(v)

    def __reduce__(self):
        # rebuild through the constructor, as GridSpec does, so the values
        # come back read-only
        return GridDensity, (self.grid, self.values)

    @property
    def mass(self):
        return float(np.dot(self.values, self.grid.cell_measures))

    @property
    def dx(self):
        return self.grid.dx

    @property
    def centers(self):
        return self.grid.centers

    def support_extent(self):
        """Leftmost and rightmost cell edges where the density exceeds
        ``EPS_SUPP``."""
        idx = np.flatnonzero(self.values > EPS_SUPP)
        if idx.size == 0:
            return (math.nan, math.nan)
        e = self.grid.edges
        return (float(e[idx[0]]), float(e[idx[-1] + 1]))

    def with_values(self, values):
        return GridDensity(self.grid, values)


@dataclass
class QuantileRep:
    """Monotone samples of the inverse distribution function.

    ``nodes[j]`` is the position below which mass ``j * w`` sits, with
    cell mass ``w = total_mass / n``.  Between consecutive nodes the
    represented density is the constant ``w / gap``.  Feasibility for the
    hard congestion constraint reads ``gap >= w`` everywhere.
    """

    total_mass: float
    nodes: np.ndarray

    def __post_init__(self):
        x = _locked(self.nodes)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need at least two nodes")
        if not self.total_mass > 0.0:  # NaN fails too
            raise ValueError("total mass must be positive")
        # compared, not subtracted, so no warning: NaN fails the comparison,
        # and a repeated infinite node (an inf - inf gap), which ordered
        # nodes can hold only at an end, fails the end checks
        if not ((x[1:] >= x[:-1]).all() and x[1] > -math.inf
                and x[-2] < math.inf):
            raise ValueError("nodes must be nondecreasing")
        self.nodes = x

    def __reduce__(self):
        # rebuild through the constructor, as GridSpec does, so the nodes
        # come back read-only
        return QuantileRep, (self.total_mass, self.nodes)

    @property
    def n(self):
        return self.nodes.size - 1

    @property
    def w(self):
        return self.total_mass / self.n

    @property
    def gaps(self):
        x = self.nodes
        return x[1:] - x[:-1]

    @property
    def max_density(self):
        """``w / min(gap)``; inf when a gap is zero."""
        g = self.gaps.min()
        return float(self.w / g) if g > 0.0 else math.inf

    def excess_mass(self):
        """Mass sitting above density one: sum of (w - gap)+ over gaps."""
        return float(np.maximum(self.w - self.gaps, 0.0).sum())


@dataclass
class Patch:
    """Finite union of disjoint intervals (1D) or centered annuli (radial)."""

    intervals: tuple
    dim: int = 1

    def __post_init__(self):
        iv = tuple((float(a), float(b)) for a, b in self.intervals)
        prev = -math.inf
        for a, b in iv:
            if not b > a:
                raise ValueError("intervals must have positive length")
            if not a >= prev:
                raise ValueError("intervals must be sorted and disjoint")
            prev = b
        if self.dim > 1 and iv and iv[0][0] < 0.0:
            raise ValueError("radial patches live on r >= 0")
        self.intervals = iv

    @property
    def volume(self):
        if self.dim == 1:
            return float(sum(b - a for a, b in self.intervals))
        w = _ball_volume(self.dim)
        return float(sum(w * (b ** self.dim - a ** self.dim)
                         for a, b in self.intervals))

    @property
    def endpoints(self):
        return np.array([e for ab in self.intervals for e in ab])

    def indicator(self, grid: GridSpec) -> GridDensity:
        """Cell-averaged indicator of the patch on the given grid."""
        return make_grid_density(
            {"boxes": [(a, b, 1.0) for a, b in self.intervals]}, grid)


# ---------------------------------------------------------------------------
# constructors and conversions
# ---------------------------------------------------------------------------

def make_grid_density(shape_spec, grid_spec: GridSpec) -> GridDensity:
    """Cell-average a sum of boxes onto a grid.

    ``shape_spec`` is ``{"boxes": [(a, b, height), ...]}``; in radial mode
    a box is the shell ``a <= r <= b``.  Boxes are averaged exactly over
    each cell's measure, so partially covered boundary cells carry the
    correct fraction and the total mass is exact.
    """
    boxes = shape_spec.get("boxes", ())
    e = grid_spec.edges
    d = grid_spec.dim
    # a box edge on a grid edge that linspace rounded leaves a covered
    # length of a few ulps in the cell beside it; that cell holds no mass,
    # and counting it would put the support one cell out
    sliver = 4.0 * np.spacing(max(abs(grid_spec.x_lo), abs(grid_spec.x_hi)))
    vals = np.zeros(grid_spec.n_cells)
    for a, b, h in boxes:
        if not b > a:
            raise ValueError("box must have positive length")
        if not math.isfinite(h):
            raise ValueError(f"box height must be finite, got {h}")
        if a < grid_spec.x_lo - 1e-12 or b > grid_spec.x_hi + 1e-12:
            raise ValueError("grid does not cover the requested shape")
        lo, hi = np.clip(e[:-1], a, b), np.clip(e[1:], a, b)
        covered = hi - lo if d == 1 else _ball_volume(d) * (hi ** d - lo ** d)
        covered[hi - lo <= sliver] = 0.0
        vals += h * covered / grid_spec.cell_measures
    rho = GridDensity(grid_spec, vals)
    if rho.mass <= 0.0:
        raise ValueError("shape has empty support")
    return rho


def to_quantile(rho: GridDensity, n: int) -> QuantileRep:
    """Invert the cell-wise CDF at ``n + 1`` equispaced mass levels.

    The density is constant inside each cell, so the CDF is piecewise
    linear and the inversion is exact and monotone by construction.
    ``nodes[0]``/``nodes[n]`` are the support edges.
    """
    if rho.grid.dim != 1:
        raise ValueError("quantile representation requires 1D geometry")
    if n < 2:
        raise ValueError("need at least two quantile cells")
    e = rho.grid.edges
    cdf = np.concatenate([[0.0], np.cumsum(rho.values * rho.grid.dx)])
    # invert the cumulative at its own floating-point total so the top
    # level lands exactly on the support edge, not past trailing zeros
    M = float(cdf[-1])
    if M <= 0.0:
        raise ValueError("cannot build quantiles of a zero-mass density")
    targets = np.linspace(0.0, M, n + 1)

    nodes = np.empty(n + 1)
    # interior + bottom levels: last edge with cdf <= t, so a level that
    # lands exactly on a zero-density run resolves to the run's right end
    idx = np.searchsorted(cdf, targets[:-1], side="right") - 1
    idx = np.clip(idx, 0, rho.grid.n_cells - 1)
    over = targets[:-1] - cdf[idx]
    dens = rho.values[idx]
    step = np.divide(over, dens, out=np.zeros_like(over), where=over > 0)
    nodes[:-1] = e[idx] + step
    # top level: first edge reaching full mass = right support edge
    itop = int(np.searchsorted(cdf, M, side="left"))
    nodes[-1] = e[min(itop, rho.grid.n_cells)]
    nodes = np.maximum.accumulate(nodes)
    return QuantileRep(M, nodes)


def to_grid(q: QuantileRep, grid_spec: GridSpec) -> GridDensity:
    """Cell-average the piecewise-constant quantile density onto a grid.

    Exact: the cell value is the CDF increment over the cell divided by
    the cell length, so total mass is preserved to round-off as long as
    the grid covers the support (checked).
    """
    if grid_spec.dim != 1:
        raise ValueError("quantile data reconstructs onto 1D grids")
    if q.nodes[0] < grid_spec.x_lo - 1e-12 or q.nodes[-1] > grid_spec.x_hi + 1e-12:
        raise ValueError("grid does not cover the quantile support")
    levels = np.linspace(0.0, q.total_mass, q.n + 1)
    cdf_at_edges = np.interp(grid_spec.edges, q.nodes, levels,
                             left=0.0, right=q.total_mass)
    vals = np.diff(cdf_at_edges) / grid_spec.dx
    vals = np.maximum(vals, 0.0)
    return GridDensity(grid_spec, vals)
