"""Drift potentials: polynomial catalog with exact derivatives and convexity data.

Every catalog entry is stored as a plain polynomial coefficient vector
(low order first), so values, gradients and Laplacians are exact, and
interval averages are exact via fixed-order Gauss-Legendre quadrature.
Assumption flags are evaluated on a finite working domain (the grid box
the simulation lives on), not on all of R^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import _locked

# 5-point Gauss-Legendre on [-1, 1]: exact for polynomials up to degree 9,
# which covers every catalog entry (max degree 4) with room for custom ones.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

# The rule's per-node constants, node axis first, shaped (5, 1) or
# (k, 5, 1) to broadcast against the (5, n) point set ``gl_points(a, b)``
_NODES = _GL_NODES[:, None]         # xi
_WEIGHTS = _GL_WEIGHTS[:, None]     # w_i
_HALF_WEIGHTS = 0.5 * _WEIGHTS      # w_i / 2, the weight share of d2_*
_QUARTER_WEIGHTS = 0.25 * _WEIGHTS  # w_i / 4, the weight share of d_a, d_b
_ENDS = np.stack([1.0 - _NODES, 1.0 + _NODES])  # d_a, d_b per node
# (la, la, lb) times (la, lb, lb) is d2_aa, d2_ab, d2_bb per node, with
# la = (1 - xi) / 2, lb = (1 + xi) / 2
_LA, _LB = 0.5 * (1.0 - _NODES), 0.5 * (1.0 + _NODES)
_HESS_LEFT, _HESS_RIGHT = np.stack([_LA, _LA, _LB]), np.stack([_LA, _LB, _LB])

_SCAN_POINTS = 10_000


@dataclass(eq=False)
class Potential:
    """Drift potential :math:`\\Phi` with exact derivatives.

    Attributes
    ----------
    coef : ndarray
        Polynomial coefficients, low order first; shifted so that a finite
        infimum over R is exactly zero.  A read-only copy of the argument:
        the derived data below are computed from it once.
    domain : tuple
        Working domain the flags and scans refer to; both ends finite.
    dim : int
        Ambient dimension used for the (radial) Laplacian.
    lam : float
        Derived: the least ``Phi''`` on a ``_SCAN_POINTS`` scan of the
        working domain (the semi-convexity modulus; exact for quadratic
        wells).
    positive_laplacian : bool
        Derived: the Laplacian ``lap`` is strictly positive on that scan.

    A radial profile (``dim > 1``) is scanned on ``r >= 0`` only.
    """

    coef: np.ndarray
    domain: tuple = (-8.0, 8.0)
    dim: int = 1
    lam: float = field(init=False)
    positive_laplacian: bool = field(init=False)
    _ccoef: tuple = field(init=False, repr=False)
    _dcoef: tuple = field(init=False, repr=False)
    _d2coef: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lo, hi = self.domain = tuple(self.domain)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"potential domain must be finite, got "
                             f"{self.domain}")
        self.coef = _locked(self.coef)
        # Python floats: the Horner kernel multiplies them into arrays
        # without the per-coefficient cost of numpy scalars
        self._ccoef = tuple(self.coef.tolist())
        self._dcoef = tuple(npoly.polyder(self.coef).tolist())
        self._d2coef = tuple(npoly.polyder(self.coef, 2).tolist())
        xs = np.linspace(lo, hi, _SCAN_POINTS)
        if self.dim > 1 and lo < 0:
            xs = xs[xs >= 0]
        # a quadratic's constant curvature q comes out of the scan exactly
        self.lam = float(np.min(self.d2(xs)))
        self.positive_laplacian = bool(np.min(self.lap(xs)) > 0.0)

    def __eq__(self, other):
        # equal constructor arguments, ``coef`` by value; the derived data
        # follows from them.  A generated ``__eq__`` would compare ``coef``
        # inside a tuple, which raises for an array
        if not isinstance(other, Potential):
            return NotImplemented
        return (self.domain == other.domain and self.dim == other.dim
                and np.array_equal(self.coef, other.coef))

    def __reduce__(self):
        # rebuild through the constructor, as GridSpec does, so the
        # coefficients come back read-only
        return Potential, (self.coef, self.domain, self.dim)

    # -- pointwise evaluation ------------------------------------------------

    def value(self, x):
        return _horner(self._ccoef, np.asarray(x, dtype=float))

    def grad(self, x):
        return _horner(self._dcoef, np.asarray(x, dtype=float))

    def d2(self, x):
        return _horner(self._d2coef, np.asarray(x, dtype=float))

    def lap(self, x):
        """Laplacian of the radial profile: ``Phi'' + (d-1) Phi'/r``.

        For ``dim == 1`` this is the plain second derivative.  The radial
        form requires a profile centered at the origin and is regularized
        at ``r = 0`` by its even-profile limit ``d * Phi''(0)``.
        """
        d, d2 = self.dim, self.d2(x)
        if d == 1:
            return d2
        x = np.asarray(x, dtype=float)
        r = np.where(x == 0.0, 1.0, x)
        out = d2 + (d - 1) * self.grad(x) / r
        return np.where(x == 0.0, d * _horner(self._d2coef, 0.0), out)

    # -- interval data -------------------------------------------------------
    #
    # The interval methods take the (5, n) Gauss-Legendre point set
    # ``gl_points(a, b)`` of the n intervals ``[a[i], b[i]]``, so a caller
    # that needs several of them at one set of intervals builds the points
    # once.

    def avg(self, pts):
        """Exact average of the potential over each ``[a, b]`` (vectorized).

        Gauss-Legendre with 5 nodes; exact for the polynomial catalog.
        Degenerate intervals fall back to the point value.
        """
        return 0.5 * _node_sum(_WEIGHTS * self.value(pts), 0)

    def avg_grad(self, pts):
        """Partial derivatives of ``avg`` w.r.t. the endpoints ``a``, ``b``,
        stacked on axis 0."""
        # w_i / 4 * g has the bits of (w_i / 2 * g) / 2: halving is exact
        # above the subnormal range
        return _node_sum(_QUARTER_WEIGHTS * self.grad(pts) * _ENDS, 1)

    def avg_hess(self, pts):
        """Second partials of ``avg``, ``(d2_aa, d2_ab, d2_bb)`` stacked on
        axis 0."""
        return _node_sum(_HALF_WEIGHTS * self.d2(pts) * _HESS_LEFT
                         * _HESS_RIGHT, 1)

    def grad_sup(self):
        """``max |Phi'|`` over the working domain."""
        xs = np.linspace(self.domain[0], self.domain[1], 2048)
        return float(np.max(np.abs(self.grad(xs))))


def _horner(c, x):
    """``numpy.polynomial.polynomial.polyval(x, c)`` without its set-up:
    the package's one polynomial evaluator.

    The same operations in the same order, so the result is bit-identical:
    polyval starts from ``c[-1] + x * 0``, which times ``x`` is ``c[-1] * x``
    for finite ``x``.  ``c`` is a sequence of floats, low order first.
    """
    if len(c) == 1:
        return c[0] + x * 0
    acc = c[-2] + c[-1] * x
    for ci in c[-3::-1]:
        acc = ci + acc * x
    return acc


def gl_points(a, b):
    """The 5 Gauss-Legendre points of the intervals ``[a[i], b[i]]`` of the
    endpoint vectors ``a`` and ``b``: a (5, n) array, one row per node.

    One array for all nodes lets each polynomial be evaluated by a single
    Horner pass.
    """
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _node_sum(terms, axis):
    """Sum over the node axis ``axis``, node by node from 0.0.

    The fixed order and starting value keep the averages bit-identical to
    a plain per-node loop.  numpy reduces a C-contiguous array over an
    axis that is not its last one row by row, and the node axis of a
    ``(5, n)`` or ``(k, 5, n)`` stack is not, so one ``add.reduce`` from
    ``initial=0.0`` adds in the loop's order.
    """
    return np.add.reduce(terms, axis=axis, initial=0.0)


def _global_min_on_reals(coef):
    """Exact infimum of a polynomial over R, or -inf when unbounded below."""
    coef = np.trim_zeros(np.asarray(coef, dtype=float), "b")
    if coef.size <= 1:
        return float(coef[0]) if coef.size else 0.0
    deg = coef.size - 1
    if deg % 2 == 1 or coef[-1] <= 0:
        return -math.inf
    dcoef = npoly.polyder(coef)
    # the derivative's companion matrix divides by its leading coefficient;
    # one at round-off of the others overflows it, or leaves roots of no
    # meaning
    rest = float(np.max(np.abs(dcoef[:-1])))
    if dcoef[-1] <= np.finfo(float).eps * rest:
        raise ValueError(f"potential 'coef' = {coef.tolist()}: the leading "
                         f"coefficient {coef[-1]:g} is negligible against "
                         "the others; drop it")
    crit = npoly.polyroots(dcoef)
    crit = crit[np.abs(crit.imag) < 1e-10].real
    if crit.size == 0:
        return -math.inf
    return float(np.min(_horner(tuple(coef.tolist()), crit)))


# the parameters each catalog kind reads; any other name is an error
_KIND_PARAMS = {
    "quadratic": ("q", "c"),
    "quartic-well": ("a", "b", "c"),
    "linear": ("g",),
    "custom-polynomial": ("coef",),
}


def potential_catalog(kind, params=None, domain=(-8.0, 8.0), dim=1, **kw):
    """Build a catalog potential with derivatives, modulus and flags.

    Parameters
    ----------
    kind : str
        One of ``quadratic``, ``quartic-well``, ``linear``,
        ``custom-polynomial``.
    params : dict, optional
        Kind-specific parameters; keyword arguments are merged in.
        quadratic: ``q`` (curvature), ``c`` (center).  quartic-well: ``a``
        (quartic), ``b`` (quadratic, may be negative for a double well),
        ``c``.  linear: ``g`` (slope).  custom-polynomial: ``coef``
        low-order-first.
    domain : tuple
        Working domain for flag scans and the semi-convexity modulus.
    dim : int
        Ambient dimension for the Laplacian (radial profile for dim > 1).

    Raises
    ------
    ValueError
        Unknown kind, a parameter the kind does not read, malformed
        parameters, or a domain end that is not finite.  A quadratic with ``q <= 0`` is *not* an error: it is
        returned with ``positive_laplacian=False``.
    """
    params = dict(params or {})
    params.update(kw)
    if kind not in _KIND_PARAMS:
        raise ValueError(f"unknown potential kind {kind!r}")
    unread = sorted(set(params) - set(_KIND_PARAMS[kind]))
    if unread:
        raise ValueError(f"potential kind {kind!r} has no parameter "
                         f"{', '.join(map(repr, unread))}; it reads "
                         f"{', '.join(_KIND_PARAMS[kind])}")
    if kind == "quadratic":
        q = float(params.get("q", 1.0))
        c = float(params.get("c", 0.0))
        # q/2 (x-c)^2, expanded in x
        coef = np.array([0.5 * q * c * c, -q * c, 0.5 * q])
    elif kind == "quartic-well":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 0.0))
        c = float(params.get("c", 0.0))
        if a <= 0:
            raise ValueError("quartic-well needs a positive quartic coefficient")
        # a/4 (x-c)^4 + b/2 (x-c)^2, expanded
        base = np.array([0.0, 0.0, 0.5 * b, 0.0, 0.25 * a])
        # Horner in the shifted variable x - c
        coef = base if c == 0.0 else _horner(
            tuple(base.tolist()), npoly.Polynomial([-c, 1.0])).coef
    elif kind == "linear":
        g = float(params.get("g", 1.0))
        coef = np.array([0.0, g])
    else:  # custom-polynomial
        coef = np.asarray(params.get("coef"), dtype=float)
        if coef.ndim != 1 or coef.size < 1:
            raise ValueError("custom-polynomial needs a 1D 'coef' array")

    inf_phi = _global_min_on_reals(coef)
    if math.isfinite(inf_phi) and inf_phi != 0.0:
        coef = coef.copy()
        coef[0] -= inf_phi
    return Potential(coef, domain, dim)
