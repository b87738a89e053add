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

# 5-point Gauss-Legendre on [-1, 1]: exact for polynomials up to degree 9,
# which covers every catalog entry (max degree 4) with room for custom ones.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
# per-node factors of the endpoint derivatives: the weight share 0.5 * w_i
# and the endpoint weights la = (1 - xi) / 2, lb = (1 + xi) / 2
_GL_HALF_WEIGHTS = 0.5 * _GL_WEIGHTS
_GL_LA, _GL_LB = 0.5 * (1.0 - _GL_NODES), 0.5 * (1.0 + _GL_NODES)

_SCAN_POINTS = 10_000

KINDS = ("quadratic", "shifted-quadratic", "quartic-well", "linear",
         "custom-polynomial")


@dataclass
class Potential:
    """Drift potential :math:`\\Phi` with exact derivatives.

    Attributes
    ----------
    kind : str
        Catalog tag.
    params : dict
        Raw parameters the entry was built from.
    center : float
        Well center (0.0 when not meaningful for the kind).
    lam : float
        Greatest ``lam`` with ``Phi'' >= lam`` on the working domain
        (the semi-convexity modulus; exact for quadratic wells).
    positive_laplacian : bool
        Radial Laplacian strictly positive on the working domain.
    bounded_below : bool
        ``inf Phi`` finite on all of R; when true the stored coefficients
        are shifted so the infimum is exactly zero.
    bounded_laplacian : bool
        ``sup |Laplacian|`` finite on the working domain (always true for
        polynomials on a box; the value is in ``lap_sup``).
    domain : tuple
        Working domain the flags and scans refer to.
    dim : int
        Ambient dimension used for the (radial) Laplacian.
    """

    kind: str
    params: dict
    center: float
    coef: np.ndarray
    lam: float
    positive_laplacian: bool
    bounded_below: bool
    bounded_laplacian: bool
    lap_sup: float
    domain: tuple = (-8.0, 8.0)
    dim: int = 1
    _dcoef: np.ndarray = field(init=False, repr=False)
    _d2coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        self._dcoef = npoly.polyder(self.coef)
        self._d2coef = npoly.polyder(self.coef, 2)

    # -- pointwise evaluation ------------------------------------------------

    def value(self, x):
        return npoly.polyval(np.asarray(x, dtype=float), self.coef)

    def grad(self, x):
        return npoly.polyval(np.asarray(x, dtype=float), self._dcoef)

    def d2(self, x):
        return npoly.polyval(np.asarray(x, dtype=float), self._d2coef)

    def lap(self, x, dim=None):
        """Laplacian of the radial profile: ``Phi'' + (d-1) Phi'/r``.

        For ``dim == 1`` this is the plain second derivative.  The radial
        form requires a profile centered at the origin and is regularized
        at ``r = 0`` by its even-profile limit ``d * Phi''(0)``.
        """
        d = self.dim if dim is None else dim
        x = np.asarray(x, dtype=float)
        if d == 1:
            return self.d2(x)
        r = np.where(x == 0.0, 1.0, x)
        out = self.d2(x) + (d - 1) * self.grad(x) / r
        return np.where(x == 0.0, d * self.d2(0.0), out)

    # -- interval data -------------------------------------------------------

    def avg(self, a, b):
        """Exact average of the potential over ``[a, b]`` (vectorized).

        Gauss-Legendre with 5 nodes; exact for the polynomial catalog.
        Degenerate intervals fall back to the point value.
        """
        v = self.value(_gl_points(a, b))
        return 0.5 * _node_sum(_per_node(_GL_WEIGHTS, v) * v)

    def avg_grad(self, a, b):
        """Partial derivatives of ``avg(a, b)`` w.r.t. the endpoints."""
        g = self.grad(_gl_points(a, b))
        t = _per_node(_GL_HALF_WEIGHTS, g) * g * 0.5
        return (_node_sum(t * _per_node(1.0 - _GL_NODES, g)),
                _node_sum(t * _per_node(1.0 + _GL_NODES, g)))

    def avg_hess(self, a, b):
        """Second partials of ``avg(a, b)``: (d2_aa, d2_ab, d2_bb)."""
        c = self.d2(_gl_points(a, b))
        la, lb = _per_node(_GL_LA, c), _per_node(_GL_LB, c)
        t = _per_node(_GL_HALF_WEIGHTS, c) * c
        ta = t * la
        return _node_sum(ta * la), _node_sum(ta * lb), _node_sum(t * lb * lb)

    def grad_sup(self, lo=None, hi=None):
        """``max |Phi'|`` over ``[lo, hi]`` (defaults to the working domain)."""
        lo = self.domain[0] if lo is None else lo
        hi = self.domain[1] if hi is None else hi
        xs = np.linspace(lo, hi, 2048)
        return float(np.max(np.abs(self.grad(xs))))


def _gl_points(a, b):
    """The 5 Gauss-Legendre points of every ``[a, b]``, stacked on axis 0.

    One array for all nodes lets each polynomial be evaluated by a single
    Horner pass.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _GL_NODES.reshape((-1,) + (1,) * mid.ndim)


def _per_node(const, pts):
    """Per-node constants shaped to broadcast against a node-stacked array."""
    return const.reshape((-1,) + (1,) * (pts.ndim - 1))


def _node_sum(terms):
    """Sum over the node axis, node by node from 0.0.

    The fixed order and starting value keep the averages bit-identical to
    a plain per-node loop; ``np.sum`` promises neither.
    """
    acc = 0.0
    for row in terms:
        acc = acc + row
    return acc


def _scan(domain, n=_SCAN_POINTS):
    return np.linspace(domain[0], domain[1], n)


def _global_min_on_reals(coef):
    """Exact infimum of a polynomial over R, or -inf when unbounded below."""
    coef = np.trim_zeros(np.asarray(coef, dtype=float), "b")
    if coef.size <= 1:
        return float(coef[0]) if coef.size else 0.0
    deg = coef.size - 1
    if deg % 2 == 1 or coef[-1] <= 0:
        return -math.inf
    crit = npoly.polyroots(npoly.polyder(coef))
    crit = crit[np.abs(crit.imag) < 1e-10].real
    if crit.size == 0:
        return -math.inf
    return float(np.min(npoly.polyval(crit, coef)))


def potential_catalog(kind, params=None, domain=(-8.0, 8.0), dim=1, **kw):
    """Build a catalog potential with derivatives, modulus and flags.

    Parameters
    ----------
    kind : str
        One of ``quadratic``, ``shifted-quadratic``, ``quartic-well``,
        ``linear``, ``custom-polynomial``.
    params : dict, optional
        Kind-specific parameters; keyword arguments are merged in.
        quadratic / shifted-quadratic: ``q`` (curvature), ``c`` (center),
        and for the shifted kind an additive offset ``b`` that the (A2)-style
        normalization removes again.  quartic-well: ``a`` (quartic), ``b``
        (quadratic, may be negative for a double well), ``c``.  linear:
        ``g`` (slope).  custom-polynomial: ``coef`` low-order-first.
    domain : tuple
        Working domain for flag scans and the semi-convexity modulus.
    dim : int
        Ambient dimension for the Laplacian (radial profile for dim > 1).

    Raises
    ------
    ValueError
        Unknown kind or malformed parameters.  A quadratic with ``q <= 0``
        is *not* an error: it is returned with ``positive_laplacian=False``.
    """
    params = dict(params or {})
    params.update(kw)
    if kind in ("quadratic", "shifted-quadratic"):
        q = float(params.get("q", 1.0))
        c = float(params.get("c", 0.0))
        b = float(params.get("b", 0.0)) if kind == "shifted-quadratic" else 0.0
        # q/2 (x-c)^2 + b, expanded in x
        coef = np.array([0.5 * q * c * c + b, -q * c, 0.5 * q])
        center = c
    elif kind == "quartic-well":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 0.0))
        c = float(params.get("c", 0.0))
        if a <= 0:
            raise ValueError("quartic-well needs a positive quartic coefficient")
        # a/4 (x-c)^4 + b/2 (x-c)^2, expanded
        base = np.array([0.0, 0.0, 0.5 * b, 0.0, 0.25 * a])
        coef = base if c == 0.0 else _compose_shift(base, c)
        center = c
    elif kind == "linear":
        g = float(params.get("g", 1.0))
        coef = np.array([0.0, g])
        center = 0.0
    elif kind == "custom-polynomial":
        coef = np.asarray(params.get("coef", None), dtype=float)
        if coef is None or coef.ndim != 1 or coef.size < 1:
            raise ValueError("custom-polynomial needs a 1D 'coef' array")
        center = float(params.get("c", 0.0))
    else:
        raise ValueError(f"unknown potential kind {kind!r}")

    inf_phi = _global_min_on_reals(coef)
    bounded_below = math.isfinite(inf_phi)
    if bounded_below and inf_phi != 0.0:
        coef = coef.copy()
        coef[0] -= inf_phi

    pot = Potential(kind=kind, params=params, center=center, coef=coef,
                    lam=0.0, positive_laplacian=False,
                    bounded_below=bounded_below, bounded_laplacian=True,
                    lap_sup=0.0, domain=tuple(domain), dim=dim)

    xs = _scan(domain)
    if dim > 1:
        xs = xs[xs >= 0] if domain[0] < 0 else xs
    d2 = pot.d2(xs)
    lap = pot.lap(xs)
    pot.lam = float(np.min(d2))
    if kind in ("quadratic", "shifted-quadratic"):
        pot.lam = float(params.get("q", 1.0))  # constant curvature, exact
    pot.positive_laplacian = bool(np.min(lap) > 0.0)
    pot.lap_sup = float(np.max(np.abs(lap)))
    return pot


def _compose_shift(coef, c):
    """Coefficients of p(x - c) given those of p(x)."""
    out = np.zeros(1)
    # Horner in the shifted variable
    for a in coef[::-1]:
        out = npoly.polymul(out, np.array([-c, 1.0]))
        if out.size == 0:
            out = np.zeros(1)
        out[0] += a
    return out
