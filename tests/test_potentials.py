import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from crowdflow.potentials import (_GL_WEIGHTS, _KIND_PARAMS, _SCAN_POINTS,
                                  Potential, _node_sum, gl_points,
                                  potential_catalog)


ALL_KINDS = [
    ("quadratic", {"q": 1.0, "c": 0.0}),
    ("quadratic", {"q": 2.5, "c": 0.7}),
    # 1.3/2 (x + 0.4)^2 + 2: the normalization removes the offset 2; the
    # id names the case by its shape
    pytest.param("custom-polynomial", {"coef": [2.104, 0.52, 0.65]},
                 id="shifted-quadratic-params2"),
    ("quartic-well", {"a": 1.0, "b": 0.5, "c": 0.2}),
    ("quartic-well", {"a": 1.0, "b": -1.0, "c": 0.0}),
    ("linear", {"g": 1.0}),
    ("custom-polynomial", {"coef": [0.3, -0.1, 0.5, 0.0, 0.125]}),
]


def _scan_min(phi):
    """Least value of the potential on a dense scan of its working domain."""
    return float(np.min(phi.value(np.linspace(*phi.domain, 16_001))))


@pytest.mark.parametrize("kind,params", ALL_KINDS + [
    ("custom-polynomial", {"coef": [0.7, -1.2, 0.4, 2.0, -0.9, 0.3, 0.25]}),
    ("custom-polynomial", {"coef": [0.5]}),
])
def test_pointwise_evaluation_bit_identical_to_polyval(kind, params, rng):
    # the Horner kernel keeps numpy's operation order exactly
    phi = potential_catalog(kind, params)
    pts = rng.uniform(-4.0, 4.0, (5, 64))
    pts[0, :3] = (0.0, -0.0, 1.0)
    for method, order in ((phi.value, 0), (phi.grad, 1), (phi.d2, 2)):
        coef = npoly.polyder(phi.coef, order)
        for x in (pts, pts[1], -1.25, 0.0):
            assert np.asarray(method(x)).tobytes() == \
                np.asarray(npoly.polyval(x, coef)).tobytes(), (method, x)


def _compose_shift(coef, c):
    """Coefficients of p(x - c) given those of p(x), built by polynomial
    products: the quartic well's shift before the catalog took it by
    Horner's rule in the shifted variable."""
    out = np.zeros(1)
    for a in coef[::-1]:
        out = npoly.polymul(out, np.array([-c, 1.0]))
        if out.size == 0:
            out = np.zeros(1)
        out[0] += a
    return out


def _reference_infimum(coef):
    """Infimum of the polynomial over R, evaluated with ``polyval``."""
    c = np.trim_zeros(coef, "b")
    if c.size <= 1:
        return float(c[0]) if c.size else 0.0
    if c.size % 2 == 0 or c[-1] <= 0:
        return -math.inf
    crit = npoly.polyroots(npoly.polyder(c))
    crit = crit[np.abs(crit.imag) < 1e-10].real
    return float(np.min(npoly.polyval(crit, c))) if crit.size else -math.inf


def _polyval_reference(kind, p, domain, dim):
    """``coef``, ``lam``, the Laplacian flag and the Laplacian of a catalog
    entry, as the catalog computed them outside ``Potential``: by
    ``polyval``, with ``_compose_shift`` for the quartic well."""
    if kind == "quadratic":
        q, c = p["q"], p["c"]
        coef = np.array([0.5 * q * c * c, -q * c, 0.5 * q])
    elif kind == "quartic-well":
        coef = np.array([0.0, 0.0, 0.5 * p["b"], 0.0, 0.25 * p["a"]])
        if p["c"] != 0.0:
            coef = _compose_shift(coef, p["c"])
    elif kind == "linear":
        coef = np.array([0.0, p["g"]])
    else:
        coef = np.array(p["coef"], dtype=float)
    low = _reference_infimum(coef)
    if math.isfinite(low) and low != 0.0:
        coef = coef.copy()
        coef[0] -= low
    dcoef, d2coef = npoly.polyder(coef), npoly.polyder(coef, 2)

    def lap(x):
        x = np.asarray(x, dtype=float)
        d2 = npoly.polyval(x, d2coef)
        if dim == 1:
            return d2
        r = np.where(x == 0.0, 1.0, x)
        out = d2 + (dim - 1) * npoly.polyval(x, dcoef) / r
        return np.where(x == 0.0, dim * npoly.polyval(0.0, d2coef), out)

    xs = np.linspace(domain[0], domain[1], _SCAN_POINTS)
    if dim > 1:
        xs = xs[xs >= 0] if domain[0] < 0 else xs
    lam = float(np.min(npoly.polyval(xs, d2coef)))
    return coef, lam, bool(np.min(lap(xs)) > 0.0), lap


def _draw_params(kind, rng):
    u = rng.uniform
    return {"quadratic": lambda: {"q": u(-2, 3), "c": u(-2, 2)},
            "quartic-well": lambda: {"a": u(0.1, 2), "b": u(-2, 2),
                                     "c": u(-3, 3) if u() < 0.8 else 0.0},
            "linear": lambda: {"g": u(-2, 2)},
            "custom-polynomial": lambda: {
                "coef": u(-1, 1, rng.integers(1, 8)).tolist()}}[kind]()


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_derived_data_bit_identical_to_polyval_reference(kind, rng):
    # the potential derives lam and the flag itself, by the Horner kernel;
    # coef, both and the Laplacian keep the bits of the polyval reference
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        lo = rng.uniform(-8.0, 2.0)
        domain = (lo, max(lo, 0.0) + rng.uniform(0.5, 6.0))
        params = _draw_params(kind, rng)
        phi = potential_catalog(kind, params, domain=domain, dim=dim)
        coef, lam, flag, lap = _polyval_reference(kind, params, domain, dim)
        assert phi.coef.tobytes() == coef.tobytes(), params
        assert np.float64(phi.lam).tobytes() == np.float64(lam).tobytes()
        assert phi.positive_laplacian is flag
        xs = np.concatenate(([0.0, -0.0], rng.uniform(*domain, 32)))
        for x in (xs, 0.0, float(xs[-1])):
            assert np.asarray(phi.lap(x)).tobytes() == \
                np.asarray(lap(x)).tobytes(), (params, x)


@pytest.mark.parametrize("domain", [(-math.inf, 8.0), (-8.0, math.inf),
                                    (math.nan, 8.0)])
def test_non_finite_domain_rejected_without_warning(domain):
    # an infinite end once made the modulus scan warn and return lam = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="domain must be finite"):
            potential_catalog("quadratic", q=1.0, domain=domain)
        with pytest.raises(ValueError, match="domain must be finite"):
            Potential([0.0, 0.0, 0.5], domain)


def test_derived_data_is_not_a_constructor_argument():
    phi = Potential([0.0, 0.0, 1.5], (-2.0, 2.0), 2)
    assert (phi.lam, phi.positive_laplacian) == (3.0, True)
    with pytest.raises(TypeError):
        Potential([0.0, 0.0, 1.5], lam=3.0)


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_gradient_matches_finite_differences(kind, params, rng):
    phi = potential_catalog(kind, params)
    x = rng.uniform(-4.0, 4.0, size=64)
    h = 1e-6
    fd = (phi.value(x + h) - phi.value(x - h)) / (2 * h)
    scale = np.maximum(np.abs(phi.grad(x)), 1.0)
    assert np.max(np.abs(phi.grad(x) - fd) / scale) < 1e-6


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_laplacian_matches_second_differences(kind, params, rng):
    phi = potential_catalog(kind, params)
    x = rng.uniform(-4.0, 4.0, size=64)
    h = 1e-4
    fd = (phi.value(x + h) - 2 * phi.value(x) + phi.value(x - h)) / h**2
    scale = np.maximum(np.abs(phi.lap(x)), 1.0)
    assert np.max(np.abs(phi.lap(x) - fd) / scale) < 1e-5


def test_quadratic_catalog_entry():
    phi = potential_catalog("quadratic", q=1.0, c=0.0)
    assert phi.value(0.0) == 0.0
    assert np.allclose(phi.value(np.array([1.0, -2.0])), [0.5, 2.0])
    assert np.allclose(phi.grad(np.array([1.0, -2.0])), [1.0, -2.0])
    assert phi.lam == 1.0
    assert phi.positive_laplacian
    assert _scan_min(phi) == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(phi.lap(np.linspace(*phi.domain, 101))))


def test_quadratic_radial_laplacian_is_dimension():
    for d in (1, 2, 3):
        phi = potential_catalog("quadratic", {"q": 1.0}, dim=d)
        r = np.array([0.0, 0.5, 1.5])
        assert np.allclose(phi.lap(r), d)


def test_quadratic_nonpositive_curvature_flags_not_error():
    phi = potential_catalog("quadratic", q=-0.5)
    assert not phi.positive_laplacian
    assert phi.lam == -0.5


def test_linear_is_unbounded_below():
    phi = potential_catalog("linear", g=1.0)
    assert phi.coef.tolist() == [0.0, 1.0]  # unbounded below: not shifted
    assert np.allclose(phi.value(np.array([0.0, 2.0])), [0.0, 2.0])
    assert np.allclose(phi.lap(np.array([0.3])), 0.0)


def test_shifted_quadratic_normalized_to_zero_infimum():
    # 1.3/2 (x + 0.4)^2 + 2, expanded
    phi = potential_catalog("custom-polynomial", coef=[2.104, 0.52, 0.65])
    assert _scan_min(phi) >= -1e-12
    assert abs(phi.value(-0.4)) < 1e-12  # offset removed at the well bottom


def test_quartic_modulus_matches_independent_scan():
    # independent oracle: dense scan of the analytic second derivative
    a, b, c = 1.0, -1.0, 0.0
    phi = potential_catalog("quartic-well", a=a, b=b, c=c)
    xs = np.linspace(*phi.domain, 10_000)
    d2 = 3.0 * a * (xs - c) ** 2 + b
    assert abs(phi.lam - d2.min()) < 1e-8
    # analytic minimum b at the center, up to the 1e4-point scan granularity
    assert phi.lam == pytest.approx(b, abs=1e-5)


def test_quartic_double_well_normalization():
    phi = potential_catalog("quartic-well", a=1.0, b=-1.0, c=0.0)
    # wells at +-1 with value 1/4 below the hump; infimum normalized to 0
    assert abs(phi.value(1.0)) < 1e-12
    assert abs(phi.value(-1.0)) < 1e-12
    assert phi.value(0.0) == pytest.approx(0.25, abs=1e-12)


def test_interval_average_exact_for_polynomials():
    phi = potential_catalog("quadratic", q=1.0)
    # integral of x^2/2 over [0,1] is 1/6
    assert phi.avg(gl_points(0.0, 1.0)) == pytest.approx(1.0 / 6.0, abs=1e-15)
    quart = potential_catalog("quartic-well", a=4.0, b=0.0)
    # x^4 over [0,1] integrates to 1/5
    assert quart.avg(gl_points(0.0, 1.0)) == pytest.approx(0.2, abs=1e-14)


def _interval_data(phi, a, b):
    """``avg``, ``avg_grad`` and ``avg_hess`` of ``phi`` on ``[a, b]``."""
    pts = gl_points(a, b)
    return (phi.avg(pts), *phi.avg_grad(pts), *phi.avg_hess(pts))


def test_avg_gradients_match_finite_differences(rng):
    phi = potential_catalog("quartic-well", a=1.0, b=0.5, c=0.1)
    a = rng.uniform(-2, 1, 16)
    b = a + rng.uniform(0.2, 2.0, 16)
    h = 1e-6
    _, da, db, haa, hab, _ = _interval_data(phi, a, b)
    assert np.allclose(da, (_interval_data(phi, a + h, b)[0]
                            - _interval_data(phi, a - h, b)[0]) / (2 * h),
                       atol=1e-7)
    assert np.allclose(db, (_interval_data(phi, a, b + h)[0]
                            - _interval_data(phi, a, b - h)[0]) / (2 * h),
                       atol=1e-7)
    daa, dba = _interval_data(phi, a + h, b)[1:3]
    dab, dbb = _interval_data(phi, a - h, b)[1:3]
    assert np.allclose(haa, (daa - dab) / (2 * h), atol=1e-6)
    assert np.allclose(hab, (dba - dbb) / (2 * h), atol=1e-6)


def _polymul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _exact_interval_data(coef, a, b):
    """Exact ``avg``, ``avg_grad`` and ``avg_hess`` of a polynomial on [a, b].

    With ``x = a + t (b - a)``, ``avg`` is the integral of ``p(x)`` over
    t in [0, 1]; the endpoint derivatives weight ``p'(x)`` by ``1 - t`` and
    ``t``, the second ones weight ``p''(x)`` by ``(1 - t)^2``, ``(1 - t) t``
    and ``t^2``.  Rational arithmetic keeps every value exact, a == b too.
    """
    p = [Fraction(c) for c in coef]
    a, d = Fraction(a), Fraction(b) - Fraction(a)

    def along(poly):  # poly(a + t d) as a polynomial in t
        out = [Fraction(0)]
        for c in reversed(poly):
            out = _polymul(out, [a, d])
            out[0] += c
        return out

    def integral(*factors):
        poly = [Fraction(1)]
        for f in factors:
            poly = _polymul(poly, f)
        return sum(c / (k + 1) for k, c in enumerate(poly))

    dp = [k * c for k, c in enumerate(p)][1:] or [Fraction(0)]
    d2p = [k * c for k, c in enumerate(dp)][1:] or [Fraction(0)]
    la, lb = [Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]
    g, c = along(dp), along(d2p)
    return (integral(along(p)), integral(la, g), integral(lb, g),
            integral(la, la, c), integral(la, lb, c), integral(lb, lb, c))


@pytest.mark.parametrize("kind,params", [
    ("quartic-well", {"a": 1.0, "b": -1.0, "c": 0.3}),
    # degree 9: the exactness limit of 5-point Gauss-Legendre
    ("custom-polynomial", {"coef": [0.7, -1.2, 0.4, 2.0, -0.9, 0.3,
                                    0.25, -0.6, 0.15, 0.05]}),
])
def test_interval_data_exact_against_antiderivatives(kind, params, rng):
    phi = potential_catalog(kind, params)
    a = rng.uniform(-2.0, 2.0, 24)
    b = a + rng.uniform(0.0, 2.0, 24)
    b[:4] = a[:4]  # degenerate intervals
    got = np.array(_interval_data(phi, a, b))
    for j in range(a.size):
        exact = _exact_interval_data(phi.coef, a[j], b[j])
        # size of the terms that cancel, as a scale for round-off
        r = max(abs(a[j]), abs(b[j]), 1.0)
        scale = sum((k + 1) ** 2 * abs(c) * r ** k
                    for k, c in enumerate(phi.coef))
        for value, ref in zip(got[:, j], exact):
            assert abs(value - float(ref)) <= 1e-13 * scale


def test_interval_data_shapes_match_pointwise_calls(rng):
    # endpoint vectors of n intervals give n values of every datum, each
    # equal to that of a one-interval call: the same per-point arithmetic
    phi = potential_catalog("quartic-well", a=1.0, b=0.5, c=0.1)
    a = rng.uniform(-2.0, 1.0, 12)
    b = a + rng.uniform(0.0, 2.0, 12)
    got = _interval_data(phi, a, b)
    for value in got:
        assert np.shape(value) == a.shape
    single = [_interval_data(phi, a[i:i + 1], b[i:i + 1])
              for i in range(a.size)]
    assert np.array_equal(np.array(got), np.array(single)[..., 0].T)


def _node_sum_loop(terms):
    """The per-node loop that ``_node_sum`` must reproduce bit for bit."""
    acc = 0.0
    for row in terms:
        acc = acc + row
    return acc


def _signed_terms(rng, shape):
    """Mixed magnitudes and signs make the rounding of a sum depend on its
    order, and signed zeros (whole columns of -0.0 among them) the sign of
    a zero sum."""
    terms = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
    terms[rng.random(shape) < 0.1] = 0.0
    terms[rng.random(shape) < 0.1] = -0.0
    if len(shape) > 1:
        terms[..., 0] = -0.0
    return terms


def test_node_sum_bit_identical_to_per_node_loop(rng):
    # terms of several shapes, among them the (5, n) point sets of n
    # intervals, and a stride-0 broadcast view
    a, b = rng.uniform(-2.0, 1.0, 4), rng.uniform(1.0, 2.0, 4)
    assert gl_points(a, b).shape == (5, 4)
    for shape in ((5,), (5, 64), (5, 3, 4), (5, 1)):
        for _ in range(100):
            terms = _signed_terms(rng, shape)
            assert np.asarray(_node_sum(terms, 0)).tobytes() == \
                np.asarray(_node_sum_loop(terms)).tobytes(), shape
        zeros = np.full(shape, -0.0)
        assert np.asarray(_node_sum(zeros, 0)).tobytes() == \
            np.asarray(_node_sum_loop(zeros)).tobytes(), shape
    column = rng.normal(size=(5, 1)) * 10.0 ** rng.integers(-8, 9, (5, 1))
    view = np.broadcast_to(column, (5, 7))
    assert _node_sum(view, 0).tobytes() == _node_sum_loop(view).tobytes()
    # and through the interval data, on the point sets themselves
    phi = potential_catalog("quartic-well", a=1.0, b=-1.0, c=0.3)
    for x0, x1 in ((a, b), (a[:1], b[:1])):
        pts = gl_points(x0, x1)
        v = phi.value(pts)
        w = _GL_WEIGHTS[:, None]
        assert np.asarray(phi.avg(pts)).tobytes() == \
            np.asarray(0.5 * _node_sum_loop(w * v)).tobytes()


def test_stacked_node_sum_bit_identical_to_per_node_loop(rng):
    # the derivatives reduce a (k, 5, ...) stack over axis 1 in one call:
    # each of the k sums must keep the bits of its own per-node loop,
    # whether the node axis is the last one (a scalar interval argument)
    # or rows are reduced over the interval axes after it
    for k in (2, 3):
        for shape in ((k, 5), (k, 5, 1), (k, 5, 64), (k, 5, 199),
                      (k, 5, 3, 4)):
            for _ in range(50):
                terms = _signed_terms(rng, shape)
                ref = np.stack([np.asarray(_node_sum_loop(t)) for t in terms])
                got = np.asarray(_node_sum(terms, 1))
                assert got.shape == ref.shape and \
                    got.tobytes() == ref.tobytes(), shape
            zeros = np.full(shape, -0.0)
            assert np.asarray(_node_sum(zeros, 1)).tobytes() == \
                np.stack([_node_sum_loop(t) for t in zeros]).tobytes(), shape


def test_hoisted_node_constants_bit_identical_to_per_call_formulas(rng):
    # the per-node constants are built once, not per call, and each
    # derivative is one stacked product and one reduce; the point sets
    # and the interval data keep the bits of the separate per-call
    # formulas, for endpoint vectors of two lengths, on a second call and
    # after the length changed.  A coefficient count of at most 3 is the
    # constant-Phi'' signal the JKO step Hessian reads
    nodes, weights = np.polynomial.legendre.leggauss(5)

    def per_node(const, pts):
        return const.reshape((-1,) + (1,) * (pts.ndim - 1))

    a, b = rng.uniform(-2.0, 1.0, 4), rng.uniform(1.0, 2.0, 4)
    shapes = ((a, b), (a[:1], b[:1]))
    cases = [getattr(case, "values", case) for case in ALL_KINDS]
    for kind, params in cases + [("custom-polynomial",
                                  {"coef": [0.2, -0.3, 0.8]})]:
        phi = potential_catalog(kind, params)
        assert (phi.coef.size <= 3) == (
            kind in ("quadratic", "linear")
            or len(params.get("coef", ())) == 3), kind
        # every length twice, so each is revisited after a change
        for x0, x1 in 2 * shapes:
            mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
            ref_pts = mid + half * nodes.reshape((-1,) + (1,) * np.ndim(mid))
            pts = gl_points(x0, x1)
            assert pts.tobytes() == ref_pts.tobytes()
            v, g, c = phi.value(pts), phi.grad(pts), phi.d2(pts)
            t = per_node(0.5 * weights, g) * g * 0.5
            la = per_node(0.5 * (1.0 - nodes), c)
            lb = per_node(0.5 * (1.0 + nodes), c)
            tc = per_node(0.5 * weights, c) * c
            ref = (0.5 * _node_sum_loop(per_node(weights, v) * v),
                   _node_sum_loop(t * per_node(1.0 - nodes, g)),
                   _node_sum_loop(t * per_node(1.0 + nodes, g)),
                   _node_sum_loop(tc * la * la), _node_sum_loop(tc * la * lb),
                   _node_sum_loop(tc * lb * lb))
            for _ in range(2):
                hess = phi.avg_hess(pts)
                got = (phi.avg(pts), *phi.avg_grad(pts), *hess)
                for r, y in zip(ref, got, strict=True):
                    assert np.shape(y) == np.shape(r), kind
                    assert np.asarray(y).tobytes() == \
                        np.asarray(r).tobytes(), kind


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_pickled_potential_rebuilds_without_its_held_hessian(kind, params):
    # a potential travels to a worker with its constructor arguments and
    # derived data only, and the copy's avg_hess has the same bits
    phi = potential_catalog(kind, params, domain=(-3.0, 3.0), dim=1)
    pts = gl_points(np.linspace(-1.0, 0.9, 50), np.linspace(-0.9, 1.0, 50))
    size = len(pickle.dumps(phi))
    hess = phi.avg_hess(pts)
    assert len(pickle.dumps(phi)) == size
    clone = pickle.loads(pickle.dumps(phi))
    assert (clone.coef.tobytes(), clone.domain, clone.dim, clone.lam,
            clone.positive_laplacian) == (phi.coef.tobytes(), phi.domain,
                                          phi.dim, phi.lam,
                                          phi.positive_laplacian)
    got = clone.avg_hess(pts)
    assert got.tobytes() == hess.tobytes()


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_potential_equality_is_by_value(kind, params):
    # a pickled copy equals its original, after an avg_hess call too; any
    # other coef, domain or dim does not, and no comparison raises
    phi = potential_catalog(kind, params, domain=(-3.0, 3.0))
    phi.avg_hess(gl_points(np.zeros(4), np.ones(4)))
    clone = pickle.loads(pickle.dumps(phi))
    assert clone == phi and phi == clone and not clone != phi
    assert phi == Potential(phi.coef.copy(), phi.domain, phi.dim)
    bumped = phi.coef.copy()
    bumped[0] += 1.0
    for other in (Potential(bumped, phi.domain, phi.dim),
                  Potential(np.append(phi.coef, 1.0), phi.domain, phi.dim),
                  Potential(phi.coef, (-3.0, 2.0), phi.dim),
                  Potential(phi.coef, phi.domain, 3)):
        assert phi != other and not other == phi
    assert phi.__eq__(phi.coef) is NotImplemented
    assert phi != phi.coef.tolist() and phi != kind


def test_potential_holds_a_read_only_copy_of_its_coefficients():
    # lam and the Horner coefficients are derived at construction, so coef
    # must not follow later writes to the caller's array; an unpickled
    # copy, as a worker receives it, stays read-only too
    c = np.array([0.0, 0.0, 0.5])
    phi = Potential(c)
    c[2] = 2.0
    assert phi.coef.tolist() == [0.0, 0.0, 0.5]
    assert phi == Potential([0.0, 0.0, 0.5]) and phi.lam == 1.0
    for p in (phi, pickle.loads(pickle.dumps(phi))):
        assert not p.coef.flags.writeable
        with pytest.raises(ValueError):
            p.coef[2] = 2.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        potential_catalog("cubic-nonsense", {})


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_parameter_the_kind_does_not_read_rejected(kind, params):
    # a misspelt name must not fall back to the default silently
    for bad in ({"qq": 5.0}, {"coef": [1.0]} if kind != "custom-polynomial"
                else {"q": 1.0}):
        with pytest.raises(ValueError, match=repr(next(iter(bad)))):
            potential_catalog(kind, {**params, **bad})


@pytest.mark.parametrize("lead", [5e-324, 1e-300, 1e-17])
def test_negligible_leading_coefficient_rejected_without_warning(lead):
    # the companion matrix of the derivative divides by the leading
    # coefficient; at round-off of the others it overflowed ("Array must
    # not contain infs or NaNs") instead of naming the parameter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'coef'.*negligible"):
            potential_catalog("custom-polynomial", domain=(-3, 3),
                              coef=[0.0, -0.26, 1.15, 8.5e-203, lead])
        # a small but resolvable leading coefficient is kept
        phi = potential_catalog("custom-polynomial", domain=(-3, 3),
                                coef=[0.0, -0.26, 1.15, 0.0, 1e-12])
    assert _scan_min(phi) == pytest.approx(0.0, abs=1e-6)
    assert phi.coef[-1] == 1e-12
