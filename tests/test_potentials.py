from fractions import Fraction

import numpy as np
import pytest

from crowdflow.potentials import potential_catalog


ALL_KINDS = [
    ("quadratic", {"q": 1.0, "c": 0.0}),
    ("quadratic", {"q": 2.5, "c": 0.7}),
    ("shifted-quadratic", {"q": 1.3, "c": -0.4, "b": 2.0}),
    ("quartic-well", {"a": 1.0, "b": 0.5, "c": 0.2}),
    ("quartic-well", {"a": 1.0, "b": -1.0, "c": 0.0}),
    ("linear", {"g": 1.0}),
    ("custom-polynomial", {"coef": [0.3, -0.1, 0.5, 0.0, 0.125]}),
]


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
    assert phi.positive_laplacian and phi.bounded_below and phi.bounded_laplacian


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
    assert not phi.bounded_below
    assert np.allclose(phi.value(np.array([0.0, 2.0])), [0.0, 2.0])
    assert np.allclose(phi.lap(np.array([0.3])), 0.0)


def test_shifted_quadratic_normalized_to_zero_infimum():
    phi = potential_catalog("shifted-quadratic", q=1.3, c=-0.4, b=2.0)
    assert phi.bounded_below
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
    assert phi.avg(0.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    quart = potential_catalog("quartic-well", a=4.0, b=0.0)
    # x^4 over [0,1] integrates to 1/5
    assert quart.avg(0.0, 1.0) == pytest.approx(0.2, abs=1e-14)


def test_avg_gradients_match_finite_differences(rng):
    phi = potential_catalog("quartic-well", a=1.0, b=0.5, c=0.1)
    a = rng.uniform(-2, 1, 16)
    b = a + rng.uniform(0.2, 2.0, 16)
    h = 1e-6
    da, db = phi.avg_grad(a, b)
    assert np.allclose(da, (phi.avg(a + h, b) - phi.avg(a - h, b)) / (2 * h),
                       atol=1e-7)
    assert np.allclose(db, (phi.avg(a, b + h) - phi.avg(a, b - h)) / (2 * h),
                       atol=1e-7)
    haa, hab, hbb = phi.avg_hess(a, b)
    daa, _ = phi.avg_grad(a + h, b)
    dab, _ = phi.avg_grad(a - h, b)
    assert np.allclose(haa, (daa - dab) / (2 * h), atol=1e-6)
    _, dba = phi.avg_grad(a + h, b)
    _, dbb = phi.avg_grad(a - h, b)
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
    got = np.array([phi.avg(a, b), *phi.avg_grad(a, b), *phi.avg_hess(a, b)])
    for j in range(a.size):
        exact = _exact_interval_data(phi.coef, a[j], b[j])
        # size of the terms that cancel, as a scale for round-off
        r = max(abs(a[j]), abs(b[j]), 1.0)
        scale = sum((k + 1) ** 2 * abs(c) * r ** k
                    for k, c in enumerate(phi.coef))
        for value, ref in zip(got[:, j], exact):
            assert abs(value - float(ref)) <= 1e-13 * scale


def test_interval_data_shapes_match_pointwise_calls(rng):
    phi = potential_catalog("quartic-well", a=1.0, b=0.5, c=0.1)
    a = rng.uniform(-2.0, 1.0, (3, 4))
    b = a + rng.uniform(0.0, 2.0, (3, 4))
    scalar = [[(phi.avg(ai, bi), *phi.avg_grad(ai, bi), *phi.avg_hess(ai, bi))
               for ai, bi in zip(ra, rb)] for ra, rb in zip(a, b)]
    scalar = np.moveaxis(np.array(scalar), -1, 0)
    for x0, x1, ref in ((a[0, 0], b[0, 0], scalar[:, 0, 0]),
                        (a[1], b[1], scalar[:, 1]),
                        (a, b, scalar),
                        (a[:, :1], b, None)):
        got = (phi.avg(x0, x1), *phi.avg_grad(x0, x1), *phi.avg_hess(x0, x1))
        shape = np.broadcast_shapes(np.shape(x0), np.shape(x1))
        for value in got:
            assert np.shape(value) == shape
        if ref is not None:
            # same per-point arithmetic whatever the input shape
            assert np.array_equal(np.array(got), ref)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        potential_catalog("cubic-nonsense", {})
