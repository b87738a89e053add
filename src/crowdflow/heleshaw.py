"""Quasi-static free-boundary patch dynamics.

Inside a patch the pressure ``u`` solves ``-Laplacian(u) = Laplacian(Phi)``
with zero boundary values, and every boundary point moves with velocity
``-grad(u + Phi)`` (from inside).  So ``u + Phi`` is the harmonic
extension of the boundary values of ``Phi``.  In 1D that is the chord of
the potential: both endpoints of an interval translate together with its
negated slope, and each interval keeps its length exactly.  Radial mode
(centered balls and annuli) takes the closed form ``A + B psi(r)``, with
``psi = log r`` (d = 2) or ``r^(2-d)`` (d >= 3).
"""

from __future__ import annotations

import math

from .model import Patch, _bisect, _check_positive, _snapshot_schedule
from .potentials import Potential, _horner


def _divided_difference(c, a, b):
    """``(p(b) - p(a)) / (b - a)`` for the polynomial ``p`` with float
    coefficients ``c``, low order first.

    Summed as ``sum_j c_j h_j`` with ``h_j = sum_{i<j} a^i b^(j-1-i)``,
    which subtracts no close values, so a thin ``[a, b]`` keeps its digits.
    """
    total, h, a_pow = 0.0, 0.0, 1.0
    for c_j in c[1:]:
        # h_j = b h_(j-1) + a^(j-1)
        h, a_pow = b * h + a_pow, a_pow * a
        total += c_j * h
    return total


def _rate_function(phi: Potential, dim: int):
    """The endpoint rates ``rate(a, b) -> (da/dt, db/dt)`` of one interval,
    on Python floats.

    1D: the negated chord slope, by the Horner kernel of ``Potential.value``.
    Radial: none on a ball, where the extension is the constant ``Phi(b)``;
    ``-B psi'`` on an annulus, with ``B`` the quotient of the divided
    differences of ``Phi`` and ``psi`` over ``[a, b]``.  The law is purely
    per-interval, so a Runge-Kutta stage point may overlap a neighbor.
    """
    c = phi._ccoef
    if dim == 1:
        def chord(a, b):
            v = -((_horner(c, b) - _horner(c, a)) / (b - a))
            return v, v
        return chord

    if abs(phi._dcoef[0]) > 1e-13:
        raise ValueError("radial profiles need a vanishing gradient "
                         "at the center")
    k = dim - 2
    r_k = (0.0,) * k + (1.0,)

    def harmonic(a, b):
        if a == 0.0:
            return 0.0, 0.0
        d_phi = _divided_difference(c, a, b)
        if k == 0:
            # psi = log r, psi' = 1 / r
            B = d_phi / (math.log1p((b - a) / a) / (b - a))
            return -B / a, -B / b
        # psi = r^-k, psi' = -k r^(-k-1); the divided difference of r^-k
        # is minus that of r^k over (ab)^k
        B = -d_phi * (a * b) ** k / _divided_difference(r_k, a, b)
        return k * B / a ** (k + 1), k * B / b ** (k + 1)
    return harmonic


def _rk4(ivs: tuple, dim: int, rate, dt: float):
    """One classical RK4 step of the intervals ``ivs`` (a tuple of
    ``(a, b)`` float pairs), or None if a radial stage point has its
    inner boundary below the center, where it has no velocity."""
    half, sixth = 0.5 * dt, dt / 6.0
    # only the innermost boundary of a radial patch can reach the center
    floor = 0.0 if dim > 1 else -math.inf
    out = []
    for a, b in ivs:
        ka1, kb1 = rate(a, b)
        if a + half * ka1 < floor:
            return None
        ka2, kb2 = rate(a + half * ka1, b + half * kb1)
        if a + half * ka2 < floor:
            return None
        ka3, kb3 = rate(a + half * ka2, b + half * kb2)
        if a + dt * ka3 < floor:
            return None
        ka4, kb4 = rate(a + dt * ka3, b + dt * kb3)
        out.append((a + sixth * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4),
                    b + sixth * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)))
        floor = -math.inf
    return tuple(out)


def heleshaw_run(patch0: Patch, phi: Potential, T: float, dt: float,
                 snapshot_times=None):
    """Track the patch boundary to horizon ``T`` with classical RK4.

    Steps are ``dt``, shortened to land on each time of
    ``model._snapshot_schedule(T, snapshot_times)``.  Intervals whose gap
    closes are merged into their union; the contact instant is located by
    bisection on the step fraction so the volume is continuous across the
    merge.  Returns ``(trajectory, volume_rows)``: ``(t, Patch)`` at
    t = 0, at each merge and at each snapshot time, and one
    ``(t, volume)`` per step.
    """
    if not patch0.intervals:
        raise ValueError("cannot evolve an empty patch")
    _check_positive("time step", "dt", dt)
    schedule = _snapshot_schedule(T, snapshot_times)
    if not phi.positive_laplacian:
        # the quasi-static law needs a strictly subharmonic potential on
        # the region swept by the patch; flagged at entry, not per step
        raise ValueError("patch dynamics require a potential with "
                         "positive Laplacian on the working domain")
    dim = patch0.dim
    rate = _rate_function(phi, dim)
    ivs = _merge_touching(patch0.intervals)
    t = 0.0
    patch = Patch(ivs, dim=dim)
    trajectory = [(0.0, patch)]
    volumes = [(0.0, patch.volume)]
    for t_snap in schedule:
        while t < t_snap - 1e-14:
            step = min(dt, t_snap - t)
            cand = _rk4(ivs, dim, rate, step)
            merged = not _admissible(cand, dim)
            if merged:
                # land exactly on the contact instant, then change topology:
                # touching intervals take their union; a radial hole whose
                # inner boundary reaches the center closes into a ball
                frac = _contact_fraction(ivs, dim, rate, step)
                cand = _rk4(ivs, dim, rate, step * frac)
                (a, b), rest = cand[0], cand[1:]
                if dim > 1 and a <= 1e-9 * b:
                    cand = ((0.0, b),) + rest
                cand = _merge_touching(cand)
                step *= frac
            t += step
            ivs = cand
            _assert_lengths(ivs)
            patch = Patch(ivs, dim=dim)
            if merged:
                trajectory.append((t, patch))
            volumes.append((t, patch.volume))
        t = t_snap
        trajectory.append((t, patch))
    return trajectory, volumes


def _admissible(ivs, dim: int) -> bool:
    """No overlapping intervals, no radial boundary below the center;
    None (an inadmissible RK4 stage) is not admissible."""
    return (ivs is not None
            and not any(nxt[0] < prev[1] for prev, nxt in zip(ivs, ivs[1:]))
            and not (dim > 1 and ivs[0][0] < 0.0))


def _contact_fraction(ivs, dim, rate, step):
    """The largest step fraction that 80 halvings from the admissible
    fraction 0 to the inadmissible 1 find admissible."""
    return _bisect(lambda f: _admissible(_rk4(ivs, dim, rate, step * f), dim),
                   0.0, 1.0, 80)[0]


def _merge_touching(ivs: tuple) -> tuple:
    """Join neighbours whose gap is at most ``1e-9`` of the largest
    endpoint magnitude (at least 1)."""
    tol = 1e-9 * max(1.0, max(abs(e) for ab in ivs for e in ab))
    out = [ivs[0]]
    for a, b in ivs[1:]:
        if a - out[-1][1] <= tol:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def _assert_lengths(ivs: tuple):
    if any(b - a <= 0.0 for a, b in ivs):
        raise AssertionError("interval collapsed; a volume-preserving front "
                             "step cannot produce this - inspect the potential")


def hausdorff_distance(p1: Patch, p2: Patch) -> float:
    """Exact Hausdorff distance between interval unions.

    The one-sided sup is attained either at an endpoint of the first set
    or at the point of the first set closest to the midpoint of a gap of
    the second; both candidate families come straight from interval
    arithmetic.
    """
    if not p1.intervals or not p2.intervals:
        raise ValueError("Hausdorff distance needs nonempty patches")
    return max(_one_sided(p1, p2), _one_sided(p2, p1))


def _point_to_patch(x: float, patch: Patch) -> float:
    best = math.inf
    for a, b in patch.intervals:
        if x < a:
            best = min(best, a - x)
        elif x > b:
            best = min(best, x - b)
        else:
            return 0.0
    return best


def _one_sided(pa: Patch, pb: Patch) -> float:
    candidates = list(pa.endpoints)
    gaps = []
    iv = pb.intervals
    for k in range(len(iv) - 1):
        gaps.append((iv[k][1], iv[k + 1][0]))
    for a, b in pa.intervals:
        for g1, g2 in gaps:
            if b >= g1 and a <= g2:
                candidates.append(min(max(0.5 * (g1 + g2), a), b))
    return max(_point_to_patch(x, pb) for x in candidates)

