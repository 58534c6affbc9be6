"""Independent oracles for the test suite.

Everything here is deliberately brute-force or quadrature-based so it shares
no code path with the library implementations it checks. The exceptions are
two flow schemes composed from the public curve primitives, against which the
tangent-angle flow kernel is compared: ``reference_step`` (explicit Euler)
and ``spectral_step``, the exponential spectral step with a resample after
every step that the tangent-angle kernel replaced. ``reference_flow`` is the
driver loop both ran under, with its sample-count decimation.
``resample_reference`` is the arclength resample written out on (n, 2)
arrays; both steps use it in place of ``resample_arclength``.
``random_convex_polygon`` draws the test polygons that several modules share.
``rounded_square_reference`` places a rounded square's samples one at a time.
``chord_ends_by_eval`` takes a chord's two ends from ``SupportFunction.eval``,
the public series evaluator, against which the chord search's one-row
evaluator is compared.
"""

import numpy as np
from scipy.integrate import quad

# Frozen value of the 2x1 ellipse perimeter, computed by ellipse_perimeter()
# below; test_curves asserts the oracle still reproduces it.
ELLIPSE_2_1_PERIMETER = 9.688448220547675


def ellipse_perimeter(a: float, b: float) -> float:
    """Adaptive quadrature of the arclength integrand."""
    value, _ = quad(lambda u: np.hypot(a * np.sin(u), b * np.cos(u)), 0.0, 2.0 * np.pi,
                    limit=200, epsabs=1e-13, epsrel=1e-13)
    return value


def ellipse_curvature(a: float, b: float, u: float) -> float:
    """kappa = a*b / (a^2 sin^2 u + b^2 cos^2 u)^(3/2) at parameter u."""
    return a * b / (a * a * np.sin(u) ** 2 + b * b * np.cos(u) ** 2) ** 1.5


def osculating_circle_curvature(p_prev, p, p_next) -> float:
    """Unsigned curvature of the circle through three points."""
    a = np.hypot(*(p - p_prev))
    b = np.hypot(*(p_next - p))
    c = np.hypot(*(p_next - p_prev))
    cross = (p[0] - p_prev[0]) * (p_next[1] - p_prev[1]) - (p[1] - p_prev[1]) * (
        p_next[0] - p_prev[0]
    )
    if a * b * c == 0.0:
        return 0.0
    return abs(2.0 * cross) / (a * b * c)


def grid_inradius(points: np.ndarray, resolution: int = 200) -> float:
    """Brute-force inradius: best min-distance-to-edges over a dense grid."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    nxt = np.roll(points, -1, axis=0)
    e = nxt - points
    elen = np.hypot(e[:, 0], e[:, 1])
    # inward normals for a CCW polygon
    inner = np.column_stack([-e[:, 1], e[:, 0]]) / elen[:, None]
    best = 0.0
    for x in xs:
        for y in ys:
            d = (inner * (np.array([x, y]) - points)).sum(axis=1)
            best = max(best, d.min())
    return best


def brute_support(points: np.ndarray, count: int) -> np.ndarray:
    """Support samples max_i <x_i, u(theta_k)> over every vertex, at
    theta_k = 2*pi*k/count: the dense vertex-by-angle table, reduced."""
    theta = 2.0 * np.pi * np.arange(count) / count
    table = np.outer(points[:, 0], np.cos(theta)) + np.outer(points[:, 1], np.sin(theta))
    return table.max(axis=0)


def rounded_square_reference(n: int, side: float, corner_radius: float) -> np.ndarray:
    """The samples of ``shapes.rounded_square``, placed one at a time: each
    arclength position lies on a side or on the corner arc that follows it."""
    s = 0.5 * side - corner_radius
    straight = 2.0 * s
    arc = 0.5 * np.pi * corner_radius
    perimeter = 4.0 * (straight + arc)
    corners = np.array([[s, s], [-s, s], [-s, -s], [s, -s]])
    base_angles = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    pts = []
    for u in perimeter * np.arange(n) / n:
        quadrant, local = divmod(u, straight + arc)
        quadrant = int(quadrant)
        if local < straight:
            ang = base_angles[quadrant]
            nx, ny = np.cos(ang), np.sin(ang)  # outward normal of the side
            tx, ty = -ny, nx
            start = np.array([nx, ny]) * (s + corner_radius) + np.array([tx, ty]) * (-s)
            pts.append(start + local * np.array([tx, ty]))
        else:
            ang = base_angles[quadrant] + (local - straight) / corner_radius
            pts.append(corners[quadrant] + corner_radius * np.array([np.cos(ang), np.sin(ang)]))
    return np.array(pts)


def random_convex_polygon(n: int, seed: int) -> np.ndarray:
    """A convex n-gon around the origin, counter-clockwise: sorted random
    angles on a random ellipse, rotated, then moved by at most 0.2 a side."""
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    a, b = rng.uniform(0.5, 2.0, 2)
    rot = rng.uniform(0.0, np.pi)
    turn = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
    return np.column_stack([a * np.cos(ang), b * np.sin(ang)]) @ turn.T + rng.uniform(-0.2, 0.2, 2)


def brute_enclosing_radius(points: np.ndarray) -> float:
    """Minimal enclosing circle by checking all pairs and triples (small n)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = None

    def covers(cx, cy, r):
        return np.all(np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= r * (1 + 1e-12))

    for i in range(n):
        for j in range(i + 1, n):
            cx, cy = (pts[i] + pts[j]) / 2.0
            r = np.hypot(*(pts[i] - pts[j])) / 2.0
            if covers(cx, cy, r) and (best is None or r < best):
                best = r
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ax, ay = pts[i]
                bx, by = pts[j]
                cx, cy = pts[k]
                d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
                if d == 0.0:
                    continue
                ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
                      + (cx * cx + cy * cy) * (ay - by)) / d
                uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
                      + (cx * cx + cy * cy) * (bx - ax)) / d
                r = np.hypot(ax - ux, ay - uy)
                if covers(ux, uy, r) and (best is None or r < best):
                    best = r
    return best


def chord_ends_by_eval(p, theta: float) -> np.ndarray:
    """The (2, 2) oval points with normals at theta and theta + pi, from
    ``p.eval`` of p and p' at both angles: x = p cos - p' sin, y = p sin + p' cos."""
    ends = np.array([theta, theta + np.pi])
    h, dh = p.eval(ends), p.eval(ends, order=1)
    c, s = np.cos(ends), np.sin(ends)
    return np.column_stack([h * c - dh * s, h * s + dh * c])


def parseval_cosine_area(mean: float, coefficients: dict) -> float:
    """Area 0.5 * integral (p^2 - p'^2) for p = mean + sum a_k cos + b_k sin."""
    total = np.pi * mean * mean
    for k, (a, b) in coefficients.items():
        total += 0.5 * np.pi * (1.0 - k * k) * (a * a + b * b)
    return total


def segments_cross(p1, p2, p3, p4) -> bool:
    """Independent segment intersection predicate (orientation based)."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    def between(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and between(p1, p2, p3):
        return True
    if o2 == 0 and between(p1, p2, p4):
        return True
    if o3 == 0 and between(p3, p4, p1):
        return True
    if o4 == 0 and between(p3, p4, p2):
        return True
    return False


def polygon_is_simple(points: np.ndarray) -> bool:
    """All-pairs non-adjacent edge intersection test."""
    n = len(points)
    nxt = np.roll(points, -1, axis=0)
    for i in range(n):
        for j in range(i + 1, n):
            if (i + 1) % n == j or (j + 1) % n == i:
                continue
            if segments_cross(points[i], nxt[i], points[j], nxt[j]):
                return False
    return True


def reference_step(curve, dt_factor=0.25, dt_max=np.inf):
    """One explicit Euler step of the flow, the library's kernel before the
    spectral step replaced it, composed from the public primitives: dt is
    dt_factor * (mean chord)^2 / max(1, max |kappa|) held under the stability
    bound 0.4 * (min chord)^2 / max |kappa|, then the samples move by
    kappa * n * dt and are resampled by ``resample_reference`` to 1e-8 in 20
    passes. Returns the new curve and the dt taken.
    """
    from curveflow import ClosedCurve, signed_curvature

    frame = signed_curvature(curve)
    chords = curve.chord_lengths()
    h_mean, h_min = float(np.mean(chords)), float(np.min(chords))
    k_max = float(np.max(np.abs(frame.curvature)))
    bound = 0.4 * h_min * h_min / max(k_max, 1e-300)
    dt = min(dt_factor * h_mean * h_mean / max(1.0, k_max), 0.98 * bound, dt_max)
    moved = frame.points + dt * frame.curvature[:, None] * frame.normal
    pts, _chords, passes = resample_reference(moved, curve.n, 1e-8, 20)
    assert passes <= 20
    return ClosedCurve(pts), dt


def resample_reference(points: np.ndarray, m: int, rel_tol: float, max_passes: int):
    """The arclength resample on (n, 2) arrays: place m samples at equal
    cumulative-chord positions on the polygon, then slide their parameters by
    monotone interpolation of the cumulative chords until every chord is
    within rel_tol of the mean. Each pass gathers points and edges by row and
    adds frac times the edge; chords are hypot of the two columns. Returns the
    samples, their chords and the passes taken (max_passes + 1 on a miss).
    """
    points = np.asarray(points, dtype=float)
    edges = np.roll(points, -1, axis=0) - points
    seglen = np.hypot(edges[:, 0], edges[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    total = cum[-1]
    fractions = np.arange(m) / m
    t = total * fractions
    for npass in range(max_passes + 1):
        s = np.mod(t, total)
        idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seglen) - 1)
        frac = (s - cum[idx]) / (cum[idx + 1] - cum[idx])
        pts = points.take(idx, axis=0) + frac[:, None] * edges.take(idx, axis=0)
        diff = np.roll(pts, -1, axis=0) - pts
        chords = np.hypot(diff[:, 0], diff[:, 1])
        mean = chords.sum() / m
        if np.max(np.abs(chords - mean)) <= rel_tol * mean:
            return pts, chords, npass
        u = np.concatenate([[0.0], np.cumsum(chords)])
        t = np.interp(u[m] * fractions, u, np.append(t, total))
    return pts, chords, max_passes + 1


def spectral_step(curve, dt_factor=2.0, dt_max=np.inf):
    """One exponential spectral step of the flow, the library's kernel before
    the tangent-angle kernel replaced it, composed from numpy.fft, the public
    primitives and ``resample_reference``: dt = dt_factor * h^2 for mean
    chord h, capped at dt_max; the predictor multiplies the spectrum of
    x + iy by exp(-dt * 4 sin^2(pi k/m) / h^2), the corrector by the same
    with h^2 replaced by h * h1 (h1 the predictor's mean chord); then the
    samples are resampled to equal chords to 1e-8 in 20 passes. Returns the
    new curve and the dt taken.
    """
    from curveflow import ClosedCurve

    m = curve.n
    h = float(curve.chord_lengths().sum()) / m
    dt = min(dt_factor * h * h, dt_max)
    spectrum = np.fft.fft(curve.points[:, 0] + 1j * curve.points[:, 1])
    s = -dt * 4.0 * np.sin(np.pi * np.arange(m) / m) ** 2

    def curve_of(factor):
        z = np.fft.ifft(spectrum * np.exp(s / factor))
        return ClosedCurve(np.column_stack((z.real, z.imag)))

    h1 = float(curve_of(h * h).chord_lengths().sum()) / m
    pts, _chords, passes = resample_reference(curve_of(h * h1).points, m, 1e-8, 20)
    assert passes <= 20
    return ClosedCurve(pts), dt


def reference_flow(curve, t_max, step, area_floor_rel=0.0):
    """The driver loop of the two reference steps, to t_max or until the area
    falls to ``area_floor_rel`` of its start: before each step the sample
    count halves, by taking every other sample, once the length has shrunk to
    half the count at the starting spacing (and the count stays >= 32).
    Returns the times, areas, lengths, sample counts and the final curve.
    """
    from curveflow import ClosedCurve, length, signed_area

    target_spacing = length(curve) / curve.n
    area_floor = area_floor_rel * signed_area(curve)
    t, times, areas, lengths, counts = 0.0, [0.0], [signed_area(curve)], [length(curve)], [curve.n]
    while (np.isinf(t_max) or t_max - t > 1e-12 * t_max) and areas[-1] > area_floor:
        m = curve.n
        if m % 2 == 0 and m // 2 >= 32 and lengths[-1] / target_spacing <= m / 2:
            curve = ClosedCurve(curve.points[::2])
        curve, dt = step(curve, dt_max=t_max - t)
        t += dt
        times.append(t)
        areas.append(signed_area(curve))
        lengths.append(length(curve))
        counts.append(curve.n)
    return times, areas, lengths, counts, curve
