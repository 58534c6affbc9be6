"""Tests for polar tangential coordinates and support-function operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveflow import (
    ClosedCurve,
    NotAnOval,
    NotConvex,
    OriginOutside,
    SupportFunction,
    area_from_support,
    cauchy_length,
    curve_from_support,
    is_convex,
    length,
    signed_area,
    support_from_curve,
    write_support_csv,
)
from curveflow import shapes

import oracles


def oval(count, coeffs, mean=1.0):
    return shapes.cosine_oval_support(count, coeffs, mean=mean)


class TestSupportFromCurve:
    def test_unit_circle_constant(self):
        p = support_from_curve(shapes.circle(4096), 256)
        assert np.max(np.abs(p.values - 1.0)) < 1e-6

    def test_translated_circle_adds_first_harmonic(self):
        p = support_from_curve(shapes.circle(4096, center=(0.3, 0.0)), 256)
        expected = 1.0 + 0.3 * np.cos(p.theta)
        assert np.max(np.abs(p.values - expected)) < 1e-6

    def test_ellipse_apex_support(self):
        p = support_from_curve(shapes.ellipse(4096), 256)
        assert p.values[0] == pytest.approx(2.0, abs=1e-12)
        expected = np.hypot(2.0 * np.cos(p.theta), np.sin(p.theta))
        assert np.max(np.abs(p.values - expected)) < 1e-5

    def test_not_convex(self):
        with pytest.raises(NotConvex):
            support_from_curve(shapes.l_hexagon(), 64)

    def test_origin_outside(self):
        with pytest.raises(OriginOutside):
            support_from_curve(shapes.circle(256, center=(5.0, 0.0)), 64)

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError):
            support_from_curve(shapes.circle(256), 65)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            support_from_curve(shapes.circle(256), 8)


def _subdivided(corners, per_side):
    """The polygon through ``corners`` with each side cut into equal pieces."""
    t = np.arange(per_side)[:, None] / per_side
    nxt = np.roll(corners, -1, axis=0)
    return np.vstack([a + t * (b - a) for a, b in zip(corners, nxt)])


class TestSupportAgainstOracle:
    """The angle search against the dense max over every vertex."""

    @pytest.mark.parametrize("points, count", [
        *[(oracles.random_convex_polygon(n, seed), count)
          for n, seed, count in [(3, 0, 64), (17, 1, 128), (200, 2, 256), (2048, 3, 512)]],
        (_subdivided(np.array([[1.0, 0.2], [-0.4, 1.1], [-0.9, -0.6], [0.6, -1.0]]), 25), 256),
        (_subdivided(np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]), 16), 128),
        (shapes.circle(8).points, 1024),
        (shapes.circle(4096).points, 64),
        (shapes.ellipse(512, center=(1.7, 0.3)).points, 256),
    ], ids=["random-3", "random-17", "random-200", "random-2048", "collinear-quad",
            "collinear-square", "8-gon-1024", "circle4096-64", "off-centre"])
    @pytest.mark.parametrize("clockwise", [False, True], ids=["ccw", "cw"])
    def test_matches_dense_max(self, points, count, clockwise):
        if clockwise:
            points = points[::-1].copy()
        p = support_from_curve(ClosedCurve(points), count)
        expected = oracles.brute_support(points, count)
        assert np.all(np.abs(p.values - expected) <= 4 * np.finfo(float).eps * expected)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("share, turn", [(0.5, -2.0), (1.0, 2.0)], ids=["middle", "closing"])
    def test_near_duplicate_vertex(self, n, share, turn):
        # a sample 1e-11 before vertex k + 1, whose tiny edge turns 2 rad off
        # the edge before it, within is_convex's tolerance: in the middle the
        # normal angles step back where the binary search probes first; on
        # the closing edge they run past a full turn
        points = shapes.circle(n).points
        k = int(share * n) - 1
        e = points[(k + 1) % n] - points[k]
        phi = np.arctan2(e[1], e[0]) + turn
        extra = points[(k + 1) % n] - 1e-11 * np.array([np.cos(phi), np.sin(phi)])
        points = np.vstack([points[:k + 1], extra, points[k + 1:]])
        assert is_convex(ClosedCurve(points))
        for count in (64, 256):
            p = support_from_curve(ClosedCurve(points), count)
            expected = oracles.brute_support(points, count)
            assert np.all(np.abs(p.values - expected) <= 4 * np.finfo(float).eps * expected)


class TestCurveFromSupport:
    def test_constant_gives_unit_circle(self):
        c = curve_from_support(oval(64, {}))
        radii = np.hypot(c.points[:, 0], c.points[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 1e-10

    def test_roundtrip_mild_oval(self):
        p = oval(256, {3: (0.1, 0.0)})
        back = support_from_curve(curve_from_support(p), 256)
        assert np.max(np.abs(back.values - p.values)) < 1e-4

    def test_not_an_oval(self):
        # p + p'' = 1 - 1.6 cos(3 theta) dips to -0.6
        with pytest.raises(NotAnOval):
            curve_from_support(oval(256, {3: (0.2, 0.0)}))

    def test_centered_mode_rejected(self):
        with pytest.raises(ValueError, match="centered"):
            curve_from_support(oval(64, {}), mode="centered")

    def test_curve_is_built_once_per_support(self):
        p = shapes.random_oval_support(256, 1)
        assert curve_from_support(p) is curve_from_support(p, mode="spectral")

    def test_reconstruction_is_ccw_convex(self):
        from curveflow import is_convex, turning_number

        c = curve_from_support(shapes.random_oval_support(512, 3))
        assert signed_area(c) > 0
        assert is_convex(c)
        assert turning_number(c) == 1


class TestCauchyLength:
    def test_constant(self):
        assert cauchy_length(oval(64, {})) == pytest.approx(2 * np.pi, rel=1e-15)

    def test_third_harmonic_integrates_away(self):
        assert cauchy_length(oval(256, {3: (0.1, 0.0)})) == pytest.approx(
            2 * np.pi, abs=1e-10
        )

    def test_ellipse_support_against_quadrature(self):
        # dense polygon + fine grid keep both discretization errors ~1e-7
        p = support_from_curve(shapes.ellipse(32768), 4096)
        assert cauchy_length(p) == pytest.approx(
            oracles.ELLIPSE_2_1_PERIMETER, abs=1e-6 * oracles.ELLIPSE_2_1_PERIMETER
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_polygon_length(self, seed):
        p = shapes.random_oval_support(1024, seed, offset=0.1)
        c = curve_from_support(p)
        assert cauchy_length(p) == pytest.approx(length(c), rel=1e-5)


class TestArea:
    def test_unit_disk(self):
        assert area_from_support(oval(64, {})) == pytest.approx(np.pi, rel=1e-14)

    def test_third_harmonic_parseval(self):
        coeffs = {3: (0.1, 0.0)}
        p = oval(256, coeffs)
        expected = oracles.parseval_cosine_area(1.0, coeffs)
        assert expected == pytest.approx(0.96 * np.pi, abs=1e-12)
        assert area_from_support(p) == pytest.approx(expected, abs=1e-8)

    def test_translation_invariance(self):
        p = oval(256, {1: (0.3, 0.0)})
        assert area_from_support(p) == pytest.approx(np.pi, abs=1e-8)

    def test_matches_shoelace(self):
        p = shapes.random_oval_support(4096, 11, offset=0.1)
        a_support = area_from_support(p)
        a_shoelace = signed_area(curve_from_support(p))
        assert a_support == pytest.approx(a_shoelace, rel=1e-6)


class TestCoordinateIdentities:
    def test_tangent_direction_depends_only_on_angle(self):
        # x'(theta) is parallel to (-sin, cos): support-side tangents at theta
        # and theta + pi are exactly antiparallel
        theta = np.linspace(0, np.pi, 7)
        t1 = np.column_stack([-np.sin(theta), np.cos(theta)])
        t2 = np.column_stack([-np.sin(theta + np.pi), np.cos(theta + np.pi)])
        assert np.max(np.abs(t1 + t2)) < 1e-8

    def test_edge_directions_follow_tangent_formula(self):
        p = shapes.random_oval_support(1024, 9)
        c = curve_from_support(p)
        e = c.edges()
        e = e / np.hypot(e[:, 0], e[:, 1])[:, None]
        mid = p.theta + p.step / 2.0
        expected = np.column_stack([-np.sin(mid), np.cos(mid)])
        assert np.max(np.hypot(*(e - expected).T)) < 1e-4

    def test_first_derivative_identity(self):
        # -x sin + y cos = p' both against the construction and analytically
        coeffs = {2: (0.05, 0.02), 3: (0.02, -0.03)}
        p = oval(2048, coeffs)
        c = curve_from_support(p)
        theta = p.theta
        lhs = -c.points[:, 0] * np.sin(theta) + c.points[:, 1] * np.cos(theta)
        analytic = np.zeros_like(theta)
        for k, (a, b) in coeffs.items():
            analytic += -a * k * np.sin(k * theta) + b * k * np.cos(k * theta)
        assert np.max(np.abs(lhs - analytic)) < 1e-6

    def test_derivative_of_reconstruction(self):
        # x' = -(p + p'') sin, y' = (p + p'') cos, checked by centered differences
        p = shapes.random_oval_support(4096, 13)
        c = curve_from_support(p)
        pts = c.points
        diff = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2.0 * p.step)
        rad = p.curvature_radius()
        expected = rad[:, None] * np.column_stack([-np.sin(p.theta), np.cos(p.theta)])
        assert np.max(np.hypot(*(diff - expected).T)) < 1e-5

    @settings(max_examples=20, deadline=None)
    @given(cx=st.floats(-0.3, 0.3), cy=st.floats(-0.3, 0.3))
    def test_translation_covariance(self, cx, cy):
        base = shapes.circle(2048)
        p0 = support_from_curve(base, 128)
        p1 = support_from_curve(base.translated((cx, cy)), 128)
        shift = cx * np.cos(p0.theta) + cy * np.sin(p0.theta)
        assert np.max(np.abs(p1.values - (p0.values + shift))) < 1e-12
        assert cauchy_length(p1) == pytest.approx(cauchy_length(p0), rel=1e-12)


class TestSpectralEval:
    def test_band_limited_exactness(self):
        coeffs = {2: (0.08, -0.03), 4: (0.01, 0.02)}
        p = oval(128, coeffs)
        rng = np.random.default_rng(0)
        thetas = rng.uniform(0, 2 * np.pi, 32)
        exact = np.ones_like(thetas)
        d1 = np.zeros_like(thetas)
        for k, (a, b) in coeffs.items():
            exact += a * np.cos(k * thetas) + b * np.sin(k * thetas)
            d1 += -a * k * np.sin(k * thetas) + b * k * np.cos(k * thetas)
        assert np.max(np.abs(p.eval(thetas) - exact)) < 1e-13
        assert np.max(np.abs(p.eval(thetas, order=1) - d1)) < 1e-12

    @staticmethod
    def _eval_uncached(p, theta, order):
        coef = np.fft.rfft(p.values) / p.count
        k = np.arange(coef.size)
        coef = coef * (1j * k) ** order
        if order % 2:
            coef[-1] = 0.0
        phases = np.exp(1j * np.multiply.outer(theta, k))
        weights = np.full(coef.size, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        return np.real(phases @ (weights * coef))

    def test_cached_spectrum_matches_recomputation(self):
        p = shapes.random_oval_support(512, 3, offset=0.15)
        thetas = np.random.default_rng(1).uniform(0, 2 * np.pi, 16)
        for _ in range(2):  # first call fills the cache, second reads it
            for order in (0, 1, 2):
                assert np.array_equal(p.eval(thetas, order=order),
                                      self._eval_uncached(p, thetas, order))
                assert p.eval(0.7, order=order) == self._eval_uncached(p, 0.7, order)

    @pytest.mark.parametrize("order", [-1, 1.5])
    @pytest.mark.parametrize("method", ["derivative", "eval"])
    def test_bad_order_rejected(self, method, order):
        # -1 would be NaN everywhere (0 ** -1 at k = 0); 1.5 a fractional derivative
        p = shapes.random_oval_support(64, 0)
        call = p.derivative if method == "derivative" else lambda order: p.eval(0.7, order)
        with pytest.raises(ValueError, match="non-negative integer"):
            call(order)


class TestValidationAndIO:
    def test_positive_samples_required(self):
        with pytest.raises(ValueError):
            SupportFunction(np.full(64, -1.0))

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            SupportFunction(np.ones(65))

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ValueError, match="support samples must be a 1-D array"):
            SupportFunction(np.ones((16, 2)))

    @pytest.mark.parametrize("count", [8, 14, 15, 65])
    def test_one_grid_rule_for_samples_and_extraction(self, count):
        message = f"^grid count must be even and >= 16, got {count}$"
        with pytest.raises(ValueError, match=message):
            SupportFunction(np.ones(count))
        with pytest.raises(ValueError, match=message):
            support_from_curve(shapes.circle(256), count)

    def test_csv_roundtrip(self, tmp_path):
        p = shapes.random_oval_support(128, 2)
        path = tmp_path / "support.csv"
        write_support_csv(p, path)
        back = np.loadtxt(path, delimiter=",")[:, 1]
        assert np.array_equal(back, p.values)
