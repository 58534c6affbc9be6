"""Tests for the inradius/circumradius inequality chain."""

import json
import logging
import math
from dataclasses import asdict
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import curveflow.bonnesen
from curveflow import (
    ClosedCurve,
    IsoperimetricViolation,
    NotConvex,
    SolverFailed,
    bonnesen_chain,
    bonnesen_roots,
    circumradius,
    curve_from_support,
    inradius,
    minimal_enclosing_circle,
    resample_arclength,
    signed_area,
)
from curveflow import shapes

import oracles


class TestInradius:
    def test_unit_circle(self):
        r, center = inradius(shapes.circle(2048))
        assert r == pytest.approx(1.0, abs=1e-4)
        assert np.hypot(*center) < 1e-4

    def test_ellipse_minor_axis(self):
        c = shapes.ellipse(2048)
        r, _ = inradius(c)
        assert r == pytest.approx(1.0, abs=1e-3)
        assert r == pytest.approx(oracles.grid_inradius(c.points, 120), abs=2e-2)

    def test_unit_square(self):
        r, center = inradius(shapes.square(1.0))
        assert r == pytest.approx(0.5, abs=1e-9)
        assert np.max(np.abs(center)) < 1e-9

    def test_not_convex(self):
        with pytest.raises(NotConvex):
            inradius(shapes.l_hexagon())

    def test_lp_failure_is_numerical(self, monkeypatch):
        failed = SimpleNamespace(success=False, message="iteration limit reached")
        monkeypatch.setattr(curveflow.bonnesen, "linprog", lambda *a, **k: failed)
        with pytest.raises(SolverFailed, match="iteration limit"):
            inradius(shapes.circle(64))

    # a centre that every edge of the unit circle violates
    _TOO_FAR = SimpleNamespace(success=True, x=np.array([0.0, 0.0, 2.0]), nit=1)

    def test_later_round_failure_is_numerical(self, monkeypatch):
        failed = SimpleNamespace(success=False, message="iteration limit reached")
        results = iter([self._TOO_FAR, failed])
        monkeypatch.setattr(curveflow.bonnesen, "linprog", lambda *a, **k: next(results))
        with pytest.raises(SolverFailed, match="iteration limit"):
            inradius(shapes.circle(4096))

    def test_round_cap_ends_in_a_solve_on_every_edge(self, monkeypatch):
        rows = []

        def too_far(*args, A_ub, **kwargs):
            rows.append(len(A_ub))
            return self._TOO_FAR

        monkeypatch.setattr(curveflow.bonnesen, "linprog", too_far)
        r, center = inradius(shapes.circle(4096))
        # 64 rounds from the pivot's three edges, 16 more each, then all 4096
        assert rows == [3 + 16 * k for k in range(64)] + [4096]
        assert r == 2.0 * 4.0  # the unit circle is solved at a quarter scale
        assert np.array_equal(center, [0.0, 0.0])


def _full_lp(points):
    """Inradius, centre and inward unit normals from one LP over every edge."""
    from scipy.optimize import linprog

    e = np.roll(points, -1, axis=0) - points
    orient = np.sign(np.sum(points[:, 0] * np.roll(points[:, 1], -1)
                            - np.roll(points[:, 0], -1) * points[:, 1]))
    inward = orient * np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    res = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([-inward, np.ones(len(points))]),
                  b_ub=-np.sum(inward * points, axis=1),
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    assert res.success
    return res.x[2], res.x[:2], inward


class TestConstraintGeneration:
    """The inradius LP solved on a growing subset of the edges."""

    @staticmethod
    def _check(points, resolution=80):
        r, center = inradius(ClosedCurve(points))
        r_full, _, inward = _full_lp(points)
        # both are HiGHS vertices, exact only to its feasibility tolerance:
        # on these polygons' clustered short edges that is ~1e-13 relative
        assert r == pytest.approx(r_full, rel=1e-12)
        slack = np.sum(inward * (center - points), axis=1)
        assert slack.min() >= r * (1.0 - 1e-12)
        ccw = points[::-1] if signed_area(ClosedCurve(points)) < 0.0 else points
        lower = oracles.grid_inradius(ccw, resolution)
        # the distance to the edges is 1-Lipschitz, and some grid node lies
        # within half a cell diagonal of the centre
        half_diagonal = np.hypot(*np.ptp(points, axis=0)) / (2.0 * (resolution - 1))
        assert lower <= r * (1.0 + 1e-12)
        assert r - lower <= half_diagonal

    @pytest.mark.parametrize("n", [3, 64, 128, 129, 2048])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("clockwise", [False, True], ids=["ccw", "cw"])
    def test_random_polygons(self, n, seed, clockwise):
        points = oracles.random_convex_polygon(n, seed)
        self._check(points[::-1].copy() if clockwise else points)

    def test_thin_ellipse(self):
        self._check(shapes.ellipse(2048, a=1.0, b=0.01).points)

    @pytest.mark.parametrize("curve", [
        shapes.ellipse(1024).rotated(4 * math.pi / 199),
        shapes.ellipse(1024, a=100.0).rotated(0.5),
    ], ids=["ellipse", "ellipse_100_to_1"])
    def test_rounds_on_a_rotated_ellipse(self, monkeypatch, curve):
        # a centrally symmetric basis pairs antiparallel edges: these take 7
        # and 8 HiGHS solves, so the LP rounds run on real input
        solves = []
        real = curveflow.bonnesen.linprog

        def counting(*args, **kwargs):
            solves.append(len(kwargs["A_ub"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(curveflow.bonnesen, "linprog", counting)
        self._check(curve.points)
        assert len(solves) > 1, solves

    def test_circle_65536(self):
        self._check(shapes.circle(65536).points, resolution=21)

    def test_certified_where_the_full_lp_is_not(self):
        # at HiGHS's default 1e-7 feasibility the full LP's centre for this
        # oval sits 3.8e-8 relative inside an edge, and its r is 1.8e-8 high
        p = shapes.random_oval_support(512, 1179821995, offset=0.1)
        points = resample_arclength(curve_from_support(p), 2048).points
        r, center = inradius(ClosedCurve(points))
        r_full, center_full, inward = _full_lp(points)
        assert np.sum(inward * (center - points), axis=1).min() >= r * (1.0 - 1e-12)
        assert np.sum(inward * (center_full - points), axis=1).min() <= r * (1.0 + 1e-12)
        assert r <= r_full * (1.0 + 1e-12)

    @pytest.mark.parametrize("scale, offset", [(1e-6, 0.0), (1e6, 0.0), (1.0, 1e6), (1e-6, 1.0)])
    def test_scale_and_offset(self, scale, offset):
        for n in (64, 2048):  # the first solve takes the pivot's edges, later ones add more
            points = oracles.random_convex_polygon(n, 0)
            r, _ = inradius(ClosedCurve(points))
            moved = points * scale + offset
            r_moved, center_moved = inradius(ClosedCurve(moved))
            # the moved samples are rounded to the resolution of their coordinates
            resolution = 4 * np.finfo(float).eps * np.abs(moved).max()
            assert r_moved == pytest.approx(r * scale, rel=1e-12, abs=resolution)
            e = np.roll(moved, -1, axis=0) - moved
            inward = np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
            slack = np.sum(inward * (center_moved - moved), axis=1)
            assert slack.min() >= r_moved * (1.0 - 1e-12) - resolution

    def test_start_that_is_no_basis(self, monkeypatch):
        # two start directions pick the same edge of this triangle, so the
        # pivot finds no circle and the LP rounds add the third edge
        points = oracles.random_convex_polygon(3, 4)
        assert TestPivot._run(monkeypatch, ClosedCurve(points))[4] is None
        self._check(points)

    def test_clustered_vertices(self):
        # the 2000 bottom edges all touch the incircle: the pivot's basis is
        # one of them, the top and the right side, which leave the centre
        # free along the midline up to the left side, the fourth edge seeded
        bottom = np.column_stack([np.linspace(-1.0, 1.0, 2001)[:-1], np.full(2000, -1.0)])
        points = np.vstack([bottom, [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]])
        self._check(points)
        assert inradius(ClosedCurve(points))[0] == pytest.approx(1.0, rel=1e-12)


class TestPivot:
    """The exact active-set pivot that seeds the inradius LP."""

    @staticmethod
    def _run(monkeypatch, curve):
        """inradius's r, and the pivot's constraints, edges and circle."""
        seen = []
        pivot = curveflow.bonnesen._incircle_basis

        def spy(o, b):
            seen.append((o, b, pivot(o, b)))
            return seen[-1][2]

        monkeypatch.setattr(curveflow.bonnesen, "_incircle_basis", spy)
        r, _ = inradius(curve)
        (o, b, (edges, circle)), = seen
        return r, o, b, edges, circle

    _OVALS = [resample_arclength(curve_from_support(
        shapes.random_oval_support(512, s, offset=0.1)), 2048) for s in range(20)]

    @pytest.mark.parametrize("curve", _OVALS + [
        shapes.circle(65536), shapes.ellipse(2048, a=1.0, b=0.01), shapes.square(1.0),
        shapes.rounded_square(256)],
        ids=[f"oval{s}" for s in range(20)] + ["circle65536", "thin_ellipse", "square",
                                               "rounded_square"])
    def test_one_solve_per_curve(self, monkeypatch, curve):
        calls = []
        real = curveflow.bonnesen.linprog

        def counting(*args, **kwargs):
            calls.append(len(kwargs["A_ub"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(curveflow.bonnesen, "linprog", counting)
        inradius(curve)
        assert len(calls) == 1, calls

    @staticmethod
    def _certify(monkeypatch, points):
        r, o, b, edges, circle = TestPivot._run(monkeypatch, ClosedCurve(points))
        x, y, r_exact = circle
        # primal: the circle fits inside every edge line
        assert (b - o @ (x, y)).min() >= r_exact * (1.0 - 1e-12)
        # dual: the basis weights, cofactors of the column of ones, are not negative
        u = o[edges[:3]]
        w = u[[1, 2, 0], 0] * u[[2, 0, 1], 1] - u[[1, 2, 0], 1] * u[[2, 0, 1], 0]
        assert (w / w.sum()).min() >= -1e-12
        # so r_exact is the optimum, and HiGHS's r in the same frame matches it
        scale = 2.0 ** math.frexp(float(np.ptp(points, axis=0).max()))[1]
        assert r / scale == pytest.approx(r_exact, rel=1e-13)

    @pytest.mark.parametrize("n", [64, 129, 2048])
    @pytest.mark.parametrize("seed", range(10))
    def test_certifies_the_lp(self, monkeypatch, n, seed):
        self._certify(monkeypatch, oracles.random_convex_polygon(n, seed))

    def test_certifies_where_the_full_lp_is_not(self, monkeypatch):
        p = shapes.random_oval_support(512, 1179821995, offset=0.1)
        self._certify(monkeypatch, resample_arclength(curve_from_support(p), 2048).points)


def _enclosing_circle_over_all_held(points):
    """The Elzinga-Hearn loop over every pair and triple of the rim and the new
    point, rim-only circles included: the reference that
    ``minimal_enclosing_circle``, trying only circles through the new point,
    must reproduce tuple for tuple."""
    bonnesen = curveflow.bonnesen
    pts = np.asarray(points, dtype=float)
    first = tuple(pts[0].tolist())
    far = np.argmax(np.hypot(pts[:, 0] - first[0], pts[:, 1] - first[1]))
    rim = [first, tuple(pts[far].tolist())]
    circle = bonnesen._circle_from_two(*rim)
    while True:
        x, y, r = circle
        d = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
        q = int(np.argmax(d))
        if d[q] <= r * bonnesen._EPS_FACTOR:
            return circle
        held = rim + [tuple(pts[q].tolist())]
        best = None
        for k, build in ((2, bonnesen._circle_from_two), (3, bonnesen._circle_from_three)):
            for sub in combinations(held, k):
                c = build(*sub)
                if c is not None and (best is None or c[2] < best[0][2]) and all(
                        math.hypot(a - c[0], b - c[1]) <= c[2] * bonnesen._EPS_FACTOR
                        for a, b in held):
                    best = c, list(sub)
        if best is None or best[0][2] <= r:
            return circle
        circle, rim = best


class TestCircumradius:
    def test_unit_circle(self):
        r, _ = circumradius(shapes.circle(2048))
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_ellipse_major_axis(self):
        r, center = circumradius(shapes.ellipse(2048))
        assert r == pytest.approx(2.0, abs=1e-6)
        assert np.hypot(*center) < 1e-6

    def test_square_half_diagonal(self):
        r, _ = circumradius(shapes.square(1.0))
        assert r == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(60))
    def test_against_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(14, 2))
        x, y, r = minimal_enclosing_circle(pts)
        assert r == pytest.approx(oracles.brute_enclosing_radius(pts), rel=1e-12)
        assert np.all(np.hypot(pts[:, 0] - x, pts[:, 1] - y) <= r * (1 + 1e-12))

    @pytest.mark.parametrize("seed", range(200))
    def test_circles_through_the_new_point_suffice(self, seed):
        # normal and box-uniform clouds of 30-300 points; the brute-force
        # oracle runs on the hull's vertices, whose enclosing circle is the cloud's
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 301))
        draw = rng.normal if seed % 2 else rng.uniform
        pts = draw(size=(n, 2)) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0, 2)
        x, y, r = circle = minimal_enclosing_circle(pts)
        assert circle == _enclosing_circle_over_all_held(pts)
        hull = pts[ConvexHull(pts).vertices]
        assert r == pytest.approx(oracles.brute_enclosing_radius(hull), rel=1e-12)
        assert np.all(np.hypot(pts[:, 0] - x, pts[:, 1] - y) <= r * (1 + 1e-12))

    def test_point_order_does_not_change_result(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(200, 2))
        a = minimal_enclosing_circle(pts)
        b = minimal_enclosing_circle(pts[rng.permutation(len(pts))])
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("pts", [
        np.column_stack([np.linspace(0.3, 2.3, 9), np.linspace(-1.0, -0.5, 9)]),
        np.repeat(np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 2)), 3, axis=0),
        np.array([[0.2, -0.7], [1.5, 2.0]]),
        1.7 * np.column_stack([np.cos(2 * np.pi * np.arange(13) / 13),
                               np.sin(2 * np.pi * np.arange(13) / 13)]) + [0.4, -0.1],
    ], ids=["collinear", "repeated", "two-points", "regular-13-gon"])
    def test_degenerate_inputs_against_oracle(self, pts):
        x, y, r = minimal_enclosing_circle(pts)
        assert r == pytest.approx(oracles.brute_enclosing_radius(pts), rel=1e-12)
        assert np.all(np.hypot(pts[:, 0] - x, pts[:, 1] - y) <= r * (1 + 1e-12))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        pts = shapes.circle(16).points.copy()
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            minimal_enclosing_circle(pts)

    def test_collinear_rim_triple(self, monkeypatch):
        """Three collinear rim points have no circle through them; the
        iteration skips that candidate and keeps the pair's circle."""
        build, built = curveflow.bonnesen._circle_from_three, []

        def recording(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(curveflow.bonnesen, "_circle_from_three", recording)
        pts = np.array([[0.0, 0.0], [-3.0, 0.0], [1.0, 0.0]])
        x, y, r = minimal_enclosing_circle(pts)
        assert (x, y, r) == (-1.0, 0.0, 2.0)
        assert built == [None]
        assert r == pytest.approx(oracles.brute_enclosing_radius(pts), rel=1e-12)

    def test_one_point_and_none(self):
        assert minimal_enclosing_circle([[0.2, -0.7]]) == (0.2, -0.7, 0.0)
        with pytest.raises(ValueError, match="no points"):
            minimal_enclosing_circle(np.empty((0, 2)))


class TestRoots:
    def test_circle_double_root(self):
        t1, t2 = bonnesen_roots(math.pi, 2 * math.pi)
        assert t1 == pytest.approx(1.0, rel=1e-12)
        assert t2 == pytest.approx(1.0, rel=1e-12)

    def test_ellipse_values(self):
        t1, t2 = bonnesen_roots(2 * math.pi, oracles.ELLIPSE_2_1_PERIMETER)
        # frozen from the quadrature perimeter and the quadratic formula
        assert t1 == pytest.approx(0.9274285934018112, rel=1e-12)
        assert t2 == pytest.approx(2.1565002569782687, rel=1e-12)
        assert t1 == pytest.approx(0.92742, abs=1e-5)
        assert t2 == pytest.approx(2.15650, abs=1e-5)

    def test_isoperimetric_violation(self):
        with pytest.raises(IsoperimetricViolation):
            bonnesen_roots(10.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        area=st.floats(0.1, 50.0),
        excess=st.floats(0.0, 3.0),
    )
    def test_vieta_identities(self, area, excess):
        perim = math.sqrt(4 * math.pi * area) * (1.0 + excess)
        t1, t2 = bonnesen_roots(area, perim)
        assert t1 * t2 == pytest.approx(area / math.pi, rel=1e-12)
        assert t1 + t2 == pytest.approx(perim / math.pi, rel=1e-12)


class TestChain:
    def test_ellipse_chain(self):
        rep = bonnesen_chain(shapes.ellipse(2048))
        assert rep.chain_ok
        assert rep.t1 < rep.inradius < rep.circumradius < rep.t2
        assert rep.t1 == pytest.approx(0.92742, abs=1e-3)
        assert rep.t2 == pytest.approx(2.15650, abs=1e-3)

    def test_circle_equality_case(self):
        rep = bonnesen_chain(shapes.circle(32768))
        for value in (rep.t1, rep.inradius, rep.circumradius, rep.t2):
            assert value == pytest.approx(1.0, abs=1e-4)
        assert rep.equality_gap < 1e-4
        assert rep.chain_ok

    def test_small_curve_inradius_below_the_semi_axis(self):
        # at 128 samples and scale 1e-6 the LP is solved in a frame scaled to
        # the curve: on the raw points r came out 2% above the semi-axis
        rep = bonnesen_chain(shapes.ellipse(128).scaled(1e-6))
        assert rep.inradius <= 1e-6 * (1.0 + 1e-12)
        assert rep.chain_ok

    def test_cos2_oval_strict(self):
        p = shapes.cosine_oval_support(512, {2: (0.1, 0.0)})
        c = curve_from_support(p)
        rep = bonnesen_chain(c)
        assert rep.chain_ok
        assert rep.t1 < rep.inradius - 1e-4
        assert rep.circumradius < rep.t2 - 1e-4

    def test_not_convex(self):
        with pytest.raises(NotConvex):
            bonnesen_chain(shapes.l_hexagon())

    def test_convexity_checked_once(self, monkeypatch):
        calls = []
        is_convex = curveflow.bonnesen.is_convex
        monkeypatch.setattr(curveflow.bonnesen, "is_convex",
                            lambda curve: calls.append(curve) or is_convex(curve))
        bonnesen_chain(shapes.circle(64))
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_random_oval_battery_sample(self, seed):
        p = shapes.random_oval_support(512, seed, offset=0.1)
        c = resample_arclength(curve_from_support(p), 2048)
        rep = bonnesen_chain(c)
        assert rep.chain_ok

    def test_equality_gap_shrinks_with_eccentricity(self):
        gaps = []
        for delta in (0.2, 0.1, 0.05, 0.01):
            p = shapes.cosine_oval_support(1024, {2: (delta, 0.0)})
            c = curve_from_support(p)
            gaps.append(bonnesen_chain(c).equality_gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_scaling_covariance(self, scale):
        base = curve_from_support(shapes.random_oval_support(256, 17))
        rep0 = bonnesen_chain(base)
        rep1 = bonnesen_chain(base.scaled(scale))
        assert rep1.inradius == pytest.approx(scale * rep0.inradius, rel=1e-10)
        assert rep1.circumradius == pytest.approx(scale * rep0.circumradius, rel=1e-10)
        assert rep1.t1 == pytest.approx(scale * rep0.t1, rel=1e-10)
        assert rep1.t2 == pytest.approx(scale * rep0.t2, rel=1e-10)

    def test_quadratic_negative_at_midpoint(self):
        rep = bonnesen_chain(shapes.ellipse(1024))
        mid = 0.5 * (rep.t1 + rep.t2)
        assert rep.area - rep.length * mid + math.pi * mid * mid < 0.0

    def test_json_fields(self):
        rep = bonnesen_chain(shapes.ellipse(512))
        payload = json.loads(json.dumps(asdict(rep)))
        assert list(payload) == [
            "area",
            "length",
            "inradius",
            "circumradius",
            "t1",
            "t2",
            "chain_ok",
            "equality_gap",
        ]


class TestDebugLog:
    """One debug record per inradius and per enclosing-circle call."""

    _ELLIPSE = shapes.ellipse(1024).rotated(4 * math.pi / 199)  # several HiGHS solves

    def test_one_record_per_call(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="curveflow.bonnesen")
        solves = []
        real = curveflow.bonnesen.linprog

        def counting(*args, **kwargs):
            solves.append(len(kwargs["A_ub"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(curveflow.bonnesen, "linprog", counting)
        inradius(self._ELLIPSE)
        minimal_enclosing_circle([[0.2, -0.7], [1.5, 2.0]])
        # the diameter of the first two points, then the circle through (-3, 0) and (1, 0)
        minimal_enclosing_circle([[0.0, 0.0], [-3.0, 0.0], [1.0, 0.0]])
        records = [r.getMessage() for r in caplog.records if r.name == "curveflow.bonnesen"]
        assert len(solves) > 1
        assert records == [
            f"inradius: {len(solves)} HiGHS solves, {solves[-1]} of 1024 edges in the last",
            "minimal_enclosing_circle: 2 points, 0 rounds, enclosed",
            "minimal_enclosing_circle: 3 points, 1 rounds, enclosed",
        ]

    def test_stall_is_logged(self, monkeypatch, caplog):
        # a tolerance below 1 holds no circle, not even the rim's own
        caplog.set_level(logging.DEBUG, logger="curveflow.bonnesen")
        monkeypatch.setattr(curveflow.bonnesen, "_EPS_FACTOR", 0.5)
        assert minimal_enclosing_circle([[0.0, 0.0], [2.0, 0.0]]) == (1.0, 0.0, 1.0)
        assert [r.getMessage() for r in caplog.records if r.name == "curveflow.bonnesen"] == [
            "minimal_enclosing_circle: 2 points, 0 rounds, stalled"]

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="curveflow.bonnesen")
        bonnesen_chain(self._ELLIPSE)
        minimal_enclosing_circle([[0.0, 0.0], [-3.0, 0.0], [1.0, 0.0]])
        assert not [r for r in caplog.records if r.name == "curveflow.bonnesen"]
