"""Tests for the equal-area chord and point-reflection symmetrization."""

import importlib
import json
import logging
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import brentq

from curveflow import (
    NotAnOval,
    NotAShrinker,
    NotSymmetric,
    ToleranceNotMet,
    chord_cut,
    curve_from_support,
    find_bisecting_chord,
    is_convex,
    length,
    signed_area,
    support_from_curve,
    symmetric_shrinker_check,
    symmetrize,
)
from curveflow import shapes

import oracles

# the package exports the function symmetrize under the module's name
symmod = importlib.import_module("curveflow.symmetrize")


def oval(count, coeffs, mean=1.0):
    return shapes.cosine_oval_support(count, coeffs, mean=mean)


def oval_area(p):
    return signed_area(curve_from_support(p))


class TestChordCut:
    def test_disk_halved_by_any_diameter(self):
        p = oval(256, {})
        for theta in (0.0, 0.7, 2.0):
            cut = chord_cut(p, theta)
            assert cut.sigma == pytest.approx(np.pi / 2, abs=2e-4)
            assert np.hypot(*cut.midpoint) < 1e-12

    def test_translated_disk_center_chord(self):
        # the vertical chord of the disk centered at (0.3, 0) passes through
        # its center, so it halves the area
        p = oval(1024, {1: (0.3, 0.0)})
        cut = chord_cut(p, np.pi / 2)
        assert cut.sigma == pytest.approx(oval_area(p) / 2, abs=1e-6)

    def test_complementarity_on_all_nodes(self):
        from curveflow.symmetrize import node_cut_areas

        p = oval(512, {3: (0.1, 0.0), 1: (0.2, 0.0)})
        area = oval_area(p)
        half = p.count // 2
        for j in range(0, p.count, 37):
            s1 = chord_cut(p, p.theta[j]).sigma
            s2 = chord_cut(p, p.theta[(j + half) % p.count]).sigma
            assert s1 + s2 == pytest.approx(area, abs=1e-8 * area)
        sigma = node_cut_areas(p)
        assert np.max(np.abs(sigma + np.roll(sigma, -half) - area)) <= 1e-8 * area
        for j in (0, 5, 100):
            assert sigma[j] == pytest.approx(chord_cut(p, p.theta[j]).sigma, abs=1e-12)

    def test_endpoints_on_curve(self):
        p = oval(512, {2: (0.1, 0.0)})
        cut = chord_cut(p, 1.0)
        expected = p.eval(cut.theta) * np.array([np.cos(cut.theta), np.sin(cut.theta)])
        expected = expected + p.eval(cut.theta, order=1) * np.array(
            [-np.sin(cut.theta), np.cos(cut.theta)]
        )
        assert np.max(np.abs(cut.endpoints[0] - expected)) < 1e-12

    def test_chord_search_calls_no_eval(self, monkeypatch):
        # both endpoints come from SupportFunction._opposite_points, not p.eval
        p = shapes.random_oval_support(1024, 3, offset=0.25)
        calls = []
        real = type(p).eval
        monkeypatch.setattr(type(p), "eval",
                            lambda self, *args, **kw: calls.append(kw) or real(self, *args, **kw))
        cut = chord_cut(p, 1.0)
        searched = find_bisecting_chord(p)
        assert calls == []
        assert searched.evaluations > 0  # no node bisects, so the Illinois search ran
        assert np.array_equal(cut.midpoint, 0.5 * (cut.endpoints[0] + cut.endpoints[1]))

    def test_not_an_oval(self):
        with pytest.raises(NotAnOval):
            chord_cut(oval(256, {3: (0.2, 0.0)}), 0.0)


_SEEDED = [shapes.random_oval_support(512, seed, offset=0.25) for seed in range(8)]


class TestOppositePoints:
    """Both chord ends from one spectral row, against p.eval at theta and theta + pi."""

    @pytest.mark.parametrize("p", _SEEDED + [
        oval(1024, {1: (0.3, 0.0), 2: (0.05, 0.0), 3: (0.02, 0.015)}),
        oval(256, {1: (0.1, 0.2), 3: (0.03, 0.0)}),
    ], ids=[f"seed{seed}" for seed in range(8)] + ["three-mode", "coarse"])
    def test_matches_eval(self, p):
        scale = float(np.max(np.hypot(*curve_from_support(p).points.T)))
        h = p.step
        nodes = [0, 1, p.count // 4, p.count // 2 - 1, p.count // 2, p.count - 1]
        thetas = [j * h for j in nodes] + [(j + 0.5) * h for j in nodes]
        for theta in thetas + [1e-300, 2.0 * np.pi - 1e-15]:
            ends = p._opposite_points(theta)
            reference = oracles.chord_ends_by_eval(p, theta)
            assert np.max(np.abs(ends - reference)) <= 16 * np.finfo(float).eps * scale, theta


class TestBisectingChord:
    def test_disk_immediate(self):
        p = oval(256, {})
        cut = find_bisecting_chord(p, tol=1e-8)
        assert cut.theta == 0.0
        assert cut.sigma == pytest.approx(oval_area(p) / 2, abs=1e-10)
        assert cut.sigma == pytest.approx(np.pi / 2, abs=1e-3)

    def test_centrally_symmetric_every_chord_works(self):
        p = oval(512, {2: (0.1, 0.0)})
        cut = find_bisecting_chord(p, tol=1e-8)
        area = oval_area(p)
        assert abs(cut.sigma - area / 2) <= 1e-8 * area

    def test_nonsymmetric_oval(self):
        p = oval(1024, {1: (0.3, 0.0), 2: (0.05, 0.0), 3: (0.02, 0.015)})
        cut = find_bisecting_chord(p, tol=1e-8)
        area = oval_area(p)
        assert abs(cut.sigma - area / 2) <= 1e-6 * area

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_battery(self, seed):
        p = shapes.random_oval_support(512, seed, offset=0.25)
        cut = find_bisecting_chord(p, tol=1e-8)
        area = oval_area(p)
        assert abs(cut.sigma - area / 2) <= 1e-6 * area

    @pytest.mark.parametrize("root_finder", [
        lambda f, a, b, **k: (a, 1, True),  # misses the tolerance
        lambda f, a, b, **k: (brentq(f, a, b), 1, False),
    ], ids=["bad-root", "not-converged"])
    def test_root_failure_is_tolerance_not_met(self, monkeypatch, root_finder):
        # the package exports the function symmetrize under the module's name
        monkeypatch.setattr(importlib.import_module("curveflow.symmetrize"), "_illinois",
                            root_finder)
        with pytest.raises(ToleranceNotMet):
            find_bisecting_chord(oval(1024, {1: (0.3, 0.0), 2: (0.05, 0.0), 3: (0.02, 0.015)}))


class TestChordSearch:
    """Illinois regula falsi on the constant-time cell gap."""

    def test_halving_converges_where_plain_regula_falsi_stalls(self):
        # convex on [0, 1]: plain regula falsi keeps b = 1 and crawls from the left
        def f(x):
            return np.exp(10.0 * x) - 2.0

        a, b, fa, fb = 0.0, 1.0, f(0.0), f(1.0)
        for _ in range(100):
            c = (a * fb - b * fa) / (fb - fa)
            fc = f(c)
            if fc < 0.0:
                a, fa = c, fc
            else:
                b, fb = c, fc
        assert b == 1.0 and abs(c - np.log(2.0) / 10.0) > 1e-2
        root, evaluations, converged = symmod._illinois(f, 0.0, 1.0)
        assert converged
        assert evaluations <= 25  # 21 at the time of writing
        assert root == pytest.approx(np.log(2.0) / 10.0, abs=1e-12)

    def test_same_sign_bracket_refused(self):
        with pytest.raises(ToleranceNotMet, match="one sign"):
            symmod._illinois(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_capped_search_is_tolerance_not_met(self, monkeypatch):
        solve = symmod._illinois
        monkeypatch.setattr(symmod, "_illinois", lambda f, a, b: solve(f, a, b, max_iter=1))
        with pytest.raises(ToleranceNotMet, match="without converging"):
            find_bisecting_chord(shapes.random_oval_support(1024, 0, offset=0.25))

    @pytest.mark.parametrize("p", [
        shapes.random_oval_support(1024, 0, offset=0.25),
        shapes.random_oval_support(512, 5, offset=0.2),
        oval(1024, {1: (0.3, 0.0), 2: (0.05, 0.0), 3: (0.02, 0.015)}),
        oval(256, {1: (0.1, 0.2), 3: (0.03, 0.0)}),
    ], ids=["random0", "random5", "three-mode", "coarse"])
    def test_cell_gap_matches_arc_polygon_gap(self, p):
        area = oval_area(p)
        vertices = curve_from_support(p).points
        h = p.step
        for j in (0, 7, p.count // 3, p.count // 2 - 1):
            gap = symmod._cell_gap(p, vertices, j)
            for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
                theta = (j + frac) * h
                full = chord_cut(p, theta).sigma - chord_cut(p, theta + np.pi).sigma
                assert abs(gap(theta) - full) <= 1e-12 * area, (j, frac)

    def test_evaluation_count(self):
        p = shapes.random_oval_support(1024, 0, offset=0.25)
        searched = find_bisecting_chord(p)
        assert 3 <= searched.evaluations <= 102
        assert chord_cut(p, searched.theta).evaluations == 0
        assert find_bisecting_chord(oval(256, {})).evaluations == 0  # node 0 bisects


class TestDebugLog:
    """The chord search logs one debug record per call, on both of its paths."""

    @staticmethod
    def _relative_miss(p, cut):
        sigma = symmod.node_cut_areas(p)
        area = sigma[0] + sigma[p.count // 2]
        vertices = curve_from_support(p).points
        return abs(cut.sigma - symmod._shoelace(symmod._other_arc(p, vertices, cut))) / (2 * area)

    def test_one_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="curveflow.symmetrize")
        disk = oval(256, {})
        p = shapes.random_oval_support(1024, 0, offset=0.25)
        node_cut, cut = find_bisecting_chord(disk), find_bisecting_chord(p)
        records = [r.getMessage() for r in caplog.records if r.name == "curveflow.symmetrize"]
        sigma = symmod.node_cut_areas(disk)
        node_miss = abs(sigma[0] - sigma[128]) / (2 * (sigma[0] + sigma[128]))
        assert node_cut.theta == 0.0
        assert records == [
            f"find_bisecting_chord: node 0 bisects, 0 evaluations, "
            f"|sigma - A/2|/A = {node_miss:.3g}",
            f"find_bisecting_chord: cell {int(cut.theta // p.step)} searched in "
            f"{cut.evaluations} evaluations, |sigma - A/2|/A = {self._relative_miss(p, cut):.3g}",
        ]

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="curveflow.symmetrize")
        find_bisecting_chord(oval(256, {}))
        find_bisecting_chord(shapes.random_oval_support(1024, 0, offset=0.25))
        assert not [r for r in caplog.records if r.name == "curveflow.symmetrize"]


class TestSymmetrize:
    def test_pair_builds_the_oval_once(self, monkeypatch):
        # node_cut_areas, the cell gap, chord_cut and symmetrize all walk the
        # oval's vertices; the SupportFunction builds them for the first only
        support_module = importlib.import_module("curveflow.support")
        symmetrize_module = importlib.import_module("curveflow.symmetrize")
        builds, solves = [], []
        build, solve = support_module._oval_curve, symmetrize_module._illinois
        monkeypatch.setattr(support_module, "_oval_curve",
                            lambda p: builds.append(p) or build(p))
        monkeypatch.setattr(symmetrize_module, "_illinois",
                            lambda *a, **k: solves.append(a) or solve(*a, **k))
        p = shapes.random_oval_support(1024, 0, offset=0.25)
        symmetrize(p, find_bisecting_chord(p))
        assert len(solves) == 1  # no grid node bisects, so every builder call is reached
        assert len(builds) == 1

    def test_arcs_close_on_the_cut_endpoints(self, monkeypatch):
        # both arcs end on the cut's own endpoints, so symmetrize evaluates no
        # support series and each half holds both endpoints exactly
        p = shapes.random_oval_support(1024, 0, offset=0.25)
        cut = find_bisecting_chord(p)
        support_cls = importlib.import_module("curveflow.support").SupportFunction
        calls = []
        for name in ("eval", "_opposite_points"):
            evaluate = getattr(support_cls, name)
            monkeypatch.setattr(support_cls, name, lambda self, *a, _f=evaluate, **k:
                                calls.append(a) or _f(self, *a, **k))
        pair = symmetrize(p, cut)
        assert calls == []
        for c in (pair.curve1, pair.curve2):
            for end in cut.endpoints:
                assert np.any(np.all(c.points == end, axis=1))

    def test_disk_reproduces_circles(self):
        p = oval(512, {})
        base = curve_from_support(p)
        pair = symmetrize(p, find_bisecting_chord(p))
        for c in (pair.curve1, pair.curve2):
            assert signed_area(c) == pytest.approx(signed_area(base), rel=1e-9)
            assert length(c) == pytest.approx(length(base), rel=1e-9)
            assert signed_area(c) == pytest.approx(np.pi, abs=1e-4)
            assert length(c) == pytest.approx(2 * np.pi, abs=1e-4)

    def test_centered_ellipse_already_symmetric(self):
        ellipse = shapes.ellipse(4096)
        p = support_from_curve(ellipse, 512)
        cut = find_bisecting_chord(p, tol=1e-10)
        pair = symmetrize(p, cut)
        base = curve_from_support(p)
        # the glued curves reproduce the reconstruction's vertex set
        for c in (pair.curve1, pair.curve2):
            assert c.n == base.n
            d = np.array(
                [np.min(np.hypot(*(base.points - q).T)) for q in c.points[:: c.n // 16]]
            )
            assert np.max(d) < 1e-8

    def test_translated_disk_areas(self):
        p = oval(1024, {1: (0.3, 0.0)})
        area = oval_area(p)
        pair = symmetrize(p, find_bisecting_chord(p, tol=1e-9))
        for c in (pair.curve1, pair.curve2):
            assert is_convex(c)
            assert signed_area(c) == pytest.approx(area, rel=1e-6)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_central_symmetry_and_lengths(self, seed):
        p = shapes.random_oval_support(1024, seed, offset=0.2)
        cut = find_bisecting_chord(p, tol=1e-9)
        pair = symmetrize(p, cut)
        base_len = length(curve_from_support(p))
        diam = curve_from_support(p).diameter
        for c in (pair.curve1, pair.curve2):
            pts = c.points
            m = pts.shape[0]
            assert m % 2 == 0
            dev = np.max(np.hypot(*(pts + np.roll(pts, -m // 2, axis=0) - 2 * cut.midpoint).T))
            assert dev < 1e-8 * diam
        total = 0.5 * (length(pair.curve1) + length(pair.curve2))
        assert total == pytest.approx(base_len, rel=1e-5)

    def test_junction_gap_scales_with_grid(self):
        gaps = []
        for count in (256, 512, 1024):
            p = shapes.random_oval_support(count, 7, offset=0.2)
            pair = symmetrize(p, find_bisecting_chord(p, tol=1e-9))
            assert pair.junction_tangent_gap < 2.0 * (2 * np.pi / count)
            gaps.append(pair.junction_tangent_gap)
        assert gaps[2] < gaps[0]

    def test_sidecar_fields(self):
        p = oval(512, {1: (0.2, 0.0)})
        pair = symmetrize(p, find_bisecting_chord(p))
        payload = pair.sidecar()
        assert list(payload) == [
            "theta0",
            "sigma",
            "omega0",
            "junction_tangent_gap",
            "areas",
            "lengths",
        ]
        assert payload["areas"][0] == pytest.approx(payload["areas"][1], rel=1e-9)


class TestSymmetricShrinkerCheck:
    def test_unit_support_is_circle(self):
        rep = symmetric_shrinker_check(oval(256, {}), tol=1e-2)
        assert rep.is_circle
        assert rep.bounds_ok
        assert rep.inradius == pytest.approx(1.0, abs=1e-3)
        assert rep.circumradius == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_non_shrinker_rejected(self):
        # kappa(0) = 1/0.85 ~ 1.176 against p(0) = 1.05: residual ~ 0.126
        with pytest.raises(NotAShrinker) as err:
            symmetric_shrinker_check(oval(256, {2: (0.05, 0.0)}), tol=1e-2)
        assert "0.126" in str(err.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            symmetric_shrinker_check(oval(256, {1: (0.3, 0.0)}), tol=1e-2)

    def test_support_between_radii(self):
        rep = symmetric_shrinker_check(oval(512, {}), tol=1e-2)
        assert rep.inradius <= rep.p_min + 1e-2
        assert rep.p_max <= rep.circumradius + 1e-2

    def test_report_json(self):
        rep = symmetric_shrinker_check(oval(256, {}), tol=1e-2)
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["is_circle"] is True
        assert set(payload) >= {"p_min", "p_max", "inradius", "circumradius", "t1", "t2"}
