"""Tests for discrete closed curves and their measurements."""

import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveflow import (
    ClassificationReport,
    ClosedCurve,
    DegenerateSegment,
    FlowState,
    FlowTrajectory,
    SupportFunction,
    ToleranceNotMet,
    TooFewPoints,
    is_convex,
    is_simple,
    length,
    read_curve_csv,
    resample_arclength,
    signed_area,
    signed_curvature,
    turning_number,
    winding_number,
    write_curve_csv,
    write_support_csv,
)
from curveflow import curve_from_support, shapes
from curveflow.curves import _box, centroid
from curveflow.errors import InputError
from curveflow.flow import _viewbox
from curveflow.shrinker import PeriodEntry

import oracles


class TestConstruction:
    def test_unit_square(self):
        c = ClosedCurve([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert c.n == 4

    def test_two_points_rejected(self):
        with pytest.raises(TooFewPoints):
            ClosedCurve([(0, 0), (1, 0)])

    def test_points_off_the_plane_rejected(self):
        with pytest.raises(TooFewPoints, match=r"expected an \(n, 2\) array, got shape \(4, 3\)"):
            ClosedCurve(np.zeros((4, 3)))

    def test_circle_samples(self):
        c = shapes.circle(1024)
        assert c.n == 1024

    def test_consecutive_duplicates_rejected(self):
        with pytest.raises(DegenerateSegment):
            ClosedCurve([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_closing_duplicate_rejected(self):
        with pytest.raises(DegenerateSegment):
            ClosedCurve([(0, 0), (1, 0), (1, 1), (0, 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DegenerateSegment):
            ClosedCurve([(0, 0), (1, 0), (1, bad), (0, 1)])

    @pytest.mark.parametrize("gap, ok", [(0.5e-12, False), (1.5e-12, True)])
    def test_coincidence_threshold_is_relative_to_extent(self, gap, ok):
        # unit square, extent sqrt(2): one chord of gap * sqrt(2) next to (1, 0)
        pts = [(0, 0), (1, 0), (1, gap * math.sqrt(2)), (1, 1), (0, 1)]
        if ok:
            assert ClosedCurve(pts).n == 5
        else:
            with pytest.raises(DegenerateSegment):
                ClosedCurve(pts)

    def test_points_are_immutable(self):
        c = shapes.circle(64)
        with pytest.raises(ValueError):
            c.points[0, 0] = 99.0

    @pytest.mark.parametrize("view", [
        lambda a: a, lambda a: a[:], lambda a: a.ravel().reshape(-1, 2),
    ], ids=["array", "slice", "reshaped"])
    def test_caller_array_stays_writeable(self, view):
        a = shapes.circle(64).points.copy()
        c = ClosedCurve(view(a))
        kept = c.points.copy()
        assert a.flags.writeable
        a[0] = (5.0, 5.0)
        assert np.array_equal(c.points, kept)
        assert not c.points.flags.writeable

    def test_read_only_input_is_shared(self):
        a = shapes.circle(64).points
        assert ClosedCurve(a).points is a

    @pytest.mark.parametrize("n", [64, 2048, 65536])
    def test_box_by_columns_equals_axis_reduction(self, n):
        pts = np.random.default_rng(n).normal(3.0, 2.0, (n, 2))
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        assert _box(pts) == (lo[0], lo[1], hi[0], hi[1])
        assert ClosedCurve(pts).diameter == float(np.hypot(*(hi - lo)))
        margin = 0.05 * float(np.max(hi - lo))
        assert _viewbox(pts) == (lo[0] - margin, lo[1] - margin,
                                 hi[0] - lo[0] + 2 * margin, hi[1] - lo[1] + 2 * margin)


class TestRoundedSquare:
    @pytest.mark.parametrize("side, corner_radius", [(2.0, 0.4), (3.0, 1.2), (1.0, 0.05)])
    def test_equals_the_sample_by_sample_placement(self, side, corner_radius):
        for n in (7, 96, 192, 256, 512, 1000):
            points = shapes.rounded_square(n, side, corner_radius).points
            assert np.array_equal(points, oracles.rounded_square_reference(n, side, corner_radius))

    @pytest.mark.parametrize("corner_radius", [0.0, 1.0, 1.5])
    def test_corner_radius_outside_half_the_side_rejected(self, corner_radius):
        with pytest.raises(ValueError, match=r"corner radius must sit in \(0, side/2\)"):
            shapes.rounded_square(64, side=2.0, corner_radius=corner_radius)


class TestResample:
    def test_nonuniform_circle_to_uniform_chords(self):
        c = shapes.nonuniform_circle(1024, seed=1)
        r = resample_arclength(c, 256)
        chords = r.chord_lengths()
        assert r.n == 256
        assert np.max(np.abs(chords - chords.mean())) <= 1e-9 * chords.mean()
        assert chords.mean() == pytest.approx(2 * np.pi / 256, rel=1e-3)

    def test_square_eight_samples(self):
        r = resample_arclength(shapes.square(1.0), 8)
        assert r.chord_lengths() == pytest.approx(np.full(8, 0.5), abs=1e-12)

    def test_idempotent_on_uniform_input(self):
        c = shapes.circle(256)
        r = resample_arclength(c, 256)
        assert np.max(np.abs(r.points - c.points)) < 1e-9

    def test_too_few_target_samples(self):
        with pytest.raises(TooFewPoints):
            resample_arclength(shapes.circle(64), 2)

    def test_triangle_at_three_samples_is_a_typed_miss(self):
        # an equal-chord answer exists, but the smoothing passes do not find it
        triangle = ClosedCurve([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ToleranceNotMet, match="missed rel_tol 1e-10 in 200 passes"):
            resample_arclength(triangle, 3)
        for m in range(4, 17):
            chords = resample_arclength(triangle, m).chord_lengths()
            assert np.max(np.abs(chords - chords.mean())) <= 1e-10 * chords.mean(), m

    @pytest.mark.parametrize("m", [4096, 5000, 8192])
    def test_length_preserved_upsampling(self, m):
        c = shapes.nonuniform_circle(4096, seed=7)
        r = resample_arclength(c, m)
        assert length(r) == pytest.approx(length(c), rel=1e-6)


def _read_only(points):
    copy = np.array(points)
    copy.setflags(write=False)
    return copy


# (samples, target count): the flow's two test shapes at their own count, and
# criterion 6's 512 -> 2048 oval resample
_RESAMPLE_CASES = {
    "ellipse": (shapes.ellipse(128).points, 128),
    "rounded_square": (shapes.rounded_square(128).points, 128),
    "oval": (curve_from_support(shapes.random_oval_support(512, 3, offset=0.1)).points, 2048),
}


class TestResampleOracle:
    """The complex-view resample equals the (n, 2) oracle bit for bit, also on
    input the constructor must copy: reversed, strided or read-only."""

    @pytest.mark.parametrize("layout", [
        lambda pts: pts,
        lambda pts: pts[::-1],
        lambda pts: pts[::2],
        _read_only,
    ], ids=["contiguous", "reversed", "strided", "read_only"])
    @pytest.mark.parametrize("case", list(_RESAMPLE_CASES))
    @pytest.mark.parametrize("rel_tol, max_passes", [(1e-10, 200), (1e-8, 20)])
    def test_equals_oracle(self, case, layout, rel_tol, max_passes, monkeypatch):
        monkeypatch.setattr("curveflow.curves._ARCLENGTH_REL_TOL", rel_tol)
        monkeypatch.setattr("curveflow.curves._ARCLENGTH_PASSES", max_passes)
        source, m = _RESAMPLE_CASES[case]
        points = layout(source)
        r = resample_arclength(ClosedCurve(points), m)
        ref_pts, ref_chords, ref_passes = oracles.resample_reference(points, m, rel_tol, max_passes)
        assert ref_passes <= max_passes
        assert r.points.shape == (m, 2)
        assert np.array_equal(r.points, ref_pts)
        assert np.array_equal(r.chord_lengths(), ref_chords)
        assert np.array_equal(points, layout(source))  # the input is left as it was

    def test_miss_counts_one_pass_over_the_budget(self, monkeypatch):
        monkeypatch.setattr("curveflow.curves._ARCLENGTH_PASSES", 0)
        curve = shapes.nonuniform_circle(1024, seed=1)
        with pytest.raises(ToleranceNotMet, match="missed rel_tol 1e-10 in 0 passes"):
            resample_arclength(curve, 256)
        assert oracles.resample_reference(curve.points, 256, 1e-10, 0)[2] == 1


class TestLengthArea:
    def test_circle_length(self):
        assert length(shapes.circle(4096)) == pytest.approx(2 * np.pi, abs=1e-5)

    def test_ellipse_length_quadrature_oracle(self):
        oracle = oracles.ellipse_perimeter(2.0, 1.0)
        assert oracle == pytest.approx(oracles.ELLIPSE_2_1_PERIMETER, abs=1e-9)
        assert length(shapes.ellipse(4096)) == pytest.approx(oracle, abs=1e-4)

    def test_square_perimeter_exact(self):
        assert length(shapes.square(1.0)) == 4.0

    def test_circle_area_orientations(self):
        c = shapes.circle(4096)
        assert signed_area(c) == pytest.approx(np.pi, abs=1e-5)
        assert signed_area(shapes.circle(4096, clockwise=True)) == pytest.approx(
            -np.pi, abs=1e-5
        )

    def test_ellipse_area(self):
        assert signed_area(shapes.ellipse(4096)) == pytest.approx(2 * np.pi, abs=1e-4)

    def test_zero_area_centroid_is_vertex_mean(self):
        assert centroid(ClosedCurve([(0, 0), (1, 0), (2, 0)])).tolist() == [1.0, 0.0]


class TestCurvature:
    def test_circle_radius_two(self):
        fr = signed_curvature(shapes.circle(1024, radius=2.0))
        assert np.max(np.abs(fr.curvature - 0.5)) < 1e-4

    def test_clockwise_flips_sign(self):
        fr = signed_curvature(shapes.circle(1024, clockwise=True))
        assert np.max(np.abs(fr.curvature + 1.0)) < 1e-4

    def test_ellipse_apex(self):
        # vertex (2, 0) sits at sample 0; kappa = a*b/b^3 = 2 there
        c = shapes.ellipse(4096)
        fr = signed_curvature(c)
        assert fr.curvature[0] == pytest.approx(2.0, abs=1e-3)
        assert fr.curvature[0] == pytest.approx(oracles.ellipse_curvature(2.0, 1.0, 0.0), abs=1e-3)
        fit = oracles.osculating_circle_curvature(c.points[-1], c.points[0], c.points[1])
        assert fr.curvature[0] == pytest.approx(fit, rel=1e-6)

    def test_frame_orthonormal(self):
        fr = signed_curvature(shapes.ellipse(512))
        dots = np.einsum("ij,ij->i", fr.tangent, fr.normal)
        assert np.max(np.abs(dots)) < 1e-10
        assert np.allclose(np.hypot(fr.tangent[:, 0], fr.tangent[:, 1]), 1.0)
        # left normal = tangent rotated by +pi/2
        rotated = np.column_stack([-fr.tangent[:, 1], fr.tangent[:, 0]])
        assert np.max(np.abs(rotated - fr.normal)) < 1e-14

    def test_reversal_takes_the_outgoing_edge(self):
        # at vertices 0 and 1 the path doubles back, so the adjacent unit
        # edges cancel; each tangent is then the outgoing edge's direction
        c = ClosedCurve([(0, 0), (1, 0), (0.5, 0)])
        e = c.edges()
        fr = signed_curvature(c)
        assert fr.tangent.tolist() == (e / np.hypot(e[:, 0], e[:, 1])[:, None]).tolist()
        assert fr.normal.tolist() == [[0.0, 1.0], [0.0, -1.0], [0.0, -1.0]]


class TestTopology:
    def test_turning_numbers(self):
        assert turning_number(shapes.circle(256)) == 1
        assert turning_number(shapes.circle(256, clockwise=True)) == -1
        assert turning_number(shapes.doubled_circle(512)) == 2

    def test_convexity(self):
        assert is_convex(shapes.ellipse(512))
        assert not is_convex(shapes.l_hexagon())

    @pytest.mark.parametrize("curve", [
        ClosedCurve([(np.cos(t), np.sin(t)) for t in 0.5 * np.pi + 0.8 * np.pi * np.arange(5)]),
        shapes.doubled_circle(512),
    ], ids=["pentagram", "doubled_circle"])
    def test_locally_convex_but_winding_twice_not_convex(self, curve):
        # every vertex turns left, but the tangent turns twice: not embedded
        assert turning_number(curve) == 2
        assert not is_convex(curve)

    def test_spike_doubling_back_not_convex(self):
        # the spike's cross product is 0, within the collinear tolerance, and its
        # turn of pi wraps to -pi, so the turns still add up to one winding
        spike = ClosedCurve([(0, 0), (1, 0), (0.5, 0.5), (1, 0), (1, 1), (0, 1)])
        assert turning_number(spike) == 1
        assert not is_simple(spike)
        assert not is_convex(spike)

    def test_dented_circle_not_convex(self):
        pts = shapes.circle(256).points.copy()
        pts[10] *= 0.99
        assert not is_convex(ClosedCurve(pts))

    def test_simple_curves(self):
        assert is_simple(shapes.circle(512))
        assert is_simple(shapes.square(1.0))
        assert not is_simple(shapes.limacon(512))

    def test_limacon_against_bruteforce_oracle(self):
        pts = shapes.limacon(48).points
        assert not oracles.polygon_is_simple(pts)

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(80, 2))
        try:
            c = ClosedCurve(pts)
        except DegenerateSegment:
            return
        assert is_simple(c) == oracles.polygon_is_simple(pts)

    @staticmethod
    def _snapped_polygons(seed):
        """Star-shaped loops of up to 63 samples, some with two vertices
        swapped, snapped to a grid of 1/8 so that edges touch and run
        collinear; samples that snap onto their predecessor are dropped."""
        rng = np.random.default_rng(seed)
        for n in range(4, 64):
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            pts = rng.uniform(0.3, 1.0, n)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
            if n % 3 == 0:
                pts[[0, n // 2]] = pts[[n // 2, 0]]
            pts = np.round(pts * 8.0) / 8.0
            yield pts[np.any(pts != np.roll(pts, 1, axis=0), axis=1)]

    @pytest.mark.parametrize("seed", range(2))
    def test_sweep_matches_bruteforce_on_small_snapped_polygons(self, seed):
        for pts in self._snapped_polygons(seed):
            assert is_simple(ClosedCurve(pts)) == oracles.polygon_is_simple(pts), len(pts)

    @pytest.mark.parametrize("block", [1, 7])
    def test_sweep_blocks_ending_inside_a_pair_list(self, block, monkeypatch):
        monkeypatch.setattr("curveflow.curves._SWEEP_BLOCK", block)
        for seed in range(2):
            for pts in self._snapped_polygons(seed):
                assert is_simple(ClosedCurve(pts)) == oracles.polygon_is_simple(pts), len(pts)

    def test_zigzag_with_every_x_extent_overlapping(self):
        # a simple loop of 1,026 samples whose edges all overlap in x, about
        # 525k candidate pairs: x alternates 0 and 1 up the y axis, and the
        # loop closes through x = 2
        y = np.arange(1024.0)
        pts = np.vstack([np.column_stack([y % 2, y]), [(2.0, 1023.0), (2.0, 0.0)]])
        assert is_simple(ClosedCurve(pts))
        # (1, 1023) moves down to (1, 1020.5): the edge from (0, 1022) then
        # crosses edge 1020, from (0, 1020) to (1, 1021), at (0.8, 1020.8),
        # one of the last pairs in the sweep order
        pts = pts.copy()
        pts[1023] = (1.0, 1020.5)
        assert not is_simple(ClosedCurve(pts))

    @staticmethod
    def _integer_square(side=16):
        """CCW boundary of [0, side]^2 through every integer point: zero turns."""
        bottom = [(i, 0) for i in range(side)]
        right = [(side, i) for i in range(side)]
        top = [(side - i, side) for i in range(side)]
        left = [(0, side - i) for i in range(side)]
        return np.array(bottom + right + top + left, dtype=float)

    def test_convex_input_skips_the_sweep(self, monkeypatch):
        import curveflow.curves as cv

        def no_sweep(*_args):
            raise AssertionError("convex input reached the edge-pair tests")

        monkeypatch.setattr(cv, "_is_simple_sweep", no_sweep)
        assert is_simple(shapes.circle(4096))
        assert is_simple(shapes.circle(96, clockwise=True))
        assert is_simple(ClosedCurve(self._integer_square()))
        assert is_simple(ClosedCurve(self._integer_square()[::-1]))

    @pytest.mark.parametrize("name", ["doubled_even", "doubled_odd", "collinear",
                                      "clockwise", "hairpin", "hairpin_open"])
    def test_convex_path_matches_bruteforce(self, name):
        square = self._integer_square()
        spike_at = 8  # the bottom side's vertex (8, 0)
        pts = {
            "doubled_even": lambda: shapes.doubled_circle(96).points,
            "doubled_odd": lambda: shapes.doubled_circle(97).points,
            "collinear": lambda: square,
            "clockwise": lambda: shapes.ellipse(80).points[::-1],
            # out to (8, -5) and back over the same segment to (8, -2)
            "hairpin": lambda: np.insert(square, spike_at + 1, [(8, -5), (8, -2)], axis=0),
            "hairpin_open": lambda: np.insert(square, spike_at + 1, [(8, -5), (8.5, -1)], axis=0),
        }[name]()
        assert is_simple(ClosedCurve(pts)) == oracles.polygon_is_simple(pts)

    def test_winding_number(self):
        c = shapes.circle(256)
        assert winding_number(c, (0.0, 0.0)) == 1
        assert winding_number(c, (2.0, 0.0)) == 0
        assert winding_number(shapes.circle(256, clockwise=True), (0.0, 0.0)) == -1


class TestInvariants:
    def test_reversal_flips_area_keeps_length(self):
        c = shapes.ellipse(512)
        r = c.reversed()
        assert signed_area(r) == pytest.approx(-signed_area(c), rel=1e-12)
        assert length(r) == pytest.approx(length(c), rel=1e-12)

    def test_convex_ccw_curvature_nonnegative(self):
        for seed in range(5):
            p = shapes.random_oval_support(256, seed)
            from curveflow import curve_from_support

            c = curve_from_support(p)
            fr = signed_curvature(c)
            assert np.all(fr.curvature >= 0.0)
            assert turning_number(c) == 1

    @pytest.mark.parametrize(
        "curve,expected_turns",
        [
            (shapes.circle(512), 1),
            (shapes.ellipse(512), 1),
            (shapes.square(2.0), 1),
            (shapes.l_hexagon(), 1),
            (shapes.doubled_circle(512), 2),
        ],
    )
    def test_discrete_turning_tangent_theorem(self, curve, expected_turns):
        fr = signed_curvature(curve)
        chords = curve.chord_lengths()
        ds = 0.5 * (chords + np.roll(chords, 1))
        total = float(np.sum(fr.curvature * ds))
        assert total == pytest.approx(2 * np.pi * expected_turns, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        angle=st.floats(-np.pi, np.pi),
        dx=st.floats(-5, 5),
        dy=st.floats(-5, 5),
    )
    def test_rigid_motion_invariance(self, angle, dx, dy):
        c = shapes.ellipse(256)
        moved = c.rotated(angle).translated((dx, dy))
        assert length(moved) == pytest.approx(length(c), rel=1e-12)
        assert signed_area(moved) == pytest.approx(signed_area(c), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_isoperimetric_inequality(self, seed):
        from curveflow import curve_from_support

        p = shapes.random_oval_support(256, seed, offset=0.2)
        c = curve_from_support(p)
        L, A = length(c), signed_area(c)
        assert L * L - 4 * np.pi * A >= -1e-6 * L * L

    def test_isoperimetric_on_nonconvex(self):
        c = shapes.l_hexagon()
        L, A = length(c), signed_area(c)
        assert L * L - 4 * np.pi * A >= -1e-6 * L * L


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        c = shapes.ellipse(128)
        path = tmp_path / "ellipse.csv"
        write_curve_csv(c, path)
        back = read_curve_csv(path)
        assert np.array_equal(back.points, c.points)

    def test_seventeen_digits(self, tmp_path):
        c = ClosedCurve([(1 / 3, 2 / 3), (1.0, 0.0), (0.5, 1.5)])
        path = tmp_path / "c.csv"
        write_curve_csv(c, path)
        first = path.read_text().splitlines()[0]
        assert first == "0.33333333333333331,0.66666666666666663"

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,number\n")
        with pytest.raises(InputError) as info:
            read_curve_csv(path)
        assert not isinstance(info.value, TooFewPoints)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank_lines"])
    def test_file_without_samples(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooFewPoints, match="holds no samples"):
                read_curve_csv(path)


class TestCsvFormat:
    """The exact bytes of every CSV writer: 17 significant digits, commas,
    one row per line, no comment marks."""

    SUPPORT = (
        "0,1\n0.39269908169872414,1.3333333333333333\n0.78539816339744828,1.6666666666666665\n"
        "1.1780972450961724,2\n1.5707963267948966,2.333333333333333\n"
        "1.9634954084936207,2.666666666666667\n2.3561944901923448,3\n"
        "2.748893571891069,3.3333333333333335\n3.1415926535897931,3.6666666666666665\n"
        "3.5342917352885173,4\n3.9269908169872414,4.3333333333333339\n"
        "4.3196898986859651,4.6666666666666661\n4.7123889803846897,5\n"
        "5.1050880620834143,5.333333333333333\n5.497787143782138,5.666666666666667\n"
        "5.8904862254808616,6\n"
    )

    def test_curve(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(ClosedCurve([(0.1, -0.0), (1.0, 2.5), (-1 / 3, 1e-300)]), path)
        assert path.read_text() == "0.10000000000000001,-0\n1,2.5\n-0.33333333333333331,1e-300\n"

    def test_trajectory_stride_and_inf_ratio(self, tmp_path):
        traj = FlowTrajectory(
            times=np.array([0.0, 0.1, 0.2, 0.3, 0.4]),
            lengths=np.array([2 * math.pi, 6.0, 5.5, 5.0, 4.5]),
            areas=np.full(5, math.pi),
            final_state=FlowState(ClosedCurve([(0, 0), (1, 0), (0, 1)])),
            stop_reason="t_max",
        )
        path = tmp_path / "t.csv"
        replace(traj, areas=np.array([math.pi, 2.75, 2.5, 2.0, 0.0])).write_csv(path, stride=2)
        assert path.read_text() == (
            "t,L,A,ratio\n0,6.2831853071795862,3.1415926535897931,1\n"
            "0.20000000000000001,5.5,2.5,0.96288740570596687\n0.40000000000000002,4.5,0,inf\n"
        )

    def test_survey(self, tmp_path):
        report = ClassificationReport(tol=1e-3, no_circle_period=True, entries=(
            PeriodEntry(1.0, math.nan, math.nan, True, False, None),
            PeriodEntry(1.5, 4.3621244652028146, 0.69425367101911839, False, False, None),
        ))
        path = tmp_path / "survey.csv"
        report.write_csv(path)
        assert path.read_text() == (
            "p0,period,ratio_to_2pi\n1,nan,nan\n1.5,4.3621244652028146,0.69425367101911839\n"
            "# no period equals 2*pi within tol=0.001: true\n"
        )

    def test_empty_survey(self):
        report = ClassificationReport(tol=0.1, no_circle_period=False, entries=())
        buf = io.StringIO()
        report.write_csv(buf)
        assert buf.getvalue() == (
            "p0,period,ratio_to_2pi\n# no period equals 2*pi within tol=0.10000000000000001: false\n"
        )

    def test_support(self, tmp_path):
        path = tmp_path / "s.csv"
        write_support_csv(SupportFunction(1.0 + np.arange(16) / 3), path)
        assert path.read_text() == self.SUPPORT

    def test_support_to_stream(self):
        buf = io.StringIO()
        write_support_csv(SupportFunction(1.0 + np.arange(16) / 3), buf)
        assert buf.getvalue() == self.SUPPORT
