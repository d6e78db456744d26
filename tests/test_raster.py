import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultsim.grid import FaultMap, GridDims
from faultsim.raster import (
    OutOfRangeError,
    circle_cells,
    draw_circle,
    draw_horizontal,
    draw_segment,
    draw_vertical,
    segment_cells,
)

from oracles import circle_oracle, copy_grid, fault_cells, fault_count, segment_oracle

coord = st.integers(0, 15)


@pytest.fixture
def grid10():
    return FaultMap.empty(GridDims(10, 10))


class TestSegmentCells:
    def test_horizontal(self):
        assert segment_cells(2, 4, 6, 4) == [(x, 4) for x in range(2, 7)]

    def test_vertical(self):
        assert segment_cells(3, 1, 3, 5) == [(3, y) for y in range(1, 6)]

    def test_single_point(self):
        assert segment_cells(4, 4, 4, 4) == [(4, 4)]

    def test_perfect_diagonal(self):
        assert segment_cells(0, 0, 3, 3) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_shallow_example(self):
        got = set(segment_cells(0, 0, 5, 2))
        assert got == {(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)}

    def test_tie_prefers_lower_minor(self):
        # (0,0)->(3,1) hits an exact half at k=1 and k=2 midpoints? Check
        # against the arithmetic oracle rather than hand-picked cells.
        assert set(segment_cells(0, 0, 3, 1)) == segment_oracle(0, 0, 3, 1)
        assert set(segment_cells(0, 1, 3, 0)) == segment_oracle(0, 1, 3, 0)
        assert set(segment_cells(0, 0, 1, 3)) == segment_oracle(0, 0, 1, 3)

    def test_exhaustive_8x8_matches_oracle(self):
        for x0 in range(8):
            for y0 in range(8):
                for x1 in range(8):
                    for y1 in range(8):
                        got = set(segment_cells(x0, y0, x1, y1))
                        want = segment_oracle(x0, y0, x1, y1)
                        assert got == want, (x0, y0, x1, y1)

    @given(x0=coord, y0=coord, x1=coord, y1=coord)
    def test_matches_oracle(self, x0, y0, x1, y1):
        assert set(segment_cells(x0, y0, x1, y1)) == segment_oracle(x0, y0, x1, y1)

    @given(x0=coord, y0=coord, x1=coord, y1=coord)
    def test_reversal_symmetry(self, x0, y0, x1, y1):
        assert set(segment_cells(x0, y0, x1, y1)) == set(
            segment_cells(x1, y1, x0, y0)
        )

    @given(x0=coord, y0=coord, x1=coord, y1=coord)
    def test_endpoints_included(self, x0, y0, x1, y1):
        cells = set(segment_cells(x0, y0, x1, y1))
        assert (x0, y0) in cells
        assert (x1, y1) in cells

    @given(x0=coord, y0=coord, x1=coord, y1=coord)
    def test_cell_count_is_major_axis_span(self, x0, y0, x1, y1):
        cells = segment_cells(x0, y0, x1, y1)
        assert len(cells) == max(abs(x1 - x0), abs(y1 - y0)) + 1

    @given(x0=coord, y0=coord, x1=coord, y1=coord)
    def test_path_is_8_connected(self, x0, y0, x1, y1):
        cells = segment_cells(x0, y0, x1, y1)
        for (ax, ay), (bx, by) in zip(cells, cells[1:]):
            assert max(abs(ax - bx), abs(ay - by)) == 1


class TestCircleCells:
    def test_radius_zero_is_center(self):
        assert circle_cells(5, 5, 0) == {(5, 5)}

    def test_radius_three_shape(self):
        want = {(5 + dx, 5 + dy) for dx, dy in [
            (0, 3), (0, -3), (3, 0), (-3, 0),
            (1, 3), (1, -3), (-1, 3), (-1, -3),
            (3, 1), (3, -1), (-3, 1), (-3, -1),
            (2, 2), (2, -2), (-2, 2), (-2, -2),
        ]}
        got = circle_cells(5, 5, 3)
        assert got == want
        assert len(got) == 16

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_cells(0, 0, -1)

    def test_matches_oracle_small_radii(self):
        for r in range(41):
            assert circle_cells(0, 0, r) == circle_oracle(0, 0, r), r

    @given(cx=st.integers(-20, 20), cy=st.integers(-20, 20), r=st.integers(0, 60))
    @settings(max_examples=60)
    def test_matches_oracle(self, cx, cy, r):
        assert circle_cells(cx, cy, r) == circle_oracle(cx, cy, r)

    @given(r=st.integers(0, 60))
    @settings(max_examples=40)
    def test_8_fold_symmetry(self, r):
        cells = circle_cells(0, 0, r)
        for x, y in cells:
            assert (y, x) in cells
            assert (-x, y) in cells
            assert (x, -y) in cells


class TestDrawLines:
    def test_vertical_marks_full_column(self, grid10):
        assert draw_vertical(grid10, 5) == 10
        assert fault_cells(grid10) == {(5, y) for y in range(10)}

    def test_vertical_counts_only_new_cells(self, grid10):
        grid10.mark(5, 3)
        assert draw_vertical(grid10, 5) == 9

    def test_horizontal_marks_full_row(self, grid10):
        assert draw_horizontal(grid10, 0) == 10
        assert fault_cells(grid10) == {(x, 0) for x in range(10)}

    def test_horizontal_rect_grid(self):
        fmap = FaultMap.empty(GridDims(4, 7))
        assert draw_horizontal(fmap, 6) == 4
        assert fault_cells(fmap) == {(x, 6) for x in range(4)}

    @pytest.mark.parametrize("x", [-1, 10, 12])
    def test_vertical_out_of_range(self, grid10, x):
        with pytest.raises(OutOfRangeError):
            draw_vertical(grid10, x)
        assert fault_count(grid10) == 0  # failed draw leaves the map unchanged

    @pytest.mark.parametrize("y", [-1, 10])
    def test_horizontal_out_of_range(self, grid10, y):
        with pytest.raises(OutOfRangeError):
            draw_horizontal(grid10, y)
        assert fault_count(grid10) == 0

    def test_segment_draw(self, grid10):
        assert draw_segment(grid10, 0, 0, 5, 2) == 6
        assert fault_cells(grid10) == {(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)}

    @pytest.mark.parametrize(
        "ends", [(-1, 0, 5, 5), (0, 0, 10, 5), (0, 0, 5, 10), (0, -1, 0, 0)]
    )
    def test_segment_requires_both_endpoints_in_bounds(self, grid10, ends):
        before = fault_cells(copy_grid(grid10))
        with pytest.raises(OutOfRangeError):
            draw_segment(grid10, *ends)
        assert fault_cells(grid10) == before

    @given(x0=st.integers(0, 9), y0=st.integers(0, 9),
           x1=st.integers(0, 9), y1=st.integers(0, 9))
    def test_segment_count_matches_cells(self, x0, y0, x1, y1):
        fmap = FaultMap.empty(GridDims(10, 10))
        n = draw_segment(fmap, x0, y0, x1, y1)
        assert n == len(segment_oracle(x0, y0, x1, y1))
        assert fault_cells(fmap) == segment_oracle(x0, y0, x1, y1)


class TestLongNumbers:
    """A number past 20 digits in an error is named by its length; past str()'s limit, by it."""

    @pytest.mark.parametrize("draw,args,message", [
        (draw_vertical, (10**30,), "x=<31 digits> outside [0, 10)"),
        (draw_horizontal, (-(10**30),), "y=-<31 digits> outside [0, 10)"),
        (draw_segment, (0, 0, 10**30, 1), "endpoint (<31 digits>, 1) outside 10x10 grid"),
        (draw_circle, (1, -(10**25), 2), "center (1, -<26 digits>) outside 10x10 grid"),
        (draw_vertical, (10**5000,), "x=<more than {limit} digits> outside [0, 10)"),
        (draw_circle, (10**5000, 1, 2), "center (<more than {limit} digits>, 1) outside 10x10 grid"),
    ])
    def test_out_of_range_numbers(self, grid10, draw, args, message):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(OutOfRangeError) as exc:
            draw(grid10, *args)
        assert str(exc.value) == message.format(limit=limit)
        assert fault_count(grid10) == 0

    def test_negative_radius(self):
        with pytest.raises(ValueError, match=r"^radius must be non-negative, got -<31 digits>$"):
            circle_cells(0, 0, -(10**30))


class TestDrawCircle:
    def test_fully_inside(self, grid10):
        assert draw_circle(grid10, 5, 5, 3) == 16
        assert fault_cells(grid10) == circle_oracle(5, 5, 3)

    def test_cropped_at_corner(self, grid10):
        n = draw_circle(grid10, 0, 0, 3)
        want = {c for c in circle_oracle(0, 0, 3) if grid10.dims.contains(*c)}
        assert fault_cells(grid10) == want
        assert n == len(want) < 16

    def test_center_must_be_in_bounds(self, grid10):
        with pytest.raises(OutOfRangeError):
            draw_circle(grid10, 10, 5, 2)
        with pytest.raises(OutOfRangeError):
            draw_circle(grid10, 5, -1, 2)
        assert fault_count(grid10) == 0

    def test_negative_radius_reported_before_center(self, grid10):
        with pytest.raises(OutOfRangeError, match=r"^radius must be non-negative\.$"):
            draw_circle(grid10, -5, -5, -1)
        assert fault_count(grid10) == 0

    def test_radius_larger_than_grid(self, grid10):
        # Every cell of the arc is cropped: nothing marked, no error.
        assert draw_circle(grid10, 5, 5, 40) == 0
        assert fault_count(grid10) == 0

    def test_radius_up_to_the_far_corner_bound_matches_clipped_circle(self):
        # a plotted cell lies above squared distance r*r - r - 1 from the center, so
        # draw_circle skips the walk once that passes the farthest corner; check every
        # center of a 6x4 grid up to 3 radii past the first radius it skips at
        dims = GridDims(6, 4)
        for cx in range(6):
            for cy in range(4):
                far = max(cx, 5 - cx) ** 2 + max(cy, 3 - cy) ** 2
                first_skipped = next(r for r in range(100) if far <= r * r - r - 1)
                for r in range(first_skipped + 4):
                    fmap = FaultMap.empty(dims)
                    want = {c for c in circle_cells(cx, cy, r) if dims.contains(*c)}
                    assert draw_circle(fmap, cx, cy, r) == len(want), (cx, cy, r)
                    assert fault_cells(fmap) == want, (cx, cy, r)

    def test_huge_radius_marks_nothing_at_once(self, grid10):
        # the midpoint walk would take about 7 * 10**11 iterations here
        draw_vertical(grid10, 3)
        before = bytearray(grid10.cells)
        assert draw_circle(grid10, 5, 5, 10**12) == 0
        assert grid10.cells == before

    @given(
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        r=st.integers(0, 48),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_crop_equals_unclipped_intersection(self, w, h, r, data):
        cx = data.draw(st.integers(0, w - 1))
        cy = data.draw(st.integers(0, h - 1))
        fmap = FaultMap.empty(GridDims(w, h))
        draw_circle(fmap, cx, cy, r)
        dims = GridDims(w, h)
        want = {c for c in circle_oracle(cx, cy, r) if dims.contains(*c)}
        assert fault_cells(fmap) == want

    def test_draws_accumulate(self, grid10):
        draw_vertical(grid10, 2)
        before = fault_cells(grid10)
        draw_circle(grid10, 5, 5, 3)
        assert before <= fault_cells(grid10)  # drawing never clears cells
