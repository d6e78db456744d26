import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultsim import render
from faultsim.grid import FaultMap, GridDims, StressMap
from faultsim.render import (
    BLUE,
    GREEN,
    RED,
    RESET,
    YELLOW,
    RenderStyle,
    StressBands,
    _stress_glyphs,
    render_fault_map,
    render_stress_map,
    stress_color,
)

from oracles import strip_ansi, stress_map

COLOR = RenderStyle(color_enabled=True)
PLAIN = RenderStyle(color_enabled=False)
BANDS = StressBands()


class TestClassifyStress:
    # the ids name each value's band: low [0, 33], medium (33, 66], high (66, 100), quake
    @pytest.mark.parametrize(
        "value,color",
        [
            pytest.param(0, GREEN, id="0-Band.LOW"),
            pytest.param(33, GREEN, id="33-Band.LOW"),
            pytest.param(34, YELLOW, id="34-Band.MEDIUM"),
            pytest.param(66, YELLOW, id="66-Band.MEDIUM"),
            pytest.param(67, RED, id="67-Band.HIGH"),
            pytest.param(99, RED, id="99-Band.HIGH"),
            pytest.param(100, BLUE, id="100-Band.QUAKE"),
            pytest.param(5000, BLUE, id="5000-Band.QUAKE"),
        ],
    )
    def test_default_band_edges(self, value, color):
        assert stress_color(value, BANDS, 100) == color

    def test_threshold_beats_bands(self):
        # A value inside the "low" band is still colored as a quake when the
        # threshold is lower than the band edge.
        assert stress_color(20, BANDS, 20) == BLUE

    @given(st.integers(0, 500))
    def test_total_and_monotone(self, value):
        order = [GREEN, YELLOW, RED, BLUE]
        a = stress_color(value, BANDS, 100)
        b = stress_color(value + 1, BANDS, 100)
        assert order.index(b) >= order.index(a)

    @pytest.mark.parametrize("low,med", [(-1, 10), (10, 10), (10, 5)])
    def test_bad_bands_rejected(self, low, med):
        with pytest.raises(ValueError):
            StressBands(low, med)

    @pytest.mark.parametrize("low,med", [(1.5, 2), (1, 2.0), (True, 5), (0, "66")])
    def test_non_integer_bands_rejected(self, low, med):
        # StressBands(low_max=1.5, med_max=2) used to be accepted
        with pytest.raises(ValueError, match="must be an integer"):
            StressBands(low_max=low, med_max=med)


class TestStripAnsi:
    def test_removes_sgr_codes(self):
        assert strip_ansi(f"{RED}1{RESET} 0") == "1 0"

    def test_plain_text_untouched(self):
        assert strip_ansi("  5  70\n") == "  5  70\n"

    def test_removes_cursor_controls(self):
        assert strip_ansi("\x1b[2J\x1b[Hhello") == "hello"


class TestRenderFaultMap:
    def test_colored_fault_cell(self):
        fmap = FaultMap.empty(GridDims(2, 1))
        fmap.mark(0, 0)
        assert render_fault_map(fmap, COLOR) == "\x1b[31m1\x1b[0m 0\n"
        # a row that ends in a fault cell: only the wider glyph's trailing space becomes the newline
        fmap = FaultMap.empty(GridDims(2, 1))
        fmap.mark(1, 0)
        assert render_fault_map(fmap, COLOR) == "0 \x1b[31m1\x1b[0m\n"

    def test_plain_fault_cell(self):
        fmap = FaultMap.empty(GridDims(2, 1))
        fmap.mark(0, 0)
        assert render_fault_map(fmap, PLAIN) == "1 0\n"

    def test_empty_grid(self):
        fmap = FaultMap.empty(GridDims(3, 3))
        assert render_fault_map(fmap, PLAIN) == "0 0 0\n" * 3

    def test_line_per_row_trailing_newline(self):
        fmap = FaultMap.empty(GridDims(4, 6))
        text = render_fault_map(fmap, COLOR)
        assert text.endswith("\n")
        assert len(text.split("\n")) == 7  # 6 rows + empty tail

    # a byte other than 0 or 1 written into a built map draws as a fault, as it steps
    @pytest.mark.parametrize("flag", [2, 255])
    @pytest.mark.parametrize("style", [COLOR, PLAIN], ids=["color", "plain"])
    def test_fault_bytes_are_drawn_by_truth(self, flag, style):
        ones = FaultMap.empty(GridDims(3, 2))
        ones.cells[1::2] = b"\1\1\1"
        others = FaultMap.empty(GridDims(3, 2))
        others.cells[1::2] = bytes([flag]) * 3
        assert render_fault_map(others, style) == render_fault_map(ones, style)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=12)
    )
    def test_color_strips_to_plain(self, points):
        fmap = FaultMap.empty(GridDims(4, 3))
        for x, y in points:
            fmap.mark(x, y)
        assert strip_ansi(render_fault_map(fmap, COLOR)) == render_fault_map(
            fmap, PLAIN
        )


class TestRenderStressMap:
    def _single(self, value: int, style: RenderStyle, threshold: int = 100) -> str:
        smap = stress_map(GridDims(1, 1), [value])
        return render_stress_map(smap, BANDS, threshold, style)

    def test_low_value_green(self):
        assert self._single(0, COLOR) == "\x1b[32m  0\x1b[0m\n"

    def test_quake_value_blue(self):
        assert self._single(100, COLOR) == "\x1b[34m100\x1b[0m\n"

    def test_medium_yellow_high_red(self):
        assert self._single(40, COLOR) == f"{YELLOW} 40{RESET}\n"
        assert self._single(70, COLOR) == f"{RED} 70{RESET}\n"

    def test_plain_row(self):
        smap = stress_map(GridDims(2, 1), [5, 70])
        assert render_stress_map(smap, BANDS, 100, PLAIN) == "  5  70\n"

    def test_display_cap(self):
        assert self._single(12345, PLAIN) == "999\n"
        assert self._single(12345, COLOR) == f"{BLUE}999{RESET}\n"

    # above a threshold of 999 values past the display cap print as 999 in their
    # band's colour; the table is kept per threshold, so a second one does not reuse it
    @pytest.mark.parametrize("style", [COLOR, PLAIN], ids=["color", "plain"])
    def test_threshold_above_display_cap(self, style):
        smap = StressMap(GridDims(3, 2), [998, 999, 1000, 1199, 1200, 5000])
        _stress_glyphs.cache_clear()  # start from empty tables, whatever ran before

        def frame(*colors):
            texts = ["998"] + ["999"] * 5
            cells = [f"{c}{t}{RESET}" for c, t in zip(colors, texts)] if style.color_enabled else texts
            return " ".join(cells[:3]) + "\n" + " ".join(cells[3:]) + "\n"

        for _ in range(2):  # the second render reads the table the first one filled
            assert render_stress_map(smap, BANDS, 1200, style) == frame(RED, RED, RED, RED, BLUE, BLUE)
        assert render_stress_map(smap, BANDS, 1000, style) == frame(RED, RED, BLUE, BLUE, BLUE, BLUE)
        # values past the cap are not kept: the one table holds exactly 998 and 999
        assert set(_stress_glyphs(BANDS, 1200, style.color_enabled)) == {998, 999}

    def test_does_not_mutate(self):
        smap = stress_map(GridDims(2, 2), [0, 0, 0, 1234])
        render_stress_map(smap, BANDS, 100, COLOR)
        assert smap.cells[3] == 1234  # display clamp only affects the text

    @given(
        values=st.lists(st.integers(0, 250), min_size=6, max_size=6),
        threshold=st.integers(1, 200),
    )
    @settings(max_examples=60)
    def test_color_strips_to_plain(self, values, threshold):
        smap = stress_map(GridDims(3, 2), values)
        colored = render_stress_map(smap, BANDS, threshold, COLOR)
        plain = render_stress_map(smap, BANDS, threshold, PLAIN)
        assert strip_ansi(colored) == plain
        assert "\x1b" not in plain

    @given(values=st.lists(st.integers(0, 1500), min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_constant_plain_width(self, values):
        smap = stress_map(GridDims(2, 2), values)
        lines = render_stress_map(smap, BANDS, 100, PLAIN).splitlines()
        assert len(lines) == 2
        assert all(len(line) == 2 * 3 + 1 for line in lines)


class TestByteMapFrames:
    """A byte map's frame is built from byte columns; a list map with the same values,
    laid out one glyph string per cell, is its oracle."""

    @staticmethod
    def _maps(dims):
        """Maps of dims that hold every byte value between them, as bytes and as a list."""
        values = random.Random(dims.area).sample(range(256), 256)
        values += values[: -len(values) % dims.area]  # the last map wraps round to the first values
        for start in range(0, len(values), dims.area):
            cells = values[start : start + dims.area]
            yield StressMap(dims, bytearray(cells)), StressMap(dims, cells)

    @pytest.mark.parametrize("width,height", [(1, 1), (1, 256), (256, 1), (17, 3), (16, 16)],
                             ids=["1x1", "1xN", "Nx1", "17x3", "16x16"])
    @pytest.mark.parametrize("threshold", [1, 2, 100, 200, 255, 256, 300])
    @pytest.mark.parametrize("style", [COLOR, PLAIN], ids=["color", "plain"])
    def test_every_byte_value_renders_as_on_a_list(self, width, height, threshold, style):
        for in_bytes, in_list in self._maps(GridDims(width, height)):
            frame = render_stress_map(in_bytes, BANDS, threshold, style)
            assert frame == render_stress_map(in_list, BANDS, threshold, style)

    # step 1 widens a map whose threshold is above 256; the frame drawn before it is of bytes
    @pytest.mark.parametrize("style", [COLOR, PLAIN], ids=["color", "plain"])
    def test_empty_map_above_a_byte_threshold(self, style):
        dims = GridDims(5, 4)
        empty = StressMap.empty(dims)
        assert isinstance(empty.cells, bytearray)
        assert render_stress_map(empty, BANDS, 300, style) == render_stress_map(
            StressMap(dims, [0] * dims.area), BANDS, 300, style)

    # at 300 every value from 0 to 255 is green, so the colour digit's column is the
    # blank's; at 255 only the last value is blue, and its column must still be written
    @pytest.mark.parametrize("threshold,columns,blue", [(300, [5, 6, 7], 0), (255, [3, 5, 6, 7], 1)])
    def test_one_colour_for_every_value_but_at_most_one(self, threshold, columns, blue):
        bands = StressBands(low_max=255, med_max=256)
        assert [i for i, _ in _stress_glyphs(bands, threshold, True).columns] == columns
        frames = []
        for in_bytes, in_list in self._maps(GridDims(16, 2)):
            frames.append(render_stress_map(in_bytes, bands, threshold, COLOR))
            assert frames[-1] == render_stress_map(in_list, bands, threshold, COLOR)
        assert "".join(frames).count(BLUE) == blue

    # a silent fallback to the per-cell layout must fail: only list maps reach _join_rows
    def test_byte_map_never_joins_rows(self, monkeypatch):
        joined, join_rows = [], render._join_rows

        def spy(cells, *args):
            joined.append(type(cells))
            return join_rows(cells, *args)

        monkeypatch.setattr(render, "_join_rows", spy)
        dims = GridDims(3, 2)
        for style in (COLOR, PLAIN):
            render_stress_map(StressMap(dims, bytearray(range(6))), BANDS, 100, style)
            assert joined == []
        render_stress_map(StressMap(dims, list(range(6))), BANDS, 100, COLOR)
        assert joined == [list]
