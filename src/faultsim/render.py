"""Pure text rendering of fault and stress maps with ANSI colors.

Renderers return complete strings and never touch the terminal; screen
clearing and pacing belong to the CLI layer. With color disabled the output
is byte-identical to the colored output with escape sequences stripped.

Each cell mapping has one table: a fault cell's glyph is read through
FaultMap.TRUTH, and a stress frame reads one glyph table per bands, threshold
and colour, whose entries end in a space. A row ends where its last glyph's
space is swapped for a newline.

A stress map held in a list of ints is laid out by `_join_rows`, one glyph
string per cell. One held in a bytearray gives the same bytes from byte
columns: every value below 256 has a glyph of one width (13 characters in
colour, 4 without), so the frame starts as value 0's glyphs and each column
in which glyphs differ is filled by one `translate` of the whole map.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .grid import FaultMap, GridDims, StressMap, Value, require_int

RED = "\x1b[31m"
GREEN = "\x1b[32m"
YELLOW = "\x1b[33m"
BLUE = "\x1b[34m"
RESET = "\x1b[0m"

# stress cells print as right-aligned 3-char decimals, clamped for display
STRESS_CELL_WIDTH = 3
_STRESS_DISPLAY_CAP = 999


class StressBands(Value):
    """Band boundaries: Low = [0, low_max], Medium = (low_max, med_max]."""

    __slots__ = _FIELDS = ("low_max", "med_max")

    def __init__(self, low_max: int = 33, med_max: int = 66) -> None:
        require_int("low_max", low_max)
        require_int("med_max", med_max)
        if not 0 <= low_max < med_max:
            raise ValueError(f"need 0 <= low_max < med_max, got {low_max}, {med_max}")
        super().__init__(low_max, med_max)


class RenderStyle(Value):
    __slots__ = _FIELDS = ("color_enabled",)

    def __init__(self, color_enabled: bool = True) -> None:
        super().__init__(color_enabled)


def stress_color(value: int, bands: StressBands, threshold: int) -> str:
    """Color of a stress value's band, BLUE once it quakes; total over non-negative integers."""
    if value >= threshold:
        return BLUE
    if value <= bands.low_max:
        return GREEN
    if value <= bands.med_max:
        return YELLOW
    return RED


def _join_rows(cells: Sequence[int], width: int, glyphs: Sequence[str]) -> str:
    """Lay cells out `width` to a row: value v reads glyphs[v], which ends in a space,
    and each row's last glyph has that space swapped for a newline."""
    parts = list(map(glyphs.__getitem__, cells))
    parts[width - 1 :: width] = [p[:-1] + "\n" for p in parts[width - 1 :: width]]
    return "".join(parts)


def render_fault_map(fault_map: FaultMap, style: RenderStyle) -> str:
    """Fault cells as red "1", everything else as an uncolored "0".

    A cell reads as its byte's FaultMap.TRUTH, so any nonzero byte is a fault.
    The zeros deliberately carry no color code so they follow the user's
    terminal theme.
    """
    one = f"{RED}1{RESET} " if style.color_enabled else "1 "
    return _join_rows(fault_map.cells.translate(FaultMap.TRUTH), fault_map.dims.width, ("0 ", one))


class _Glyphs(dict):
    """Each stress value's glyph followed by a space, built on first lookup.

    Only values from 0 to the display cap are kept, so the table stays small
    whatever values a map holds. A byte map also reads `columns`, the varying
    byte columns of the glyphs of 0 to 255.
    """

    def __init__(self, glyph: Callable[[int], str], columns: list[tuple[int, bytes]]) -> None:
        super().__init__()
        self.glyph = glyph
        self.columns = columns

    def __missing__(self, value: int) -> str:
        text = self.glyph(value) + " "
        if 0 <= value <= _STRESS_DISPLAY_CAP:
            self[value] = text
        return text


@lru_cache(maxsize=8)
def _stress_glyphs(bands: StressBands, threshold: int, color: bool) -> _Glyphs:
    """The glyph table of a stress value, for list and byte maps of any width.

    It carries the byte columns of the glyphs of 0 to 255, which share one
    width: (i, column) for each byte i at which they differ, column mapping a
    value to that byte.
    """

    def glyph(value: int) -> str:
        text = f"{min(value, _STRESS_DISPLAY_CAP):>{STRESS_CELL_WIDTH}d}"
        if not color:
            return text
        return f"{stress_color(value, bands, threshold)}{text}{RESET}"

    glyphs = [glyph(value).encode("ascii") for value in range(256)]
    columns = [(i, column) for i, column in enumerate(map(bytes, zip(*glyphs)))
               if column.count(column[0]) < 256]
    return _Glyphs(glyph, columns)


def _byte_rows(cells: bytearray, dims: GridDims, glyphs: _Glyphs) -> str:
    """Lay a byte map out as `_join_rows` would: each row is `width` of value 0's
    glyphs, the last with its space swapped for a newline, and each varying column
    i of a k-byte glyph is written into bytes i, i + k, ... by one `translate` of
    the whole map."""
    blank = glyphs[0].encode("ascii")
    k = len(blank)
    out = bytearray(blank * (dims.width - 1) + blank[:-1] + b"\n") * dims.height
    for i, column in glyphs.columns:
        out[i::k] = cells.translate(column)
    return out.decode("ascii")


def render_stress_map(
    stress: StressMap, bands: StressBands, threshold: int, style: RenderStyle
) -> str:
    """Stress values as colored fixed-width columns, one grid row per line."""
    glyphs = _stress_glyphs(bands, threshold, style.color_enabled)
    if isinstance(stress.cells, bytearray):
        return _byte_rows(stress.cells, stress.dims, glyphs)
    return _join_rows(stress.cells, stress.dims.width, glyphs)
