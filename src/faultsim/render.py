"""Pure text rendering of fault and stress maps with ANSI colors.

Renderers return complete strings and never touch the terminal; screen
clearing and pacing belong to the CLI layer. With color disabled the output
is byte-identical to the colored output with escape sequences stripped.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .grid import FaultMap, StressMap, Value, require_int

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


def _join_rows(cells: Sequence[int], width: int, cell: Sequence[str], last: Sequence[str]) -> str:
    """Lay cells out `width` to a row: value v reads cell[v], which ends in a space,
    or last[v], which ends in a newline, in a row's last column."""
    parts = list(map(cell.__getitem__, cells))
    parts[width - 1 :: width] = map(last.__getitem__, cells[width - 1 :: width])
    return "".join(parts)


def render_fault_map(fault_map: FaultMap, style: RenderStyle) -> str:
    """Fault cells as red "1", everything else as an uncolored "0".

    The zeros deliberately carry no color code so they follow the user's
    terminal theme.
    """
    one = f"{RED}1{RESET}" if style.color_enabled else "1"
    return _join_rows(fault_map.cells, fault_map.dims.width, ("0 ", one + " "), ("0\n", one + "\n"))


class _Glyphs(dict):
    """Each stress value's glyph followed by `end`, built on first lookup.

    Only values from 0 to the display cap are kept, so the table stays small
    whatever values a map holds.
    """

    def __init__(self, glyph: Callable[[int], str], end: str) -> None:
        super().__init__()
        self.glyph = glyph
        self.end = end

    def __missing__(self, value: int) -> str:
        text = self.glyph(value) + self.end
        if 0 <= value <= _STRESS_DISPLAY_CAP:
            self[value] = text
        return text


@lru_cache(maxsize=8)
def _stress_glyphs(bands: StressBands, threshold: int, color: bool) -> tuple[_Glyphs, _Glyphs]:
    """The glyph tables of a cell inside a row and of a row's last cell."""

    def glyph(value: int) -> str:
        text = f"{min(value, _STRESS_DISPLAY_CAP):>{STRESS_CELL_WIDTH}d}"
        if not color:
            return text
        return f"{stress_color(value, bands, threshold)}{text}{RESET}"

    return _Glyphs(glyph, " "), _Glyphs(glyph, "\n")


def render_stress_map(
    stress: StressMap, bands: StressBands, threshold: int, style: RenderStyle
) -> str:
    """Stress values as colored fixed-width columns, one grid row per line."""
    cell, last = _stress_glyphs(bands, threshold, style.color_enabled)
    return _join_rows(stress.cells, stress.dims.width, cell, last)
