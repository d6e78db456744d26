"""Pure text rendering of fault and stress maps with ANSI colors.

Renderers return complete strings and never touch the terminal; screen
clearing and pacing belong to the CLI layer. With color disabled the output
is byte-identical to the colored output with escape sequences stripped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .grid import FaultMap, StressMap

RED = "\x1b[31m"
GREEN = "\x1b[32m"
YELLOW = "\x1b[33m"
BLUE = "\x1b[34m"
RESET = "\x1b[0m"

_ANSI_RE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")

# stress cells print as right-aligned 3-char decimals, clamped for display
STRESS_CELL_WIDTH = 3
_STRESS_DISPLAY_CAP = 999


class Band(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    QUAKE = "quake"


_BAND_COLOR = {Band.LOW: GREEN, Band.MEDIUM: YELLOW, Band.HIGH: RED, Band.QUAKE: BLUE}


@dataclass(frozen=True)
class StressBands:
    """Band boundaries: Low = [0, low_max], Medium = (low_max, med_max]."""

    low_max: int = 33
    med_max: int = 66

    def __post_init__(self) -> None:
        if not 0 <= self.low_max < self.med_max:
            raise ValueError(f"need 0 <= low_max < med_max, got {self.low_max}, {self.med_max}")


@dataclass(frozen=True)
class RenderStyle:
    color_enabled: bool = True


def classify_stress(value: int, bands: StressBands, threshold: int) -> Band:
    """Band of a stress value; total over all non-negative integers."""
    if value >= threshold:
        return Band.QUAKE
    if value <= bands.low_max:
        return Band.LOW
    if value <= bands.med_max:
        return Band.MEDIUM
    return Band.HIGH


def strip_ansi(text: str) -> str:
    """Remove ANSI escape sequences."""
    return _ANSI_RE.sub("", text)


def render_fault_map(fault_map: FaultMap, style: RenderStyle) -> str:
    """Fault cells as red "1", everything else as an uncolored "0".

    The zeros deliberately carry no color code so they follow the user's
    terminal theme.
    """
    one = f"{RED}1{RESET}" if style.color_enabled else "1"
    width = fault_map.dims.width
    lines = []
    for row_start in range(0, fault_map.dims.area, width):
        row = fault_map.cells[row_start : row_start + width]
        lines.append(" ".join(one if v else "0" for v in row))
    return "".join(line + "\n" for line in lines)


def render_stress_map(
    stress: StressMap, bands: StressBands, threshold: int, style: RenderStyle
) -> str:
    """Stress values as colored fixed-width columns, one grid row per line."""

    def glyph(value: int) -> str:
        text = f"{min(value, _STRESS_DISPLAY_CAP):>{STRESS_CELL_WIDTH}d}"
        if not style.color_enabled:
            return text
        return f"{_BAND_COLOR[classify_stress(value, bands, threshold)]}{text}{RESET}"

    # quaked cells reset to 0, so between steps every value up to the display
    # cap is in the table
    table = [glyph(v) for v in range(min(threshold, _STRESS_DISPLAY_CAP) + 1)]
    top = len(table)
    width = stress.dims.width
    lines = []
    for row_start in range(0, stress.dims.area, width):
        row = stress.cells[row_start : row_start + width]
        lines.append(" ".join([table[v] if 0 <= v < top else glyph(v) for v in row]))
    return "".join(line + "\n" for line in lines)
