"""Scenario files and run statistics.

A scenario bundles a SimConfig with a FaultMap so an interactively drawn
setup can be replayed bit-for-bit. The format is line-oriented ASCII with a
single canonical encoding per scenario:

    FAULTSIM 1
    width 4
    height 2
    seed 42
    ... one "key value" line per config field, fixed order ...
    map
    0110
    0000
    end

The parser accepts exactly that shape and nothing else, so a parse-format
round trip reproduces the input byte for byte. Statistics go out as a small
CSV, one row per simulation step.
"""

from __future__ import annotations

import re
import sys
from functools import partial
from typing import IO, Iterable

from .engine import SimConfig, StepReport
from .grid import FaultMap, GridDims, Value

MAGIC = "FAULTSIM 1"
STATS_HEADER = "step,quakes,cumulative_quakes,max_stress,mean_stress"

# the keys in file order: SimConfig's fields, its first (dims) given as width and height
_CONFIG_KEYS = ("width", "height", *SimConfig._FIELDS[1:])

# 2 MiB: a valid 1024x1024 file whose ints have int()'s default 4,300 digits is ~1.08 MB
_MAX_BYTES = 2 << 20

# canonical decimal integers only: no leading zeros, plus signs or "-0"
_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)$")

# map glyphs to fault cells and back: "0" is a plain cell, "1" a fault cell; a cell's
# glyph is that of its truth, so any nonzero byte saves as "1"
_GLYPHS_TO_CELLS = bytes.maketrans(b"01", b"\0\1")
_CELLS_TO_GLYPHS = FaultMap.TRUTH.translate(bytes.maketrans(b"\0\1", b"01"))


class ScenarioError(ValueError):
    """A scenario parse failure; the message names the check that failed."""


class Scenario(Value):
    __slots__ = _FIELDS = ("cfg", "faults")

    def __init__(self, cfg: SimConfig, faults: FaultMap) -> None:
        if cfg.dims != faults.dims:
            raise ValueError("config and fault map disagree on grid dimensions")
        super().__init__(cfg, faults)


def format_scenario(scenario: Scenario) -> str:
    cfg = scenario.cfg
    values = (cfg.dims.width, cfg.dims.height, *(getattr(cfg, key) for key in _CONFIG_KEYS[2:]))
    lines = [MAGIC]
    lines.extend(f"{key} {value}" for key, value in zip(_CONFIG_KEYS, values))
    lines.append("map")
    glyphs = scenario.faults.cells.translate(_CELLS_TO_GLYPHS).decode("ascii")
    width = cfg.dims.width
    lines.extend(glyphs[start : start + width] for start in range(0, len(glyphs), width))
    lines.append("end")
    return "".join(line + "\n" for line in lines)


def parse_scenario(data: str | bytes) -> Scenario:
    """Parse canonical scenario text; raises ScenarioError otherwise."""
    # only newline-terminated lines count; tail is "" when the text ends cleanly. The
    # decoded text is split at once, so no copy of it is held while the map is built
    try:
        *lines, tail = (data.decode("ascii") if isinstance(data, bytes) else data).split("\n")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario is not ASCII: {exc}") from None
    take = partial(next, iter(lines), None)

    if (magic := take()) != MAGIC:
        raise ScenarioError(f"expected {MAGIC!r} header, got {magic!r}")

    values: dict[str, int] = {}
    for key in _CONFIG_KEYS:
        if (line := take()) is None or not line.startswith(key + " "):
            raise ScenarioError(f"expected '{key} <value>' line, got {line!r}")
        token = line[len(key) + 1 :]
        if not _INT_RE.fullmatch(token):
            raise ScenarioError(f"{key}: not a canonical integer: {token!r}")
        try:
            values[key] = int(token)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise ScenarioError(f"{key}: {len(token.lstrip('-'))} digits, more than the "
                                f"{sys.get_int_max_str_digits()} an integer may have") from None

    try:
        dims = GridDims(values.pop("width"), values.pop("height"))
        cfg = SimConfig(dims=dims, **values)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    if (line := take()) != "map":
        raise ScenarioError(f"expected 'map' line, got {line!r}")

    # each row is checked as it is read, so the first bad row is the one named;
    # a non-ASCII glyph becomes "?", so it fails the glyph check like any other
    block = bytearray()
    for index in range(dims.height):
        if (row := take()) is None:
            raise ScenarioError(f"map ended after {index} of {dims.height} rows")
        glyphs = row.encode("ascii", "replace")
        if len(glyphs) != dims.width or glyphs.translate(None, b"01"):
            raise ScenarioError(f"map row {index}: {row!r}")
        block += glyphs

    if (line := take()) != "end":
        raise ScenarioError(f"expected 'end' after {dims.height} map rows, got {line!r}")

    if take() is not None or tail:
        raise ScenarioError("content after 'end'")

    return Scenario(cfg=cfg, faults=FaultMap(dims, block.translate(_GLYPHS_TO_CELLS)))


def save_scenario(scenario: Scenario, fp: IO[str]) -> None:
    fp.write(format_scenario(scenario))


def load_scenario(fp: IO[str] | IO[bytes]) -> Scenario:
    """parse_scenario of fp's contents; past _MAX_BYTES it fails, read no further than that."""
    if len(data := fp.read(_MAX_BYTES + 1)) > _MAX_BYTES:
        raise ScenarioError(f"scenario is longer than {_MAX_BYTES} bytes")
    return parse_scenario(data)


def _format_mean(total: int, area: int) -> str:
    """total / area to two decimals, half up: floor(100 * total / area + 1/2) in ints alone.

    Scaling both by one factor leaves that unchanged, so the pair need not be
    reduced; step clamps cells at 0, so a mean is never negative.
    """
    cents = (200 * total + area) // (2 * area)
    return f"{cents // 100}.{cents % 100:02d}"


def format_stats_row(r: StepReport) -> str:
    """One step's CSV row, newline included, ready to write as the step completes."""
    return (f"{r.step_index},{len(r.quaked_cells)},{r.cumulative_quakes},"
            f"{r.max_stress},{_format_mean(r.stress_total, r.area)}\n")


def format_stats(reports: Iterable[StepReport]) -> str:
    """The whole CSV; with no reports, just the header line."""
    return STATS_HEADER + "\n" + "".join(map(format_stats_row, reports))

