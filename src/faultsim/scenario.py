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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import IO, Iterable

from .engine import SimConfig, StepReport
from .grid import FaultMap, GridDims

MAGIC = "FAULTSIM 1"
STATS_HEADER = "step,quakes,cumulative_quakes,max_stress,mean_stress"

_CONFIG_KEYS = (
    "width",
    "height",
    "seed",
    "quake_threshold",
    "target_quakes",
    "nonfault_delta_min",
    "nonfault_delta_max",
    "fault_delta_min",
    "fault_delta_max",
    "delay_ms",
    "max_steps",
)

# canonical decimal integers only: no leading zeros, plus signs or "-0"
_INT_RE = re.compile(r"-?(0|[1-9][0-9]*)$")


class ScenarioError(ValueError):
    """A scenario parse failure; the message names the check that failed."""


@dataclass
class Scenario:
    cfg: SimConfig
    faults: FaultMap

    def __post_init__(self) -> None:
        if self.cfg.dims != self.faults.dims:
            raise ValueError("config and fault map disagree on grid dimensions")


def format_scenario(scenario: Scenario) -> str:
    cfg = scenario.cfg
    values = vars(cfg.dims) | vars(cfg)  # width and height from dims, the rest from SimConfig
    lines = [MAGIC]
    lines.extend(f"{key} {values[key]}" for key in _CONFIG_KEYS)
    lines.append("map")
    lines.extend("".join("1" if v else "0" for v in row) for row in scenario.faults.rows())
    lines.append("end")
    return "".join(line + "\n" for line in lines)


def parse_scenario(data: str | bytes) -> Scenario:
    """Parse canonical scenario text; raises ScenarioError otherwise."""
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario is not ASCII: {exc}") from None
    else:
        text = data

    # only newline-terminated lines count; tail is "" when the text ends cleanly
    *lines, tail = text.split("\n")
    take = partial(next, iter(lines), None)

    magic = take()
    if magic != MAGIC:
        raise ScenarioError(f"expected {MAGIC!r} header, got {magic!r}")

    values: dict[str, int] = {}
    for key in _CONFIG_KEYS:
        line = take()
        if line is None or not line.startswith(key + " "):
            raise ScenarioError(f"expected '{key} <value>' line, got {line!r}")
        token = line[len(key) + 1 :]
        if not _INT_RE.fullmatch(token):
            raise ScenarioError(f"{key}: not a canonical integer: {token!r}")
        values[key] = int(token)

    try:
        dims = GridDims(values.pop("width"), values.pop("height"))
        cfg = SimConfig(dims=dims, **values)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    line = take()
    if line != "map":
        raise ScenarioError(f"expected 'map' line, got {line!r}")

    cells: list[bool] = []
    for row_index in range(dims.height):
        row = take()
        if row is None:
            raise ScenarioError(f"map ended after {row_index} of {dims.height} rows")
        if len(row) != dims.width or set(row) - {"0", "1"}:
            raise ScenarioError(f"map row {row_index}: {row!r}")
        cells.extend(c == "1" for c in row)

    line = take()
    if line != "end":
        raise ScenarioError(f"expected 'end' after {dims.height} map rows, got {line!r}")

    if take() is not None or tail:
        raise ScenarioError("content after 'end'")

    return Scenario(cfg=cfg, faults=FaultMap(dims, cells))


def save_scenario(scenario: Scenario, fp: IO[str]) -> None:
    fp.write(format_scenario(scenario))


def load_scenario(fp: IO[str] | IO[bytes]) -> Scenario:
    return parse_scenario(fp.read())


def _format_mean(mean: Fraction) -> str:
    """Two decimal places, rounding halves away from zero."""
    num, den = mean.numerator, mean.denominator
    cents = (200 * abs(num) + den) // (2 * den)
    sign = "-" if num < 0 else ""
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def format_stats_row(r: StepReport) -> str:
    """One step's CSV row, newline included, ready to write as the step completes."""
    return (f"{r.step_index},{len(r.quaked_cells)},{r.cumulative_quakes},"
            f"{r.max_stress},{_format_mean(r.mean_stress)}\n")


def format_stats(reports: Iterable[StepReport]) -> str:
    """The whole CSV; with no reports, just the header line."""
    return STATS_HEADER + "\n" + "".join(map(format_stats_row, reports))

