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
    """Base for all scenario parse failures."""


class BadMagicError(ScenarioError):
    pass


class MissingKeyError(ScenarioError):
    pass


class MalformedValueError(ScenarioError):
    pass


class MapShapeMismatchError(ScenarioError):
    pass


class TrailingGarbageError(ScenarioError):
    pass


@dataclass
class Scenario:
    cfg: SimConfig
    faults: FaultMap

    def __post_init__(self) -> None:
        if self.cfg.dims != self.faults.dims:
            raise ValueError("config and fault map disagree on grid dimensions")


def format_scenario(scenario: Scenario) -> str:
    cfg = scenario.cfg
    values = {
        "width": cfg.dims.width,
        "height": cfg.dims.height,
        "seed": cfg.seed,
        "quake_threshold": cfg.quake_threshold,
        "target_quakes": cfg.target_quakes,
        "nonfault_delta_min": cfg.nonfault_delta_min,
        "nonfault_delta_max": cfg.nonfault_delta_max,
        "fault_delta_min": cfg.fault_delta_min,
        "fault_delta_max": cfg.fault_delta_max,
        "delay_ms": cfg.delay_ms,
        "max_steps": cfg.max_steps,
    }
    lines = [MAGIC]
    lines.extend(f"{key} {values[key]}" for key in _CONFIG_KEYS)
    lines.append("map")
    width = cfg.dims.width
    cells = scenario.faults.cells
    for row_start in range(0, cfg.dims.area, width):
        lines.append("".join("1" if v else "0" for v in cells[row_start : row_start + width]))
    lines.append("end")
    return "".join(line + "\n" for line in lines)


class _LineReader:
    """Yields only newline-terminated lines; anything else counts as absent."""

    def __init__(self, text: str) -> None:
        parts = text.split("\n")
        self._lines = parts[:-1]
        self.unterminated_tail = parts[-1]  # "" when the text ends cleanly
        self._pos = 0

    def take(self) -> str | None:
        if self._pos >= len(self._lines):
            return None
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def exhausted(self) -> bool:
        return self._pos >= len(self._lines) and not self.unterminated_tail


def parse_scenario(data: str | bytes) -> Scenario:
    """Parse canonical scenario text; raises a ScenarioError subclass otherwise."""
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedValueError(f"scenario is not ASCII: {exc}") from None
    else:
        text = data

    reader = _LineReader(text)

    magic = reader.take()
    if magic != MAGIC:
        raise BadMagicError(f"expected {MAGIC!r} header, got {magic!r}")

    values: dict[str, int] = {}
    for key in _CONFIG_KEYS:
        line = reader.take()
        if line is None or not line.startswith(key + " "):
            raise MissingKeyError(f"expected '{key} <value>' line, got {line!r}")
        token = line[len(key) + 1 :]
        if not _INT_RE.fullmatch(token):
            raise MalformedValueError(f"{key}: not a canonical integer: {token!r}")
        values[key] = int(token)

    try:
        dims = GridDims(values["width"], values["height"])
        cfg = SimConfig(
            dims=dims,
            seed=values["seed"],
            quake_threshold=values["quake_threshold"],
            target_quakes=values["target_quakes"],
            nonfault_delta_min=values["nonfault_delta_min"],
            nonfault_delta_max=values["nonfault_delta_max"],
            fault_delta_min=values["fault_delta_min"],
            fault_delta_max=values["fault_delta_max"],
            delay_ms=values["delay_ms"],
            max_steps=values["max_steps"],
        )
    except ValueError as exc:
        raise MalformedValueError(str(exc)) from None

    line = reader.take()
    if line != "map":
        raise MissingKeyError(f"expected 'map' line, got {line!r}")

    cells: list[bool] = []
    for row_index in range(dims.height):
        row = reader.take()
        if row is None:
            raise MapShapeMismatchError(f"map ended after {row_index} of {dims.height} rows")
        if len(row) != dims.width or set(row) - {"0", "1"}:
            raise MapShapeMismatchError(f"map row {row_index}: {row!r}")
        cells.extend(c == "1" for c in row)

    line = reader.take()
    if line != "end":
        raise MapShapeMismatchError(f"expected 'end' after {dims.height} map rows, got {line!r}")

    if not reader.exhausted():
        raise TrailingGarbageError("content after 'end'")

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
    return (f"{r.step_index},{r.quakes_this_step},{r.cumulative_quakes},"
            f"{r.max_stress},{_format_mean(r.mean_stress)}\n")


def format_stats(reports: Iterable[StepReport]) -> str:
    """The whole CSV; with no reports, just the header line."""
    return STATS_HEADER + "\n" + "".join(map(format_stats_row, reports))


def write_stats(reports: Iterable[StepReport], fp: IO[str]) -> None:
    fp.write(format_stats(reports))
