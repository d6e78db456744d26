"""Independent reference implementations used to cross-check the package.

The rasterizer oracles deliberately avoid the incremental error-accumulator
formulations in the package: segments are computed by direct nearest-cell
rounding per major-axis column, circles by exact integer square roots per
octant column. `next_u64` is SplitMix64 one output at a time, with its own
constants, where the engine mixes a whole block of draws in the 64-bit
lanes of one int, draw k in lane k. The step oracle draws each cell through
it, where `SplitMix64` mixes blocks of `engine._CHUNK` (2,048) draws and
serves their bytes through one view, `_outputs`, a chunk of a step at a
time, across chunk and step boundaries: `engine._cell_kernel` unpacks them
with `draws`, and `engine._lane_kernel` reduces them itself.
The oracle keeps nothing from step to step but `rng.state`, so the two meet
only if the draws a kept block serves are the stream's own. It returns the
engine's own report, quake mask included.
`strip_ansi` removes the renderer's colour codes, so a coloured frame can be
checked against a plain one. `format_mean` rounds an exact `Fraction` mean,
where the CSV writer rounds the two ints of a report in integer arithmetic.
`KERNELS` names the engine's step kernels, for tests that run one check on
each, and `use_kernel` makes `step` run the one named. `fault_cells`,
`fault_count`, `is_fault`, `copy_grid` and `stress_map` read, copy and build
maps for the tests; the program itself never needs them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest

from faultsim import engine
from faultsim.engine import QuakedCells, SimConfig, SplitMix64, StepReport, _c_kernel, _cell_kernel, _lane_kernel
from faultsim.grid import Cell, FaultMap, GridDims, StressMap

_ANSI_RE = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")

_MASK64 = (1 << 64) - 1

# the engine's step kernels by name; "c" is there only where engine built its C kernel
KERNELS = {"lane": _lane_kernel, "cell": _cell_kernel, **({"c": _c_kernel} if engine._C else {})}
# the kernels a parametrized test runs: "c" too, skipped with this reason where it did not build
NO_C = "the C kernel did not build here: no compiler, no Python headers or a read-only tree"
KERNEL_CASES = [*KERNELS] if "c" in KERNELS else [*KERNELS, pytest.param("c", marks=pytest.mark.skip(reason=NO_C))]


def use_kernel(monkeypatch: pytest.MonkeyPatch, name: str) -> None:
    """Make step run the kernel named. "c": step as it is, which takes C wherever it can; "lane"
    or "cell": C hidden and engine._lane_kernel patched to that kernel, so step goes as the
    Python path finds it, or per cell alone on the inputs byte lanes would take too."""
    if name != "c":
        monkeypatch.setattr(engine, "_C", None)
        monkeypatch.setattr(engine, "_lane_kernel", KERNELS[name])


def next_u64(rng: SplitMix64) -> int:
    """The next output of rng's stream, one at a time: rng.state moves one gamma
    (0x9E3779B97F4A7C15) and is mixed by the 30/27/31 xor-shift-multiply finaliser."""
    rng.state = z = (rng.state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def strip_ansi(text: str) -> str:
    """Remove ANSI escape sequences."""
    return _ANSI_RE.sub("", text)


def format_mean(total: int, area: int) -> str:
    """total / area to two decimals, half up: the Fraction floored after adding half a cent."""
    cents = math.floor(Fraction(total, area) * 100 + Fraction(1, 2))
    return f"{cents // 100}.{cents % 100:02d}"


def fault_cells(fmap: FaultMap) -> set[Cell]:
    """The (x, y) of every fault cell."""
    w = fmap.dims.width
    return {(i % w, i // w) for i, v in enumerate(fmap.cells) if v}


def fault_count(fmap: FaultMap) -> int:
    return sum(fmap.cells)


def is_fault(fmap: FaultMap, x: int, y: int) -> bool:
    """True iff (x, y) is a fault cell; IndexError off the grid."""
    return fmap.cells[fmap._index(x, y)] != 0


def copy_grid(grid: FaultMap | StressMap) -> FaultMap | StressMap:
    """A map of the same type and dims whose cells are a copy."""
    return type(grid)(grid.dims, grid.cells.copy())


def stress_map(dims: GridDims, values: list[int]) -> StressMap:
    """A stress map of these row-major values, stored as the engine stores them:
    in bytes while every value fits one, else as a list of ints."""
    return StressMap(dims, bytearray(values) if max(values) <= 0xFF else list(values))


def segment_oracle(x0: int, y0: int, x1: int, y1: int) -> set[tuple[int, int]]:
    """Nearest cell to the true line per major-axis step.

    Ties (line exactly halfway between two cells) go to the lower minor-axis
    coordinate: lower y for shallow lines, lower x for steep ones.
    """
    if (x1, y1) < (x0, y0):
        x0, y0, x1, y1 = x1, y1, x0, y0
    dx = x1 - x0
    dy = y1 - y0
    cells: set[tuple[int, int]] = set()
    if dx >= abs(dy):
        if dx == 0:
            return {(x0, y0)}
        n = abs(dy)
        s = 1 if dy >= 0 else -1
        for k in range(dx + 1):
            num, den = 2 * k * n + dx, 2 * dx
            r = num // den
            if s > 0 and num % den == 0:  # exact half: keep the lower y
                r -= 1
            cells.add((x0 + k, y0 + s * r))
    else:
        d = abs(dy)
        s = 1 if dy > 0 else -1
        for k in range(d + 1):
            num, den = 2 * k * dx + d, 2 * d
            r = num // den
            if num % den == 0:  # exact half: keep the lower x
                r -= 1
            cells.add((x0 + r, y0 + s * k))
    return cells


def _round_sqrt(n: int) -> int:
    """Nearest integer to sqrt(n), exact (never a tie for integer n)."""
    m = math.isqrt(n)
    return m + 1 if n > m * m + m else m


def circle_oracle(cx: int, cy: int, r: int) -> set[tuple[int, int]]:
    """Per-octant nearest-cell circle: y = round(sqrt(r^2 - x^2)) for
    x in [0, ceil(r/sqrt(2))], mirrored across all 8 octants."""
    cells: set[tuple[int, int]] = set()
    for x in range(math.ceil(r / math.sqrt(2)) + 1):
        y = _round_sqrt(r * r - x * x)
        for px, py in ((x, y), (y, x)):
            cells.update(
                (
                    (cx + px, cy + py),
                    (cx - px, cy + py),
                    (cx + px, cy - py),
                    (cx - px, cy - py),
                )
            )
    return cells


def step_oracle(
    stress: StressMap,
    faults: FaultMap,
    cfg: SimConfig,
    rng: SplitMix64,
    cumulative_quakes: int,
    step_index: int = 1,
) -> StepReport:
    """engine.step drawn one cell at a time through next_u64, with the same report: its
    QuakedCells holds a mask with 0x80 where a cell quaked, the width and the mask's count."""
    if not (stress.dims == faults.dims == cfg.dims):
        raise ValueError("stress, faults and config must share one grid")

    cells = stress.cells
    fault_flags = faults.cells
    f_lo, f_hi = cfg.fault_delta_min, cfg.fault_delta_max
    n_lo, n_hi = cfg.nonfault_delta_min, cfg.nonfault_delta_max
    for i in range(len(cells)):
        if fault_flags[i]:
            delta = f_lo + next_u64(rng) % (f_hi - f_lo + 1)
        else:
            delta = n_lo + next_u64(rng) % (n_hi - n_lo + 1)
        value = max(cells[i] + delta, 0)
        if value > 0xFF and isinstance(cells, bytearray):  # the engine picks a list before any draw
            stress.cells = cells = list(cells)
        cells[i] = value

    max_stress = max(cells)

    mask = bytearray(len(cells))
    threshold = cfg.quake_threshold
    for i, value in enumerate(cells):
        if value >= threshold:
            mask[i] = 0x80
            cells[i] = 0

    quaked = QuakedCells(mask, cfg.dims.width, mask.count(0x80))
    return StepReport(step_index, quaked, cumulative_quakes + len(quaked), max_stress, sum(cells),
                      len(cells))
