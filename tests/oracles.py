"""Independent reference implementations used to cross-check the package.

The rasterizer oracles deliberately avoid the incremental error-accumulator
formulations in the package: segments are computed by direct nearest-cell
rounding per major-axis column, circles by exact integer square roots per
octant column. The step oracle draws each cell through its own `randint`
call, where the engine draws up to 1,024 cells in one block.
"""

from __future__ import annotations

import math
from fractions import Fraction

from faultsim.engine import SimConfig, SplitMix64, StepReport
from faultsim.grid import Cell, FaultMap, StressMap


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
    """engine.step drawn one cell at a time through rng.randint."""
    if not (stress.dims == faults.dims == cfg.dims):
        raise ValueError("stress, faults and config must share one grid")

    cells = stress.cells
    fault_flags = faults.cells
    randint = rng.randint
    f_lo, f_hi = cfg.fault_delta_min, cfg.fault_delta_max
    n_lo, n_hi = cfg.nonfault_delta_min, cfg.nonfault_delta_max
    for i in range(len(cells)):
        if fault_flags[i]:
            delta = randint(f_lo, f_hi)
        else:
            delta = randint(n_lo, n_hi)
        value = cells[i] + delta
        cells[i] = value if value > 0 else 0

    max_stress = max(cells)

    quaked: list[Cell] = []
    width = cfg.dims.width
    threshold = cfg.quake_threshold
    for i, value in enumerate(cells):
        if value >= threshold:
            quaked.append((i % width, i // width))
            cells[i] = 0

    return StepReport(
        step_index=step_index,
        quaked_cells=tuple(quaked),
        cumulative_quakes=cumulative_quakes + len(quaked),
        max_stress=max_stress,
        mean_stress=Fraction(sum(cells), len(cells)),
    )
