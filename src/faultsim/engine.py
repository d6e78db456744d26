"""Stochastic stress accumulation over a fault map.

Each step visits every cell in row-major order and draws one bounded random
delta for it: fault cells from the fault range, everything else from the
non-fault range. Values clamp at zero, and after the whole grid has updated
any cell at or above the quake threshold is reported as an earthquake and
reset to 0. With a fixed seed the entire run replays bit-identically, which
is what makes scenario files and recorded statistics trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .grid import Cell, FaultMap, GridDims, StressMap

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood's mixer).

    Chosen for portability: the recurrence is a handful of 64-bit wrapping
    ops, so any implementation in any language produces the same stream for
    the same seed. Statistical polish beyond that is irrelevant here.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw from [lo, hi] via modulo reduction; requires lo <= hi."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class SimConfig:
    """All tunable simulation constants."""

    dims: GridDims = GridDims(20, 20)
    seed: int = 0
    quake_threshold: int = 100
    target_quakes: int = 3
    nonfault_delta_min: int = -5
    nonfault_delta_max: int = 5
    fault_delta_min: int = 0
    fault_delta_max: int = 10
    delay_ms: int = 1000
    max_steps: int = 100_000

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        for name in ("quake_threshold", "target_quakes", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        if self.nonfault_delta_min > self.nonfault_delta_max:
            raise ValueError("nonfault delta range is empty")
        if self.fault_delta_min > self.fault_delta_max:
            raise ValueError("fault delta range is empty")


@dataclass(frozen=True)
class StepReport:
    """Outcome of one simulation step.

    quaked_cells is in row-major scan order; max_stress is read before the
    quake reset, mean_stress after it.
    """

    step_index: int
    quaked_cells: tuple[Cell, ...]
    cumulative_quakes: int
    max_stress: int
    mean_stress: Fraction


@dataclass
class SimSummary:
    total_steps: int
    total_quakes: int
    final_stress: StressMap
    hit_step_limit: bool = False


def step(
    stress: StressMap,
    faults: FaultMap,
    cfg: SimConfig,
    rng: SplitMix64,
    cumulative_quakes: int,
    step_index: int = 1,
) -> StepReport:
    """Advance the stress map by one step, mutating it in place.

    Exactly one rng draw per cell, row-major. Quake detection is a second
    pass so that a cell's quake status depends only on its own post-update
    value, never on neighbors updated later in the scan.
    """
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


def iter_steps(stress: StressMap, faults: FaultMap, cfg: SimConfig) -> Iterator[StepReport]:
    """Step the stress map in place, yielding each step's report as it completes.

    The only run loop: it stops after the step that reaches target_quakes,
    or after max_steps. A consumer that stops iterating stops the run.
    """
    rng = SplitMix64(cfg.seed)
    cumulative = 0
    for index in range(1, cfg.max_steps + 1):
        report = step(stress, faults, cfg, rng, cumulative, step_index=index)
        yield report
        cumulative = report.cumulative_quakes
        if cumulative >= cfg.target_quakes:
            return


def run(
    faults: FaultMap,
    cfg: SimConfig,
    observer: Callable[[StepReport], None] | None = None,
) -> SimSummary:
    """Run from an all-zero stress map until target_quakes or max_steps.

    Only the last report is kept, so memory does not grow with the step count.
    """
    stress = StressMap.zeros(cfg.dims)
    for last in iter_steps(stress, faults, cfg):
        if observer is not None:
            observer(last)

    total = last.cumulative_quakes
    return SimSummary(
        total_steps=last.step_index,
        total_quakes=total,
        final_stress=stress,
        hit_step_limit=total < cfg.target_quakes,
    )
