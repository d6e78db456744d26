"""Reference outputs, written from the documented behaviour, not from faultsim.

The benchmark checks every CLI output against these. The draw for cell i in
step s is SplitMix64 output number s*area + i + 1 of the scenario seed, i.e.
mix(seed + (s*area + i + 1) * GAMMA); the loop below walks that counter in
order. The text formats follow README.md: the headless statistics CSV, and
the interactive screen stream (menu, fault map, one cleared and redrawn
stress map per step, quake lines, summary).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1

MENU = (
    "1) vertical line\n2) horizontal line\n3) circle\n4) point-to-point line\n"
    "5) start simulation\n6) save scenario\n7) quit\n"
)
CLEAR = "\x1b[2J\x1b[H"
RED, GREEN, YELLOW, RESET = "\x1b[31m", "\x1b[32m", "\x1b[33m", "\x1b[0m"


@dataclass(frozen=True)
class Params:
    width: int
    height: int
    seed: int
    threshold: int
    target: int
    max_steps: int
    nonfault: tuple[int, int]
    fault: tuple[int, int]
    fault_flags: tuple[bool, ...]

    @classmethod
    def of(cls, scenario) -> Params:
        cfg = scenario.cfg
        return cls(
            cfg.dims.width, cfg.dims.height, cfg.seed, cfg.quake_threshold, cfg.target_quakes,
            cfg.max_steps, (cfg.nonfault_delta_min, cfg.nonfault_delta_max),
            (cfg.fault_delta_min, cfg.fault_delta_max), tuple(scenario.faults.cells),
        )


@dataclass(frozen=True)
class Expected:
    sha256: str
    length: int
    exit_code: int
    steps: int
    quakes: int


def simulate(p: Params) -> Iterator[tuple[int, list[int], list[int], int, int]]:
    """Per executed step: (step number, stress cells after resets, quaked cell
    indices, max before reset, cumulative quakes)."""
    area = p.width * p.height
    cells = [0] * area
    lows = [p.fault[0] if f else p.nonfault[0] for f in p.fault_flags]
    spans = [(p.fault[1] - p.fault[0] if f else p.nonfault[1] - p.nonfault[0]) + 1
             for f in p.fault_flags]
    state = p.seed
    total = 0
    for n in range(1, p.max_steps + 1):
        for i in range(area):
            state = (state + GAMMA) & MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            v = cells[i] + lows[i] + (z ^ (z >> 31)) % spans[i]
            cells[i] = v if v > 0 else 0
        peak = max(cells)
        quaked = [i for i, v in enumerate(cells) if v >= p.threshold]
        for i in quaked:
            cells[i] = 0
        total += len(quaked)
        yield n, cells, quaked, peak, total
        if total >= p.target:
            return


def _mean(total: int, area: int) -> str:
    cents = (200 * total + area) // (2 * area)  # total >= 0: halves round up
    return f"{cents // 100}.{cents % 100:02d}"


def headless_pieces(p: Params, totals: list[int]) -> Iterator[str]:
    """Stdout of `faultsim --headless --scenario F`; leaves [steps, quakes] in totals."""
    area = p.width * p.height
    yield "step,quakes,cumulative_quakes,max_stress,mean_stress\n"
    for n, cells, quaked, peak, total in simulate(p):
        totals[:] = [n, total]
        yield f"{n},{len(quaked)},{total},{peak},{_mean(sum(cells), area)}\n"


def _glyph_table(p: Params) -> list[str]:
    low = p.threshold // 3
    med = max(low + 1, (2 * p.threshold) // 3)
    table = []
    for v in range(p.threshold):  # cells on screen are always below the threshold
        colour = GREEN if v <= low else YELLOW if v <= med else RED
        table.append(f"{colour}{min(v, 999):>3d}{RESET}")
    return table


def _screen(cells: list[int], width: int, table: list[str]) -> str:
    return "".join(
        " ".join(map(table.__getitem__, cells[r : r + width])) + "\n"
        for r in range(0, len(cells), width)
    )


def animate_pieces(p: Params, totals: list[int]) -> Iterator[str]:
    """Stdout of `faultsim --scenario F --delay-ms 0` fed "5\\n"; leaves
    [steps, quakes] in totals."""
    w = p.width
    table = _glyph_table(p)
    flags = p.fault_flags
    one = f"{RED}1{RESET}"
    yield MENU + "choice: "
    yield "".join(
        " ".join(one if f else "0" for f in flags[r : r + w]) + "\n" for r in range(0, len(flags), w)
    )
    yield _screen([0] * len(flags), w, table)
    n = total = 0
    for n, cells, quaked, _, total in simulate(p):
        totals[:] = [n, total]
        yield CLEAR + _screen(cells, w, table)
        yield "".join(f"EARTHQUAKE at ({i % w}, {i // w})!\n" for i in quaked)
    if total >= p.target:
        yield f"Done: {total} earthquakes in {n} steps (seed {p.seed}).\n"
    else:
        yield f"Step limit reached after {n} steps with {total} earthquakes (seed {p.seed}).\n"


def expected(p: Params, headless: bool) -> Expected:
    """Digest, length, exit code and totals of the CLI's stdout."""
    totals = [0, 0]
    h = hashlib.sha256()
    length = 0
    for piece in (headless_pieces if headless else animate_pieces)(p, totals):
        data = piece.encode()
        h.update(data)
        length += len(data)
    steps, quakes = totals
    return Expected(h.hexdigest(), length, 0 if quakes >= p.target else 2, steps, quakes)
