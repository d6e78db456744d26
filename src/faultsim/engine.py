"""Stochastic stress accumulation over a fault map.

Each step visits every cell in row-major order and draws one bounded random
delta for it: fault cells from the fault range, everything else from the
non-fault range. Values clamp at zero, and after the whole grid has updated
any cell at or above the quake threshold is reported as an earthquake and
reset to 0. With a fixed seed the entire run replays bit-identically, which
is what makes scenario files and recorded statistics trustworthy.
"""

from __future__ import annotations

import os
import struct
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from types import ModuleType
from typing import Callable, Iterator
from zlib import crc32

from .grid import Cell, FaultMap, GridDims, StressMap, Value, digits, require_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# draws per block SplitMix64 mixes, and most cells per chunk a step kernel walks.
# 2,048 beats 1,024 on speed; 4,096 gains nothing more and raises peak memory
_CHUNK = 2048

# one day: longer than any useful frame pause, far below where time.sleep overflows
MAX_DELAY_MS = 86_400_000


def _build(source: str, path: str) -> None:
    """Compile source into the extension module at path, or raise.

    The compiler and its flags are the ones this Python was built with: sysconfig's LDSHARED
    (None on Windows, which builds nothing here), CCSHARED and include paths. The module goes
    to a name of this process's own and is renamed into place whole, so builds that race each
    leave one whole file and a failed one leaves none.
    """
    import shlex
    import subprocess
    import sysconfig

    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared:
        raise OSError("this Python names no command that links an extension module")
    paths = sysconfig.get_paths()
    temp = f"{path}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    try:
        subprocess.run([*shlex.split(ldshared), *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
                        "-O2", "-I", paths["include"], "-I", paths["platinclude"], source, "-o", temp],
                       stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=120)
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def _load(source: str) -> ModuleType | None:
    """The C step kernel compiled from source, built on the first call and cached; None where it
    cannot be built or loaded.

    The build is cached in the __pycache__ beside source, named by the crc32 of the source and
    the interpreter's extension suffix: an edited source or another Python builds a file of its
    own, and a stale one is never loaded. Any failure (no compiler, no Python headers, a read-only
    tree, a platform without LDSHARED) gives None, and step runs every step per cell.
    """
    try:
        with open(source, "rb") as file:
            code = file.read()
        cache = os.path.join(os.path.dirname(source), "__pycache__")
        path = os.path.join(cache, f"_kernel.{crc32(code):08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(path):
            _build(source, path)
        loader = ExtensionFileLoader("faultsim._kernel", path)
        module = loader.create_module(ModuleSpec("faultsim._kernel", loader, origin=path))
        loader.exec_module(module)
        return module
    except Exception:  # quietly: the per-cell kernel gives the same bytes, and stderr is the run's own
        return None


_C = _load(os.path.join(os.path.dirname(__file__), "_kernel.c"))


@lru_cache(maxsize=1)
def _lanes() -> tuple[int, int, int, int, int, int, tuple[int, int], tuple[int, int]]:
    """The constants of a block's _CHUNK 64-bit lanes, lane k holding the uint64 of draw k.

    Returns `top` (bit 63 of every lane), `even` and `odd` (every bit of the
    even and of the odd lanes), `keep30`, `keep27` and `keep31` (the low 64-s
    bits of every lane, for the mixer's shift by s), and two lane-wise addends,
    each as its low 63 bits and its bit 63 in every lane: `ramp` ((k+1)*gamma
    mod 2**64 in lane k) and `stride` (_CHUNK*gamma mod 2**64 in every lane,
    which takes one block's mixer inputs to the next block's).
    """
    def pack(values: list[int]) -> int:
        return int.from_bytes(struct.pack(f"<{_CHUNK}Q", *values), "little")

    def split(addend: int) -> tuple[int, int]:
        return addend ^ (high := addend & top), high

    ones = pack([1] * _CHUNK)
    top = ones << 63
    even = pack([_MASK64, 0] * (_CHUNK // 2))
    return (top, even, even << 64, *((_MASK64 >> s) * ones for s in (30, 27, 31)),
            split(pack([(k + 1) * _GAMMA & _MASK64 for k in range(_CHUNK)])),
            split((_CHUNK * _GAMMA & _MASK64) * ones))


def _mix(state: int, inputs: int | None) -> tuple[int, bytes]:
    """The mixer inputs of the _CHUNK draws after state, and their outputs, one per 8-byte lane.

    Output k is mix(state + (k+1)*gamma), mix being the 30/27/31 xor-shift-multiply
    finaliser. The inputs sit in the 64-bit lanes of one int, so each mixer operation
    below acts on every lane at once: the add carries only into bit 63 of each lane and
    xors that bit; a mask after each xor-shift drops the bits shifted in from the next
    lane; and the even and the odd lanes are multiplied apart, so the high half of a
    64x64-bit product lands in a lane the mask clears. `inputs`, the last block's when
    it ended at state, give this block's with one lane-wise add of `stride`; given None,
    they are built from the state with one of `ramp`.
    """
    top, even, odd, keep30, keep27, keep31, ramp, stride = _lanes()
    z, (low, high) = (state * (top >> 63), ramp) if inputs is None else (inputs, stride)
    t = z & top  # z + (low | high) mod 2**64 in every lane: the low 63 bits add, bit 63 xors
    inputs = z = ((z ^ t) + low) ^ t ^ high
    z ^= (z >> 30) & keep30
    e = z & even
    z = (e * _MIX1 & even) | ((z ^ e) * _MIX1 & odd)
    z ^= (z >> 27) & keep27
    e = z & even
    z = (e * _MIX2 & even) | ((z ^ e) * _MIX2 & odd)
    z ^= (z >> 31) & keep31
    return inputs, z.to_bytes(8 * _CHUNK, "little")


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood's mixer).

    Chosen for portability: the recurrence is a handful of 64-bit wrapping
    ops, so any implementation in any language produces the same stream for
    the same seed. Statistical polish beyond that is irrelevant here.

    Output k is a pure function of state + k*gamma, so how draws are grouped
    for the mixer is the generator's own choice: it mixes the stream in blocks
    of _CHUNK draws and serves calls of any size from them. It keeps one block,
    tagged by the state after the last draw served, with the offset of the next
    draw, the block's mixer inputs and its outputs. A call whose state matches
    the tag reads on from the offset, and a block it runs past the end of is
    followed by the next, mixed from the carried inputs; any other call (the
    first, or one after the state was set from outside) mixes a block from the
    state. `state` always moves exactly one gamma per draw served.
    """

    __slots__ = ("state", "_block")

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64
        self._block: tuple[int, int, int | None, bytes] | None = None  # see draws

    def draws(self, n: int) -> tuple[int, ...]:
        """The next n outputs of the stream as ints; the state moves n gammas, and the last block
        they reach is kept."""
        state = self.state
        kept = self._block
        if kept is not None and kept[0] == state:
            _, at, inputs, buf = kept
        else:
            at, inputs, buf = _CHUNK, None, b""
        self.state = end = (state + n * _GAMMA) & _MASK64
        parts, left = [], n
        while at + left > _CHUNK:  # the call runs past this block's end
            if at < _CHUNK:
                parts.append(buf[8 * at:])
                left -= _CHUNK - at
            (inputs, buf), at = _mix(state, inputs), 0
        parts.append(buf[8 * at:8 * (at + left)])  # a whole block's slice and join copy nothing
        self._block = (end, at + left, inputs, buf)
        return struct.unpack(f"<{n}Q", b"".join(parts))

    def randint(self, lo: int, hi: int) -> int:
        """lo + the next output mod (hi - lo + 1): one draw, by modulo; requires lo <= hi."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.draws(1)[0] % (hi - lo + 1)


class SimConfig(Value):
    """All tunable simulation constants; _FIELDS lists them in scenario-file order."""

    __slots__ = _FIELDS = ("dims", "seed", "quake_threshold", "target_quakes", "nonfault_delta_min",
                           "nonfault_delta_max", "fault_delta_min", "fault_delta_max", "delay_ms",
                           "max_steps")

    def __init__(self, dims: GridDims = GridDims(20, 20), seed: int = 0, quake_threshold: int = 100,
                 target_quakes: int = 3, nonfault_delta_min: int = -5, nonfault_delta_max: int = 5,
                 fault_delta_min: int = 0, fault_delta_max: int = 10, delay_ms: int = 1000,
                 max_steps: int = 100_000) -> None:
        super().__init__(dims, seed, quake_threshold, target_quakes, nonfault_delta_min,
                         nonfault_delta_max, fault_delta_min, fault_delta_max, delay_ms, max_steps)
        if not isinstance(dims, GridDims):
            raise ValueError(f"dims must be a GridDims, got {dims!r}")
        for name in self._FIELDS[1:]:  # every field after dims
            require_int(name, getattr(self, name))
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {digits(self.seed)}")
        for name in ("quake_threshold", "target_quakes", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.delay_ms <= MAX_DELAY_MS:
            raise ValueError(f"delay_ms must be in [0, {MAX_DELAY_MS}]")
        if self.nonfault_delta_min > self.nonfault_delta_max:
            raise ValueError("nonfault delta range is empty")
        if self.fault_delta_min > self.fault_delta_max:
            raise ValueError("fault delta range is empty")


class QuakedCells(Value):
    """One step's quaked cells: a mask with 0x80 in byte i where cell i quaked, the grid width
    and their count, from the step's kernel. Length is the count; iteration decodes each (x, y)
    in row-major order. It compares and prints by its fields; its bytearray mask makes it unhashable."""

    __slots__ = _FIELDS = ("mask", "width", "count")

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Cell]:
        mask, width = self.mask, self.width
        i = mask.find(0x80)
        while i >= 0:
            yield i % width, i // width
            i = mask.find(0x80, i + 1)


class StepReport(Value):
    """Outcome of one simulation step.

    quaked_cells is its QuakedCells; max_stress is read before the quake
    reset, stress_total (the sum over the map's area cells) after it. The
    mean is stress_total / area, as two ints.
    """

    __slots__ = _FIELDS = ("step_index", "quaked_cells", "cumulative_quakes", "max_stress",
                           "stress_total", "area")


class SimSummary(Value):
    """What run returns: the stress map after the last step."""

    __slots__ = _FIELDS = ("final_stress",)


def step(stress: StressMap, faults: FaultMap, cfg: SimConfig, rng: SplitMix64,
         cumulative_quakes: int, step_index: int = 1) -> StepReport:
    """Advance the stress map by one step, mutating it in place.

    Exactly one rng draw per cell, row-major: cell i gets the value rng.randint would give it, and
    rng.state moves one gamma per cell. The draws may come from a block that rng mixed in an
    earlier step (see SplitMix64); the values are the same. A kept cell is below the threshold,
    so only a threshold above 256 turns a map in bytes into a list of ints, before the first draw.
    The kernel is chosen before the first draw: _c_kernel if the C kernel was built (see _load),
    the map is in bytes and every delta low, high and span is below 2**62 in size; else
    _cell_kernel. A negative cell raises ValueError before any draw, the map left as it was.
    Quakes go into one mask of the map's size; the kernel counts them and sums the map as it goes.
    No (x, y) is built.
    """
    if not (stress.dims == faults.dims == cfg.dims):
        raise ValueError("stress, faults and config must share one grid")

    cells = stress.cells
    if not isinstance(cells, bytearray) and (low := min(cells)) < 0:  # bytes hold none
        raise ValueError(f"stress must be non-negative, got {low}")
    fault_flags = faults.cells
    f_lo, n_lo = cfg.fault_delta_min, cfg.nonfault_delta_min
    spans = n_span, f_span = (cfg.nonfault_delta_max - n_lo + 1, cfg.fault_delta_max - f_lo + 1)
    threshold = cfg.quake_threshold
    if threshold > 0x100 and isinstance(cells, bytearray):  # a cell kept, below it, may pass 255
        stress.cells = cells = list(cells)
    # C adds in int64: a cell, a low and a draw mod a span, each below 2**62, cannot overflow it
    native = (_C is not None and isinstance(cells, bytearray)
              and max(map(abs, (n_lo, f_lo, cfg.nonfault_delta_max, cfg.fault_delta_max, *spans))) < 1 << 62)
    area = len(cells)
    mask = bytearray(area)
    kernel = _c_kernel if native else _cell_kernel
    top, count, total = kernel(cells, fault_flags, mask, rng, f_lo, n_lo, f_span, n_span, threshold)
    return StepReport(step_index, QuakedCells(mask, cfg.dims.width, count),
                      cumulative_quakes + count, top, total, area)


def _c_kernel(cells: bytearray, fault_flags: bytearray, mask: bytearray, rng: SplitMix64,
              f_lo: int, n_lo: int, f_span: int, n_span: int, threshold: int) -> tuple[int, int, int]:
    """_cell_kernel's step in one C loop, on a map in bytes: the same mask and (top, count, total).

    It draws straight from rng.state and moves it one gamma per cell. It never reads or sets
    rng's kept block, whose tag then no longer matches, so rng's next call mixes from the state.
    """
    rng.state, top, count, total = _C.step(cells, fault_flags, mask, rng.state, n_lo, n_span, f_lo, f_span,
                                           threshold)
    return top, count, total


def _cell_kernel(cells: bytearray | list[int], fault_flags: bytearray, mask: bytearray, rng: SplitMix64,
                 f_lo: int, n_lo: int, f_span: int, n_span: int, threshold: int) -> tuple[int, int, int]:
    """Step each cell on its own; return the largest value before the quake reset, the number of
    cells reset and the sum of the cells after it.

    Cells go in chunks of _CHUNK, the last one shorter. A cell at or above the threshold gets
    0x80 in mask and is reset to 0. Each test uses only the cell's own post-update value, never
    a neighbour's.
    """
    top = count = total = 0
    area = len(cells)
    for a in range(0, area, _CHUNK):
        b = min(a + _CHUNK, area)
        n = b - a
        chunk = [
            v if (v := cell + (f_lo + u % f_span if f else n_lo + u % n_span)) > 0 else 0
            for cell, u, f in zip(cells[a:b], rng.draws(n), fault_flags[a:b])
        ]
        if (high := max(chunk)) > top:
            top = high
        if high >= threshold:
            for i, v in enumerate(chunk):
                if v >= threshold:
                    mask[a + i] = 0x80
                    chunk[i] = 0
                    count += 1
        cells[a:b] = chunk
        total += sum(chunk)
    return top, count, total


def iter_steps(stress: StressMap, faults: FaultMap, cfg: SimConfig) -> Iterator[StepReport]:
    """Step the stress map in place, yielding each step's report as it completes.

    The only run loop: it stops after the step that reaches target_quakes,
    or after max_steps. A consumer that stops iterating stops the run. No
    report is held here once the consumer asks for the next one, so a
    consumer that drops each report frees it before the next step runs.
    """
    rng = SplitMix64(cfg.seed)
    cumulative = 0
    for index in range(1, cfg.max_steps + 1):
        report = step(stress, faults, cfg, rng, cumulative, step_index=index)
        cumulative = report.cumulative_quakes
        yield report
        del report
        if cumulative >= cfg.target_quakes:
            return


def run(faults: FaultMap, cfg: SimConfig, observer: Callable[[StepReport], None]) -> SimSummary:
    """Run from an all-zero stress map until target_quakes or max_steps; return the final map.

    Each report goes to the observer, which does any counting, and is dropped
    before the next step runs, so memory does not grow with the step count or
    hold one step's quakes through the next.
    """
    stress = StressMap.empty(cfg.dims)
    for report in iter_steps(stress, faults, cfg):
        observer(report)
        del report
    return SimSummary(stress)
