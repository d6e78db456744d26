"""Stochastic stress accumulation over a fault map.

Each step visits every cell in row-major order and draws one bounded random
delta for it: fault cells from the fault range, everything else from the
non-fault range. Values clamp at zero, and after the whole grid has updated
any cell at or above the quake threshold is reported as an earthquake and
reset to 0. With a fixed seed the entire run replays bit-identically, which
is what makes scenario files and recorded statistics trustworthy.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Iterator
from zlib import adler32

from .grid import Cell, FaultMap, GridDims, StressMap, Value, digits, require_int

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BELOW_GUARD = bytes(range(0x80))  # the byte values below the guard bit, 0x80

# draws per block SplitMix64 mixes, and most cells per chunk a step kernel walks.
# 2,048 beats 1,024 on speed; 4,096 gains nothing more and raises peak memory
_CHUNK = 2048

# one day: longer than any useful frame pause, far below where time.sleep overflows
MAX_DELAY_MS = 86_400_000


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


@lru_cache(maxsize=8)
def _residue_tables(span: int) -> tuple[tuple[bytes, ...], bytes, int]:
    """Lookup tables that take u mod span from the bytes of u, for 1 <= span <= 128.

    Returns eight tables (table i maps byte b to b*256**i mod span), the
    table of x mod span, and how many values below span add up in a byte.
    """
    tables = tuple(bytes(b * pow(256, i, span) % span for b in range(256)) for i in range(8))
    return tables, tables[0], 255 // (span - 1) if span > 1 else 8


def _residues(buf: bytes, span: int) -> bytes:
    """u mod span for each 64-bit u in buf's 8-byte lanes, one byte each.

    u = sum of b_i*256**i over its bytes b_i, so u mod span is the sum of
    table i's entries, mod span. The partial sums add on byte lanes; once
    `fit` values below span are in a lane, the lanes are reduced mod span
    before the next one is added, so no byte carries into its neighbour.
    """
    tables, reduce, fit = _residue_tables(span)
    n = len(buf) // 8
    acc = held = 0
    for i, table in enumerate(tables):
        if held == fit:
            acc = int.from_bytes(acc.to_bytes(n, "little").translate(reduce), "little")
            held = 1
        acc += int.from_bytes(buf[i::8].translate(table), "little")
        held += 1
    return acc.to_bytes(n, "little").translate(reduce)


@lru_cache(maxsize=4)
def _byte_lanes(n: int) -> tuple[int, int]:
    """(ones, guards) of n little-endian byte lanes: 1 and the guard bit 0x80 in every byte."""
    return int.from_bytes(b"\1" * n, "little"), int.from_bytes(b"\x80" * n, "little")


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
        self._block: tuple[int, int, int | None, bytes] | None = None  # see _outputs

    def _outputs(self, n: int) -> bytes:
        """The next n outputs as 8*n little-endian bytes; the state moves n gammas, and the last
        block they reach is kept."""
        state = self.state
        kept = self._block
        if kept is not None and kept[0] == state:
            _, at, inputs, buf = kept
        else:
            at, inputs, buf = _CHUNK, None, b""
        self.state = end = (state + n * _GAMMA) & _MASK64
        parts = []
        while at + n > _CHUNK:  # the call runs past this block's end
            if at < _CHUNK:
                parts.append(buf[8 * at:])
                n -= _CHUNK - at
            (inputs, buf), at = _mix(state, inputs), 0
        parts.append(buf[8 * at:8 * (at + n)])  # a whole block's slice and join copy nothing
        self._block = (end, at + n, inputs, buf)
        return b"".join(parts)

    def draws(self, n: int) -> tuple[int, ...]:
        """The next n outputs of the stream as ints; state moves n gammas."""
        return struct.unpack(f"<{n}Q", self._outputs(n))

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
    earlier step (see SplitMix64); the values are the same. The kernel is chosen before the first
    draw: _lane_kernel if the map is in bytes, the config fits byte lanes and no cell is within
    the largest delta of 0x80, else _cell_kernel. A kept cell is below the threshold, so only a
    threshold above 256 turns a map in bytes into a list of ints, before the first draw. A
    negative cell raises ValueError before any draw, the map left as it was. Quakes go into one
    mask of the map's size; the kernel counts them and sums the map as it goes. No (x, y) is built.
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
    room = max(cfg.fault_delta_max, cfg.nonfault_delta_max, 0)  # the most a cell can gain
    if threshold > 0x100 and isinstance(cells, bytearray):  # a cell kept, below it, may pass 255
        stress.cells = cells = list(cells)
    # byte lanes hold -delta_min, r < span and any cell plus room below 0x80; the translate
    # deletes every cell that fits, so it leaves none exactly when all of them fit
    fits = (isinstance(cells, bytearray)
            and max(-min(f_lo, n_lo), max(spans) - 1, threshold - 1 + room) < 0x80
            and not cells.translate(None, _BELOW_GUARD[:0x80 - room]))
    area = len(cells)
    mask = bytearray(area)  # made after fits, whose translate may copy the whole map
    kernel = _lane_kernel if fits else _cell_kernel
    top, count, total = kernel(cells, fault_flags, mask, rng, f_lo, n_lo, f_span, n_span, threshold)
    return StepReport(step_index, QuakedCells(mask, cfg.dims.width, count),
                      cumulative_quakes + count, top, total, area)


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


def _lane_kernel(cells: bytearray, fault_flags: bytearray, mask: bytearray, rng: SplitMix64,
                 f_lo: int, n_lo: int, f_span: int, n_span: int, threshold: int) -> tuple[int, int, int]:
    """_cell_kernel's step on byte lanes: the same chunks, mask and (top, count, total).

    Byte lanes build no Python int per cell: each draw mod its span comes from _residues'
    table lookups on the mixer's bytes, and the add, the clamp, the quake test and the reset
    act on one int that holds each cell in a byte (Lamport's multiple byte processing with
    full-word instructions). A guard-bit test finds a chunk with a cell above the running
    max; the new max is the first byte value, from 0x7F down, found in the chunk's bytes.
    The count adds the quaked lanes' guard bits, and the total each chunk's 512-byte pieces:
    adler32's low half from 0 is a piece's sum mod 65,521, above 512 * 0x7F = 65,024. Each
    chunk's draws come from one rng._outputs call, which may start or end inside one of rng's
    blocks.
    """
    top = count = total = 0
    area = len(cells)
    for a in range(0, area, _CHUNK):
        b = min(a + _CHUNK, area)
        n = b - a
        ones, guards = _byte_lanes(n)
        lanes = int.from_bytes(cells[a:b], "little")
        flags = int.from_bytes(fault_flags[a:b].translate(FaultMap.TRUTH), "little")  # 1 per fault lane
        out = rng._outputs(n)
        r = int.from_bytes(_residues(out, n_span), "little")
        if f_span != n_span:  # the same draws reduced by the fault span; fault lanes take it
            r ^= (r ^ int.from_bytes(_residues(out, f_span), "little")) & flags * 0xFF
        # lane: 0x80 + cell + delta, where delta = r + the low end of the cell's range
        x = lanes + r + ones * (0x80 + n_lo) + flags * (f_lo - n_lo)
        g = x & guards  # guard bit set where cell + delta >= 0
        v = x & (g - (g >> 7))  # clamped at 0
        if (v + ones * (0x7F - top)) & guards:  # some lane exceeds top
            vb = v.to_bytes(n, "little")
            top = 0x7F  # no lane holds more; search down for the largest byte present
            while top not in vb:
                top -= 1
        q = (v + ones * (0x80 - threshold)) & guards  # guard bit set where v >= threshold
        if q:
            v ^= v & (q - (q >> 7))
            mask[a:b] = q.to_bytes(n, "little")
            count += q.bit_count()
        cells[a:b] = vb = v.to_bytes(n, "little")
        total += sum(adler32(vb[i:i + 512], 0) & 0xFFFF for i in range(0, n, 512))
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
