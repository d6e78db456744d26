import copy
import math
import pickle
import random
import re
import tracemalloc
from itertools import repeat
from operator import mod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultsim import engine
from faultsim.engine import (_CHUNK, QuakedCells, SimConfig, SplitMix64, StepReport, _mix, _residues,
                             iter_steps, run, step)
from faultsim.grid import FaultMap, GridDims, StressMap
from oracles import copy_grid, next_u64, step_oracle, stress_map

GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

# First outputs of the reference stream for seed 0, from the published
# constants (gamma 0x9E3779B97F4A7C15 with the 30/27/31 xor-shift mixer).
SEED0_FIRST = 0xE220A8397B1DCDAF
SEED0_SECOND = 0x6E789E6AA1B965F4


def seed_for_first_output(u: int) -> int:
    """The seed whose first output is u: the SplitMix64 mixer run backwards."""
    u ^= u >> 31 ^ u >> 62
    u = u * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    u ^= u >> 27 ^ u >> 54
    u = u * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    u ^= u >> 30 ^ u >> 60
    return (u - GAMMA) & MASK64


class TestSplitMix64:
    def test_seed0_reference_values(self):
        rng = SplitMix64(0)
        assert next_u64(rng) == SEED0_FIRST
        assert next_u64(rng) == SEED0_SECOND

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(12345)
        for _ in range(1000):
            assert 0 <= next_u64(rng) < 1 << 64

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(987654321), SplitMix64(987654321)
        assert [next_u64(a) for _ in range(500)] == [
            next_u64(b) for _ in range(500)
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64((1 << 64) + 7).state == SplitMix64(7).state

    def test_randint_inclusive_bounds(self):
        rng = SplitMix64(1)
        draws = [rng.randint(2, 4) for _ in range(200)]
        assert set(draws) == {2, 3, 4}

    def test_randint_degenerate_range(self):
        rng = SplitMix64(0)
        assert rng.randint(7, 7) == 7

    def test_randint_negative_range(self):
        rng = SplitMix64(3)
        assert all(-5 <= rng.randint(-5, 5) <= 5 for _ in range(200))

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randint(3, 2)

    def test_randint_is_modulo_reduction(self):
        # randint must consume exactly one raw output and reduce it mod the
        # range size, or replays diverge across implementations.
        assert SplitMix64(0).randint(0, 10) == SEED0_FIRST % 11 == 1

    def test_draws_match_scalar_stream(self):
        # call sizes up to a block of _CHUNK draws, and past it
        for seed in (0, 1, 2**64 - 1, GAMMA):
            for n in (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
                block, scalar = SplitMix64(seed), SplitMix64(seed)
                assert list(block.draws(n)) == [next_u64(scalar) for _ in range(n)], (seed, n)
                assert block.state == scalar.state, (seed, n)
        # calls that end at, just before and just past a block's end: a call straight after the
        # last reads on from the kept block, and one that runs past its end carries its inputs
        # into the next; a single randint, or a state set from outside, comes between them
        n, m, p, q = _CHUNK, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 1
        sequences = (
            [("draws", n), ("residues", n), ("draws", m), ("next", 1), ("draws", 5), ("residues", p), ("draws", q)],
            [("residues", m), ("residues", m), ("draws", n), ("next", 1), ("next", 1), ("residues", q),
             ("draws", n), ("residues", n)],
            [("draws", 1), ("residues", 1), ("next", 1), ("draws", p), ("residues", 1), ("draws", m),
             ("draws", 2), ("residues", 2)],
            [("draws", n), ("residues", p), ("rewind", 0), ("residues", n), ("draws", q)],
        )
        cases = {seed: list(sequences) for seed in (0, 1, 2**64 - 1, GAMMA)}
        # both lane-wise adds, the rebuilt one (state + (k+1)*gamma) for the first block and the
        # carried one (+ _CHUNK*gamma) for the next four, meet lanes below the top one that wrap
        # past 2**64 and lanes that do not; a plain + would carry into the next lane. Calls of n
        # draws over five blocks end at, or straddle, each block's end
        for seed, n in ((2**63, 2), (2**63, 3), (3 << 62, _CHUNK), (1 << 62, _CHUNK - 1)):
            rebuilt = [seed + ((k + 1) * GAMMA & MASK64) > MASK64 for k in range(_CHUNK)]
            carried = [((seed + (c * _CHUNK + k + 1) * GAMMA) & MASK64) + (_CHUNK * GAMMA & MASK64) > MASK64
                       for c in range(4) for k in range(_CHUNK)]
            for wraps in (rebuilt, carried):
                assert any(w for k, w in enumerate(wraps) if k % _CHUNK < _CHUNK - 1) and not all(wraps), seed
            cases.setdefault(seed, []).append([("draws", n)] * -(-5 * _CHUNK // n))
        for seed, seed_sequences in cases.items():
            for calls in seed_sequences:
                block, scalar = SplitMix64(seed), SplitMix64(seed)
                for kind, k in calls:
                    if kind == "rewind":  # both states set back to the seed from outside
                        block.state = scalar.state = seed
                        continue
                    drawn = [next_u64(scalar) for _ in range(k)]
                    if kind == "next":  # randint over all of 64 bits returns the draw itself
                        assert [block.randint(0, MASK64)] == drawn, (seed, calls, kind, k)
                    elif kind == "draws":
                        assert list(block.draws(k)) == drawn, (seed, calls, kind, k)
                    else:  # 128 reads the low 7 bits of each draw, 97 all of it
                        want = tuple(bytes(u % span for u in drawn) for span in (128, 97))
                        out = block._outputs(k)
                        assert tuple(_residues(out, span) for span in (128, 97)) == want, (seed, calls, kind, k)
                    assert block.state == scalar.state, (seed, calls, kind, k)

    @given(seed=st.integers(0, MASK64),
           calls=st.lists(st.tuples(st.integers(1, 2 * _CHUNK + 1), st.integers(1, 3),
                                    st.none() | st.integers(0, MASK64)), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_block_sizes_and_resets_match_scalar_stream(self, seed, calls):
        # each size is drawn repeat_count times in a row, so the carried inputs are used too;
        # a reset sets both states from outside before the size's first block
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got, want = [], []
        for n, repeat_count, reset in calls:
            if reset is not None:
                block.state = scalar.state = reset
            for _ in range(repeat_count):
                got += block.draws(n)
                want += [next_u64(scalar) for _ in range(n)]
                assert block.state == scalar.state, (n, reset)
        assert got == want

    @given(seed=st.integers(0, MASK64),
           calls=st.lists(st.one_of(
               # n draws, reduced by one or two spans (65-128 reduce after every 2-3 terms),
               # asked for `repeat_count` times in a row
               st.tuples(st.just("residues"), st.integers(1, 2 * _CHUNK + 1),
                         st.lists(st.integers(1, 128) | st.integers(65, 128), min_size=1, max_size=2,
                                  unique=True).map(tuple),
                         st.integers(1, 7)),
               st.tuples(st.just("draws"), st.integers(1, 9)),
               st.tuples(st.just("randint"), st.integers(1, 300)),
               st.tuples(st.just("reset"), st.integers(0, MASK64)),
               st.tuples(st.just("rewind"), st.integers(0, 3))), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_residues_match_scalar_stream(self, seed, calls):
        # every call is checked against the scalar stream; a reset sets both states from outside,
        # a rewind sets both back to the state before the i-th last call (i = 0 keeps it as it is)
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        states = [seed]
        for kind, *args in calls:
            if kind == "reset":
                block.state = scalar.state = args[0]
            elif kind == "rewind":
                block.state = scalar.state = states[-1 - min(args[0], len(states) - 1)]
            elif kind == "draws":
                assert list(block.draws(args[0])) == [next_u64(scalar) for _ in range(args[0])], kind
            elif kind == "randint":
                assert block.randint(0, args[0] - 1) == next_u64(scalar) % args[0], kind
            else:
                n, spans, repeat_count = args
                for _ in range(repeat_count):
                    out = block._outputs(n)
                    got = tuple(_residues(out, span) for span in spans)
                    drawn = [next_u64(scalar) for _ in range(n)]
                    assert got == tuple(bytes(u % span for u in drawn) for span in spans), (n, spans)
                    assert block.state == scalar.state, (n, spans)
                    states.append(scalar.state)
            assert block.state == scalar.state, kind
            states.append(scalar.state)

    # chunk lengths the kernels draw, up to a whole block (a 1024x1 grid is one chunk of
    # 1,024), and every span byte lanes hold; the buffer is the start of one block
    @pytest.mark.parametrize("n", sorted({1, 7, 400, 1023, 1024, _CHUNK - 1, _CHUNK}))
    def test_residues_match_modulo_of_draws(self, n):
        seeds = random.Random(n)
        for span in range(1, 129):
            seed = seeds.getrandbits(64)
            buf = _mix(seed, None)[1][:8 * n]
            assert _residues(buf, span) == bytes(map(mod, SplitMix64(seed).draws(n), repeat(span))), (seed, n, span)

    def test_residues_of_the_largest_byte_sums(self):
        # byte i of u picks the largest of b*256**i mod span, so every partial
        # sum is as large as it can get: a late reduction would carry into lane 1
        for span in range(1, 129):
            u = sum(max(range(256), key=lambda b: b * pow(256, i, span) % span) << 8 * i for i in range(8))
            seed = seed_for_first_output(u)
            assert next_u64(SplitMix64(seed)) == u
            buf = _mix(seed, None)[1][:16]
            assert _residues(buf, span) == bytes(map(mod, SplitMix64(seed).draws(2), repeat(span))), span


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.dims == GridDims(20, 20)
        assert cfg.quake_threshold == 100
        assert cfg.target_quakes == 3
        assert (cfg.nonfault_delta_min, cfg.nonfault_delta_max) == (-5, 5)
        assert (cfg.fault_delta_min, cfg.fault_delta_max) == (0, 10)
        assert cfg.delay_ms == 1000
        assert cfg.max_steps == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 1 << 64},
            {"quake_threshold": 0},
            {"target_quakes": 0},
            {"max_steps": 0},
            {"delay_ms": -1},
            {"delay_ms": 86_400_001},  # over a day; much larger values overflow time.sleep
            {"delay_ms": 10**400},
            {"nonfault_delta_min": 6},  # min > max
            {"fault_delta_min": 11},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name", [
        "seed", "quake_threshold", "target_quakes", "nonfault_delta_min", "nonfault_delta_max",
        "fault_delta_min", "fault_delta_max", "delay_ms", "max_steps",
    ])
    @pytest.mark.parametrize("value", [1.0, 2.5, True])
    def test_non_integer_rejected(self, name, value):
        # a float threshold used to fail only inside the first step, a bool delay ran
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("dims", [(20, 20), None, "20x20"])
    def test_dims_must_be_grid_dims(self, dims):
        # a tuple used to pass, then fail inside StressMap.empty with an AttributeError
        with pytest.raises(ValueError, match=re.escape(f"dims must be a GridDims, got {dims!r}")):
            SimConfig(dims=dims)

    def test_delay_up_to_one_day_accepted(self):
        assert SimConfig(delay_ms=86_400_000).delay_ms == 86_400_000


def _cfg(**kwargs) -> SimConfig:
    base = dict(
        dims=GridDims(1, 1),
        seed=0,
        quake_threshold=10,
        target_quakes=1,
        nonfault_delta_min=0,
        nonfault_delta_max=0,
        fault_delta_min=5,
        fault_delta_max=5,
        delay_ms=0,
    )
    base.update(kwargs)
    return SimConfig(**base)


class TestStep:
    def test_single_fault_cell_two_steps_to_quake(self):
        cfg = _cfg()
        faults = FaultMap.empty(cfg.dims)
        faults.mark(0, 0)
        stress = StressMap.empty(cfg.dims)
        rng = SplitMix64(cfg.seed)

        first = step(stress, faults, cfg, rng, 0, step_index=1)
        assert tuple(first.quaked_cells) == ()
        assert first.max_stress == 5
        assert (first.stress_total, first.area) == (5, 1)
        assert stress.cells[0] == 5

        second = step(stress, faults, cfg, rng, 0, step_index=2)
        assert tuple(second.quaked_cells) == ((0, 0),)
        assert second.cumulative_quakes == 1
        assert second.max_stress == 10  # read before the reset
        assert (second.stress_total, second.area) == (0, 1)  # read after it
        assert stress.cells[0] == 0

    def test_clamps_at_zero(self):
        cfg = _cfg(nonfault_delta_min=-5, nonfault_delta_max=-5)
        faults = FaultMap.empty(cfg.dims)
        stress = StressMap.empty(cfg.dims)
        stress.cells[0] = 3
        step(stress, faults, cfg, SplitMix64(0), 0)
        assert stress.cells[0] == 0

    def test_mixed_cells_deterministic_deltas(self):
        # Fault gains 3/step, non-fault 2/step, threshold 7: the fault cell
        # quakes on step 3 at 9 while its neighbor sits at 6.
        cfg = _cfg(
            dims=GridDims(2, 1),
            quake_threshold=7,
            fault_delta_min=3,
            fault_delta_max=3,
            nonfault_delta_min=2,
            nonfault_delta_max=2,
        )
        faults = FaultMap.empty(cfg.dims)
        faults.mark(0, 0)
        stress = StressMap.empty(cfg.dims)
        rng = SplitMix64(0)
        for i in (1, 2):
            report = step(stress, faults, cfg, rng, 0, step_index=i)
            assert tuple(report.quaked_cells) == ()
        report = step(stress, faults, cfg, rng, 0, step_index=3)
        assert tuple(report.quaked_cells) == ((0, 0),)
        assert report.max_stress == 9
        assert (report.stress_total, report.area) == (6, 2)
        assert (stress.cells[0], stress.cells[1]) == (0, 6)

    def test_quaked_cells_row_major_order(self):
        cfg = _cfg(
            dims=GridDims(2, 2),
            quake_threshold=1,
            fault_delta_min=1,
            fault_delta_max=1,
            nonfault_delta_min=1,
            nonfault_delta_max=1,
        )
        stress = StressMap.empty(cfg.dims)
        report = step(stress, FaultMap.empty(cfg.dims), cfg, SplitMix64(0), 0)
        assert tuple(report.quaked_cells) == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_mean_is_exact(self):
        cfg = _cfg(
            dims=GridDims(2, 1),
            fault_delta_min=1,
            fault_delta_max=1,
            nonfault_delta_min=2,
            nonfault_delta_max=2,
        )
        faults = FaultMap.empty(cfg.dims)
        faults.mark(0, 0)
        stress = StressMap.empty(cfg.dims)
        report = step(stress, faults, cfg, SplitMix64(0), 0)
        assert (report.stress_total, report.area) == (3, 2)

    def test_dims_mismatch_rejected(self):
        cfg = _cfg()
        with pytest.raises(ValueError):
            step(
                StressMap.empty(GridDims(2, 2)),
                FaultMap.empty(GridDims(2, 2)),
                cfg,
                SplitMix64(0),
                0,
            )

    def test_one_draw_per_cell_row_major(self):
        # k steps consume exactly k*area outputs: the state moves k*area gammas
        cfg = _cfg(dims=GridDims(5, 3), quake_threshold=1000)
        rng, twin = SplitMix64(0), SplitMix64(0)
        stress = StressMap.empty(cfg.dims)
        for i in range(1, 5):
            step(stress, FaultMap.empty(cfg.dims), cfg, rng, 0, step_index=i)
        for _ in range(4 * 15):
            next_u64(twin)
        assert rng.state == twin.state == (4 * 15 * GAMMA) & ((1 << 64) - 1)

    # a list-backed map is stepped per cell at every threshold, byte lanes or not
    @pytest.mark.parametrize("threshold", [10, 1000, 2**40, 10**30, 10**60])
    def test_negative_cell_rejected(self, threshold):
        # a map in bytes cannot hold a negative value; a list-backed map given one
        # must raise, not be clamped or give a wrong report
        cfg = _cfg(dims=GridDims(3, 1), quake_threshold=threshold)
        for value in (-4, -1):
            stress = StressMap(cfg.dims, [0, value, 0])
            with pytest.raises(ValueError, match=f"stress must be non-negative, got {value}"):
                step(stress, FaultMap.empty(cfg.dims), cfg, SplitMix64(0), 0)

    def test_negative_cell_in_the_last_chunk_leaves_map_and_rng_untouched(self):
        # the check runs before the first draw, not when the negative cell's chunk comes up
        cfg = SimConfig(dims=TWO_BLOCKS, seed=5, delay_ms=0)
        values = [1] * (cfg.dims.area - 1) + [-3]
        stress, rng = StressMap(cfg.dims, list(values)), SplitMix64(cfg.seed)
        with pytest.raises(ValueError, match="stress must be non-negative, got -3"):
            step(stress, FaultMap.empty(cfg.dims), cfg, rng, 0)
        assert stress.cells == values
        assert rng.state == cfg.seed

    # with zero deltas only a cell that starts at the threshold quakes; byte lanes on a
    # map in bytes hold thresholds up to 128, and from 129 on every chunk is stepped per cell
    @pytest.mark.parametrize("threshold", [100, 127, 128, 129, 1000])
    def test_zero_deltas_quake_only_at_threshold(self, threshold):
        cfg = _cfg(dims=GridDims(4, 1), quake_threshold=threshold, fault_delta_min=0, fault_delta_max=0)
        for starts, quaked in (([0, 1, 2, 3], ()), ([0, threshold - 1, threshold, 1], ((2, 0),))):
            stress = StressMap(cfg.dims, bytearray(starts) if max(starts) < 256 else list(starts))
            report = step(stress, FaultMap.empty(cfg.dims), cfg, SplitMix64(0), 0)
            assert tuple(report.quaked_cells) == quaked
            assert report.max_stress == max(starts)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=30)
    def test_stress_never_negative(self, seed):
        cfg = SimConfig(
            dims=GridDims(4, 4),
            seed=seed,
            quake_threshold=12,
            nonfault_delta_min=-6,
            nonfault_delta_max=4,
            fault_delta_min=-2,
            fault_delta_max=6,
            delay_ms=0,
        )
        faults = FaultMap.empty(cfg.dims)
        faults.mark(1, 1)
        faults.mark(2, 3)
        stress = StressMap.empty(cfg.dims)
        rng = SplitMix64(seed)
        for i in range(1, 41):
            report = step(stress, faults, cfg, rng, 0, step_index=i)
            values = list(stress.cells)  # row-major
            assert min(values) >= 0
            assert all(values[y * 4 + x] == 0 for x, y in report.quaked_cells)
            assert max(values) < cfg.quake_threshold  # survivors stay below


def _dims_of(area: int) -> tuple[int, int]:
    """The squarest grid of exactly this many cells with no side over 1,024."""
    return next((w, area // w) for w in range(math.isqrt(area), 0, -1) if area % w == 0 and area // w <= 1024)


# each step kernel walks a grid in chunks of _CHUNK cells, the last one shorter. Areas: one
# cell; one chunk a cell short of _CHUNK; one full chunk; _CHUNK + 1 and 2*_CHUNK + 1, whose
# last chunk is one cell, so a later step's chunks straddle the mixer's blocks; three full chunks
ORACLE_DIMS = [_dims_of(area) for area in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 3 * _CHUNK)]
# an odd area just over one chunk: a full chunk and one of 43 cells
TWO_BLOCKS = GridDims(41, _CHUNK // 41 + 1 | 1)
# thresholds on both sides of the largest that byte lanes hold, and far beyond it in the per-cell kernel
LANE_EDGE_THRESHOLDS = [1, 100, *range(112, 131), 255, 256, 32_767, 32_768, 2**31, 2**63, 10**30]
# _lane_kernel as step finds it, or patched to _cell_kernel: then every step goes per cell, and
# the per-cell kernel meets the oracle on the inputs that byte lanes would take too
LANE_KERNELS = [engine._lane_kernel, engine._cell_kernel]


@st.composite
def delta_range(draw, span=None):
    """A delta range: small (byte lanes or just past them) or up to 64 bits wide; `span` fixes its size."""
    small = draw(st.booleans())
    lo = draw(st.integers(-300, 300) if small else st.integers(-(2**63), 2**63))
    if span is None:
        span = draw(st.integers(1, 600) if small else
                    st.one_of(st.just(1), st.just(2**64), st.integers(1, 2**64)))
    return lo, lo + span - 1


class TestStepOracle:
    @given(
        dims=st.sampled_from(ORACLE_DIMS),
        seed=st.integers(0, 2**64 - 1),
        fault_range=delta_range(),
        threshold=st.one_of(st.sampled_from(LANE_EDGE_THRESHOLDS), st.integers(1, 64), st.integers(1, 10**30)),
        fault_every=st.integers(1, 7),
        lane_kernel=st.sampled_from(LANE_KERNELS),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_matches_per_cell_oracle(self, dims, seed, fault_range, threshold, fault_every, lane_kernel,
                                          data):
        fault_span = fault_range[1] - fault_range[0] + 1
        nonfault_range = data.draw(st.one_of(delta_range(), delta_range(span=fault_span)), "nonfault_range")
        cfg = SimConfig(
            dims=GridDims(*dims),
            seed=seed,
            quake_threshold=threshold,
            fault_delta_min=fault_range[0],
            fault_delta_max=fault_range[1],
            nonfault_delta_min=nonfault_range[0],
            nonfault_delta_max=nonfault_range[1],
            delay_ms=0,
        )
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::fault_every] = [True] * len(faults.cells[::fault_every])
        # starting cells up to 3x the threshold and around powers of two from 2^7 to 2^64
        near_guard = st.sampled_from([7, 8, 15, 16, 31, 32, 63, 64]).flatmap(
            lambda bits: st.integers(2**bits - 16, 2**bits + 16))
        starts = st.tuples(st.integers(0, cfg.dims.area - 1), st.one_of(st.integers(0, 3 * threshold), near_guard))
        values = [0] * cfg.dims.area
        for i, value in data.draw(st.lists(starts, max_size=12), "starting_cells"):
            values[i] = value
        stress = stress_map(cfg.dims, values)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
        cumulative = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_lane_kernel", lane_kernel)
            for i in range(1, 4):
                report = step(stress, faults, cfg, rng, cumulative, step_index=i)
                assert report == step_oracle(expected, faults, cfg, oracle_rng, cumulative, step_index=i)
                assert list(stress.cells) == list(expected.cells)
                assert rng.state == oracle_rng.state
                cumulative = report.cumulative_quakes

    # stock deltas and threshold use byte lanes (guard bit 128): a cell that could
    # reach 128 with the largest delta (10), or one past 255, makes the whole step go
    # per cell; the cells set here lie in both of TWO_BLOCKS' chunks
    @pytest.mark.parametrize("value", [99, 100, 117, 118, 127, 128, 255, 256, 32_757, 32_758, 65_536, 2**63, 10**30, 10**60])
    def test_large_starting_cell_matches_oracle(self, value):
        cfg = SimConfig(dims=TWO_BLOCKS, seed=5, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::3] = [1] * len(faults.cells[::3])
        values = [0] * cfg.dims.area
        w, h = cfg.dims.width, cfg.dims.height
        for x, y in ((0, 0), (1, 0), (w - 1, h - 5), (w - 1, h - 1)):
            values[y * w + x] = value
        stress = stress_map(cfg.dims, values)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        for i in (1, 2):
            assert step(stress, faults, cfg, rng, 0, i) == step_oracle(expected, faults, cfg, oracle_rng, 0, i)
            assert list(stress.cells) == list(expected.cells)

    # one cell in chunk 1 of TWO_BLOCKS does not fit byte lanes, so every chunk of the
    # step goes per cell, chunk 0's quaking cells too. With 118 or 250 the map stays in
    # bytes; a map holding 256 or 10**30 is a list. At threshold 100 four fault cells
    # start near it, and 118 drifts by at most 5, below their 127, so they set
    # max_stress; the larger values set it. At threshold 12 every other cell starts below it.
    @pytest.mark.parametrize("threshold,value", [(100, 118), (100, 250), (100, 256), (100, 10**30), (12, 250)])
    def test_large_cell_beside_quaking_cells_matches_oracle(self, threshold, value):
        cfg = SimConfig(dims=TWO_BLOCKS, seed=5, quake_threshold=threshold, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::3] = [1] * len(faults.cells[::3])
        w, k = cfg.dims.width, cfg.dims.area - 2  # k: a non-fault cell in chunk 1
        assert not faults.cells[k]
        if threshold == 12:  # the last cell quakes too
            values = random.Random(5).choices(range(12), k=cfg.dims.area)
            first, last = (9, 0), (w - 1, cfg.dims.height - 1)
        else:
            values = [0] * cfg.dims.area
            for x, start in ((0, 99), (3, 99), (6, 117), (9, 117)):  # fault cells
                values[x] = start
            first, last = (0, 0), (k % w, k // w)
        values[k] = value
        stress = stress_map(cfg.dims, values)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        report = step(stress, faults, cfg, rng, 0)
        TestQuakedCells._check(report, step_oracle(expected, faults, cfg, oracle_rng, 0))
        quaked = tuple(report.quaked_cells)
        assert quaked[0] == first and quaked[-1] == last and (k % w, k // w) in quaked
        if value > 118:
            assert report.max_stress > 127  # more than any byte lane holds
        else:
            assert report.max_stress > value + 5  # more than the chunk 1 cell reaches
        assert list(stress.cells) == list(expected.cells)
        assert rng.state == oracle_rng.state

    def test_list_backed_map_that_fits_matches_oracle(self):
        # stock config and cells that fit byte lanes, but held in a list: every
        # chunk is stepped per cell, with the same reports, cells and draws
        cfg = SimConfig(dims=TWO_BLOCKS, seed=5, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::3] = [1] * len(faults.cells[::3])
        starts = random.Random(5).choices(range(100), k=cfg.dims.area)
        stress, expected = StressMap(cfg.dims, list(starts)), StressMap(cfg.dims, list(starts))
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        cumulative = 0
        for i in (1, 2, 3):
            report = step(stress, faults, cfg, rng, cumulative, step_index=i)
            assert report == step_oracle(expected, faults, cfg, oracle_rng, cumulative, step_index=i)
            assert stress.cells == expected.cells
            assert rng.state == oracle_rng.state
            cumulative = report.cumulative_quakes
        assert cumulative > 0

    # threshold 250 and 1000 step every chunk per cell; the fault cell gains 100 a
    # step, so step 3 takes it to 300. At 250 it quakes, reset before it is stored, and
    # the map stays in bytes (the oracle stores 300 before its reset, so its map becomes
    # a list); at 1000 the engine's map becomes a list before step 1's first draw.
    @pytest.mark.parametrize("threshold,widened", [(250, False), (1000, True)])
    def test_a_cell_past_255_quakes_in_bytes_or_is_kept_in_a_list(self, threshold, widened):
        cfg = _cfg(dims=TWO_BLOCKS, quake_threshold=threshold,
                   fault_delta_min=100, fault_delta_max=100, nonfault_delta_min=0, nonfault_delta_max=1)
        faults = FaultMap.empty(cfg.dims)
        faults.mark(cfg.dims.width - 1, cfg.dims.height - 1)  # the last cell, in the second chunk
        stress = StressMap.empty(cfg.dims)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        for i in (1, 2, 3):
            assert step(stress, faults, cfg, rng, 0, i) == step_oracle(expected, faults, cfg, oracle_rng, 0, i)
            assert isinstance(stress.cells, list if widened else bytearray)
            assert list(stress.cells) == list(expected.cells)
        assert stress.cells[-1] == (300 if widened else 0)

    # the cells a step keeps are below the threshold: at 256 each fits a byte, so a map
    # in bytes that stores 255 stays in bytes; at 257 a kept 256 would not, so the map
    # is a list from step 1 on. Step 2 quakes every cell.
    @pytest.mark.parametrize("threshold,kept,storage", [(256, 255, bytearray), (257, 256, list)])
    def test_a_map_in_bytes_stays_in_bytes_up_to_threshold_256(self, threshold, kept, storage):
        cfg = _cfg(dims=TWO_BLOCKS, quake_threshold=threshold, fault_delta_min=kept, fault_delta_max=kept,
                   nonfault_delta_min=kept, nonfault_delta_max=kept)
        faults = FaultMap.empty(cfg.dims)
        stress = StressMap.empty(cfg.dims)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        for i, quakes in ((1, 0), (2, cfg.dims.area)):
            report = step(stress, faults, cfg, rng, 0, i)
            assert report == step_oracle(expected, faults, cfg, oracle_rng, 0, i)
            assert len(report.quaked_cells) == quakes
            assert isinstance(stress.cells, storage)
            assert list(stress.cells) == list(expected.cells) == [0 if quakes else kept] * cfg.dims.area

    # a byte other than 0 or 1 written into faults.cells after construction passes
    # FaultMap's check; both kernels read it by truth, as the per-cell oracle does
    @pytest.mark.parametrize("in_bytes", [True, False])
    @pytest.mark.parametrize("flag", [2, 255])
    def test_fault_bytes_are_read_by_truth(self, flag, in_bytes):
        cfg = _cfg(dims=TWO_BLOCKS, seed=5, quake_threshold=20, fault_delta_min=3, fault_delta_max=8,
                   nonfault_delta_min=-5, nonfault_delta_max=5)
        ones = FaultMap.empty(cfg.dims)
        ones.cells[::3] = b"\1" * len(ones.cells[::3])
        others = copy_grid(ones)
        others.cells[::3] = bytes([flag]) * len(others.cells[::3])
        area = cfg.dims.area
        maps = [StressMap(cfg.dims, bytearray(area) if in_bytes else [0] * area) for _ in range(3)]
        rngs = [SplitMix64(cfg.seed) for _ in range(3)]
        cumulative = 0
        for i in range(1, 31):
            report = step(maps[0], others, cfg, rngs[0], cumulative, i)
            assert report == step(maps[1], ones, cfg, rngs[1], cumulative, i)
            assert report == step_oracle(maps[2], others, cfg, rngs[2], cumulative, i)
            assert list(maps[0].cells) == list(maps[1].cells) == list(maps[2].cells)
            cumulative = report.cumulative_quakes
        assert cumulative > 0

    # spans above 32 need the residues reduced between byte-lane sums; spans that
    # differ draw once and pick each cell's residue by its fault flag; a span of 129
    # does not fit byte lanes, so every chunk of that config is stepped per cell
    @pytest.mark.parametrize("nonfault,fault,threshold", [
        ((-50, 49), (0, 19), 70),  # spans 100 and 20
        ((-40, 59), (-40, 59), 60),  # span 100 on both
        ((-64, 64), (0, 19), 70),  # spans 129 and 20
    ])
    def test_wide_and_differing_spans_match_oracle(self, nonfault, fault, threshold):
        cfg = SimConfig(dims=TWO_BLOCKS, seed=11, quake_threshold=threshold, delay_ms=0,
                        nonfault_delta_min=nonfault[0], nonfault_delta_max=nonfault[1],
                        fault_delta_min=fault[0], fault_delta_max=fault[1])
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::3] = [1] * len(faults.cells[::3])
        stress = StressMap.empty(cfg.dims)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        cumulative = 0
        for i in range(1, 6):
            report = step(stress, faults, cfg, rng, cumulative, step_index=i)
            assert report == step_oracle(expected, faults, cfg, oracle_rng, cumulative, step_index=i)
            assert list(stress.cells) == list(expected.cells)
            assert rng.state == oracle_rng.state
            cumulative = report.cumulative_quakes
        assert cumulative > 0


class TestStepOracleOnCellKernel:
    """Oracle comparisons of TestStepOracle again, with _lane_kernel patched to _cell_kernel."""

    @pytest.fixture(autouse=True)
    def _cell_kernel_only(self, monkeypatch):
        monkeypatch.setattr(engine, "_lane_kernel", engine._cell_kernel)

    test_fault_bytes_are_read_by_truth = TestStepOracle.test_fault_bytes_are_read_by_truth
    test_wide_and_differing_spans_match_oracle = TestStepOracle.test_wide_and_differing_spans_match_oracle


def _faults_every_fourth(dims: GridDims) -> FaultMap:
    """A fault map of these dims with a fault at every fourth cell, row-major, from the first."""
    faults = FaultMap.empty(dims)
    faults.cells[::4] = b"\1" * len(faults.cells[::4])
    return faults


@pytest.fixture
def kernels_run(monkeypatch):
    """The name of each kernel step calls, in call order; each still steps the map and returns
    its (top, count, total), whose count and total the spy checks against the mask and the map."""
    names = []
    for name in ("_lane_kernel", "_cell_kernel"):
        def spy(cells, fault_flags, mask, *rest, kernel=getattr(engine, name), name=name):
            names.append(name)
            result = kernel(cells, fault_flags, mask, *rest)
            assert len(result) == 3 and result[1:] == (mask.count(0x80), sum(cells))
            return result
        monkeypatch.setattr(engine, name, spy)
    return names


class TestKernelChoice:
    """step picks one kernel per step, before its first draw. With the stock deltas (non-fault
    -5..5, fault 0..10) a byte lane holds a cell of up to 117 and a threshold of up to 118:
    117 + 10 is 127, the largest value below the guard bit."""

    LANE, CELL = "_lane_kernel", "_cell_kernel"

    @pytest.mark.parametrize("kwargs,start,in_bytes,kernel", [
        ({}, 0, True, LANE),  # an empty map in bytes
        ({}, 0, False, CELL),  # the same cells in a list
        ({"quake_threshold": 118}, 0, True, LANE),
        ({"quake_threshold": 119}, 0, True, CELL),
        ({}, 117, True, LANE),
        ({}, 118, True, CELL),
        ({"nonfault_delta_min": -127, "nonfault_delta_max": -1}, 0, True, LANE),  # -delta_min below 0x80
        ({"nonfault_delta_min": -128, "nonfault_delta_max": -1}, 0, True, CELL),
        ({"quake_threshold": 10, "nonfault_delta_min": -64, "nonfault_delta_max": 63}, 0, True, LANE),  # span 128
        ({"quake_threshold": 10, "nonfault_delta_min": -64, "nonfault_delta_max": 64}, 0, True, CELL),  # span 129
    ], ids=["bytes", "list", "threshold-118", "threshold-119", "cell-117", "cell-118", "low-127", "low-128",
            "span-128", "span-129"])
    def test_one_kernel_per_step(self, kernels_run, kwargs, start, in_bytes, kernel):
        cfg = SimConfig(dims=TWO_BLOCKS, seed=5, delay_ms=0, **kwargs)
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::3] = b"\1" * len(faults.cells[::3])
        values = [0] * cfg.dims.area
        values[-1] = start  # the last cell, in the second chunk
        stress = StressMap(cfg.dims, bytearray(values) if in_bytes else values)
        step(stress, faults, cfg, SplitMix64(cfg.seed), 0)
        assert kernels_run == [kernel]

    def test_a_threshold_past_256_steps_a_list_per_cell(self, kernels_run):
        cfg = SimConfig(dims=TWO_BLOCKS, seed=5, quake_threshold=257, delay_ms=0)
        stress = StressMap.empty(cfg.dims)
        step(stress, FaultMap.empty(cfg.dims), cfg, SplitMix64(cfg.seed), 0)
        assert isinstance(stress.cells, list)
        assert kernels_run == [self.CELL]

    # the benchmark's configs: small-long (20x20, 2,500 steps) and animate (100x100, 60 steps)
    # at threshold 100, large-grid (1024x1024, 2 steps) at 10, all with the stock deltas
    @pytest.mark.parametrize("width,height,threshold,steps", [
        (20, 20, 100, 2_500), (1024, 1024, 10, 2), (100, 100, 100, 60)])
    def test_benchmark_configs_run_on_byte_lanes(self, kernels_run, width, height, threshold, steps):
        dims = GridDims(width, height)
        cfg = SimConfig(dims=dims, seed=1, quake_threshold=threshold, target_quakes=dims.area * steps + 1,
                        delay_ms=0, max_steps=steps)
        reports = list(iter_steps(StressMap.empty(dims), _faults_every_fourth(dims), cfg))
        assert len(reports) == steps and sum(len(r.quaked_cells) for r in reports) > 0
        assert kernels_run == [self.LANE] * steps


@pytest.fixture
def mixed(monkeypatch):
    """Each block engine._mix mixes, in call order: its draw count, and whether its inputs were
    carried from the last block's or built from the state."""
    blocks = []
    mix = engine._mix

    def spy(state, inputs):
        made = mix(state, inputs)
        blocks.append((len(made[1]) // 8, "state" if inputs is None else "carried"))
        return made
    monkeypatch.setattr(engine, "_mix", spy)
    return blocks


class TestReadAhead:
    """SplitMix64 mixes blocks of _CHUNK draws and serves a run's steps from them, across chunk
    and step boundaries: the first block is built from the seed and every later one carried."""

    # 400 cells: 5.12 steps a block; 1,024: two; 1,025 and 2,049 (683x3): chunks that straddle
    # blocks; 10,000: a step ends 1,808 draws into its fifth block; 1024x1024: 512 whole blocks
    @pytest.mark.parametrize("width,height,steps", [
        (20, 20, 2_500), (32, 32, 4), (41, 25, 3), (100, 100, 3), (683, 3, 4), (1024, 1024, 1)])
    def test_draws_mixed(self, mixed, kernels_run, width, height, steps):
        dims = GridDims(width, height)
        cfg = SimConfig(dims=dims, seed=1, target_quakes=dims.area * steps + 1, delay_ms=0, max_steps=steps)
        reports = list(iter_steps(StressMap.empty(dims), _faults_every_fourth(dims), cfg))
        assert len(reports) == steps and kernels_run == ["_lane_kernel"] * steps
        blocks = -(-dims.area * steps // _CHUNK)
        assert mixed == [(_CHUNK, "state")] + [(_CHUNK, "carried")] * (blocks - 1)

    def test_a_run_stopped_partway_through_a_block(self, monkeypatch):
        made = []

        class Kept(SplitMix64):
            __slots__ = ()

            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)
        monkeypatch.setattr(engine, "SplitMix64", Kept)
        dims = GridDims(20, 20)
        cfg = SimConfig(dims=dims, seed=11, quake_threshold=30, target_quakes=40, delay_ms=0)
        faults = _faults_every_fourth(dims)
        stress, expected = StressMap.empty(dims), StressMap.empty(dims)
        oracle_rng = SplitMix64(cfg.seed)
        cumulative = steps = 0
        for steps, report in enumerate(iter_steps(stress, faults, cfg), 1):
            assert report == step_oracle(expected, faults, cfg, oracle_rng, cumulative, step_index=steps)
            assert stress.cells == expected.cells
            cumulative = report.cumulative_quakes
        assert cumulative >= cfg.target_quakes and steps < cfg.max_steps
        assert dims.area * steps % _CHUNK, steps  # the last block was mixed and not all served
        assert made[0].state == (cfg.seed + dims.area * steps * GAMMA) & MASK64 == oracle_rng.state

    # at step 3 of 8, partway through a kept block (20x20: 800 draws into the first; 100x100:
    # 1,568 into the tenth, and from step 2 on every chunk straddles two blocks, but in the
    # step right after a reset or a rewind): five draws; the state set to another seed, set
    # back to where step 2 began, or set to itself; a step of other spans; a step that goes
    # per cell because one cell is too near the guard bit
    @pytest.mark.parametrize("side,move", [
        pytest.param(side, move, id=move if side == 20 else f"{move}-100x100")
        for side in (20, 100) for move in ("draws", "reset", "rewind", "same", "spans", "per-cell")])
    def test_a_step_after_an_outside_move(self, kernels_run, side, move):
        dims = GridDims(side, side)
        cfg = SimConfig(dims=dims, seed=7, quake_threshold=20, delay_ms=0)
        other = SimConfig(dims=dims, seed=7, quake_threshold=20, fault_delta_max=9, delay_ms=0)
        faults = _faults_every_fourth(dims)
        stress, expected = StressMap.empty(dims), StressMap.empty(dims)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        start, drawn, cumulative = cfg.seed, 0, 0
        for i in range(1, 9):
            step_cfg = other if move == "spans" and i == 3 else cfg
            if i == 3:
                if move == "draws":
                    assert list(rng.draws(5)) == [next_u64(oracle_rng) for _ in range(5)]
                    drawn += 5
                elif move == "reset":
                    rng.state = oracle_rng.state = start = 12345
                    drawn = 0
                elif move == "rewind":
                    rng.state = oracle_rng.state = cfg.seed + dims.area * GAMMA & MASK64
                    drawn -= dims.area
                elif move == "same":
                    rng.state = rng.state
                elif move == "per-cell":
                    stress.cells[0] = expected.cells[0] = 0x80 - 10
            report = step(stress, faults, step_cfg, rng, cumulative, step_index=i)
            assert report == step_oracle(expected, faults, step_cfg, oracle_rng, cumulative, step_index=i)
            assert stress.cells == expected.cells
            drawn += dims.area
            assert rng.state == (start + drawn * GAMMA) & MASK64 == oracle_rng.state, i
            cumulative = report.cumulative_quakes
        assert cumulative > 0
        assert kernels_run == ["_lane_kernel"] * 8 if move != "per-cell" else (
            ["_lane_kernel"] * 2 + ["_cell_kernel"] + ["_lane_kernel"] * 5)


# 100x41: chunks of 2,048, 2,048 and 4 cells
THREE_CHUNKS = GridDims(100, 41)
KERNELS = [pytest.param(engine._lane_kernel, id="lane"), pytest.param(engine._cell_kernel, id="cell")]


def _kernel_args(cfg: SimConfig) -> tuple[int, int, int, int, int]:
    """The delta lows and spans and the threshold that step passes its kernel under this config."""
    f_lo, n_lo = cfg.fault_delta_min, cfg.nonfault_delta_min
    return f_lo, n_lo, cfg.fault_delta_max - f_lo + 1, cfg.nonfault_delta_max - n_lo + 1, cfg.quake_threshold


@st.composite
def lane_delta_range(draw):
    """A delta range that byte lanes hold: no delta below -127 or above 100, at most 128 values."""
    lo = draw(st.integers(-127, 100))
    return lo, lo + draw(st.integers(1, min(128, 101 - lo))) - 1


class TestKernelContract:
    """Each kernel steps the map and returns the step's (top, count, total): the largest value
    before the quake reset, the number of cells reset and the map's sum after it. Called as step
    calls it, each call meets the oracle's report, quake mask, cells and rng.state."""

    @staticmethod
    def _check(kernel, stress, faults, cfg, steps=3):
        """Each call's (top, count, total), for steps calls, after checking it against the oracle."""
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(cfg.seed), SplitMix64(cfg.seed)
        results, cumulative = [], 0
        for i in range(1, steps + 1):
            mask = bytearray(cfg.dims.area)
            result = kernel(stress.cells, faults.cells, mask, rng, *_kernel_args(cfg))
            report = step_oracle(expected, faults, cfg, oracle_rng, cumulative, i)
            assert result == (report.max_stress, len(report.quaked_cells), report.stress_total)
            assert mask == report.quaked_cells.mask
            assert list(stress.cells) == list(expected.cells)
            assert rng.state == oracle_rng.state
            results.append(result)
            cumulative = report.cumulative_quakes
        return results

    # byte lanes take a map in bytes whose config and cells fit them; the per-cell kernel takes any
    # config, and a map in bytes under a threshold of 256 or less (above it step makes a list)
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(dims=st.sampled_from([*ORACLE_DIMS, (THREE_CHUNKS.width, THREE_CHUNKS.height)]),
           seed=st.integers(0, 2**64 - 1), fault_every=st.integers(1, 7), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_call_matches_the_oracle(self, kernel, dims, seed, fault_every, data):
        if kernel is engine._lane_kernel:
            fault, nonfault = data.draw(lane_delta_range(), "fault"), data.draw(lane_delta_range(), "nonfault")
            room = max(fault[1], nonfault[1], 0)
            threshold = data.draw(st.integers(1, 0x80 - room), "threshold")
            in_bytes, highest = True, 0x7F - room
        else:
            fault, nonfault = data.draw(delta_range(), "fault"), data.draw(delta_range(), "nonfault")
            threshold = data.draw(st.one_of(st.sampled_from(LANE_EDGE_THRESHOLDS), st.integers(1, 10**30)),
                                  "threshold")
            in_bytes = threshold <= 0x100 and data.draw(st.booleans(), "in_bytes")
            highest = 0xFF if in_bytes else 3 * threshold
        cfg = _cfg(dims=GridDims(*dims), seed=seed, quake_threshold=threshold, fault_delta_min=fault[0],
                   fault_delta_max=fault[1], nonfault_delta_min=nonfault[0], nonfault_delta_max=nonfault[1])
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::fault_every] = b"\1" * len(faults.cells[::fault_every])
        rnd = random.Random(seed)
        values = [rnd.randint(0, highest) for _ in range(cfg.dims.area)]
        stress = StressMap(cfg.dims, bytearray(values) if in_bytes else values)
        self._check(kernel, stress, faults, cfg)

    # byte lanes' worst case: every lane holds 0x7F and neither moves nor quakes, so each of the
    # 512-byte pieces the total is summed from holds 512 * 127 = 65,024, below adler32's 65,521
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_map_of_0x7f_at_threshold_128(self, kernel):
        cfg = _cfg(dims=THREE_CHUNKS, quake_threshold=0x80, fault_delta_min=0, fault_delta_max=0)
        stress = StressMap(cfg.dims, bytearray(b"\x7f" * cfg.dims.area))
        assert self._check(kernel, stress, _faults_every_fourth(cfg.dims), cfg) == [(0x7F, 0, 127 * 4100)] * 3

    def test_step_runs_byte_lanes_on_a_map_of_0x7f(self, kernels_run):
        cfg = _cfg(dims=THREE_CHUNKS, quake_threshold=0x80, fault_delta_min=0, fault_delta_max=0)
        stress = StressMap(cfg.dims, bytearray(b"\x7f" * cfg.dims.area))
        report = step(stress, _faults_every_fourth(cfg.dims), cfg, SplitMix64(0), 0)
        assert kernels_run == ["_lane_kernel"]
        assert (report.max_stress, len(report.quaked_cells), report.stress_total) == (0x7F, 0, 127 * 4100)

    # cells past 2**64 in a list: about half of them quake in step 1, and what stays sums past 2**64
    def test_a_list_past_64_bits_on_the_cell_kernel(self):
        cfg = _cfg(dims=TWO_BLOCKS, seed=3, quake_threshold=2**64 + 2**40, fault_delta_min=0,
                   fault_delta_max=2**63, nonfault_delta_min=-(2**40), nonfault_delta_max=2**40)
        rnd = random.Random(3)
        stress = StressMap(cfg.dims, [2**64 + rnd.randrange(2**41) for _ in range(cfg.dims.area)])
        top, count, total = self._check(engine._cell_kernel, stress, _faults_every_fourth(cfg.dims), cfg)[0]
        assert top > 2**64 and 0 < count < cfg.dims.area and total > 2**64


class TestQuakedCells:
    """A step's QuakedCells hold the oracle's quake mask and decode it in row-major order."""

    @staticmethod
    def _check(report, expected):
        quaked, cells = report.quaked_cells, expected.quaked_cells
        assert isinstance(quaked, QuakedCells) and isinstance(cells, QuakedCells)
        assert quaked == cells and cells == quaked and not quaked != cells  # mask, width and count
        assert repr(quaked) == repr(cells) and repr(quaked).startswith("QuakedCells(mask=bytearray(")
        decoded = list(quaked)
        assert len(quaked) == len(decoded) == cells.mask.count(0x80) and decoded == list(cells)
        assert [y * quaked.width + x for x, y in decoded] == [i for i, b in enumerate(cells.mask) if b]
        assert bool(quaked) == bool(decoded)
        assert quaked.__eq__(list(cells)) is NotImplemented and quaked != list(cells)
        assert quaked != tuple(cells)  # a record, not a tuple
        for unhashable in (quaked, report):  # as the maps: nothing keys a dict or set by them
            with pytest.raises(TypeError):
                hash(unhashable)
        if decoded:
            assert quaked != QuakedCells(bytearray(len(cells.mask)), cells.width, 0)
        for clone in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert clone == report == expected
            assert clone.quaked_cells == quaked and list(clone.quaked_cells) == decoded

    # byte lanes in every chunk (a map in bytes) or per cell in every chunk (a list), or per
    # cell on both with _lane_kernel patched to _cell_kernel
    @given(dims=st.sampled_from(ORACLE_DIMS), seed=st.integers(0, 2**64 - 1), threshold=st.integers(1, 20),
           in_bytes=st.booleans(), lane_kernel=st.sampled_from(LANE_KERNELS))
    @settings(max_examples=30, deadline=None)
    def test_match_the_oracle(self, dims, seed, threshold, in_bytes, lane_kernel):
        cfg = _cfg(dims=GridDims(*dims), seed=seed, quake_threshold=threshold, fault_delta_min=0,
                   fault_delta_max=10, nonfault_delta_min=-5, nonfault_delta_max=5)
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::3] = [1] * len(faults.cells[::3])
        values = random.Random(seed).choices(range(threshold), k=cfg.dims.area)
        stress = StressMap(cfg.dims, bytearray(values) if in_bytes else values)
        expected = copy_grid(stress)
        rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_lane_kernel", lane_kernel)
            for i in (1, 2):
                self._check(step(stress, faults, cfg, rng, 0, i), step_oracle(expected, faults, cfg, oracle_rng, 0, i))

    def test_a_step_without_quakes_is_empty(self):
        cfg = _cfg(dims=GridDims(3, 2))
        report = step(StressMap.empty(cfg.dims), FaultMap.empty(cfg.dims), cfg, SplitMix64(0), 0)
        self._check(report, StepReport(1, QuakedCells(bytearray(6), 3, 0), 0, 0, 0, 6))
        assert not report.quaked_cells and list(report.quaked_cells) == []
        assert repr(report.quaked_cells) == f"QuakedCells(mask={bytearray(6)!r}, width=3, count=0)"

    def test_large_step_keeps_its_quakes_as_a_mask(self):
        # 1024x1024 at threshold 10: over 100,000 quakes in step 2 cost one byte per cell,
        # not an (x, y) tuple each (those put this step 14.7 MB above its maps)
        cfg = _cfg(dims=GridDims(1024, 1024), quake_threshold=10, fault_delta_min=0,
                   fault_delta_max=10, nonfault_delta_min=-5, nonfault_delta_max=5)
        faults = FaultMap.empty(cfg.dims)
        faults.cells[::4] = b"\1" * len(faults.cells[::4])
        stress = StressMap.empty(cfg.dims)
        rng = SplitMix64(cfg.seed)
        step(stress, faults, cfg, rng, 0)
        tracemalloc.start()
        try:
            report = step(stress, faults, cfg, rng, 0, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.quaked_cells) > 20_000
        assert peak < 2 * 2**20, f"peak {peak} B"


class TestRun:
    def test_single_cell_run(self):
        cfg = _cfg()
        faults = FaultMap.empty(cfg.dims)
        faults.mark(0, 0)
        seen = []
        summary = run(faults, cfg, observer=seen.append)
        assert seen[-1].cumulative_quakes == 1
        assert summary.final_stress.cells[0] == 0
        assert [r.step_index for r in seen] == [1, 2]

    def test_dims_mismatch_rejected_before_first_report(self):
        seen = []
        with pytest.raises(ValueError, match="must share one grid"):
            run(FaultMap.empty(GridDims(2, 2)), _cfg(), observer=seen.append)
        assert seen == []

    def test_stops_at_or_above_target(self):
        cfg = _cfg(
            dims=GridDims(3, 1),
            quake_threshold=5,
            fault_delta_min=5,
            fault_delta_max=5,
            target_quakes=2,
        )
        faults = FaultMap.empty(cfg.dims)
        for x in range(3):
            faults.mark(x, 0)
        seen = []
        run(faults, cfg, observer=seen.append)
        # all three quake on the same step: target may be exceeded
        assert len(seen) == 1
        assert seen[-1].cumulative_quakes == 3

    def test_step_limit(self):
        cfg = _cfg(max_steps=25)  # no fault cells, deltas all 0: never quakes
        seen = []
        run(FaultMap.empty(cfg.dims), cfg, observer=seen.append)
        assert [r.step_index for r in seen] == list(range(1, 26))
        assert seen[-1].cumulative_quakes == 0

    def test_deterministic_replay(self):
        cfg = SimConfig(dims=GridDims(6, 6), seed=42, target_quakes=2, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        for x in range(6):
            faults.mark(x, 2)
        seen_a, seen_b = [], []
        a = run(faults, cfg, observer=seen_a.append)
        b = run(copy_grid(faults), cfg, observer=seen_b.append)
        assert seen_a == seen_b
        cells_a = list(a.final_stress.cells)
        cells_b = list(b.final_stress.cells)
        assert cells_a == cells_b

    def test_different_seeds_diverge(self):
        cfg = SimConfig(dims=GridDims(6, 6), seed=1, target_quakes=1, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        draw_all = [faults.mark(x, 3) for x in range(6)]
        assert all(draw_all)
        other = SimConfig(dims=GridDims(6, 6), seed=2, target_quakes=1, delay_ms=0)
        assert list(iter_steps(StressMap.empty(cfg.dims), faults, cfg)) != list(
            iter_steps(StressMap.empty(other.dims), faults, other)
        )

    def test_observer_sees_every_report_in_order(self):
        cfg = _cfg(max_steps=7)
        seen = []
        run(FaultMap.empty(cfg.dims), cfg, observer=seen.append)
        assert seen == list(iter_steps(StressMap.empty(cfg.dims), FaultMap.empty(cfg.dims), cfg))

    def test_memory_does_not_grow_with_step_count(self):
        # 20,000 steps that never quake: nothing per step may be kept
        cfg = _cfg(max_steps=20_000)
        faults = FaultMap.empty(cfg.dims)
        last = []

        def keep_index(report):
            last[:] = [report.step_index]

        tracemalloc.start()
        try:
            run(faults, cfg, observer=keep_index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert last == [20_000]
        assert peak < 256 * 1024, f"peak {peak} B"

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run(FaultMap.empty(GridDims(2, 2)), _cfg(), observer=lambda report: None)

    def test_cumulative_counts_are_running_totals(self):
        cfg = SimConfig(
            dims=GridDims(4, 4),
            seed=9,
            quake_threshold=15,
            target_quakes=5,
            fault_delta_min=0,
            fault_delta_max=6,
            delay_ms=0,
        )
        faults = FaultMap.empty(cfg.dims)
        for x in range(4):
            faults.mark(x, 1)
        seen = []
        run(faults, cfg, observer=seen.append)
        total = 0
        for report in seen:
            total += len(report.quaked_cells)
            assert report.cumulative_quakes == total
        assert total == seen[-1].cumulative_quakes >= 5
