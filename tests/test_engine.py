import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultsim.engine import SimConfig, SplitMix64, iter_steps, run, step
from faultsim.grid import FaultMap, GridDims, StressMap
from oracles import step_oracle

GAMMA = 0x9E3779B97F4A7C15

# First outputs of the reference stream for seed 0, from the published
# constants (gamma 0x9E3779B97F4A7C15 with the 30/27/31 xor-shift mixer).
SEED0_FIRST = 0xE220A8397B1DCDAF
SEED0_SECOND = 0x6E789E6AA1B965F4


class TestSplitMix64:
    def test_seed0_reference_values(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == SEED0_FIRST
        assert rng.next_u64() == SEED0_SECOND

    def test_outputs_are_64_bit(self):
        rng = SplitMix64(12345)
        for _ in range(1000):
            assert 0 <= rng.next_u64() < 1 << 64

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(987654321), SplitMix64(987654321)
        assert [a.next_u64() for _ in range(500)] == [
            b.next_u64() for _ in range(500)
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
        for seed in (0, 1, 2**64 - 1, GAMMA):
            for n in (1, 2, 1023, 1024, 1025, 4097):
                block, scalar = SplitMix64(seed), SplitMix64(seed)
                assert list(block.draws(n)) == [scalar.next_u64() for _ in range(n)], (seed, n)
                assert block.state == scalar.state, (seed, n)


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
            {"nonfault_delta_min": 6},  # min > max
            {"fault_delta_min": 11},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


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
        stress = StressMap.zeros(cfg.dims)
        rng = SplitMix64(cfg.seed)

        first = step(stress, faults, cfg, rng, 0, step_index=1)
        assert first.quaked_cells == ()
        assert first.max_stress == 5
        assert first.mean_stress == Fraction(5)
        assert stress.get(0, 0) == 5

        second = step(stress, faults, cfg, rng, 0, step_index=2)
        assert second.quaked_cells == ((0, 0),)
        assert second.cumulative_quakes == 1
        assert second.max_stress == 10  # read before the reset
        assert second.mean_stress == Fraction(0)  # read after it
        assert stress.get(0, 0) == 0

    def test_clamps_at_zero(self):
        cfg = _cfg(nonfault_delta_min=-5, nonfault_delta_max=-5)
        faults = FaultMap.empty(cfg.dims)
        stress = StressMap.zeros(cfg.dims)
        stress.put(0, 0, 3)
        step(stress, faults, cfg, SplitMix64(0), 0)
        assert stress.get(0, 0) == 0

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
        stress = StressMap.zeros(cfg.dims)
        rng = SplitMix64(0)
        for i in (1, 2):
            report = step(stress, faults, cfg, rng, 0, step_index=i)
            assert report.quaked_cells == ()
        report = step(stress, faults, cfg, rng, 0, step_index=3)
        assert report.quaked_cells == ((0, 0),)
        assert report.max_stress == 9
        assert report.mean_stress == Fraction(6, 2)
        assert (stress.get(0, 0), stress.get(1, 0)) == (0, 6)

    def test_quaked_cells_row_major_order(self):
        cfg = _cfg(
            dims=GridDims(2, 2),
            quake_threshold=1,
            fault_delta_min=1,
            fault_delta_max=1,
            nonfault_delta_min=1,
            nonfault_delta_max=1,
        )
        stress = StressMap.zeros(cfg.dims)
        report = step(stress, FaultMap.empty(cfg.dims), cfg, SplitMix64(0), 0)
        assert report.quaked_cells == ((0, 0), (1, 0), (0, 1), (1, 1))

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
        stress = StressMap.zeros(cfg.dims)
        report = step(stress, faults, cfg, SplitMix64(0), 0)
        assert report.mean_stress == Fraction(3, 2)

    def test_dims_mismatch_rejected(self):
        cfg = _cfg()
        with pytest.raises(ValueError):
            step(
                StressMap.zeros(GridDims(2, 2)),
                FaultMap.empty(GridDims(2, 2)),
                cfg,
                SplitMix64(0),
                0,
            )

    def test_one_draw_per_cell_row_major(self):
        # k steps consume exactly k*area outputs: the state moves k*area gammas
        cfg = _cfg(dims=GridDims(5, 3), quake_threshold=1000)
        rng, twin = SplitMix64(0), SplitMix64(0)
        stress = StressMap.zeros(cfg.dims)
        for i in range(1, 5):
            step(stress, FaultMap.empty(cfg.dims), cfg, rng, 0, step_index=i)
        for _ in range(4 * 15):
            twin.next_u64()
        assert rng.state == twin.state == (4 * 15 * GAMMA) & ((1 << 64) - 1)

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
        stress = StressMap.zeros(cfg.dims)
        rng = SplitMix64(seed)
        for i in range(1, 41):
            report = step(stress, faults, cfg, rng, 0, step_index=i)
            values = [stress.get(x, y) for y in range(4) for x in range(4)]
            assert min(values) >= 0
            assert all(stress.get(x, y) == 0 for x, y in report.quaked_cells)
            assert max(values) < cfg.quake_threshold  # survivors stay below


# areas on both sides of the 1,024-cell block draw, and a multiple of it
ORACLE_DIMS = [(1, 1), (31, 33), (32, 32), (25, 41), (3, 683), (1024, 3)]


@st.composite
def delta_range(draw):
    lo = draw(st.integers(-(2**63), 2**63))
    span = draw(st.one_of(st.just(1), st.just(2**64), st.integers(1, 2**64)))
    return lo, lo + span - 1


class TestStepOracle:
    @given(
        dims=st.sampled_from(ORACLE_DIMS),
        seed=st.integers(0, 2**64 - 1),
        fault_range=delta_range(),
        nonfault_range=delta_range(),
        threshold=st.one_of(st.integers(1, 64), st.integers(1, 10**30)),
        fault_every=st.integers(1, 7),
    )
    @settings(max_examples=25, deadline=None)
    def test_step_matches_per_cell_oracle(
        self, dims, seed, fault_range, nonfault_range, threshold, fault_every
    ):
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
        stress, expected = StressMap.zeros(cfg.dims), StressMap.zeros(cfg.dims)
        rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
        cumulative = 0
        for i in range(1, 4):
            report = step(stress, faults, cfg, rng, cumulative, step_index=i)
            assert report == step_oracle(expected, faults, cfg, oracle_rng, cumulative, step_index=i)
            assert stress.cells == expected.cells
            assert rng.state == oracle_rng.state
            cumulative = report.cumulative_quakes


class TestRun:
    def test_single_cell_run(self):
        cfg = _cfg()
        faults = FaultMap.empty(cfg.dims)
        faults.mark(0, 0)
        seen = []
        summary = run(faults, cfg, observer=seen.append)
        assert summary.total_steps == 2
        assert summary.total_quakes == 1
        assert not summary.hit_step_limit
        assert summary.final_stress.get(0, 0) == 0
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
        summary = run(faults, cfg)
        # all three quake on the same step: target may be exceeded
        assert summary.total_steps == 1
        assert summary.total_quakes == 3

    def test_step_limit(self):
        cfg = _cfg(max_steps=25)  # no fault cells, deltas all 0: never quakes
        summary = run(FaultMap.empty(cfg.dims), cfg)
        assert summary.hit_step_limit
        assert summary.total_steps == 25
        assert summary.total_quakes == 0

    def test_deterministic_replay(self):
        cfg = SimConfig(dims=GridDims(6, 6), seed=42, target_quakes=2, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        for x in range(6):
            faults.mark(x, 2)
        seen_a, seen_b = [], []
        a = run(faults, cfg, observer=seen_a.append)
        b = run(faults.copy(), cfg, observer=seen_b.append)
        assert seen_a == seen_b
        assert a.total_steps == b.total_steps
        cells_a = [a.final_stress.get(x, y) for y in range(6) for x in range(6)]
        cells_b = [b.final_stress.get(x, y) for y in range(6) for x in range(6)]
        assert cells_a == cells_b

    def test_different_seeds_diverge(self):
        cfg = SimConfig(dims=GridDims(6, 6), seed=1, target_quakes=1, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        draw_all = [faults.mark(x, 3) for x in range(6)]
        assert all(draw_all)
        other = SimConfig(dims=GridDims(6, 6), seed=2, target_quakes=1, delay_ms=0)
        assert list(iter_steps(StressMap.zeros(cfg.dims), faults, cfg)) != list(
            iter_steps(StressMap.zeros(other.dims), faults, other)
        )

    def test_observer_sees_every_report_in_order(self):
        cfg = _cfg(max_steps=7)
        seen = []
        run(FaultMap.empty(cfg.dims), cfg, observer=seen.append)
        assert seen == list(iter_steps(StressMap.zeros(cfg.dims), FaultMap.empty(cfg.dims), cfg))

    def test_memory_does_not_grow_with_step_count(self):
        # 20,000 steps that never quake: nothing per step may be kept
        cfg = _cfg(max_steps=20_000)
        faults = FaultMap.empty(cfg.dims)
        tracemalloc.start()
        try:
            summary = run(faults, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.total_steps == 20_000
        assert peak < 256 * 1024, f"peak {peak} B"

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run(FaultMap.empty(GridDims(2, 2)), _cfg())

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
        summary = run(faults, cfg, observer=seen.append)
        total = 0
        for report in seen:
            total += len(report.quaked_cells)
            assert report.cumulative_quakes == total
        assert total == summary.total_quakes >= 5
