"""End-to-end acceptance checks.

Each test is one release criterion — an exhaustive sweep, a tolerance, or a
golden file — and prints a single PASS line when it holds; a pytest failure
is the corresponding FAIL line. Random cases use a fixed-seed generator so
every run checks the exact same inputs.
"""

import io
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

from faultsim.cli import main
from faultsim.engine import SimConfig, SplitMix64, iter_steps, run, step
from faultsim.grid import FaultMap, GridDims, StressMap
from faultsim.raster import circle_cells, draw_circle, draw_segment, segment_cells
from faultsim.render import (
    RenderStyle,
    StressBands,
    render_fault_map,
    render_stress_map,
)
from faultsim.scenario import (
    Scenario,
    ScenarioError,
    format_scenario,
    format_stats,
    parse_scenario,
)

from oracles import (circle_oracle, fault_cells, is_fault, next_u64, segment_oracle, strip_ansi,
                     stress_map)

DATA_DIR = Path(__file__).parent / "data"


def _pass(number: int, label: str) -> None:
    print(f"PASS criterion {number}: {label}")


def test_criterion_1_segment_oracle_equivalence():
    t0 = time.perf_counter()
    dims = GridDims(16, 16)
    for x0 in range(16):
        for y0 in range(16):
            for x1 in range(16):
                for y1 in range(16):
                    want = segment_oracle(x0, y0, x1, y1)
                    fmap = FaultMap.empty(dims)
                    marked = draw_segment(fmap, x0, y0, x1, y1)
                    # equal count + containment on a fresh map == set equality
                    assert marked == len(want), (x0, y0, x1, y1)
                    assert all(is_fault(fmap, x, y) for x, y in want), (x0, y0, x1, y1)
                    assert set(segment_cells(x0, y0, x1, y1)) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"exhaustive sweep took {elapsed:.2f}s"
    _pass(1, f"all 65536 segments on 16x16 match the oracle ({elapsed:.2f}s)")


def test_criterion_2_circle_oracle_equivalence():
    dims = GridDims(31, 31)
    for r in range(13):
        fmap = FaultMap.empty(dims)
        draw_circle(fmap, 15, 15, r)
        got = fault_cells(fmap)
        assert got == circle_oracle(15, 15, r), f"r={r}"
        # 8-fold symmetry about the center
        for x, y in got:
            dx, dy = x - 15, y - 15
            for mx, my in ((dx, -dy), (-dx, dy), (-dx, -dy), (dy, dx)):
                assert (15 + mx, 15 + my) in got, (r, x, y)
    assert len(circle_cells(15, 15, 3)) == 16
    _pass(2, "circles r in [0,12] match the octant oracle exactly")


def test_criterion_3_circle_cropping_law():
    rng = SplitMix64(0xC17C)
    for case in range(1000):
        w = rng.randint(1, 48)
        h = rng.randint(1, 48)
        dims = GridDims(w, h)
        cx = rng.randint(0, w - 1)
        cy = rng.randint(0, h - 1)
        r = rng.randint(0, 2 * max(w, h))
        fmap = FaultMap.empty(dims)  # bounds-checked: a stray write raises
        draw_circle(fmap, cx, cy, r)
        want = {c for c in circle_oracle(cx, cy, r) if dims.contains(*c)}
        assert fault_cells(fmap) == want, (case, w, h, cx, cy, r)
    _pass(3, "1000 random circles equal unclipped set intersected with bounds")


def test_criterion_4_stress_never_negative_and_resets():
    meta = SplitMix64(4040)
    for _ in range(100):
        dims = GridDims(6, 6)
        threshold = 8 + meta.randint(0, 22)
        cfg = SimConfig(
            dims=dims,
            seed=next_u64(meta),
            quake_threshold=threshold,
            target_quakes=10**9,
            nonfault_delta_min=-meta.randint(0, 6),
            nonfault_delta_max=meta.randint(0, 6),
            fault_delta_min=-meta.randint(0, 2),
            fault_delta_max=meta.randint(1, 8),
            delay_ms=0,
        )
        faults = FaultMap.empty(dims)
        for y in range(6):
            for x in range(6):
                if meta.randint(0, 2) == 0:
                    faults.mark(x, y)
        stress = StressMap.empty(dims)
        rng = SplitMix64(cfg.seed)
        cumulative = 0
        for index in range(1, 201):
            report = step(stress, faults, cfg, rng, cumulative, step_index=index)
            cumulative = report.cumulative_quakes
            cells = stress.cells
            assert min(cells) >= 0
            assert max(cells) < threshold  # anything at/over it was reset
            for x, y in report.quaked_cells:
                assert cells[y * dims.width + x] == 0
    _pass(4, "100 runs x 200 steps: stress stays >= 0 and quaked cells reset")


def test_criterion_5_deterministic_replay(tmp_path, capsys):
    # the portable generator contract, seed 0
    rng = SplitMix64(0)
    assert next_u64(rng) == 0xE220A8397B1DCDAF
    assert next_u64(rng) == 0x6E789E6AA1B965F4

    cfg = SimConfig(dims=GridDims(8, 8), seed=1234, target_quakes=2, delay_ms=0)
    faults = FaultMap.empty(cfg.dims)
    for x in range(8):
        faults.mark(x, 3)
    scenario_path = tmp_path / "replay.txt"
    scenario_path.write_text(format_scenario(Scenario(cfg=cfg, faults=faults)))

    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["--headless", "--scenario", str(scenario_path), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert outs[0].decode() == format_stats(iter_steps(StressMap.empty(cfg.dims), faults, cfg))
    _pass(5, "seed-0 generator vector and byte-identical repeated headless runs")


def test_criterion_6_default_config_pacing():
    steps_to_first = []
    for seed in range(100):
        # stock configuration: threshold 100, deltas 0..10 / -5..5, target 3
        cfg = SimConfig(dims=GridDims(20, 20), seed=seed)
        faults = FaultMap.empty(cfg.dims)
        for y in range(20):
            faults.mark(10, y)
        t0 = time.perf_counter()
        seen = []
        run(faults, cfg, observer=seen.append)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"seed {seed} took {elapsed:.2f}s"
        assert seen[-1].step_index < cfg.max_steps
        assert seen[-1].cumulative_quakes >= cfg.target_quakes
        steps_to_first.append(
            next(r.step_index for r in seen if r.quaked_cells)
        )
    median = statistics.median(steps_to_first)
    assert 15 <= median <= 30, f"median steps to first quake: {median}"
    _pass(6, f"100 default runs terminate; median first quake at {median} steps")


def test_criterion_7_render_goldens():
    color = RenderStyle(color_enabled=True)
    plain = RenderStyle(color_enabled=False)
    bands = StressBands()

    fmap = FaultMap.empty(GridDims(2, 1))
    fmap.mark(0, 0)
    assert render_fault_map(fmap, color) == "\x1b[31m1\x1b[0m 0\n"
    assert render_fault_map(fmap, plain) == "1 0\n"

    low = StressMap.empty(GridDims(1, 1))
    assert render_stress_map(low, bands, 100, color) == "\x1b[32m  0\x1b[0m\n"
    quake = stress_map(GridDims(1, 1), [100])
    assert render_stress_map(quake, bands, 100, color) == "\x1b[34m100\x1b[0m\n"
    row = stress_map(GridDims(2, 1), [5, 70])
    assert render_stress_map(row, bands, 100, plain) == "  5  70\n"

    rng = SplitMix64(7)
    for _ in range(50):
        smap = stress_map(GridDims(4, 3), [rng.randint(0, 150) for _ in range(12)])
        colored = render_stress_map(smap, bands, 100, color)
        uncolored = render_stress_map(smap, bands, 100, plain)
        assert strip_ansi(colored) == uncolored
        assert "\x1b" not in uncolored
    _pass(7, "render output matches the documented bytes; color strips cleanly")


def _random_scenario(rng: SplitMix64) -> Scenario:
    w = rng.randint(1, 4)
    h = rng.randint(1, 4)
    n_lo = -rng.randint(0, 9)
    f_lo = -rng.randint(0, 9)
    cfg = SimConfig(
        dims=GridDims(w, h),
        seed=next_u64(rng),
        quake_threshold=rng.randint(1, 300),
        target_quakes=rng.randint(1, 5),
        nonfault_delta_min=n_lo,
        nonfault_delta_max=rng.randint(n_lo, 9),
        fault_delta_min=f_lo,
        fault_delta_max=rng.randint(f_lo, 9),
        delay_ms=rng.randint(0, 2000),
        max_steps=rng.randint(1, 10**6),
    )
    cells = [rng.randint(0, 1) == 1 for _ in range(w * h)]
    return Scenario(cfg=cfg, faults=FaultMap(cfg.dims, cells))


def test_criterion_8_scenario_round_trip_and_fuzz():
    rng = SplitMix64(808)
    for case in range(10_000):
        scenario = _random_scenario(rng)
        text = format_scenario(scenario)
        parsed = parse_scenario(text)
        assert parsed == scenario, case
        assert format_scenario(parsed) == text, case

    base = format_scenario(_random_scenario(rng)).encode()
    fuzz = SplitMix64(809)
    for case in range(10_000):
        if fuzz.randint(0, 1) == 0:
            blob = bytearray(base)
            for _ in range(fuzz.randint(1, 6)):
                blob[fuzz.randint(0, len(blob) - 1)] = fuzz.randint(0, 255)
            data = bytes(blob)
        else:
            data = bytes(
                fuzz.randint(0, 255) for _ in range(fuzz.randint(0, 120))
            )
        try:
            parse_scenario(data)
        except ScenarioError:
            pass  # the only failure mode the parser may use
    _pass(8, "10000 round-trips are exact; 10000 fuzzed parses fail cleanly")


def test_criterion_9_interactive_golden_transcript():
    script = "1\n5\n1\n12\n3\n5\n5\n3\n5\n"
    argv = [
        "--width", "10", "--height", "10", "--seed", "1",
        "--quakes", "1", "--delay-ms", "0", "--no-color",
    ]
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(script)), redirect_stdout(out):
        rc = main(argv)
    transcript = out.getvalue()

    assert rc == 0
    assert "Error: x=12 outside [0, 10)\n" in transcript
    assert transcript.count("EARTHQUAKE at (") >= 1
    assert "\x1b" not in transcript
    assert "Done: 1 earthquakes in" in transcript

    golden = (DATA_DIR / "acceptance_transcript.txt").read_text()
    assert transcript == golden
    _pass(9, "scripted session reproduces the golden transcript byte-for-byte")
