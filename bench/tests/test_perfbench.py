"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from harness import SPEED_REF_S, Spawner, SpeedGauge, check, child_env, launch  # noqa: E402
from prepare import prepare  # noqa: E402
from workloads import WORKLOADS, cli_args, cli_stdin, scenario_bytes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def spawner():
    with Spawner(child_env(ROOT)) as s:
        yield s


def tiny_case(tmp_path, name, seed=5):
    path = tmp_path / f"{name}.scn"
    return WORKLOADS[name], path, prepare(name, seed, True, path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert f"{name} {m['name']} " in out.stdout  # printed by name, with its unit
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_digest_gate_rejects_corrupted_output(tmp_path, spawner, name):
    wl, path, case = tiny_case(tmp_path, name)
    # the real CLI's output with one digit changed on its way to the pipe
    corrupt = (
        "import subprocess, sys\n"
        f"r = subprocess.run({case.cli!r}, input={case.stdin!r}, capture_output=True)\n"
        "i = r.stdout.rindex(b'0')\n"
        "sys.stdout.buffer.write(r.stdout[:i] + b'1' + r.stdout[i + 1:])\n"
        "sys.stderr.buffer.write(r.stderr)\n"
        "sys.exit(r.returncode)\n"
    )
    deadline = time.perf_counter() + 60
    good = launch(spawner, case.cli, case.stdin, ROOT, deadline, frames=not wl.headless)
    assert check(good, case.expected, wl.headless, case.seed) == []
    bad = launch(spawner, [sys.executable, "-c", corrupt], b"", ROOT, deadline,
                 frames=not wl.headless)
    assert any("sha256" in reason for reason in check(bad, case.expected, wl.headless, case.seed))


def test_frame_markers_are_found_across_reads(spawner):
    # each marker is split over two writes with a pause between them
    writer = (
        "import sys, time\n"
        "for n in range(5):\n"
        "    sys.stdout.buffer.write(b'frame\\x1b[2'); sys.stdout.flush(); time.sleep(0.02)\n"
        "    sys.stdout.buffer.write(b'J\\x1b[H'); sys.stdout.flush(); time.sleep(0.02)\n"
    )
    inv = launch(spawner, [sys.executable, "-c", writer], b"", ROOT, time.perf_counter() + 60,
                 frames=True)
    assert len(inv.marker_s) == 5
    assert inv.marker_s == sorted(inv.marker_s) and inv.marker_s[0] == inv.first_output_s


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_add_up_to_wall_time(tmp_path, spawner, name):
    wl, path, case = tiny_case(tmp_path, name)
    exp = case.expected
    result_path = tmp_path / "trace.json"
    inv = launch(
        spawner,
        [sys.executable, str(BENCH / "traced.py"), str(result_path), "0",
         cli_stdin(wl).decode(), "--", *cli_args(wl, str(path))],
        b"", ROOT, time.perf_counter() + 60, segment_length=exp.length,
    )
    assert inv.exit_code == 0, inv.stderr
    assert inv.segments == [(exp.sha256, exp.length)] * 2  # one untraced, one traced call
    r = json.loads(result_path.read_text())
    wall = sum(r["traced_wall_s"])
    self_sum = sum(s["self_s"] for s in r["spans"].values())
    assert all(s["self_s"] >= 0 for s in r["spans"].values())
    assert abs(wall - self_sum) <= 0.01 * wall
    expected_spans = {"cli.main", "cli.write", "engine.step", "scenario.load_scenario"}
    expected_spans |= ({"engine.run", "scenario.format_stats"} if wl.headless
                       else {"render.render_stress_map"})
    assert set(r["spans"]) == expected_spans


def test_scenario_generation_is_reproducible():
    for wl in WORKLOADS.values():
        assert scenario_bytes(wl, 7, tiny=True) == scenario_bytes(wl, 7, tiny=True)
        assert scenario_bytes(wl, 7, tiny=True) != scenario_bytes(wl, 8, tiny=True)


def test_peak_rss_is_the_childs_own(spawner):
    # a child forked by a large process would report at least that size
    ballast = bytearray(64 << 20)  # noqa: F841
    probe = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    inv = launch(spawner, [sys.executable, "-c", probe], b"", ROOT, time.perf_counter() + 60)
    assert inv.maxrss_kb < 48 << 10
    assert inv.maxrss_kb >= int(inv.stdout)


def test_speed_gauge_scales_to_the_reference_speed():
    home = os.sched_getaffinity(0)
    gauge = SpeedGauge(min(home))
    gauge.sample()
    assert os.sched_getaffinity(0) == home  # sampling moves the benchmark back
    assert len(gauge.samples) == 2 and 0.1 < gauge.scale(0) < 10
    gauge.samples = [SPEED_REF_S, 3 * SPEED_REF_S]  # host at half the reference speed
    assert gauge.scale(0) == 0.5
