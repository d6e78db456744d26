"""The streaming run loop and the edges of its output.

engine.iter_steps is the only step loop: run folds it into a summary,
headless mode writes one CSV row per step as it completes, and interactive
mode draws one frame per step. These tests pin that rows really leave as
steps complete, that --out is opened before the first step and replaced
atomically, that a closed stdout stops the run, and that the table-driven
stress renderer matches a per-cell reference.
"""

import errno
import io
import itertools
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import faultsim
import faultsim.cli as cli
import faultsim.engine as engine
from faultsim.cli import parse_args, run_headless
from faultsim.engine import SimConfig, SplitMix64, iter_steps, run, step
from faultsim.grid import FaultMap, GridDims, StressMap
from faultsim.render import (
    BLUE,
    GREEN,
    RED,
    RESET,
    YELLOW,
    Band,
    RenderStyle,
    StressBands,
    classify_stress,
    render_stress_map,
)
from faultsim.scenario import STATS_HEADER, format_stats, format_stats_row

SRC_DIR = str(Path(faultsim.__file__).resolve().parents[1])

# 20x20 with no faults and an unreachable quake target: runs to --max-steps
LONG_RUN = ["--headless", "--width", "20", "--height", "20", "--seed", "1", "--quakes", "1000000"]


def _cfg(**kwargs) -> SimConfig:
    base = dict(dims=GridDims(3, 3), seed=5, quake_threshold=12, target_quakes=4, delay_ms=0)
    base.update(kwargs)
    return SimConfig(**base)


def _faults(cfg: SimConfig) -> FaultMap:
    faults = FaultMap.empty(cfg.dims)
    for x in range(cfg.dims.width):
        faults.mark(x, 1)
    return faults


class TestIterSteps:
    def test_yields_what_run_collects(self):
        cfg = _cfg()
        stress = StressMap.zeros(cfg.dims)
        reports = list(iter_steps(stress, _faults(cfg), cfg))
        summary = run(_faults(cfg), cfg)
        assert reports == summary.reports
        assert stress == summary.final_stress
        assert reports[-1].cumulative_quakes >= cfg.target_quakes > reports[-2].cumulative_quakes

    def test_stops_at_step_cap(self):
        cfg = _cfg(target_quakes=10**6, max_steps=7)
        reports = list(iter_steps(StressMap.zeros(cfg.dims), _faults(cfg), cfg))
        assert [r.step_index for r in reports] == list(range(1, 8))

    def test_consumer_that_stops_stops_the_run(self):
        cfg = _cfg(target_quakes=10**6)
        stress = StressMap.zeros(cfg.dims)
        taken = list(itertools.islice(iter_steps(stress, _faults(cfg), cfg), 3))

        want = StressMap.zeros(cfg.dims)
        rng = SplitMix64(cfg.seed)
        cumulative = 0
        for index in range(1, 4):
            cumulative = step(want, _faults(cfg), cfg, rng, cumulative, index).cumulative_quakes
        assert len(taken) == 3
        assert stress == want  # no fourth step ran


def test_format_stats_is_header_plus_rows():
    reports = run(_faults(_cfg()), _cfg()).reports
    assert format_stats(()) == STATS_HEADER + "\n"
    assert format_stats(reports) == format_stats(()) + "".join(map(format_stats_row, reports))


class TestHeadlessStreaming:
    def test_rows_leave_as_steps_complete(self, monkeypatch):
        buf = io.StringIO()
        monkeypatch.setattr(sys, "stdout", buf)
        lines_before_step = []
        real_step = engine.step

        def spy(*args, **kwargs):
            lines_before_step.append(buf.getvalue().count("\n"))
            return real_step(*args, **kwargs)

        monkeypatch.setattr(engine, "step", spy)
        rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "6"]))
        assert rc == 2
        # header before step 1, then each row before the next step starts
        assert lines_before_step == [1, 2, 3, 4, 5, 6]
        assert buf.getvalue().count("\n") == 7

    def test_closed_stdout_stops_the_run(self):
        # the full 20000-step run takes several seconds; a reader that leaves
        # after two lines must end it within the first few hundred steps
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "faultsim", *LONG_RUN, "--max-steps", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == (STATS_HEADER + "\n").encode()
        assert proc.stdout.readline().startswith(b"1,")
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=120)
        elapsed = time.perf_counter() - t0
        assert rc == 1
        assert err == b"faultsim: stdout closed, run stopped\n"
        assert elapsed < 3.0


class TestOutFile:
    def test_unwritable_path_fails_before_first_step(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "stats.csv"
        t0 = time.perf_counter()
        rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "10000000", "--out", str(bad)]))
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"faultsim: [Errno 2] No such file or directory: '{bad}'\n"
        assert captured.out == ""

    def test_directory_path_fails_before_first_step(self, tmp_path, capsys):
        t0 = time.perf_counter()
        rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "10000000", "--out", str(tmp_path)]))
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        assert capsys.readouterr().err.startswith("faultsim: ")
        assert list(tmp_path.iterdir()) == []

    def _fail_at_step_3(self, monkeypatch):
        def full_disk(report):
            if report.step_index == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return format_stats_row(report)

        monkeypatch.setattr(cli, "format_stats_row", full_disk)

    def test_failed_run_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        self._fail_at_step_3(monkeypatch)
        out = tmp_path / "stats.csv"
        rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "10", "--out", str(out)]))
        assert rc == 1
        assert capsys.readouterr().err == "faultsim: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_previous_file(self, tmp_path, capsys, monkeypatch):
        self._fail_at_step_3(monkeypatch)
        out = tmp_path / "stats.csv"
        out.write_text("previous\n")
        rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "10", "--out", str(out)]))
        capsys.readouterr()
        assert rc == 1
        assert out.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_success_replaces_file_with_umask_mode(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        out.write_text("previous\n")
        old_mask = os.umask(0o027)
        try:
            rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "4", "--out", str(out)]))
        finally:
            os.umask(old_mask)
        capsys.readouterr()
        assert rc == 2
        assert out.read_text().splitlines()[0] == STATS_HEADER
        assert len(out.read_text().splitlines()) == 5
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert list(tmp_path.iterdir()) == [out]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        rc = run_headless(parse_args(LONG_RUN + ["--max-steps", "4", "--out", str(fifo)]))
        reader.join(30)
        capsys.readouterr()
        assert rc == 2
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert len(got) == 1 and got[0].count("\n") == 5


_BAND_COLOR = {Band.LOW: GREEN, Band.MEDIUM: YELLOW, Band.HIGH: RED, Band.QUAKE: BLUE}


@given(
    values=st.lists(st.integers(0, 1500), min_size=6, max_size=6),
    threshold=st.integers(1, 1200),
    color=st.booleans(),
)
@settings(max_examples=200)
def test_stress_render_matches_per_cell_reference(values, threshold, color):
    bands = StressBands(low_max=threshold // 3, med_max=threshold // 3 + 1 + threshold // 3)
    smap = StressMap(GridDims(3, 2), list(values))

    def cell(v):
        text = f"{min(v, 999):>3d}"
        return f"{_BAND_COLOR[classify_stress(v, bands, threshold)]}{text}{RESET}" if color else text

    want = "".join(" ".join(cell(v) for v in values[r:r + 3]) + "\n" for r in (0, 3))
    assert render_stress_map(smap, bands, threshold, RenderStyle(color_enabled=color)) == want
