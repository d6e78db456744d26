"""The streaming run loop and the edges of its output.

engine.iter_steps is the only step loop: run folds it into a summary,
headless mode writes one CSV row per step as it completes, and interactive
mode draws one frame per step. These tests pin that rows really leave as
steps complete, that each report is freed before the next step, that --out
is opened before the first step and replaced atomically (or written in
place when the path as named is not a regular file, such as /dev/stdout on
a pipe, or is the file behind fd 1 or fd 2), that a closed stdout stops the
run, and that the table-driven stress renderer matches a per-cell reference.
"""

import errno
import io
import itertools
import os
import select
import signal
import stat
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faultsim
import faultsim.cli as cli
import faultsim.engine as engine
from faultsim.cli import MENU, main
from faultsim.engine import SimConfig, SplitMix64, iter_steps, run, step
from faultsim.grid import FaultMap, GridDims, StressMap
from faultsim.render import (RESET, RenderStyle, StressBands, render_fault_map, render_stress_map,
                             stress_color)
from faultsim.scenario import STATS_HEADER, Scenario, format_scenario, format_stats, format_stats_row

SRC_DIR = str(Path(faultsim.__file__).resolve().parents[1])

# 20x20 with no faults and an unreachable quake target: runs to --max-steps
LONG_RUN = ["--headless", "--width", "20", "--height", "20", "--seed", "1", "--quakes", "1000000"]


def _pipe_without_reader() -> int:
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _full_device() -> int:
    return os.open("/dev/full", os.O_WRONLY)


FULL_DEVICE_ERR = b"faultsim: [Errno 28] No space left on device\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


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
        stress = StressMap.empty(cfg.dims)
        reports = list(iter_steps(stress, _faults(cfg), cfg))
        seen = []
        summary = run(_faults(cfg), cfg, observer=seen.append)
        assert reports == seen
        assert stress == summary.final_stress
        assert reports[-1].cumulative_quakes >= cfg.target_quakes > reports[-2].cumulative_quakes

    def test_stops_at_step_cap(self):
        cfg = _cfg(target_quakes=10**6, max_steps=7)
        reports = list(iter_steps(StressMap.empty(cfg.dims), _faults(cfg), cfg))
        assert [r.step_index for r in reports] == list(range(1, 8))

    def test_consumer_that_stops_stops_the_run(self):
        cfg = _cfg(target_quakes=10**6)
        stress = StressMap.empty(cfg.dims)
        taken = list(itertools.islice(iter_steps(stress, _faults(cfg), cfg), 3))

        want = StressMap.empty(cfg.dims)
        rng = SplitMix64(cfg.seed)
        cumulative = 0
        for index in range(1, 4):
            cumulative = step(want, _faults(cfg), cfg, rng, cumulative, index).cumulative_quakes
        assert len(taken) == 3
        assert stress == want  # no fourth step ran


def test_format_stats_is_header_plus_rows():
    reports = list(iter_steps(StressMap.empty(_cfg().dims), _faults(_cfg()), _cfg()))
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
        rc = main(LONG_RUN + ["--max-steps", "6"])
        assert rc == 2
        # header before step 1, then each row before the next step starts
        assert lines_before_step == [1, 2, 3, 4, 5, 6]
        assert buf.getvalue().count("\n") == 7

    @staticmethod
    def _reports_alive_at_each_step(monkeypatch) -> list[int]:
        """Spy on engine.step: before each step, how many earlier reports are still alive."""
        reports, alive = [], []
        real_step = engine.step

        def spy(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in reports))
            report = real_step(*args, **kwargs)
            reports.append(weakref.ref(report))
            return report

        monkeypatch.setattr(engine, "step", spy)
        return alive

    def test_each_report_is_freed_before_the_next_step(self, monkeypatch):
        # on a large grid one step's quake list is megabytes; none may live through the next step
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        alive = self._reports_alive_at_each_step(monkeypatch)
        assert main(LONG_RUN + ["--max-steps", "6"]) == 2
        assert alive == [0] * 6

    def test_each_report_is_freed_before_the_next_step_interactive(self, monkeypatch):
        # the animation's twin of the test above: no frame's report lives through the next step
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO("5\n"))
        monkeypatch.setattr(sys, "stdout", stdout)
        alive = self._reports_alive_at_each_step(monkeypatch)
        interactive = [arg for arg in LONG_RUN if arg != "--headless"]
        assert main(interactive + ["--no-color", "--delay-ms", "0", "--max-steps", "6"]) == 2
        assert alive == [0] * 6
        assert stdout.getvalue().endswith("Step limit reached after 6 steps with 0 earthquakes (seed 1).\n")

    def test_closed_stdout_stops_the_run(self):
        # the full 20000-step run takes several seconds; a reader that leaves
        # after two lines must end it within the first few hundred steps
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "faultsim", *LONG_RUN, "--max-steps", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline() == (STATS_HEADER + "\n").encode()
            assert proc.stdout.readline().startswith(b"1,")
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait(timeout=120)
        elapsed = time.perf_counter() - t0
        assert rc == 1
        assert err == b"faultsim: stdout closed, run stopped\n"
        assert elapsed < 3.0

    def test_closed_stdout_stops_the_animation(self):
        # 20x20 frames with no pause; the reader leaves during the first stress frame
        argv = ["--no-color", "--seed", "1", "--delay-ms", "0", "--quakes", "1000000", "--max-steps", "20000"]
        with _spawn(*argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdin.write(b"5\n")
            proc.stdin.close()
            head = [proc.stdout.readline() for _ in range(30)]
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait(timeout=120)
        assert rc == 1
        assert err == b"faultsim: stdout closed, run stopped\n"
        zeros = b" ".join([b"0"] * 20) + b"\n"
        want = MENU.encode().splitlines(keepends=True) + [b"choice: " + zeros] + [zeros] * 19
        assert head == want + [b" ".join([b"  0"] * 20) + b"\n"] * 3  # fault map, then stress rows

    @pytest.mark.parametrize(
        "argv, open_stdout, want_err",
        [
            (LONG_RUN, None, b"faultsim: stdout closed\n"),
            (["--no-color"], None, b"faultsim: stdout closed\n"),
            # a reader that left before the menu was written, and a full disk
            (["--no-color"], _pipe_without_reader, b"faultsim: stdout closed, run stopped\n"),
            pytest.param(["--no-color"], _full_device, FULL_DEVICE_ERR, marks=needs_dev_full),
            pytest.param(LONG_RUN, _full_device, FULL_DEVICE_ERR, marks=needs_dev_full),
        ],
        ids=["headless", "interactive", "interactive-no-reader", "interactive-full", "headless-full"],
    )
    def test_stdout_closed_at_start_fails_before_first_step(self, argv, open_stdout, want_err):
        fd = None if open_stdout is None else open_stdout()
        closed = None if fd is not None else lambda: os.close(1)  # `>&-`
        with _spawn(*argv, "--max-steps", "10000000", preexec_fn=closed, stdout=fd,
                    stdin=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
            if fd is not None:
                os.close(fd)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == want_err

    @pytest.mark.parametrize("argv, want_code, want_err", [
        (["--no-color"], 1, b"faultsim: stdin closed\n"),
        # a headless run reads no stdin
        (LONG_RUN + ["--max-steps", "2"], 2, b"steps=2 quakes=0 seed=1\n"),
    ], ids=["interactive", "headless"])
    def test_stdin_closed_at_start(self, argv, want_code, want_err):
        with _spawn(*argv, preexec_fn=lambda: os.close(0),  # `<&-`
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == want_code
        assert err == want_err
        if want_code == 1:
            assert out == b""  # nothing, not even the menu
        else:
            assert out.startswith((STATS_HEADER + "\n1,").encode())

    def test_out_file_runs_with_stdout_closed_at_start(self, tmp_path):
        target = tmp_path / "stats.csv"
        with _spawn(*LONG_RUN, "--max-steps", "4", "--out", str(target),
                    preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE) as proc:
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err == b"steps=4 quakes=0 seed=1\n"
        lines = target.read_text().splitlines()
        assert lines[0] == STATS_HEADER and [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]

    def test_rows_reach_a_pipe_without_pythonunbuffered(self):
        # a 300x300 step takes a tenth of a second or more: a block-buffered
        # stdout would hold the first rows back for minutes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        argv = ["--headless", "--width", "300", "--height", "300", "--seed", "1",
                "--quakes", "1000000000", "--max-steps", "1000000000"]
        with subprocess.Popen([sys.executable, "-m", "faultsim", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            try:
                got = _read_pipe(proc, lambda got: got.count(b"\n") >= 2)
                assert proc.poll() is None
            finally:
                proc.kill()
                proc.wait()
        header, row1 = got.split(b"\n")[:2]
        assert header == STATS_HEADER.encode()
        assert row1.startswith(b"1,0,0,")


def _read_pipe(proc: subprocess.Popen, done) -> bytes:
    """The child's stdout, read as it arrives until done(what was read); fails after 10 s."""
    got, deadline = b"", time.monotonic() + 10
    while not done(got):
        left = deadline - time.monotonic()
        assert left > 0 and select.select([proc.stdout], [], [], left)[0], got
        chunk = os.read(proc.stdout.fileno(), 4096)
        assert chunk, got
        got += chunk
    return got


def _spawn(*args, preexec_fn=None, **kwargs) -> subprocess.Popen:
    """The CLI in a child with SIGINT at its default, so Python turns it into KeyboardInterrupt.

    PYTHONUNBUFFERED is removed, so stdout is buffered as it is for a user.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))

    def setup() -> None:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if preexec_fn is not None:
            preexec_fn()

    return subprocess.Popen([sys.executable, "-m", "faultsim", *args], env=env, preexec_fn=setup, **kwargs)


class TestInterrupt:
    def test_headless_keeps_rows_and_reports_the_steps_done(self):
        with _spawn(*LONG_RUN, "--max-steps", "10000000",
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = [proc.stdout.readline() for _ in range(3)]  # the header and two rows
            proc.send_signal(signal.SIGINT)
            out = proc.stdout.read()  # not communicate(): it skips what readline buffered
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 130
        assert b"Traceback" not in err
        lines = (b"".join(head) + out).decode().split("\n")
        assert lines[0] == STATS_HEADER and lines[-1] == ""  # every row complete
        rows = [row.split(",") for row in lines[1:-1]]
        assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
        step_index, _, cumulative, _, _ = rows[-1]
        assert err.decode() == f"steps={step_index} quakes={cumulative} seed=1\n"

    def test_headless_out_file_keeps_previous_contents(self, tmp_path):
        self._interrupt_out_file_run(tmp_path, stdout=subprocess.DEVNULL)

    def test_headless_out_file_keeps_previous_contents_with_stdout_closed(self, tmp_path):
        # with --out the run never needs stdout, so Ctrl-C must not touch it either
        self._interrupt_out_file_run(tmp_path, preexec_fn=lambda: os.close(1))

    @staticmethod
    def _interrupt_out_file_run(tmp_path, **spawn_kwargs):
        target = tmp_path / "stats.csv"
        target.write_text("previous\n")
        proc = _spawn(*LONG_RUN, "--max-steps", "10000000", "--out", str(target),
                      stderr=subprocess.PIPE, **spawn_kwargs)
        deadline = time.monotonic() + 60
        while not any(p.name.endswith(".tmp") and p.stat().st_size for p in tmp_path.iterdir()):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err.startswith(b"steps=") and b"Traceback" not in err
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_interactive_exits_130_without_traceback(self):
        proc = _spawn("--no-color", stdin=subprocess.PIPE,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdin.write(b"5\n")  # start the animation: one frame a second until 3 quakes
        proc.stdin.flush()
        assert proc.stdout.readline() == b"1) vertical line\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err == b""

    def test_interactive_reports_the_steps_shown(self):
        # 1x1 no-colour frames are one line each; a quake every few steps
        with _spawn("--no-color", "--width", "1", "--height", "1", "--seed", "1",
                    "--threshold", "3", "--quakes", "1000000", "--delay-ms", "200",
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdin.write(b"5\n")
            proc.stdin.close()
            head = [proc.stdout.readline() for _ in range(12)]  # the menu and a few frames
            time.sleep(0.05)  # into the pause after a frame
            proc.send_signal(signal.SIGINT)
            out = proc.stdout.read()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 130
        assert err == b""
        lines = (b"".join(head) + out).decode().split("\n")
        assert lines[7] == "choice: 0" and lines[-1] == ""  # the fault map, then frames
        *frames, summary = lines[8:-1]
        quakes = frames.count("EARTHQUAKE at (0, 0)!")
        steps = len(frames) - quakes - 1  # the first frame is the empty stress map
        assert steps >= 2
        assert summary == f"Interrupted after {steps} steps with {quakes} earthquakes (seed 1)."

    def test_interactive_counts_a_frame_interrupted_just_after_its_write(self):
        # Ctrl-C can land as a frame's write returns: that frame is on screen, so it counts
        class InterruptAfterFrame1(io.StringIO):
            writes = 0

            def write(self, text: str) -> int:
                n = super().write(text)
                self.writes += 1
                if self.writes == 3:  # the fault map, the empty stress map, then frame 1
                    raise KeyboardInterrupt
                return n

        cfg = SimConfig(dims=GridDims(4, 3), seed=1, delay_ms=0, max_steps=5)
        out = InterruptAfterFrame1()
        with pytest.raises(KeyboardInterrupt):
            cli._animate(FaultMap.empty(cfg.dims), cfg, RenderStyle(color_enabled=False), out)
        assert out.getvalue().endswith("\nInterrupted after 1 steps with 0 earthquakes (seed 1).\n")

    def test_interactive_prompt_and_frames_reach_a_pipe_as_written(self):
        # a minute's pause after frame 1: a frame held in a buffer would not arrive before it ends
        cfg = SimConfig(dims=GridDims(4, 3), seed=1, delay_ms=60000, max_steps=5)
        style, bands = RenderStyle(color_enabled=False), cli._stress_bands(cfg.quake_threshold)
        stress = StressMap.empty(cfg.dims)
        maps = render_fault_map(FaultMap.empty(cfg.dims), style) + render_stress_map(
            stress, bands, cfg.quake_threshold, style)
        next(iter_steps(stress, FaultMap.empty(cfg.dims), cfg))
        frame = render_stress_map(stress, bands, cfg.quake_threshold, style)

        def read(proc, want: str) -> None:
            assert _read_pipe(proc, lambda got: len(got) >= len(want)) == want.encode()

        with _spawn("--no-color", "--width", "4", "--height", "3", "--seed", "1",
                    "--delay-ms", "60000", "--max-steps", "5",
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                read(proc, MENU + "choice: ")  # before any input is sent
                proc.stdin.write(b"5\n")
                proc.stdin.flush()
                read(proc, maps + frame)
                assert proc.poll() is None  # in the pause after frame 1
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert proc.returncode == 130 and err == b""
        assert out == b"Interrupted after 1 steps with 0 earthquakes (seed 1).\n"


class TestOutFile:
    def test_unwritable_path_fails_before_first_step(self, tmp_path, capsys):
        bad = tmp_path / "missing" / "stats.csv"
        t0 = time.perf_counter()
        rc = main(LONG_RUN + ["--max-steps", "10000000", "--out", str(bad)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"faultsim: [Errno 2] No such file or directory: '{bad}'\n"
        assert captured.out == ""

    def test_directory_path_fails_before_first_step(self, tmp_path, capsys):
        t0 = time.perf_counter()
        rc = main(LONG_RUN + ["--max-steps", "10000000", "--out", str(tmp_path)])
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
        rc = main(LONG_RUN + ["--max-steps", "10", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "faultsim: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_previous_file(self, tmp_path, capsys, monkeypatch):
        self._fail_at_step_3(monkeypatch)
        out = tmp_path / "stats.csv"
        out.write_text("previous\n")
        rc = main(LONG_RUN + ["--max-steps", "10", "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
        assert out.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [out]

    def _run_with_umask(self, out, mask):
        old_mask = os.umask(mask)
        try:
            return main(LONG_RUN + ["--max-steps", "4", "--out", str(out)])
        finally:
            os.umask(old_mask)

    def test_success_replaces_file_keeping_its_mode(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        out.write_text("previous\n")
        out.chmod(0o600)
        rc = self._run_with_umask(out, 0o022)
        capsys.readouterr()
        assert rc == 2
        assert out.read_text().splitlines()[0] == STATS_HEADER
        assert len(out.read_text().splitlines()) == 5
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert list(tmp_path.iterdir()) == [out]

    def test_new_file_gets_umask_mode(self, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        rc = self._run_with_umask(out, 0o027)
        capsys.readouterr()
        assert rc == 2
        assert len(out.read_text().splitlines()) == 5
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert list(tmp_path.iterdir()) == [out]

    def test_stale_temporary_file_is_left_alone(self, tmp_path, capsys):
        # what a run killed by SIGKILL leaves behind, under this process's pid
        out = tmp_path / "stats.csv"
        stale = tmp_path / f".faultsim.{os.getpid()}.0123abcd.tmp"
        stale.write_text("killed run\n")
        rc = main(LONG_RUN + ["--max-steps", "4", "--out", str(out)])
        capsys.readouterr()
        assert rc == 2
        assert len(out.read_text().splitlines()) == 5
        assert stale.read_text() == "killed run\n"
        assert sorted(tmp_path.iterdir()) == [stale, out]

    def test_long_file_name_is_written(self, tmp_path, capsys):
        # 240 bytes: the temporary name beside it does not grow with it, so there is room
        out = tmp_path / ("s" * 240)
        rc = main(LONG_RUN + ["--max-steps", "4", "--out", str(out)])
        capsys.readouterr()
        assert rc == 2
        assert len(out.read_text().splitlines()) == 5
        assert list(tmp_path.iterdir()) == [out]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        rc = main(LONG_RUN + ["--max-steps", "4", "--out", str(fifo)])
        reader.join(30)
        capsys.readouterr()
        assert rc == 2
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert len(got) == 1 and got[0].count("\n") == 5

    def test_symlink_target_is_replaced_and_the_link_kept(self, tmp_path, capsys):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("previous\n")
        real.chmod(0o600)
        link.symlink_to("real.csv")
        rc = main(LONG_RUN + ["--max-steps", "4", "--out", str(link)])
        capsys.readouterr()
        assert rc == 2
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert real.read_text().splitlines()[0] == STATS_HEADER
        assert len(real.read_text().splitlines()) == 5
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
        assert sorted(tmp_path.iterdir()) == [link, real]

    @staticmethod
    def _run(*args, stdin: bytes = b"", **kwargs) -> tuple[int, bytes | None, bytes | None]:
        """Exit code, stdout and stderr; a stream that kwargs sends to a file reads as None."""
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with _spawn(*args, stdin=subprocess.PIPE, **pipes | kwargs) as proc:
            out, err = proc.communicate(stdin, timeout=60)
        return proc.returncode, out, err

    # the path is judged as named: /dev/stdout on a pipe is that pipe, not a file to replace
    def test_dev_stdout_on_a_pipe_is_written_in_place(self):
        argv = [*LONG_RUN, "--max-steps", "4"]
        want = self._run(*argv)
        assert want[0] == 2 and want[1].count(b"\n") == 5
        assert self._run(*argv, "--out", "/dev/stdout") == want

    def test_dev_fd_on_a_pipe_is_written_in_place(self):
        argv = [*LONG_RUN, "--max-steps", "4"]
        _, want, _ = self._run(*argv)
        read_end, write_end = os.pipe()
        try:
            got = self._run(*argv, "--out", f"/dev/fd/{write_end}", pass_fds=(write_end,))
        finally:
            os.close(write_end)
        with open(read_end, "rb") as fp:  # the four rows fit in the pipe's buffer
            assert got == (2, b"", b"steps=4 quakes=0 seed=1\n") and fp.read() == want

    def test_menu_save_to_dev_stdout_on_a_pipe(self):
        rc, out, err = self._run("--no-color", "--width", "3", "--height", "2", "--seed", "1",
                                 stdin=b"6\n/dev/stdout\n7\n")
        saved = format_scenario(Scenario(cfg=SimConfig(dims=GridDims(3, 2), seed=1),
                                         faults=FaultMap.empty(GridDims(3, 2))))
        assert (rc, err) == (0, b"")
        assert out.decode() == f"{MENU}choice: path: {saved}Saved /dev/stdout\n{MENU}choice: "

    # a path naming the regular file that fd 1 or fd 2 writes is written through that
    # descriptor: a rename would drop what the file held before (`>> f`) and what the
    # descriptor writes after it (the closing line, the menu)
    def test_dev_stdout_appended_to_a_file_keeps_its_lines(self, tmp_path):
        argv = [*LONG_RUN, "--max-steps", "3"]
        _, want, _ = self._run(*argv)
        f = tmp_path / "f"
        f.write_bytes(b"hello\n")
        with open(f, "ab") as out:  # `>> f`
            got = self._run(*argv, "--out", "/dev/stdout", stdout=out)
        assert got == (2, None, b"steps=3 quakes=0 seed=1\n")
        assert f.read_bytes() == b"hello\n" + want
        assert list(tmp_path.iterdir()) == [f]

    def test_dev_stderr_sent_to_a_file_keeps_the_closing_line(self, tmp_path):
        argv = [*LONG_RUN, "--max-steps", "3"]
        _, want, _ = self._run(*argv)
        log = tmp_path / "log"
        with open(log, "wb") as err:  # `2> log`
            got = self._run(*argv, "--out", "/dev/stderr", stderr=err)
        assert got == (2, b"", None)
        assert log.read_bytes() == want + b"steps=3 quakes=0 seed=1\n"
        assert list(tmp_path.iterdir()) == [log]

    def test_menu_save_to_dev_stdout_sent_to_a_file(self, tmp_path):
        g = tmp_path / "g"
        with open(g, "wb") as out:  # `> g`
            got = self._run("--no-color", "--width", "3", "--height", "2", "--seed", "5",
                            stdin=b"6\n/dev/stdout\n7\n", stdout=out)
        saved = format_scenario(Scenario(cfg=SimConfig(dims=GridDims(3, 2), seed=5),
                                         faults=FaultMap.empty(GridDims(3, 2))))
        assert got == (0, None, b"")
        assert g.read_text() == f"{MENU}choice: path: {saved}Saved /dev/stdout\n{MENU}choice: "
        assert list(tmp_path.iterdir()) == [g]

    # '' and missing/.. resolve to a directory: they fail at the open, as open(path) does,
    # with no temporary file made beside the directory they resolve to
    @pytest.mark.parametrize("path", ["", "missing/.."])
    def test_path_resolving_to_a_directory_fails_before_first_step(self, path, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        got = self._run(*LONG_RUN, "--max-steps", "4", "--out", path, cwd=work)
        assert got == (1, b"", f"faultsim: [Errno 2] No such file or directory: '{path}'\n".encode())
        assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []


@given(
    data=st.data(),
    threshold=st.integers(1, 1200),
    color=st.booleans(),
    in_bytes=st.booleans(),
)
@settings(max_examples=200)
def test_stress_render_matches_per_cell_reference(data, threshold, color, in_bytes):
    # a map in bytes holds values up to 255, a list-backed one any value
    values = data.draw(st.lists(st.integers(0, 255 if in_bytes else 1500), min_size=6, max_size=6), "values")
    bands = StressBands(low_max=threshold // 3, med_max=threshold // 3 + 1 + threshold // 3)
    smap = StressMap(GridDims(3, 2), (bytearray if in_bytes else list)(values))

    def cell(v):
        text = f"{min(v, 999):>3d}"
        return f"{stress_color(v, bands, threshold)}{text}{RESET}" if color else text

    want = "".join(" ".join(cell(v) for v in values[r:r + 3]) + "\n" for r in (0, 3))
    assert render_stress_map(smap, bands, threshold, RenderStyle(color_enabled=color)) == want
