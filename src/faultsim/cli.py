"""Command-line front end: interactive fault drawing plus headless batch runs.

Interactive mode walks the shape menu, reprints the fault map after every
successful draw, then animates the stress simulation with a timed screen
refresh. Headless mode loads or builds a scenario, runs at full speed with
no rendering, and emits the per-step statistics CSV.

`main` owns the exit codes of both modes: it resolves the run once and
turns every failure into one line on stderr. Exit codes: 0 on success, 1 for
usage or I/O errors (a closed stdin, or a closed or full stdout, included), 2
when the step limit was exhausted before reaching the quake target, 130 when
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from typing import IO, Callable, Iterator

# step is not called here but stays importable from this module, where
# bench/traced.py wraps it by name
from .engine import _MASK64, SimConfig, StepReport, iter_steps, run, step  # noqa: F401
from .grid import MAX_DIM, FaultMap, GridDims, StressMap
from .raster import OutOfRangeError, draw_circle, draw_horizontal, draw_segment, draw_vertical
from .render import RenderStyle, StressBands, render_fault_map, render_stress_map
from .scenario import Scenario, format_stats, format_stats_row, load_scenario, save_scenario

CLEAR_SCREEN = "\x1b[2J\x1b[H"

MENU = (
    "1) vertical line\n"
    "2) horizontal line\n"
    "3) circle\n"
    "4) point-to-point line\n"
    "5) start simulation\n"
    "6) save scenario\n"
    "7) quit\n"
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for exhausted step limits
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_range(name: str, error: str, lo: int, hi: float = math.inf) -> Callable[[str], int]:
    """An argparse type for integers in [lo, hi]; argparse calls it `name` in its errors."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(error)
        return value

    parse.__name__ = name
    return parse


def build_parser() -> argparse.ArgumentParser:
    dimension = _int_range("dimension", f"must be in [1, {MAX_DIM}]", 1, MAX_DIM)
    positive = _int_range("positive_int", "must be >= 1", 1)
    p = _Parser(prog="faultsim", description="Fault-line stress simulator on a 2D grid")
    p.add_argument("--headless", action="store_true", help="run without menu or rendering")
    p.add_argument("--scenario", metavar="PATH", dest="scenario_path", help="scenario file to load")
    p.add_argument("--out", metavar="PATH", dest="out_path", help="stats CSV path (default stdout)")
    p.add_argument("--seed", type=_int_range("seed64", "must be an unsigned 64-bit integer", 0, _MASK64),
                   help="64-bit RNG seed (default: scenario, else clock)")
    p.add_argument("--width", type=dimension, help="grid width in cells")
    p.add_argument("--height", type=dimension, help="grid height in cells")
    # dests named after the SimConfig fields they override (see _resolve_state)
    p.add_argument("--quakes", type=positive, dest="target_quakes", metavar="QUAKES",
                   help="stop after this many earthquakes")
    p.add_argument("--threshold", type=positive, dest="quake_threshold", metavar="THRESHOLD",
                   help="stress level that triggers a quake")
    p.add_argument("--delay-ms", type=_int_range("nonneg_int", "must be >= 0", 0), help="pause between frames")
    p.add_argument("--max-steps", type=positive, help="step safety cap")
    p.add_argument("--no-color", action="store_true", help="plain ASCII output, no escapes")
    return p


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    opts = parser.parse_args(argv)
    if opts.headless and opts.scenario_path is None and (opts.width is None or opts.height is None):
        parser.error("headless mode needs --scenario or both --width and --height")
    return opts


def _wall_clock_seed() -> int:
    return time.time_ns() & _MASK64


def _resolve_state(opts: argparse.Namespace) -> tuple[SimConfig, FaultMap]:
    """Scenario file (if any) overlaid with explicit flags; seed always pinned."""
    if opts.scenario_path is not None:
        with open(opts.scenario_path, "rb") as fp:
            scenario = load_scenario(fp)
        cfg, faults = scenario.cfg, scenario.faults
        for name, value in (("width", opts.width), ("height", opts.height)):
            if value is not None and value != getattr(cfg.dims, name):
                raise ValueError(f"--{name} {value} conflicts with scenario grid "
                                 f"{cfg.dims.width}x{cfg.dims.height}")
    else:
        dims = GridDims(opts.width or 20, opts.height or 20)
        cfg = SimConfig(dims=dims, seed=_wall_clock_seed())
        faults = FaultMap.empty(dims)
    overrides = {f.name: getattr(opts, f.name) for f in fields(SimConfig)
                 if getattr(opts, f.name, None) is not None}
    return replace(cfg, **overrides), faults


def _stress_bands(threshold: int) -> StressBands:
    # thirds of the quake threshold; 100 -> the stock 33/66 split
    low = threshold // 3
    return StressBands(low_max=low, med_max=max(low + 1, (2 * threshold) // 3))


@contextmanager
def _stats_sink(path: str | None) -> Iterator[IO[str]]:
    """Where the CSV goes: stdout, or a file that only ever appears complete.

    A regular file is written under a temporary name beside its target and
    renamed over it when the block succeeds; on any failure the temporary
    file is removed and the target is left as it was. Targets that are not
    regular files (/dev/null, a FIFO) are written directly. Opening happens
    on entry, so a bad path fails before the first step.
    """
    if path is None:
        out = sys.stdout
        if hasattr(out, "reconfigure"):  # a pipe gets each row as its step completes
            out.reconfigure(line_buffering=True)
        yield out
        out.flush()
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", newline="") as fp:
            yield fp
        return
    directory, name = os.path.split(target)
    # the random part: a killed run leaves its file behind, and pids repeat
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # 0o666 less the umask: the mode open(path, "w") would give the target
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="") as fp:
            yield fp
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _discard_stdout() -> None:
    """Point fd 1 at /dev/null so the interpreter's exit flush of a failed stdout is silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run_headless(cfg: SimConfig, faults: FaultMap, out_path: str | None) -> int:
    last: StepReport | None = None

    def write_row(report: StepReport) -> None:
        nonlocal last
        row = format_stats_row(report)
        last = report  # before the write: an interrupt raised just after it counts this row
        out.write(row)

    try:
        with _stats_sink(out_path) as out:
            out.write(format_stats(()))  # the header: the CSV of a run with no steps
            summary = run(faults, cfg, observer=write_row)
    except KeyboardInterrupt:
        # the rows written so far stay; the summary counts the steps they cover
        if out_path is None:  # with --out, stdout may have been closed at start-up
            sys.stdout.flush()
        steps, quakes = (last.step_index, last.cumulative_quakes) if last else (0, 0)
        sys.stderr.write(f"steps={steps} quakes={quakes} seed={cfg.seed}\n")
        raise
    sys.stderr.write(f"steps={summary.total_steps} quakes={summary.total_quakes} seed={cfg.seed}\n")
    return 2 if summary.hit_step_limit else 0


def _read_line(stdin: IO[str], stdout: IO[str], prompt: str) -> str | None:
    stdout.write(prompt)
    stdout.flush()
    line = stdin.readline()
    if line == "":
        return None
    return line.strip()


def _read_int(stdin: IO[str], stdout: IO[str], prompt: str) -> int | None:
    """Prompt until an integer arrives; None means the input stream ended."""
    while (line := _read_line(stdin, stdout, prompt)) is not None:
        try:
            return int(line)
        except ValueError:
            stdout.write("Please enter an integer.\n")
    return None


# menu choice -> the prompts for its integers and the draw they are passed to
_SHAPES = {
    1: (("x: ",), draw_vertical),
    2: (("y: ",), draw_horizontal),
    3: (("center x: ", "center y: ", "radius: "), draw_circle),
    4: (("x0: ", "y0: ", "x1: ", "y1: "), draw_segment),
}


def _animate(faults: FaultMap, cfg: SimConfig, style: RenderStyle, stdout: IO[str]) -> int:
    """Draw the fault map, the empty stress map and one frame per step, then the outcome.

    Returns the exit code: 0 when the quake target was reached, 2 at the step cap.
    """
    bands = _stress_bands(cfg.quake_threshold)
    stress = StressMap.zeros(cfg.dims)
    steps = quakes = 0  # of the last complete frame
    try:
        stdout.write(render_fault_map(faults, style))
        stdout.write(render_stress_map(stress, bands, cfg.quake_threshold, style))
        stdout.flush()
        for report in iter_steps(stress, faults, cfg):
            if steps and cfg.delay_ms > 0:  # between step frames; none before step 1's
                time.sleep(cfg.delay_ms / 1000)
            if style.color_enabled:
                stdout.write(CLEAR_SCREEN)
            stdout.write(render_stress_map(stress, bands, cfg.quake_threshold, style))
            for x, y in report.quaked_cells:
                stdout.write(f"EARTHQUAKE at ({x}, {y})!\n")
            stdout.flush()
            steps, quakes = report.step_index, report.cumulative_quakes
    except KeyboardInterrupt:
        stdout.write(f"Interrupted after {steps} steps with {quakes} earthquakes (seed {cfg.seed}).\n")
        stdout.flush()
        raise
    if quakes < cfg.target_quakes:
        stdout.write(f"Step limit reached after {steps} steps with {quakes} earthquakes "
                     f"(seed {cfg.seed}).\n")
        code = 2
    else:
        stdout.write(f"Done: {quakes} earthquakes in {steps} steps (seed {cfg.seed}).\n")
        code = 0
    stdout.flush()
    return code


def run_interactive(cfg: SimConfig, faults: FaultMap, style: RenderStyle,
                    stdin: IO[str], stdout: IO[str]) -> int:
    while True:
        stdout.write(MENU)
        choice = _read_int(stdin, stdout, "choice: ")
        if choice is None or choice == 7:
            return 0
        if choice in _SHAPES:
            prompts, draw = _SHAPES[choice]
            # every prompt is shown even after the input ends, then nothing is drawn
            params = [_read_int(stdin, stdout, p) for p in prompts]
            if None in params:
                return 0
            # the Error: lines cover the draw and the save only; a failed write
            # to stdout is main's to report
            try:
                draw(faults, *params)
            except OutOfRangeError as exc:
                stdout.write(f"Error: {exc}\n")
                continue
            stdout.write(render_fault_map(faults, style))
            stdout.flush()
        elif choice == 5:
            return _animate(faults, cfg, style, stdout)
        elif choice == 6:
            path = _read_line(stdin, stdout, "path: ")
            if path is None:
                return 0
            try:
                with open(path, "w", newline="") as fp:
                    save_scenario(Scenario(cfg=cfg, faults=faults), fp)
            except OSError as exc:
                stdout.write(f"Error: {exc}\n")
                continue
            stdout.write(f"Saved {path}\n")
        else:
            stdout.write("Unknown option.\n")


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(sys.argv[1:] if argv is None else argv)
    # stdout carries the output of every run but a headless one with --out
    output_on_stdout = not (opts.headless and opts.out_path is not None)
    if output_on_stdout and sys.stdout is None:
        sys.stderr.write("faultsim: stdout closed\n")  # fd 1 was closed at start-up (`>&-`)
        return 1
    if not opts.headless and sys.stdin is None:
        sys.stderr.write("faultsim: stdin closed\n")  # fd 0 was closed at start-up (`<&-`)
        return 1
    try:
        try:
            cfg, faults = _resolve_state(opts)
        except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
            sys.stderr.write(f"faultsim: {exc}\n")
            return 1
        if opts.headless:
            return run_headless(cfg, faults, opts.out_path)
        style = RenderStyle(color_enabled=not opts.no_color)
        return run_interactive(cfg, faults, style, sys.stdin, sys.stdout)
    except KeyboardInterrupt:
        return 130
    except OSError as exc:
        msg = str(exc)
        if output_on_stdout:
            # stdout may still hold the bytes that failed (a dead pipe, a full disk)
            _discard_stdout()
            if isinstance(exc, BrokenPipeError):  # the reader went away (`| head`)
                msg = "stdout closed, run stopped"
        sys.stderr.write(f"faultsim: {msg}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
