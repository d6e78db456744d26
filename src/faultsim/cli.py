"""Command-line front end: interactive fault drawing plus headless batch runs.

Interactive mode walks the shape menu, reprints the fault map after every
successful draw, then animates the stress simulation with a timed screen
refresh; without a scenario, a missing --width or --height is 20 and a
missing --seed comes from the clock. Headless mode loads or builds a scenario,
runs at full speed with no rendering, and emits the per-step statistics CSV.

`main` owns the exit codes of both modes: it resolves the run once and
turns every failure into one line on stderr; SimConfig and GridDims judge a
flag's value as they judge a scenario file's, with the same line. Exit codes:
0 on success, 1 for usage, input or I/O errors (a closed stdin, or a closed
or full stdout, included), 2 when the step limit was exhausted before
reaching the quake target, 130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from contextlib import contextmanager
from typing import IO, Iterator

# step is not called here but stays importable from this module, where
# bench/traced.py wraps it by name
from .engine import _MASK64, SimConfig, StepReport, iter_steps, run, step  # noqa: F401
from .grid import FaultMap, GridDims, StressMap, digits
from .raster import OutOfRangeError, draw_circle, draw_horizontal, draw_segment, draw_vertical
from .render import RenderStyle, StressBands, render_fault_map, render_stress_map
from .scenario import Scenario, format_stats, format_stats_row, load_scenario, save_scenario

CLEAR_SCREEN = "\x1b[2J\x1b[H"

_MAX_LINE = 1 << 20  # characters in a menu line; a longer one is read no further

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
        sys.stderr.write(_one_line(f"{self.prog}: error: {message}"))
        raise SystemExit(1)


def _printable(text: str) -> str:
    """text with each unprintable character (ESC, a line break, a non-UTF-8 byte) escaped."""
    return "".join(c if c.isprintable() else ascii(c)[1:-1] for c in text)


def _one_line(message: str) -> str:
    """An error message as one line under 300 bytes in any encoding: past 200 characters, counted
    as ascii() writes them, its head and length, made _printable."""
    n = next(n for n in range(201, 0, -1) if len(ascii(message[:n])) <= 202)  # with ascii()'s quotes
    if n < len(message):
        message = f"{message[:n]}...<{len(message)} characters>"
    return _printable(message) + "\n"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = _Parser(prog="faultsim", description="Fault-line stress simulator on a 2D grid")
    p.add_argument("--headless", action="store_true", help="run without menu or rendering")
    p.add_argument("--scenario", metavar="PATH", dest="scenario_path", help="scenario file to load")
    p.add_argument("--out", metavar="PATH", dest="out_path", help="stats CSV path (default stdout)")
    p.add_argument("--seed", type=int, help="64-bit RNG seed (default: scenario, else clock)")
    p.add_argument("--width", type=int, help="grid width in cells")
    p.add_argument("--height", type=int, help="grid height in cells")
    # dests named after the SimConfig fields they override; SimConfig judges the values
    p.add_argument("--quakes", type=int, dest="target_quakes", metavar="QUAKES",
                   help="stop after this many earthquakes")
    p.add_argument("--threshold", type=int, dest="quake_threshold", metavar="THRESHOLD",
                   help="stress level that triggers a quake")
    p.add_argument("--delay-ms", type=int, help="pause between frames")
    p.add_argument("--max-steps", type=int, help="step safety cap")
    p.add_argument("--no-color", action="store_true", help="plain ASCII output, no escapes")
    opts = p.parse_args(argv)
    if opts.headless and opts.scenario_path is None and (opts.width is None or opts.height is None):
        p.error("headless mode needs --scenario or both --width and --height")
    return opts


def _resolve_state(opts: argparse.Namespace) -> tuple[SimConfig, FaultMap]:
    """Scenario file (if any) overlaid with explicit flags; seed always pinned."""
    if opts.scenario_path is not None:
        with open(opts.scenario_path, "rb") as fp:
            scenario = load_scenario(fp)
        cfg, faults = scenario.cfg, scenario.faults
        for name, value in (("width", opts.width), ("height", opts.height)):
            if value is not None and value != getattr(cfg.dims, name):
                raise ValueError(f"--{name} {digits(value)} conflicts with scenario grid "
                                 f"{cfg.dims.width}x{cfg.dims.height}")
    else:
        # a missing side is 20; "is None", not "or", so --width 0 fails in GridDims
        dims = GridDims(*(20 if side is None else side for side in (opts.width, opts.height)))
        cfg = SimConfig(dims=dims, seed=time.time_ns() & _MASK64)
        faults = FaultMap.empty(dims)
    values = {name: getattr(cfg, name) for name in SimConfig._FIELDS}
    overrides = {name: value for name in values if (value := getattr(opts, name, None)) is not None}
    return SimConfig(**values | overrides), faults


def _stress_bands(threshold: int) -> StressBands:
    # thirds of the quake threshold; 100 -> the stock 33/66 split
    low = threshold // 3
    return StressBands(low_max=low, med_max=max(low + 1, (2 * threshold) // 3))


@contextmanager
def _output_file(path: str | None) -> Iterator[IO[str]]:
    """Where a CSV or a saved scenario goes: stdout, or a file that only ever appears complete.

    stdout is yielded as main left it, line-buffered. A regular file is
    written under a temporary name beside its target and renamed over it, with
    the target's permission bits but not its owner, when the block succeeds;
    on any failure the temporary file is removed and the target is left as it
    was. A path that, as named, is not a regular file (/dev/null, a FIFO,
    /dev/stdout on a pipe) is written directly, and so is the regular file
    open on fd 1 or fd 2 (/dev/stdout with stdout sent to a file), through
    that descriptor. Opening happens on entry, so a bad path fails before the
    first step.
    """
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)  # only where the rename goes
    try:
        info = os.stat(path)  # any other error names the path and fails now, not at the rename
        mode = info.st_mode
    except FileNotFoundError:  # no target yet; '' or missing/.. resolves to a directory: in place
        mode = stat.S_IFDIR if os.path.isdir(target) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="") as fp:
            yield fp
        return
    for fd in (1, 2) if mode is not None else ():
        try:
            same = os.path.samestat(info, os.fstat(fd))
        except OSError:  # a closed descriptor matches nothing
            continue
        if same:  # a rename would drop what the file holds and what fd 1 or 2 writes to it later
            with open(fd, "w", newline="", closefd=False) as fp:  # at its offset, in its append mode
                yield fp
            return
    # not named after the target, whose name may leave no room for more; random, as a
    # killed run's file stays behind and pids repeat
    tmp = os.path.join(os.path.dirname(target), f".faultsim.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # 0o666 less the umask: the mode open(path, "w") would give a new target
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="") as fp:
            if mode is not None:  # a replaced file keeps its permission bits
                os.fchmod(fd, mode & 0o777)
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
    steps = quakes = 0  # of the last row written, for the closing line; no report is kept

    def write_row(report: StepReport) -> None:
        nonlocal steps, quakes
        row = format_stats_row(report)
        # before the write: an interrupt raised just after it counts this row
        steps, quakes = report.step_index, report.cumulative_quakes
        out.write(row)

    try:
        with _output_file(out_path) as out:
            out.write(format_stats(()))  # the header: the CSV of a run with no steps
            run(faults, cfg, observer=write_row)
    except KeyboardInterrupt:
        # the rows written so far stay; the closing line counts the steps they cover
        if out_path is None:  # with --out, stdout may have been closed at start-up
            sys.stdout.flush()
        sys.stderr.write(f"steps={steps} quakes={quakes} seed={cfg.seed}\n")
        raise
    sys.stderr.write(f"steps={steps} quakes={quakes} seed={cfg.seed}\n")
    return 2 if quakes < cfg.target_quakes else 0  # the step limit came first, as in _animate


def _read_line(stdin: IO[str], stdout: IO[str], prompt: str) -> str | None:
    """The next input line, stripped, or None at the end of input; past _MAX_LINE, an OSError."""
    stdout.write(prompt)
    stdout.flush()
    line = stdin.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE and not line.endswith("\n"):
        raise OSError(f"input line longer than {_MAX_LINE} characters")
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
    clear = CLEAR_SCREEN if style.color_enabled else ""
    stress = StressMap.empty(cfg.dims)
    steps = quakes = 0  # of the last frame written
    try:
        stdout.write(render_fault_map(faults, style))
        stdout.write(render_stress_map(stress, bands, cfg.quake_threshold, style))
        for report in iter_steps(stress, faults, cfg):
            if steps and cfg.delay_ms > 0:  # between step frames; none before step 1's
                time.sleep(cfg.delay_ms / 1000)
            frame = render_stress_map(stress, bands, cfg.quake_threshold, style)
            quake_lines = [f"EARTHQUAKE at ({x}, {y})!\n" for x, y in report.quaked_cells]
            # before the write: an interrupt raised just after it counts this frame
            steps, quakes = report.step_index, report.cumulative_quakes
            stdout.write("".join([clear, frame, *quake_lines]))  # the whole frame in one write
            del report  # freed before the next step runs, as in iter_steps
    except KeyboardInterrupt:
        stdout.write(f"Interrupted after {steps} steps with {quakes} earthquakes (seed {cfg.seed}).\n")
        raise
    if quakes < cfg.target_quakes:
        stdout.write(f"Step limit reached after {steps} steps with {quakes} earthquakes "
                     f"(seed {cfg.seed}).\n")
        return 2
    stdout.write(f"Done: {quakes} earthquakes in {steps} steps (seed {cfg.seed}).\n")
    return 0


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
                stdout.write(_one_line(f"Error: {exc}"))
                continue
            stdout.write(render_fault_map(faults, style))
        elif choice == 5:
            return _animate(faults, cfg, style, stdout)
        elif choice == 6:
            path = _read_line(stdin, stdout, "path: ")
            if path is None:
                return 0
            try:
                with _output_file(path) as fp:  # an old file stays whole if the save fails
                    save_scenario(Scenario(cfg=cfg, faults=faults), fp)
            except OSError as exc:
                stdout.write(_one_line(f"Error: {exc}"))
                continue
            stdout.write(f"Saved {_printable(path)}\n")  # whole: a path that saved is not cut
        else:
            stdout.write("Unknown option.\n")


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(sys.argv[1:] if argv is None else argv)
    # stdout carries the output of every run but a headless one with --out
    output_on_stdout = not (opts.headless and opts.out_path is not None)
    if output_on_stdout and sys.stdout is None:
        sys.stderr.write("faultsim: stdout closed\n")  # fd 1 was closed at start-up (`>&-`)
        return 1
    if output_on_stdout and hasattr(sys.stdout, "reconfigure"):
        # both modes' one buffering rule: each row, menu line and frame leaves as written
        sys.stdout.reconfigure(line_buffering=True, errors="surrogateescape")
    if not opts.headless and sys.stdin is None:
        sys.stderr.write("faultsim: stdin closed\n")  # fd 0 was closed at start-up (`<&-`)
        return 1
    if not opts.headless and hasattr(sys.stdin, "reconfigure"):  # in every locale as under C.UTF-8:
        sys.stdin.reconfigure(errors="surrogateescape")  # bytes not UTF-8 are read and echoed as they are
    try:
        try:
            cfg, faults = _resolve_state(opts)
        except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
            sys.stderr.write(_one_line(f"faultsim: {exc}"))
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
        sys.stderr.write(_one_line(f"faultsim: {msg}"))
        return 1

