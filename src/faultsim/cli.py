"""Command-line front end: interactive fault drawing plus headless batch runs.

Interactive mode walks the shape menu, reprints the fault map after every
successful draw, then animates the stress simulation with a timed screen
refresh. Headless mode loads or builds a scenario, runs at full speed with
no rendering, and emits the per-step statistics CSV.

Exit codes: 0 on success, 1 for usage or I/O errors (a closed stdout
included), 2 when the step limit was exhausted before reaching the quake
target.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import IO, Iterator

# step is not called here but stays importable from this module, where
# bench/traced.py wraps it by name
from .engine import SimConfig, StepReport, iter_steps, run, step  # noqa: F401
from .grid import MAX_DIM, FaultMap, GridDims, StressMap
from .raster import OutOfRangeError, draw_circle, draw_horizontal, draw_segment, draw_vertical
from .render import RenderStyle, StressBands, render_fault_map, render_stress_map
from .scenario import (
    Scenario,
    ScenarioError,
    format_stats,
    format_stats_row,
    load_scenario,
    save_scenario,
)

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

_MASK64 = (1 << 64) - 1


@dataclass
class CliOptions:
    headless: bool = False
    scenario_path: str | None = None
    out_path: str | None = None
    seed: int | None = None
    width: int | None = None
    height: int | None = None
    quakes: int | None = None
    threshold: int | None = None
    delay_ms: int | None = None
    max_steps: int | None = None
    no_color: bool = False


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for exhausted step limits
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def dimension(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_DIM:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_DIM}]")
    return value


def seed64(text: str) -> int:
    value = int(text)
    if not 0 <= value <= _MASK64:
        raise argparse.ArgumentTypeError("must be an unsigned 64-bit integer")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="faultsim", description="Fault-line stress simulator on a 2D grid")
    p.add_argument("--headless", action="store_true", help="run without menu or rendering")
    p.add_argument("--scenario", metavar="PATH", dest="scenario_path", help="scenario file to load")
    p.add_argument("--out", metavar="PATH", dest="out_path", help="stats CSV path (default stdout)")
    p.add_argument("--seed", type=seed64, help="64-bit RNG seed (default: scenario, else clock)")
    p.add_argument("--width", type=dimension, help="grid width in cells")
    p.add_argument("--height", type=dimension, help="grid height in cells")
    p.add_argument("--quakes", type=positive_int, help="stop after this many earthquakes")
    p.add_argument("--threshold", type=positive_int, help="stress level that triggers a quake")
    p.add_argument("--delay-ms", type=nonneg_int, dest="delay_ms", help="pause between frames")
    p.add_argument("--max-steps", type=positive_int, dest="max_steps", help="step safety cap")
    p.add_argument("--no-color", action="store_true", help="plain ASCII output, no escapes")
    return p


def parse_args(argv: list[str]) -> CliOptions:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.headless and ns.scenario_path is None and (ns.width is None or ns.height is None):
        parser.error("headless mode needs --scenario or both --width and --height")
    return CliOptions(**vars(ns))


def _wall_clock_seed() -> int:
    return time.time_ns() & _MASK64


def _resolve_state(opts: CliOptions) -> tuple[SimConfig, FaultMap]:
    """Scenario file (if any) overlaid with explicit flags; seed always pinned."""
    if opts.scenario_path is not None:
        with open(opts.scenario_path, "rb") as fp:
            scenario = load_scenario(fp)
        cfg, faults = scenario.cfg, scenario.faults
        for name, value in (("width", opts.width), ("height", opts.height)):
            if value is not None and value != getattr(cfg.dims, name):
                raise ValueError(f"--{name} {value} conflicts with scenario grid "
                                 f"{cfg.dims.width}x{cfg.dims.height}")
        seed = opts.seed if opts.seed is not None else cfg.seed
    else:
        dims = GridDims(opts.width or 20, opts.height or 20)
        cfg = SimConfig(dims=dims)
        faults = FaultMap.empty(dims)
        seed = opts.seed if opts.seed is not None else _wall_clock_seed()

    overrides: dict[str, int] = {"seed": seed}
    for field, value in (
        ("target_quakes", opts.quakes),
        ("quake_threshold", opts.threshold),
        ("delay_ms", opts.delay_ms),
        ("max_steps", opts.max_steps),
    ):
        if value is not None:
            overrides[field] = value
    return replace(cfg, **overrides), faults


def _stress_bands(threshold: int) -> StressBands:
    # thirds of the quake threshold; 100 -> the stock 33/66 split
    low = threshold // 3
    return StressBands(low_max=low, med_max=max(low + 1, (2 * threshold) // 3))


def _summary_text(last: StepReport, cfg: SimConfig) -> str:
    if last.cumulative_quakes < cfg.target_quakes:
        return (f"Step limit reached after {last.step_index} steps with "
                f"{last.cumulative_quakes} earthquakes (seed {cfg.seed}).\n")
    return (f"Done: {last.cumulative_quakes} earthquakes in {last.step_index} steps "
            f"(seed {cfg.seed}).\n")


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
        yield out
        out.flush()
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", newline="") as fp:
            yield fp
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
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
    """Point fd 1 at /dev/null so the interpreter's exit flush of a dead pipe is silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def run_headless(opts: CliOptions) -> int:
    try:
        cfg, faults = _resolve_state(opts)
    except (ScenarioError, OSError, ValueError) as exc:
        sys.stderr.write(f"faultsim: {exc}\n")
        return 1

    try:
        with _stats_sink(opts.out_path) as out:
            out.write(format_stats(()))  # the header: the CSV of a run with no steps
            summary = run(faults, cfg, observer=lambda report: out.write(format_stats_row(report)))
    except OSError as exc:
        if opts.out_path is None and isinstance(exc, BrokenPipeError):
            # the reader went away (`| head`); the run stopped at that write
            _discard_stdout()
            sys.stderr.write("faultsim: stdout closed, run stopped\n")
        else:
            sys.stderr.write(f"faultsim: {exc}\n")
        return 1
    sys.stderr.write(f"steps={summary.total_steps} quakes={summary.total_quakes} seed={cfg.seed}\n")
    return 2 if summary.hit_step_limit else 0


def _read_int(stdin: IO[str], stdout: IO[str], prompt: str) -> int | None:
    """Prompt until an integer arrives; None means the input stream ended."""
    while True:
        stdout.write(prompt)
        stdout.flush()
        line = stdin.readline()
        if line == "":
            return None
        try:
            return int(line.strip())
        except ValueError:
            stdout.write("Please enter an integer.\n")


def _read_line(stdin: IO[str], stdout: IO[str], prompt: str) -> str | None:
    stdout.write(prompt)
    stdout.flush()
    line = stdin.readline()
    if line == "":
        return None
    return line.strip()


def _animate(faults: FaultMap, cfg: SimConfig, style: RenderStyle, stdout: IO[str]) -> StepReport:
    """Draw the fault map and the empty stress map, then one frame per step; returns the last report."""
    bands = _stress_bands(cfg.quake_threshold)
    stdout.write(render_fault_map(faults, style))
    stress = StressMap.zeros(cfg.dims)
    stdout.write(render_stress_map(stress, bands, cfg.quake_threshold, style))
    stdout.flush()

    for report in iter_steps(stress, faults, cfg):
        if style.color_enabled:
            stdout.write(CLEAR_SCREEN)
        stdout.write(render_stress_map(stress, bands, cfg.quake_threshold, style))
        for x, y in report.quaked_cells:
            stdout.write(f"EARTHQUAKE at ({x}, {y})!\n")
        stdout.flush()
        if cfg.delay_ms > 0 and report.cumulative_quakes < cfg.target_quakes:
            time.sleep(cfg.delay_ms / 1000)
    return report


def run_interactive(opts: CliOptions, stdin: IO[str], stdout: IO[str]) -> int:
    try:
        cfg, faults = _resolve_state(opts)
    except (ScenarioError, OSError, ValueError) as exc:
        sys.stderr.write(f"faultsim: {exc}\n")
        return 1

    style = RenderStyle(color_enabled=not opts.no_color)

    while True:
        stdout.write(MENU)
        choice = _read_int(stdin, stdout, "choice: ")
        if choice is None or choice == 7:
            return 0

        try:
            if choice == 1:
                x = _read_int(stdin, stdout, "x: ")
                if x is None:
                    return 0
                draw_vertical(faults, x)
            elif choice == 2:
                y = _read_int(stdin, stdout, "y: ")
                if y is None:
                    return 0
                draw_horizontal(faults, y)
            elif choice == 3:
                params = [_read_int(stdin, stdout, p) for p in ("center x: ", "center y: ", "radius: ")]
                if None in params:
                    return 0
                cx, cy, r = params
                if r < 0:
                    stdout.write("Error: radius must be non-negative.\n")
                    continue
                draw_circle(faults, cx, cy, r)
            elif choice == 4:
                params = [_read_int(stdin, stdout, p) for p in ("x0: ", "y0: ", "x1: ", "y1: ")]
                if None in params:
                    return 0
                draw_segment(faults, *params)
            elif choice == 5:
                last = _animate(faults, cfg, style, stdout)
                stdout.write(_summary_text(last, cfg))
                stdout.flush()
                return 2 if last.cumulative_quakes < cfg.target_quakes else 0
            elif choice == 6:
                path = _read_line(stdin, stdout, "path: ")
                if path is None:
                    return 0
                with open(path, "w", newline="") as fp:
                    save_scenario(Scenario(cfg=cfg, faults=faults), fp)
                stdout.write(f"Saved {path}\n")
                continue
            else:
                stdout.write("Unknown option.\n")
                continue
        except OutOfRangeError as exc:
            stdout.write(f"Error: {exc}\n")
            continue
        except OSError as exc:
            stdout.write(f"Error: {exc}\n")
            continue

        stdout.write(render_fault_map(faults, style))
        stdout.flush()


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(sys.argv[1:] if argv is None else argv)
    if opts.headless:
        return run_headless(opts)
    return run_interactive(opts, sys.stdin, sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
