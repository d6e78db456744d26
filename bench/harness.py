"""Launching faultsim processes and watching their output from outside.

One child at a time: the benchmark writes its stdin, drains its stdout pipe
with large reads and timestamps what arrives; spawner.py forks it and reaps
it with os.wait4 for the peak resident set size.
"""

from __future__ import annotations

import hashlib
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

CLEAR_SCREEN = b"\x1b[2J\x1b[H"
HEADLESS_SUMMARY = re.compile(rb"^steps=(\d+) quakes=(\d+) seed=(\d+)$", re.M)
ANIMATE_SUMMARY = re.compile(rb"Step limit reached after (\d+) steps with (\d+) earthquakes")
READ_SIZE = 1 << 20
TAIL_KEEP = 4096
MASK64 = (1 << 64) - 1
SPEED_CELLS = 4000
SPEED_PASSES = 24
SPEED_REPEATS = 5
# speed_kernel's time on the reference host in its fast phase: 2 vCPUs of an
# "Intel(R) Xeon(R) Processor" VM, CPython 3.11.7 (README.md, "Host speed")
SPEED_REF_S = 0.028

# Runs in a fresh interpreter: everything a CLI run does before its first step.
SETUP_SNIPPET = """\
import sys
from faultsim.cli import load_scenario, parse_args
opts = parse_args(sys.argv[1:])
with open(opts.scenario_path, "rb") as fp:
    load_scenario(fp)
"""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Spawner:
    """Client of spawner.py, which forks every child (see there for why)."""

    def __init__(self, env: dict[str, str]) -> None:
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self._proc = subprocess.Popen(
                [sys.executable, "-S", "-I", str(Path(__file__).with_name("spawner.py")),
                 str(theirs.fileno())],
                pass_fds=[theirs.fileno()], env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            )

    def start(self, argv: list[str], cwd: Path, cpu: int | None, fds: list[int]) -> int:
        request = "\0".join(["" if cpu is None else str(cpu), str(cwd), *argv])
        socket.send_fds(self._sock, [request.encode()], fds)
        return int(self._sock.recv(64))

    def wait(self) -> tuple[int, int]:
        """(exit code, peak resident KiB) of the child started last."""
        status, maxrss = self._sock.recv(64).split()
        return os.waitstatus_to_exitcode(int(status)), int(maxrss)

    def close(self) -> None:
        self._sock.close()
        self._proc.wait()

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Invocation:
    """What one child did, as seen from outside."""

    exit_code: int
    wall_s: float
    first_output_s: float | None  # first CSV data row, or first cleared screen
    marker_s: list[float]  # arrival of each CLEAR_SCREEN, from launch
    maxrss_kb: int
    sha256: str
    length: int
    stdout: bytes  # all of it, or with frames only its last TAIL_KEEP bytes
    stderr: bytes
    reader_cpu_s: float
    timed_out: bool = False
    segments: list[tuple[str, int]] = field(default_factory=list)


def launch(
    spawner: Spawner,
    argv: list[str],
    stdin: bytes,
    cwd: Path,
    deadline: float,
    frames: bool = False,
    segment_length: int = 0,
    cpu: int | None = None,
) -> Invocation:
    """Run argv to completion and watch its stdout.

    With frames, the first output is the first cleared screen and only the
    tail of stdout is kept; otherwise it is the first CSV data row and all of
    stdout is kept. With segment_length > 0 the stdout is also hashed in
    consecutive pieces of that length (a traced child prints several runs'
    outputs back to back).
    """
    reader_cpu0 = time.thread_time()
    in_r, in_w = os.pipe()
    fd, out_w = os.pipe()
    err_r, err_w = os.pipe()
    t0 = time.perf_counter()
    pid = spawner.start(argv, cwd, cpu, [in_r, out_w, err_w])
    for child_end in (in_r, out_w, err_w):
        os.close(child_end)
    try:
        os.write(in_w, stdin)
    except BrokenPipeError:
        pass
    os.close(in_w)

    digest = hashlib.sha256()
    kept = bytearray()
    length = 0
    newlines = 0
    first = None
    markers: list[float] = []
    carry = b""
    segments: list[tuple[str, int]] = []
    seg_hash, seg_len = hashlib.sha256(), 0
    timed_out = False
    while True:
        wait = deadline - time.perf_counter()
        if wait <= 0 or not select.select([fd], [], [], wait)[0]:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        chunk = os.read(fd, READ_SIZE)
        now = time.perf_counter() - t0
        if not chunk:
            break
        digest.update(chunk)
        length += len(chunk)
        kept += chunk
        if frames and len(kept) > 2 * TAIL_KEEP:
            del kept[:-TAIL_KEEP]
        if first is None and not frames:
            newlines += chunk.count(b"\n")
        # markers may straddle two reads, so search the carried tail too
        window = carry + chunk
        pos = window.find(CLEAR_SCREEN)
        while pos != -1:
            markers.append(now)
            pos = window.find(CLEAR_SCREEN, pos + len(CLEAR_SCREEN))
        carry = window[-(len(CLEAR_SCREEN) - 1):]
        if first is None and (markers or newlines >= 2):
            first = now
        while segment_length and chunk:
            take = min(len(chunk), segment_length - seg_len)
            seg_hash.update(chunk[:take])
            seg_len += take
            chunk = chunk[take:]
            if seg_len == segment_length:
                segments.append((seg_hash.hexdigest(), seg_len))
                seg_hash, seg_len = hashlib.sha256(), 0
    if seg_len:
        segments.append((seg_hash.hexdigest(), seg_len))
    os.close(fd)
    with os.fdopen(err_r, "rb") as err:
        stderr = err.read()
    exit_code, maxrss_kb = spawner.wait()
    wall = time.perf_counter() - t0
    if frames:
        kept = kept[-TAIL_KEEP:]
    return Invocation(
        exit_code=exit_code,
        wall_s=wall,
        first_output_s=first,
        marker_s=markers,
        maxrss_kb=maxrss_kb,
        sha256=digest.hexdigest(),
        length=length,
        stdout=bytes(kept),
        stderr=stderr,
        reader_cpu_s=time.thread_time() - reader_cpu0,
        timed_out=timed_out,
        segments=segments,
    )


def check(inv: Invocation, exp, headless: bool, seed: int) -> list[str]:
    """Reasons one CLI invocation's output is wrong; empty when it is right.

    exp is the reference's oracle.Expected; seed is the scenario's seed.
    """
    bad = []
    if inv.timed_out:
        bad.append("timed out")
    if inv.exit_code != exp.exit_code:
        bad.append(f"exit {inv.exit_code}, expected {exp.exit_code}")
    if (inv.sha256, inv.length) != (exp.sha256, exp.length):
        bad.append(f"stdout sha256 {inv.sha256[:12]} ({inv.length} B), "
                   f"expected {exp.sha256[:12]} ({exp.length} B)")
    if headless:
        rows = inv.stdout.splitlines()[1:]
        last = int(rows[-1].split(b",")[2]) if rows else 0
        m = HEADLESS_SUMMARY.search(inv.stderr)
        if not m or (int(m[1]), int(m[2]), int(m[3])) != (len(rows), last, seed):
            bad.append(f"stderr summary {inv.stderr[-80:]!r} disagrees with "
                       f"{len(rows)} CSV rows ending at {last} quakes")
    else:
        m = ANIMATE_SUMMARY.search(inv.stdout)
        if not m or (int(m[1]), int(m[2])) != (len(inv.marker_s), exp.quakes):
            bad.append(f"summary {m and m[0]!r} disagrees with {len(inv.marker_s)} frames")
    return bad


def time_setup(
    spawner: Spawner, cli_args: list[str], cwd: Path, repeats: int, cpu: int | None = None
) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import faultsim and load the scenario:
    (as measured, scaled to the reference host speed)."""
    gauge = SpeedGauge(cpu)
    walls = []
    for _ in range(repeats):
        inv = launch(spawner, [sys.executable, "-c", SETUP_SNIPPET, *cli_args], b"", cwd,
                     time.perf_counter() + 60, cpu=cpu)
        gauge.sample()
        if inv.exit_code != 0:
            raise RuntimeError(f"set-up probe exited {inv.exit_code}: {inv.stderr[-500:]!r}")
        walls.append(inv.wall_s)
    return walls, [w * gauge.scale(n) for n, w in enumerate(walls)]


def speed_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like engine.step:
    a SplitMix64-style mix, a clamped update over a list, a max and a join."""
    cells = [0] * SPEED_CELLS
    x = 0
    t0 = time.perf_counter()
    for _ in range(SPEED_PASSES):
        for i in range(SPEED_CELLS):
            x = (x + 0x9E3779B97F4A7C15) & MASK64
            z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            value = cells[i] + z % 7 - 2
            cells[i] = value if value > 0 else 0
        max(cells)
        ",".join(str(v) for v in cells[:500])
    return time.perf_counter() - t0


class SpeedGauge:
    """How fast the children's CPU runs, sampled between children.

    A shared host can run the same code up to 2x slower for seconds to minutes
    at a time, in CPU time as well as wall time, so a child's times say as much
    about the host as about the program. sample() times speed_kernel on the
    children's CPU (median of SPEED_REPEATS); call it once before the first
    child and once after each. scale(n) is SPEED_REF_S over the mean of the
    samples on either side of child n: multiplying a time of child n by it
    gives that time at the reference speed.
    """

    def __init__(self, cpu: int | None) -> None:
        self.cpu = cpu
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        try:
            self.samples.append(statistics.median(speed_kernel() for _ in range(SPEED_REPEATS)))
        finally:
            os.sched_setaffinity(0, home)

    def scale(self, n: int) -> float:
        return SPEED_REF_S / ((self.samples[n] + self.samples[n + 1]) / 2)


def split_cpus() -> tuple[int | None, int | None]:
    """(reader CPU, child CPU): two distinct allowed CPUs, or no pinning.

    Pinning the child and the reader apart narrowed the spread of animate's
    frame times (interquartile range over median of per-child p50: 0.20
    unpinned, 0.06 pinned, 8 interleaved children each on 2 vCPUs).
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)
