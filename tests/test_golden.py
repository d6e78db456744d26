"""Golden digests of the headless CSV stream.

Each case runs the real command line in a fresh interpreter and pins the
SHA-256 and byte length of everything it writes to stdout, its exit code and
its stderr summary line. The pins were recorded once and must never be
regenerated to make a change pass: a scenario file plus a seed has to replay
the same bytes across every refactor of the engine, the run loop and the CSV
writer. The same bytes must also land in the --out file.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import faultsim
from faultsim.cli import main
from faultsim.engine import QuakedCells
from oracles import KERNEL_CASES, use_kernel

SRC_DIR = str(Path(faultsim.__file__).resolve().parents[1])

# fault cells step by -4..9, everything else by -6..3, so both ranges reach
# below zero and the clamp at 0 is exercised on fault and non-fault cells
NEGATIVE_LOWS_SCENARIO = """\
FAULTSIM 1
width 6
height 5
seed 31337
quake_threshold 60
target_quakes 4
nonfault_delta_min -6
nonfault_delta_max 3
fault_delta_min -4
fault_delta_max 9
delay_ms 0
max_steps 5000
map
010010
111111
010010
000000
100001
end
"""

# stock deltas under threshold 200: the config does not fit byte lanes, so every step
# goes per cell, while the map stays in bytes (the cells a step keeps are below 200)
THRESHOLD_200_SCENARIO = """\
FAULTSIM 1
width 9
height 6
seed 200
quake_threshold 200
target_quakes 8
nonfault_delta_min -5
nonfault_delta_max 5
fault_delta_min 0
fault_delta_max 10
delay_ms 0
max_steps 5000
map
100000001
010000010
001111100
000010000
000010000
111111111
end
"""

# threshold 1000 with fault cells that gain 20..60 a step: a cell near the
# threshold plus the largest delta no longer fits a byte
THRESHOLD_1000_SCENARIO = """\
FAULTSIM 1
width 8
height 6
seed 1000
quake_threshold 1000
target_quakes 6
nonfault_delta_min -5
nonfault_delta_max 5
fault_delta_min 20
fault_delta_max 60
delay_ms 0
max_steps 5000
map
10000001
01000010
00100100
00011000
00011000
11111111
end
"""

# threshold 10^30, reached by the fault cells after about 50 steps of 2*10^28;
# their span of 10^19 is below 2^64, so the modulo still shapes every delta
THRESHOLD_1E30_SCENARIO = """\
FAULTSIM 1
width 7
height 5
seed 1030
quake_threshold 1000000000000000000000000000000
target_quakes 3
nonfault_delta_min -5
nonfault_delta_max 5
fault_delta_min 19999999995000000000000000000
fault_delta_max 20000000004999999999999999999
delay_ms 0
max_steps 5000
map
0001000
0001000
1111111
0001000
0001000
end
"""

# case name -> the scenario file that "{scenario}" in its arguments names
SCENARIOS = {
    "negative-lows": NEGATIVE_LOWS_SCENARIO,
    "threshold-200": THRESHOLD_200_SCENARIO,
    "threshold-1000": THRESHOLD_1000_SCENARIO,
    "threshold-1e30": THRESHOLD_1E30_SCENARIO,
}

# name -> (CLI arguments, sha256, length, exit code, stderr)
CASES = {
    "one-cell": (
        ["--width", "1", "--height", "1", "--seed", "1", "--threshold", "10", "--quakes", "5"],
        "a57d091a9487c68b4c365283e9a9421f12f7330776e3b3541b5793b3372a93d5",
        1351,
        0,
        "steps=93 quakes=5 seed=1\n",
    ),
    "row-1024": (
        ["--width", "1024", "--height", "1", "--seed", "2", "--quakes", "20"],
        "709a89b733862091f16f77b0411850f0db2fc23bbc12d7660822f9ae5c99084b",
        2689,
        0,
        "steps=160 quakes=20 seed=2\n",
    ),
    # 5,000 cells: two full chunks and one of 904, so from step 2 on the chunks
    # straddle the mixer's blocks
    "uneven-blocks": (
        ["--width", "1000", "--height", "5", "--seed", "3", "--quakes", "50"],
        "bca7c5d423e17df2136ea1616acbacda0cf7ab2c5c1fa1171787de71259c9a89",
        2269,
        0,
        "steps=134 quakes=50 seed=3\n",
    ),
    "negative-lows": (
        ["--scenario", "{scenario}"],
        "4defad148ab7a343164cc214d218b8d2be9bb65bcd8003b61bd298c2ded5821b",
        419,
        0,
        "steps=24 quakes=5 seed=31337\n",
    ),
    "step-cap": (
        ["--width", "5", "--height", "4", "--seed", "11", "--threshold", "40",
         "--quakes", "1000000", "--max-steps", "300"],
        "2d02f73f5fd6d831a46889866f4a45b2b64ac670309c1cf7d4d8c5bda9aac311",
        5148,
        2,
        "steps=300 quakes=33 seed=11\n",
    ),
    "stock-20x20": (
        ["--width", "20", "--height", "20", "--seed", "7"],
        "6e20446f888ba92df5c51647406cf3021bd5ce072fdc3b5195db465e509cc6c3",
        1861,
        0,
        "steps=114 quakes=3 seed=7\n",
    ),
    "threshold-200": (
        ["--scenario", "{scenario}"],
        "abc923cbdacd83bd5a1c1d8e6fc8ca52208d685d76a3d94c3cfdbf908a5b40a3",
        704,
        0,
        "steps=40 quakes=9 seed=200\n",
    ),
    "threshold-1000": (
        ["--scenario", "{scenario}"],
        "9b2e4bab37010ddc6726223856df2f608a963b818af798d14a9a866a50ce2ad4",
        510,
        0,
        "steps=26 quakes=11 seed=1000\n",
    ),
    "threshold-1e30": (
        ["--scenario", "{scenario}"],
        "9b08ed1eb121258dfed2b15a381afc12da1ce9805c268821063d282299cee174",
        3697,
        0,
        "steps=51 quakes=11 seed=1030\n",
    ),
}


def case_args(tmp_path, name):
    """The case's arguments, with its scenario file, if it has one, written under tmp_path."""
    scenario = tmp_path / "case.scn"
    if name in SCENARIOS:
        scenario.write_text(SCENARIOS[name])
    return ["--headless", *(a.replace("{scenario}", str(scenario)) for a in CASES[name][0])]


def run_cli(tmp_path, name, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "faultsim", *case_args(tmp_path, name), *extra],
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_stream_matches_pin(tmp_path, name):
    _, digest, length, code, err = CASES[name]
    proc = run_cli(tmp_path, name)
    assert (hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout), proc.returncode) == (
        digest, length, code,
    )
    assert proc.stderr.decode() == err


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_matches_pin(tmp_path, name):
    _, digest, length, code, err = CASES[name]
    out = tmp_path / "stats.csv"
    proc = run_cli(tmp_path, name, ["--out", str(out)])
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data), proc.returncode) == (digest, length, code)
    assert proc.stdout == b""
    assert proc.stderr.decode() == err


# on each kernel: with C hidden and _lane_kernel patched to _cell_kernel every step of every
# case goes per cell, and each run must still give its pinned CSV
@pytest.mark.parametrize("kernel", KERNEL_CASES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_headless_run_never_decodes_quaked_cells(tmp_path, name, kernel, monkeypatch, capsys):
    """The CSV counts each step's quakes; a headless run never builds their (x, y)."""
    use_kernel(monkeypatch, kernel)

    def refuse(self):
        raise AssertionError("a headless run decoded its quaked cells")

    monkeypatch.setattr(QuakedCells, "__iter__", refuse)
    _, digest, length, code, err = CASES[name]
    assert main(case_args(tmp_path, name)) == code
    out, captured_err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == (digest, length)
    assert captured_err == err
