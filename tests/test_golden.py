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
}


def run_cli(tmp_path, name, extra=()):
    args = [a.replace("{scenario}", str(tmp_path / "neg.scn")) for a in CASES[name][0]]
    (tmp_path / "neg.scn").write_text(NEGATIVE_LOWS_SCENARIO)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "faultsim", "--headless", *args, *extra],
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
