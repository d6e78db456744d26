"""Builds one workload's scenario file and the output the CLI must give for it.

    python3 bench/prepare.py --record-digests

re-pins digests.json from the CLI's actual output at the current commit,
after checking it against the reference.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(ROOT / "src"))
import faultsim  # noqa: E402

import oracle  # noqa: E402
from harness import Spawner, check, child_env, launch  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    build_scenario,
    cli_args,
    cli_stdin,
    scenario_bytes,
)


@dataclass(frozen=True)
class Case:
    """One workload at one seed: how to run the CLI and what it must print."""

    headless: bool
    cli: list[str]
    stdin: bytes
    seed: int  # the scenario's simulation seed
    area: int
    expected: oracle.Expected
    pinned: dict | None  # digests.json entry for this workload seed, if any


def prepare(name: str, seed: int, tiny: bool, path: Path) -> Case:
    """Write the scenario to path; raises KeyError for an unknown workload."""
    if Path(faultsim.__file__).resolve().parent != ROOT / "src" / "faultsim":
        raise RuntimeError(f"imported faultsim from {faultsim.__file__}, not {ROOT / 'src'}")
    wl = WORKLOADS[name]
    path.write_bytes(scenario_bytes(wl, seed, tiny))
    scenario = build_scenario(wl, seed, tiny)
    pins = json.loads(DIGESTS.read_text()).get(name, {})
    return Case(
        headless=wl.headless,
        cli=[sys.executable, "-m", "faultsim", *cli_args(wl, str(path))],
        stdin=cli_stdin(wl),
        seed=scenario.cfg.seed,
        area=scenario.cfg.dims.area,
        expected=oracle.expected(oracle.Params.of(scenario), wl.headless),
        pinned=None if tiny else pins.get(str(seed)),
    )


def pin_mismatch(case: Case) -> bool:
    exp, pin = case.expected, case.pinned
    return pin is not None and (pin["sha256"], pin["bytes"], pin["exit"]) != (
        exp.sha256, exp.length, exp.exit_code)


def record_digests() -> None:
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    pins: dict[str, dict[str, dict]] = {}
    with Spawner(child_env(ROOT)) as spawner:
        for name in WORKLOADS:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                case = prepare(name, seed, False, workdir / f"{name}.scn")
                inv = launch(spawner, case.cli, case.stdin, ROOT, time.perf_counter() + 600,
                             frames=not case.headless)
                bad = check(inv, case.expected, case.headless, case.seed)
                if bad:
                    raise SystemExit(f"{name} seed {seed}: {bad}")
                pins.setdefault(name, {})[str(seed)] = {
                    "sha256": inv.sha256, "bytes": inv.length, "exit": inv.exit_code}
                print(name, seed, inv.sha256, inv.length, inv.exit_code)
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-digests"]:
        sys.exit("usage: prepare.py --record-digests")
    record_digests()
