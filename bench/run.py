"""faultsim benchmark: one workload, one run, metrics on stdout.

    python3 bench/run.py --workload small-long --seed 1 --seconds 30 --trace 0

Builds the workload's scenario from --seed, then for --seconds launches the
faultsim CLI (`python3 -m faultsim` from ./src) again and again, one process
at a time, and checks every output against an independent reference (and,
for the pinned seeds, against digests.json). It prints one line per metric
and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics of the untraced CLI, with times scaled
to the reference host speed (harness.SpeedGauge); --trace 1 runs
bench/traced.py instead and gives the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from harness import (
    SPEED_REF_S,
    Spawner,
    SpeedGauge,
    check,
    child_env,
    launch,
    split_cpus,
    time_setup,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 15
RUN_LIMIT_S = 170  # a run must end within 180 s


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive of the sample's range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_metrics(case, spawner, seconds, stop_at, cpu):
    raw_setup, setup = time_setup(spawner, case.cli[3:], ROOT, SETUP_REPEATS, cpu)
    headless, exp = case.headless, case.expected
    invocations, failures, failed = [], [], 0
    gauge = SpeedGauge(cpu)
    start = time.perf_counter()
    while not invocations or time.perf_counter() - start < seconds:
        inv = launch(spawner, case.cli, case.stdin, ROOT, stop_at, frames=not headless, cpu=cpu)
        gauge.sample()
        reasons = check(inv, exp, headless, case.seed)
        inv.stdout = b""  # checked; a run keeps only the timings
        invocations.append(inv)
        failures += reasons
        failed += bool(reasons)
        if inv.timed_out:
            break

    def timings(scales):
        """(walls, first outputs, frame intervals, frame rates), times multiplied
        by each child's scale."""
        walls = [i.wall_s * k for i, k in zip(invocations, scales)]
        firsts = [(i.first_output_s or i.wall_s) * k for i, k in zip(invocations, scales)]
        shown = [(i.marker_s, k) for i, k in zip(invocations, scales) if len(i.marker_s) > 1]
        if headless or not shown:
            # the headless view refreshes once, when the whole CSV is there
            return walls, firsts, walls, [1 / w for w in walls]
        frame_s = [(b - a) * k for m, k in shown for a, b in zip(m, m[1:])]
        rates = [(len(m) - 1) / ((m[-1] - m[0]) * k) for m, k in shown]
        return walls, firsts, frame_s, rates

    def summary(setup_s, scales):
        walls, firsts, frame_s, rates = timings(scales)
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "mcell_steps_per_s": (statistics.median(case.area * exp.steps / w / 1e6 for w in walls),
                                  "Mcell-steps/s"),
            "first_row_s": (statistics.median(firsts), "s"),
            "peak_rss_mb": (statistics.median(i.maxrss_kb / 1024 for i in invocations), "MB"),
            "frames_per_s": (statistics.median(rates), "1/s"),
            "frame_ms_p50": (statistics.median(frame_s) * 1e3, "ms"),
            "frame_ms_p90": (quantile(frame_s, 90) * 1e3, "ms"),
        }, len(frame_s)

    metrics, frames = summary(setup, [gauge.scale(n) for n in range(len(invocations))])
    as_measured, _ = summary(raw_setup, [1.0] * len(invocations))
    speed = [SPEED_REF_S / t for t in gauge.samples]
    info = [f"samples invocations={len(invocations)} frames={frames} "
            f"harness.reader_cpu_s={sum(i.reader_cpu_s for i in invocations):.6f}",
            f"host speed (reference 1.0) min={min(speed):.3f} "
            f"median={statistics.median(speed):.3f} max={max(speed):.3f}",
            "as measured, not scaled: " + " ".join(f"{name}={value:.6g}"
                                                   for name, (value, _) in as_measured.items())]
    return metrics, len(invocations), failed, failures, "\n".join(info)


def traced_metrics(case, spawner, seconds, stop_at, cpu):
    exp = case.expected
    result_path = ROOT / ".bench_work" / "trace.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "traced.py"), str(result_path), str(seconds),
            case.stdin.decode(), "--", *case.cli[3:]]
    inv = launch(spawner, argv, b"", ROOT, stop_at, frames=not case.headless,
                 segment_length=exp.length, cpu=cpu)
    if inv.exit_code != 0 or not result_path.exists():
        sys.stderr.write(inv.stderr.decode(errors="replace"))
        raise SystemExit(f"traced run failed with exit {inv.exit_code}")
    r = json.loads(result_path.read_text())

    codes = r["exit_codes"]
    outputs = inv.segments + [("missing", 0)] * (len(codes) - len(inv.segments))
    failures = [f"call {n}: exit {code}, stdout sha256 {sha[:12]} ({size} B)"
                for n, (code, (sha, size)) in enumerate(zip(codes, outputs))
                if (code, sha, size) != (exp.exit_code, exp.sha256, exp.length)]
    failed = len(failures)
    if len(inv.segments) > len(codes):
        failures.append(f"{len(inv.segments)} outputs for {len(codes)} calls")

    n = len(r["traced_wall_s"])
    wall = sum(r["traced_wall_s"])
    zero = {"calls": 0, "self_s": 0.0}

    def span(name: str) -> dict:
        return r["spans"].get(name, zero)

    step, render = span("engine.step"), span("render.render_stress_map")
    metrics = {
        "engine.step.calls": (step["calls"] / n, "count"),
        "engine.step.self_s": (step["self_s"] / n, "s"),
        "engine.step.share": (step["self_s"] / wall, "share"),
        "engine.step.us_p50": (step["p50_s"] * 1e6, "us"),
        "engine.step.us_p90": (step["p90_s"] * 1e6, "us"),
        "engine.step.ns_per_cell": (step["self_s"] / (step["calls"] * r["area"]) * 1e9, "ns"),
        "engine.rng.ns_per_draw": (r["rng_ns_per_draw"], "ns"),
        "engine.run.self_share": (span("engine.run")["self_s"] / wall, "share"),
        "engine.cell_steps": (step["calls"] / n * r["area"], "count"),
        "engine.quakes": (r["quakes"] / n, "count"),
        "scenario.load_scenario.s": (span("scenario.load_scenario")["self_s"] / n, "s"),
        "scenario.load_scenario.bytes": (r["scenario_bytes"], "B"),
        "scenario.format_stats.share": (span("scenario.format_stats")["self_s"] / wall, "share"),
        "scenario.format_stats.bytes": (r["format_bytes"] / n, "B"),
        "cli.write.s": (span("cli.write")["self_s"] / n, "s"),
        "cli.write.calls": (r["write_calls"] / n, "count"),
        "cli.write.bytes": (r["write_bytes"] / n, "B"),
        "cli.main.self_s": (span("cli.main")["self_s"] / n, "s"),
        "render.render_stress_map.share": (render["self_s"] / wall, "share"),
        "render.render_stress_map.calls": (render["calls"] / n, "count"),
        "render.render_stress_map.ms_p50": (r["render_ms_p50"], "ms"),
        "render.render_stress_map.bytes_per_call":
            (r["render_bytes"] / render["calls"] if render["calls"] else 0, "B"),
        "trace.overhead": (statistics.median(r["traced_wall_s"])
                           / statistics.median(r["untraced_wall_s"]) - 1, "ratio"),
        "harness.reader_cpu_s": (inv.reader_cpu_s, "s"),
    }
    unattributed = wall - sum(s["self_s"] for s in r["spans"].values())
    info = (f"samples traced_calls={n} untraced_calls={len(r['untraced_wall_s'])} "
            f"unattributed_s={unattributed:.6f}")
    return metrics, len(codes), failed, failures, info


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="workload seed (default: the pinned seed 1)")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small grids and few steps, for tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "faultsim" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no faultsim sources under {ROOT / 'src'}\n")
        return 2
    # importing faultsim here also compiles its bytecode before any timed start
    from prepare import DEFAULT_SEED, WORKLOADS, pin_mismatch, prepare

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    scenario_path = workdir / f"{args.workload}{'-tiny' if args.tiny else ''}.scn"
    case = prepare(args.workload, seed, args.tiny, scenario_path)
    failures = []
    if pin_mismatch(case):
        failures.append(f"reference output disagrees with the digest pinned for seed {seed}")

    stop_at = started + RUN_LIMIT_S
    reader_cpu, child_cpu = split_cpus()
    if reader_cpu is not None:
        os.sched_setaffinity(0, {reader_cpu})
    measure = traced_metrics if args.trace else untraced_metrics
    with Spawner(child_env(ROOT)) as spawner:
        metrics, attempted, failed, why, info = measure(
            case, spawner, args.seconds, stop_at, child_cpu)
    failures += why

    print(f"context nproc={os.cpu_count()} python={platform.python_version()} "
          f"machine={platform.machine()}")
    print(info)
    for reason in failures:
        print(f"FAILED {reason}")
    print(f"{args.workload} failed_share {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
