"""Traced in-process run of the faultsim CLI, measured from outside its code.

    python3 bench/traced.py RESULT.json SECONDS STDIN_TEXT -- CLI_ARGS...

Alternates untraced and traced calls of faultsim.cli.main for at least
SECONDS (one pair minimum), writing each call's stdout to this process's
stdout, and saves the span totals to RESULT.json.

Tracing wraps the public names where their callers look them up:
faultsim.cli.run (engine.run), faultsim.engine.step and faultsim.cli.step
(engine.step), faultsim.cli.load_scenario, faultsim.cli.format_stats,
faultsim.cli.render_stress_map, and a counting stdout sink (cli.write, for
both write and flush). The root span is cli.main. Each span records its
parent, so a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import time
from pathlib import Path

import faultsim.cli
import faultsim.engine
from faultsim import RenderStyle, SplitMix64, StressBands, load_scenario, render_stress_map

RNG_PROBE_DRAWS = 200_000
PROBE_REPEATS = 5


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []

    def wrap(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(index)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced


class CountingSink:
    """Stands in for sys.stdout; every write and flush is a cli.write span."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self.calls = 0
        self.bytes = 0
        self.write = tracer.wrap(self._write, "cli.write")
        self.flush = tracer.wrap(real.flush, "cli.write")

    def _write(self, text: str) -> int:
        self.calls += 1
        self.bytes += len(text)
        return self._real.write(text)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Counts:
    def __init__(self) -> None:
        self.quakes = 0
        self.format_bytes = 0
        self.render_bytes = 0
        self.final_stress = None

    def step(self, report) -> None:
        self.quakes += len(report.quaked_cells)

    def run(self, summary) -> None:
        self.final_stress = summary.final_stress

    def formatted(self, text: str) -> None:
        self.format_bytes += len(text)

    def rendered(self, text: str) -> None:
        self.render_bytes += len(text)


def call_main(argv: list[str], stdin_text: str) -> tuple[int, float]:
    sys.stdin = io.StringIO(stdin_text)
    t0 = time.perf_counter()
    code = faultsim.cli.main(argv)
    sys.stdout.flush()
    return code, time.perf_counter() - t0


def traced_main(argv: list[str], stdin_text: str, tracer: Tracer, counts: Counts):
    """One cli.main call with every wrap point installed, then restored."""
    points = [
        (faultsim.cli, "run", "engine.run", counts.run),
        (faultsim.engine, "step", "engine.step", counts.step),
        (faultsim.cli, "step", "engine.step", counts.step),
        (faultsim.cli, "load_scenario", "scenario.load_scenario", None),
        (faultsim.cli, "format_stats", "scenario.format_stats", counts.formatted),
        (faultsim.cli, "render_stress_map", "render.render_stress_map", counts.rendered),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in points]
    real_stdout = sys.stdout
    sink = CountingSink(real_stdout, tracer)
    for (module, attr, original), (_, _, name, hook) in zip(originals, points):
        setattr(module, attr, tracer.wrap(original, name, hook))

    def root() -> int:
        code = faultsim.cli.main(argv)
        sink.flush()
        return code

    sys.stdout = sink
    sys.stdin = io.StringIO(stdin_text)
    try:
        t0 = time.perf_counter()
        code = tracer.wrap(root, "cli.main")()
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real_stdout
        for module, attr, original in originals:
            setattr(module, attr, original)
    return code, wall, sink


def self_times(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and each call's duration."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, _, start, end) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["durations"].append(end - start)
    return out


def rng_ns_per_draw(scenario) -> float:
    """SplitMix64.randint over the workload's own fault/non-fault range sequence."""
    cfg = scenario.cfg
    ranges = [(cfg.fault_delta_min, cfg.fault_delta_max) if f
              else (cfg.nonfault_delta_min, cfg.nonfault_delta_max)
              for f in scenario.faults.cells]
    seq = (ranges * (RNG_PROBE_DRAWS // len(ranges) + 1))[:RNG_PROBE_DRAWS]
    samples = []
    for _ in range(PROBE_REPEATS):
        randint = SplitMix64(cfg.seed).randint
        t0 = time.perf_counter()
        for lo, hi in seq:
            randint(lo, hi)
        samples.append((time.perf_counter() - t0) / len(seq) * 1e9)
    return statistics.median(samples)


def render_probe_s(stress, threshold: int) -> list[float]:
    low = threshold // 3
    bands = StressBands(low_max=low, med_max=max(low + 1, (2 * threshold) // 3))
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        render_stress_map(stress, bands, threshold, RenderStyle(color_enabled=True))
        samples.append(time.perf_counter() - t0)
    return samples


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        sys.exit("usage: traced.py RESULT SECONDS STDIN_TEXT -- CLI_ARGS...")
    result_path, seconds, stdin_text, _, *argv = sys.argv[1:]
    scenario_path = argv[argv.index("--scenario") + 1]
    with open(scenario_path, "rb") as fp:
        scenario = load_scenario(fp)

    tracer = Tracer()
    counts = Counts()
    codes, untraced, traced = [], [], []
    writes = write_bytes = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < float(seconds):
        code, wall = call_main(argv, stdin_text)
        codes.append(code)
        untraced.append(wall)
        code, wall, sink = traced_main(argv, stdin_text, tracer, counts)
        codes.append(code)
        traced.append(wall)
        writes += sink.calls
        write_bytes += sink.bytes

    spans = self_times(tracer.spans)
    render = spans.get("render.render_stress_map")
    render_samples = (render["durations"] if render
                      else render_probe_s(counts.final_stress, scenario.cfg.quake_threshold))
    for agg in spans.values():
        durations = agg.pop("durations")
        agg["p50_s"] = statistics.median(durations)
        agg["p90_s"] = (statistics.quantiles(durations, n=10)[-1] if len(durations) > 1
                        else durations[0])
    result = {
        "exit_codes": codes,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": spans,
        "area": scenario.cfg.dims.area,
        "quakes": counts.quakes,
        "write_calls": writes,
        "write_bytes": write_bytes,
        "format_bytes": counts.format_bytes,
        "render_bytes": counts.render_bytes,
        "render_ms_p50": statistics.median(render_samples) * 1e3,
        "scenario_bytes": Path(scenario_path).stat().st_size,
        "rng_ns_per_draw": rng_ns_per_draw(scenario),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
