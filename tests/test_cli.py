import io
import subprocess
import sys
from contextlib import redirect_stdout
from unittest import mock

import pytest

import faultsim.cli as cli
from faultsim.cli import (
    CLEAR_SCREEN,
    MENU,
    main,
    parse_args,
    _stress_bands,
)
from faultsim.engine import SimConfig, SplitMix64, iter_steps, run, step
from faultsim.grid import FaultMap, GridDims, StressMap
from faultsim.render import RenderStyle, render_stress_map, strip_ansi
from faultsim.scenario import Scenario, format_scenario, format_stats, parse_scenario


def write_scenario(tmp_path, cfg: SimConfig, fault_cells=()) -> str:
    faults = FaultMap.empty(cfg.dims)
    for x, y in fault_cells:
        faults.mark(x, y)
    path = tmp_path / "scenario.txt"
    path.write_text(format_scenario(Scenario(cfg=cfg, faults=faults)))
    return str(path)


def one_cell_cfg(**kwargs) -> SimConfig:
    base = dict(
        dims=GridDims(1, 1),
        seed=0,
        quake_threshold=10,
        target_quakes=1,
        nonfault_delta_min=0,
        nonfault_delta_max=0,
        fault_delta_min=5,
        fault_delta_max=5,
        delay_ms=0,
    )
    base.update(kwargs)
    return SimConfig(**base)


def run_script(script: str, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(script)), redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


class TestParseArgs:
    def test_defaults(self):
        opts = parse_args([])
        assert vars(opts) == dict(
            headless=False, scenario_path=None, out_path=None, seed=None,
            width=None, height=None, target_quakes=None, quake_threshold=None,
            delay_ms=None, max_steps=None, no_color=False,
        )

    def test_all_flags(self):
        opts = parse_args(
            [
                "--headless", "--scenario", "s.txt", "--out", "o.csv",
                "--seed", "7", "--width", "12", "--height", "9",
                "--quakes", "4", "--threshold", "50", "--delay-ms", "0",
                "--max-steps", "500", "--no-color",
            ]
        )
        assert vars(opts) == dict(
            headless=True, scenario_path="s.txt", out_path="o.csv", seed=7,
            width=12, height=9, target_quakes=4, quake_threshold=50, delay_ms=0,
            max_steps=500, no_color=True,
        )

    def test_headless_needs_grid_or_scenario(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--headless"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            parse_args(["--headless", "--width", "5"])  # height missing
        assert exc.value.code == 1

    def test_headless_with_scenario_or_dims_ok(self):
        assert parse_args(["--headless", "--scenario", "x"]).headless
        assert parse_args(["--headless", "--width", "5", "--height", "5"]).headless

    @pytest.mark.parametrize(
        "argv",
        [
            ["--width", "0"],
            ["--width", "1025"],
            ["--seed", "-1"],
            ["--seed", str(1 << 64)],
            ["--quakes", "0"],
            ["--threshold", "0"],
            ["--delay-ms", "-5"],
            ["--max-steps", "0"],
            ["--bogus"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--help"])
        assert exc.value.code == 0


class TestStressBands:
    def test_default_threshold_gives_stock_bands(self):
        bands = _stress_bands(100)
        assert (bands.low_max, bands.med_max) == (33, 66)

    @pytest.mark.parametrize("threshold", [1, 2, 3, 4, 10, 50, 999])
    def test_always_valid(self, threshold):
        bands = _stress_bands(threshold)
        assert 0 <= bands.low_max < bands.med_max


class TestHeadless:
    def test_one_cell_run_csv(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        rc = main(["--headless", "--scenario", path])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == (
            "step,quakes,cumulative_quakes,max_stress,mean_stress\n"
            "1,0,0,5,5.00\n"
            "2,1,1,10,0.00\n"
        )
        assert captured.err == "steps=2 quakes=1 seed=0\n"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        rc = main(["--headless", "--scenario", path])
        stdout_csv = capsys.readouterr().out
        out = tmp_path / "stats.csv"
        rc2 = main(["--headless", "--scenario", path, "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, rc2) == (0, 0)
        assert out.read_text() == stdout_csv
        assert captured.out == ""  # CSV went to the file, not stdout

    def test_deterministic_replay(self, tmp_path, capsys):
        cfg = SimConfig(dims=GridDims(8, 8), seed=99, target_quakes=2, delay_ms=0)
        path = write_scenario(tmp_path, cfg, [(x, 4) for x in range(8)])
        argv = ["--headless", "--scenario", path]
        rc1 = main(argv)
        first = capsys.readouterr()
        rc2 = main(argv)
        second = capsys.readouterr()
        assert rc1 == rc2 == 0
        assert first.out == second.out
        assert first.err == second.err

    def test_step_limit_exits_2(self, tmp_path, capsys):
        cfg = one_cell_cfg(nonfault_delta_min=0, nonfault_delta_max=0, max_steps=5)
        path = write_scenario(tmp_path, cfg)  # no fault cells, zero deltas
        rc = main(["--headless", "--scenario", path])
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.out.splitlines()) == 6  # header + 5 steps
        assert captured.err == "steps=5 quakes=0 seed=0\n"

    def test_max_steps_flag_overrides_scenario(self, tmp_path, capsys):
        cfg = one_cell_cfg(nonfault_delta_min=0, nonfault_delta_max=0, max_steps=5)
        path = write_scenario(tmp_path, cfg)  # no fault cells, zero deltas: runs to the cap
        rc = main(["--headless", "--scenario", path, "--max-steps", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.out.splitlines()) == 4  # header + 3 steps
        assert captured.err == "steps=3 quakes=0 seed=0\n"

    def test_missing_scenario_file(self, capsys):
        rc = main(["--headless", "--scenario", "/nonexistent/s.txt"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("faultsim: ")
        assert captured.out == ""

    def test_corrupt_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("FAULTSIM 9\n")
        rc = main(["--headless", "--scenario", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("faultsim: ")

    def test_dims_conflict_with_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg())
        rc = main(["--headless", "--scenario", path, "--width", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "conflicts" in captured.err

    def test_matching_dims_accepted(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        rc = main(["--headless", "--scenario", path, "--width", "1", "--height", "1"])
        capsys.readouterr()
        assert rc == 0

    def test_seed_flag_overrides_scenario(self, tmp_path, capsys):
        cfg = SimConfig(dims=GridDims(4, 4), seed=42, target_quakes=1, delay_ms=0)
        path = write_scenario(tmp_path, cfg, [(x, 1) for x in range(4)])
        main(["--headless", "--scenario", path, "--seed", "7"])
        captured = capsys.readouterr()
        assert captured.err.endswith("seed=7\n")
        # and the run really is the seed-7 run, not the seed-42 one
        faults = FaultMap.empty(cfg.dims)
        for x in range(4):
            faults.mark(x, 1)
        from dataclasses import replace

        want = format_stats(iter_steps(StressMap.zeros(cfg.dims), faults, replace(cfg, seed=7)))
        assert captured.out == want

    def test_flag_overrides_apply(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        rc = main(["--headless", "--scenario", path, "--threshold", "20", "--quakes", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        # threshold 20 with +5/step: quake lands on step 4, not step 2
        assert captured.err == "steps=4 quakes=1 seed=0\n"

    def test_without_scenario_matches_engine(self, capsys):
        argv = [
            "--headless", "--width", "3", "--height", "2",
            "--seed", "5", "--quakes", "1", "--max-steps", "40",
        ]
        rc = main(argv)
        captured = capsys.readouterr()
        cfg = SimConfig(
            dims=GridDims(3, 2), seed=5, target_quakes=1, max_steps=40
        )
        seen = []
        summary = run(FaultMap.empty(cfg.dims), cfg, observer=seen.append)
        assert captured.out == format_stats(seen)
        assert rc == (2 if summary.hit_step_limit else 0)

    def test_csv_never_contains_escapes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        main(["--headless", "--scenario", path])
        captured = capsys.readouterr()
        assert "\x1b" not in captured.out
        assert "\x1b" not in captured.err


class TestInteractiveMenu:
    def test_quit_immediately(self):
        rc, out = run_script("7\n", ["--no-color"])
        assert rc == 0
        assert out == MENU + "choice: "

    def test_eof_quits(self):
        rc, out = run_script("", ["--no-color"])
        assert rc == 0
        assert out == MENU + "choice: "

    def test_non_integer_reprompts(self):
        rc, out = run_script("abc\n7\n", ["--no-color"])
        assert rc == 0
        assert "Please enter an integer.\n" in out
        assert out.count("choice: ") == 2
        assert out.count(MENU) == 1  # same menu iteration, just a re-prompt

    def test_unknown_option(self):
        rc, out = run_script("9\n7\n", ["--no-color"])
        assert rc == 0
        assert "Unknown option.\n" in out
        assert out.count(MENU) == 2

    def test_vertical_draw_prints_map(self):
        argv = ["--width", "4", "--height", "3", "--seed", "1", "--no-color"]
        rc, out = run_script("1\n2\n7\n", argv)
        assert rc == 0
        assert "0 0 1 0\n0 0 1 0\n0 0 1 0\n" in out
        assert out.count(MENU) == 2

    def test_out_of_range_vertical(self):
        argv = ["--width", "10", "--height", "10", "--seed", "1", "--no-color"]
        rc, out = run_script("1\n12\n7\n", argv)
        assert rc == 0
        assert "Error: x=12 outside [0, 10)\n" in out
        # failed draw: the map is not reprinted
        assert "0 0 0 0 0 0 0 0 0 0\n" not in out
        assert out.count(MENU) == 2

    def test_negative_radius_message(self):
        argv = ["--width", "10", "--height", "10", "--seed", "1", "--no-color"]
        rc, out = run_script("3\n5\n5\n-1\n7\n", argv)
        assert rc == 0
        assert "Error: radius must be non-negative.\n" in out

    def test_circle_draw(self):
        argv = ["--width", "10", "--height", "10", "--seed", "1", "--no-color"]
        rc, out = run_script("3\n5\n5\n1\n7\n", argv)
        assert rc == 0
        # radius-1 ring around (5,5)
        assert "0 0 0 0 0 1 0 0 0 0\n0 0 0 0 1 0 1 0 0 0\n0 0 0 0 0 1 0 0 0 0\n" in out

    def test_segment_draw(self):
        argv = ["--width", "4", "--height", "4", "--seed", "1", "--no-color"]
        rc, out = run_script("4\n0\n0\n3\n3\n7\n", argv)
        assert rc == 0
        assert "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n" in out

    @pytest.mark.parametrize(
        "script, prompts",
        [
            ("1\n", "x: "),
            ("2\n", "y: "),
            ("3\n1\n1\n", "center x: center y: radius: "),
            ("4\n0\n0\n3\n", "x0: y0: x1: y1: "),
        ],
    )
    def test_eof_partway_through_prompts(self, script, prompts, monkeypatch):
        states = []
        real_resolve = cli._resolve_state

        def resolve(opts):
            states.append(real_resolve(opts))
            return states[-1]

        monkeypatch.setattr(cli, "_resolve_state", resolve)
        rc, out = run_script(script, ["--width", "4", "--height", "4", "--seed", "1", "--no-color"])
        assert rc == 0
        # the remaining prompts are still shown; nothing is drawn or printed after them
        assert out == MENU + "choice: " + prompts
        [(_, faults)] = states
        assert faults.fault_cells() == set()

    def test_prompts_accept_padded_integers(self):
        argv = ["--width", "4", "--height", "3", "--seed", "1", "--no-color"]
        rc, out = run_script("1\n  2  \n7\n", argv)
        assert rc == 0
        assert "0 0 1 0\n" in out

    def test_save_scenario(self, tmp_path):
        target = tmp_path / "saved.txt"
        argv = ["--width", "4", "--height", "3", "--seed", "11", "--no-color"]
        rc, out = run_script(f"1\n2\n6\n{target}\n7\n", argv)
        assert rc == 0
        assert f"Saved {target}\n" in out
        scenario = parse_scenario(target.read_text())
        assert scenario.cfg.dims == GridDims(4, 3)
        assert scenario.cfg.seed == 11
        assert scenario.faults.fault_cells() == {(2, y) for y in range(3)}

    def test_save_failure_keeps_session(self, tmp_path):
        argv = ["--width", "2", "--height", "2", "--seed", "1", "--no-color"]
        rc, out = run_script(f"6\n{tmp_path}/no/such/dir/f.txt\n7\n", argv)
        assert rc == 0
        assert "Error: " in out
        assert out.count(MENU) == 2


class TestInteractiveSimulation:
    def test_one_cell_golden_transcript(self, tmp_path):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        rc, out = run_script("5\n", ["--scenario", path, "--no-color"])
        assert rc == 0
        assert out == (
            MENU
            + "choice: "
            + "1\n"  # fault map
            + "  0\n"  # initial stress frame
            + "  5\n"  # after step 1
            + "  0\n"  # after step 2 (quake reset)
            + "EARTHQUAKE at (0, 0)!\n"
            + "Done: 1 earthquakes in 2 steps (seed 0).\n"
        )

    def test_step_limit_exits_2(self, tmp_path):
        cfg = one_cell_cfg(nonfault_delta_min=0, nonfault_delta_max=0, max_steps=3)
        path = write_scenario(tmp_path, cfg)
        rc, out = run_script("5\n", ["--scenario", path, "--no-color"])
        assert rc == 2
        assert out.endswith(
            "Step limit reached after 3 steps with 0 earthquakes (seed 0).\n"
        )

    def test_delay_flag_overrides_scenario(self, tmp_path, monkeypatch):
        slept = []
        monkeypatch.setattr(cli.time, "sleep", slept.append)
        path = write_scenario(tmp_path, one_cell_cfg(delay_ms=1000), [(0, 0)])
        rc, out = run_script("5\n", ["--scenario", path, "--no-color", "--delay-ms", "7"])
        assert rc == 0
        assert slept == [0.007]  # between the frames of steps 1 and 2, where the run ends

    def test_delay_pauses_between_frames_only(self, tmp_path, monkeypatch):
        slept = []
        monkeypatch.setattr(cli.time, "sleep", slept.append)
        path = write_scenario(tmp_path, one_cell_cfg(fault_delta_min=0, fault_delta_max=0))
        rc, out = run_script("5\n", ["--scenario", path, "--no-color", "--max-steps", "2",
                                     "--delay-ms", "7"])
        assert rc == 2
        assert out.endswith("Step limit reached after 2 steps with 0 earthquakes (seed 0).\n")
        assert slept == [0.007]  # between the frames of steps 1 and 2; none after the last

    def test_interrupt_before_first_frame(self, tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "render_stress_map", interrupt)
        path = write_scenario(tmp_path, one_cell_cfg(seed=5), [(0, 0)])
        rc, out = run_script("5\n", ["--scenario", path, "--no-color"])
        assert rc == 130
        assert out.splitlines()[-1] == "Interrupted after 0 steps with 0 earthquakes (seed 5)."

    def test_color_clears_screen_each_frame(self, tmp_path):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        rc, out = run_script("5\n", ["--scenario", path])
        assert rc == 0
        assert out.count(CLEAR_SCREEN) == 2  # one per executed step

    def test_color_transcript_strips_to_plain(self, tmp_path):
        cfg = SimConfig(
            dims=GridDims(3, 3), seed=8, quake_threshold=12,
            target_quakes=1, delay_ms=0,
        )
        path = write_scenario(tmp_path, cfg, [(x, 1) for x in range(3)])
        rc_color, colored = run_script("5\n", ["--scenario", path])
        rc_plain, plain = run_script("5\n", ["--scenario", path, "--no-color"])
        assert rc_color == rc_plain == 0
        assert strip_ansi(colored) == plain

    def test_no_color_means_no_escape_bytes(self, tmp_path):
        cfg = SimConfig(
            dims=GridDims(3, 3), seed=8, quake_threshold=12,
            target_quakes=1, delay_ms=0,
        )
        path = write_scenario(tmp_path, cfg, [(0, 0), (1, 1), (2, 2)])
        rc, out = run_script("1\n1\n5\n", ["--scenario", path, "--no-color"])
        assert rc == 0
        assert "\x1b" not in out

    def test_frames_match_pure_renderer(self, tmp_path):
        cfg = SimConfig(
            dims=GridDims(3, 2), seed=21, quake_threshold=15,
            target_quakes=1, delay_ms=0,
        )
        fault_cells = [(0, 0), (1, 0), (2, 0)]
        path = write_scenario(tmp_path, cfg, fault_cells)
        rc, out = run_script("5\n", ["--scenario", path, "--no-color"])
        assert rc == 0

        # replay the run and re-render every post-step frame independently
        faults = FaultMap.empty(cfg.dims)
        for x, y in fault_cells:
            faults.mark(x, y)
        stress = StressMap.zeros(cfg.dims)
        rng = SplitMix64(cfg.seed)
        style = RenderStyle(color_enabled=False)
        bands = _stress_bands(cfg.quake_threshold)
        frames = [render_stress_map(stress, bands, cfg.quake_threshold, style)]
        cumulative = 0
        for index in range(1, cfg.max_steps + 1):
            report = step(stress, faults, cfg, rng, cumulative, step_index=index)
            cumulative = report.cumulative_quakes
            frames.append(
                render_stress_map(stress, bands, cfg.quake_threshold, style)
            )
            if cumulative >= cfg.target_quakes:
                break
        pos = 0
        for frame in frames:
            found = out.find(frame, pos)
            assert found != -1, f"frame missing or out of order:\n{frame}"
            pos = found + len(frame)

    def test_draw_then_simulate(self, tmp_path):
        cfg = SimConfig(
            dims=GridDims(4, 4), seed=3, quake_threshold=8,
            target_quakes=1, delay_ms=0,
        )
        path = write_scenario(tmp_path, cfg)
        rc, out = run_script("2\n1\n5\n", ["--scenario", path, "--no-color"])
        assert rc == 0
        assert "1 1 1 1\n" in out  # the drawn horizontal fault
        assert "EARTHQUAKE at (" in out
        assert "Done: " in out


class TestMain:
    def test_main_headless(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        assert main(["--headless", "--scenario", path]) == 0
        assert "1,0,0,5,5.00" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--no-color"], ["--headless", "--width", "2", "--height", "2"]],
                             ids=["interactive", "headless"])
    def test_interrupt_while_resolving_exits_130(self, argv, monkeypatch, capsys):
        def interrupt(opts):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_resolve_state", interrupt)  # a large scenario still loading
        assert main(argv) == 130
        assert capsys.readouterr() == ("", "")

    def test_module_entry_point(self, tmp_path):
        path = write_scenario(tmp_path, one_cell_cfg(), [(0, 0)])
        proc = subprocess.run(
            [sys.executable, "-m", "faultsim", "--headless", "--scenario", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.endswith("2,1,1,10,0.00\n")
        assert proc.stderr == "steps=2 quakes=1 seed=0\n"

    def test_module_entry_point_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "faultsim", "--headless"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_imports_only_the_standard_library(self):
        # a fresh interpreter, so modules other tests imported do not count;
        # names loaded at start-up (site hooks, .pth files) are not the CLI's
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import faultsim.cli\n"
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert set(proc.stdout.split()) - sys.stdlib_module_names == {"faultsim"}
