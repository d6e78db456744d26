import io
import os
import re
import resource
import stat
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import faultsim.cli as cli
import faultsim.engine as engine
from faultsim.cli import (
    CLEAR_SCREEN,
    MENU,
    main,
    parse_args,
    _stress_bands,
)
from faultsim.engine import SimConfig, SplitMix64, iter_steps, run, step
from faultsim.grid import FaultMap, GridDims, StressMap
from faultsim.render import RenderStyle, render_stress_map
from faultsim.scenario import Scenario, format_scenario, format_stats, load_scenario, parse_scenario

from oracles import fault_cells, strip_ansi


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


# each flag that SimConfig or GridDims bounds -> the scenario-file key it overrides
FLAG_KEYS = {"--width": "width", "--height": "height", "--seed": "seed", "--quakes": "target_quakes",
             "--threshold": "quake_threshold", "--delay-ms": "delay_ms", "--max-steps": "max_steps"}


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

    # each flag that SimConfig or GridDims bounds, with a value out of range
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
            ["--delay-ms", "86400001"],  # over a day; much larger values overflow time.sleep
            ["--delay-ms", "100000000000000000000"],
            ["--delay-ms", str(10**400)],
            ["--max-steps", "0"],
            ["--height", "0"],
            # named by their digit count, not echoed
            ["--seed", "9" * 4000],
            ["--width", "9" * 4000],
            ["--height", "-" + "9" * 4000],
        ],
    )
    def test_usage_errors_exit_1(self, argv, tmp_path, capsys):
        """Through main, headless and interactive: exit 1, nothing on stdout, and on
        stderr exactly the line the same value gives from a scenario file."""
        flag, value = argv
        key = FLAG_KEYS[flag]
        text = format_scenario(Scenario(cfg=SimConfig(dims=GridDims(5, 5)), faults=FaultMap.empty(GridDims(5, 5))))
        path = tmp_path / "bad.txt"
        path.write_text(re.sub(rf"^{key} .*$", f"{key} {value}", text, count=1, flags=re.M))
        assert main(["--headless", "--scenario", str(path)]) == 1
        line = capsys.readouterr().err
        assert line.startswith(f"faultsim: {key} ") and line.count("\n") == 1  # names the field
        assert len(line) < 300 and "9" * 21 not in line
        # headless: the later --width wins over the 5x5 grid given first
        for run_argv in (argv, ["--headless", "--width", "5", "--height", "5", *argv]):
            with mock.patch.object(sys, "stdin", io.StringIO("7\n")):
                assert main(run_argv) == 1
            assert capsys.readouterr() == ("", line)

    @pytest.mark.parametrize("argv", [["--bogus"], ["--width", "x"], ["--seed", "9" * 5000],
                                      ["--width", "12x" + "9" * 5000], ["9" * 4000]])
    def test_malformed_flags_exit_1(self, argv, capsys):
        # not an integer, or more digits than int() converts: argparse's usage error
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: faultsim ")
        line = captured.err.splitlines()[-1]
        assert line.startswith("faultsim: error: ")
        assert len(line) < 300
        if len(argv[-1]) > 200:  # a long value: the line's first 200 characters, then its length
            full = "faultsim: error: " + (f"unrecognized arguments: {argv[0]}" if len(argv) == 1
                                          else f"argument {argv[0]}: invalid int value: '{argv[1]}'")
            assert line == f"{full[:200]}...<{len(full)} characters>"

    # the line, "faultsim: error: " included, is cut at 200 characters, escapes counted
    @pytest.mark.parametrize("argv, tail", [
        (["--seed", "x" * 5000], "argument --seed: invalid int value: '" + "x" * 146 + "...<5055 characters>"),
        (["--bogus" + "y" * 5000], "unrecognized arguments: --bogus" + "y" * 152 + "...<5048 characters>"),
        (["--headless=" + "z" * 5000],
         "argument --headless: ignored explicit argument '" + "z" * 135 + "...<5066 characters>"),
        (["--s=" + "w" * 5000], "ambiguous option: --s=" + "w" * 161 + "...<5070 characters>"),
        (["--seed", "9x" * 3000], "argument --seed: invalid int value: '" + "9x" * 73 + "...<6055 characters>"),
        (["--seed", "\U0001f600" * 40],
         "argument --seed: invalid int value: '" + "\U0001f600" * 14 + "...<95 characters>"),
    ], ids=["value", "option", "explicit", "ambiguous", "digit-runs", "escapes"])
    def test_long_words_in_usage_errors_are_named_by_length(self, argv, tail, capsys):
        with pytest.raises(SystemExit):
            parse_args(argv)
        line = capsys.readouterr().err.splitlines()[-1]
        assert line == f"faultsim: error: {tail}"
        assert len(ascii(line)) < 300

    @pytest.mark.parametrize("argv, tail", [
        (["a\nb"], r"unrecognized arguments: a\nb"),
        (["a\rb"], r"unrecognized arguments: a\rb"),
        (["--s=x\ny"], r"ambiguous option: --s=x\ny could match --scenario, --seed"),
        (["\x1b[2Jx"], r"unrecognized arguments: \x1b[2Jx"),
        (["--s=\x1b[31mx"], r"ambiguous option: --s=\x1b[31mx could match --scenario, --seed"),
    ], ids=["newline", "return", "ambiguous", "escape", "ambiguous-escape"])
    def test_line_breaks_in_usage_errors_are_escaped(self, argv, tail, capsys):
        # argparse echoes these raw; the error stays one line after the usage
        with pytest.raises(SystemExit):
            parse_args(argv)
        err = capsys.readouterr().err
        assert err.startswith("usage: faultsim ")
        assert err.splitlines()[-1] == f"faultsim: error: {tail}"

    def test_short_numbers_in_usage_errors_are_echoed(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["--seed", "12345678901234567890x"])
        assert capsys.readouterr().err.endswith("invalid int value: '12345678901234567890x'\n")

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

    # an unbounded max_steps, in a scenario file or as --max-steps: 10**30 parses, round-trips
    # and runs to the quake target with the CSV of the same run capped at 5,000 steps
    def test_a_max_steps_of_10_to_the_30(self, tmp_path, capsys):
        huge = 10**30
        outputs = []
        for max_steps, flag in ((5000, []), (huge, []), (5000, ["--max-steps", str(huge)])):
            (tmp_path / str(len(outputs))).mkdir()
            cfg = SimConfig(dims=GridDims(8, 8), seed=99, target_quakes=2, delay_ms=0, max_steps=max_steps)
            path = write_scenario(tmp_path / str(len(outputs)), cfg, [(x, 4) for x in range(8)])
            text = Path(path).read_text()
            assert f"max_steps {max_steps}\n" in text and format_scenario(parse_scenario(text)) == text
            assert main(["--headless", "--scenario", path, *flag]) == 0
            outputs.append(capsys.readouterr())
        assert parse_args(["--max-steps", str(huge)]).max_steps == huge
        assert outputs[0] == outputs[1] == outputs[2]
        steps = int(re.match(r"steps=(\d+) quakes=(\d+) ", outputs[0].err)[1])
        assert 1 < steps < 5000 and len(outputs[0].out.splitlines()) == steps + 1

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

    @pytest.mark.parametrize("delay", ["86400001", "100000000000000000000", str(10**400)],
                             ids=["day+1ms", "1e20", "1e400"])
    def test_scenario_delay_over_a_day(self, tmp_path, delay, capsys):
        path = tmp_path / "slow.txt"
        text = format_scenario(Scenario(cfg=one_cell_cfg(), faults=FaultMap.empty(GridDims(1, 1))))
        path.write_text(text.replace("\ndelay_ms 0\n", f"\ndelay_ms {delay}\n"))
        rc = main(["--headless", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "faultsim: delay_ms must be in [0, 86400000]\n"
        assert captured.out == ""

    def test_dims_conflict_with_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg())
        rc = main(["--headless", "--scenario", path, "--width", "3"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "conflicts" in captured.err

    def test_zero_width_with_scenario_is_a_conflict(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg())
        rc = main(["--headless", "--scenario", path, "--width", "0"])
        assert rc == 1
        assert capsys.readouterr() == ("", "faultsim: --width 0 conflicts with scenario grid 1x1\n")

    def test_long_conflicting_dimension_is_named_by_length(self, tmp_path, capsys):
        path = write_scenario(tmp_path, one_cell_cfg())
        assert main(["--headless", "--scenario", path, "--width", "9" * 3000]) == 1
        assert capsys.readouterr() == ("", "faultsim: --width <3000 digits> conflicts with scenario grid 1x1\n")

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
        seed7 = SimConfig(dims=GridDims(4, 4), seed=7, target_quakes=1, delay_ms=0)
        want = format_stats(iter_steps(StressMap.empty(cfg.dims), faults, seed7))
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
        run(FaultMap.empty(cfg.dims), cfg, observer=seen.append)
        last = seen[-1]
        assert captured.out == format_stats(seen)
        assert captured.err == f"steps={last.step_index} quakes={last.cumulative_quakes} seed=5\n"
        assert rc == (2 if last.cumulative_quakes < cfg.target_quakes else 0)

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

    # menu numbers pass int() up to its 4,300-digit limit; an error names them by length
    @pytest.mark.parametrize("script,line", [
        ("1\n" + "9" * 3000, "Error: x=<3000 digits> outside [0, 3)\n"),
        ("2\n-" + "9" * 3000, "Error: y=-<3000 digits> outside [0, 2)\n"),
        ("4\n0\n0\n" + "9" * 3000 + "\n1", "Error: endpoint (<3000 digits>, 1) outside 3x2 grid\n"),
        ("3\n" + "9" * 25 + "\n0\n1", "Error: center (<25 digits>, 0) outside 3x2 grid\n"),
    ], ids=["vertical", "horizontal", "segment", "circle"])
    def test_long_numbers_in_draw_errors_are_named_by_length(self, script, line):
        rc, out = run_script(script + "\n7\n", ["--width", "3", "--height", "2", "--no-color"])
        assert rc == 0
        assert line in out and "9" * 21 not in out

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
            ("6\n", "path: "),  # nothing is saved
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
        assert fault_cells(faults) == set()

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
        assert fault_cells(scenario.faults) == {(2, y) for y in range(3)}

    def test_save_to_a_long_file_name(self, tmp_path):
        target = tmp_path / ("s" * 240)  # 240 bytes, room for no temporary name grown from it
        rc, out = run_script(f"6\n{target}\n7\n", ["--width", "2", "--height", "2", "--no-color"])
        assert rc == 0
        assert f"Saved {target}\n" in out
        assert parse_scenario(target.read_text()).cfg.dims == GridDims(2, 2)
        assert list(tmp_path.iterdir()) == [target]

    def test_saved_line_escapes_what_is_not_printable(self, tmp_path):
        # the typed path is outside text: an ESC in it reaches the terminal escaped, as in an
        # error line, and the file on disk keeps the name as typed
        target = tmp_path / "\x1b[2Jx.scn"
        rc, out = run_script(f"6\n{target}\n7\n", ["--width", "3", "--height", "2", "--no-color"])
        assert rc == 0
        assert f"Saved {tmp_path}{os.sep}\\x1b[2Jx.scn\n" in out
        assert "\x1b" not in out
        assert parse_scenario(target.read_text()).cfg.dims == GridDims(3, 2)

    def test_a_menu_line_is_read_up_to_a_mebibyte(self):
        # 2**20 characters are one line like any other; one more is an input error, and main
        # ends the run with it (TestMain.test_endless_input_fails_at_its_bound)
        line = "x" * 2**20
        assert cli._read_line(io.StringIO(line + "\n7\n"), io.StringIO(), "choice: ") == line
        assert cli._read_line(io.StringIO(line), io.StringIO(), "choice: ") == line
        with pytest.raises(OSError, match="^input line longer than 1048576 characters$"):
            cli._read_line(io.StringIO(line + "x\n7\n"), io.StringIO(), "choice: ")

    def test_save_keeps_a_private_files_mode(self, tmp_path):
        target = tmp_path / "saved.txt"
        target.write_text("old scenario\n")
        target.chmod(0o600)
        old_mask = os.umask(0o022)
        try:
            rc, out = run_script(f"6\n{target}\n7\n", ["--width", "2", "--height", "2", "--no-color"])
        finally:
            os.umask(old_mask)
        assert rc == 0
        assert f"Saved {target}\n" in out
        assert parse_scenario(target.read_text()).cfg.dims == GridDims(2, 2)
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_missing_height_defaults_to_20(self, tmp_path):
        target = tmp_path / "saved.txt"
        rc, _ = run_script(f"6\n{target}\n7\n", ["--width", "7", "--no-color"])
        assert rc == 0
        assert parse_scenario(target.read_text()).cfg.dims == GridDims(7, 20)

    def test_zero_width_alone_fails_rather_than_defaulting(self, capsys):
        with mock.patch.object(sys, "stdin", io.StringIO("7\n")):
            rc = main(["--width", "0", "--no-color"])
        assert rc == 1
        assert capsys.readouterr() == ("", "faultsim: width must be in [1, 1024], got 0\n")

    def test_save_failure_keeps_session(self, tmp_path):
        argv = ["--width", "2", "--height", "2", "--seed", "1", "--no-color"]
        rc, out = run_script(f"6\n{tmp_path}/no/such/dir/f.txt\n7\n", argv)
        assert rc == 0
        assert "Error: " in out
        assert out.count(MENU) == 2

    # a save that fails part-way, by a full disk or by Ctrl-C, leaves the old file whole
    @pytest.mark.parametrize("exc,code", [(OSError(28, "No space left on device"), 0), (KeyboardInterrupt(), 130)],
                             ids=["disk-full", "interrupt"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, exc, code):
        target = tmp_path / "saved.txt"
        target.write_text("old scenario\n")

        def save_part(scenario, fp):
            fp.write(format_scenario(scenario)[:20])
            fp.flush()
            raise exc

        monkeypatch.setattr(cli, "save_scenario", save_part)
        argv = ["--width", "2", "--height", "2", "--seed", "1", "--no-color"]
        rc, out = run_script(f"6\n{target}\n7\n", argv)
        assert rc == code
        assert ("Error: [Errno 28] No space left on device\n" in out) == (code == 0)
        assert "Saved" not in out
        assert target.read_text() == "old scenario\n"
        assert list(tmp_path.iterdir()) == [target]  # no temporary file left behind


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
        stress = StressMap.empty(cfg.dims)
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

    @pytest.mark.parametrize("color", [True, False])
    def test_one_write_per_step_frame(self, color):
        # a step frame's clear-screen, map and EARTHQUAKE lines go out in one write
        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes = []
        cfg = SimConfig(dims=GridDims(3, 3), seed=8, quake_threshold=12, target_quakes=3, delay_ms=0)
        faults = FaultMap.empty(cfg.dims)
        for x in range(3):
            faults.mark(x, 1)
        out = Recorder()
        assert cli._animate(faults, cfg, RenderStyle(color_enabled=color), out) == 0
        reports = list(iter_steps(StressMap.empty(cfg.dims), faults, cfg))
        assert len(writes) == 2 + len(reports) + 1  # fault map, first stress map, frames, outcome
        assert sum(len(r.quaked_cells) for r in reports) >= 3
        for frame, report in zip(writes[2:-1], reports):
            quakes = "".join(f"EARTHQUAKE at ({x}, {y})!\n" for x, y in report.quaked_cells)
            assert frame.startswith(CLEAR_SCREEN) == color
            assert frame.endswith(quakes)
            assert frame.count("\n") == cfg.dims.height + len(report.quaked_cells)
        assert "".join(writes) == out.getvalue()

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


class TestTracedNames:
    """The names the benchmark's traced run wraps, where it looks them up: faultsim.cli's run,
    format_stats, render_stress_map, load_scenario and step, and faultsim.engine's step. A
    change that drops or bypasses one of them fails here, not only in the benchmark's tests."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """(name, args, result) of each call of a wrapped name, in the order the calls return;
        a map passed to render_stress_map is recorded as a copy of its cells at the call."""
        assert cli.step is engine.step and cli.load_scenario is load_scenario
        seen = []
        for module, name in ((cli, "run"), (cli, "format_stats"), (cli, "load_scenario"),
                             (engine, "step"), (cli, "render_stress_map")):
            def spy(*args, original=getattr(module, name), name=name, **kwargs):
                result = original(*args, **kwargs)
                seen.append((name, [list(args[0].cells)] if name == "render_stress_map" else args, result))
                return result
            monkeypatch.setattr(module, name, spy)
        return seen

    @staticmethod
    def _scenario(tmp_path) -> tuple[str, SimConfig, FaultMap]:
        cfg = SimConfig(dims=GridDims(8, 8), seed=99, target_quakes=2, delay_ms=0)
        path = write_scenario(tmp_path, cfg, [(x, 4) for x in range(8)])
        return path, cfg, parse_scenario(Path(path).read_text()).faults

    def test_headless(self, tmp_path, calls, capsys):
        path, cfg, faults = self._scenario(tmp_path)
        stress = StressMap.empty(cfg.dims)
        reports = list(iter_steps(stress, faults, cfg))
        calls.clear()  # the reference run's steps
        assert main(["--headless", "--scenario", path]) == 0
        capsys.readouterr()
        names = [name for name, _, _ in calls]
        assert names.count("load_scenario") == names.count("run") == names.count("format_stats") == 1
        assert names.count("step") == len(reports) > 1 and "render_stress_map" not in names
        (_, args, _), = [call for call in calls if call[0] == "format_stats"]
        assert args == ((),)
        assert calls[-1][0] == "run" and calls[-1][2].final_stress == stress

    def test_scripted_animation(self, tmp_path, calls):
        path, cfg, faults = self._scenario(tmp_path)
        stress = StressMap.empty(cfg.dims)
        frames = [list(stress.cells)] + [list(stress.cells) for _ in iter_steps(stress, faults, cfg)]
        calls.clear()  # the reference run's steps
        rc, _ = run_script("5\n", ["--scenario", path, "--no-color"])
        assert rc == 0
        names = [name for name, _, _ in calls]
        assert names.count("load_scenario") == 1 and names.count("step") == len(frames) - 1 > 1
        assert [args[0] for name, args, _ in calls if name == "render_stress_map"] == frames
        assert frames[0] == [0] * cfg.dims.area


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

    def test_input_that_is_not_utf8_is_read_as_bytes(self, tmp_path):
        # a strict stdin decoder, as a UTF-8 locale other than C.UTF-8 sets, once ended the
        # run with a UnicodeDecodeError; now a bad choice re-prompts and a path keeps its bytes
        env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
        argv = [sys.executable, "-m", "faultsim", "--width", "3", "--height", "2", "--no-color"]
        proc = subprocess.run(argv, input=b"\xff\n7\n", capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.count(b"Please enter an integer.\n") == 1
        path = os.path.join(os.fsencode(tmp_path), b"\xff.scn")
        proc = subprocess.run(argv, input=b"6\n" + path + b"\n7\n", capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        # the Saved line escapes the byte as an error line does; the file name keeps it
        assert b"Saved " + os.fsencode(tmp_path) + b"/\\udcff.scn\n" in proc.stdout
        with open(path, "rb") as fp:
            assert parse_scenario(fp.read()).cfg.dims == GridDims(3, 2)

    # endless input: each read stops at its bound, so the run fails with one line well inside
    # a 512 MiB address space, where an unbounded read ended in a MemoryError traceback
    @pytest.mark.parametrize("argv, stdin, stdout, err", [
        (["--headless", "--scenario", "/dev/zero"], subprocess.DEVNULL, b"",
         b"faultsim: scenario is longer than 2097152 bytes\n"),
        (["--no-color", "--width", "3", "--height", "2"], "/dev/zero", MENU.encode() + b"choice: ",
         b"faultsim: input line longer than 1048576 characters\n"),
    ], ids=["scenario", "menu-line"])
    def test_endless_input_fails_at_its_bound(self, argv, stdin, stdout, err):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        with open(os.devnull if stdin is subprocess.DEVNULL else stdin, "rb") as fp:
            proc = subprocess.run([sys.executable, "-m", "faultsim", *argv], stdin=fp,
                                  capture_output=True, preexec_fn=cap_memory, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, stdout, err)

    def test_imports_only_the_standard_library(self):
        # a fresh interpreter, so modules other tests imported do not count;
        # names loaded at start-up (site hooks, .pth files) are not the CLI's.
        # Where the C kernel is not built, each start tries to build it, and sysconfig
        # loads its build-time data module, which stdlib_module_names does not list
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import faultsim.cli\n"
            "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        names = {name for name in proc.stdout.split() if not name.startswith("_sysconfigdata_")}
        assert names - sys.stdlib_module_names == {"faultsim"}

    def test_start_up_loads_no_heavy_standard_modules(self):
        # dataclasses (with inspect, ast and dis) and fractions (with decimal and numbers)
        # once took half the CLI's import time. As above, modules loaded at start-up do
        # not count; nor do those the package's own standard-library imports load on a
        # Python whose argparse or typing pulls one in, so only the package is judged
        banned = {"dataclasses", "fractions", "decimal", "numbers", "inspect", "ast", "dis"}
        package = Path(cli.__file__).parent
        stdlib = sorted({name for path in package.glob("*.py")
                         for name in re.findall(r"^(?:from|import) (\w+)", path.read_text(), re.M)}
                        - banned - {"__future__"})
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"import {', '.join(stdlib)}\n"
            "by_stdlib = set(sys.modules) - before\n"
            "import faultsim.cli\n"
            "print(*sorted(set(sys.modules) - before - by_stdlib))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert {"argparse", "typing", "re"} <= set(stdlib)
        assert "faultsim.cli" in loaded
        assert loaded & banned == set()


class TestOneLine:
    def test_text_past_200_characters_is_cut_and_named_by_length(self):
        assert cli._one_line("x" * 200) == "x" * 200 + "\n"
        assert cli._one_line("x" * 201) == "x" * 200 + "...<201 characters>\n"
        assert cli._one_line("") == "\n"

    def test_escapes_count(self):
        # what ascii() or a backslash-escaping stderr makes of the text is what is bounded
        assert cli._one_line("é" * 50) == "é" * 50 + "\n"  # 200 characters as escapes
        assert cli._one_line("é" * 51) == "é" * 50 + "...<51 characters>\n"
        assert cli._one_line("\U0001f600" * 20) == "\U0001f600" * 20 + "\n"
        assert cli._one_line("\U0001f600" * 21) == "\U0001f600" * 20 + "...<21 characters>\n"
        assert cli._one_line("x" * 199 + "\n") == "x" * 199 + "...<200 characters>\n"

    def test_line_breaks_are_escaped(self):
        assert cli._one_line("a\nb\rc") == "a\\nb\\rc\n"

    def test_characters_that_are_not_printable_are_escaped(self):
        # tab, ESC, DEL, U+0085 (next line) and U+202E (right-to-left override); é is printable
        assert cli._one_line("a\tb\x1bc\x7fd\x85e\u202ef é") == r"a\tb\x1bc\x7fd\x85e\u202ef é" + "\n"
        assert cli._one_line("\x1b" * 50) == r"\x1b" * 50 + "\n"  # 200 characters as escapes
        assert cli._one_line("\x1b" * 51) == r"\x1b" * 50 + "...<51 characters>\n"


# stands for a scenario file whose first map row has 3,000 glyphs
BAD_ROW_FILE = "<bad row file>"


class TestErrorLines:
    """Each writer of an error line writes one line under 300 bytes, however long the outside text."""

    @pytest.mark.parametrize("argv, stdin, start, length", [
        (["a"] * 3000, None, "faultsim: error: unrecognized arguments: a a ", 6040),
        (["--headless", "--scenario", "s" * 100_000], None,
         "faultsim: [Errno 36] File name too long: 'sss", 100_043),
        (["--headless", "--width", "2", "--height", "2", "--out", "o" * 60_000], None,
         "faultsim: [Errno 36] File name too long: 'ooo", 60_043),
        (["--width", "2", "--height", "2", "--no-color"], "6\n" + "p" * 1_000_000 + "\n7\n",
         "choice: path: Error: [Errno 36] File name too long: 'ppp", 1_000_040),
        (["--headless", "--scenario", BAD_ROW_FILE], None, "faultsim: map row 0: '000", 3023),
        (["--seed", "é" * 3000], None, "faultsim: error: argument --seed: invalid int value: 'é", 3055),
        (["--headless", "--scenario", "\U0001f600" * 3000], None,
         "faultsim: [Errno 36] File name too long: '\U0001f600", 3043),
    ], ids=["stray-arguments", "scenario-path", "out-path", "save-path", "map-row", "accents", "emoji"])
    def test_long_outside_text_gives_one_short_line(self, argv, stdin, start, length, tmp_path, capsys):
        if BAD_ROW_FILE in argv:
            bad_row = Path(write_scenario(tmp_path, SimConfig(dims=GridDims(2, 2))))
            bad_row.write_text(bad_row.read_text().replace("map\n00\n", "map\n" + "0" * 3000 + "\n"))
            argv = [str(bad_row) if arg == BAD_ROW_FILE else arg for arg in argv]
        with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")):
            try:
                rc = main(argv)
            except SystemExit as exc:  # a usage error
                rc = exc.code
        out, err = capsys.readouterr()
        [line] = [line for line in (out if stdin else err).split("\n") if line.startswith(start)]
        assert line.endswith(f"...<{length} characters>")  # so the start and the length share one line
        assert len(ascii(line)) < 300
        if stdin:  # the menu reports the failed save and carries on until 7
            assert (rc, err, out.count(MENU)) == (0, "", 2)
        else:
            assert (rc, out) == (1, "")
            assert err.endswith(f"\n{line}\n") or err == f"{line}\n"
