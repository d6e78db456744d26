import io
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultsim.cli import main
from faultsim.engine import SimConfig, SplitMix64, StepReport
from faultsim.grid import MAX_DIM, FaultMap, GridDims
from faultsim.scenario import (
    MAGIC,
    STATS_HEADER,
    Scenario,
    ScenarioError,
    _format_mean,
    format_scenario,
    format_stats,
    load_scenario,
    parse_scenario,
    save_scenario,
)
from oracles import format_mean

GOLDEN = """\
FAULTSIM 1
width 2
height 2
seed 42
quake_threshold 100
target_quakes 3
nonfault_delta_min -5
nonfault_delta_max 5
fault_delta_min 0
fault_delta_max 10
delay_ms 1000
max_steps 100000
map
01
00
end
"""


def golden_scenario() -> Scenario:
    cfg = SimConfig(dims=GridDims(2, 2), seed=42)
    faults = FaultMap.empty(cfg.dims)
    faults.mark(1, 0)
    return Scenario(cfg=cfg, faults=faults)


@st.composite
def scenarios(draw) -> Scenario:
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    lo_n = draw(st.integers(-9, 9))
    lo_f = draw(st.integers(-9, 9))
    cfg = SimConfig(
        dims=GridDims(w, h),
        seed=draw(st.integers(0, 2**64 - 1)),
        quake_threshold=draw(st.integers(1, 500)),
        target_quakes=draw(st.integers(1, 9)),
        nonfault_delta_min=lo_n,
        nonfault_delta_max=draw(st.integers(lo_n, 10)),
        fault_delta_min=lo_f,
        fault_delta_max=draw(st.integers(lo_f, 10)),
        delay_ms=draw(st.integers(0, 5000)),
        max_steps=draw(st.integers(1, 10**6)),
    )
    faults = FaultMap(cfg.dims, draw(st.lists(
        st.booleans(), min_size=w * h, max_size=w * h
    )))
    return Scenario(cfg=cfg, faults=faults)


class TestFormat:
    def test_golden_bytes(self):
        assert format_scenario(golden_scenario()) == GOLDEN

    def test_save_writes_same_text(self, tmp_path):
        path = tmp_path / "s.txt"
        with open(path, "w") as fp:
            save_scenario(golden_scenario(), fp)
        assert path.read_text() == GOLDEN

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Scenario(cfg=SimConfig(), faults=FaultMap.empty(GridDims(2, 2)))


class TestParse:
    def test_golden_round_trip(self):
        scenario = parse_scenario(GOLDEN)
        assert scenario == golden_scenario()

    def test_map_parses_to_one_byte_per_cell(self):
        cells = parse_scenario(GOLDEN).faults.cells
        assert isinstance(cells, bytearray)
        assert cells == b"\0\1\0\0"

    def test_accepts_bytes(self):
        assert parse_scenario(GOLDEN.encode()) == golden_scenario()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(GOLDEN)
        with open(path, "rb") as fp:
            assert load_scenario(fp) == golden_scenario()

    # a byte other than 0 or 1 written into a built map saves as a fault, as it steps
    @pytest.mark.parametrize("flag", [2, 255])
    def test_fault_bytes_are_saved_by_truth(self, flag):
        scenario = golden_scenario()
        scenario.faults.cells[:] = bytes([flag]) * 4
        assert parse_scenario(format_scenario(scenario)).faults.cells == b"\1" * 4

    @given(scenarios())
    @settings(max_examples=60)
    def test_round_trip_any_scenario(self, scenario):
        assert parse_scenario(format_scenario(scenario)) == scenario

    @given(scenarios())
    @settings(max_examples=60)
    def test_accepted_text_is_canonical(self, scenario):
        text = format_scenario(scenario)
        assert format_scenario(parse_scenario(text)) == text


def rejects(text, message):
    """parse_scenario raises ScenarioError with exactly this message."""
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)


def edit(old, new, message):
    """A GOLDEN edit (first occurrence of old replaced by new) and the error it must raise."""
    return pytest.param(old, new, message, id=f"{old}-{new}")


class TestFullSize:
    def test_round_trip_byte_for_byte(self):
        dims = GridDims(MAX_DIM, MAX_DIM)
        low_bit = bytes(b & 1 for b in range(256))
        cells = bytearray(random.Random(7).randbytes(dims.area).translate(low_bit))
        big = Scenario(cfg=SimConfig(dims=dims, seed=9), faults=FaultMap(dims, cells))
        text = format_scenario(big)
        # the map lines, rendered one cell at a time as an independent reference
        glyphs = "".join("1" if v else "0" for v in big.faults.cells)
        expected_map = "".join(glyphs[i : i + MAX_DIM] + "\n" for i in range(0, len(glyphs), MAX_DIM))
        assert text.endswith("map\n" + expected_map + "end\n")
        for data in (text, text.encode()):
            parsed = parse_scenario(data)
            assert parsed == big
            assert isinstance(parsed.faults.cells, bytearray)
            assert format_scenario(parsed) == text

    def test_the_largest_valid_file_loads(self):
        # every unbounded field at the 4,300 digits int() converts by default, on the largest
        # map: about 1.08 MB, well inside the 2 MiB load_scenario reads
        top = 10**4300 - 1
        dims = GridDims(MAX_DIM, MAX_DIM)
        cfg = SimConfig(dims=dims, seed=2**64 - 1, quake_threshold=top, target_quakes=top,
                        nonfault_delta_min=-top, nonfault_delta_max=top, fault_delta_min=-top,
                        fault_delta_max=top, delay_ms=86_400_000, max_steps=top)
        big = Scenario(cfg=cfg, faults=FaultMap(dims, bytearray(b"\1" * dims.area)))
        data = format_scenario(big).encode()
        assert 10**6 < len(data) < 2 << 20
        assert load_scenario(io.BytesIO(data)) == big

    def test_load_reads_at_most_two_mebibytes(self):
        # at the bound the text is parsed (and fails on its header); one byte more is not
        with pytest.raises(ScenarioError, match="^expected 'FAULTSIM 1' header"):
            load_scenario(io.BytesIO(b"x" * (2 << 20)))
        with pytest.raises(ScenarioError, match="^scenario is longer than 2097152 bytes$"):
            load_scenario(io.BytesIO(b"x" * ((2 << 20) + 1)))

    def test_parse_from_bytes_keeps_no_decoded_copy(self):
        # the map's rows, the block they fill and its translation: with the whole decoded
        # text held through the map as well, the parse peaked 4.07 MB above its input
        dims = GridDims(MAX_DIM, MAX_DIM)
        cells = bytearray(random.Random(7).randbytes(dims.area).translate(bytes(b & 1 for b in range(256))))
        data = format_scenario(Scenario(cfg=SimConfig(dims=dims), faults=FaultMap(dims, cells))).encode()
        tracemalloc.start()
        try:
            parsed = parse_scenario(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed.faults.cells == cells
        assert peak < 3.5 * 2**20, f"peak {peak} B"


class TestParseErrors:
    def test_bad_magic(self):
        rejects(GOLDEN.replace("FAULTSIM 1", "FAULTSIM 2"),
                "expected 'FAULTSIM 1' header, got 'FAULTSIM 2'")
        rejects("", "expected 'FAULTSIM 1' header, got None")
        rejects(MAGIC, "expected 'FAULTSIM 1' header, got None")  # header line must end in a newline

    def test_missing_key(self):
        rejects(GOLDEN.replace("width 2\n", ""), "expected 'width <value>' line, got 'height 2'")

    def test_keys_must_be_in_order(self):
        swapped = GOLDEN.replace(
            "width 2\nheight 2\n", "height 2\nwidth 2\n"
        )
        rejects(swapped, "expected 'width <value>' line, got 'height 2'")

    def test_integer_longer_than_int_converts(self):
        # one digit past the interpreter's limit on int(str): a ScenarioError naming the key
        digits = sys.get_int_max_str_digits() + 1
        rejects(GOLDEN.replace("max_steps 100000", "max_steps " + "9" * digits),
                f"max_steps: {digits} digits, more than the {digits - 1} an integer may have")

    def test_missing_map_marker(self):
        rejects(GOLDEN.replace("map\n", ""), "expected 'map' line, got '01'")

    @pytest.mark.parametrize(
        "bad",
        ["width 0x2", "width +2", "width 02", "width 2 ", "width  2", "width two"],
    )
    def test_malformed_integer(self, bad):
        token = bad[len("width "):]
        rejects(GOLDEN.replace("width 2", bad), f"width: not a canonical integer: {token!r}")

    @pytest.mark.parametrize(
        "old,new,message",
        [
            edit("width 2", "width 0", "width must be in [1, 1024], got 0"),  # dims out of bounds
            edit("width 2", "width 1025", "width must be in [1, 1024], got 1025"),
            edit("seed 42", "seed -1", "seed must fit in 64 bits, got -1"),
            edit("quake_threshold 100", "quake_threshold 0", "quake_threshold must be >= 1"),
            edit("nonfault_delta_min -5", "nonfault_delta_min 6",
                 "nonfault delta range is empty"),  # empty range
        ],
    )
    def test_out_of_range_values(self, old, new, message):
        rejects(GOLDEN.replace(old, new), message)

    def test_non_ascii_bytes(self):
        with pytest.raises(ScenarioError, match="^scenario is not ASCII: "):
            parse_scenario(GOLDEN.encode().replace(b"01", b"0\xff"))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            edit("01\n", "02\n", "map row 0: '02'"),  # bad glyph
            edit("01\n", "011\n", "map row 0: '011'"),  # wrong row length
            edit("01\n", "0 1\n", "map row 0: '0 1'"),
            edit("01\n00\n", "01\n", "map row 1: 'end'"),  # too few rows
            edit("01\n00\nend\n", "01\n", "map ended after 1 of 2 rows"),  # the file ends in the map
            edit("01\n00\n", "01\n00\n10\n",
                 "expected 'end' after 2 map rows, got '10'"),  # extra row displaces 'end'
            edit("end\n", "", "expected 'end' after 2 map rows, got None"),  # missing end marker
            edit("01\n00\n", "01\n0x\n", "map row 1: '0x'"),  # bad glyph in a later row
            edit("01\n00\n", "02\n0\n", "map row 0: '02'"),  # bad glyph wins over a later short row
            edit("01\n00\nend\n", "02\n", "map row 0: '02'"),  # bad glyph wins over the early end
            edit("01\n", "0\u00e9\n", "map row 0: '0\u00e9'"),  # non-ASCII glyph in str input
        ],
    )
    def test_map_shape_mismatch(self, old, new, message):
        rejects(GOLDEN.replace(old, new, 1), message)

    def test_unterminated_final_line(self):
        # 'end' without a newline
        rejects(GOLDEN[:-1], "expected 'end' after 2 map rows, got None")

    def test_trailing_garbage(self):
        rejects(GOLDEN + "extra\n", "content after 'end'")
        rejects(GOLDEN + "x", "content after 'end'")  # even unterminated trailing bytes

    def test_blank_line_rejected(self):
        rejects(GOLDEN.replace("map\n", "map\n\n"), "map row 0: ''")

    # parse_scenario quotes the text in full; the CLI's line keeps its head, up to 200
    # characters with escapes counted, and names the whole line's length
    @pytest.mark.parametrize("old, new, message, head", [
        ("FAULTSIM 1", "x" * 3000, "expected 'FAULTSIM 1' header, got '" + "x" * 3000 + "'", 200),
        ("width 2", "wid" + "x" * 3000, "expected 'width <value>' line, got 'wid" + "x" * 3000 + "'", 200),
        ("seed 42", "seed 0" + "9" * 3000, "seed: not a canonical integer: '0" + "9" * 3000 + "'", 200),
        ("map\n", "x" * 3000 + "\n", "expected 'map' line, got '" + "x" * 3000 + "'", 200),
        ("map\n01\n", "map\n" + "0" * 3000 + "\n", "map row 0: '" + "0" * 3000 + "'", 200),
        ("end\n", "x" * 3000 + "\n", "expected 'end' after 2 map rows, got '" + "x" * 3000 + "'", 200),
        # 183 characters, but each \x00 counts 5 as ascii() writes it: cut inside the 32nd
        ("seed 42", "seed " + "\x00" * 35, "seed: not a canonical integer: '" + "\\x00" * 35 + "'", 168),
        ("seed 42", "seed " + "\x00" * 20, "seed: not a canonical integer: '" + "\\x00" * 20 + "'", None),
    ], ids=["header", "key", "integer", "map", "row", "end", "escapes", "escapes-short"])
    def test_long_text_is_named_by_length(self, old, new, message, head, tmp_path, capsys):
        text = GOLDEN.replace(old, new, 1)
        rejects(text, message)
        path = tmp_path / "long.txt"
        path.write_text(text)
        assert main(["--headless", "--scenario", str(path)]) == 1
        line = f"faultsim: {message}"
        written = line if head is None else f"{line[:head]}...<{len(line)} characters>"
        assert capsys.readouterr() == ("", written + "\n")


@st.composite
def map_texts(draw) -> tuple[GridDims, list[str], bool]:
    """A map's rows, each valid, the wrong length or holding one bad glyph, and
    whether the text ends after them in place of an 'end' line."""
    dims = GridDims(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    rows = []
    for _ in range(dims.height):
        row = draw(st.text("01", min_size=dims.width, max_size=dims.width))
        kind = draw(st.sampled_from(["valid", "valid", "valid", "length", "glyph"]))
        if kind == "length":
            row = draw(st.text("01", max_size=dims.width + 2).filter(lambda r: len(r) != dims.width))
        elif kind == "glyph":
            at = draw(st.integers(0, dims.width - 1))
            row = row[:at] + draw(st.sampled_from(["2", " ", "\r", "\u00e9"])) + row[at + 1 :]
        rows.append(row)
    cut = draw(st.booleans())
    if cut:
        rows = rows[: draw(st.integers(0, dims.height - 1))]
    return dims, rows, cut


def first_map_error(dims: GridDims, rows: list[str]) -> str | None:
    """The reference: the first row bad by length or glyph, else an early end."""
    for index, row in enumerate(rows):
        if len(row) != dims.width or not set(row) <= {"0", "1"}:
            return f"map row {index}: {row!r}"
    if len(rows) < dims.height:
        return f"map ended after {len(rows)} of {dims.height} rows"
    return None


class TestMapReader:
    @given(map_texts())
    @settings(max_examples=300)
    def test_first_bad_row_or_early_end_is_named(self, case):
        dims, rows, cut = case
        head = format_scenario(Scenario(cfg=SimConfig(dims=dims), faults=FaultMap.empty(dims)))
        text = head[: head.index("map\n") + 4] + "".join(row + "\n" for row in rows) + ("" if cut else "end\n")
        message = first_map_error(dims, rows)
        if message is not None:
            rejects(text, message)
            return
        want = FaultMap.empty(dims)
        for y, row in enumerate(rows):
            for x, glyph in enumerate(row):
                if glyph == "1":
                    want.mark(x, y)
        assert parse_scenario(text).faults == want


class TestParseNeverCrashes:
    @given(st.text(max_size=400))
    @settings(max_examples=200)
    def test_arbitrary_text(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass

    @given(st.binary(max_size=400))
    @settings(max_examples=200)
    def test_arbitrary_bytes(self, blob):
        try:
            parse_scenario(blob)
        except ScenarioError:
            pass

    def test_seeded_mutations_of_valid_file(self):
        # Flip bytes of a known-good scenario; the parser must always either
        # accept or raise a ScenarioError, never anything else.
        rng = SplitMix64(2024)
        base = bytearray(GOLDEN.encode())
        for _ in range(2000):
            blob = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                blob[rng.randint(0, len(blob) - 1)] = rng.randint(0, 255)
            try:
                parse_scenario(bytes(blob))
            except ScenarioError:
                pass


def report(step_index, quakes, cum, max_stress, total, area) -> StepReport:
    return StepReport(step_index, tuple((x, 0) for x in range(quakes)), cum, max_stress, total, area)


class TestStats:
    def test_header_only_when_empty(self):
        assert format_stats([]) == STATS_HEADER + "\n"

    def test_rows(self):
        rows = [
            report(1, 0, 0, 5, 5, 1),
            report(2, 1, 1, 10, 0, 1),
        ]
        assert format_stats(rows) == (
            "step,quakes,cumulative_quakes,max_stress,mean_stress\n"
            "1,0,0,5,5.00\n"
            "2,1,1,10,0.00\n"
        )

    @pytest.mark.parametrize(
        "mean,text",
        [  # a mean as a report carries it: (stress_total, area)
            ((0, 1), "0.00"),
            ((9, 2), "4.50"),
            ((801, 200), "4.01"),  # exact half rounds away from zero
            ((799, 200), "4.00"),
            ((10, 3), "3.33"),
            ((12344, 100), "123.44"),
        ],
    )
    def test_mean_rounding(self, mean, text):
        total, area = mean
        for k in (1, 7):  # the pair need not be reduced
            line = format_stats([report(1, 0, 0, 0, k * total, k * area)]).splitlines()[1]
            assert line == f"1,0,0,0,{text}"

    @settings(max_examples=500)
    @given(
        area=st.integers(1, MAX_DIM * MAX_DIM),
        cap=st.integers(1, 1_000_000),  # threshold + room: no cell holds more after a step
        k=st.integers(1, 10_000),
        data=st.data(),
    )
    def test_integer_mean_matches_fraction_reference(self, area, cap, k, data):
        total = data.draw(st.integers(0, area * cap), label="total")
        want = format_mean(total, area)
        assert _format_mean(total, area) == want
        assert _format_mean(k * total, k * area) == want  # an unreduced pair reads the same
