import copy
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faultsim.engine import QuakedCells, SimConfig, SimSummary, StepReport
from faultsim.grid import MAX_DIM, FaultMap, GridDims, StressMap, digits
from faultsim.render import RenderStyle, StressBands
from faultsim.scenario import Scenario
from oracles import copy_grid, fault_cells, fault_count, is_fault


class TestGridDims:
    def test_basic_construction(self):
        d = GridDims(20, 15)
        assert d.width == 20
        assert d.height == 15
        assert d.area == 300

    @pytest.mark.parametrize("w,h", [(1, 1), (1, MAX_DIM), (MAX_DIM, MAX_DIM)])
    def test_extremes_accepted(self, w, h):
        assert GridDims(w, h).area == w * h

    @pytest.mark.parametrize(
        "w,h",
        [(0, 5), (5, 0), (-1, 5), (5, -3), (MAX_DIM + 1, 5), (5, MAX_DIM + 1)],
    )
    def test_out_of_bounds_rejected(self, w, h):
        with pytest.raises(ValueError):
            GridDims(w, h)

    @pytest.mark.parametrize("w,h", [(2.0, 5), (5, "3"), (True, 5), (5, None)])
    def test_non_int_rejected(self, w, h):
        with pytest.raises((TypeError, ValueError)):
            GridDims(w, h)

    def test_frozen(self):
        d = GridDims(4, 4)
        with pytest.raises(AttributeError):
            d.width = 5

    def test_contains_corners_and_edges(self):
        d = GridDims(10, 8)
        assert d.contains(0, 0)
        assert d.contains(9, 7)
        assert not d.contains(10, 0)
        assert not d.contains(0, 8)
        assert not d.contains(-1, 0)
        assert not d.contains(0, -1)

    def test_contains_exhaustive_small(self):
        # contains(x, y) must agree with the definition on every point of a
        # band around a small grid.
        d = GridDims(5, 3)
        for x in range(-2, 8):
            for y in range(-2, 6):
                assert d.contains(x, y) == (0 <= x < 5 and 0 <= y < 3)

    @given(
        w=st.integers(1, 64),
        h=st.integers(1, 64),
        x=st.integers(-5, 70),
        y=st.integers(-5, 70),
    )
    def test_contains_matches_definition(self, w, h, x, y):
        assert GridDims(w, h).contains(x, y) == (0 <= x < w and 0 <= y < h)


# one value of each frozen class, and a field of it to try to change
FROZEN = [
    (GridDims(4, 4), "width"),
    (SimConfig(), "seed"),
    (StressBands(), "low_max"),
    (RenderStyle(), "color_enabled"),
    (StepReport(3, ((1, 2),), 5, 40, 123, 400), "stress_total"),
]


def _rebuilt(value):
    """An equal value built separately from the same field values."""
    return type(value)(*(getattr(value, name) for name in value._FIELDS))


class TestValueSemantics:
    @pytest.mark.parametrize("value,field", FROZEN)
    def test_frozen(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1  # no field of that name, and no __dict__ to put it in
        assert getattr(value, field) == before

    @pytest.mark.parametrize("value,field", FROZEN)
    def test_equal_values_hash_equal(self, value, field):
        twin = _rebuilt(value)
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert len({value, twin}) == 1

    @pytest.mark.parametrize("a,b", [
        (GridDims(4, 4), GridDims(4, 5)),
        (SimConfig(), SimConfig(seed=1)),
        (SimConfig(), SimConfig(dims=GridDims(20, 21))),
        (StressBands(), StressBands(low_max=32)),
        (RenderStyle(), RenderStyle(color_enabled=False)),
        (StepReport(3, (), 5, 40, 123, 400), StepReport(3, (), 5, 40, 246, 800)),
    ])
    def test_different_values_differ(self, a, b):
        assert a != b and not a == b

    def test_other_types_never_equal(self):
        assert GridDims(4, 4) != (4, 4)
        assert StressBands(33, 66) != (33, 66)
        assert FaultMap.empty(GridDims(2, 2)) != StressMap.empty(GridDims(2, 2))

    def test_keyword_construction_and_defaults(self):
        assert SimConfig(dims=GridDims(20, 20), seed=0) == SimConfig()
        assert StressBands(low_max=33, med_max=66) == StressBands()
        assert RenderStyle(color_enabled=True) == RenderStyle()
        with pytest.raises(TypeError):  # a record without its own __init__ takes positions only
            StepReport(step_index=1, quaked_cells=(), cumulative_quakes=0, max_stress=0,
                       stress_total=0, area=1)

    # the records with no __init__ of their own get Value's check of the value count
    @pytest.mark.parametrize("cls", [QuakedCells, StepReport, SimSummary])
    def test_wrong_number_of_values_rejected(self, cls):
        n = len(cls._FIELDS)
        for count in (n - 1, n + 1):
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes {n} values, got {count}$"):
                cls(*range(count))

    @pytest.mark.parametrize("value", [v for v, _ in FROZEN] + [FaultMap(GridDims(2, 2), [1, 0, 0, 1])])
    def test_copies_and_pickles_are_equal(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)

    def test_repr_names_the_fields(self):
        assert repr(GridDims(3, 4)) == "GridDims(width=3, height=4)"
        assert repr(StressBands()) == "StressBands(low_max=33, med_max=66)"

    def test_maps_and_scenarios_compare_by_value(self):
        dims = GridDims(3, 2)
        a, b = FaultMap.empty(dims), FaultMap.empty(dims)
        assert a == b and a is not b
        a.mark(1, 1)
        assert a != b
        b.mark(1, 1)
        assert a == b
        cfg = SimConfig(dims=dims)
        assert Scenario(cfg, a) == Scenario(SimConfig(dims=GridDims(3, 2)), b)
        assert Scenario(cfg, a) != Scenario(cfg, FaultMap.empty(dims))
        assert Scenario(cfg, a) != Scenario(SimConfig(dims=dims, seed=1), a)

    @pytest.mark.parametrize("value", [FaultMap.empty(GridDims(1, 1)), StressMap.empty(GridDims(1, 1))])
    def test_maps_do_not_hash(self, value):
        with pytest.raises(TypeError):
            hash(value)


class TestDigits:
    def test_numbers_past_20_digits_are_named_by_length(self):
        assert digits(10**19) == digits(str(10**19)) == "10000000000000000000"
        assert digits(-(10**20)) == digits(str(-(10**20))) == "-<21 digits>"

    # the limit of str() on an int: up to it a value is counted, past it named by it
    def test_ints_past_the_str_limit_are_named_by_it(self):
        limit = sys.get_int_max_str_digits()
        assert digits(10**limit - 1) == f"<{limit} digits>"
        assert digits(-(10**limit) + 1) == f"-<{limit} digits>"
        assert digits(10**limit) == f"<more than {limit} digits>"
        assert digits(-(10**limit)) == f"-<more than {limit} digits>"
        assert digits(10 ** (2 * limit)) == f"<more than {limit} digits>"

    def test_without_a_limit_every_int_is_counted(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert digits(10 ** (limit + 100)) == f"<{limit + 101} digits>"
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("build,message", [
        (lambda n: SimConfig(seed=n), "seed must fit in 64 bits, got {}"),
        (lambda n: GridDims(n, 1), "width must be in [1, 1024], got {}"),
        (lambda n: GridDims(1, -n), "height must be in [1, 1024], got -{}"),
    ])
    def test_values_past_the_str_limit_get_the_field_message(self, build, message):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as exc:
            build(10 ** (limit + 700))
        assert str(exc.value) == message.format(f"<more than {limit} digits>")


class TestCellCount:
    @pytest.mark.parametrize("cls,fill", [(FaultMap, False), (StressMap, 0)])
    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_wrong_length_rejected(self, cls, fill, n):
        with pytest.raises(ValueError, match=f"^{n} cells given for a 2x2 grid of 4$"):
            cls(GridDims(2, 2), [fill] * n)


class TestFaultMap:
    @pytest.fixture
    def fmap(self):
        return FaultMap.empty(GridDims(6, 4))

    def test_empty_all_clear(self, fmap):
        assert fault_count(fmap) == 0
        assert fault_cells(fmap) == set()
        for y in range(4):
            for x in range(6):
                assert not is_fault(fmap, x, y)

    def test_mark_and_read_back(self, fmap):
        assert fmap.mark(2, 3) is True
        assert is_fault(fmap, 2, 3)
        assert fault_count(fmap) == 1
        assert fault_cells(fmap) == {(2, 3)}

    def test_is_fault_and_mark_return_bool(self, fmap):
        assert is_fault(fmap, 3, 2) is False
        assert fmap.mark(3, 2) is True
        assert is_fault(fmap, 3, 2) is True
        assert fmap.mark(3, 2) is False

    def test_cells_are_one_byte_each(self, fmap):
        assert fmap.cells == bytearray(24)
        fmap.mark(1, 0)
        clone = copy_grid(fmap)
        assert isinstance(clone.cells, bytearray)
        assert clone.cells == fmap.cells and clone.cells is not fmap.cells

    def test_list_of_bools_becomes_bytes(self):
        fmap = FaultMap(GridDims(2, 2), [False, True, True, False])
        assert isinstance(fmap.cells, bytearray)
        assert fmap.cells == b"\0\1\1\0"
        assert fault_cells(fmap) == {(1, 0), (0, 1)}

    # step's byte lanes add a fault byte as a 1: a 2 would double a fault cell's delta
    @pytest.mark.parametrize("cells", [bytearray([0, 2]), bytearray([1, 255])])
    def test_fault_bytes_other_than_0_and_1_rejected(self, cells):
        with pytest.raises(ValueError, match="^fault cells must be 0 or 1$"):
            FaultMap(GridDims(2, 1), cells)

    def test_mark_idempotent(self, fmap):
        assert fmap.mark(1, 1) is True
        assert fmap.mark(1, 1) is False  # already set: not newly marked
        assert fault_count(fmap) == 1

    @pytest.mark.parametrize("x,y", [(-1, 0), (0, -1), (6, 0), (0, 4)])
    def test_out_of_bounds_raises(self, fmap, x, y):
        with pytest.raises(IndexError):
            is_fault(fmap, x, y)
        with pytest.raises(IndexError):
            fmap.mark(x, y)

    def test_copy_is_independent(self, fmap):
        fmap.mark(0, 0)
        clone = copy_grid(fmap)
        clone.mark(5, 3)
        assert fault_cells(fmap) == {(0, 0)}
        assert fault_cells(clone) == {(0, 0), (5, 3)}

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=40
        )
    )
    def test_fault_cells_matches_marks(self, points):
        fmap = FaultMap.empty(GridDims(6, 4))
        for x, y in points:
            fmap.mark(x, y)
        assert fault_cells(fmap) == set(points)
        assert fault_count(fmap) == len(set(points))


class TestStressMap:
    def test_zeros(self):
        smap = StressMap.empty(GridDims(3, 2))
        assert isinstance(smap.cells, bytearray)
        assert list(smap.cells) == [0] * 6

    def test_put_get_round_trip(self):
        # cells are row-major: (x, y) is cell y * width + x
        smap = StressMap.empty(GridDims(3, 2))
        smap.cells[smap._index(2, 1)] = 97
        assert smap.cells[5] == 97
        assert smap.cells[smap._index(0, 0)] == 0

    @pytest.mark.parametrize("value", [-1, 256])
    def test_zeros_cells_hold_only_bytes(self, value):
        # written straight into the cells, a value outside [0, 256) is refused, not wrapped
        smap = StressMap.empty(GridDims(3, 2))
        with pytest.raises(ValueError):
            smap.cells[4] = value
        assert list(smap.cells) == [0] * 6

    @pytest.mark.parametrize("x,y", [(3, 0), (0, 2), (-1, 1)])
    def test_out_of_bounds_raises(self, x, y):
        smap = StressMap.empty(GridDims(3, 2))
        with pytest.raises(IndexError):
            smap._index(x, y)

    def test_copy_is_independent(self):
        smap = StressMap.empty(GridDims(2, 2))
        smap.cells[3] = 5
        clone = copy_grid(smap)
        clone.cells[0] = 9
        assert smap.cells[0] == 0
        assert clone.cells[3] == 5
