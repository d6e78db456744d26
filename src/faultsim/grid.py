"""Grid coordinate system, the two map types everything else operates on, and Value.

Convention used across the whole package: row-major storage, origin at the
top-left, x grows rightward (column index), y grows downward (row index).
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import TypeVar

MAX_DIM = 1024

Cell = tuple[int, int]  # (x, y)

_G = TypeVar("_G", bound="_Grid")
_set = object.__setattr__  # how Value.__init__ stores a field past Value.__setattr__


def require_int(name: str, value: object) -> None:
    """Raise ValueError unless value is an int; a bool or a float does not count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def digits(number: int | str) -> str:
    """A number or its text for an error line; past 20 digits (a 64-bit value's most), its length."""
    limit = sys.get_int_max_str_digits()  # 0 for none; str() raises on an int of more digits
    if isinstance(number, int) and limit and abs(number) >= 10**limit:
        return f"{'-' if number < 0 else ''}<more than {limit} digits>"
    text = str(number)
    n = len(text.lstrip("-"))
    return text if n <= 20 else f"{text[: len(text) - n]}<{n} digits>"  # the sign stays


class Value:
    """A record of _FIELDS, one slot each, set once by __init__ from one value each, else TypeError.

    Equal, and hash equal, when the classes and fields are; weakly referable.
    A subclass whose fields change restores __setattr__ and drops __hash__.
    """

    __slots__ = ("__weakref__",)
    _FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._FIELDS)  # what compares and hashes, read in one C call

    def __init__(self, *values: object) -> None:
        if len(values) != (n := len(self._FIELDS)):
            raise TypeError(f"{type(self).__name__} takes {n} values, got {len(values)}")
        for name, value in zip(self._FIELDS, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__, which validates
        return type(self), tuple(getattr(self, name) for name in self._FIELDS)


class GridDims(Value):
    """Validated grid dimensions, 1..1024 cells per side."""

    __slots__ = _FIELDS = ("width", "height")

    def __init__(self, width: int, height: int) -> None:
        for name, value in (("width", width), ("height", height)):
            require_int(name, value)
            if not 1 <= value <= MAX_DIM:
                raise ValueError(f"{name} must be in [1, {MAX_DIM}], got {digits(value)}")
        super().__init__(width, height)

    def contains(self, x: int, y: int) -> bool:
        """True iff (x, y) indexes a cell of this grid. Accepts any integers."""
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def area(self) -> int:
        return self.width * self.height


class _Grid(Value):
    """Row-major cells of one grid, addressed by bounds-checked (x, y)."""

    __slots__ = _FIELDS = ("dims", "cells")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__  # step may swap cells
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, dims: GridDims, cells: list | bytearray) -> None:
        super().__init__(dims, cells)
        if len(cells) != dims.area:
            raise ValueError(f"{len(cells)} cells given for a "
                             f"{dims.width}x{dims.height} grid of {dims.area}")

    @classmethod
    def empty(cls: type[_G], dims: GridDims) -> _G:
        """A map of dims whose cells are all 0, held in bytes."""
        return cls(dims, bytearray(dims.area))

    def _index(self, x: int, y: int) -> int:
        if not self.dims.contains(x, y):
            raise IndexError(f"({x}, {y}) outside {self.dims.width}x{self.dims.height} grid")
        return y * self.dims.width + x


class FaultMap(_Grid):
    """Occupancy grid, one byte per cell: 1 marks a fault cell, 0 a plain one.

    A map is built of 0s and 1s, but what a byte means is its truth: TRUTH maps
    each byte to 0 or 1, and the step, the fault-map frame and the scenario
    writer all read fault bytes through it. So any nonzero byte written into
    `cells` later steps, draws and saves as a fault.
    """

    TRUTH = b"\0" + b"\1" * 255  # a fault byte's truth, as a translate table
    cells: bytearray

    def __init__(self, dims: GridDims, cells: bytearray | list[int]) -> None:
        if not isinstance(cells, bytearray):  # a list is read by truth
            cells = bytearray(map(bool, cells))
        # in 64 KB pieces: one translate would copy the map; count(0) + count(1) is 3-20x slower
        elif any(cells[i:i + 65536].translate(None, b"\0\1") for i in range(0, len(cells), 65536)):
            raise ValueError("fault cells must be 0 or 1")
        super().__init__(dims, cells)

    def mark(self, x: int, y: int) -> bool:
        """Set (x, y) to fault; returns True if the cell was newly set."""
        i = self._index(x, y)
        if self.cells[i]:
            return False
        self.cells[i] = 1
        return True


class StressMap(_Grid):
    """Per-cell accumulated stress; values are non-negative integers.

    A new map holds its cells in a bytearray, one byte each. A step keeps
    only cells below the quake threshold, so engine.step switches them to a
    list of ints, before its first draw, only when the threshold is above 256.
    """
