"""Grid coordinate system and the two map types everything else operates on.

Convention used across the whole package: row-major storage, origin at the
top-left, x grows rightward (column index), y grows downward (row index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_DIM = 1024

Cell = tuple[int, int]  # (x, y)


def require_int(name: str, value: object) -> None:
    """Raise ValueError unless value is an int; a bool or a float does not count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GridDims:
    """Validated grid dimensions, 1..1024 cells per side."""

    width: int
    height: int

    def __post_init__(self) -> None:
        for name, value in (("width", self.width), ("height", self.height)):
            require_int(name, value)
            if not 1 <= value <= MAX_DIM:
                raise ValueError(f"{name} must be in [1, {MAX_DIM}], got {value}")

    def contains(self, x: int, y: int) -> bool:
        """True iff (x, y) indexes a cell of this grid. Accepts any integers."""
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass
class _Grid:
    """Row-major cells of one grid, addressed by bounds-checked (x, y)."""

    dims: GridDims
    cells: list | bytearray

    def __post_init__(self) -> None:
        if len(self.cells) != self.dims.area:
            raise ValueError(f"{len(self.cells)} cells given for a "
                             f"{self.dims.width}x{self.dims.height} grid of {self.dims.area}")

    def _index(self, x: int, y: int) -> int:
        if not self.dims.contains(x, y):
            raise IndexError(f"({x}, {y}) outside {self.dims.width}x{self.dims.height} grid")
        return y * self.dims.width + x

    def rows(self) -> Iterator[list | bytearray]:
        """The cells one grid row at a time, top row first."""
        width = self.dims.width
        return (self.cells[start : start + width] for start in range(0, self.dims.area, width))


class FaultMap(_Grid):
    """Occupancy grid, one byte per cell: 1 marks a fault cell, 0 a plain one."""

    cells: bytearray

    def __post_init__(self) -> None:
        if not isinstance(self.cells, bytearray):
            self.cells = bytearray(map(bool, self.cells))
        super().__post_init__()

    @classmethod
    def empty(cls, dims: GridDims) -> FaultMap:
        return cls(dims, bytearray(dims.area))

    def mark(self, x: int, y: int) -> bool:
        """Set (x, y) to fault; returns True if the cell was newly set."""
        i = self._index(x, y)
        if self.cells[i]:
            return False
        self.cells[i] = 1
        return True


class StressMap(_Grid):
    """Per-cell accumulated stress; values are non-negative integers.

    A new map holds its cells in a bytearray, one byte each, and switches to
    a list of ints (`widen`) the first time a value above 255 is stored.
    """

    @classmethod
    def zeros(cls, dims: GridDims) -> StressMap:
        return cls(dims, bytearray(dims.area))

    def widen(self) -> list[int]:
        """The cells as a list of ints, switching a bytearray to one, same values, in place."""
        if isinstance(self.cells, bytearray):
            self.cells = list(self.cells)
        return self.cells

    def get(self, x: int, y: int) -> int:
        return self.cells[self._index(x, y)]

    def put(self, x: int, y: int, value: int) -> None:
        require_int("stress", value)
        if value < 0:
            raise ValueError(f"stress must be non-negative, got {value}")
        i = self._index(x, y)
        cells = self.widen() if value > 0xFF else self.cells
        cells[i] = value
