"""Grid coordinate system and the two map types everything else operates on.

Convention used across the whole package: row-major storage, origin at the
top-left, x grows rightward (column index), y grows downward (row index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

MAX_DIM = 1024

Cell = tuple[int, int]  # (x, y)

_G = TypeVar("_G", bound="_Grid")


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

    @classmethod
    def empty(cls: type[_G], dims: GridDims) -> _G:
        """A map of dims whose cells are all 0, held in bytes."""
        return cls(dims, bytearray(dims.area))

    def _index(self, x: int, y: int) -> int:
        if not self.dims.contains(x, y):
            raise IndexError(f"({x}, {y}) outside {self.dims.width}x{self.dims.height} grid")
        return y * self.dims.width + x


class FaultMap(_Grid):
    """Occupancy grid, one byte per cell: 1 marks a fault cell, 0 a plain one."""

    cells: bytearray

    def __post_init__(self) -> None:
        if not isinstance(self.cells, bytearray):
            self.cells = bytearray(map(bool, self.cells))
        super().__post_init__()

    def mark(self, x: int, y: int) -> bool:
        """Set (x, y) to fault; returns True if the cell was newly set."""
        i = self._index(x, y)
        if self.cells[i]:
            return False
        self.cells[i] = 1
        return True


class StressMap(_Grid):
    """Per-cell accumulated stress; values are non-negative integers.

    A new map holds its cells in a bytearray, one byte each; engine.step
    switches them to a list of ints the first time it must store a value
    above 255.
    """
