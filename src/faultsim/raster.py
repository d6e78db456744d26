"""Integer rasterization of fault geometry onto a FaultMap.

Lines and segments use Bresenham-style error accumulation; circles use the
midpoint circle algorithm with 8-octant mirroring. All coordinate math is
exact integer arithmetic, so the drawn cell sets are reproducible anywhere.

Anchor validation mirrors what each shape checks: vertical/horizontal lines
and segment endpoints must lie on the grid, a circle needs a non-negative
radius and a center on the grid, but the circle itself may crop at the edges
(discarded, never wrapped).
"""

from __future__ import annotations

from .grid import Cell, FaultMap, digits


class OutOfRangeError(ValueError):
    """A user-supplied shape parameter lies outside the range its shape accepts."""


def segment_cells(x0: int, y0: int, x1: int, y1: int) -> list[Cell]:
    """Bresenham rasterization of the segment (x0, y0)-(x1, y1).

    Endpoints are reordered so the lexicographically smaller (x, then y)
    comes first, making the result a function of the unordered pair. Where
    the true line crosses exactly halfway between two cells, the cell with
    the lower minor-axis coordinate wins (lower y for shallow lines, lower
    x for steep ones). Endpoints are always included and the chain is
    8-connected.
    """
    if (x1, y1) < (x0, y0):
        x0, y0, x1, y1 = x1, y1, x0, y0
    dx = x1 - x0  # >= 0 after reordering
    dy = abs(y1 - y0)
    sy = 1 if y1 >= y0 else -1
    # walk the major axis one cell at a time: (mx, my) is its unit step, (nx, ny) the minor one
    if dx >= dy:
        major, minor, (mx, my), (nx, ny) = dx, dy, (1, 0), (0, sy)
    else:
        major, minor, (mx, my), (nx, ny) = dy, dx, (0, sy), (1, 0)
    up = ny < 0  # a tie keeps the lower minor coordinate, so only a step up the page takes it
    x, y = x0, y0
    cells = [(x, y)]
    # acc tracks 2*(k*minor - r*major): twice the signed distance numerator
    # between the ideal minor offset and the chosen one.
    acc = 0
    for _ in range(major):
        x += mx
        y += my
        acc += 2 * minor
        if acc > major or (up and acc == major):
            x += nx
            y += ny
            acc -= 2 * major
        cells.append((x, y))
    return cells


def circle_cells(cx: int, cy: int, r: int) -> set[Cell]:
    """Midpoint circle of radius r centered at (cx, cy), unclipped.

    Walks the second octant with the classic integer decision variable and
    mirrors each point across all eight octants; duplicates on the axes and
    diagonals collapse in the returned set. r = 0 degenerates to the center
    cell alone.
    """
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {digits(r)}")
    cells: set[Cell] = set()

    def plot(px: int, py: int) -> None:
        for ox, oy in ((px, py), (py, px)):
            cells.update(((cx + ox, cy + oy), (cx - ox, cy + oy), (cx + ox, cy - oy), (cx - ox, cy - oy)))

    x, y, d = 0, r, 1 - r
    plot(x, y)
    while y > x:
        if d < 0:
            d += 2 * x + 3
        else:
            d += 2 * (x - y) + 5
            y -= 1
        x += 1
        plot(x, y)
    return cells


def draw_vertical(fault_map: FaultMap, x: int) -> int:
    """Mark the full column at x; returns the number of newly set cells."""
    dims = fault_map.dims
    if not 0 <= x < dims.width:
        raise OutOfRangeError(f"x={digits(x)} outside [0, {dims.width})")
    return sum(fault_map.mark(x, y) for y in range(dims.height))


def draw_horizontal(fault_map: FaultMap, y: int) -> int:
    """Mark the full row at y; returns the number of newly set cells."""
    dims = fault_map.dims
    if not 0 <= y < dims.height:
        raise OutOfRangeError(f"y={digits(y)} outside [0, {dims.height})")
    return sum(fault_map.mark(x, y) for x in range(dims.width))


def draw_segment(fault_map: FaultMap, x0: int, y0: int, x1: int, y1: int) -> int:
    """Mark the Bresenham segment between two in-bounds endpoints.

    Both endpoints are validated up front, so the rasterized chain never
    leaves the grid and no clipping is needed. Returns newly set cells.
    """
    dims = fault_map.dims
    for px, py in ((x0, y0), (x1, y1)):
        if not dims.contains(px, py):
            raise OutOfRangeError(f"endpoint ({digits(px)}, {digits(py)}) outside "
                                  f"{dims.width}x{dims.height} grid")
    return sum(fault_map.mark(x, y) for x, y in segment_cells(x0, y0, x1, y1))


def draw_circle(fault_map: FaultMap, cx: int, cy: int, r: int) -> int:
    """Mark the midpoint circle around an in-bounds center, cropped to the grid.

    Candidate cells falling outside the grid are silently discarded; the
    circle never wraps. Returns the number of newly set cells.
    """
    if r < 0:  # reported ahead of an off-grid center
        raise OutOfRangeError("radius must be non-negative.")
    dims = fault_map.dims
    if not dims.contains(cx, cy):
        raise OutOfRangeError(f"center ({digits(cx)}, {digits(cy)}) outside "
                              f"{dims.width}x{dims.height} grid")
    # every cell the midpoint circle plots lies above squared distance r*r - r - 1 from its
    # center: past the farthest corner none lands, and circle_cells would still grow with r
    if max(cx, dims.width - 1 - cx) ** 2 + max(cy, dims.height - 1 - cy) ** 2 <= r * r - r - 1:
        return 0
    return sum(fault_map.mark(x, y) for x, y in circle_cells(cx, cy, r) if dims.contains(x, y))
