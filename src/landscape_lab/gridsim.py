"""Majority-rule coarsening of two-class grids.

Class landscapes are square grids of cells labeled 0 (minority, "blue") or
1 (majority, "red"). Coarsening halves the side: each output cell takes the
majority class of its 2x2 block, with 2-2 ties resolved by a fair coin from
a per-block seeded stream. For iid Bernoulli(p) cells one step maps the red
share to

    m(p) = p^4 + 4 p^3 (1-p) + 3 p^2 (1-p)^2

which exceeds p on (0.5, 1), so any initial bias is amplified and the
amplification compounds across levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from landscape_lab._seeds import derive_rng, derive_seed
from landscape_lab.errors import InputError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class ClassGrid:
    """Square grid of class ids {0, 1}; side is a power of two.

    Side 1 is allowed only as the terminal result of repeated coarsening;
    fresh grids and coarsening inputs must have side >= 2. The cells are a
    read-only uint8 copy of the caller's array; the module's own
    constructors hand over the arrays they just made (_adopt), uncopied.
    """

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise InputError(f"cells must be square, got shape {cells.shape}")
        if not _is_power_of_two(cells.shape[0]):
            raise InputError(f"side must be a power of two, got {cells.shape[0]}")
        if cells.dtype == np.uint8:
            valid = cells.max() <= 1    # no temporary as large as the grid
        else:
            valid = cells.dtype == np.bool_ or ((cells == 0) | (cells == 1)).all()
        if not valid:
            raise InputError("cells must contain only class ids 0 and 1")
        cells = np.array(cells, dtype=np.uint8)    # the caller's array stays theirs
        cells.setflags(write=False)
        self.cells = cells

    @classmethod
    def _adopt(cls, cells: np.ndarray) -> "ClassGrid":
        """A grid that takes ownership of cells, a square uint8 array of
        class ids that no one else holds: made read-only, not checked or
        copied."""
        cells.setflags(write=False)
        grid = cls.__new__(cls)
        grid.cells = cells
        return grid

    @property
    def side(self) -> int:
        return self.cells.shape[0]

    @property
    def red_share(self) -> float:
        return int(np.count_nonzero(self.cells)) / self.cells.size


def _draws_below(rng: np.random.Generator, side: int, p: float) -> np.ndarray:
    """rng.random((side, side)) < p as uint8, drawn a block of rows at a
    time into one reused buffer (the blocks do not change the stream) and
    compared into bools that are viewed, not cast, as uint8."""
    out = np.empty((side, side), dtype=np.bool_)
    buf = np.empty((max(1, min(side, (1 << 16) // side)), side))
    for lo in range(0, side, buf.shape[0]):
        np.less(rng.random(out=buf[:side - lo]), p, out=out[lo:lo + buf.shape[0]])
    return out.view(np.uint8)


def init_grid(side: int, p_red: float, seed: int = 0) -> ClassGrid:
    """iid Bernoulli(p_red) grid; deterministic per seed."""
    if not _is_power_of_two(side) or side < 2:
        raise InputError(f"side must be a power of two >= 2, got {side}")
    if not (0.0 <= p_red <= 1.0):
        raise InputError(f"p_red must be in [0, 1], got {p_red}")
    return ClassGrid._adopt(_draws_below(derive_rng(seed, "grid-init"), side, p_red))


def coarsen(grid: ClassGrid, seed: int = 0) -> ClassGrid:
    """One 2x2 majority step; ties flip a per-block seeded coin.

    Block counts are uint8 sums (at most 4, no overflow): whole row pairs
    into one reused buffer of 2^18 cells, then its column pairs. Tie bits
    come from a counter-based stream indexed by block position, so block
    outcomes are reproducible and independent of evaluation order. A tie
    is never a majority: the draws, kept at ties only, are or-ed with the
    majorities into the draws' array (a lower peak RSS than the reverse).
    """
    if grid.side < 2:
        raise InputError("cannot coarsen a side-1 grid")
    c = grid.cells.reshape(grid.side // 2, 2, grid.side)
    blocks = np.empty((len(c), len(c)), dtype=np.uint8)
    pairs = np.empty((max(1, min(len(c), (1 << 18) // grid.side)), grid.side), dtype=np.uint8)
    for lo in range(0, len(c), len(pairs)):
        rows = np.add(c[lo:lo + len(pairs), 0], c[lo:lo + len(pairs), 1], out=pairs[:len(c) - lo])
        np.add(rows[:, 0::2], rows[:, 1::2], out=blocks[lo:lo + len(pairs)])
    out = (blocks > 2).view(np.uint8)
    ties = blocks == 2
    if ties.any():
        draws = _draws_below(derive_rng(seed, "tie-break"), len(out), 0.5)
        out = np.bitwise_or(out, np.bitwise_and(draws, ties, out=draws), out=draws)
    return ClassGrid._adopt(out)


def coarsening_levels(side: int, p_red: float, levels: int, seed: int = 0):
    """Yield (level, grid) from the initial grid (level 0) to `levels`."""
    max_levels = int(math.log2(side))
    if levels > max_levels:
        raise InputError(f"levels {levels} exceeds log2(side) = {max_levels}")
    if levels < 0:
        raise InputError(f"levels must be >= 0, got {levels}")
    grid = init_grid(side, p_red, seed=derive_seed(seed, "init"))
    yield 0, grid
    for level in range(1, levels + 1):
        grid = coarsen(grid, seed=derive_seed(seed, "coarsen", level))
        yield level, grid


def write_pbm(grid: ClassGrid, path) -> None:
    """Plain portable-bitmap dump (P1); red cells are 1."""
    text = np.full((grid.side, 2 * grid.side), ord(" "), dtype=np.uint8)
    text[:, 0::2] = grid.cells + ord("0")
    text[:, -1] = ord("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P1\n")
        fh.write(f"{grid.side} {grid.side}\n")
        fh.write(text.tobytes().decode("ascii"))
