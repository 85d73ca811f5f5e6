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

from lab_twin._seeds import derive_rng, derive_seed
from lab_twin.errors import InputError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class ClassGrid:
    """Square grid of class ids {0, 1}; side is a power of two.

    Side 1 is allowed only as the terminal result of repeated coarsening;
    fresh grids and coarsening inputs must have side >= 2.
    """

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.uint8)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise InputError(f"cells must be square, got shape {cells.shape}")
        if not _is_power_of_two(cells.shape[0]):
            raise InputError(f"side must be a power of two, got {cells.shape[0]}")
        if not np.isin(cells, (0, 1)).all():
            raise InputError("cells must contain only class ids 0 and 1")
        cells.setflags(write=False)
        self.cells = cells

    @property
    def side(self) -> int:
        return self.cells.shape[0]

    @property
    def red_share(self) -> float:
        return float(self.cells.mean())


def init_grid(side: int, p_red: float, seed: int = 0) -> ClassGrid:
    """iid Bernoulli(p_red) grid; deterministic per seed."""
    if not _is_power_of_two(side) or side < 2:
        raise InputError(f"side must be a power of two >= 2, got {side}")
    if not (0.0 <= p_red <= 1.0):
        raise InputError(f"p_red must be in [0, 1], got {p_red}")
    rng = derive_rng(seed, "grid-init")
    cells = (rng.random((side, side)) < p_red).astype(np.uint8)
    return ClassGrid(cells)


def coarsen(grid: ClassGrid, seed: int = 0) -> ClassGrid:
    """One 2x2 majority step; ties flip a per-block seeded coin.

    Tie bits come from a counter-based stream indexed by block position,
    so block outcomes are reproducible and independent of evaluation
    order (parallel and serial coarsenings agree).
    """
    side = grid.side
    if side < 2:
        raise InputError("cannot coarsen a side-1 grid")
    half = side // 2
    blocks = grid.cells.reshape(half, 2, half, 2).sum(axis=(1, 3))
    out = (blocks > 2).astype(np.uint8)
    ties = blocks == 2
    if ties.any():
        bits = (derive_rng(seed, "tie-break").random((half, half)) < 0.5)
        out[ties] = bits[ties].astype(np.uint8)
    return ClassGrid(out)


def expected_coarse_share(p: float) -> float:
    """Expected red share after one step on iid Bernoulli(p) cells.

    Enumeration over the 16 block configurations: 4 or 3 red cells win
    outright, the 6 tied configurations win half the time.
    """
    q = 1.0 - p
    return p ** 4 + 4.0 * p ** 3 * q + 3.0 * p ** 2 * q ** 2


def amplification_curve(side: int, p_red: float, levels: int,
                        seed: int = 0) -> list[tuple[int, float]]:
    """Red share per coarsening level, including level 0."""
    max_levels = int(math.log2(side))
    if levels > max_levels:
        raise InputError(f"levels {levels} exceeds log2(side) = {max_levels}")
    if levels < 0:
        raise InputError(f"levels must be >= 0, got {levels}")
    grid = init_grid(side, p_red, seed=derive_seed(seed, "init"))
    curve = [(0, grid.red_share)]
    for level in range(1, levels + 1):
        grid = coarsen(grid, seed=derive_seed(seed, "coarsen", level))
        curve.append((level, grid.red_share))
    return curve


def write_pbm(grid: ClassGrid, path) -> None:
    """Plain portable-bitmap dump (P1); red cells are 1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P1\n")
        fh.write(f"{grid.side} {grid.side}\n")
        for row in grid.cells:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
