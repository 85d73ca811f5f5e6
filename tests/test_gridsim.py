import math

import numpy as np
import pytest

import oracles
from landscape_lab._seeds import derive_rng
from landscape_lab.errors import InputError
from landscape_lab.gridsim import (
    ClassGrid,
    coarsen,
    coarsening_levels,
    init_grid,
    write_pbm,
)


def test_grid_validation():
    with pytest.raises(InputError):
        init_grid(100, 0.5)          # not a power of two
    with pytest.raises(InputError):
        init_grid(64, 1.5)
    with pytest.raises(InputError):
        ClassGrid(np.zeros((4, 8), dtype=np.uint8))
    with pytest.raises(InputError):
        ClassGrid(np.full((4, 4), 2, dtype=np.uint8))
    # out-of-range and fractional ids are rejected, not wrapped or truncated
    for bad in ([[256, 1], [0, 0]], [[-255, 1], [0, 0]], [[0.5, 1], [0, 0]],
                [[1.9, 1], [0, 0]]):
        with pytest.raises(InputError):
            ClassGrid(np.array(bad))
    cells = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    for ok in (cells, cells.astype(bool), cells.astype(np.int64), cells.astype(float)):
        grid = ClassGrid(ok)
        assert grid.cells.dtype == np.uint8 and np.array_equal(grid.cells, cells)
    # the grid keeps a read-only copy: the caller's array stays writable,
    # and a later write to it does not reach the grid
    a = np.zeros((4, 4), np.uint8)
    grid = ClassGrid(a)
    assert grid.cells is not a and a.flags.writeable
    a[0, 0] = 1
    assert grid.cells[0, 0] == 0 and not grid.cells.flags.writeable


def test_init_extremes_and_lln():
    assert init_grid(64, 1.0, seed=0).red_share == 1.0
    assert init_grid(64, 0.0, seed=0).red_share == 0.0
    g = init_grid(512, 0.9, seed=1)
    sigma = math.sqrt(0.9 * 0.1 / 512 ** 2)
    assert abs(g.red_share - 0.9) < 3 * sigma


def test_init_deterministic():
    a = init_grid(128, 0.35, seed=42)
    b = init_grid(128, 0.35, seed=42)
    assert np.array_equal(a.cells, b.cells)


def test_coarsen_all_red_identity_on_shares():
    g = init_grid(64, 1.0, seed=0)
    assert coarsen(g, seed=0).red_share == 1.0


def test_coarsen_halves_side_down_to_one():
    g = init_grid(64, 0.5, seed=3)
    assert coarsen(g, seed=0).side == 32
    tiny = coarsen(coarsen(coarsen(init_grid(8, 0.5, seed=1), 1), 2), 3)
    assert tiny.side == 1
    with pytest.raises(InputError):
        coarsen(tiny, seed=4)


def test_coarsen_deterministic_tie_stream():
    g = init_grid(128, 0.5, seed=9)
    a = coarsen(g, seed=4)
    b = coarsen(g, seed=4)
    assert np.array_equal(a.cells, b.cells)
    c = coarsen(g, seed=5)
    assert not np.array_equal(a.cells, c.cells)


def test_enumeration_map_amplifies_bias():
    assert oracles.coarse_share_enumeration(0.5) == pytest.approx(0.5)
    for p in (0.55, 0.6, 0.7, 0.8, 0.9, 0.99):
        assert oracles.coarse_share_enumeration(p) > p


def test_coarsen_matches_enumeration_map():
    # frozen expectations re-derived from the 16-configuration enumeration
    assert oracles.coarse_share_enumeration(0.9) == pytest.approx(0.9720, abs=1e-4)
    assert oracles.coarse_share_enumeration(0.6) == pytest.approx(0.6480, abs=1e-4)
    for seed, p in enumerate((0.5, 0.6, 0.7, 0.8, 0.9)):
        g = init_grid(512, p, seed=seed)
        out = coarsen(g, seed=seed)
        expected = oracles.coarse_share_enumeration(g.red_share)
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / out.side ** 2)
        assert abs(out.red_share - expected) < 3 * sigma, (p, out.red_share, expected)


def test_amplification_curve_balanced_flat():
    curve = [(a, g.red_share) for a, g in coarsening_levels(512, 0.5, 3, seed=2)]
    # per-level cell counts shrink; use the last level's count for all
    sigma = math.sqrt(0.25 / (512 / 2 ** 3) ** 2)
    for _, share in curve:
        assert abs(share - 0.5) < 3 * sigma


def test_amplification_curve_iterated_map():
    curve = {a: g.red_share for a, g in coarsening_levels(512, 0.9, 3, seed=11)}
    m1 = oracles.coarse_share_enumeration(0.9)
    m2 = oracles.coarse_share_enumeration(m1)
    assert curve[1] == pytest.approx(m1, abs=0.005)
    assert curve[2] == pytest.approx(m2, abs=0.003)
    shares = [curve[k] for k in sorted(curve)]
    assert all(b > a for a, b in zip(shares, shares[1:]))


def test_amplification_curve_ordering_preserved():
    curves = {p: {a: g.red_share for a, g in coarsening_levels(512, p, 3, seed=13)}
              for p in (0.6, 0.7, 0.8, 0.9)}
    for level in range(4):
        shares = [curves[p][level] for p in (0.6, 0.7, 0.8, 0.9)]
        assert all(b > a for a, b in zip(shares, shares[1:]))


def test_amplification_curve_determinism_and_bounds():
    curve = [(a, g.red_share) for a, g in coarsening_levels(256, 0.7, 2, seed=21)]
    assert curve == [(a, g.red_share) for a, g in coarsening_levels(256, 0.7, 2, seed=21)]
    with pytest.raises(InputError):
        list(coarsening_levels(64, 0.7, 7, seed=0))   # exceeds log2(side)


def test_write_pbm(tmp_path):
    g = init_grid(4, 0.5, seed=1)
    path = tmp_path / "g.pbm"
    write_pbm(g, path)
    text = path.read_text().splitlines()
    assert text[0] == "P1"
    assert text[1] == "4 4"
    assert len(text) == 6


def blockwise_coarsen(cells, seed):
    # reference: the reshape-and-sum coarsening with masked tie assignment
    half = cells.shape[0] // 2
    blocks = cells.reshape(half, 2, half, 2).sum(axis=(1, 3))
    out = (blocks > 2).astype(np.uint8)
    ties = blocks == 2
    if ties.any():
        bits = derive_rng(seed, "tie-break").random((half, half)) < 0.5
        out[ties] = bits[ties].astype(np.uint8)
    return out


def per_cell_pbm(cells):
    # reference: one str(int(v)) per cell
    text = f"P1\n{cells.shape[0]} {cells.shape[0]}\n"
    return text + "".join(" ".join(str(int(v)) for v in row) + "\n" for row in cells)


@pytest.mark.parametrize("side", [2 ** k for k in range(1, 11)])
def test_init_and_coarsen_match_whole_grid_draws(side, tmp_path):
    rng = np.random.default_rng(side)
    tie_free = np.kron(rng.random((side // 2, side // 2)) < 0.6, np.ones((2, 2)))
    cases = {"random": rng.random((side, side)) < 0.5,
             "all-tie": np.tile([[1, 0], [0, 1]], (side // 2, side // 2)),
             "tie-free": tie_free}
    for p in (0.0, 0.3, 0.5, 1.0):
        expected = derive_rng(side, "grid-init").random((side, side)) < p
        assert np.array_equal(init_grid(side, p, seed=side).cells, expected)
    for name, cells in cases.items():
        cells = cells.astype(np.uint8)
        for seed in (0, 3, 7):
            out = coarsen(ClassGrid(cells), seed=seed)
            expected = blockwise_coarsen(cells, seed)
            assert out.cells.dtype == np.uint8
            assert np.array_equal(out.cells, expected), name
            assert out.red_share == float(expected.mean()), name
            write_pbm(out, tmp_path / "g.pbm")
            assert (tmp_path / "g.pbm").read_bytes() == per_cell_pbm(expected).encode()


def test_coarsening_levels_is_the_curve():
    grids = list(coarsening_levels(64, 0.7, 3, seed=5))
    assert [level for level, _ in grids] == [0, 1, 2, 3]
    assert [g.side for _, g in grids] == [64, 32, 16, 8]
