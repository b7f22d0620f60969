"""The sandwich in row tiles against the row-block sandwich it replaces.

``estimate._sandwich_se`` forms psi, one column per system, in one loop
over blocks of ``_ROW_BLOCK`` rows and their row tiles.  A block is one
tile unless it would hold more than ``_PSI_CELLS`` cells of psi, so a
single dataset's working set does not grow with the number of pairs.
Every SE must keep the bits of the row-block code, and of itself on one
BLAS thread or two.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from negcontrol import estimate
from negcontrol.data import _ROW_BLOCK, _centre
from negcontrol.estimate import _layout, _sandwich_se, _solve_centred

CANDIDATES = tuple(f"Z{i}" for i in range(1, 31))
NAMES = ("T", "O", *CANDIDATES)
ORDERED = [(a, b) for a in range(30) for b in range(30) if a != b]
# a lone system (padded to two), 32 pairs over the first 9 candidates, and
# all 870 ordered pairs of the 30
SYSTEMS = {1: ORDERED[:1], 32: [(a, b) for a, b in ORDERED
                                 if a < 9 and b < 9][:32], 870: ORDERED}


def _row_block_sandwich_se(xc, layout, beta, inv, j, weights,
                           psi_cells=1 << 17):
    """``_sandwich_se`` as it was before row tiles: each block of
    ``_ROW_BLOCK`` rows is formed whole, however many systems it holds."""
    qs, ms, y = layout
    *stack, n, width = xc.shape
    p = beta.shape[-2]
    cols = np.arange(p)[:, None]
    resid = np.zeros((*stack, width, max(p, 2)))
    resid[..., y, :] = 1.0
    resid[..., ms, cols] = -beta
    instr = np.zeros_like(resid)
    instr[..., qs, cols] = inv[..., j, :]
    sumsq = np.zeros((*stack, resid.shape[-1]))
    total = np.zeros(stack)
    size = max(1, psi_cells // (resid.shape[-1] * min(n, _ROW_BLOCK)))
    parts = ([slice(a, a + size) for a in range(0, stack[0], size)]
             if stack else [...])
    row = (min(size, stack[0]) if stack else 1) * resid.shape[-1]
    buffer = np.empty(2 * row * min(n, _ROW_BLOCK))
    for part in parts:
        for start in range(0, n, _ROW_BLOCK):
            rows = xc[part][..., start:start + _ROW_BLOCK, :]
            shape = (*rows.shape[:-1], resid.shape[-1])
            cells = math.prod(shape)
            psi = np.matmul(rows, resid[part],
                            out=buffer[:cells].reshape(shape))
            psi *= np.matmul(rows, instr[part],
                             out=buffer[cells:2 * cells].reshape(shape))
            sumsq[part] += np.einsum("...ij,...ij->...j", psi, psi)
            influence = psi[..., :p] @ weights
            total[part] += (influence[..., None, :]
                            @ influence[..., None])[..., 0, 0]
    return np.sqrt(sumsq[..., :p]) / n, (np.sqrt(total) / n).tolist()


def _case(stack, n, systems):
    """Centred one-factor-like columns of ``stack`` datasets of ``n`` rows,
    T and O driven by the candidates, with the solved systems of the pairs
    ``systems``: (xc, layout, beta, inv, weights)."""
    rng = np.random.default_rng((len(stack), n, systems))
    values = rng.normal(size=(*stack, n, len(NAMES)))
    values += rng.normal(size=(*stack, n, 1))  # the shared factor
    values[..., 0] += 0.5 * values[..., 2:].sum(axis=-1)
    values[..., 1] += values[..., 0] + 0.3 * values[..., 2:].sum(axis=-1)
    values *= 10.0 ** rng.integers(-2, 3, size=len(NAMES))
    xc, _, gram = _centre(values)
    z, w = zip(*SYSTEMS[systems])
    layout = _layout(NAMES.index, CANDIDATES, z, w, "T", "O")
    # a singular system (n = 1) is solved as an identity
    beta, inv = _solve_centred(gram / n, *layout, errors=[])
    weights = rng.uniform(size=systems)
    return xc, layout, beta, inv, weights / weights.sum()


def _bits(*arrays) -> list:
    return [np.asarray(array).tobytes() for array in arrays]


budgets = pytest.mark.parametrize("cells", [1, 300, None])


@budgets
@pytest.mark.parametrize("systems", [1, 32, 870])
@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 3 * 8192 + 77])
def test_tiles_match_row_blocks(monkeypatch, n, systems, cells):
    xc, layout, beta, inv, weights = _case((), n, systems)
    want = _row_block_sandwich_se(xc, layout, beta, inv, 1, weights)
    if cells is not None:
        monkeypatch.setattr(estimate, "_PSI_CELLS", cells)
    got = _sandwich_se(xc, layout, beta, inv, 1, weights)
    assert got[0].shape == (systems,) and isinstance(got[1], float)
    assert _bits(*got) == _bits(*want)


@budgets
@pytest.mark.parametrize("systems", [1, 32, 870])
@pytest.mark.parametrize("r", [1, 3, 5])
def test_tiles_match_row_blocks_in_a_stack(monkeypatch, r, systems, cells):
    xc, layout, beta, inv, weights = _case((r,), 8193, systems)
    want = _row_block_sandwich_se(xc, layout, beta, inv, 1, weights)
    if cells is not None:
        monkeypatch.setattr(estimate, "_PSI_CELLS", cells)
    got = _sandwich_se(xc, layout, beta, inv, 1, weights)
    assert got[0].shape == (r, systems) and len(got[1]) == r
    assert _bits(*got) == _bits(*want)


@pytest.mark.parametrize("n", [10_000, 40_000])
def test_wide_sandwich_working_set_does_not_grow_with_n(n):
    # 870 pairs: a whole 8 192-row block of psi and its second product
    # would take 114 MB; a tile holds the budget's rows, or the floor's
    xc, layout, beta, inv, weights = _case((), n, 870)
    pairs, width = 870, xc.shape[-1]
    rows = max(estimate._TILE_FLOOR, estimate._PSI_CELLS // pairs) + 1
    # the tile's two products, B and C, a block's weighted influence, and
    # 256 KiB for the rest
    bound = 8 * (2 * rows * pairs + 2 * width * pairs + _ROW_BLOCK) + (1 << 18)
    tracemalloc.start()
    try:
        _sandwich_se(xc, layout, beta, inv, 1, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


_CHILD = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
from test_sandwich_tiles import _bits, _case
from negcontrol.estimate import _sandwich_se
digest = hashlib.sha256()
for stack, n, systems in (((), 20_000, 870), ((3,), 8193, 32)):
    xc, layout, beta, inv, weights = _case(stack, n, systems)
    for bits in _bits(*_sandwich_se(xc, layout, beta, inv, 1, weights)):
        digest.update(bits)
print(digest.hexdigest())
"""


def test_tiles_keep_their_bits_on_one_or_two_blas_threads():
    # a tile's GEMM may round a few cells otherwise on two threads than on
    # one; the SEs of 870 pairs, and of a stack in parts, must not move
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", _CHILD, str(here)],
                               env=env, capture_output=True, text=True,
                               timeout=300)
        assert child.returncode == 0, child.stderr
        digests.append(child.stdout.strip())
    assert digests[0] == digests[1]
