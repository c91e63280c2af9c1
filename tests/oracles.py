"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's packed-int
elimination, Tanner-graph gathers and BFS code paths: products come
from dense numpy matmul, ranks from dense numpy elimination, row-space
membership from exhaustive enumeration, and short cycles from explicit
pattern search, so the two sides of each comparison share no
implementation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def mul_mod2(A, B) -> np.ndarray:
    """Exact A @ B over GF(2) for dense 0/1 arrays (matrices or vectors).

    The float64 product is exact: each entry counts at most the inner
    dimension of ones, far below 2**53.
    """
    prod = np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)
    return (prod.astype(np.int64) % 2).astype(np.uint8)


def dense_echelon(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-echelon form over GF(2) on a dense uint8 matrix."""
    R = (np.asarray(M, dtype=np.uint8) % 2).copy()
    m, n = R.shape
    pivot_cols = []
    row = 0
    for col in range(n):
        hit = -1
        for r in range(row, m):
            if R[r, col]:
                hit = r
                break
        if hit < 0:
            continue
        if hit != row:
            R[[row, hit]] = R[[hit, row]]
        for r in range(m):
            if r != row and R[r, col]:
                R[r] ^= R[row]
        pivot_cols.append(col)
        row += 1
    return R, pivot_cols


def dense_rank(M: np.ndarray) -> int:
    return len(dense_echelon(M)[1])


def row_space_set(M: np.ndarray) -> set[bytes]:
    """Every element of the row space, via XOR over all basis subsets.

    Only usable when rank(M) is small (2^rank vectors).
    """
    R, pivots = dense_echelon(M)
    basis = R[: len(pivots)]
    space = {np.zeros(M.shape[1], dtype=np.uint8).tobytes()}
    acc = [np.zeros(M.shape[1], dtype=np.uint8)]
    for b in basis:
        acc = acc + [v ^ b for v in acc]
        space |= {v.tobytes() for v in acc}
    return space


def nullspace_basis(M: np.ndarray) -> list[np.ndarray]:
    """Basis of {v : M v = 0 mod 2} from the echelon form."""
    M = np.asarray(M, dtype=np.uint8) % 2
    R, pivots = dense_echelon(M)
    n = M.shape[1]
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for free in free_cols:
        v = np.zeros(n, dtype=np.uint8)
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            if R[row_idx, free]:
                v[pc] = 1
        basis.append(v)
    return basis


def has_four_cycle(M: np.ndarray) -> bool:
    """True iff two columns share two or more row indices."""
    M = np.asarray(M, dtype=np.uint8) % 2
    overlaps = (M.T.astype(np.int64) @ M.astype(np.int64))
    np.fill_diagonal(overlaps, 0)
    return bool((overlaps >= 2).any())


def short_cycle_girth(M: np.ndarray):
    """Girth by explicit pattern enumeration, resolving 4 and 6 only.

    Returns 4 or 6 when such a cycle exists, else None ("longer than
    6 or acyclic"); sufficient to cross-check BFS results on matrices
    whose girth is known to be at most 6.
    """
    M = np.asarray(M, dtype=np.uint8) % 2
    if has_four_cycle(M):
        return 4
    m = M.shape[0]
    supports = [set(np.flatnonzero(M[r])) for r in range(m)]
    # Without 4-cycles every pairwise row intersection has at most one
    # column; a 6-cycle is three rows with pairwise-distinct meeting
    # columns.
    inter = {}
    for a, b in combinations(range(m), 2):
        cols = supports[a] & supports[b]
        if cols:
            inter[(a, b)] = next(iter(cols))
    for a, b in list(inter):
        for c in range(b + 1, m):
            c1 = inter.get((a, b))
            c2 = inter.get((b, c))
            c3 = inter.get((a, c))
            if c2 is None or c3 is None:
                continue
            if c1 != c2 and c2 != c3 and c1 != c3:
                return 6
    return None
