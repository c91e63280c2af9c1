"""Sparse linear algebra over GF(2).

Bit vectors are plain 1-D numpy uint8 arrays with values in {0, 1};
XOR is the additive group operation.  A check matrix is its
:class:`TannerGraph`: the sorted column indices of its rows as one
(m, d) array, plus the edge layout that syndrome extraction and the
decoder share; its constructor verifies the regularity they rely on.
Rank and row-space queries convert rows to Python integers (one bit per
column) and eliminate with bit-parallel XOR, which is fast at the
few-thousand-column scale this library operates at.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TannerGraph",
    "RowSpace",
    "girth",
    "pack_bits",
]


def as_bits(name: str, v, shape: tuple[int, ...]) -> np.ndarray:
    """`v` as uint8 after checking its shape and that it holds only 0 and 1."""
    v = np.asarray(v)
    if v.shape != shape:
        raise ValueError(f"{name} has shape {v.shape}, expected {shape}")
    if not (v == v.astype(bool)).all():  # True == 1 and False == 0 only
        raise ValueError(f"{name} must hold only 0 and 1")
    return v.astype(np.uint8)


def as_int(name: str, v) -> int:
    """`v` as a Python int; a bool, a float or any other non-integer raises ValueError."""
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def pack_bits(v: np.ndarray) -> int:
    """Pack a {0,1} vector into a Python int (bit i = v[i]); other entries raise ValueError."""
    v = as_bits("v", v, np.shape(v))
    return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")


class TannerGraph:
    """A row- and column-regular binary check matrix H, stored as its Tanner graph.

    Row c of H has its ones in the sorted columns check_vars[c]; edge
    e = c * deg_check + k joins check c to variable check_vars[c, k], and
    var_edges[v] lists variable v's deg_var edges in check order.  The
    constructor takes the (m, d) column indices, each row in any order, and
    the column count n; it is the one place regularity is verified
    (ValueError otherwise).  The arrays are read-only, so every user of the
    matrix shares one instance.
    """

    def __init__(self, check_vars, n: int):
        self.n = as_int("column count", n)
        rows = np.asarray(check_vars)
        if rows.dtype.kind not in "iu":  # bool and float entries are refused
            raise ValueError(f"column indices must be integers, got dtype {rows.dtype}")
        if rows.ndim != 2 or rows.size == 0:
            raise ValueError(f"check_vars must be a non-empty 2-D array, got shape {rows.shape}")
        rows = np.sort(rows.astype(np.int64), axis=1)
        out = (rows[:, 0] < 0) | (rows[:, -1] >= self.n)
        repeats = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        for bad, what in ((out, f"has a column index out of range [0, {self.n})"),
                          (repeats, "repeats a column")):
            if bad.any():
                raise ValueError(f"row {np.argmax(bad)} {what}")
        used, weights = np.unique(rows, return_counts=True)
        if len(used) < self.n or np.any(weights != weights[0]):
            raise ValueError(f"not column-regular: {len(used)} of {self.n} columns used, "
                             f"weights {np.unique(weights)}")
        self.check_vars = rows
        self.m, self.deg_check = rows.shape
        self.var_edges = np.argsort(rows.ravel(), kind="stable").reshape(self.n, -1)
        self.deg_var = self.var_edges.shape[1]
        self.check_vars.flags.writeable = False
        self.var_edges.flags.writeable = False

    def check_sums(self, bits: np.ndarray) -> np.ndarray:
        """H @ bits over GF(2): the check parities of a bit vector or of each row of a batch.

        Raises ValueError unless the last axis has length n; the bit values are not checked.
        """
        if bits.shape[-1:] != (self.n,):
            raise ValueError(f"bits have shape {bits.shape}, expected last axis {self.n}")
        # One gather for both would cost: bits[..., check_vars] makes a vector's call about
        # 1.5x slower, and bits.take(check_vars, axis=-1) a batch's about 1.8x (its C-order
        # copy leaves the reduce a short inner axis).
        gathered = bits[self.check_vars] if bits.ndim == 1 else bits[:, self.check_vars]
        return np.bitwise_xor.reduce(gathered, axis=-1)


class RowSpace:
    """Row-echelon basis of a matrix's GF(2) row space.

    Supports repeated membership queries without re-eliminating; built
    once per matrix and reused by the simulation layer on every trial.
    M is a TannerGraph, or any record whose rows M.check_vars are integer
    arrays of distinct column indices below M.n.
    """

    def __init__(self, M: TannerGraph) -> None:
        self.n = M.n
        pivots: dict[int, int] = {}
        for cols in M.check_vars:
            # Columns within a row are distinct, so summing the bits ORs them.
            row = self._reduce(sum(1 << c for c in cols.tolist()), pivots)
            if row:
                pivots[row.bit_length() - 1] = row
        self._pivots = pivots

    @staticmethod
    def _reduce(x: int, pivots: dict[int, int]) -> int:
        while x:
            top = x.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                return x
            x ^= piv
        return x

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def contains(self, v: np.ndarray) -> bool:
        """True iff v is a GF(2) linear combination of the basis rows."""
        v = np.asarray(v)
        if v.shape != (self.n,):
            raise ValueError(f"vector length {v.shape} does not match n = {self.n}")
        return self._reduce(pack_bits(v), self._pivots) == 0


def girth(M: TannerGraph):
    """Length of the shortest cycle in the bipartite Tanner graph of M.

    Variable nodes are columns, check nodes are rows; M is read as by
    :class:`RowSpace`.  Runs a BFS from every variable node with
    parent-edge exclusion and takes the minimum cycle candidate
    dist(u) + dist(v) + 1 over non-tree edges.
    Cycles are even and >= 4; returns ``math.inf`` if the graph is
    acyclic (e.g. all column degrees <= 1).
    """
    n, m = M.n, len(M.check_vars)
    total = n + m
    # Adjacency: variable c -> checks containing c; check r -> its columns.
    adj: list[list[int]] = [[] for _ in range(total)]
    for r, cols in enumerate(M.check_vars):
        adj[n + r] = cols.tolist()
        for c in adj[n + r]:
            adj[c].append(n + r)

    best = math.inf
    dist = [0] * total
    parent = [0] * total
    stamp = [-1] * total

    for start in range(n):
        if best == 4:
            break  # bipartite graphs cannot do better
        stamp[start] = start
        dist[start] = 0
        parent[start] = -1
        frontier = [start]
        d = 0
        while frontier and 2 * d < best:
            nxt = []
            for u in frontier:
                pu = parent[u]
                for v in adj[u]:
                    if v == pu:
                        continue
                    if stamp[v] != start:
                        stamp[v] = start
                        dist[v] = d + 1
                        parent[v] = u
                        nxt.append(v)
                    else:
                        cand = d + dist[v] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
            d += 1
    return best
