"""Sparse and dense linear algebra over GF(2).

Bit vectors are plain 1-D numpy uint8 arrays with values in {0, 1};
XOR is the additive group operation.  Matrices are stored row-sparse
(sorted column indices per row).  Rank and row-space queries convert
rows to Python integers (one bit per column) and eliminate with
bit-parallel XOR, which is fast at the few-thousand-column scale this
library operates at.
A regular matrix caches its :class:`TannerGraph`, the edge layout that
syndrome extraction and the decoder share.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SparseBinaryMatrix",
    "TannerGraph",
    "RowSpace",
    "girth",
    "pack_bits",
]


def pack_bits(v: np.ndarray) -> int:
    """Pack a {0,1} vector into a Python int (bit i = v[i])."""
    v = np.ascontiguousarray(np.asarray(v, dtype=np.uint8) & 1)
    return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")


class SparseBinaryMatrix:
    """Binary matrix stored as per-row sorted arrays of column indices.

    Construction canonicalizes each row: entries appearing an even
    number of times cancel (addition is mod 2), the survivors are
    sorted and deduplicated.  Instances are treated as immutable.
    """

    __slots__ = ("rows", "cols", "row_support", "_packed", "_tanner")

    def __init__(self, rows: int, cols: int, row_support) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimensions ({rows}, {cols})")
        support = list(row_support)
        if len(support) != rows:
            raise ValueError(f"expected {rows} rows of support, got {len(support)}")
        canon = []
        for r, sup in enumerate(support):
            idx = np.asarray(sup, dtype=np.int64).ravel()
            if idx.size and (idx.min() < 0 or idx.max() >= cols):
                raise ValueError(f"row {r}: column index out of range [0, {cols})")
            vals, counts = np.unique(idx, return_counts=True)
            canon.append(np.ascontiguousarray(vals[counts % 2 == 1], dtype=np.int64))
        self.rows = rows
        self.cols = cols
        self.row_support = tuple(canon)
        self._packed = None
        self._tanner = None

    @classmethod
    def from_dense(cls, a) -> "SparseBinaryMatrix":
        a = np.asarray(a, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise ValueError("dense input must be 2-D")
        return cls(a.shape[0], a.shape[1], [np.flatnonzero(row) for row in a])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for r, sup in enumerate(self.row_support):
            out[r, sup] = 1
        return out

    def row_weights(self) -> np.ndarray:
        return np.array([sup.size for sup in self.row_support], dtype=np.int64)

    def col_weights(self) -> np.ndarray:
        w = np.zeros(self.cols, dtype=np.int64)
        for sup in self.row_support:
            w[sup] += 1
        return w

    @property
    def nnz(self) -> int:
        return int(sum(sup.size for sup in self.row_support))

    def packed_rows(self) -> list[int]:
        """Rows as Python ints (bit c = entry in column c); cached."""
        if self._packed is None:
            packed = []
            for sup in self.row_support:
                x = 0
                for c in sup:
                    x |= 1 << int(c)
                packed.append(x)
            self._packed = packed
        return self._packed

    def tanner_graph(self) -> "TannerGraph":
        """Edge layout of this (row- and column-regular) matrix; cached."""
        if self._tanner is None:
            self._tanner = TannerGraph(self)
        return self._tanner

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.row_support, other.row_support)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nnz))

    def __repr__(self) -> str:
        return f"SparseBinaryMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class TannerGraph:
    """Edge layout of a row- and column-regular binary matrix.

    Edge e = c * deg_check + k joins check c to variable check_vars[c, k];
    var_edges[v] lists variable v's deg_var edges in check order.  This is
    the one place regularity is verified (ValueError otherwise).  The
    arrays are read-only, so every user of the matrix shares one instance.
    """

    def __init__(self, M: SparseBinaryMatrix):
        for kind, weights in (("row", M.row_weights()), ("column", M.col_weights())):
            if weights.size == 0 or np.any(weights != weights[0]):
                raise ValueError(f"not {kind}-regular: {kind} weights {np.unique(weights)}")
        self.m = M.rows
        self.check_vars = np.vstack(M.row_support)
        self.deg_check = self.check_vars.shape[1]
        order = np.argsort(self.check_vars.ravel(), kind="stable")
        self.var_edges = order.reshape(M.cols, -1)
        self.deg_var = self.var_edges.shape[1]
        self.check_vars.flags.writeable = False
        self.var_edges.flags.writeable = False

    def check_sums(self, bits: np.ndarray) -> np.ndarray:
        """M @ bits over GF(2): the check parities of a bit vector or of each row of a batch."""
        gathered = bits[self.check_vars] if bits.ndim == 1 else bits[:, self.check_vars]
        return np.bitwise_xor.reduce(gathered, axis=-1)


class RowSpace:
    """Row-echelon basis of a matrix's GF(2) row space.

    Supports repeated membership queries without re-eliminating; built
    once per matrix and reused by the simulation layer on every trial.
    """

    def __init__(self, M: SparseBinaryMatrix) -> None:
        self.cols = M.cols
        pivots: dict[int, int] = {}
        for row in M.packed_rows():
            row = self._reduce(row, pivots)
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
        v = np.asarray(v, dtype=np.uint8)
        if v.shape != (self.cols,):
            raise ValueError(f"vector length {v.shape} does not match cols {self.cols}")
        return self._reduce(pack_bits(v), self._pivots) == 0


def girth(M: SparseBinaryMatrix):
    """Length of the shortest cycle in the bipartite Tanner graph of M.

    Variable nodes are columns, check nodes are rows.  Runs a BFS from
    every variable node with parent-edge exclusion and takes the
    minimum cycle candidate dist(u) + dist(v) + 1 over non-tree edges.
    Cycles are even and >= 4; returns ``math.inf`` if the graph is
    acyclic (e.g. all column degrees <= 1).
    """
    n, m = M.cols, M.rows
    total = n + m
    # Adjacency: variable c -> checks containing c; check r -> its columns.
    adj: list[list[int]] = [[] for _ in range(total)]
    for r, sup in enumerate(M.row_support):
        adj[n + r] = [int(c) for c in sup]
        for c in sup:
            adj[int(c)].append(n + r)

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
