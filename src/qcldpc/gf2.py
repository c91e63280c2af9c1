"""Sparse linear algebra over GF(2).

Bit vectors are plain 1-D numpy uint8 arrays with values in {0, 1};
XOR is the additive group operation.  Matrices are stored row-sparse
(sorted column indices per row; one np.unique call canonicalizes all
rows).  Rank and row-space queries convert rows to Python integers
(one bit per column) and eliminate with bit-parallel XOR, which is
fast at the few-thousand-column scale this library operates at.
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


class SparseBinaryMatrix:
    """Binary matrix stored as per-row sorted arrays of column indices.

    Construction canonicalizes all rows in one pass: entries appearing
    an even number of times in a row cancel (addition is mod 2), the
    survivors are sorted and deduplicated.  Instances are immutable.
    """

    __slots__ = ("rows", "cols", "row_support", "_tanner")

    def __init__(self, rows: int, cols: int, row_support) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative dimensions ({rows}, {cols})")
        support = [np.asarray(sup).ravel() for sup in row_support]
        if len(support) != rows:
            raise ValueError(f"expected {rows} rows of support, got {len(support)}")
        if rows * cols > np.iinfo(np.int64).max:
            raise ValueError(f"{rows} x {cols} entries do not fit int64 keys")
        lengths = np.fromiter(map(len, support), dtype=np.int64, count=rows)
        flat = np.concatenate([np.empty(0, np.int64), *support])
        fractional = np.floor(flat) != flat
        bad = fractional | (flat < 0) | (flat >= cols)
        if bad.any():
            r = int(np.searchsorted(np.cumsum(lengths), np.argmax(bad), side="right"))
            what = "is not an integer" if fractional[bad][0] else f"out of range [0, {cols})"
            raise ValueError(f"row {r}: column index {what}")
        # One key per entry, in row-major order; a key seen an odd number of times stays.
        row_base = np.arange(rows, dtype=np.int64) * cols
        keys, counts = np.unique(np.repeat(row_base, lengths) + flat.astype(np.int64),
                                 return_counts=True)
        keys = keys[counts % 2 == 1]
        bounds = [0, *np.searchsorted(keys, row_base + cols).tolist()]
        canon = keys % cols  # empty when cols == 0
        self.rows = rows
        self.cols = cols
        self.row_support = tuple(canon[a:b] for a, b in zip(bounds, bounds[1:]))
        self._tanner = None

    def row_weights(self) -> np.ndarray:
        return np.fromiter(map(len, self.row_support), dtype=np.int64, count=self.rows)

    def col_weights(self) -> np.ndarray:
        flat = np.concatenate([np.empty(0, np.int64), *self.row_support])
        return np.bincount(flat, minlength=self.cols)

    @property
    def nnz(self) -> int:
        return int(self.row_weights().sum())

    def packed_rows(self) -> list[int]:
        """Rows as Python ints (bit c = entry in column c)."""
        # Columns within a row are distinct, so summing the bits ORs them.
        return [sum(1 << c for c in sup.tolist()) for sup in self.row_support]

    def tanner_graph(self) -> "TannerGraph":
        """Edge layout of this (row- and column-regular) matrix; cached."""
        if self._tanner is None:
            self._tanner = TannerGraph(self)
        return self._tanner

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
        v = np.asarray(v)
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
