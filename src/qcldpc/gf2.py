"""Sparse and dense linear algebra over GF(2).

Bit vectors are plain 1-D numpy uint8 arrays with values in {0, 1};
XOR is the additive group operation.  Matrices are stored row-sparse
(sorted column indices per row).  Rank and row-space queries convert
rows to Python integers (one bit per column) and eliminate with
bit-parallel XOR, which is fast at the few-thousand-column scale this
library operates at.
A regular matrix caches its :class:`TannerGraph`, the edge layout that
syndrome extraction and the decoder share; :func:`mat_vec_mod2` and
:func:`mat_mul_mod2` stay as the slow references the tests compare with.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SparseBinaryMatrix",
    "TannerGraph",
    "RowSpace",
    "cpm_expand",
    "mat_mul_mod2",
    "mat_vec_mod2",
    "gf2_rank",
    "in_row_space",
    "girth",
    "pack_bits",
    "unpack_bits",
]


def pack_bits(v: np.ndarray) -> int:
    """Pack a {0,1} vector into a Python int (bit i = v[i])."""
    v = np.ascontiguousarray(np.asarray(v, dtype=np.uint8) & 1)
    return int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")


def unpack_bits(x: int, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` for a known vector length."""
    nbytes = (length + 7) // 8
    raw = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].astype(np.uint8)


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

    def transpose(self) -> "SparseBinaryMatrix":
        cols_sup: list[list[int]] = [[] for _ in range(self.cols)]
        for r, sup in enumerate(self.row_support):
            for c in sup:
                cols_sup[c].append(r)
        return SparseBinaryMatrix(self.cols, self.rows, cols_sup)

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


def cpm_expand(shift: int, P: int) -> SparseBinaryMatrix:
    """Expand a circulant shift into its P x P permutation matrix.

    Row i carries a single 1 at column (i + shift) mod P; negative
    shifts reduce into [0, P), so cpm_expand(a, P) == cpm_expand(a mod P, P).

    Args:
        shift: Circulant exponent (any integer).
        P: Circulant size, must be >= 1.

    Returns:
        The P x P circulant permutation matrix.
    """
    if P < 1:
        raise ValueError(f"circulant size must be >= 1, got {P}")
    s = shift % P
    cols = (np.arange(P, dtype=np.int64) + s) % P
    return SparseBinaryMatrix(P, P, cols[:, None])


def mat_mul_mod2(A: SparseBinaryMatrix, B: SparseBinaryMatrix) -> SparseBinaryMatrix:
    """Matrix product A @ B over GF(2); paired 1-contributions cancel."""
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: ({A.rows}x{A.cols}) @ ({B.rows}x{B.cols})")
    b_packed = B.packed_rows()
    out_rows = []
    for sup in A.row_support:
        acc = 0
        for k in sup:
            acc ^= b_packed[k]
        out_rows.append(unpack_bits(acc, B.cols).nonzero()[0] if acc else [])
    return SparseBinaryMatrix(A.rows, B.cols, out_rows)


def mat_vec_mod2(M: SparseBinaryMatrix, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product M @ v over GF(2).

    Output bit r is the XOR of v over row r's support.
    """
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (M.cols,):
        raise ValueError(f"vector length {v.shape} does not match cols {M.cols}")
    out = np.zeros(M.rows, dtype=np.uint8)
    for r, sup in enumerate(M.row_support):
        if sup.size:
            out[r] = int(v[sup].sum()) & 1
    return out


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


def gf2_rank(M: SparseBinaryMatrix) -> int:
    """Rank of M over GF(2) via bit-packed elimination."""
    return RowSpace(M).rank


def in_row_space(v: np.ndarray, M: SparseBinaryMatrix) -> bool:
    """True iff v lies in the GF(2) row space of M.

    Eliminates v against a row-echelon basis of M.  For repeated
    queries against the same matrix build a :class:`RowSpace` once.
    """
    return RowSpace(M).contains(v)


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
