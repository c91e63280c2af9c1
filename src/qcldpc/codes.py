"""Quantum quasi-cyclic LDPC code pairs built from circulant exponent matrices.

A code is a pair of binary parity-check matrices (H_X, H_Z), each a
J x L block array of P x P circulant permutation matrices, held as its
:class:`~qcldpc.gf2.TannerGraph`.  The block shifts come from two integer
exponent matrices; construction expands the blocks straight into each
row's column indices, which fixes the row weight at L and the column
weight at J (the regularity the decoder relies on, verified by the
TannerGraph constructor), then verifies CSS orthogonality (H_X @ H_Z^T = 0
over GF(2)).  Non-orthogonal pairs are rejected loudly: nothing
downstream is meaningful without these invariants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .gf2 import RowSpace, TannerGraph, as_int, girth

__all__ = [
    "ExponentMatrix",
    "QuantumQcCode",
    "ScanResult",
    "CodeValidationError",
    "ExponentPairParseError",
    "builtin_pair_j3_l8",
    "load_pair",
    "dump_pair",
    "expand_exponent_matrix",
    "build_code",
    "design_rate",
    "measured_rate",
    "scan_p",
]


class CodeValidationError(ValueError):
    """A constructed (H_X, H_Z) pair violates a structural invariant."""


class ExponentPairParseError(ValueError):
    """An exponent-pair file is malformed; message names line/column."""


@dataclass(frozen=True)
class ExponentMatrix:
    """J x L integer matrix of circulant shifts for one parity-check factor.

    Built from any iterable of integer rows, numpy arrays included; the
    entries are kept as tuples of Python ints.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # A float or bool is refused: a float shift would be truncated at expansion.
        entries = tuple(tuple(as_int("exponent", x) for x in row) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("exponent matrix must be non-empty")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("exponent matrix rows have unequal lengths")
        object.__setattr__(self, "entries", entries)

    @property
    def J(self) -> int:
        return len(self.entries)

    @property
    def L(self) -> int:
        return len(self.entries[0])


def builtin_pair_j3_l8() -> tuple[ExponentMatrix, ExponentMatrix]:
    """The built-in column-weight-3, row-weight-8 exponent pair.

    Entries are signed powers of two arranged so that, for every pair
    of block rows, the entrywise differences across a row pair up and
    cancel mod 2 after expansion; the pair is therefore orthogonal for
    every circulant size P.
    """
    e_x = ExponentMatrix(
        [
            [1, 2, 4, 8, 16, 32, 64, 128],
            [8, 1, 2, 4, 128, 16, 32, 64],
            [4, 8, 1, 2, 64, 128, 16, 32],
        ]
    )
    e_z = ExponentMatrix(
        [
            [-16, -128, -64, -32, -1, -8, -4, -2],
            [-32, -16, -128, -64, -2, -1, -8, -4],
            [-64, -32, -16, -128, -4, -2, -1, -8],
        ]
    )
    return e_x, e_z


def _parse_int(token: str, line_no: int, col_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ExponentPairParseError(
            f"line {line_no}, column {col_no}: invalid integer {token!r}"
        ) from None


def load_pair(path) -> tuple[ExponentMatrix, ExponentMatrix]:
    """Parse an exponent-pair text file.

    Format: line 1 holds ``J L``; then J rows of L integers (the X
    factor); then J rows of L integers (the Z factor).  Entries may be
    negative, tokens are whitespace-separated, and blank lines and
    lines starting with ``#`` are skipped anywhere.
    """
    content = [  # (line_no, tokens) of the lines that are neither blank nor comments
        (i, tokens)
        for i, raw in enumerate(Path(path).read_text().splitlines(), start=1)
        if (tokens := raw.split()) and not tokens[0].startswith("#")
    ]
    if not content:
        raise ExponentPairParseError("unexpected end of file")
    line_no, header = content[0]
    if len(header) != 2:
        raise ExponentPairParseError(
            f"line {line_no}: expected header 'J L', found {len(header)} tokens"
        )
    J = _parse_int(header[0], line_no, 1)
    L = _parse_int(header[1], line_no, 2)
    if J < 1 or L < 1:
        raise ExponentPairParseError(f"line {line_no}: J and L must be positive")

    def read_matrix(name: str, lines: list[tuple[int, list[str]]]) -> ExponentMatrix:
        rows = []
        for line_no, tokens in lines:
            if len(tokens) != L:
                raise ExponentPairParseError(
                    f"line {line_no}: expected {L} entries, found {len(tokens)}"
                )
            rows.append([_parse_int(t, line_no, c + 1) for c, t in enumerate(tokens)])
        if len(rows) < J:
            raise ExponentPairParseError(
                f"{name}: expected {J} rows, file ended after {len(rows)}"
            )
        return ExponentMatrix(rows)

    e_x = read_matrix("first matrix", content[1 : J + 1])
    e_z = read_matrix("second matrix", content[J + 1 : 2 * J + 1])
    if len(content) > 2 * J + 1:
        raise ExponentPairParseError(f"line {content[2 * J + 1][0]}: trailing content")
    return e_x, e_z


def dump_pair(pair: tuple[ExponentMatrix, ExponentMatrix], path) -> None:
    """Write an exponent pair in the text format read by :func:`load_pair`."""
    e_x, e_z = pair
    out = [f"{e_x.J} {e_x.L}"]
    out += [" ".join(str(v) for v in row) for row in e_x.entries]
    out.append("")
    out += [" ".join(str(v) for v in row) for row in e_z.entries]
    Path(path).write_text("\n".join(out) + "\n")


def expand_exponent_matrix(em: ExponentMatrix, P: int) -> TannerGraph:
    """Expand a J x L exponent matrix into its (J*P) x (L*P) binary matrix.

    Block (j, l) is the P x P circulant permutation with shift
    entries[j][l] mod P: block row i has its 1 at block column
    (i + shift) mod P.  Each row holds one column of each block column,
    so its L entries are distinct and already in order.
    """
    P = as_int("circulant size", P)
    if P < 1:
        raise ValueError(f"circulant size must be >= 1, got {P}")
    shifts = np.array([[shift % P for shift in row] for row in em.entries], dtype=np.int64)
    support = np.arange(em.L) * P + (np.arange(P)[:, None] + shifts[:, None, :]) % P  # (J, P, L)
    return TannerGraph(support.reshape(em.J * P, em.L), em.L * P)


@dataclass(frozen=True)
class QuantumQcCode:
    """Validated CSS pair (H_X, H_Z) expanded from exponent matrices.

    Instances are immutable and safe to share across workers; the
    stabilizer row spaces are built lazily and cached for repeated
    degeneracy checks.
    """

    e_x: ExponentMatrix
    e_z: ExponentMatrix
    P: int
    J: int
    L: int
    n: int
    h_x: TannerGraph = field(repr=False)
    h_z: TannerGraph = field(repr=False)

    @cached_property
    def x_stabilizers(self) -> RowSpace:
        """Row space of H_X (X-type stabilizer group)."""
        return RowSpace(self.h_x)

    @cached_property
    def z_stabilizers(self) -> RowSpace:
        """Row space of H_Z (Z-type stabilizer group)."""
        return RowSpace(self.h_z)


def _check_orthogonal(e_x: ExponentMatrix, e_z: ExponentMatrix, P: int):
    """Return None if H_X @ H_Z^T = 0 at size P, else the first nonzero block (j, j').

    Block (j, j') is the sum over l of CPM(a_jl - b_j'l): zero iff every
    residue (a_jl - b_j'l) mod P occurs an even number of times (Hagiwara
    and Imai, ISIT 2007).  A nonzero block is a nonzero circulant, so the
    first one in row-major order holds the product's first nonzero row.
    """
    for j, a_row in enumerate(e_x.entries):
        for jz, b_row in enumerate(e_z.entries):
            residues = Counter((a - b) % P for a, b in zip(a_row, b_row))
            if any(count % 2 for count in residues.values()):
                return j, jz
    return None


def _circulant_size(pair: tuple[ExponentMatrix, ExponentMatrix], P: int) -> int:
    """P as an int, after checking that the pair's shapes agree and that P >= 2."""
    e_x, e_z = pair
    if (e_x.J, e_x.L) != (e_z.J, e_z.L):
        raise ValueError(f"exponent matrices disagree in shape: "
                         f"{e_x.J}x{e_x.L} vs {e_z.J}x{e_z.L}")
    P = as_int("circulant size", P)
    if P < 2:
        raise ValueError(f"circulant size must be >= 2, got {P}")
    return P


def build_code(pair: tuple[ExponentMatrix, ExponentMatrix], P: int) -> QuantumQcCode:
    """Expand an exponent pair at circulant size P and validate the result.

    Verifies (rather than assumes) CSS orthogonality.  The expansion fixes
    both matrices' (column, row) weights at (J, L), and the TannerGraph
    constructor verifies that each is regular.

    Args:
        pair: (X factor, Z factor) exponent matrices of equal shape.
        P: Circulant size, must be >= 2.

    Returns:
        The validated code with n = P * L.

    Raises:
        CodeValidationError: On an orthogonality violation.
        ValueError: On shape mismatch, or P not an integer >= 2.
    """
    P = _circulant_size(pair, P)
    e_x, e_z = pair
    J, L = e_x.J, e_x.L
    h_x = expand_exponent_matrix(e_x, P)
    h_z = expand_exponent_matrix(e_z, P)

    bad = _check_orthogonal(e_x, e_z, P)
    if bad is not None:
        raise CodeValidationError(
            f"H_X @ H_Z^T is nonzero at block ({bad[0]}, {bad[1]}); "
            "the exponent pair is not orthogonal at P = " + str(P)
        )
    return QuantumQcCode(e_x=e_x, e_z=e_z, P=P, J=J, L=L, n=P * L, h_x=h_x, h_z=h_z)


def design_rate(J: int, L: int) -> Fraction:
    """Nominal rate 1 - 2J/L as an exact rational."""
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    return 1 - Fraction(2 * J, L)


def measured_rate(code: QuantumQcCode) -> Fraction:
    """Exact rate 1 - (rank(H_X) + rank(H_Z)) / n.

    Always >= design_rate(J, L): each rank is at most J * P.
    """
    rank_sum = code.x_stabilizers.rank + code.z_stabilizers.rank
    return 1 - Fraction(rank_sum, code.n)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of probing one circulant size P."""

    P: int
    orthogonal: bool
    girth_x: float
    girth_z: float

    @property
    def girth6(self) -> bool:
        return self.orthogonal and self.girth_x == 6 and self.girth_z == 6


def scan_p(
    pair: tuple[ExponentMatrix, ExponentMatrix], p_values: Iterable[int]
) -> Iterator[ScanResult]:
    """Probe circulant sizes lazily: orthogonality and both girths per P.

    Yields results in the given order so callers can stop at the first
    size that reaches girth 6 on both matrices.
    """
    e_x, e_z = pair
    for P in p_values:
        P = _circulant_size(pair, P)
        yield ScanResult(
            P=P,
            orthogonal=_check_orthogonal(e_x, e_z, P) is None,
            girth_x=girth(expand_exponent_matrix(e_x, P)),
            girth_z=girth(expand_exponent_matrix(e_z, P)),
        )
