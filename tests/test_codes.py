from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GIRTH6_P
from oracles import dense_rank, dense_tanner_arrays, dense_view, expand_dense, mul_mod2
from qcldpc.cli import main
from qcldpc.codes import (
    CodeValidationError,
    _check_orthogonal,
    ExponentMatrix,
    ExponentPairParseError,
    build_code,
    builtin_pair_j3_l8,
    design_rate,
    dump_pair,
    expand_exponent_matrix,
    load_pair,
    measured_rate,
    scan_p,
)
from qcldpc.gf2 import RowSpace, TannerGraph


# ---------------------------------------------------------------------------
# builtin pair


def test_builtin_pair_shapes(pair):
    e_x, e_z = pair
    assert (e_x.J, e_x.L) == (3, 8)
    assert (e_z.J, e_z.L) == (3, 8)


def test_builtin_pair_printed_entries(pair):
    e_x, e_z = pair
    assert e_x.entries[0][0] == 1
    assert e_x.entries[0][7] == 128
    assert e_z.entries[0][0] == -16
    assert e_z.entries[2][7] == -8


def test_builtin_pair_power_of_two_structure(pair):
    e_x, e_z = pair
    assert all(v > 0 and v & (v - 1) == 0 for row in e_x.entries for v in row)
    assert all(-v & (-v - 1) == 0 for row in e_z.entries for v in row)


# ---------------------------------------------------------------------------
# load_pair / dump_pair


def test_load_pair_round_trip(tmp_path, pair):
    path = tmp_path / "pair.txt"
    dump_pair(pair, path)
    assert load_pair(path) == pair


def test_load_pair_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(
        "# tiny pair\n1 2\n\n0 1\n\n# z side\n0 -1\n"
    )
    e_x, e_z = load_pair(path)
    assert e_x.entries == ((0, 1),)
    assert e_z.entries == ((0, -1),)


def test_load_pair_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 2\n3 4\n5 6\n\n1 2\n3 4\n")
    with pytest.raises(ExponentPairParseError, match="expected 3 rows"):
        load_pair(path)


def test_load_pair_row_width_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 3\n1 2\n\n1 2 3\n")
    with pytest.raises(ExponentPairParseError, match="line 2"):
        load_pair(path)


def test_load_pair_non_integer_token_names_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1 x\n\n1 2\n")
    with pytest.raises(ExponentPairParseError, match="line 2, column 2"):
        load_pair(path)


def test_load_pair_trailing_content(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1\n1\n\n2\n\n7\n")
    with pytest.raises(ExponentPairParseError, match="trailing"):
        load_pair(path)


@pytest.mark.parametrize("text, message", [
    ("# only\n\n# comments\n", "unexpected end of file"),
    ("# header\n3 8 1\n", "line 2: expected header 'J L', found 3 tokens"),
    ("0 8\n", "line 1: J and L must be positive"),
])
def test_load_pair_rejects_a_missing_or_bad_header(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ExponentPairParseError) as exc:
        load_pair(path)
    assert str(exc.value) == message
    assert main(["code", "--pair", str(path), "--p", "5"]) == 1  # an input error
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("rows, match", [([], "must be non-empty"),
                                         ([[1, 2], [3]], "rows have unequal lengths")])
def test_exponent_matrix_rejects_no_rows_and_ragged_rows(rows, match):
    with pytest.raises(ValueError, match=f"^exponent matrix {match}$"):
        ExponentMatrix(rows)


# ---------------------------------------------------------------------------
# build_code


def test_build_code_p21(pair):
    code = build_code(pair, 21)
    assert code.n == 168
    assert not mul_mod2(dense_view(code.h_x), dense_view(code.h_z).T).any()


def test_build_code_p5_length(pair):
    assert build_code(pair, 5).n == 40


def test_build_code_rejects_non_orthogonal_pair(pair):
    # (E_X, E_X) is not self-orthogonal at P = 21 (its product was
    # confirmed nonzero before this test was adopted).
    e_x, _ = pair
    hx = expand_exponent_matrix(e_x, 21)
    assert mul_mod2(dense_view(hx), dense_view(hx).T).any()
    with pytest.raises(CodeValidationError, match="block"):
        build_code((e_x, e_x), 21)


def test_build_code_rejects_shape_mismatch(pair):
    e_x, _ = pair
    short = ExponentMatrix(e_x.entries[:2])
    with pytest.raises(ValueError, match="shape"):
        build_code((e_x, short), 5)


def test_build_code_rejects_tiny_p(pair):
    with pytest.raises(ValueError):
        build_code(pair, 1)


@pytest.mark.parametrize("bad", [5.0, np.float64(25.0), True, 2.5])
def test_circulant_size_must_be_an_integer(pair, bad):
    # A float size used to raise TypeError, and True expanded at P = 1.
    for call in (lambda: build_code(pair, bad), lambda: list(scan_p(pair, [bad])),
                 lambda: expand_exponent_matrix(pair[0], bad)):
        with pytest.raises(ValueError, match="circulant size must be an integer"):
            call()
    code = build_code(pair, np.int64(5))
    assert type(code.P) is int and code.n == 40
    assert [r.P for r in scan_p(pair, np.arange(24, 26))] == [24, 25]


@pytest.mark.parametrize("P", [2, 3, 4, 5, 7, 10, 21, 25, 33])
def test_orthogonality_and_weights_every_p(pair, P):
    code = build_code(pair, P)
    assert not mul_mod2(dense_view(code.h_x), dense_view(code.h_z).T).any()
    for h in (code.h_x, code.h_z):
        dense = dense_view(h)
        assert np.all(dense.sum(axis=1) == 8)
        assert np.all(dense.sum(axis=0) == 3)


def product_first_block(e_x, e_z, P):
    """Oracle: the block holding the first nonzero row of H_X @ H_Z^T."""
    prod = mul_mod2(dense_view(expand_exponent_matrix(e_x, P)),
                    dense_view(expand_exponent_matrix(e_z, P)).T)
    rows, cols = np.nonzero(prod)  # in row-major order
    return (int(rows[0]) // P, int(cols[0]) // P) if rows.size else None


@st.composite
def exponent_pairs(draw):
    """Random pairs, plus pairs with duplicated columns (always orthogonal,
    since every residue appears twice) that may have one entry moved."""
    J, L = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    entries = st.integers(-40, 40)

    def matrix(width):
        return draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                             min_size=J, max_size=J))

    if L % 2 or draw(st.booleans()):
        return ExponentMatrix(matrix(L)), ExponentMatrix(matrix(L))
    a, b = matrix(L // 2), matrix(L // 2)
    a, b = [row + row for row in a], [row + row for row in b]
    if draw(st.booleans()):
        side = draw(st.sampled_from([a, b]))
        side[draw(st.integers(0, J - 1))][draw(st.integers(0, L - 1))] = draw(entries)
    return ExponentMatrix(a), ExponentMatrix(b)


_BUILTIN = builtin_pair_j3_l8()


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(exponent_pairs(), st.just(_BUILTIN), st.just((_BUILTIN[0], _BUILTIN[0]))),
    P=st.integers(2, 40),
)
def test_exponent_orthogonality_check_matches_product(pair, P):
    bad = _check_orthogonal(*pair, P)
    assert bad == product_first_block(*pair, P)
    if bad is not None:
        with pytest.raises(CodeValidationError, match=f"block \\({bad[0]}, {bad[1]}\\)"):
            build_code(pair, P)


@pytest.mark.parametrize("P", [2, 3, 5, 25, 400])
def test_built_tanner_graphs_match_dense_expansion(pair, P):
    code = build_code(pair, P)
    for em, h in zip(pair, (code.h_x, code.h_z)):
        dense = expand_dense(em.entries, P)
        check_vars, var_edges = dense_tanner_arrays(dense)
        assert np.array_equal(h.check_vars, check_vars)
        assert np.array_equal(h.var_edges, var_edges)


def test_expansion_commutes_with_entry_reduction(pair):
    for P in (5, 12, 25):
        reduced = tuple(
            ExponentMatrix([e % P for e in row] for row in em.entries) for em in pair
        )
        a = build_code(pair, P)
        b = build_code(reduced, P)
        for ha, hb in ((a.h_x, b.h_x), (a.h_z, b.h_z)):
            assert np.array_equal(dense_view(ha), dense_view(hb))


# ---------------------------------------------------------------------------
# rates


def test_design_rate_values():
    assert design_rate(3, 8) == Fraction(1, 4)
    assert design_rate(4, 12) == Fraction(1, 3)
    assert design_rate(5, 10) == 0


def test_design_rate_rejects_nonpositive_l():
    with pytest.raises(ValueError):
        design_rate(3, 0)


def test_measured_rate_p21_exact(pair):
    code = build_code(pair, 21)
    # Independent dense elimination for both ranks.
    rx = dense_rank(dense_view(code.h_x))
    rz = dense_rank(dense_view(code.h_z))
    assert measured_rate(code) == 1 - Fraction(rx + rz, code.n)
    assert measured_rate(code) == Fraction(25, 84)
    assert Fraction(1, 4) <= measured_rate(code) < 1


@pytest.mark.parametrize("bad", [1.7, 2.0, True, np.float64(1.0)])
def test_exponent_rows_reject_entries_that_are_not_integers(bad):
    # 1.7 used to be truncated to shift 1, and ExponentMatrix itself took it.
    with pytest.raises(ValueError, match="exponent must be an integer"):
        ExponentMatrix([[bad, 2]])
    rows = ExponentMatrix(np.array([[1, 2]])).entries
    assert rows == ((1, 2),) and type(rows[0][0]) is int


def test_measured_rate_full_rank_case():
    # A pair whose matrices are full rank: rate equals the design rate.
    e = ExponentMatrix([[0, 0]])
    code = build_code((e, e), 3)
    assert dense_rank(dense_view(code.h_x)) == 3 and dense_rank(dense_view(code.h_z)) == 3
    assert measured_rate(code) == design_rate(1, 2) + Fraction(0)
    assert measured_rate(code) == 0


def test_rank_invariant_under_row_duplication(pair):
    # Duplicating every row cannot change the row space, hence neither
    # the measured rate's rank inputs.
    code = build_code(pair, 5)
    h = code.h_x
    doubled = TannerGraph(np.vstack([h.check_vars, h.check_vars]), h.n)
    assert RowSpace(doubled).rank == RowSpace(h).rank


def test_measured_rate_at_least_design(pair):
    for P in (3, 5, 21, 25):
        code = build_code(pair, P)
        assert measured_rate(code) >= design_rate(3, 8)


# ---------------------------------------------------------------------------
# `qcldpc code` report / scan_p


def test_code_report_fields(capsys):
    assert main(["code", "--builtin-3x8", "--p", str(GIRTH6_P)]) == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split() if "=" in item)
    assert (fields["J"], fields["L"], fields["P"]) == ("3", "8", str(GIRTH6_P))
    assert fields["n"] == str(GIRTH6_P * 8)
    assert fields["girth_x"] == "6" and fields["girth_z"] == "6"
    assert Fraction(fields["design_rate"]) <= Fraction(fields["measured_rate"])


def test_scan_p_flags_girth6(pair):
    results = list(scan_p(pair, range(24, 27)))
    assert [r.P for r in results] == [24, 25, 26]
    assert all(r.orthogonal for r in results)
    flags = {r.P: r.girth6 for r in results}
    assert flags[24] is False and flags[25] is True and flags[26] is True


def test_scan_p_rejects_bad_size(pair):
    with pytest.raises(ValueError):
        list(scan_p(pair, [1]))
