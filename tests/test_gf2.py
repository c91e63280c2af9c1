import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_from_support,
    dense_rank,
    dense_tanner_arrays,
    dense_view,
    has_four_cycle,
    mul_mod2,
    row_space_set,
    short_cycle_girth,
    sparse_from_dense,
)
from qcldpc.codes import ExponentMatrix, expand_exponent_matrix
from qcldpc.gf2 import RowSpace, TannerGraph, girth, pack_bits


def random_sparse(rng, rows, cols, density=0.2):
    return sparse_from_dense(rng.random((rows, cols)) < density)


def cpm(shift, P):
    """The P x P circulant permutation matrix with the given shift."""
    return expand_exponent_matrix(ExponentMatrix([[shift]]), P)


def random_regular(rng, J, L, P):
    """A random (row weight L, column weight J) matrix of J x L circulant blocks."""
    return expand_exponent_matrix(ExponentMatrix(rng.integers(0, P, (J, L))), P)


# ---------------------------------------------------------------------------
# circulant permutation matrices (1 x 1 exponent matrices)


def test_cpm_zero_shift_is_identity():
    assert np.array_equal(dense_view(cpm(0, 4)), np.eye(4, dtype=np.uint8))


def test_cpm_shift_one():
    m = cpm(1, 3)
    assert m.check_vars.tolist() == [[1], [2], [0]]


def test_cpm_negative_shift_reduces_mod_p():
    assert np.array_equal(dense_view(cpm(-1, 3)), dense_view(cpm(2, 3)))
    assert cpm(-1, 3).check_vars.tolist() == [[2], [0], [1]]


def test_cpm_rejects_zero_size():
    with pytest.raises(ValueError):
        cpm(1, 0)


@given(st.integers(-300, 300), st.integers(1, 40))
def test_cpm_shift_wraps(a, P):
    assert np.array_equal(dense_view(cpm(a, P)), dense_view(cpm(a % P, P)))


@given(st.integers(0, 39), st.integers(1, 40))
def test_cpm_inverse_pairing(a, P):
    a %= P
    prod = mul_mod2(dense_view(cpm(a, P)), dense_view(cpm(P - a, P)))
    assert np.array_equal(prod, np.eye(P, dtype=np.uint8))


# ---------------------------------------------------------------------------
# circulant products, against the dense product mod 2


@given(st.integers(0, 30), st.integers(0, 30), st.integers(2, 31))
def test_mat_mul_cpm_composition(a, b, P):
    lhs = mul_mod2(dense_view(cpm(a, P)), dense_view(cpm(b, P)))
    assert np.array_equal(lhs, dense_view(cpm(a + b, P)))


def test_mat_mul_characteristic_two_cancellation():
    # CPM(c) + CPM(c) = 0: the block row [CPM(c) | CPM(c)] maps every (v, v) to 0.
    pair = expand_exponent_matrix(ExponentMatrix([[3, 3]]), 5)
    v = np.random.default_rng(2).integers(0, 2, (16, 5)).astype(np.uint8)
    assert not pair.check_sums(np.hstack([v, v])).any()
    assert np.array_equal(pair.check_sums(np.hstack([v, 0 * v])), cpm(3, 5).check_sums(v))


# ---------------------------------------------------------------------------
# matrix-vector products: TannerGraph.check_sums


def test_mat_vec_identity():
    v = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(cpm(0, 4).check_sums(v), v)


def test_mat_vec_zero_vector():
    rng = np.random.default_rng(5)
    m = random_regular(rng, 2, 5, 4)
    assert not m.check_sums(np.zeros(m.n, dtype=np.uint8)).any()


def test_mat_vec_all_ones_two_by_two():
    m = TannerGraph([[0, 1], [0, 1]], 2)
    got = m.check_sums(np.array([1, 0], dtype=np.uint8))
    assert np.array_equal(got, np.array([1, 1], dtype=np.uint8))


@given(st.integers(0, 2**40))
@settings(max_examples=30)
def test_mat_vec_linearity(seed):
    rng = np.random.default_rng(seed)
    m = random_regular(rng, 3, 4, 5)
    u = (rng.random(m.n) < 0.5).astype(np.uint8)
    v = (rng.random(m.n) < 0.5).astype(np.uint8)
    lhs = m.check_sums(u ^ v)
    assert np.array_equal(lhs, m.check_sums(u) ^ m.check_sums(v))
    assert np.array_equal(lhs, mul_mod2(dense_view(m), u ^ v))
    batch = np.stack((u, v))
    assert np.array_equal(m.check_sums(batch), mul_mod2(batch, dense_view(m).T))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_check_sums_refuses_vectors_of_the_wrong_length(batch):
    # A long vector used to give a full syndrome from its first n bits.
    m = random_regular(np.random.default_rng(6), 2, 5, 4)
    for length in (m.n - 3, m.n + 7):
        with pytest.raises(ValueError, match=f"expected last axis {m.n}"):
            m.check_sums(np.zeros(batch + (length,), np.uint8))


# ---------------------------------------------------------------------------
# rank


def test_rank_identity():
    assert RowSpace(cpm(0, 7)).rank == 7


def test_rank_zero_matrix():
    assert RowSpace(sparse_from_dense(np.zeros((4, 6)))).rank == 0


def test_rank_dependent_rows():
    assert RowSpace(sparse_from_dense(np.ones((2, 2)))).rank == 1


@given(st.integers(0, 2**40))
@settings(max_examples=30)
def test_rank_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((8, 12)) < 0.3).astype(np.uint8)
    assert RowSpace(sparse_from_dense(dense)).rank == dense_rank(dense)


def test_rank_invariant_under_row_permutation_and_addition():
    rng = np.random.default_rng(17)
    dense = (rng.random((10, 15)) < 0.3).astype(np.uint8)
    base = RowSpace(sparse_from_dense(dense)).rank

    perm = rng.permutation(10)
    assert RowSpace(sparse_from_dense(dense[perm])).rank == base

    added = dense.copy()
    added[3] ^= added[7]  # row addition
    assert RowSpace(sparse_from_dense(added)).rank == base


# ---------------------------------------------------------------------------
# row-space membership


def test_row_space_contains_each_row():
    rng = np.random.default_rng(23)
    m = random_sparse(rng, 6, 11, 0.4)
    space = RowSpace(m)
    for row in dense_view(m):
        assert space.contains(row)


def test_row_space_contains_zero():
    rng = np.random.default_rng(29)
    m = random_sparse(rng, 6, 11, 0.4)
    assert RowSpace(m).contains(np.zeros(11, dtype=np.uint8))


def test_row_space_matches_enumeration_oracle():
    # Exhaustive: every GF(2) combination of rows of a random 10x20
    # matrix (2^rank vectors) vs the elimination-based answer.
    rng = np.random.default_rng(31)
    dense = (rng.random((10, 20)) < 0.3).astype(np.uint8)
    m = RowSpace(sparse_from_dense(dense))
    space = row_space_set(dense)
    members = 0
    for _ in range(300):
        v = (rng.random(20) < 0.5).astype(np.uint8)
        expected = v.tobytes() in space
        assert m.contains(v) == expected
        members += expected
    # Also check actual members, which random vectors rarely hit.
    for raw in list(space)[:64]:
        v = np.frombuffer(raw, dtype=np.uint8)
        assert m.contains(v)


def test_row_space_closed_under_adding_rows():
    rng = np.random.default_rng(37)
    m = random_sparse(rng, 8, 16, 0.3)
    dense = dense_view(m)
    space = RowSpace(m)
    v = dense[2] ^ dense[5]
    assert space.contains(v)
    for row in dense:
        assert space.contains(v ^ row)


def test_row_space_length_mismatch():
    with pytest.raises(ValueError):
        RowSpace(cpm(0, 4)).contains(np.zeros(5, dtype=np.uint8))


@pytest.mark.parametrize("value", [2, 0.7])
def test_row_space_rejects_non_binary_vectors(value):
    # Both used to read as 0 (a cast to uint8, then & 1), so the identity's
    # full row space "contained" them.
    v = np.zeros(4, dtype=type(value))
    v[1] = value
    for call in (RowSpace(cpm(0, 4)).contains, pack_bits):
        with pytest.raises(ValueError, match="must hold only 0 and 1"):
            call(v)


# ---------------------------------------------------------------------------
# girth


def test_girth_two_by_two_all_ones():
    assert girth(sparse_from_dense(np.ones((2, 2)))) == 4


def test_girth_single_cpm_unbounded():
    assert girth(cpm(3, 7)) == math.inf


def test_girth_zero_matrix_unbounded():
    assert girth(sparse_from_dense(np.zeros((3, 5)))) == math.inf


def test_girth_six_cross_checked_by_enumeration(code25):
    # Independent pattern search confirms the BFS value on both
    # matrices of the first girth-6 code.
    for h in (code25.h_x, code25.h_z):
        assert girth(h) == 6
        assert short_cycle_girth(dense_view(h)) == 6


def test_girth_at_least_six_iff_no_four_cycle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        dense = (rng.random((8, 12)) < 0.25).astype(np.uint8)
        m = sparse_from_dense(dense)
        assert (girth(m) >= 6) == (not has_four_cycle(dense))


def test_girth_known_six_cycle():
    # v0-c0-v1-c1-v2-c2-v0 with no shorter cycle.
    dense = np.array(
        [
            [1, 1, 0],
            [0, 1, 1],
            [1, 0, 1],
        ],
        dtype=np.uint8,
    )
    assert girth(sparse_from_dense(dense)) == 6


# ---------------------------------------------------------------------------
# TannerGraph construction contracts


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"row 0 has a column index out of range \[0, 3\)"):
        TannerGraph([[3]], 3)
    with pytest.raises(ValueError, match="row 1 has a column index out of range"):
        TannerGraph([[0, 2], [-1, 1]], 3)


@pytest.mark.parametrize("support", [[[0, 1.5]], [[0.9, 2.2]], [[1, np.nan]]])
def test_construction_rejects_fractional_indices(support):
    # A cast to int would read 1.5 as column 1, and 0.9, 2.2 as columns 0 and 2.
    with pytest.raises(ValueError, match="column indices must be integers"):
        TannerGraph(support, 3)


@pytest.mark.parametrize("support", [[[2.0, 0.0], [1.0, 3.0]], np.eye(2, dtype=bool),
                                     np.array([[0, 1]], dtype=object)])
def test_construction_rejects_integral_floats_and_bools(support):
    # Neither is an index: True would read as column 1, and 2.0 as column 2.
    with pytest.raises(ValueError, match="column indices must be integers"):
        TannerGraph(support, 4)


def test_construction_rejects_repeated_columns():
    # Entries that repeat in a row are refused, not cancelled mod 2.
    with pytest.raises(ValueError, match="row 0 repeats a column"):
        TannerGraph([[1, 1, 2], [0, 2, 0]], 3)
    with pytest.raises(ValueError, match="row 1 repeats a column"):
        TannerGraph([[0, 1, 2], [2, 1, 2]], 3)


def test_construction_rejects_unequal_column_weights():
    with pytest.raises(ValueError, match="not column-regular: 3 of 3 columns used"):
        TannerGraph([[0, 1], [0, 2]], 3)
    with pytest.raises(ValueError, match="not column-regular: 2 of 3 columns used"):
        TannerGraph([[0, 1], [0, 1]], 3)


@pytest.mark.parametrize("support", [[0, 1, 2], [[[0, 1]]], np.zeros((0, 3), int),
                                     np.zeros((3, 0), int)])
def test_construction_rejects_arrays_that_are_not_2d_or_empty(support):
    with pytest.raises(ValueError, match="must be a non-empty 2-D array"):
        TannerGraph(support, 3)
    with pytest.raises(ValueError):  # rows of unequal length are no array at all
        TannerGraph([[0, 1], [2]], 3)


@pytest.mark.parametrize("n", [3.0, np.float64(3.0), True, "3", None])
def test_construction_rejects_a_column_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="column count must be an integer"):
        TannerGraph([[0], [1], [2]], n)
    assert TannerGraph([[0], [1], [2]], np.int64(3)).n == 3


def test_construction_rejects_a_huge_column_count_without_allocating():
    # Two entries cannot cover 2**62 columns equally, whatever their values.
    for n in (2**62, 2**64):
        with pytest.raises(ValueError, match=f"2 of {n} columns used"):
            TannerGraph([[0], [2**62 - 1]], n)


def test_construction_sorts_unsorted_rows():
    g = TannerGraph(np.array([[2, 0], [1, 2], [1, 0]], dtype=np.int32), 3)
    assert g.check_vars.tolist() == [[0, 2], [1, 2], [0, 1]]
    assert g.check_vars.dtype == np.int64 and g.var_edges.tolist() == [[0, 4], [2, 5], [1, 3]]
    assert (g.n, g.m, g.deg_check, g.deg_var) == (3, 3, 2, 2)
    assert not g.check_vars.flags.writeable and not g.var_edges.flags.writeable


@st.composite
def shuffled_regular(draw):
    """(rows, n): a random matrix of column weight j and row weight d, made of j
    layers that each hold every column once, with each row's entries and the
    rows themselves in random order, as lists or int32 arrays."""
    d, per_layer, j = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n = d * per_layer
    layers = [np.array(draw(st.permutations(range(n)))).reshape(per_layer, d)
              for _ in range(j)]
    rows = [draw(st.permutations(row.tolist())) for row in np.vstack(layers)]
    rows = draw(st.permutations(rows))
    return (np.array(rows, dtype=np.int32) if draw(st.booleans()) else rows), n


@given(shuffled_regular())
@settings(max_examples=200)
def test_construction_matches_per_row_oracle(case):
    rows, n = case
    g = TannerGraph(rows, n)
    assert g.check_vars.dtype == np.int64
    assert g.check_vars.tolist() == [sorted(int(c) for c in row) for row in rows]
    dense = dense_from_support(len(rows), n, rows)
    assert np.array_equal(dense_view(g), dense)
    assert np.array_equal(g.var_edges, dense_tanner_arrays(dense)[1])
    assert (g.n, g.m) == (n, len(rows))
    assert set(dense.sum(axis=1)) == {g.deg_check} and set(dense.sum(axis=0)) == {g.deg_var}


def first_bad_row(rows, n) -> str:
    """The refusal for rows with a bad entry, by a loop over Python lists:
    the first row out of range, else the first row with a repeat."""
    for r, row in enumerate(rows):
        if any(not 0 <= c < n for c in row):
            return f"row {r} has a column index out of range [0, {n})"
    return next(f"row {r} repeats a column" for r, row in enumerate(rows)
                if len(set(row)) < len(row))


@given(shuffled_regular(), st.data())
@settings(max_examples=200)
def test_construction_names_the_oracles_first_bad_row(case, data):
    rows, n = case
    rows = [list(map(int, row)) for row in rows]
    for r in data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)):
        k = data.draw(st.integers(0, len(rows[r]) - 1))
        bad = [-1, -7, n, n + 3] + [c for i, c in enumerate(rows[r]) if i != k]
        rows[r][k] = data.draw(st.sampled_from(bad))
    with pytest.raises(ValueError) as got:
        TannerGraph(rows, n)
    assert str(got.value) == first_bad_row(rows, n)


def test_row_support_strictly_increasing(code25):
    # Every row of check_vars lists its columns in increasing order: on built
    # codes, and on a graph built from rows given in shuffled order.
    rng = np.random.default_rng(43)
    shuffled = TannerGraph([rng.permutation(row) for row in code25.h_x.check_vars], code25.n)
    for g in (code25.h_x, code25.h_z, random_regular(rng, 3, 4, 5), shuffled):
        assert np.all(np.diff(g.check_vars, axis=1) > 0)
    assert np.array_equal(shuffled.check_vars, code25.h_x.check_vars)
