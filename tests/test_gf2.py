import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_rank, has_four_cycle, mul_mod2, row_space_set, short_cycle_girth
from qcldpc.codes import ExponentMatrix, expand_exponent_matrix
from qcldpc.gf2 import RowSpace, SparseBinaryMatrix, girth


def random_sparse(rng, rows, cols, density=0.2):
    return SparseBinaryMatrix.from_dense(rng.random((rows, cols)) < density)


def cpm(shift, P):
    """The P x P circulant permutation matrix with the given shift."""
    return expand_exponent_matrix(ExponentMatrix.from_rows([[shift]]), P)


def random_regular(rng, J, L, P):
    """A random (row weight L, column weight J) matrix of J x L circulant blocks."""
    return expand_exponent_matrix(ExponentMatrix.from_rows(rng.integers(0, P, (J, L))), P)


# ---------------------------------------------------------------------------
# circulant permutation matrices (1 x 1 exponent matrices)


def test_cpm_zero_shift_is_identity():
    assert np.array_equal(cpm(0, 4).to_dense(), np.eye(4, dtype=np.uint8))


def test_cpm_shift_one():
    m = cpm(1, 3)
    assert [tuple(sup) for sup in m.row_support] == [(1,), (2,), (0,)]


def test_cpm_negative_shift_reduces_mod_p():
    assert cpm(-1, 3) == cpm(2, 3)
    assert [tuple(sup) for sup in cpm(-1, 3).row_support] == [(2,), (0,), (1,)]


def test_cpm_rejects_zero_size():
    with pytest.raises(ValueError):
        cpm(1, 0)


@given(st.integers(-300, 300), st.integers(1, 40))
def test_cpm_shift_wraps(a, P):
    assert cpm(a, P) == cpm(a % P, P)


@given(st.integers(0, 39), st.integers(1, 40))
def test_cpm_inverse_pairing(a, P):
    a %= P
    prod = mul_mod2(cpm(a, P).to_dense(), cpm(P - a, P).to_dense())
    assert np.array_equal(prod, np.eye(P, dtype=np.uint8))


# ---------------------------------------------------------------------------
# circulant products, against the dense product mod 2


@given(st.integers(0, 30), st.integers(0, 30), st.integers(2, 31))
def test_mat_mul_cpm_composition(a, b, P):
    lhs = mul_mod2(cpm(a, P).to_dense(), cpm(b, P).to_dense())
    assert np.array_equal(lhs, cpm(a + b, P).to_dense())


def test_mat_mul_characteristic_two_cancellation():
    # CPM(c) + CPM(c) = 0: duplicate support entries cancel at construction.
    c = cpm(3, 5)
    doubled = SparseBinaryMatrix(
        5, 5, [np.concatenate([sup, sup]) for sup in c.row_support]
    )
    assert doubled.nnz == 0


# ---------------------------------------------------------------------------
# matrix-vector products: TannerGraph.check_sums


def test_mat_vec_identity():
    v = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(cpm(0, 4).tanner_graph().check_sums(v), v)


def test_mat_vec_zero_vector():
    rng = np.random.default_rng(5)
    m = random_regular(rng, 2, 5, 4)
    assert not m.tanner_graph().check_sums(np.zeros(m.cols, dtype=np.uint8)).any()


def test_mat_vec_all_ones_two_by_two():
    m = SparseBinaryMatrix.from_dense(np.ones((2, 2), dtype=np.uint8))
    got = m.tanner_graph().check_sums(np.array([1, 0], dtype=np.uint8))
    assert np.array_equal(got, np.array([1, 1], dtype=np.uint8))


@given(st.integers(0, 2**40))
@settings(max_examples=30)
def test_mat_vec_linearity(seed):
    rng = np.random.default_rng(seed)
    m = random_regular(rng, 3, 4, 5)
    graph = m.tanner_graph()
    u = (rng.random(m.cols) < 0.5).astype(np.uint8)
    v = (rng.random(m.cols) < 0.5).astype(np.uint8)
    lhs = graph.check_sums(u ^ v)
    assert np.array_equal(lhs, graph.check_sums(u) ^ graph.check_sums(v))
    assert np.array_equal(lhs, mul_mod2(m.to_dense(), u ^ v))
    batch = np.stack((u, v))
    assert np.array_equal(graph.check_sums(batch), mul_mod2(batch, m.to_dense().T))


# ---------------------------------------------------------------------------
# rank


def test_rank_identity():
    assert RowSpace(cpm(0, 7)).rank == 7


def test_rank_zero_matrix():
    assert RowSpace(SparseBinaryMatrix(4, 6, [[], [], [], []])).rank == 0


def test_rank_dependent_rows():
    assert RowSpace(SparseBinaryMatrix.from_dense(np.ones((2, 2)))).rank == 1


@given(st.integers(0, 2**40))
@settings(max_examples=30)
def test_rank_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((8, 12)) < 0.3).astype(np.uint8)
    assert RowSpace(SparseBinaryMatrix.from_dense(dense)).rank == dense_rank(dense)


def test_rank_invariant_under_row_permutation_and_addition():
    rng = np.random.default_rng(17)
    dense = (rng.random((10, 15)) < 0.3).astype(np.uint8)
    base = RowSpace(SparseBinaryMatrix.from_dense(dense)).rank

    perm = rng.permutation(10)
    assert RowSpace(SparseBinaryMatrix.from_dense(dense[perm])).rank == base

    added = dense.copy()
    added[3] ^= added[7]  # row addition
    assert RowSpace(SparseBinaryMatrix.from_dense(added)).rank == base


# ---------------------------------------------------------------------------
# row-space membership


def test_row_space_contains_each_row():
    rng = np.random.default_rng(23)
    m = random_sparse(rng, 6, 11, 0.4)
    space = RowSpace(m)
    for row in m.to_dense():
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
    m = RowSpace(SparseBinaryMatrix.from_dense(dense))
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
    dense = m.to_dense()
    space = RowSpace(m)
    v = dense[2] ^ dense[5]
    assert space.contains(v)
    for row in dense:
        assert space.contains(v ^ row)


def test_row_space_length_mismatch():
    with pytest.raises(ValueError):
        RowSpace(cpm(0, 4)).contains(np.zeros(5, dtype=np.uint8))


# ---------------------------------------------------------------------------
# girth


def test_girth_two_by_two_all_ones():
    assert girth(SparseBinaryMatrix.from_dense(np.ones((2, 2)))) == 4


def test_girth_single_cpm_unbounded():
    assert girth(cpm(3, 7)) == math.inf


def test_girth_zero_matrix_unbounded():
    assert girth(SparseBinaryMatrix(3, 5, [[], [], []])) == math.inf


def test_girth_six_cross_checked_by_enumeration(code25):
    # Independent pattern search confirms the BFS value on both
    # matrices of the first girth-6 code.
    for h in (code25.h_x, code25.h_z):
        assert girth(h) == 6
        assert short_cycle_girth(h.to_dense()) == 6


def test_girth_at_least_six_iff_no_four_cycle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        dense = (rng.random((8, 12)) < 0.25).astype(np.uint8)
        m = SparseBinaryMatrix.from_dense(dense)
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
    assert girth(SparseBinaryMatrix.from_dense(dense)) == 6


# ---------------------------------------------------------------------------
# SparseBinaryMatrix construction contracts


def test_construction_cancels_duplicates_mod2():
    m = SparseBinaryMatrix(2, 4, [[1, 1, 2], [3, 3, 3, 3]])
    assert [tuple(sup) for sup in m.row_support] == [(2,), ()]


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseBinaryMatrix(1, 3, [[3]])
    with pytest.raises(ValueError):
        SparseBinaryMatrix(1, 3, [[-1]])


def test_row_support_strictly_increasing():
    rng = np.random.default_rng(43)
    m = random_sparse(rng, 10, 20, 0.4)
    for sup in m.row_support:
        assert np.all(np.diff(sup) > 0)
