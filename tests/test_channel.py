import numpy as np
import pytest

from oracles import dense_view, mul_mod2, nullspace_basis
from qcldpc.channel import (
    PauliError,
    extract_syndrome,
    sample_error,
    trial_rng,
    trial_uniforms,
)
from qcldpc.decoder import JointBpDecoder


# ---------------------------------------------------------------------------
# sample_error


def test_sample_noiseless_is_zero():
    e = sample_error(50, 0.0, trial_rng(1, 0, 0))
    assert not e.x.any() and not e.z.any()


def test_sample_full_noise_hits_every_qubit():
    e = sample_error(200, 1.0, trial_rng(1, 0, 1))
    assert np.all((e.x | e.z) == 1)


def test_sample_frequencies_within_multinomial_bounds():
    # 4-sigma bounds per category, computed from the multinomial at
    # test time: |count - N q| <= 4 sqrt(N q (1 - q)).
    n, p = 100_000, 0.3
    e = sample_error(n, p, trial_rng(12345, 0, 0))
    counts = {
        "I": int(((e.x == 0) & (e.z == 0)).sum()),
        "X": int(((e.x == 1) & (e.z == 0)).sum()),
        "Y": int(((e.x == 1) & (e.z == 1)).sum()),
        "Z": int(((e.x == 0) & (e.z == 1)).sum()),
    }
    probs = {"I": 1 - p, "X": p / 3, "Y": p / 3, "Z": p / 3}
    assert sum(counts.values()) == n
    for pauli, q in probs.items():
        sigma = (n * q * (1 - q)) ** 0.5
        assert abs(counts[pauli] - n * q) <= 4 * sigma, (pauli, counts)


def test_sample_rejects_bad_rate():
    with pytest.raises(ValueError):
        sample_error(5, 1.5, trial_rng(0, 0, 0))


def test_sampling_deterministic_per_trial_key():
    a = sample_error(64, 0.2, trial_rng(9, 3, 17))
    b = sample_error(64, 0.2, trial_rng(9, 3, 17))
    c = sample_error(64, 0.2, trial_rng(9, 3, 18))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    assert not (np.array_equal(a.x, c.x) and np.array_equal(a.z, c.z))


def test_trial_keys_do_not_collide_across_points():
    a = sample_error(64, 0.2, trial_rng(9, 0, 17))
    b = sample_error(64, 0.2, trial_rng(9, 1, 17))
    assert not (np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z))


def test_trial_key_layout_is_seed_then_point_and_trial():
    # Existing streams must not move: key = [seed, point << 32 | trial].
    for seed, point, trial in [(9, 3, 17), (2**64 - 1, 2**32 - 1, 2**32 - 1), (0, 0, 0)]:
        key = np.array([seed, (point << 32) | trial], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(8)
        assert np.array_equal(trial_rng(seed, point, trial).random(8), want)


@pytest.mark.parametrize(
    "key",
    [(-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 2**32, 0), (0, 0, -1), (0, 0, 2**32)],
)
def test_trial_rng_rejects_keys_that_would_wrap(key):
    # Masking would alias these onto other streams (seed -1 onto 2**64 - 1,
    # trial 2**32 onto trial 0), so they are refused instead.
    with pytest.raises(ValueError, match="must be in"):
        trial_rng(*key)
    seed, point, trial = key
    with pytest.raises(ValueError, match="must be in"):
        trial_uniforms(seed, point, range(trial, trial + 1), 8)


@pytest.mark.parametrize(
    "field, key",
    [("seed", (1.5, 0, 0)), ("seed", (True, 0, 0)), ("point index", (0, 1.0, 0)),
     ("point index", (0, np.bool_(True), 0)), ("trial index", (0, 0, 2.0))],
)
def test_trial_rng_rejects_keys_that_are_not_integers(field, key):
    # Seed 1.5 used to draw seed 1's stream, and a float index raised TypeError.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        trial_rng(*key)


def test_trial_rng_keys_numpy_integers_as_python_ones():
    # np.int32(3) << 32 is 0: the point must widen before it shifts.
    want = trial_rng(9, 3, 17).random(8)
    assert np.array_equal(trial_rng(np.uint64(9), np.int32(3), np.int64(17)).random(8), want)
    assert np.array_equal(trial_uniforms(np.uint64(9), np.int32(3), range(17, 18), 8)[0], want)


@pytest.mark.parametrize(
    "seed, point, trials",
    [(9, 3, range(17, 42)), (0, 0, range(1)), (2**64 - 1, 2**32 - 1, range(2**32 - 5, 2**32))],
)
def test_trial_uniforms_rows_are_the_trial_streams(seed, point, trials):
    u = trial_uniforms(seed, point, trials, 40)
    assert u.shape == (len(trials), 40)
    for row, t in zip(u, trials):
        assert np.array_equal(row, trial_rng(seed, point, t).random(40))


# ---------------------------------------------------------------------------
# extract_syndrome


def zero_error(n):
    return PauliError(x=np.zeros(n, dtype=np.uint8), z=np.zeros(n, dtype=np.uint8))


def test_zero_error_zero_syndrome(code5):
    syn = extract_syndrome(code5, zero_error(code5.n))
    assert not syn.s.any() and not syn.t.any()


def test_kernel_vector_gives_zero_s(code5):
    basis = nullspace_basis(dense_view(code5.h_z))
    assert basis, "h_z should have a nontrivial kernel"
    v = basis[0] ^ basis[-1]
    e = PauliError(x=v, z=np.zeros(code5.n, dtype=np.uint8))
    syn = extract_syndrome(code5, e)
    assert not syn.s.any()


def test_row_of_hx_invisible_to_s(code5):
    # Orthogonality: rows of H_X lie in ker(H_Z).
    row = dense_view(code5.h_x)[7]
    e = PauliError(x=row, z=np.zeros(code5.n, dtype=np.uint8))
    assert not extract_syndrome(code5, e).s.any()


@pytest.mark.parametrize("code_name", ["code5", "code25", "code100"])
def test_syndrome_matches_direct_product(code_name, request):
    code = request.getfixturevalue(code_name)
    rng = np.random.default_rng(2)
    x = (rng.random(code.n) < 0.3).astype(np.uint8)
    z = (rng.random(code.n) < 0.3).astype(np.uint8)
    syn = extract_syndrome(code, PauliError(x=x, z=z))
    assert np.array_equal(syn.s, mul_mod2(dense_view(code.h_z), x))
    assert np.array_equal(syn.t, mul_mod2(dense_view(code.h_x), z))
    # The decoder checks its hard decisions on the very layouts used here.
    decoder = JointBpDecoder.for_code(code)
    assert decoder.gx is code.h_z and decoder.gz is code.h_x


@pytest.mark.parametrize("code_name", ["code5", "code25"])
def test_check_sums_of_a_batch_are_the_row_sums(code_name, request):
    code = request.getfixturevalue(code_name)
    bits = (np.random.default_rng(3).random((7, code.n)) < 0.3).astype(np.uint8)
    for graph in (code.h_x, code.h_z):
        sums = graph.check_sums(bits)
        assert sums.shape == (7, graph.m) and sums.dtype == np.uint8
        assert np.array_equal(sums, [graph.check_sums(row) for row in bits])


def test_syndrome_linearity(code5):
    rng = np.random.default_rng(4)
    errs = []
    for _ in range(2):
        x = (rng.random(code5.n) < 0.4).astype(np.uint8)
        z = (rng.random(code5.n) < 0.4).astype(np.uint8)
        errs.append(PauliError(x=x, z=z))
    combined = PauliError(x=errs[0].x ^ errs[1].x, z=errs[0].z ^ errs[1].z)
    s0, s1 = extract_syndrome(code5, errs[0]), extract_syndrome(code5, errs[1])
    sc = extract_syndrome(code5, combined)
    assert np.array_equal(sc.s, s0.s ^ s1.s)
    assert np.array_equal(sc.t, s0.t ^ s1.t)


def test_stabilizers_invisible_to_syndrome(code5):
    rng = np.random.default_rng(6)
    x = (rng.random(code5.n) < 0.3).astype(np.uint8)
    z = (rng.random(code5.n) < 0.3).astype(np.uint8)
    base = extract_syndrome(code5, PauliError(x=x, z=z))
    hx, hz = dense_view(code5.h_x), dense_view(code5.h_z)
    for _ in range(20):
        picks_x = rng.integers(0, 2, hx.shape[0]).astype(np.uint8)
        picks_z = rng.integers(0, 2, hz.shape[0]).astype(np.uint8)
        stab_x = (picks_x @ hx) % 2
        stab_z = (picks_z @ hz) % 2
        moved = PauliError(
            x=x ^ stab_x.astype(np.uint8), z=z ^ stab_z.astype(np.uint8)
        )
        syn = extract_syndrome(code5, moved)
        assert np.array_equal(syn.s, base.s) and np.array_equal(syn.t, base.t)


def test_syndrome_length_mismatch(code5):
    with pytest.raises(ValueError):
        extract_syndrome(code5, zero_error(code5.n + 1))


def test_pauli_error_rejects_components_of_unequal_length():
    with pytest.raises(ValueError, match="^x and z must be 1-D arrays of equal length$"):
        PauliError(np.zeros(5, np.uint8), np.zeros(4, np.uint8))


@pytest.mark.parametrize("side", ["x", "z"])
@pytest.mark.parametrize("value", [2, 0.7])
def test_pauli_error_rejects_non_binary_bits(side, value):
    # A 2 used to pass, and extract_syndrome then returned a syndrome holding 2.
    bits = {"x": np.zeros(5, dtype=type(value)), "z": np.zeros(5, dtype=type(value))}
    bits[side][2] = value
    with pytest.raises(ValueError, match=f"^{side} must hold only 0 and 1"):
        PauliError(**bits)
