import math
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mul_mod2
from qcldpc import build_code
from qcldpc.channel import PauliError, Syndrome, extract_syndrome, sample_error, trial_rng
from qcldpc.decoder import DecodeOutcome, DecoderConfig, JointBpDecoder
from qcldpc.gf2 import SparseBinaryMatrix


def zero_syndrome(code):
    return Syndrome(
        s=np.zeros(code.h_z.rows, dtype=np.uint8),
        t=np.zeros(code.h_x.rows, dtype=np.uint8),
    )


def weight_one_error(n, i, xb, zb):
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    x[i], z[i] = xb, zb
    return PauliError(x=x, z=z)


def syndromes_match(code, outcome, syn):
    return np.array_equal(mul_mod2(code.h_z.to_dense(), outcome.x_hat), syn.s) and np.array_equal(
        mul_mod2(code.h_x.to_dense(), outcome.z_hat), syn.t
    )


# ---------------------------------------------------------------------------
# config validation


def test_config_defaults():
    cfg = DecoderConfig()
    assert cfg.max_iterations == 100 and cfg.llr_clip == 25.0 and cfg.damping == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iterations": 0},
        {"llr_clip": 0.0},
        {"llr_clip": -1.0},
        {"damping": 1.0},
        {"damping": -0.1},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DecoderConfig(**kwargs)


# ---------------------------------------------------------------------------
# termination contract


def test_zero_syndrome_converges_immediately(code25):
    out = JointBpDecoder.for_code(code25).decode(zero_syndrome(code25), 0.05)
    assert out.converged and out.iterations == 0
    assert not out.x_hat.any() and not out.z_hat.any()


def test_zero_rate_zero_syndrome(code25):
    out = JointBpDecoder.for_code(code25).decode(zero_syndrome(code25), 0.0)
    assert out.converged and out.iterations == 0
    assert not out.x_hat.any()


def test_vanishing_rate_zero_syndrome_gives_zero_estimate(code25):
    # Prior mass collapses onto the all-identity error as p -> 0+.
    out = JointBpDecoder.for_code(code25).decode(zero_syndrome(code25), 1e-12)
    assert out.converged and out.iterations == 0
    assert not out.x_hat.any() and not out.z_hat.any()


def test_zero_rate_nonzero_syndrome_fails_immediately(code25):
    e = weight_one_error(code25.n, 3, 1, 0)
    syn = extract_syndrome(code25, e)
    out = JointBpDecoder.for_code(code25).decode(syn, 0.0)
    assert not out.converged and out.iterations == 0


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_decode_rejects_bad_rate(code25, bad):
    with pytest.raises(ValueError):
        JointBpDecoder.for_code(code25).decode(zero_syndrome(code25), bad)


def test_decode_rejects_wrong_syndrome_length(code25):
    syn = Syndrome(
        s=np.zeros(code25.h_z.rows + 1, dtype=np.uint8),
        t=np.zeros(code25.h_x.rows, dtype=np.uint8),
    )
    with pytest.raises(ValueError):
        JointBpDecoder.for_code(code25).decode(syn, 0.05)


@pytest.mark.parametrize("side", ["s", "t"])
@pytest.mark.parametrize("value", [0.7, -1, 2])
def test_decode_rejects_non_binary_syndrome(code25, side, value):
    # 0.7 used to read as 0 and converge at once; -1 wrapped to 255.
    syn = zero_syndrome(code25)
    bad = getattr(syn, side).astype(type(value))
    bad[3] = value
    syn = Syndrome(**{**vars(syn), side: bad})
    dec = JointBpDecoder.for_code(code25)
    with pytest.raises(ValueError, match=f"^{side} must hold only 0 and 1"):
        dec.decode(syn, 0.05)
    with pytest.raises(ValueError, match=f"^{side.upper()} must hold only 0 and 1"):
        dec.decode_batch([syn.s, syn.s], [syn.t, syn.t], 0.05)


def test_decode_batch_rejects_mismatched_batches(code25):
    syn = zero_syndrome(code25)
    dec = JointBpDecoder.for_code(code25)
    with pytest.raises(ValueError, match="^T has shape"):
        dec.decode_batch([syn.s, syn.s], [syn.t], 0.05)
    with pytest.raises(ValueError, match="^S has shape"):
        dec.decode_batch(syn.s, syn.t, 0.05)  # one frame, not a batch of one
    assert dec.decode_batch(np.zeros((0, code25.h_z.rows)), np.zeros((0, code25.h_x.rows)),
                            0.05) == []


def test_decode_batch_requires_graphs_of_equal_shape():
    # A 2 x 4 H_X against a 1 x 4 H_Z: decode works, decode_batch cannot stack them.
    h_x = SparseBinaryMatrix(2, 4, [[0, 1], [2, 3]])
    h_z = SparseBinaryMatrix(1, 4, [[0, 1, 2, 3]])
    dec = JointBpDecoder(h_x, h_z)
    syn = Syndrome(s=np.zeros(1, dtype=np.uint8), t=np.array([1, 0], dtype=np.uint8))
    assert dec.decode(syn, 0.1).iterations >= 0
    with pytest.raises(ValueError, match="equal shape"):
        dec.decode_batch([syn.s], [syn.t], 0.1)


# ---------------------------------------------------------------------------
# decode_batch against the frame-by-frame decode


def assert_batch_matches_decode(dec, syns, p_d, want=None):
    """decode_batch over syns gives, frame by frame, what decode gives (or `want`)."""
    want = want or [dec.decode(syn, p_d) for syn in syns]
    batch = dec.decode_batch([syn.s for syn in syns], [syn.t for syn in syns], p_d)
    assert len(batch) == len(want)
    for got, exp in zip(batch, want):
        assert np.array_equal(got.x_hat, exp.x_hat) and got.x_hat.dtype == exp.x_hat.dtype
        assert np.array_equal(got.z_hat, exp.z_hat) and got.z_hat.dtype == exp.z_hat.dtype
        assert (got.converged, got.iterations) == (exp.converged, exp.iterations)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 12),
    p_d=st.sampled_from([0.0, 1e-3, 0.03, 0.08, 0.2]),
    damping=st.sampled_from([0.0, 0.25, 0.6]),
    llr_clip=st.sampled_from([1.5, 4.0, 25.0, 40.0]),  # 40: tanh(clip / 2) rounds to 1
    max_iterations=st.integers(1, 25),
    keyed=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_decode_batch_equals_decode_property(
    code5, batch, p_d, damping, llr_clip, max_iterations, keyed, seed
):
    cfg = DecoderConfig(max_iterations=max_iterations, llr_clip=llr_clip, damping=damping)
    dec = JointBpDecoder.for_code(code5, cfg)
    if keyed:  # syndromes of channel errors (a larger rate, so that some decodes work)
        syns = [
            extract_syndrome(code5, sample_error(code5.n, max(p_d, 0.1), trial_rng(seed, 0, t)))
            for t in range(batch)
        ]
    else:  # arbitrary syndrome pairs, most of them far from any low-weight error
        rng = np.random.default_rng(seed)
        syns = [
            Syndrome(
                s=rng.integers(0, 2, code5.h_z.rows).astype(np.uint8),
                t=rng.integers(0, 2, code5.h_x.rows).astype(np.uint8),
            )
            for _ in range(batch)
        ]
    assert_batch_matches_decode(dec, syns, p_d)


@pytest.mark.parametrize("p_d", [0.02, 0.05, 0.08])
@pytest.mark.parametrize("P", [5, 25, 100])
def test_decode_batch_equals_decode_on_keyed_trials(pair, P, p_d):
    # 84 keyed trials per case, cut into batches of 1, 7 and 25 (the
    # Monte Carlo chunk; 84 = 3 * 25 + 9 leaves a short last batch).
    code = build_code(pair, P)
    dec = JointBpDecoder.for_code(code)
    syns = [
        extract_syndrome(code, sample_error(code.n, p_d, trial_rng(2024, P, t)))
        for t in range(84)
    ]
    want = [dec.decode(syn, p_d) for syn in syns]
    for batch in (1, 7, 25):
        for lo in range(0, len(syns), batch):
            assert_batch_matches_decode(dec, syns[lo:lo + batch], p_d, want[lo:lo + batch])


@pytest.fixture(scope="module")
def capped_frames(code25):
    """Keyed n = 200 frames at p_d = 0.08 that decode runs to the iteration cap,
    with decode's outcomes."""
    dec = JointBpDecoder.for_code(code25)
    syns = [
        extract_syndrome(code25, sample_error(code25.n, 0.08, trial_rng(808, 0, t)))
        for t in range(60)
    ]
    frames = [(syn, out) for syn in syns
              if (out := dec.decode(syn, 0.08)).iterations == dec.cfg.max_iterations]
    assert len(frames) >= 8
    return frames[:8]


@pytest.mark.parametrize("batch", [1, 2, 3, 4])
def test_decode_batch_equals_decode_on_capped_frames(code25, capped_frames, batch):
    # Most of a chunk's BP iterations run on a few capped frames left in the batch.
    dec = JointBpDecoder.for_code(code25)
    for lo in range(0, len(capped_frames), batch):
        syns, want = zip(*capped_frames[lo:lo + batch])
        assert_batch_matches_decode(dec, syns, 0.08, list(want))


def test_decode_batch_equals_decode_where_the_atanh_guard_binds(code5):
    # At llr_clip = 40, tanh(clip / 2) rounds to 1; in trial 22 a product of
    # such factors reaches +-1 and _TANH_GUARD changes the frame's outcome.
    dec = JointBpDecoder.for_code(code5, DecoderConfig(llr_clip=40.0))
    syns = [
        extract_syndrome(code5, sample_error(code5.n, 0.03, trial_rng(1, 0, t)))
        for t in range(15, 30)
    ]
    assert_batch_matches_decode(dec, syns, 0.03)


def test_decode_batch_asks_stopped_once_per_round(code25):
    dec = JointBpDecoder.for_code(code25)
    syns = [
        extract_syndrome(code25, sample_error(code25.n, 0.06, trial_rng(5, 0, t)))
        for t in range(6)
    ]
    S, T = [syn.s for syn in syns], [syn.t for syn in syns]
    want = dec.decode_batch(S, T, 0.06)
    asked = count()
    got = dec.decode_batch(S, T, 0.06, stopped=lambda: next(asked) < 0)  # never stops
    assert [(o.converged, o.iterations) for o in got] == [
        (o.converged, o.iterations) for o in want]
    assert all((a.x_hat == b.x_hat).all() and (a.z_hat == b.z_hat).all()
               for a, b in zip(got, want))
    rounds = max(o.iterations for o in want)
    assert rounds >= 3 and next(asked) == rounds
    asked = count()
    assert dec.decode_batch(S, T, 0.06, stopped=lambda: next(asked) == 2) == []
    assert next(asked) == 3  # abandoned at the third round's check


# ---------------------------------------------------------------------------
# correctness on structured errors


def test_weight_one_errors_recovered_exhaustively(code25):
    # Every single-qubit X, Y, and Z error on the girth-6 code.  (The
    # girth-4 sizes, e.g. P = 5, duplicate whole circulant columns and
    # make some weight-1 errors genuinely ambiguous.)
    dec = JointBpDecoder.for_code(code25, DecoderConfig(max_iterations=20))
    for i in range(code25.n):
        for xb, zb in ((1, 0), (1, 1), (0, 1)):
            e = weight_one_error(code25.n, i, xb, zb)
            syn = extract_syndrome(code25, e)
            out = dec.decode(syn, 0.01)
            assert out.converged
            assert np.array_equal(out.x_hat, e.x) and np.array_equal(out.z_hat, e.z)


def test_random_syndromes_contract(code25):
    # Uniformly random syndrome pairs: whenever the decoder claims
    # convergence, the re-derived syndrome must equal the input.
    rng = np.random.default_rng(123)
    dec = JointBpDecoder.for_code(code25, DecoderConfig(max_iterations=5))
    seen = {True: 0, False: 0}
    for _ in range(60):
        syn = Syndrome(
            s=rng.integers(0, 2, code25.h_z.rows).astype(np.uint8),
            t=rng.integers(0, 2, code25.h_x.rows).astype(np.uint8),
        )
        out = dec.decode(syn, 0.05)
        seen[out.converged] += 1
        assert out.iterations <= 5
        if out.converged:
            assert syndromes_match(code25, out, syn)
    assert seen[False] > 0  # 5 iterations cannot clean up everything


def test_convergence_soundness_on_channel_errors(code25):
    dec = JointBpDecoder.for_code(code25, DecoderConfig())
    for t in range(200):
        rng = trial_rng(31, 0, t)
        e = sample_error(code25.n, 0.06, rng)
        syn = extract_syndrome(code25, e)
        out = dec.decode(syn, 0.06)
        if out.converged:
            assert syndromes_match(code25, out, syn)


# ---------------------------------------------------------------------------
# posterior LLRs


def test_prior_only_llrs_match_closed_form(code25):
    dec = JointBpDecoder.for_code(code25)
    dec.reset(0.1)
    lx, lz = dec.posterior_llrs()
    assert np.allclose(lx, math.log(14.0))
    assert np.allclose(lz, math.log(14.0))


def test_uniform_pauli_prior_gives_zero_llrs(code25):
    dec = JointBpDecoder.for_code(code25)
    dec.reset(0.75)
    lx, lz = dec.posterior_llrs()
    assert np.all(lx == 0.0) and np.all(lz == 0.0)


def test_llrs_bounded_by_clip(code25):
    cfg = DecoderConfig(max_iterations=40, llr_clip=8.0)
    dec = JointBpDecoder.for_code(code25, cfg)
    rng = np.random.default_rng(5)
    for _ in range(10):
        syn = Syndrome(
            s=rng.integers(0, 2, code25.h_z.rows).astype(np.uint8),
            t=rng.integers(0, 2, code25.h_x.rows).astype(np.uint8),
        )
        dec.decode(syn, 0.03)
        lx, lz = dec.posterior_llrs()
        assert np.all(np.abs(lx) <= cfg.llr_clip)
        assert np.all(np.abs(lz) <= cfg.llr_clip)
        assert np.all(np.isfinite(lx)) and np.all(np.isfinite(lz))


def test_posterior_llrs_requires_state(code25):
    dec = JointBpDecoder.for_code(code25)
    with pytest.raises(RuntimeError):
        dec.posterior_llrs()


def test_decode_batch_leaves_no_single_frame_posteriors(code25):
    dec = JointBpDecoder.for_code(code25)
    dec.reset(0.1)
    dec.decode_batch([zero_syndrome(code25).s], [zero_syndrome(code25).t], 0.05)
    with pytest.raises(RuntimeError):
        dec.posterior_llrs()


# ---------------------------------------------------------------------------
# symmetry and determinism


def permute_cols(M, perm):
    return SparseBinaryMatrix(M.rows, M.cols, [perm[sup] for sup in M.row_support])


def test_qubit_permutation_equivariance(code5):
    cfg = DecoderConfig(max_iterations=30)
    for trial in range(25):
        rng = trial_rng(99, 0, trial)
        e = sample_error(code5.n, 0.06, rng)
        syn = extract_syndrome(code5, e)
        perm = np.random.default_rng(trial).permutation(code5.n)
        base = JointBpDecoder(code5.h_x, code5.h_z, cfg).decode(syn, 0.06)
        permd = JointBpDecoder(
            permute_cols(code5.h_x, perm), permute_cols(code5.h_z, perm), cfg
        ).decode(syn, 0.06)
        assert np.array_equal(permd.x_hat[perm], base.x_hat)
        assert np.array_equal(permd.z_hat[perm], base.z_hat)
        assert permd.converged == base.converged
        assert permd.iterations == base.iterations


def test_xz_exchange_symmetry(code5):
    cfg = DecoderConfig(max_iterations=30)
    for trial in range(25):
        rng = trial_rng(77, 0, trial)
        e = sample_error(code5.n, 0.06, rng)
        syn = extract_syndrome(code5, e)
        base = JointBpDecoder(code5.h_x, code5.h_z, cfg).decode(syn, 0.06)
        swapped = JointBpDecoder(code5.h_z, code5.h_x, cfg).decode(
            Syndrome(s=syn.t, t=syn.s), 0.06
        )
        assert np.array_equal(swapped.x_hat, base.z_hat)
        assert np.array_equal(swapped.z_hat, base.x_hat)
        assert swapped.converged == base.converged
        assert swapped.iterations == base.iterations


def test_decode_is_deterministic(code25):
    e = sample_error(code25.n, 0.07, trial_rng(1, 0, 5))
    syn = extract_syndrome(code25, e)
    a = JointBpDecoder.for_code(code25).decode(syn, 0.07)
    b = JointBpDecoder.for_code(code25).decode(syn, 0.07)
    assert np.array_equal(a.x_hat, b.x_hat) and np.array_equal(a.z_hat, b.z_hat)
    assert (a.converged, a.iterations) == (b.converged, b.iterations)


def test_decoder_instance_reusable(code25):
    dec = JointBpDecoder.for_code(code25)
    e = sample_error(code25.n, 0.07, trial_rng(1, 0, 5))
    syn = extract_syndrome(code25, e)
    first = dec.decode(syn, 0.07)
    dec.decode(zero_syndrome(code25), 0.02)  # disturb the workspace
    again = dec.decode(syn, 0.07)
    assert np.array_equal(first.x_hat, again.x_hat)
    assert (first.converged, first.iterations) == (again.converged, again.iterations)


def test_damping_still_sound(code25):
    cfg = DecoderConfig(max_iterations=60, damping=0.3)
    dec = JointBpDecoder.for_code(code25, cfg)
    for t in range(40):
        rng = trial_rng(13, 0, t)
        e = sample_error(code25.n, 0.05, rng)
        syn = extract_syndrome(code25, e)
        out = dec.decode(syn, 0.05)
        if out.converged:
            assert syndromes_match(code25, out, syn)


def test_outcome_shape(code25):
    out = JointBpDecoder.for_code(code25).decode(zero_syndrome(code25), 0.02)
    assert isinstance(out, DecodeOutcome)
    assert out.x_hat.shape == (code25.n,) and out.z_hat.shape == (code25.n,)
    assert out.x_hat.dtype == np.uint8
