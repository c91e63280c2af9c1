import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mul_mod2, nullspace_basis, row_space_set
from qcldpc import build_code, builtin_pair_j3_l8, sim
from qcldpc.channel import PauliError, extract_syndrome, sample_error, trial_rng
from qcldpc.cli import _csv_row
from qcldpc.decoder import DecodeOutcome, DecoderConfig, JointBpDecoder
from qcldpc.sim import (
    StopRule,
    classify,
    floor_statistics,
    hashing_bound_threshold,
    read_failure_log,
    run_point,
    run_sweep,
    wilson_interval,
    write_failure_log,
)


def outcome_from(x_hat, z_hat, converged=True, iterations=1):
    return DecodeOutcome(
        x_hat=x_hat.astype(np.uint8),
        z_hat=z_hat.astype(np.uint8),
        converged=converged,
        iterations=iterations,
    )


def random_error(n, p, seed):
    return sample_error(n, p, trial_rng(seed, 0, 0))


# ---------------------------------------------------------------------------
# classify


def test_classify_exact_recovery(code5):
    e = random_error(code5.n, 0.2, 1)
    rec = classify(code5, e, outcome_from(e.x, e.z))
    assert rec.success and rec.bit_errors == 0
    assert rec.residual_weight_x == 0 and rec.residual_weight_z == 0


def test_classify_degenerate_corrections(code5):
    # Adding stabilizer rows to the estimate never breaks success.
    rng = np.random.default_rng(8)
    hx, hz = code5.h_x.to_dense(), code5.h_z.to_dense()
    e = random_error(code5.n, 0.2, 2)
    for _ in range(100):
        stab_x = (rng.integers(0, 2, hx.shape[0]) @ hx % 2).astype(np.uint8)
        stab_z = (rng.integers(0, 2, hz.shape[0]) @ hz % 2).astype(np.uint8)
        rec = classify(code5, e, outcome_from(e.x ^ stab_x, e.z ^ stab_z))
        assert rec.success


def test_classify_kernel_vector_outside_row_space_fails(code5):
    # Brute force: enumerate ker(h_z) via its basis and the full row
    # space of h_x; pick a kernel vector that is not a stabilizer.
    space = row_space_set(code5.h_x.to_dense())
    basis = nullspace_basis(code5.h_z.to_dense())
    found = None
    for mask in range(1, 1 << min(len(basis), 14)):
        v = np.zeros(code5.n, dtype=np.uint8)
        for b in range(len(basis)):
            if (mask >> b) & 1:
                v ^= basis[b]
        if v.tobytes() not in space:
            found = v
            break
    assert found is not None, "kernel must exceed the stabilizer row space"
    assert not mul_mod2(code5.h_z.to_dense(), found).any()

    e = random_error(code5.n, 0.2, 3)
    rec = classify(code5, e, outcome_from(e.x ^ found, e.z))
    assert not rec.success
    assert rec.bit_errors == int(found.sum())  # residual is exactly `found`


def test_classify_bit_error_metric(code5):
    e = random_error(code5.n, 0.2, 4)
    flip = np.zeros(code5.n, dtype=np.uint8)
    flip[:3] = 1  # not a stabilizer with overwhelming probability
    rec = classify(code5, e, outcome_from(e.x ^ flip, e.z ^ flip))
    if not rec.success:
        assert rec.bit_errors == 3
        assert rec.residual_weight_x == 3 and rec.residual_weight_z == 3


def test_classify_dimension_mismatch(code5):
    e = random_error(code5.n + 1, 0.2, 5)
    with pytest.raises(ValueError):
        classify(code5, e, outcome_from(e.x, e.z))
    # z_hat is checked too: a wrong length must not broadcast against the residual.
    zero = np.zeros(code5.n, dtype=np.uint8)
    for length in (1, code5.n + 1):
        with pytest.raises(ValueError):
            classify(code5, PauliError(zero, zero), outcome_from(zero, np.ones(length)))


def test_nonconvergence_chain(code25):
    # converged = False => recomputed syndrome differs => the residual
    # has a nonzero syndrome => it cannot be a stabilizer => failure.
    dec = JointBpDecoder.for_code(code25, DecoderConfig(max_iterations=8))
    hx, hz = code25.h_x.to_dense(), code25.h_z.to_dense()
    checked = 0
    for t in range(300):
        rng = trial_rng(41, 0, t)
        e = sample_error(code25.n, 0.08, rng)
        syn = extract_syndrome(code25, e)
        out = dec.decode(syn, 0.08)
        if out.converged:
            continue
        checked += 1
        s_hat = mul_mod2(hz, out.x_hat)
        t_hat = mul_mod2(hx, out.z_hat)
        assert not (np.array_equal(s_hat, syn.s) and np.array_equal(t_hat, syn.t))
        res_x, res_z = e.x ^ out.x_hat, e.z ^ out.z_hat
        rs = mul_mod2(hz, res_x)
        rt = mul_mod2(hx, res_z)
        assert rs.any() or rt.any()
        if rs.any():
            assert not code25.x_stabilizers.contains(res_x)
        if rt.any():
            assert not code25.z_stabilizers.contains(res_z)
        assert not classify(code25, e, out).success
    assert checked > 0


# ---------------------------------------------------------------------------
# run_point / run_sweep


def test_run_point_noiseless(code5):
    res = run_point(code5, 0.0, StopRule(10, 200), seed=1, workers=1)
    assert res.trials == 200 and res.frame_errors == 0
    assert res.fer == 0.0 and res.ber == 0.0
    assert res.ci_low == 0.0
    assert res.mean_iterations == 0.0


def test_run_point_tiny_code_fails_at_high_noise(code5):
    cfg = DecoderConfig(max_iterations=30)
    res = run_point(code5, 0.3, StopRule(50, 2000), seed=1, cfg=cfg, workers=1)
    assert res.frame_errors > 0 and res.fer > 0
    assert res.ber <= res.fer
    assert res.ci_low <= res.fer <= res.ci_high
    assert res.weight_histogram and sum(res.weight_histogram.values()) == res.frame_errors
    assert res.total_bit_errors == sum(w * c for w, c in res.weight_histogram.items())


def test_run_point_respects_frame_error_stop(code5):
    cfg = DecoderConfig(max_iterations=30)
    res = run_point(code5, 0.3, StopRule(5, 2000), seed=1, cfg=cfg, workers=1)
    assert res.frame_errors == 5
    assert not res.failures[-1].success
    assert res.failures[-1].trial_index == res.trials - 1


def test_run_point_deterministic_across_workers(code5):
    cfg = DecoderConfig(max_iterations=30)
    results = [
        run_point(code5, 0.25, StopRule(30, 600), seed=9, cfg=cfg, workers=w)
        for w in (1, 2, 3)
    ]
    base = results[0]
    for res in results[1:]:
        assert res == base


@pytest.mark.parametrize("chunk", [1, 7, 250])
def test_run_point_chunk_size_never_changes_results(code5, monkeypatch, chunk):
    # Only the parent reads _CHUNK, and it is patched before the pool starts.
    cfg = DecoderConfig(max_iterations=30)
    stop = StopRule(12, 600)
    base = run_point(code5, 0.25, stop, seed=9, cfg=cfg, workers=1, point_index=2)
    assert base.trials < stop.max_trials and (chunk == 1 or base.trials % chunk)
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    pooled = run_point(code5, 0.25, stop, seed=9, cfg=cfg, workers=2, point_index=2)
    assert pooled == base


class _CountingPool(ProcessPoolExecutor):
    """Records how many pools a sweep opens, how each is shut down, and
    how many submitted chunks were still pending (neither started nor
    cancelled) at shutdown."""

    events: list = []

    def __init__(self, *args, **kwargs):
        self.events.append("open")
        self.futures = []
        super().__init__(*args, **kwargs)

    def submit(self, *args, **kwargs):
        fut = super().submit(*args, **kwargs)
        self.futures.append(fut)
        return fut

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.events.append(("shutdown", cancel_futures))
        self.events.append(("pending", sum(not (f.running() or f.done()) for f in self.futures)))
        super().shutdown(wait, cancel_futures=cancel_futures)


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr(_CountingPool, "events", [])
    monkeypatch.setattr(sim, "ProcessPoolExecutor", _CountingPool)
    return _CountingPool.events


def test_run_sweep_shares_one_pool_across_points(code5, counting_pool):
    # Point 0 stops after a few trials, so chunks of it are still queued or
    # running when point 1 starts on the same pool; none may leak into it.
    cfg = DecoderConfig(max_iterations=30)
    grid, stop = [0.3, 0.2, 0.1], StopRule(5, 300)
    sweep = run_sweep(code5, grid, stop, seed=3, cfg=cfg, workers=2)
    assert counting_pool == ["open", ("shutdown", False), ("pending", 0)]
    alone = [
        run_point(code5, p, stop, seed=3, cfg=cfg, workers=1, point_index=i)
        for i, p in enumerate(grid)
    ]
    assert sweep == alone
    assert sweep[0].trials < 50 and sweep[0].frame_errors == 5


def test_run_sweep_shuts_pool_down_when_a_point_fails(code5, counting_pool):
    with pytest.raises(ValueError, match="p_d"):
        run_sweep(code5, [0.1, 0.5, 1.0], StopRule(1, 30), seed=0, workers=2)
    assert counting_pool == ["open", ("shutdown", False), ("pending", 0)]


_UNPICKLABLE_CHUNK = """
import pickle
from qcldpc import build_code, builtin_pair_j3_l8, sim
real = sim._run_chunk
sim._run_chunk = lambda *args: real(*args)  # pickle cannot find a lambda by name
try:
    sim.run_point(build_code(builtin_pair_j3_l8(), 5), 0.05, sim.StopRule(5, 100), 1, workers=2)
except pickle.PicklingError:
    print("PicklingError")
"""


def test_run_point_raises_when_a_chunk_fails_to_pickle():
    # Shutting down with cancel_futures=True after such a failure used to
    # hang forever on CPython 3.11, with both workers left running.
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", _UNPICKLABLE_CHUNK], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_point hung after a chunk failed to pickle")
    assert proc.returncode == 0 and out.strip() == "PicklingError"


# ---------------------------------------------------------------------------
# chunks: the array path against the per-trial chain


def _code_and_decoder(P):
    code = build_code(builtin_pair_j3_l8(), P)
    # 20 iterations, so that chunks at p_d = 0.3 stay cheap
    return code, JointBpDecoder.for_code(code, DecoderConfig(max_iterations=20))


_CHAIN = {P: _code_and_decoder(P) for P in (5, 25)}


def chain(code, decoder, p_d, seed, point, trials):
    """trial_rng -> sample_error -> extract_syndrome -> decode -> classify, per trial."""
    records = []
    for t in trials:
        truth = sample_error(code.n, p_d, trial_rng(seed, point, t))
        outcome = decoder.decode(extract_syndrome(code, truth), p_d)
        records.append(classify(code, truth, outcome, trial_index=t))
    return records


@st.composite
def chunk_keys(draw):
    count = draw(st.integers(1, 25))
    seed = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    point = draw(st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1))
    start = draw(st.sampled_from([0, 2**32 - count]) | st.integers(0, 2**32 - count))
    return seed, point, start, count


@settings(max_examples=100, deadline=None)
@given(P=st.sampled_from([5, 25]), p_d=st.sampled_from([0.0, 1e-3, 0.02, 0.08, 0.3]),
       key=chunk_keys())
def test_run_trials_equals_the_per_trial_chain(P, p_d, key):
    seed, point, start, count = key
    code, decoder = _CHAIN[P]
    got = sim._run_trials(code, decoder, p_d, seed, point, start, count)
    assert got == chain(code, decoder, p_d, seed, point, range(start, start + count))


def test_run_trials_judges_one_sided_residuals_as_failures():
    # This chunk holds exact recoveries and failures whose residual is zero
    # on one component only, on the x side and on the z side.
    code, decoder = _CHAIN[25]
    got = sim._run_trials(code, decoder, 0.1, 2, 1, 0, 25)
    assert got == chain(code, decoder, 0.1, 2, 1, range(25))
    assert any(r.success and r.residual_weight_x == r.residual_weight_z == 0 for r in got)
    for zero_side in ("residual_weight_x", "residual_weight_z"):
        assert any(not r.success and getattr(r, zero_side) == 0 for r in got)


class _ShiftedByStabilizer:
    """A decoder whose x estimates are BP's plus one row of H_X, so every
    frame BP recovers exactly has a nonzero residual that is a stabilizer."""

    def __init__(self, code, decoder):
        self.decoder, self.row = decoder, code.h_x.to_dense()[0].astype(np.uint8)

    def shifted(self, o):
        return DecodeOutcome(o.x_hat ^ self.row, o.z_hat, o.converged, o.iterations)

    def decode(self, syn, p_d):
        return self.shifted(self.decoder.decode(syn, p_d))

    def decode_batch(self, S, T, p_d, stopped=None):
        return [self.shifted(o) for o in self.decoder.decode_batch(S, T, p_d, stopped=stopped)]


def test_run_trials_judges_degenerate_residuals_as_successes():
    code, decoder = _CHAIN[25]
    shifted = _ShiftedByStabilizer(code, decoder)
    got = sim._run_trials(code, shifted, 0.05, 4, 0, 0, 25)
    assert got == chain(code, shifted, 0.05, 4, 0, range(25))
    assert any(r.success and r.residual_weight_x == code.L for r in got)


def test_run_chunk_skips_the_chunks_of_a_stopped_point(code5, monkeypatch):
    monkeypatch.setattr(sim, "_worker", None)
    stopped = multiprocessing.Value("q", 0)
    sim._init_worker(code5, DecoderConfig(), stopped)
    stopped.value = 7  # the point that holds token 7 has stopped folding
    assert sim._run_chunk(7, 0.1, 3, 0, 0, 25) == []
    want = sim._run_trials(code5, JointBpDecoder.for_code(code5), 0.1, 3, 0, 0, 25)
    assert sim._run_chunk(8, 0.1, 3, 0, 0, 25) == want and len(want) == 25


class _StopsAfter:
    """Stands in for a pool's shared `stopped` value: reads 0 for its first
    `reads` reads and `token` after them, and counts its reads."""

    def __init__(self, token, reads):
        self.token, self.left, self.reads = token, reads, 0

    @property
    def value(self):
        self.reads += 1
        return self.token if self.reads > self.left else 0


def test_run_chunk_abandons_a_chunk_whose_point_stops_while_it_decodes(code5, monkeypatch):
    monkeypatch.setattr(sim, "_worker", None)
    stopped = _StopsAfter(7, reads=3)  # the skip check, then two BP rounds
    sim._init_worker(code5, DecoderConfig(), stopped)
    assert sim._run_chunk(7, 0.3, 3, 0, 0, 25) == []
    assert stopped.reads == 4
    # Unstopped, the same chunk runs to the iteration cap.
    want = sim._run_trials(code5, JointBpDecoder.for_code(code5), 0.3, 3, 0, 0, 25)
    assert max(r.iterations for r in want) == DecoderConfig().max_iterations


def test_pooled_run_point_writes_its_token_when_it_stops(code5, monkeypatch):
    monkeypatch.setattr(sim, "_tokens", count(41))
    cfg = DecoderConfig(max_iterations=30)
    stop = StopRule(3, 600)
    with sim._pool(code5, cfg, 2) as pool:
        for token, point in ((41, 0), (42, 1)):
            res = run_point(code5, 0.3, stop, seed=4, cfg=cfg, workers=2, point_index=point,
                            pool=pool)
            assert res.frame_errors == 3 and res.trials < stop.max_trials
            assert pool.stopped.value == token


def test_run_sweep_two_workers_equal_one(code5):
    # Each point stops within a chunk or two, so workers meet chunks of
    # stopped points and skip them.
    cfg = DecoderConfig(max_iterations=30)
    grid, stop = [0.3, 0.25, 0.2, 0.15], StopRule(4, 400)
    one = run_sweep(code5, grid, stop, seed=12, cfg=cfg, workers=1)
    assert run_sweep(code5, grid, stop, seed=12, cfg=cfg, workers=2) == one
    assert all(r.frame_errors == 4 for r in one)


@pytest.mark.parametrize("workers", [0, -3])
def test_run_point_and_run_sweep_reject_fewer_than_one_worker(code5, workers):
    # Both used to run one worker silently.
    with pytest.raises(ValueError, match="workers"):
        run_point(code5, 0.1, StopRule(1, 10), seed=0, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_sweep(code5, [0.1], StopRule(1, 10), seed=0, workers=workers)


def test_run_point_rejects_negative_failure_log_cap(code5):
    with pytest.raises(ValueError, match="max_logged_failures"):
        run_point(code5, 0.1, StopRule(1, 10), seed=0, workers=1, max_logged_failures=-1)


def test_failure_log_cap_changes_only_the_logged_failures(code5):
    cfg = DecoderConfig(max_iterations=30)
    results = {
        cap: run_point(code5, 0.02, StopRule(30, 200), seed=1, cfg=cfg, workers=1,
                       max_logged_failures=cap)
        for cap in (0, 3, 1000)
    }
    full = results[1000]
    assert 3 < full.frame_errors < full.trials  # the cap of 3 bites; successes interleave
    assert len(full.failures) == full.frame_errors
    assert all(not rec.success for rec in full.failures)
    for cap, res in results.items():
        assert res.failures == full.failures[:cap]
        assert (res.trials, res.frame_errors, res.total_bit_errors, res.total_iterations) == (
            full.trials, full.frame_errors, full.total_bit_errors, full.total_iterations)
        assert res.weight_histogram == full.weight_histogram
        assert _csv_row(res) == _csv_row(full)


def test_run_point_memory_does_not_grow_with_its_trials(code5):
    def peak(trials):
        tracemalloc.start()
        try:
            run_point(code5, 0.0, StopRule(1, trials), seed=1, workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # builds the code's cached layouts outside the compared runs
    # 6,000 more trials held as records would add about 1.1 MB.
    assert peak(8000) - peak(2000) < 100_000


def test_run_point_rejects_bad_rate(code5):
    with pytest.raises(ValueError):
        run_point(code5, 1.0, StopRule(1, 10), seed=0, workers=1)


def test_stop_rule_caps_trials_at_the_key_width():
    # Trial 2**32 would reuse trial 0's random stream.
    assert StopRule(1, 2**32).max_trials == 2**32
    with pytest.raises(ValueError, match="2\\*\\*32"):
        StopRule(1, 2**32 + 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_point_rejects_negative_seed(code5, workers):
    # Seed -1 used to run seed 2**64 - 1's streams silently.
    with pytest.raises(ValueError, match="seed"):
        run_point(code5, 0.1, StopRule(1, 10), seed=-1, workers=workers)


def test_run_sweep_single_point_matches_run_point(code5):
    cfg = DecoderConfig(max_iterations=30)
    sweep = run_sweep(code5, [0.2], StopRule(10, 300), seed=3, cfg=cfg, workers=1)
    alone = run_point(code5, 0.2, StopRule(10, 300), seed=3, cfg=cfg, workers=1)
    assert len(sweep) == 1 and sweep[0] == alone


def test_run_sweep_points_use_independent_streams(code5):
    cfg = DecoderConfig(max_iterations=30)
    sweep = run_sweep(code5, [0.25, 0.25001], StopRule(20, 400), seed=3, cfg=cfg, workers=1)
    # Nearly identical physics but different per-point streams.
    assert sweep[0].failures != sweep[1].failures


def test_run_sweep_fer_trend(pair):
    # FER should fall as the physical rate falls, separated beyond CI
    # overlap on the outer grid points (checked on a mid-size code
    # before freezing the thresholds here).
    code = build_code(pair, 51)
    sweep = run_sweep(code, [0.09, 0.07, 0.05], StopRule(60, 3000), seed=5, workers=2)
    fers = [r.fer for r in sweep]
    assert fers[0] > fers[2]
    assert sweep[2].ci_high < sweep[0].ci_low


def test_run_sweep_rejects_empty_or_nonmonotone(code5):
    with pytest.raises(ValueError):
        run_sweep(code5, [], StopRule(1, 10), seed=0, workers=1)
    with pytest.raises(ValueError):
        run_sweep(code5, [0.1, 0.2, 0.15], StopRule(1, 10), seed=0, workers=1)


def test_ci_shrinks_with_more_trials(code5):
    cfg = DecoderConfig(max_iterations=30)
    small = run_point(code5, 0.3, StopRule(10**6, 300), seed=2, cfg=cfg, workers=1)
    large = run_point(code5, 0.3, StopRule(10**6, 1200), seed=2, cfg=cfg, workers=1)
    assert large.trials == 4 * small.trials
    assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1 and hi == 1.0
    lo, hi = wilson_interval(10, 100)
    assert lo < 0.1 < hi


# ---------------------------------------------------------------------------
# floor statistics and failure logs


def test_floor_statistics_hand_computed():
    frac = floor_statistics([3, 5, 40], L=8, k_values=[1, 3])
    assert frac[1] == pytest.approx(2 / 3)
    assert frac[3] == pytest.approx(2 / 3)  # 40 > 24


def test_floor_statistics_all_small():
    frac = floor_statistics([2, 8, 5], L=8, k_values=[1, 2])
    assert frac[1] == 1.0 and frac[2] == 1.0


def test_floor_statistics_no_failures_is_no_data():
    frac = floor_statistics([], L=8, k_values=[1, 2])
    assert frac == {1: None, 2: None}


def test_floor_statistics_rejects_bad_l():
    with pytest.raises(ValueError):
        floor_statistics([1], L=0, k_values=[1])


def test_failure_log_round_trip(tmp_path, code5):
    cfg = DecoderConfig(max_iterations=30)
    res = run_point(code5, 0.3, StopRule(10, 500), seed=4, cfg=cfg, workers=1)
    path = tmp_path / "fail.jsonl"
    write_failure_log(path, res.p_d, res.failures)
    back = read_failure_log(path)
    assert len(back) == len(res.failures)
    for rec, orig in zip(back, res.failures):
        assert rec["trial"] == orig.trial_index
        assert rec["p_d"] == res.p_d
        assert rec["bit_errors"] == orig.bit_errors
        assert rec["residual_x_support"] == list(orig.residual_x_support)
        support_weight = len(set(rec["residual_x_support"]) | set(rec["residual_z_support"]))
        assert rec["bit_errors"] == support_weight


# ---------------------------------------------------------------------------
# hashing bound


def test_hashing_bound_endpoints():
    assert hashing_bound_threshold(1) == 0.0
    assert hashing_bound_threshold(0) == pytest.approx(0.18929, abs=1e-4)


def test_hashing_bound_quarter_rate():
    assert hashing_bound_threshold(0.25) == pytest.approx(0.126899, abs=1e-5)


def test_hashing_bound_residual_below_tolerance():
    for rate in (0.0, 0.1, 0.25, 0.5, 0.9):
        p = hashing_bound_threshold(rate)
        h2 = 0.0 if p == 0.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert abs(h2 + p * math.log2(3) - (1 - rate)) < 1e-10


def test_hashing_bound_monotone_decreasing():
    grid = [i / 20 for i in range(21)]
    vals = [hashing_bound_threshold(r) for r in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_hashing_bound_accepts_fraction():
    from fractions import Fraction

    assert hashing_bound_threshold(Fraction(1, 4)) == hashing_bound_threshold(0.25)


def test_hashing_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        hashing_bound_threshold(1.5)
    with pytest.raises(ValueError):
        hashing_bound_threshold(-0.1)
