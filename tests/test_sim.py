import math
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from oracles import nullspace_basis, row_space_set
from qcldpc import build_code, sim
from qcldpc.channel import PauliError, extract_syndrome, sample_error, trial_rng
from qcldpc.decoder import DecodeOutcome, DecoderConfig, JointBpDecoder
from qcldpc.gf2 import mat_vec_mod2
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
    assert not mat_vec_mod2(code5.h_z, found).any()

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


def test_nonconvergence_chain(code25):
    # converged = False => recomputed syndrome differs => the residual
    # has a nonzero syndrome => it cannot be a stabilizer => failure.
    dec = JointBpDecoder.for_code(code25, DecoderConfig(max_iterations=8))
    checked = 0
    for t in range(300):
        rng = trial_rng(41, 0, t)
        e = sample_error(code25.n, 0.08, rng)
        syn = extract_syndrome(code25, e)
        out = dec.decode(syn, 0.08)
        if out.converged:
            continue
        checked += 1
        s_hat = mat_vec_mod2(code25.h_z, out.x_hat)
        t_hat = mat_vec_mod2(code25.h_x, out.z_hat)
        assert not (np.array_equal(s_hat, syn.s) and np.array_equal(t_hat, syn.t))
        res_x, res_z = e.x ^ out.x_hat, e.z ^ out.z_hat
        rs = mat_vec_mod2(code25.h_z, res_x)
        rt = mat_vec_mod2(code25.h_x, res_z)
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
