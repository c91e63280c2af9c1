import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_view, mul_mod2, nullspace_basis, row_space_set
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
    hx, hz = dense_view(code5.h_x), dense_view(code5.h_z)
    e = random_error(code5.n, 0.2, 2)
    for _ in range(100):
        stab_x = (rng.integers(0, 2, hx.shape[0]) @ hx % 2).astype(np.uint8)
        stab_z = (rng.integers(0, 2, hz.shape[0]) @ hz % 2).astype(np.uint8)
        rec = classify(code5, e, outcome_from(e.x ^ stab_x, e.z ^ stab_z))
        assert rec.success


def test_classify_kernel_vector_outside_row_space_fails(code5):
    # Brute force: enumerate ker(h_z) via its basis and the full row
    # space of h_x; pick a kernel vector that is not a stabilizer.
    space = row_space_set(dense_view(code5.h_x))
    basis = nullspace_basis(dense_view(code5.h_z))
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
    assert not mul_mod2(dense_view(code5.h_z), found).any()

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
    hx, hz = dense_view(code25.h_x), dense_view(code25.h_z)
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


def test_classify_fails_an_unconverged_outcome_whose_residual_is_a_stabilizer(code5):
    # Convergence is decided first: no decoder reports such an outcome (its
    # estimate would reproduce the syndrome), but one built by hand still fails.
    e = random_error(code5.n, 0.2, 6)
    stab = dense_view(code5.h_x)[0].astype(np.uint8)
    for res_x in (np.zeros_like(stab), stab):
        assert code5.x_stabilizers.contains(res_x)
        assert classify(code5, e, outcome_from(e.x ^ res_x, e.z)).success
        rec = classify(code5, e, outcome_from(e.x ^ res_x, e.z, converged=False, iterations=7))
        assert not rec.success and not rec.converged and rec.iterations == 7
        assert rec.bit_errors == int(res_x.sum())
        assert rec.residual_x_support == tuple(np.flatnonzero(res_x).tolist())


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


class _CountingProcess(multiprocessing.Process):
    """Records every worker process a sweep starts."""

    started: list = []

    def start(self):
        super().start()
        self.started.append(self)


@pytest.fixture
def started_workers(monkeypatch):
    monkeypatch.setattr(_CountingProcess, "started", [])
    monkeypatch.setattr(multiprocessing, "Process", _CountingProcess)
    return _CountingProcess.started


def test_run_sweep_shares_one_pool_across_points(code5, started_workers):
    # Point 0 stops after a few trials, so chunks of it are still decoding
    # when the lanes move on to point 1; none may leak into it.
    cfg = DecoderConfig(max_iterations=30)
    grid, stop = [0.3, 0.2, 0.1], StopRule(5, 300)
    sweep = run_sweep(code5, grid, stop, seed=3, cfg=cfg, workers=2)
    assert [p.exitcode for p in started_workers] == [0]
    alone = [
        run_point(code5, p, stop, seed=3, cfg=cfg, workers=1, point_index=i)
        for i, p in enumerate(grid)
    ]
    assert sweep == alone
    assert sweep[0].trials < 50 and sweep[0].frame_errors == 5


def test_run_sweep_shuts_pool_down_when_a_point_fails(code5, started_workers, monkeypatch):
    # One chunk raises, in the parent's lane or a worker's; every worker is still ended.
    real = sim._run_trials

    def fails_once(code, decoder, p_d, seed, point_index, start, *args):
        if (point_index, start) == (1, 25):
            raise ValueError("chunk failed")
        return real(code, decoder, p_d, seed, point_index, start, *args)

    monkeypatch.setattr(sim, "_run_trials", fails_once)  # before the fork, so workers see it
    with pytest.raises(ValueError, match="chunk failed"):
        run_sweep(code5, [0.1, 0.05, 0.02], StopRule(1000, 300), seed=0, workers=3)
    assert len(started_workers) == 2 and not any(p.is_alive() for p in started_workers)
    assert multiprocessing.active_children() == []


def test_run_sweep_rejects_a_bad_grid_before_opening_a_pool(code5, started_workers):
    # Points 0 and 1 used to be decoded before point 2 raised.
    with pytest.raises(ValueError, match="p_d"):
        run_sweep(code5, [0.1, 0.5, 1.0], StopRule(1, 30), seed=0, workers=2)
    assert started_workers == []


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_run_sweep_and_run_point_reject_a_bad_seed_before_any_trial(code5, started_workers,
                                                                    monkeypatch, seed):
    # The seed used to be checked by a worker's first chunk, after the fork,
    # and seed 1.5 ran seed 1's streams.
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "_run_trials", no_trial)
    with pytest.raises(ValueError, match="seed"):
        run_sweep(code5, [0.1, 0.05], StopRule(1, 30), seed=seed, workers=2)
    with pytest.raises(ValueError, match="seed"):
        run_point(code5, 0.1, StopRule(1, 30), seed=seed, workers=2)
    assert started_workers == []


@pytest.mark.parametrize("bad, match", [({"max_logged_failures": -1}, "max_logged_failures"),
                                        ({"point_index": 2**32}, "point index"),
                                        ({"point_index": -1}, "point index"),
                                        ({"point_index": 1.0}, "point index"),
                                        ({"point_index": True}, "point index"),
                                        ({"max_logged_failures": 2.5}, "max_logged_failures"),
                                        ({"max_logged_failures": True}, "max_logged_failures")])
def test_run_sweep_and_run_point_reject_a_bad_cap_or_point_index_before_any_lane(
        code5, started_workers, monkeypatch, bad, match):
    # A sweep used to start its worker before run_point checked the cap, and
    # a bad point index came back from a worker's first chunk (a float one as
    # a TypeError); a cap of 2.5 logged 3 failures and True logged 1.
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim, "_run_trials", no_trial)
    if "max_logged_failures" in bad:  # run_sweep numbers its own points
        with pytest.raises(ValueError, match=match):
            run_sweep(code5, [0.1, 0.05], StopRule(1, 30), seed=0, workers=2, **bad)
    with pytest.raises(ValueError, match=match):
        run_point(code5, 0.1, StopRule(1, 30), seed=0, workers=2, **bad)
    assert started_workers == []


def test_one_worker_starts_no_process_and_shares_nothing(code5, monkeypatch):
    cfg = DecoderConfig(max_iterations=30)
    grid, stop = [0.3, 0.2], StopRule(5, 300)
    point = run_point(code5, 0.3, stop, seed=3, cfg=cfg, workers=1)
    sweep = run_sweep(code5, grid, stop, seed=3, cfg=cfg, workers=1)

    def refuse(*args, **kwargs):
        raise AssertionError("one worker made a process, pipe, lock or shared array")

    for name in ("Process", "Pipe", "Lock", "Semaphore", "RawArray"):
        monkeypatch.setattr(multiprocessing, name, refuse)
    assert run_point(code5, 0.3, stop, seed=3, cfg=cfg, workers=1) == point
    assert run_sweep(code5, grid, stop, seed=3, cfg=cfg, workers=1) == sweep


def _run_script(script, what):
    """Run `script` in a new session with qcldpc importable; kill its whole
    process group if it has not finished within 60 s.  Returns its stdout."""
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the sweep hung after {what}")
    assert proc.returncode == 0
    return out.strip()


_UNPICKLABLE = """
import multiprocessing
from qcldpc import build_code, builtin_pair_j3_l8, sim
real = sim._run_trials
unpicklable_object = lambda: 0  # pickle cannot find a lambda by name

def unpicklable(code, decoder, p_d, seed, point_index, start, *args):
    chunk = real(code, decoder, p_d, seed, point_index, start, *args)
    if multiprocessing.parent_process() is None:  # the parent's lane sends nothing
        return chunk
    if what == "message":
        return chunk[0], [unpicklable_object]
    raise ValueError(unpicklable_object)

sim._run_trials = unpicklable
for what in ("message", "error"):
    try:
        # Enough chunks that the workers claim some before the parent's lane is done.
        sim.run_point(build_code(builtin_pair_j3_l8(), 5), 0.05, sim.StopRule(1000, 10**5), 1,
                      workers=2)
    except Exception as exc:
        print(type(exc).__name__, exc, len(multiprocessing.active_children()))
"""


def test_run_point_raises_when_a_chunk_fails_to_pickle():
    # A worker whose chunk fails to pickle sends the error instead; one whose
    # error fails to pickle too dies, and its pipe reads EOF.
    out = _run_script(_UNPICKLABLE, "a worker's message failed to pickle").splitlines()
    assert len(out) == 2 and out[0].startswith("PicklingError ") and out[0].endswith(" 0")
    assert out[1] == "RuntimeError a worker died, exit code 1 0"


_KILLED_WORKER = """
import multiprocessing, os, signal, time
from qcldpc import build_code, builtin_pair_j3_l8, sim
real, real_claim = sim._run_trials, sim._Board.claim
reached = multiprocessing.Value("b", 0)  # set by a worker at the call that kills it

def killed():
    reached.value = 1
    os.kill(os.getpid(), signal.SIGKILL)

def run(code, decoder, p_d, seed, point_index, start, count, stopped=None):
    if multiprocessing.parent_process() is not None:
        if patch == "_run_trials" and point_index == 1:
            killed()
    else:
        # The parent's lane decodes nothing until a worker has reached its kill, and
        # reads the workers' messages meanwhile, so the sweep cannot end before it.
        while not reached.value:
            if stopped():
                return [], []
            time.sleep(0.001)
    return real(code, decoder, p_d, seed, point_index, start, count, stopped)

def dies_holding_the_lock(board, k):
    if patch == "claim" and k >= 0 and multiprocessing.parent_process() is not None:
        board.lock.acquire()
        killed()
    return real_claim(board, k)

sim._run_trials, sim._Board.claim = run, dies_holding_the_lock
for patch in ("_run_trials", "claim"):
    reached.value = 0
    try:
        sim.run_sweep(build_code(builtin_pair_j3_l8(), 5), [0.1, 0.05, 0.02],
                      sim.StopRule(1000, 10**5), 1, workers=3)
    except RuntimeError as exc:
        print(exc, len(multiprocessing.active_children()))
"""


def test_run_sweep_raises_when_a_worker_dies():
    # A worker killed mid-chunk sends nothing more, and one killed holding the
    # board's lock leaves every other lane unable to claim; the sweep must
    # raise, not hang, and leave no worker running.
    assert (_run_script(_KILLED_WORKER, "a worker died").splitlines()
            == ["a worker died, exit code -9 0"] * 2)


_ONE_CPU = """
import os
from qcldpc import sim
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # this process only
print(sim._check_workers(None))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_default_worker_count_is_the_cpus_this_process_may_use():
    # It used to be os.cpu_count(), the host's CPUs.
    assert _run_script(_ONE_CPU, "pinning itself to one CPU") == "1"


_LARGE_MESSAGES = """
from qcldpc import build_code, builtin_pair_j3_l8, sim

def run(code, decoder, p_d, seed, point_index, start, count, stopped=None):
    # Failures with long supports: each chunk's message (about 150 kB) fills the pipe.
    return [1] * count, [sim.TrialRecord(t, False, False, 1, 1, 0, 1, tuple([0] * 3000))
                         for t in range(start, start + count)]

sim._run_trials = run
res, = sim.run_sweep(build_code(builtin_pair_j3_l8(), 5), [0.1], sim.StopRule(100, 10**6), 1,
                     workers=2, max_logged_failures=0)
print(res.trials, res.frame_errors)
"""


def test_run_sweep_reads_the_lanes_last_messages_before_it_shuts_down():
    # When the point stops, the other lane is sending a message too large
    # for the pipe; unless the parent reads it, that lane never exits.
    assert _run_script(_LARGE_MESSAGES, "its point stopped") == "100 100"


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


def folded(records):
    """What a fold takes of per-trial records: every iteration count, and the failed records."""
    return [r.iterations for r in records], [r for r in records if not r.success]


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
    assert got == folded(chain(code, decoder, p_d, seed, point, range(start, start + count)))


def test_run_trials_judges_one_sided_residuals_as_failures():
    # This chunk holds exact recoveries and failures whose residual is zero
    # on one component only, on the x side and on the z side.
    code, decoder = _CHAIN[25]
    records = chain(code, decoder, 0.1, 2, 1, range(25))
    assert sim._run_trials(code, decoder, 0.1, 2, 1, 0, 25) == folded(records)
    assert any(r.success and r.residual_weight_x == r.residual_weight_z == 0 for r in records)
    for zero_side in ("residual_weight_x", "residual_weight_z"):
        assert any(not r.success and getattr(r, zero_side) == 0 for r in records)


class _ShiftedByStabilizer:
    """A decoder whose x estimates are BP's plus one row of H_X, so every
    frame BP recovers exactly has a nonzero residual that is a stabilizer."""

    def __init__(self, code, decoder):
        self.decoder, self.row = decoder, dense_view(code.h_x)[0].astype(np.uint8)

    def shifted(self, o):
        return DecodeOutcome(o.x_hat ^ self.row, o.z_hat, o.converged, o.iterations)

    def decode(self, syn, p_d):
        return self.shifted(self.decoder.decode(syn, p_d))

    def decode_batch(self, S, T, p_d, stopped=None):
        return self.shifted(self.decoder.decode_batch(S, T, p_d, stopped=stopped))


def test_run_trials_judges_degenerate_residuals_as_successes():
    code, decoder = _CHAIN[25]
    shifted = _ShiftedByStabilizer(code, decoder)
    records = chain(code, shifted, 0.05, 4, 0, range(25))
    assert sim._run_trials(code, shifted, 0.05, 4, 0, 0, 25) == folded(records)
    assert any(r.success and r.residual_weight_x == code.L for r in records)


_DEFAULT25 = _CHAIN[25][0], JointBpDecoder.for_code(_CHAIN[25][0])


# Keyed P = 25 chunks (seed, point, start, p_d) at the default iteration cap: mostly
# capped frames at 0.08, and at 0.06 and 0.05 the chunks that hold the converged
# failures of trials 767 and 359 of the sweep at seed 3 over 0.08, 0.06, 0.05, 0.04.
_JUDGED_CHUNKS = [(3, 0, 0, 0.08), (3, 1, 750, 0.06), (3, 2, 350, 0.05)]


def test_chunk_judging_puts_convergence_first_on_keyed_chunks():
    # Every unconverged frame fails, and every converged estimate reproduces its syndrome.
    code, decoder = _DEFAULT25
    hx, hz = dense_view(code.h_x), dense_view(code.h_z)
    unconverged = converged_failures = 0
    for seed, point, start, p_d in _JUDGED_CHUNKS:
        trials = range(start, start + 25)
        syns = [extract_syndrome(code, sample_error(code.n, p_d, trial_rng(seed, point, t)))
                for t in trials]
        out = decoder.decode_batch([syn.s for syn in syns], [syn.t for syn in syns], p_d)
        failed = {rec.trial_index: rec
                  for rec in sim._run_trials(code, decoder, p_d, seed, point, start, 25)[1]}
        for r, (t, syn) in enumerate(zip(trials, syns)):
            if not out.converged[r]:
                unconverged += 1
                assert t in failed and not failed[t].converged
                continue
            assert np.array_equal(mul_mod2(hz, out.x_hat[r]), syn.s)
            assert np.array_equal(mul_mod2(hx, out.z_hat[r]), syn.t)
            converged_failures += t in failed
    assert unconverged >= 1 and converged_failures >= 1  # 6 and 2 with numpy 2.4 on x86-64


def test_run_trials_gives_python_ints():
    # Equality cannot tell 3 from np.int64(3), but json.dumps and repr can.
    for code, decoder, p_d in (_CHAIN[5] + (0.3,), _DEFAULT25 + (0.06,)):
        iterations, failures = sim._run_trials(code, decoder, p_d, 3, 1, 750, 25)
        assert len(iterations) == 25 and all(type(v) is int for v in iterations)
        assert failures
        for rec in failures:
            assert type(rec.converged) is bool and type(rec.success) is bool
            for name in ("trial_index", "bit_errors", "residual_weight_x",
                         "residual_weight_z", "iterations"):
                assert type(getattr(rec, name)) is int, name
            supports = rec.residual_x_support + rec.residual_z_support
            assert all(type(v) is int for v in supports)


def test_board_never_claims_a_done_points_chunks():
    # Two lanes, a and b, over three points of four chunks, window 2.
    board = sim._Board(None, None, [(0, 0.1), (1, 0.1), (2, 0.1)], seed=0, max_trials=100,
                       workers=1)  # claims only: no chunk is decoded
    assert (board.chunks, board.window) == (4, 2)
    assert board.claim(-1) == (0, 0)  # a: the first point
    assert board.claim(-1) == (1, 0)  # b: a point with no chunk claimed but not folded
    board.done[0] = 1
    assert board.claim(0) == (2, 0)  # a: off the done point, to the one with none unfolded
    assert board.claim(1) == (1, 1)  # b: stays on its point
    assert board.claim(1) == (2, 1)  # b: its window full, the first point with a chunk left
    board.head[1] = 1
    assert board.claim(2) == (1, 2)  # b: point 2's window full, point 1's has room again
    assert board.claim(2) == (-1, 0)  # a: every window full, so it waits
    board.done[1] = board.done[2] = 1
    assert board.claim(-1) is None  # a: nothing left, so it exits
    assert list(board.claimed) == [1, 3, 2]


@pytest.mark.parametrize("folded, to", [(False, 2), (True, 0)])
def test_board_moves_a_lane_to_a_point_whose_claimed_chunks_are_all_folded(folded, to):
    # Lane a holds point 0's one claimed chunk; lane b fills its window on
    # point 1 and moves.  Once a's chunk is folded, point 0 counts as having
    # no lane on it, though a has not claimed again, and comes first.
    board = sim._Board(None, None, [(0, 0.1), (1, 0.1), (2, 0.1)], seed=0, max_trials=100,
                       workers=1)  # claims only: no chunk is decoded
    assert [board.claim(-1), board.claim(-1), board.claim(1)] == [(0, 0), (1, 0), (1, 1)]
    board.head[0] = int(folded)
    assert board.claim(1) == (to, int(folded))


class _DoneAfter:
    """Stands in for a board's done flags: reads 0 for the first `reads`
    reads and 1 after them, and counts its reads."""

    def __init__(self, reads):
        self.left, self.reads = reads, 0

    def __getitem__(self, k):
        self.reads += 1
        return int(self.reads > self.left)


def test_lane_abandons_a_chunk_whose_point_is_done_while_it_decodes(code5):
    board = sim._Board(code5, JointBpDecoder.for_code(code5), [(0, 0.3)], seed=3, max_trials=25,
                       workers=2)
    board.done = _DoneAfter(reads=3)  # the claim, then two BP rounds
    reader, writer = multiprocessing.Pipe(duplex=False)
    sim._lane(board, 0, writer)
    assert board.done.reads == 4 and list(board.sent) == [1]
    assert reader.recv() is None and not reader.poll()
    # Not done, the same chunk runs to the iteration cap.
    iterations, _ = sim._run_trials(code5, JointBpDecoder.for_code(code5), 0.3, 3, 0, 0, 25)
    assert max(iterations) == DecoderConfig().max_iterations


def test_parents_chunk_is_abandoned_when_a_workers_chunk_stops_its_point(code5, monkeypatch):
    # The worker holds chunk 0, which fires the stop rule, and sends it once
    # the parent's lane has claimed chunk 1; that chunk is then abandoned.
    real, rounds, parents = sim._run_trials, [], []
    cfg, stop = DecoderConfig(max_iterations=30), StopRule(1, 600)

    def worker(board, i, conn):
        while board.claimed[0] < 2:
            time.sleep(0.001)
        for msg in ((0, 0, *real(board.code, board.decoder, 0.3, 4, 0, 0, 25)), None):
            board.sent[i] += 1
            conn.send(msg)

    def lane0(code, decoder, p_d, seed, point_index, start, count, stopped=None):
        def slowed():
            rounds.append(start)
            time.sleep(0.01)
            return stopped()

        parents.append(real(code, decoder, p_d, seed, point_index, start, count, slowed))
        return parents[-1]

    monkeypatch.setattr(sim, "_lane", worker)
    monkeypatch.setattr(sim, "_run_trials", lane0)
    with sim._pool(code5, cfg, 2, stop, 4, [(0, 0.3)], 1000) as lanes:
        assert lanes.board.claim(-1) == (0, 0)  # for the worker
        fold = lanes.fold(0)
    monkeypatch.setattr(sim, "_run_trials", real)
    assert parents == [([], [])] and 1 <= len(rounds) < cfg.max_iterations
    assert set(rounds) == {25}
    assert fold.result(0.3, code5.n) == run_point(code5, 0.3, stop, seed=4, cfg=cfg, workers=1)


def test_pooled_run_point_marks_its_point_done_when_it_stops(code5):
    cfg = DecoderConfig(max_iterations=30)
    stop = StopRule(3, 600)
    with sim._pool(code5, cfg, 2, stop, 4, [(0, 0.3), (1, 0.25)], 1000) as lanes:
        for point, p_d in ((0, 0.3), (1, 0.25)):
            res = run_point(code5, p_d, stop, seed=4, cfg=cfg, workers=2, point_index=point,
                            pool=lanes)
            assert res == run_point(code5, p_d, stop, seed=4, cfg=cfg, workers=1,
                                    point_index=point)
            assert res.frame_errors == 3 and res.trials < stop.max_trials
            assert lanes.board.done[point] == 1


def test_a_point_never_has_more_than_its_window_claimed_past_its_fold_head(code5, monkeypatch):
    # The first chunk is slow, so the other lane runs ahead until the window
    # is full, and waits.
    real, peak, boards = sim._run_trials, multiprocessing.Value("q", 0), []

    class Board(sim._Board):
        def __init__(self, *args):
            super().__init__(*args)
            boards.append(self)

    def slow_first(code, decoder, p_d, seed, point_index, start, *args):
        board = boards[0]
        with peak.get_lock():
            peak.value = max(peak.value, board.claimed[0] - board.head[0])
        if start == 0:
            time.sleep(0.5)
        return real(code, decoder, p_d, seed, point_index, start, *args)

    monkeypatch.setattr(sim, "_Board", Board)
    monkeypatch.setattr(sim, "_run_trials", slow_first)  # before the fork, so workers see it
    stop = StopRule(1000, 400)
    pooled = run_sweep(code5, [0.05], stop, seed=6, workers=2)
    monkeypatch.setattr(sim, "_run_trials", real)
    assert pooled == run_sweep(code5, [0.05], stop, seed=6, workers=1)
    assert peak.value == 2 * 2


def test_run_sweep_two_workers_equal_one(code5):
    # Each point stops within a chunk or two, so workers meet chunks of
    # stopped points and skip them.
    cfg = DecoderConfig(max_iterations=30)
    grid, stop = [0.3, 0.25, 0.2, 0.15], StopRule(4, 400)
    one = run_sweep(code5, grid, stop, seed=12, cfg=cfg, workers=1)
    assert run_sweep(code5, grid, stop, seed=12, cfg=cfg, workers=2) == one
    assert all(r.frame_errors == 4 for r in one)


@pytest.mark.parametrize("workers", [0, -3, True, 2.5])
def test_run_point_and_run_sweep_reject_fewer_than_one_worker(code5, workers):
    # Both used to run one worker silently, on True too; 2.5 raised TypeError.
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


@pytest.mark.parametrize("kwargs", [{"min_frame_errors": 2.5}, {"min_frame_errors": True},
                                    {"max_trials": 50.5}, {"max_trials": 50.0}])
def test_stop_rule_rejects_bounds_that_are_not_integers(kwargs):
    # StopRule(2.5, 50) used to stop at 3 failures, and a float max_trials
    # raised TypeError inside the first chunk.
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be an integer"):
        StopRule(**{"min_frame_errors": 5, "max_trials": 50, **kwargs})
    assert StopRule(np.int64(5), np.uint32(50)).max_trials == 50


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
