"""Monte Carlo evaluation: trial orchestration, FER/BER aggregation,
residual-weight statistics, and the hashing-bound reference threshold.

A trial fails when the residual (estimate + truth) is not a stabilizer,
i.e. when x_hat + x lies outside the row space of H_X or z_hat + z
outside the row space of H_Z.  Frame errors drive the FER; the
bit-error count (positions where either component of the residual is
set) is a diagnostic recorded on failures only and drives the BER.

Trials are independent work items: per-trial randomness is keyed by
(seed, point index, trial index), and each record is folded, in trial
order as it arrives, into counts, a weight histogram and the first
logged failures, so a point's memory does not grow with its trials.
Trials run in 25-trial chunks, on one process pool per sweep or, with
one worker, in process; a chunk is sampled, decoded as one BP batch and
judged as arrays.  Pool workers skip the chunks of a stopped point, and a
chunk still decoding when its point stops is abandoned within one BP
iteration.
The stopping rule (first of: F frame errors, T trials) cuts the ordered
stream, so a point is bit-identical for any worker count and chunk size.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import count as counter, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .channel import PauliError, pauli_bits, trial_uniforms
from .codes import QuantumQcCode
from .decoder import DecodeOutcome, DecoderConfig, JointBpDecoder

__all__ = [
    "TrialRecord",
    "PointResult",
    "StopRule",
    "classify",
    "run_point",
    "run_sweep",
    "floor_statistics",
    "hashing_bound_threshold",
    "wilson_interval",
    "write_failure_log",
    "read_failure_log",
]

# Trials per work item and BP batch.  Keyed trials fold in order, so it sets only
# scheduling and the batch size.  Pooled chunks of a stopped point are abandoned
# mid-decode; in process, a point's last chunk runs to its end.
_CHUNK = 25
_LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single decoded frame."""

    trial_index: int
    converged: bool
    success: bool
    bit_errors: int
    residual_weight_x: int
    residual_weight_z: int
    iterations: int
    residual_x_support: tuple[int, ...] = ()
    residual_z_support: tuple[int, ...] = ()


@dataclass(frozen=True)
class StopRule:
    """Stop a point after min_frame_errors failures or max_trials trials."""

    min_frame_errors: int = 100
    max_trials: int = 1_000_000

    def __post_init__(self):
        # Trial indices are 32-bit fields of the trial key (see trial_rng).
        if not (self.min_frame_errors >= 1 and 1 <= self.max_trials <= 2**32):
            raise ValueError("stopping rule bounds must be >= 1, max_trials <= 2**32")


@dataclass(frozen=True)
class PointResult:
    """One (code, p_d) Monte Carlo point: the counts its trials fold into.

    `weight_histogram` maps bit_errors to the number of failures with it,
    over all failures; `failures` holds the first max_logged_failures of
    them.  Every other statistic is derived from these fields.
    """

    p_d: float
    n: int
    trials: int
    total_iterations: int
    weight_histogram: dict[int, int] = field(default_factory=dict)
    failures: tuple[TrialRecord, ...] = ()

    @property
    def frame_errors(self) -> int:
        return sum(self.weight_histogram.values())

    @property
    def total_bit_errors(self) -> int:
        return sum(w * c for w, c in self.weight_histogram.items())

    @property
    def fer(self) -> float:
        return self.frame_errors / self.trials if self.trials else 0.0

    @property
    def ber(self) -> float:
        return self.total_bit_errors / (self.trials * self.n) if self.trials else 0.0

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.frame_errors, self.trials)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.frame_errors, self.trials)[1]

    @property
    def mean_iterations(self) -> float:
        return self.total_iterations / self.trials if self.trials else 0.0


def classify(
    code: QuantumQcCode,
    truth: PauliError,
    outcome: DecodeOutcome,
    trial_index: int = 0,
) -> TrialRecord:
    """Judge a decode against the degeneracy-aware success criterion.

    Success iff x_hat + x is in the row space of H_X and z_hat + z in
    the row space of H_Z (the residual acts trivially on the code
    space).  On failure, bit_errors counts qubits where either residual
    component is set, and the residual supports are retained for
    error-floor analysis.
    """
    if truth.n != code.n or not (outcome.x_hat.shape == outcome.z_hat.shape == (code.n,)):
        raise ValueError("truth/outcome dimensions do not match the code")
    res_x = truth.x ^ outcome.x_hat
    res_z = truth.z ^ outcome.z_hat
    success = code.x_stabilizers.contains(res_x) and code.z_stabilizers.contains(res_z)
    return TrialRecord(
        trial_index=trial_index,
        converged=outcome.converged,
        success=success,
        bit_errors=0 if success else int((res_x | res_z).sum()),
        residual_weight_x=int(res_x.sum()),
        residual_weight_z=int(res_z.sum()),
        iterations=outcome.iterations,
        residual_x_support=() if success else tuple(np.flatnonzero(res_x).tolist()),
        residual_z_support=() if success else tuple(np.flatnonzero(res_z).tolist()),
    )


def _run_trials(
    code: QuantumQcCode,
    decoder: JointBpDecoder,
    p_d: float,
    seed: int,
    point_index: int,
    start: int,
    count: int,
    stopped: Callable[[], bool] | None = None,
) -> list[TrialRecord]:
    """Trials start .. start+count-1 as (count, n) arrays, each record equal to
    trial_rng .. classify of its trial; a zero residual skips the row-space test.
    `stopped` goes to decode_batch, and a chunk it abandons returns []."""
    trials = range(start, start + count)
    x, z = pauli_bits(trial_uniforms(seed, point_index, trials, code.n), p_d)
    s, t = code.h_z.tanner_graph().check_sums(x), code.h_x.tanner_graph().check_sums(z)
    outcomes = decoder.decode_batch(s, t, p_d, stopped=stopped)
    if not outcomes:  # abandoned
        return []
    exact = ~(np.array([(o.x_hat, o.z_hat) for o in outcomes]) ^ np.stack((x, z), 1)).any((1, 2))
    return [
        TrialRecord(trial, o.converged, True, 0, 0, 0, o.iterations) if ok
        else classify(code, PauliError(xi, zi), o, trial_index=trial)
        for trial, xi, zi, o, ok in zip(trials, x, z, outcomes, exact)
    ]


# (code, decoder, stopped) of a pool worker, built once by _init_worker rather than per chunk.
_worker: tuple[QuantumQcCode, JointBpDecoder, multiprocessing.Value] | None = None
_tokens = counter(1)  # one per pooled run_point, so a pool's points are told apart


def _init_worker(code: QuantumQcCode, cfg: DecoderConfig, stopped) -> None:
    global _worker
    _worker = (code, JointBpDecoder.for_code(code, cfg), stopped)


@contextmanager
def _pool(code: QuantumQcCode, cfg: DecoderConfig, workers: int):
    """A worker pool for `code`, shut down on any exit.

    Each run_point cancels its own queued chunks and writes its token to
    `pool.stopped`, so the workers skip the chunks already handed to them
    and abandon those they are decoding.
    `cancel_futures=True` is not used: on CPython 3.11 it deadlocks the
    shutdown when a chunk has failed to pickle.
    """
    stopped = multiprocessing.Value("q", 0)  # token of the pool's last stopped point
    pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(code, cfg, stopped))
    pool.stopped = stopped
    try:
        yield pool
    finally:
        pool.shutdown()


def _run_chunk(
    token: int, p_d: float, seed: int, point_index: int, start: int, count: int
) -> list[TrialRecord]:
    code, decoder, stopped = _worker
    if stopped.value == token:  # its point has stopped folding
        return []
    return _run_trials(code, decoder, p_d, seed, point_index, start, count,
                       lambda: stopped.value == token)


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)  # exact at the endpoints
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def _check_workers(workers: int | None) -> int:
    """The worker count, all cores when None; below 1 raises ValueError."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers or os.cpu_count() or 1


def run_point(
    code: QuantumQcCode,
    p_d: float,
    stop: StopRule,
    seed: int,
    cfg: DecoderConfig | None = None,
    workers: int | None = None,
    point_index: int = 0,
    max_logged_failures: int = 1000,
    *,
    pool: ProcessPoolExecutor | None = None,
) -> PointResult:
    """Monte Carlo estimate of FER/BER at one physical error rate.

    Trials run in 25-trial chunks, each decoded as one batch, on a
    process pool (workers=1 stays in process; None means all cores, and
    fewer than 1 raises ValueError) and are folded in trial order, so the
    stopping rule cuts the stream at the same trial for any worker count:
    results are bit-identical for a fixed (code, p_d, stop, seed, cfg).
    max_logged_failures caps `failures` only; every count covers all trials.
    `pool`, one from _pool for this code and cfg, is used and left open
    (run_sweep passes one per sweep); without it the point opens its own.
    """
    if not 0.0 <= p_d < 1.0:
        raise ValueError(f"p_d must be in [0, 1), got {p_d}")
    workers = _check_workers(workers)
    if max_logged_failures < 0:
        raise ValueError(f"max_logged_failures must be >= 0, got {max_logged_failures}")
    cfg = cfg or DecoderConfig()
    trials = iterations = frame_errors = 0
    histogram: dict[int, int] = {}
    failures: list[TrialRecord] = []

    def consume(records: Iterable[TrialRecord]) -> bool:
        """Fold records in trial order; stops drawing (and returns True) once the rule fires."""
        nonlocal trials, iterations, frame_errors
        for rec in records:
            trials += 1
            iterations += rec.iterations
            if not rec.success:
                frame_errors += 1
                histogram[rec.bit_errors] = histogram.get(rec.bit_errors, 0) + 1
                if len(failures) < max_logged_failures:
                    failures.append(rec)
                if frame_errors >= stop.min_frame_errors:
                    return True
        return False

    chunks = (  # (start, count), lazily and in trial order
        (t, min(_CHUNK, stop.max_trials - t)) for t in range(0, stop.max_trials, _CHUNK)
    )
    if pool is None and workers == 1:
        decoder = JointBpDecoder.for_code(code, cfg)
        consume(
            rec
            for chunk in chunks
            for rec in _run_trials(code, decoder, p_d, seed, point_index, *chunk)
        )
    else:
        with nullcontext(pool) if pool is not None else _pool(code, cfg, workers) as pool:
            token = next(_tokens)
            futures = (pool.submit(_run_chunk, token, p_d, seed, point_index, *c) for c in chunks)
            pending = deque()
            try:
                pending.extend(islice(futures, 2 * workers))  # keeps workers busy while one folds
                while pending and not consume(pending.popleft().result()):
                    pending.extend(islice(futures, 1))
            finally:  # the rule fired or a chunk failed: drop this point's queued chunks
                for fut in pending:
                    fut.cancel()
                pool.stopped.value = token  # and have the workers drop those already sent
    return PointResult(p_d, code.n, trials, iterations, histogram, tuple(failures))


def run_sweep(
    code: QuantumQcCode,
    p_grid: Sequence[float],
    stop: StopRule,
    seed: int,
    cfg: DecoderConfig | None = None,
    workers: int | None = None,
    max_logged_failures: int = 1000,
) -> list[PointResult]:
    """One :func:`run_point` per grid value, monotone grid required.

    Each point gets an independent random stream via its grid index.
    With workers > 1 all points share one process pool, so its workers
    build their decoder once per sweep; it is shut down on any exit.
    """
    if len(p_grid) == 0:
        raise ValueError("p_grid must be non-empty")
    diffs = np.diff(np.asarray(p_grid, dtype=float))
    if len(p_grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("p_grid must be strictly increasing or decreasing")
    cfg = cfg or DecoderConfig()
    workers = _check_workers(workers)
    with _pool(code, cfg, workers) if workers > 1 else nullcontext() as pool:
        return [
            run_point(
                code,
                float(p),
                stop,
                seed,
                cfg,
                workers=workers,
                point_index=i,
                max_logged_failures=max_logged_failures,
                pool=pool,
            )
            for i, p in enumerate(p_grid)
        ]


def floor_statistics(
    bit_error_counts: Iterable[int], L: int, k_values: Sequence[int]
) -> dict[int, float | None]:
    """Fraction of failures confined to k*L bits or fewer, per k.

    Args:
        bit_error_counts: bit_errors of the failed trials under study.
        L: Row weight used as the size unit.
        k_values: Multipliers to evaluate.

    Returns:
        Map k -> fraction over failures, or k -> None when there are no
        failures at all (explicitly "no data", not 1.0).
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    counts = list(bit_error_counts)
    if not counts:
        return {int(k): None for k in k_values}
    total = len(counts)
    return {
        int(k): sum(1 for w in counts if w <= k * L) / total for k in k_values
    }


def _entropy_plus_pauli(p: float) -> float:
    """H2(p) + p * log2(3); strictly increasing on [0, 3/4]."""
    if p <= 0.0:
        return 0.0
    h2 = -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    return h2 + p * _LOG2_3


def hashing_bound_threshold(rate) -> float:
    """Depolarizing rate at which the hashing bound equals the code rate.

    Solves 1 - rate = H2(p) + p*log2(3) for the unique p in [0, 3/4] by
    bisection; the interval is shrunk far below the 1e-10 tolerance so
    the equation residual at the returned point is also below 1e-10.
    """
    r = float(rate)
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    target = 1.0 - r
    if target == 0.0:
        return 0.0
    lo, hi = 0.0, 0.75
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if _entropy_plus_pauli(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def write_failure_log(path, p_d: float, failures: Iterable[TrialRecord]) -> None:
    """Append failure records as JSON lines (see README for the schema)."""
    with open(path, "a", encoding="utf-8") as fh:
        for rec in failures:
            fh.write(
                json.dumps(
                    {
                        "trial": rec.trial_index,
                        "p_d": p_d,
                        "bit_errors": rec.bit_errors,
                        "residual_weight_x": rec.residual_weight_x,
                        "residual_weight_z": rec.residual_weight_z,
                        "iterations": rec.iterations,
                        "residual_x_support": list(rec.residual_x_support),
                        "residual_z_support": list(rec.residual_z_support),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def read_failure_log(path) -> list[dict]:
    """Read one failure-log file written by :func:`write_failure_log`.

    A line that is not a JSON object with an integer ``bit_errors``
    raises ValueError naming the file and line.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {line_no}: {exc}") from None
            if not isinstance(rec, dict) or type(rec.get("bit_errors")) is not int:
                raise ValueError(f"{path}, line {line_no}: not an object with an integer bit_errors")
            out.append(rec)
    return out
