"""Monte Carlo evaluation: trial orchestration, FER/BER aggregation,
residual-weight statistics, and the hashing-bound reference threshold.

A trial fails when the residual (estimate + truth) is not a stabilizer,
i.e. when x_hat + x lies outside the row space of H_X or z_hat + z
outside the row space of H_Z.  Frame errors drive the FER; the
bit-error count (positions where either component of the residual is
set) is a diagnostic recorded on failures only and drives the BER.

Trials are independent work items, keyed by (seed, point index, trial
index), and run in 25-trial chunks, on one process pool per sweep or, with
one worker, in process.  A chunk is sampled, decoded as one BP batch and
judged as arrays; it returns its iteration counts and its failed records,
which fold in trial order into counts, a weight histogram and the first
logged failures, so a point's memory does not grow with its trials.
On a pool each worker runs one lane for the whole sweep: it claims chunks
from counters shared with the parent, staying on its point until that is
done or has no chunk left within 2 x workers chunks of the point's fold
head, then moving to a point no lane is on, or else the first with chunks
left.  The parent folds every point's chunks as they arrive and marks a
point done as soon as its rule fires; lanes then claim none of its chunks,
and one still decoding is abandoned within one BP iteration.
The stopping rule (first of: F frame errors, T trials) cuts the ordered
stream, so a point is bit-identical for any worker count and chunk size.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
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
# scheduling and the batch size.  Pooled chunks of a done point are abandoned
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
) -> tuple[list[int], list[TrialRecord]]:
    """Trials start .. start+count-1 as (count, n) arrays, as a fold takes them: each
    trial's BP iteration count, and the records of the failed trials, each equal to
    trial_rng .. classify of its trial; a zero residual skips the row-space test.
    `stopped` goes to decode_batch, and a chunk it abandons returns ([], [])."""
    trials = range(start, start + count)
    x, z = pauli_bits(trial_uniforms(seed, point_index, trials, code.n), p_d)
    s, t = code.h_z.tanner_graph().check_sums(x), code.h_x.tanner_graph().check_sums(z)
    outcomes = decoder.decode_batch(s, t, p_d, stopped=stopped)
    if not outcomes:  # abandoned
        return [], []
    exact = ~(np.array([(o.x_hat, o.z_hat) for o in outcomes]) ^ np.stack((x, z), 1)).any((1, 2))
    judged = (classify(code, PauliError(xi, zi), o, trial_index=trial)
              for trial, xi, zi, o, ok in zip(trials, x, z, outcomes, exact) if not ok)
    return [o.iterations for o in outcomes], [r for r in judged if not r.success]


class _Fold:
    """A point's counts, folded from its chunks in trial order."""

    def __init__(self, stop: StopRule, max_logged_failures: int):
        self.stop, self.max_logged_failures = stop, max_logged_failures
        self.trials = self.iterations = self.frame_errors = 0
        self.histogram: dict[int, int] = {}
        self.failures: list[TrialRecord] = []

    @property
    def done(self) -> bool:
        return (self.frame_errors >= self.stop.min_frame_errors
                or self.trials >= self.stop.max_trials)

    def add(self, iterations: Sequence[int], failures: Iterable[TrialRecord]) -> None:
        """Fold the next len(iterations) trials, from each one's BP iteration
        count and the records of those that failed, in trial order, up to
        the trial at which the rule fires."""
        count = len(iterations)
        for rec in failures:
            self.frame_errors += 1
            self.histogram[rec.bit_errors] = self.histogram.get(rec.bit_errors, 0) + 1
            if len(self.failures) < self.max_logged_failures:
                self.failures.append(rec)
            if self.frame_errors >= self.stop.min_frame_errors:
                count = rec.trial_index + 1 - self.trials
                break
        self.iterations += sum(iterations[:count])
        self.trials += count

    def result(self, p_d: float, n: int) -> PointResult:
        return PointResult(p_d, n, self.trials, self.iterations, self.histogram,
                           tuple(self.failures))


class _Board:
    """What a pool's lanes share, created before the pool forks.

    `points` holds the sweep's (point_index, p_d) pairs, one slot each.
    Per slot, `claimed` counts the chunks handed out and `on` the lanes
    on it, both changed under `lock` by the lanes; `head` (chunks folded)
    and `done` are written by the parent only.  The lanes send each
    chunk's _run_trials pair on `queue` and wait on `wake`, which the parent
    releases once per chunk it receives.
    """

    def __init__(self, points: Sequence[tuple[int, float]], seed: int, max_trials: int,
                 workers: int):
        self.points, self.seed, self.max_trials = tuple(points), seed, max_trials
        self.chunk = _CHUNK
        self.chunks = -(-max_trials // _CHUNK)
        self.window = 2 * workers  # chunks a point may have claimed past its fold head
        self.claimed, self.on, self.head, self.done = (
            multiprocessing.RawArray("q", len(self.points)) for _ in range(4))
        self.lock = multiprocessing.Lock()
        self.wake = multiprocessing.Semaphore(0)
        self.queue = multiprocessing.SimpleQueue()

    def claim(self, k: int) -> tuple[int, int] | None:
        """The next (slot, chunk) for a lane on slot k (-1 for none).

        The lane stays on k while it has a chunk within its window, else
        moves to a slot no lane is on, else to the first with one.  Slot
        -1 means every slot with chunks left has its window full; None
        means no slot has chunks left.
        """
        claimed, on, head, done = self.claimed, self.on, self.head, self.done
        with self.lock:
            if k >= 0:
                on[k] -= 1
            left = [j for j in range(len(self.points)) if claimed[j] < self.chunks and not done[j]]
            if not left:
                return None
            free = [j for j in left if claimed[j] < head[j] + self.window]
            if not free:
                return -1, 0
            j = k if k in free else next((j for j in free if not on[j]), free[0])
            on[j] += 1
            claimed[j] += 1
            return j, claimed[j] - 1


# (code, decoder, board) of a pool worker, built once by _init_worker rather than per chunk.
_worker: tuple[QuantumQcCode, JointBpDecoder, _Board] | None = None


def _init_worker(code: QuantumQcCode, cfg: DecoderConfig, board: _Board) -> None:
    global _worker
    _worker = (code, JointBpDecoder.for_code(code, cfg), board)


def _lane() -> None:
    """A pool worker's one task: decode claimed chunks and send what their
    folds take until no point has chunks left.  A chunk whose point is done
    before it is sent, or while it decodes, is dropped."""
    code, decoder, board = _worker
    done, k = board.done, -1
    while (claim := board.claim(k)) is not None:
        k, c = claim
        if k < 0:
            board.wake.acquire()
            continue
        point_index, p_d = board.points[k]
        start = c * board.chunk
        chunk = _run_trials(code, decoder, p_d, board.seed, point_index, start,
                            min(board.chunk, board.max_trials - start), lambda: done[k])
        if chunk[0] and not done[k]:
            board.queue.put((k, c, *chunk))


class _Lanes:
    """The parent's side of a pool's lanes: a fold for every point of the
    sweep, fed with each chunk as it arrives, whichever point it is for."""

    def __init__(self, board: _Board, stop: StopRule, max_logged_failures: int):
        self.board = board
        self.folds = [_Fold(stop, max_logged_failures) for _ in board.points]
        self.arrived: list[dict[int, list]] = [{} for _ in board.points]
        self.futures = []
        self.exited = 0  # lanes whose future has finished

    def fold(self, point_index: int) -> _Fold:
        """The point's fold, once done; folds every point's chunks meanwhile."""
        fold = self.folds[[key for key, _ in self.board.points].index(point_index)]
        while not fold.done:
            self._receive()
        return fold

    def _receive(self) -> None:
        board = self.board
        msg = board.queue.get()
        if msg is None:  # a lane has exited: raise its error, if any
            self.exited += 1
            for fut in self.futures:
                if fut.done():
                    fut.result()
            if self.exited == len(self.futures):
                raise RuntimeError("every lane exited before the sweep's points were done")
            return
        k, c, *summary = msg
        fold, arrived = self.folds[k], self.arrived[k]
        arrived[c] = summary
        while not fold.done and board.head[k] in arrived:
            fold.add(*arrived.pop(board.head[k]))
            board.head[k] += 1
        if fold.done:
            board.done[k] = 1
            arrived.clear()
        board.wake.release()

    def close(self) -> None:
        """Stop every lane and read the queue until all have exited, so
        that none is left blocked on a full pipe."""
        board = self.board
        board.done[:] = [1] * len(board.points)
        for _ in self.futures:
            board.wake.release()
        while self.exited < len(self.futures):
            if board.queue.get() is None:
                self.exited += 1


@contextmanager
def _pool(code: QuantumQcCode, cfg: DecoderConfig, workers: int, stop: StopRule, seed: int,
          points: Sequence[tuple[int, float]], max_logged_failures: int):
    """A worker pool with one lane per worker over `points`, (point_index,
    p_d) pairs; yields their _Lanes, and stops and shuts them down on any exit.

    Each lane's future puts None on the queue when it finishes, so a
    parent waiting on the queue wakes when a lane fails or its worker dies.
    `cancel_futures=True` is not used: on CPython 3.11 it deadlocks the
    shutdown when a task has failed to pickle.
    """
    board = _Board(points, seed, stop.max_trials, workers)
    lanes = _Lanes(board, stop, max_logged_failures)
    pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(code, cfg, board))
    try:
        for _ in range(workers):
            lanes.futures.append(fut := pool.submit(_lane))
            fut.add_done_callback(lambda _: board.queue.put(None))
        yield lanes
    finally:
        lanes.close()
        pool.shutdown()
    for fut in lanes.futures:
        fut.result()


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
    pool: _Lanes | None = None,
) -> PointResult:
    """Monte Carlo estimate of FER/BER at one physical error rate.

    Trials run in 25-trial chunks, each decoded as one batch, on a
    process pool (workers=1 stays in process; None means all cores, and
    fewer than 1 raises ValueError) and are folded in trial order, so the
    stopping rule cuts the stream at the same trial for any worker count:
    results are bit-identical for a fixed (code, p_d, stop, seed, cfg).
    max_logged_failures caps `failures` only; every count covers all trials.
    `pool`, the lanes _pool opened for a sweep that holds this point (with
    this code, cfg, stop, seed and cap), is used and left open; run_sweep
    passes it, and the call returns once this point is done, having folded
    the chunks of every point that arrived meanwhile.  Without it, the
    point opens its own.
    """
    if not 0.0 <= p_d < 1.0:
        raise ValueError(f"p_d must be in [0, 1), got {p_d}")
    workers = _check_workers(workers)
    if max_logged_failures < 0:
        raise ValueError(f"max_logged_failures must be >= 0, got {max_logged_failures}")
    cfg = cfg or DecoderConfig()
    if pool is None and workers == 1:
        fold = _Fold(stop, max_logged_failures)
        decoder = JointBpDecoder.for_code(code, cfg)
        while not fold.done:  # a fold that is not done has taken every trial so far
            count = min(_CHUNK, stop.max_trials - fold.trials)
            fold.add(*_run_trials(code, decoder, p_d, seed, point_index, fold.trials, count))
    else:
        with nullcontext(pool) if pool is not None else _pool(
            code, cfg, workers, stop, seed, [(point_index, p_d)], max_logged_failures
        ) as lanes:
            fold = lanes.fold(point_index)
    return fold.result(p_d, code.n)


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
    Every grid value is checked before any trial runs.  With workers > 1
    all points share one process pool, whose workers build their decoder
    once per sweep and run one lane each, across the points; the pool is
    shut down on any exit.
    """
    if len(p_grid) == 0:
        raise ValueError("p_grid must be non-empty")
    for p in p_grid:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"p_d must be in [0, 1), got {p}")
    diffs = np.diff(np.asarray(p_grid, dtype=float))
    if len(p_grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("p_grid must be strictly increasing or decreasing")
    cfg = cfg or DecoderConfig()
    workers = _check_workers(workers)
    points = [(i, float(p)) for i, p in enumerate(p_grid)]
    with (_pool(code, cfg, workers, stop, seed, points, max_logged_failures) if workers > 1
          else nullcontext()) as lanes:
        return [
            run_point(
                code,
                p,
                stop,
                seed,
                cfg,
                workers=workers,
                point_index=i,
                max_logged_failures=max_logged_failures,
                pool=lanes,
            )
            for i, p in points
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

    A line that is not a JSON object with an integer ``bit_errors`` >= 0
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
            w = rec.get("bit_errors") if isinstance(rec, dict) else None
            if type(w) is not int or w < 0:
                raise ValueError(f"{path}, line {line_no}: bit_errors is not an integer >= 0")
            out.append(rec)
    return out
