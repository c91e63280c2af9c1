"""Monte Carlo evaluation: trial orchestration, FER/BER aggregation,
residual-weight statistics, and the hashing-bound reference threshold.

A trial fails when BP does not converge or when the residual (estimate
+ truth) is not a stabilizer: x_hat + x outside the row space of H_X or
z_hat + z outside that of H_Z.  Frame errors drive the FER; the
bit-error count (positions where either component of the residual is
set) is a diagnostic recorded on failures only and drives the BER.

Trials are independent work items, keyed by (seed, point index, trial
index), and run in 25-trial chunks on a sweep's lanes, one per process
that decodes: the parent's, and one in each worker it forks.  A chunk is
sampled and decoded as arrays, which single out the inexact frames for
judging; it returns its iteration counts and failed records, which fold
in trial order into counts, a weight histogram and the first logged
failures, so a point's memory does not grow with its trials.
A lane claims chunks from counters the processes share, staying on its
point until that is done or has no chunk left within 2 x workers chunks of
the point's fold head, then moving to the first point with no chunk claimed
but not yet folded (its claim counter equal to its fold head), or else the
first with chunks left.  The parent folds every point's chunks, its own as
it decodes them and the workers' from their pipes, which it reads between
its chunks and at each BP round, and marks a point done once its rule
fires; lanes then claim none of its chunks, and one still decoding is
abandoned within one BP iteration.
The stopping rule (first of: F frame errors, T trials) cuts the ordered
stream, so a point is bit-identical for any worker count and chunk size.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable, Sequence

import numpy as np

from .channel import PauliError, _trial_key, pauli_bits, trial_uniforms
from .codes import QuantumQcCode
from .decoder import DecodeOutcome, DecoderConfig, JointBpDecoder
from .gf2 import as_int

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
# scheduling and the batch size.  Chunks of a done point are abandoned mid-decode, but
# with one lane (no worker to stop it) a point's last chunk runs to its end.
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
        if not (as_int("min_frame_errors", self.min_frame_errors) >= 1
                and 1 <= as_int("max_trials", self.max_trials) <= 2**32):
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

    Success iff the decode converged and x_hat + x is in the row space
    of H_X and z_hat + z in that of H_Z (the residual acts trivially on
    the code space; unconverged, it misses the syndrome and cannot).  On
    failure, bit_errors counts qubits where either residual component is
    set, and the residual supports are retained for error-floor analysis.
    """
    if truth.n != code.n or not (outcome.x_hat.shape == outcome.z_hat.shape == (code.n,)):
        raise ValueError("truth/outcome dimensions do not match the code")
    res_x = truth.x ^ outcome.x_hat
    res_z = truth.z ^ outcome.z_hat
    success = (outcome.converged and code.x_stabilizers.contains(res_x)
               and code.z_stabilizers.contains(res_z))
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
    trial_rng .. classify of its trial; only a nonzero residual is classified, and
    every count is a Python int.  `stopped` goes to decode_batch, and a chunk it
    abandons returns ([], [])."""
    trials = range(start, start + count)
    x, z = pauli_bits(trial_uniforms(seed, point_index, trials, code.n), p_d)
    s, t = code.h_z.check_sums(x), code.h_x.check_sums(z)
    out = decoder.decode_batch(s, t, p_d, stopped=stopped)
    if out is None:  # abandoned
        return [], []
    its, conv = out.iterations.tolist(), out.converged.tolist()
    judged = [classify(code, PauliError(x[r], z[r]),
                       DecodeOutcome(out.x_hat[r], out.z_hat[r], conv[r], its[r]), trials[r])
              for r in np.flatnonzero((out.x_hat ^ x).any(1) | (out.z_hat ^ z).any(1))]
    return its, [rec for rec in judged if not rec.success]


class _Fold:
    """A point's counts, folded from its chunks in trial order."""

    def __init__(self, stop: StopRule, max_logged_failures: int):
        if as_int("max_logged_failures", max_logged_failures) < 0:
            raise ValueError(f"max_logged_failures must be >= 0, got {max_logged_failures}")
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
    """What a sweep's lanes share: the parent's and those of the workers it forks.

    `code` and `decoder` decode every chunk; workers inherit both at the fork.
    `points` holds the sweep's (point_index, p_d) pairs, one slot each.  Per slot,
    `claimed` counts the chunks handed out, changed under `lock`; `head` (chunks
    folded) and `done` are written by the parent only.  A slot whose claimed chunks
    are all folded (`claimed == head`) has no lane decoding one of its chunks.
    Worker i bumps `sent[i]` before each message it sends the parent, and waits on
    `wake`, which the parent releases once per chunk it folds.  With no worker,
    these are plain lists and thread primitives.
    """

    def __init__(self, code: QuantumQcCode, decoder: JointBpDecoder,
                 points: Sequence[tuple[int, float]], seed: int, max_trials: int, workers: int):
        for point_index, p_d in points:  # checked here, before any lane starts
            _trial_key(seed, point_index, 0)  # the key's seed and point fields
            if not 0.0 <= p_d < 1.0:
                raise ValueError(f"p_d must be in [0, 1), got {p_d}")
        self.code, self.decoder = code, decoder
        self.points, self.seed, self.max_trials = tuple(points), seed, max_trials
        self.chunk = _CHUNK
        self.chunks = -(-max_trials // _CHUNK)
        self.window = 2 * workers  # chunks a point may have claimed past its fold head
        array = lambda n: [0] * n if workers == 1 else multiprocessing.RawArray("q", n)
        self.claimed, self.head, self.done = (array(len(self.points)) for _ in range(3))
        self.sent = array(workers - 1)
        sync = threading if workers == 1 else multiprocessing
        self.lock, self.wake = sync.Lock(), sync.Semaphore(0)

    def claim(self, k: int) -> tuple[int, int] | None:
        """The next (slot, chunk) for a lane on slot k (-1 for none).

        The lane stays on k while it has a chunk within its window, else
        moves to the first slot with room whose claimed chunks are all
        folded, else to the first with room.  Slot -1 means every slot with
        chunks left has its window full; None means no slot has chunks left.
        """
        claimed, head, done = self.claimed, self.head, self.done
        if not self.lock.acquire(timeout=1.0):  # its holder may have died: let the parent see
            return -1, 0
        try:
            left = [j for j in range(len(self.points)) if claimed[j] < self.chunks and not done[j]]
            if not left:
                return None
            free = [j for j in left if claimed[j] < head[j] + self.window]
            if not free:
                return -1, 0
            j = k if k in free else next((j for j in free if claimed[j] == head[j]), free[0])
            claimed[j] += 1
            return j, claimed[j] - 1
        finally:
            self.lock.release()

    def run(self, k: int, c: int,
            stopped: Callable[[], bool] | None) -> tuple[list[int], list[TrialRecord]]:
        """_run_trials of chunk c of slot k, with the board's code and decoder."""
        point_index, p_d = self.points[k]
        start = c * self.chunk
        return _run_trials(self.code, self.decoder, p_d, self.seed, point_index, start,
                           min(self.chunk, self.max_trials - start), stopped)


def _lane(board: _Board, i: int, conn: Connection) -> None:
    """Worker i's lane on the board it inherited: send what the folds of its
    claimed chunks take until no point has chunks left, then None, or the
    error that ended it.  A chunk whose point is done before it is sent, or
    while it decodes, is dropped."""
    end = None
    try:
        done, k = board.done, -1
        while (claim := board.claim(k)) is not None:
            k, c = claim
            if k < 0:
                board.wake.acquire()
                continue
            chunk = board.run(k, c, lambda: done[k])
            if chunk[0] and not done[k]:
                board.sent[i] += 1  # before sending, so the parent never waits on an empty pipe
                conn.send((k, c, *chunk))
    except Exception as exc:  # the parent raises it
        end = exc
    board.sent[i] += 1
    conn.send(end)


class _Lanes:
    """The parent's side of a sweep: it runs lane 0, keeps a fold for every
    point, fed with each chunk as it is decoded or arrives, whichever point
    it is for, and reads the pipes of `workers`, (process, reader) pairs."""

    def __init__(self, board: _Board, stop: StopRule, max_logged_failures: int):
        self.board = board
        self.folds = [_Fold(stop, max_logged_failures) for _ in board.points]
        self.arrived: list[dict[int, list]] = [{} for _ in board.points]
        self.workers: list[tuple[multiprocessing.Process, Connection]] = []
        self.received = [0] * len(board.sent)  # messages read from each worker
        self.open = set(range(len(board.sent)))  # workers whose last message is unread
        self.k = -1  # the slot lane 0 is on

    def fold(self, point_index: int) -> _Fold:
        """The point's fold, once done; runs lane 0 meanwhile, and waits on
        the workers' pipes only when it can claim nothing."""
        board = self.board
        fold = self.folds[[key for key, _ in board.points].index(point_index)]
        while not fold.done:
            claim = board.claim(self.k)
            if claim is None or claim[0] < 0:
                self.k = -1
                self._wait()
                continue
            self.k, c = claim
            stopped = (lambda k=self.k: self._read() or board.done[k]) if self.workers else None
            chunk = board.run(self.k, c, stopped)
            if chunk[0] and not board.done[self.k]:
                self._add(self.k, c, chunk)
            self._read()
        return fold

    def _add(self, k: int, c: int, chunk: Sequence) -> None:
        board, fold, arrived = self.board, self.folds[k], self.arrived[k]
        arrived[c] = chunk
        while not fold.done and board.head[k] in arrived:
            fold.add(*arrived.pop(board.head[k]))
            board.head[k] += 1
        if fold.done:
            board.done[k] = 1
            arrived.clear()
        board.wake.release()

    def _read(self) -> None:
        """Take every message the workers have sent; with none, no system call."""
        for i in range(len(self.workers)):
            while self.board.sent[i] > self.received[i]:
                self._take(i)

    def _wait(self) -> None:
        """Block until a worker has sent a message or exited; take what it sent."""
        lane = {obj: i for i in self.open for obj in (self.workers[i][1],
                                                      self.workers[i][0].sentinel)}
        for i in {lane[obj] for obj in wait(list(lane))}:
            self._take(i)

    def _take(self, i: int) -> None:
        """Read worker i's next message: fold a chunk, note its lane's end,
        or raise its error, or a RuntimeError if it died before sending one."""
        proc, conn = self.workers[i]
        try:
            msg = conn.recv()
        except EOFError:
            proc.join()
            raise RuntimeError(f"a worker died, exit code {proc.exitcode}") from None
        self.received[i] += 1
        if msg is None or isinstance(msg, Exception):
            self.open.discard(i)
            if msg is not None:
                raise msg
        elif not self.board.done[msg[0]]:
            self._add(msg[0], msg[1], msg[2:])

    def finish(self) -> None:
        """Stop every lane and read each worker's pipe to its last message,
        so that none is left blocked on a full pipe."""
        self.board.done[:] = [1] * len(self.board.points)
        for _ in self.workers:
            self.board.wake.release()
        while self.open:
            self._take(min(self.open))


@contextmanager
def _pool(code: QuantumQcCode, cfg: DecoderConfig | None, workers: int | None, stop: StopRule,
          seed: int, points: Sequence[tuple[int, float]], max_logged_failures: int):
    """Yields the _Lanes of the parent and of workers - 1 forked workers over
    `points`, (point_index, p_d) pairs, which inherit the decoder built here
    (cfg None means DecoderConfig(); workers is read as by _check_workers).
    On leaving, the workers end their lanes or, on an error, are terminated.
    A worker's pipe reads EOF if it dies, as the parent closes its writer."""
    workers = _check_workers(workers)
    board = _Board(code, JointBpDecoder.for_code(code, cfg), points, seed, stop.max_trials,
                   workers)
    lanes = _Lanes(board, stop, max_logged_failures)
    try:
        for i in range(workers - 1):
            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_lane, args=(board, i, writer))
            proc.start()
            writer.close()
            lanes.workers.append((proc, reader))
        yield lanes
        lanes.finish()
    finally:
        for i, (proc, reader) in enumerate(lanes.workers):
            if i in lanes.open:
                proc.terminate()
            proc.join()
            reader.close()


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
    """The worker count (every usable CPU for None); a non-integer or < 1 raises ValueError."""
    if workers is not None and as_int("workers", workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers is None and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
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

    Trials run in 25-trial chunks, each decoded as one batch, on `workers`
    processes, this one included (None means every usable CPU, and fewer
    than 1 raises ValueError; workers=1 starts no process), and are folded
    in trial order, so the stopping rule cuts the stream at the same trial
    for any worker count: results are bit-identical for a fixed (code, p_d,
    stop, seed, cfg).  max_logged_failures caps `failures` only; every
    count covers all trials.  `pool`, the lanes _pool opened for a sweep
    that holds this point with this code, stop and seed, is used in place
    of cfg, workers and max_logged_failures and left open; run_sweep passes
    it, and the call returns once this point is done, having decoded and
    folded chunks of any point meanwhile.  Without it, the point opens its own.
    """
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
    Every grid value and the seed are checked before any trial runs.  All
    points share one set of lanes: this process runs one, and each of
    workers - 1 forked processes, which inherit the parent's decoder,
    runs another, across the points; the workers are ended on any exit.
    """
    if len(p_grid) == 0:
        raise ValueError("p_grid must be non-empty")
    diffs = np.diff(np.asarray(p_grid, dtype=float))
    if len(p_grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("p_grid must be strictly increasing or decreasing")
    points = [(i, float(p)) for i, p in enumerate(p_grid)]
    with _pool(code, cfg, workers, stop, seed, points, max_logged_failures) as lanes:
        return [run_point(code, p, stop, seed, point_index=i, pool=lanes) for i, p in points]


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
