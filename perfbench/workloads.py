"""The benchmark's workloads, with their timed and traced runs.

All four are closed loops: a client's next call starts when its
previous one has returned.  The fixed-point workloads run two clients
at once, one per vCPU; the sweeps run one, whose 2-worker pool keeps
both vCPUs busy.  Each puts most of its time in a different layer:

* decode-n200: joint BP at many iterations per frame (n = 200,
  p_d = 0.08, about 35 iterations, about 30% of frames at the cap).
* syndrome-n3200: syndrome extraction on a large code (n = 3200,
  p_d = 0.03); BP converges in a few iterations on 16x larger arrays.
* sweep-n200-pool: `qcldpc simulate` over four p_d values at n = 200
  on a 2-worker pool, the only workload where process-pool dispatch,
  the stop rule and the CLI's file writes do work.  It is short (about
  2.5 s a call) so that a run holds several calls.
* sweep-n800-pool: the same at n = 800 and higher p_d, about 9 s a
  call; runnable by hand, too long a unit for steady figures here.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import count
from pathlib import Path
from time import monotonic, perf_counter, perf_counter_ns

import checks
import measure
from tracing import Tracer, self_times

from qcldpc import (JointBpDecoder, StopRule, build_code, builtin_pair_j3_l8,
                    channel, cli, run_point, sim)

NEW_UNIT_SHARE = 1 / 3  # share of a timed run that runs new units; the rest runs them again
SWEEP_SEED_STRIDE = 1000  # sweep unit u of a run with seed s runs `simulate --seed 1000*s+u`
TRACE_TRIALS = 1000  # frames replayed by a fixed-point traced run (p99 needs 1000)
REPLAY_BLOCK = 50    # traced and untraced replay alternate in blocks of this many trials
# Share of the traced replay's wall time that may fall outside every layer
# span (loop glue and span bookkeeping, about 0.2%).  The traced/untraced
# difference is too noisy to bound it: the host moves both by a few percent.
UNATTRIBUTED_MAX = 0.01
SETUP_PROBES = 6     # fresh processes for setup_s before the timed or traced part, and 6 after


@dataclass(frozen=True)
class Workload:
    name: str
    P: int
    p_grid: tuple[float, ...]
    workers: int
    max_trials: int        # per point
    min_frame_errors: int  # above max_trials on fixed points, so it never fires

    @property
    def is_sweep(self) -> bool:
        return len(self.p_grid) > 1

    @property
    def clients(self) -> int:
        """Closed-loop clients run at once: one per vCPU on the fixed
        points; a sweep's 2-worker pool already keeps both busy."""
        return 1 if self.is_sweep else 2

    @property
    def stop(self) -> StopRule:
        return StopRule(self.min_frame_errors, self.max_trials)

    def code(self):
        code = build_code(builtin_pair_j3_l8(), self.P)
        _ = code.x_stabilizers, code.z_stabilizers
        return code


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode-n200", 25, (0.08,), 1, 5, 6),
        Workload("syndrome-n3200", 400, (0.03,), 1, 5, 6),
        Workload("sweep-n200-pool", 25, (0.06, 0.05, 0.04, 0.03), 2, 500, 10),
        Workload("sweep-n800-pool", 100, (0.08, 0.07, 0.06, 0.05), 2, 500, 20),
    )
}


def setup_probes(w: Workload, root: Path, count: int) -> list[dict]:
    """Set-up timings from `count` fresh interpreters."""
    probe = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(probe), str(root / "src"), str(w.P)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout))
    return out


def simulate(w: Workload, seed: int, workers: int, out_dir: Path, max_trials: int | None = None,
             min_frame_errors: int | None = None) -> tuple[float, float]:
    """One in-process `qcldpc simulate` call; returns (wall s, CPU s incl. children)."""
    argv = ["simulate", "--builtin-3x8", "--p", str(w.P),
            "--p-grid", ",".join(repr(p) for p in w.p_grid), "--seed", str(seed),
            "--min-frame-errors", str(min_frame_errors or w.min_frame_errors),
            "--max-trials", str(max_trials or w.max_trials),
            "--threads", str(workers), "--out", str(out_dir)]
    c0, t0 = measure.cpu_s(), perf_counter()
    with redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    wall, cpu = perf_counter() - t0, measure.cpu_s() - c0
    if rc != 0:
        raise RuntimeError(f"qcldpc simulate exited with {rc}")
    return wall, cpu


def _sweep_files(out_dir: Path) -> tuple[bytes, bytes]:
    return (out_dir / "sweep.csv").read_bytes(), (out_dir / "failures.jsonl").read_bytes()


# --------------------------------------------------------------------------
# timed runs (tracing off)
#
# A run is a list of units: one 5-trial point on the fixed-point
# workloads, one whole `simulate` call on the sweeps.  Client c of k
# owns units c, c + k, c + 2k, ...  For the first NEW_UNIT_SHARE of the
# run a client runs new units; then it runs the same units again in
# turn until the run's time is used (the last pass may be partial), and
# each unit counts at its median pass.
#
# On a shared 2-vCPU KVM guest a lone busy process runs at a fast speed
# or one 1.4 to 1.8x slower, each for seconds to tens of seconds, in a
# mix that changes from minute to minute, so one client's figures
# spread by 10-20% between runs.  With both vCPUs busy the speed stays
# within a few percent over a run and mostly within about 5% between
# runs: so the fixed points run one client per vCPU.  Periods of a few
# minutes in which the whole guest runs 30-40% faster still show.


def unit_seed(w: Workload, seed: int, unit: int) -> tuple[int, int]:
    """(seed given to qcldpc, point index of the unit's first point)."""
    return (SWEEP_SEED_STRIDE * seed + unit, 0) if w.is_sweep else (seed, unit)


def run_unit(w: Workload, code, seed: int, unit: int, out_dir: Path) -> dict:
    program_seed, point = unit_seed(w, seed, unit)
    if w.is_sweep:
        wall, cpu = simulate(w, program_seed, w.workers, out_dir)
        return {"wall": wall, "cpu": cpu,
                "points": checks.read_sweep_dir(out_dir), "files": _sweep_files(out_dir)}
    c0, t0 = measure.cpu_s(), perf_counter()
    res = run_point(code, w.p_grid[0], w.stop, program_seed, workers=1, point_index=point)
    return {"wall": perf_counter() - t0, "cpu": measure.cpu_s() - c0,
            "points": [checks.fields_from_result(res)], "files": None}


def _client(w: Workload, code, seed: int, out_root: Path, first_end: float, end: float,
            client: int) -> dict[int, list[dict]]:
    """One client: new units until the monotonic time first_end, then
    the same units again in turn until end, so that all clients stay
    busy until end; returns {unit: [record of each pass]}."""
    units: dict[int, list[dict]] = {}
    while not units or monotonic() < first_end:
        u = client + w.clients * len(units)
        units[u] = [run_unit(w, code, seed, u, out_root / f"unit{u}-pass0")]
    for k in count():
        if monotonic() >= end:
            return units
        u = client + w.clients * (k % len(units))
        p = len(units[u])
        units[u].append(run_unit(w, code, seed, u, out_root / f"unit{u}-pass{p}"))


def timed_run(w: Workload, seed: int, seconds: float, tally: checks.Tally,
              out_root: Path) -> dict:
    """End-to-end metrics."""
    ref = checks.load_reference(w.name)
    code = None if w.is_sweep else w.code()
    start = monotonic()
    client = partial(_client, w, code, seed, out_root, start + seconds * NEW_UNIT_SHARE,
                     start + seconds)
    with measure.TreeRssSampler() as rss:  # this process plus clients or pool workers
        if w.clients == 1:
            parts = [client(0)]
        else:
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(w.clients, mp_context=fork) as pool:
                parts = list(pool.map(client, range(w.clients)))
    merged = {u: recs for part in parts for u, recs in part.items()}
    units = {u: merged[u] for u in sorted(merged)}  # {unit: [record per pass]}

    for u, unit in units.items():
        expected = ref["units"][u] if seed == ref["seed"] and u < len(ref["units"]) else None
        _check_unit(w, tally, f"seed {seed} unit {u}", unit[0]["points"], expected)
        tally.check(f"seed {seed} unit {u} passes agree",
                    [] if all((r["points"], r["files"]) == (unit[0]["points"], unit[0]["files"])
                              for r in unit)
                    else ["passes over the same trials differ"])
    if seed != ref["seed"]:
        reference_check(w, tally)

    wall = {u: statistics.median(r["wall"] for r in unit) for u, unit in units.items()}
    cpu = {u: statistics.median(r["cpu"] for r in unit) for u, unit in units.items()}
    trials = {u: sum(f["trials"] for f in unit[0]["points"]) for u, unit in units.items()}
    owned = [[u for u in units if u % w.clients == c] for c in range(w.clients)]
    return {"trials_per_s": sum(sum(trials[u] for u in us) / sum(wall[u] for u in us)
                                for us in owned),
            "sweep_s": statistics.mean(wall.values()), "sweep_cpu_s": statistics.mean(cpu.values()),
            "peak_rss_mb": rss.peak_mb,
            "units": [{"unit": u, "wall_s": [r["wall"] for r in unit],
                       "cpu_s": [r["cpu"] for r in unit]} for u, unit in units.items()]}


def _check_unit(w, tally, label, points, expected) -> None:
    tally.check(f"{label} shape",
                [] if [f["p_d"] for f in points] == list(w.p_grid) and all(
                    f["trials"] == w.max_trials or f["frame_errors"] >= w.min_frame_errors
                    for f in points)
                else ["points do not match the grid and stop rule"])
    for i, fields in enumerate(points):
        tally.point(f"{label} p_d={fields['p_d']}", fields,
                    reference=expected[i] if expected else None)


def reference_check(w: Workload, tally: checks.Tally) -> None:
    """Point 0 of unit 0 at the recorded seed, against its recorded digest."""
    ref = checks.load_reference(w.name)
    program_seed, point = unit_seed(w, ref["seed"], 0)
    res = run_point(w.code(), w.p_grid[0], w.stop, program_seed, workers=1, point_index=point)
    tally.point(f"reference seed {ref['seed']} unit 0 point 0", checks.fields_from_result(res),
                reference=ref["units"][0][0])


# --------------------------------------------------------------------------
# traced run


# run_sweep looks run_point up in qcldpc.sim; the others are looked up in qcldpc.cli.
_OUTER_SPANS = ((cli, "build_code", "cli.build_code"), (cli, "run_sweep", "cli.run_sweep"),
                (sim, "run_point", "sim.run_point"),
                (cli, "write_failure_log", "cli.write_failure_log"))


def traced_run(w: Workload, seed: int, tally: checks.Tally, out_root: Path,
               tracer: Tracer) -> dict:
    """Per-layer metrics from spans recorded around calls into qcldpc.

    1. `simulate` at the workload's worker count, then at the other
       one (1 <-> 2), with spans on cli.build_code, cli.run_sweep,
       sim.run_point and cli.write_failure_log; both must write the
       same bytes.
    2. The folded trials of every point replayed through trial_rng ->
       sample_error -> extract_syndrome -> decode -> classify, in
       blocks that alternate with an untraced replay of the same
       trials; both replays must reproduce the points of step 1.
    """
    m: dict[str, float] = {}
    seed, _ = unit_seed(w, seed, 0)
    if w.is_sweep:
        trials, min_fe = w.max_trials, w.min_frame_errors
    else:  # one long point, so the replay has TRACE_TRIALS frames
        trials, min_fe = TRACE_TRIALS, TRACE_TRIALS + 1
    by_workers = {}
    for workers in (w.workers, 3 - w.workers):
        out_dir = out_root / f"workers{workers}"
        start = len(tracer.spans)
        with ExitStack() as stack:
            for module, attr, name in _OUTER_SPANS:
                stack.enter_context(tracer.patch(module, attr, name))
            with tracer.span("cli.main"):
                _, cpu = simulate(w, seed, workers, out_dir, trials, min_fe)
        spans = tracer.spans[start:]
        by_workers[workers] = {
            "cpu": cpu, "out": out_dir,
            "dur": {name: sum((s[5] - s[4]) / 1e9 for s in spans if s[2] == name)
                    for name in ("cli.main", "cli.run_sweep", "cli.build_code")},
            "points": [(s[5] - s[4]) / 1e9 for s in spans if s[2] == "sim.run_point"]}
    one, two, main = by_workers[1], by_workers[2], by_workers[w.workers]
    tally.check("worker counts give the same output bytes",
                [] if _sweep_files(one["out"]) == _sweep_files(two["out"])
                else ["sweep.csv or failures.jsonl differ between 1 and 2 workers"])
    m["sim.point_s"] = statistics.mean(main["points"])
    m["cli.overhead_s"] = (main["dur"]["cli.main"] - main["dur"]["cli.run_sweep"]
                           - main["dur"]["cli.build_code"])
    m["sim.parallel_efficiency"] = one["dur"]["cli.run_sweep"] / (2 * two["dur"]["cli.run_sweep"])
    m["sim.cpu_overhead"] = two["cpu"] / one["cpu"] - 1.0

    points = checks.read_sweep_dir(one["out"])
    for fields in points:
        tally.point(f"seed {seed} p_d={fields['p_d']} (1 worker)", fields)
    m.update(_replay(w, seed, points, tally, tracer))
    return m


def _replay_block(layers, tracer, code, p_d, seed, point, trials):
    trial_rng, sample_error, extract_syndrome, decode, classify = layers
    records = []
    for t in trials:
        if tracer is not None:
            tracer.trial = (point, t)
        rng = trial_rng(seed, point, t)
        truth = sample_error(code.n, p_d, rng)
        syn = extract_syndrome(code, truth)
        outcome = decode(syn, p_d)
        records.append(classify(code, truth, outcome, trial_index=t))
    return records


def _replay(w, seed, points, tally, tracer) -> dict:
    code = w.code()
    decoder = JointBpDecoder.for_code(code)
    plain = (channel.trial_rng, channel.sample_error, channel.extract_syndrome,
             decoder.decode, sim.classify)
    names = ("channel.trial_rng", "channel.sample_error", "channel.extract_syndrome",
             "decoder.decode", "sim.classify")
    traced = tuple(tracer.wrap(fn, name) for fn, name in zip(plain, names))
    start = len(tracer.spans)
    traced_ns = untraced_ns = 0
    records = []
    for point, fields in enumerate(points):
        p_d = fields["p_d"]
        point_records = []
        for b, lo in enumerate(range(0, fields["trials"], REPLAY_BLOCK)):
            block = range(lo, min(lo + REPLAY_BLOCK, fields["trials"]))
            for traced_turn in ((False, True) if b % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracer.span("replay.block"):
                        got = _replay_block(traced, tracer, code, p_d, seed, point, block)
                    traced_ns += tracer.spans[-1][5] - tracer.spans[-1][4]
                    point_records += got
                else:
                    t0 = perf_counter_ns()
                    bare = _replay_block(plain, None, code, p_d, seed, point, block)
                    untraced_ns += perf_counter_ns() - t0
            tally.check(f"seed {seed} point {point} block {b} replay",
                        [] if got == bare else ["traced and untraced replays differ"])
        tally.point(f"seed {seed} p_d={p_d} replay", checks.fields_from_records(p_d, point_records),
                    same_as=fields)
        records += point_records
    tracer.trial = None

    spans = tracer.spans[start:]
    wall = traced_ns / 1e9
    self_s = self_times(spans)
    unattributed = wall - sum(self_s[name] for name in names)
    tally.check("layer self times account for the traced replay",
                [] if unattributed <= UNATTRIBUTED_MAX * wall
                else [f"{unattributed / wall:.2%} of the traced replay is in no layer span"])

    def per_call_us(name):
        return statistics.mean((s[5] - s[4]) / 1e3 for s in spans if s[2] == name)

    decode_us = [(s[5] - s[4]) / 1e3 for s in spans if s[2] == "decoder.decode"]
    iters = [r.iterations for r in records]
    capped = [r.iterations for r in records if not r.converged]
    return {
        "channel.trial_rng_us": per_call_us("channel.trial_rng"),
        "channel.sample_error_us": per_call_us("channel.sample_error"),
        "channel.extract_syndrome_us": per_call_us("channel.extract_syndrome"),
        "decoder.decode_us_p50": statistics.median(decode_us),
        "decoder.decode_us_p99": statistics.quantiles(decode_us, n=100)[98],
        "decoder.us_per_frame_iter": sum(decode_us) / max(sum(iters), 1),
        "decoder.mean_iterations": statistics.mean(iters),
        "decoder.capped_share": len(capped) / len(records),
        "decoder.capped_iter_share": sum(capped) / max(sum(iters), 1),
        "sim.classify_us": per_call_us("sim.classify"),
        "trace.overhead_share": traced_ns / untraced_ns - 1.0,
        "trace.unattributed_share": unattributed / wall,
    }
