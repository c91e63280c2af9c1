"""qcldpc benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload decode-n200 --seed 1 --seconds 30 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  The exit status
is 0 only when every output check passed.  The full record of the run
(environment, host drift, every check that failed, set-up probes) and
the spans of a traced run are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qcldpc" / "__init__.py").is_file():
        print(f"run.py: no qcldpc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import measure
    from tracing import Tracer
    from workloads import (SETUP_PROBES, WORKLOADS, reference_check, setup_probes, timed_run,
                           traced_run)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_root = ROOT / ".perfbench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    host_before = measure.ref_loop_ms()
    probes = setup_probes(w, ROOT, SETUP_PROBES)
    tally = checks.Tally()
    if args.trace:
        tracer = Tracer()
        metrics = traced_run(w, args.seed, tally, out_root, tracer)
        reference_check(w, tally)
        tracer.write(out_root / "spans.jsonl")
    else:
        metrics = timed_run(w, args.seed, args.seconds, tally, out_root)
    probes += setup_probes(w, ROOT, SETUP_PROBES)
    metrics.update({key: statistics.median(p[key] for p in probes) for key in probes[0]})
    host = (host_before, measure.ref_loop_ms())
    metrics["host.ref_loop_ms"] = statistics.mean(host)

    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": measure.environment(ROOT),
              "host_ref_loop_ms": host, "metrics": metrics, "setup_probes": probes,
              "checks": {"attempted": tally.attempted, "failed": tally.failed,
                         "errors": tally.errors}}
    (out_root / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"record": str((out_root / "result.json").relative_to(ROOT)),
                      "environment": record["environment"], "host_ref_loop_ms": host}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
