"""Command-line front end.

Subcommands:

* ``code``      validate a code or scan circulant sizes for girth 6,
* ``simulate``  run a Monte Carlo sweep, emit CSV + run manifest,
* ``floor``     summarize failure logs as residual-weight statistics,
* ``bound``     print the hashing-bound threshold for a rate.

Exit status: 0 on success, 2 for usage errors (argparse), 1 for
validation or input errors.  Flags override values from ``--config``
(a JSON file or a previously written manifest), which override the
built-in defaults, so a manifest replays a run bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .codes import (
    CodeValidationError,
    ExponentPairParseError,
    build_code,
    builtin_pair_j3_l8,
    code_report,
    design_rate,
    load_pair,
    scan_p,
)
from .decoder import DecoderConfig
from .sim import (
    StopRule,
    floor_statistics,
    hashing_bound_threshold,
    read_failure_log,
    run_sweep,
    write_failure_log,
)

__all__ = ["main", "entrypoint"]

# The sweep.csv columns, each a PointResult attribute written with repr.
CSV_COLUMNS = (
    "p_d", "trials", "frame_errors", "fer", "ci_low", "ci_high",
    "total_bit_errors", "ber", "mean_iterations",
)
CSV_HEADER = ",".join(CSV_COLUMNS)


def _csv_row(res) -> str:
    return ",".join(repr(getattr(res, c)) for c in CSV_COLUMNS)


def _parse_scan_range(text: str) -> range:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 3..64, got {text!r}"
        ) from None
    if lo < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid scan range {text!r}")
    return range(lo, hi + 1)


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid probability grid {text!r}") from None


def _add_pair_source(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group()
    src.add_argument(
        "--builtin-3x8",
        action="store_true",
        help="use the built-in (J=3, L=8) exponent pair",
    )
    src.add_argument("--pair", metavar="FILE", help="exponent-pair file to load")


def _resolve_pair(cfg: dict):
    if cfg.get("pair_file"):
        return load_pair(cfg["pair_file"])
    return builtin_pair_j3_l8()


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    # Accept a manifest (config nested) or a bare config object.
    cfg = data.get("config", data) if isinstance(data, dict) else None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: expected a JSON config object or a manifest")
    return cfg


def _check_config_value(where: str, key: str, value, default) -> None:
    """Reject a wrong JSON type or a value below its minimum; null only where the default is."""
    numbers = (int, float)  # exact types, so JSON true/false is not a number
    if key == "pair_file":
        ok, what = type(value) is str, "a string or null"
    elif key == "p_grid":
        ok = type(value) is list and all(type(v) in numbers for v in value)
        what = "a list of numbers"
    elif key in ("llr_clip", "damping"):
        ok, what = type(value) in numbers, "a number"
    else:
        ok, what = type(value) is int, "an integer"
    if not (ok or (value is None and default is None)):
        raise ValueError(f"{where}: config key {key!r} must be {what}, got {json.dumps(value)}")
    low = {"threads": 1, "max_logged_failures": 0}.get(key)
    if low is not None and value is not None and value < low:
        raise ValueError(f"{where}: {key!r} must be >= {low}, got {value}")


def _merge_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    cfg = {
        "pair_file": None,
        "p": None,
        "p_grid": None,
        "seed": 0,
        "max_iters": 100,
        "llr_clip": 25.0,
        "damping": 0.0,
        "min_frame_errors": 100,
        "max_trials": 1_000_000,
        "threads": None,
        "max_logged_failures": 1000,
    }
    if getattr(args, "config", None):
        file_cfg = _load_config_file(args.config)
        for key, value in file_cfg.items():  # dropping a misspelt max_trials would run the default
            if key not in cfg:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            _check_config_value(args.config, key, value, cfg[key])
        cfg.update(file_cfg)
    # Every key but pair_file is also the dest of the flag that sets it.
    flags = {k: v for k in cfg if (v := getattr(args, k, None)) is not None}
    for key, value in flags.items():
        _check_config_value("--" + key.replace("_", "-"), key, value, cfg[key])
    cfg.update(flags)
    if args.pair:
        cfg["pair_file"] = args.pair
    elif getattr(args, "builtin_3x8", False):
        cfg["pair_file"] = None
    return cfg


def cmd_code(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair) if args.pair else builtin_pair_j3_l8()
    if args.scan_p is not None:
        hits = []
        print("P,orthogonal,girth_x,girth_z,girth6")
        for res in scan_p(pair, args.scan_p):
            if res.girth6:
                hits.append(res.P)
            print(
                f"{res.P},{'yes' if res.orthogonal else 'no'},"
                f"{res.girth_x},{res.girth_z},{'*' if res.girth6 else ''}"
            )
        if hits:
            print(f"# girth-6 sizes: {' '.join(str(p) for p in hits)}")
        else:
            print("# no girth-6 size in range")
        return 0
    code = build_code(pair, args.p)
    rep = code_report(code)
    print(f"J={rep.J} L={rep.L} P={rep.P} n={rep.n}")
    print(f"girth_x={rep.girth_x} girth_z={rep.girth_z}")
    print(
        f"measured_rate={rep.measured_rate} ({float(rep.measured_rate):.6f})"
    )
    print(f"design_rate={rep.design_rate} ({float(rep.design_rate):.6f})")
    print(f"orthogonal=yes column_weight={rep.J} row_weight={rep.L}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    if cfg["p"] is None:
        print("simulate: a circulant size is required (--p)", file=sys.stderr)
        return 2
    if not cfg["p_grid"]:
        print("simulate: a probability grid is required (--p-grid)", file=sys.stderr)
        return 2
    for p in cfg["p_grid"]:
        if not 0.0 <= p < 1.0:
            print(f"simulate: grid value {p} outside [0, 1)", file=sys.stderr)
            return 2

    pair = _resolve_pair(cfg)
    code = build_code(pair, cfg["p"])
    dec_cfg = DecoderConfig(
        max_iterations=cfg["max_iters"],
        llr_clip=cfg["llr_clip"],
        damping=cfg["damping"],
    )
    stop = StopRule(
        min_frame_errors=cfg["min_frame_errors"], max_trials=cfg["max_trials"]
    )

    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()

    results = run_sweep(
        code,
        cfg["p_grid"],
        stop,
        cfg["seed"],
        dec_cfg,
        workers=cfg["threads"],
        max_logged_failures=cfg["max_logged_failures"],
    )

    rate = design_rate(code.J, code.L)
    bound = hashing_bound_threshold(rate)
    lines = [
        f"# design_rate={rate} hashing_bound_p_d={bound:.6f}",
        CSV_HEADER,
    ]
    lines += [_csv_row(res) for res in results]
    csv_path = out_dir / "sweep.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    log_path = out_dir / "failures.jsonl"
    log_path.write_text("")
    for res in results:
        write_failure_log(log_path, res.p_d, res.failures)

    manifest = {
        "tool": "qcldpc",
        "version": __version__,
        "config": cfg,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    for line in lines:
        print(line)
    print(f"# wrote {csv_path}, {log_path}, {out_dir / 'manifest.json'}")
    return 0


def cmd_floor(args: argparse.Namespace) -> int:
    records = []
    for path in args.logs:
        records.extend(read_failure_log(path))
    if not records:
        print("no failures recorded")
        return 0
    weights = [rec["bit_errors"] for rec in records]
    fractions = floor_statistics(weights, args.l, args.k)
    print(f"failures={len(records)} L={args.l}")
    for k in args.k:
        frac = fractions[k]
        print(f"bit_errors <= {k}L ({k * args.l:4d} bits): {frac:.6f}")
    print("residual-weight histogram (bit_errors: count):")
    hist = Counter(weights)
    for w in sorted(hist):
        print(f"  {w}: {hist[w]}")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    if args.rate is not None:
        rate = args.rate
    elif args.j is not None and args.l is not None:
        rate = design_rate(args.j, args.l)
    else:
        print("bound: provide --rate or both --j and --l", file=sys.stderr)
        return 2
    if not 0.0 <= float(rate) <= 1.0:
        print(f"bound: rate {rate} outside [0, 1]", file=sys.stderr)
        return 2
    print(f"{hashing_bound_threshold(rate):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcldpc",
        description="Quantum QC-LDPC codes: construction, joint BP decoding, "
        "and Monte Carlo FER/BER evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="validate a code or scan circulant sizes")
    _add_pair_source(p_code)
    size = p_code.add_mutually_exclusive_group(required=True)
    size.add_argument("--p", type=int, help="circulant size P")
    size.add_argument(
        "--scan-p",
        type=_parse_scan_range,
        metavar="A..B",
        help="scan sizes A..B for orthogonality and girth",
    )
    p_code.set_defaults(func=cmd_code)

    p_sim = sub.add_parser("simulate", help="Monte Carlo FER/BER sweep")
    _add_pair_source(p_sim)
    p_sim.add_argument("--p", type=int, help="circulant size P")
    p_sim.add_argument(
        "--p-grid", type=_parse_grid, metavar="a,b,c", help="physical error rates"
    )
    p_sim.add_argument("--seed", type=int, help="run seed (default 0)")
    p_sim.add_argument("--max-iters", type=int, help="decoder iteration cap")
    p_sim.add_argument("--llr-clip", type=float, help="message magnitude bound")
    p_sim.add_argument("--damping", type=float, help="check-message damping in [0,1)")
    p_sim.add_argument(
        "--min-frame-errors", type=int, help="stop a point after this many failures"
    )
    p_sim.add_argument("--max-trials", type=int, help="trial cap per point")
    p_sim.add_argument("--threads", type=int, help="worker count (default: all cores)")
    p_sim.add_argument(
        "--max-logged-failures", type=int, help="failure records kept per point"
    )
    p_sim.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p_sim.add_argument(
        "--config", metavar="FILE", help="JSON config or manifest to replay"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_floor = sub.add_parser("floor", help="failure-log residual statistics")
    p_floor.add_argument("logs", nargs="+", metavar="LOG", help="failure-log files")
    p_floor.add_argument("--l", type=int, required=True, help="row weight unit L")
    p_floor.add_argument(
        "--k",
        type=lambda s: [int(t) for t in s.split(",") if t.strip()],
        default=[1, 2, 3],
        help="comma-separated multipliers (default 1,2,3)",
    )
    p_floor.set_defaults(func=cmd_floor)

    p_bound = sub.add_parser("bound", help="hashing-bound threshold for a rate")
    p_bound.add_argument("--rate", type=float, help="code rate in [0, 1]")
    p_bound.add_argument("--j", type=int, help="block-row count J")
    p_bound.add_argument("--l", type=int, help="block-column count L")
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CodeValidationError, ExponentPairParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
