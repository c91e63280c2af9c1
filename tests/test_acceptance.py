"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Derived constants (the girth-6 circulant sizes, the waterfall
calibration points, and expected statistics) were computed once with
the brute-force oracles or recorded from the first calibration run and
are frozen here.
"""

import math
import time

import numpy as np

from conftest import GIRTH6_P, GIRTH6_P_LARGE
from oracles import nullspace_basis, row_space_set
from qcldpc import (
    DecodeOutcome,
    DecoderConfig,
    JointBpDecoder,
    PauliError,
    StopRule,
    build_code,
    classify,
    extract_syndrome,
    gf2_rank,
    hashing_bound_threshold,
    mat_mul_mod2,
    mat_vec_mod2,
    run_point,
    sample_error,
    scan_p,
    trial_rng,
)
from qcldpc.cli import _csv_row, main

ORTHOGONALITY_SIZES = (3, 5, 21, 51, 121, 255)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_orthogonality(pair):
    t0 = time.time()
    for P in ORTHOGONALITY_SIZES:
        code = build_code(pair, P)  # raises on any violation
        prod = mat_mul_mod2(code.h_x, code.h_z.transpose())
        assert prod.nnz == 0, f"nonzero product at P={P}"
    elapsed = time.time() - t0
    report(
        1,
        elapsed < 5.0,
        f"H_X @ H_Z^T = 0 for P in {ORTHOGONALITY_SIZES} ({elapsed:.2f}s < 5s)",
    )


def test_criterion_02_weights(pair):
    for P in ORTHOGONALITY_SIZES:
        code = build_code(pair, P)
        for h in (code.h_x, code.h_z):
            assert np.all(h.col_weights() == 3), f"column weight != 3 at P={P}"
            assert np.all(h.row_weights() == 8), f"row weight != 8 at P={P}"
    report(2, True, f"column weight 3 / row weight 8 exact for P in {ORTHOGONALITY_SIZES}")


def test_criterion_03_girth_scan(pair, capsys):
    t0 = time.time()
    first = None
    for res in scan_p(pair, range(3, 513)):
        if res.girth6:
            first = res.P
            break
    elapsed = time.time() - t0
    assert first == GIRTH6_P, f"first girth-6 size changed: {first}"

    # Same result through the CLI surface.
    assert main(["code", "--builtin-3x8", "--scan-p", "3..30"]) == 0
    out = capsys.readouterr().out
    flagged = [l.split(",")[0] for l in out.splitlines() if l.endswith(",*")]
    assert flagged and flagged[0] == str(GIRTH6_P)
    report(
        3,
        elapsed < 60.0,
        f"girth-6 found at P={first} scanning [3, 512] ({elapsed:.2f}s < 60s)",
    )


def test_criterion_04_rate(pair):
    from fractions import Fraction

    quarter = Fraction(1, 4)
    for P in ORTHOGONALITY_SIZES + (GIRTH6_P, GIRTH6_P_LARGE):
        code = build_code(pair, P)
        rx, rz = gf2_rank(code.h_x), gf2_rank(code.h_z)
        measured = 1 - Fraction(rx + rz, code.n)
        assert measured >= quarter, f"rate below design at P={P}"
        full = rx == 3 * P and rz == 3 * P
        assert (measured == quarter) == full, f"equality/full-rank mismatch at P={P}"
    report(4, True, "measured rate >= 1/4 with equality iff both ranks full")


def test_criterion_05_weight_one_recovery(code25):
    t0 = time.time()
    dec = JointBpDecoder.for_code(code25, DecoderConfig(max_iterations=20))
    total = 0
    for i in range(code25.n):
        for xb, zb in ((1, 0), (1, 1), (0, 1)):
            x = np.zeros(code25.n, dtype=np.uint8)
            z = np.zeros(code25.n, dtype=np.uint8)
            x[i], z[i] = xb, zb
            syn = extract_syndrome(code25, PauliError(x=x, z=z))
            out = dec.decode(syn, 0.01)
            assert out.converged and out.iterations <= 20, f"no convergence, qubit {i}"
            assert np.array_equal(out.x_hat, x) and np.array_equal(out.z_hat, z), (
                f"wrong recovery at qubit {i}"
            )
            total += 1
    elapsed = time.time() - t0
    report(
        5,
        elapsed < 60.0,
        f"all {total} single-qubit errors recovered exactly at P={GIRTH6_P} "
        f"({elapsed:.2f}s < 60s)",
    )


def test_criterion_06_convergence_soundness(code25):
    trials_per_rate = 3400  # >= 10^4 random trials in total
    batch = 25  # decoded as the Monte Carlo driver does, one chunk at a time
    violations = 0
    converged_seen = 0
    dec = JointBpDecoder.for_code(code25, DecoderConfig())
    for point, p_d in enumerate((0.02, 0.05, 0.08)):
        for lo in range(0, trials_per_rate, batch):
            syns = [
                extract_syndrome(code25, sample_error(code25.n, p_d, trial_rng(606, point, t)))
                for t in range(lo, min(lo + batch, trials_per_rate))
            ]
            outs = dec.decode_batch([syn.s for syn in syns], [syn.t for syn in syns], p_d)
            for syn, out in zip(syns, outs):
                if not out.converged:
                    continue
                converged_seen += 1
                ok = np.array_equal(
                    mat_vec_mod2(code25.h_z, out.x_hat), syn.s
                ) and np.array_equal(mat_vec_mod2(code25.h_x, out.z_hat), syn.t)
                violations += not ok
    report(
        6,
        violations == 0 and converged_seen > 0,
        f"{3 * trials_per_rate} trials at p in (0.02, 0.05, 0.08): "
        f"{converged_seen} converged, {violations} syndrome violations",
    )


def test_criterion_07_degeneracy(code5):
    rng = np.random.default_rng(707)
    hx = code5.h_x.to_dense()
    e = sample_error(code5.n, 0.2, trial_rng(707, 0, 0))
    successes = 0
    for _ in range(100):
        picks = rng.integers(0, 2, hx.shape[0]).astype(np.uint8)
        stab = ((picks @ hx) % 2).astype(np.uint8)
        outcome = DecodeOutcome(
            x_hat=e.x ^ stab, z_hat=e.z, converged=True, iterations=1
        )
        successes += classify(code5, e, outcome).success

    space = row_space_set(hx)
    basis = nullspace_basis(code5.h_z.to_dense())
    kernel_not_stabilizer = None
    for mask in range(1, 1 << len(basis)):
        v = np.zeros(code5.n, dtype=np.uint8)
        for b in range(len(basis)):
            if (mask >> b) & 1:
                v ^= basis[b]
        if v.tobytes() not in space:
            kernel_not_stabilizer = v
            break
    assert kernel_not_stabilizer is not None
    bad = DecodeOutcome(
        x_hat=e.x ^ kernel_not_stabilizer, z_hat=e.z, converged=True, iterations=1
    )
    failure = not classify(code5, e, bad).success
    report(
        7,
        successes == 100 and failure,
        f"stabilizer residuals succeed ({successes}/100), "
        "kernel-outside-row-space residual fails",
    )


def test_criterion_08_hashing_bound():
    p0 = hashing_bound_threshold(0)
    p1 = hashing_bound_threshold(1)
    residuals = []
    for rate in (0, 0.25, 0.5, 1):
        p = hashing_bound_threshold(rate)
        h2 = 0.0 if p == 0.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        residuals.append(abs(h2 + p * math.log2(3) - (1 - rate)))
    ok = abs(p0 - 0.18929) <= 1e-4 and p1 == 0.0 and max(residuals) < 1e-10
    report(
        8,
        ok,
        f"threshold(0)={p0:.6f} (0.18929 +/- 1e-4), threshold(1)={p1}, "
        f"max residual={max(residuals):.2e} < 1e-10",
    )


def test_criterion_09_waterfall_steepening(pair):
    # Frozen calibration: lengths n=200 (P=25) and n=800 (P=100), rates
    # straddling the observed transition, >=120 frame errors per point.
    p_lo, p_hi = 0.05, 0.085
    stop = StopRule(min_frame_errors=120, max_trials=150_000)
    cfg = DecoderConfig()
    drops = {}
    bounds = {}
    for name, P in (("small", GIRTH6_P), ("large", GIRTH6_P_LARGE)):
        code = build_code(pair, P)
        res = {}
        for i, p in enumerate((p_lo, p_hi)):
            res[p] = run_point(code, p, stop, seed=7, cfg=cfg, workers=2, point_index=i)
            assert res[p].frame_errors >= 100, f"{name} p={p}: too few frame errors"
        drops[name] = math.log10(res[p_hi].fer) - math.log10(res[p_lo].fer)
        bounds[name] = (
            math.log10(res[p_hi].ci_low) - math.log10(res[p_lo].ci_high),  # floor
            math.log10(res[p_hi].ci_high) - math.log10(res[p_lo].ci_low),  # ceil
        )
    separated = bounds["large"][0] > bounds["small"][1]
    report(
        9,
        drops["large"] > drops["small"] and separated,
        f"log10-FER drop over [{p_lo}, {p_hi}]: "
        f"n=200 code {drops['small']:.3f} vs n=800 code {drops['large']:.3f}, "
        f"CI-separated ({bounds['large'][0]:.3f} > {bounds['small'][1]:.3f})",
    )


def test_criterion_10_floor_tooling(tmp_path, capsys):
    import json

    log = tmp_path / "floor.jsonl"
    with open(log, "w", encoding="utf-8") as fh:
        for i, w in enumerate((3, 5, 40)):
            fh.write(
                json.dumps(
                    {
                        "trial": i,
                        "p_d": 0.05,
                        "bit_errors": w,
                        "residual_weight_x": w,
                        "residual_weight_z": 0,
                        "iterations": 100,
                        "residual_x_support": list(range(w)),
                        "residual_z_support": [],
                    }
                )
                + "\n"
            )
    assert main(["floor", str(log), "--l", "8", "--k", "1,3"]) == 0
    out = capsys.readouterr().out
    ok = (
        "bit_errors <= 1L (   8 bits): 0.666667" in out
        and "bit_errors <= 3L (  24 bits): 0.666667" in out
    )
    report(10, ok, "floor fractions match hand computation (2/3 at k=1 and k=3)")


def test_criterion_11_determinism_across_workers(code25):
    stop = StopRule(min_frame_errors=30, max_trials=1500)
    cfg = DecoderConfig()
    rows = []
    for workers in (1, 4, 8):
        res = run_point(code25, 0.06, stop, seed=1111, cfg=cfg, workers=workers)
        rows.append(_csv_row(res))
    ok = rows[0] == rows[1] == rows[2]
    report(11, ok, f"identical CSV rows for 1/4/8 workers: {rows[0]}")


def test_criterion_12_sampling_statistics():
    n, p = 100_000, 0.3
    e = sample_error(n, p, trial_rng(1212, 0, 0))
    counts = {
        "I": int(((e.x == 0) & (e.z == 0)).sum()),
        "X": int(((e.x == 1) & (e.z == 0)).sum()),
        "Y": int(((e.x == 1) & (e.z == 1)).sum()),
        "Z": int(((e.x == 0) & (e.z == 1)).sum()),
    }
    probs = {"I": 0.7, "X": 0.1, "Y": 0.1, "Z": 0.1}
    deviations = {}
    ok = True
    for pauli, q in probs.items():
        sigma = math.sqrt(n * q * (1 - q))
        dev = abs(counts[pauli] - n * q) / sigma
        deviations[pauli] = round(dev, 2)
        ok &= dev <= 4.0
    report(12, ok, f"multinomial deviations (sigma units): {deviations}, all <= 4")
