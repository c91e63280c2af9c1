import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcldpc
from qcldpc.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# code


def test_code_report_builtin_p21(capsys):
    code, out, _ = run_cli(["code", "--builtin-3x8", "--p", "21"], capsys)
    assert code == 0
    assert "n=168" in out
    assert "design_rate=1/4" in out


def test_code_scan_window(capsys):
    code, out, _ = run_cli(["code", "--builtin-3x8", "--scan-p", "24..26"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [l for l in lines if l and l[0].isdigit()]
    assert len(rows) == 3
    assert all(",yes," in r for r in rows)  # orthogonal at every size
    flagged = [r for r in rows if r.endswith(",*")]
    assert [r.split(",")[0] for r in flagged] == ["25", "26"]
    assert "# girth-6 sizes: 25 26" in out


def test_code_rejects_non_orthogonal_pair(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n0 0\n\n0 1\n")
    code, _, err = run_cli(["code", "--pair", str(bad), "--p", "8"], capsys)
    assert code == 1
    assert "orthogonal" in err


def test_code_rejects_malformed_pair(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n\n3 4\n")
    code, _, err = run_cli(["code", "--pair", str(bad), "--p", "8"], capsys)
    assert code == 1
    assert "error" in err


def test_code_scan_with_no_girth6_size(capsys):
    code, out, _ = run_cli(["code", "--builtin-3x8", "--scan-p", "2..24"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 23 + 1 and not any(l.endswith(",*") for l in lines)
    assert lines[-1] == "# no girth-6 size in range"


@pytest.mark.parametrize("argv, message", [
    (["code", "--builtin-3x8", "--scan-p", "5"], "expected a range like 3..64, got '5'"),
    (["code", "--builtin-3x8", "--scan-p", "9..3"], "invalid scan range '9..3'"),
    (["simulate", "--builtin-3x8", "--p", "5", "--p-grid", "0.1,x"],
     "invalid probability grid '0.1,x'"),
])
def test_unparsable_flag_values_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": {message}\n")


def test_code_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["code", "--builtin-3x8"])  # neither --p nor --scan-p
    assert exc.value.code == 2


@pytest.mark.parametrize("module", ["qcldpc", "qcldpc.cli"])
def test_python_dash_m_runs_the_cli(module):
    # `python -m qcldpc.cli ...` used to run nothing and exit 0.
    src = str(Path(qcldpc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", module, "code", "--builtin-3x8", "--p", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "J=3 L=8 P=5 n=40"


def test_pair_file_round_trip_via_cli(tmp_path, capsys):
    from qcldpc import builtin_pair_j3_l8, dump_pair

    path = tmp_path / "pair.txt"
    dump_pair(builtin_pair_j3_l8(), path)
    code, out, _ = run_cli(["code", "--pair", str(path), "--p", "21"], capsys)
    assert code == 0 and "n=168" in out


# ---------------------------------------------------------------------------
# simulate


SIM_ARGS = [
    "simulate",
    "--builtin-3x8",
    "--p",
    "5",
    "--seed",
    "42",
    "--max-iters",
    "20",
    "--min-frame-errors",
    "15",
    "--max-trials",
    "150",
    "--threads",
    "1",
]


def data_rows(csv_text):
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("# design_rate=")
    assert lines[1] == (
        "p_d,trials,frame_errors,fer,ci_low,ci_high,"
        "total_bit_errors,ber,mean_iterations"
    )
    return lines[2:]


def test_simulate_grid_rows_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "run1"
    code, out, _ = run_cli(
        SIM_ARGS + ["--p-grid", "0.3,0.25,0.2", "--out", str(out_dir)], capsys
    )
    assert code == 0
    csv_text = (out_dir / "sweep.csv").read_text()
    rows = data_rows(csv_text)
    assert len(rows) == 3
    assert [r.split(",")[0] for r in rows] == ["0.3", "0.25", "0.2"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool"] == "qcldpc"
    assert manifest["config"]["seed"] == 42
    assert manifest["config"]["p_grid"] == [0.3, 0.25, 0.2]
    # Both rates at P = 5: the design rate 1 - 6/8 and the measured 1 - 26/40.
    assert (manifest["design_rate"], manifest["measured_rate"]) == ("1/4", "7/20")
    assert manifest["design_hashing_bound_p_d"] == qcldpc.hashing_bound_threshold(0.25)
    assert manifest["hashing_bound_p_d"] == qcldpc.hashing_bound_threshold(0.35)
    assert manifest["hashing_bound_p_d"] < manifest["design_hashing_bound_p_d"]
    assert csv_text.splitlines()[0] == "# design_rate=1/4 hashing_bound_p_d=0.126899"
    assert (out_dir / "failures.jsonl").exists()


def test_simulate_zero_rate_row(tmp_path, capsys):
    out_dir = tmp_path / "run0"
    code, _, _ = run_cli(
        SIM_ARGS + ["--p-grid", "0.0", "--out", str(out_dir)], capsys
    )
    assert code == 0
    row = data_rows((out_dir / "sweep.csv").read_text())[0]
    cells = row.split(",")
    assert cells[0] == "0.0" and cells[2] == "0" and cells[3] == "0.0"


def test_simulate_manifest_replay_is_byte_identical(tmp_path, capsys):
    run1 = tmp_path / "a"
    run2 = tmp_path / "b"
    code, _, _ = run_cli(
        SIM_ARGS + ["--p-grid", "0.3,0.2", "--out", str(run1)], capsys
    )
    assert code == 0
    code, _, _ = run_cli(
        [
            "simulate",
            "--config",
            str(run1 / "manifest.json"),
            "--out",
            str(run2),
        ],
        capsys,
    )
    assert code == 0
    assert (run1 / "sweep.csv").read_bytes() == (run2 / "sweep.csv").read_bytes()
    assert (run1 / "failures.jsonl").read_bytes() == (run2 / "failures.jsonl").read_bytes()


def test_simulate_flags_override_config(tmp_path, capsys):
    run1 = tmp_path / "a"
    run_cli(SIM_ARGS + ["--p-grid", "0.3", "--out", str(run1)], capsys)
    run2 = tmp_path / "b"
    code, _, _ = run_cli(
        [
            "simulate",
            "--config",
            str(run1 / "manifest.json"),
            "--seed",
            "43",
            "--out",
            str(run2),
        ],
        capsys,
    )
    assert code == 0
    manifest = json.loads((run2 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 43
    assert manifest["config"]["p_grid"] == [0.3]


def same_sweep(a, b):
    return all((a / f).read_bytes() == (b / f).read_bytes()
               for f in ("sweep.csv", "failures.jsonl"))


def test_simulate_from_a_pair_file(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    qcldpc.dump_pair(qcldpc.builtin_pair_j3_l8(), pair)
    flags = SIM_ARGS[2:] + ["--p-grid", "0.3,0.2"]  # all but simulate --builtin-3x8
    runs = {name: tmp_path / name for name in ("builtin", "file", "replay", "override")}
    assert run_cli(["simulate", "--builtin-3x8", *flags, "--out", str(runs["builtin"])],
                   capsys)[0] == 0
    assert run_cli(["simulate", "--pair", str(pair), *flags, "--out", str(runs["file"])],
                   capsys)[0] == 0
    assert same_sweep(runs["builtin"], runs["file"])
    manifest = runs["file"] / "manifest.json"
    assert json.loads(manifest.read_text())["config"]["pair_file"] == str(pair)

    replay = ["simulate", "--config", str(manifest), "--out", str(runs["replay"])]
    assert run_cli(replay, capsys)[0] == 0
    assert same_sweep(runs["file"], runs["replay"])
    # --builtin-3x8 overrides the manifest's pair_file, which is then never read.
    pair.unlink()
    override = ["simulate", "--config", str(manifest), "--builtin-3x8",
                "--out", str(runs["override"])]
    assert run_cli(override, capsys)[0] == 0
    assert same_sweep(runs["file"], runs["override"])
    assert json.loads((runs["override"] / "manifest.json").read_text())["config"]["pair_file"] is None


def test_simulate_missing_size_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--builtin-3x8", "--p-grid", "0.3", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "(--p)" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_simulate_rejects_a_config_that_is_a_json_list(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"p": 5, "p_grid": [0.3]}]))
    code, _, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert err == f"error: {path}: expected a JSON config object or a manifest\n"


@pytest.mark.parametrize("wrap", [False, True])
def test_simulate_rejects_unknown_config_key(tmp_path, capsys, wrap):
    # A misspelt key must not fall back to the 1,000,000-trial default.
    cfg = {"p": 5, "p_grid": [0.3], "max_trial": 10}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tool": "qcldpc", "config": cfg} if wrap else cfg))
    code, _, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert "max_trial" in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("wrap", [False, True])
@pytest.mark.parametrize(
    "key, value",
    [
        ("max_trials", "10"),
        ("seed", True),
        ("p", 5.0),
        ("threads", 1.5),
        ("llr_clip", "25"),
        ("damping", None),
        ("p_grid", 0.3),
        ("p_grid", [0.3, "0.2"]),
        ("pair_file", 7),
    ],
)
def test_simulate_rejects_config_value_of_wrong_type(tmp_path, capsys, wrap, key, value):
    # "max_trials": "10" used to end in a TypeError traceback from StopRule.
    cfg = {"p": 5, "p_grid": [0.3], "max_trials": 10, key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tool": "qcldpc", "config": cfg} if wrap else cfg))
    code, _, err = run_cli(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("threads", 0), ("threads", -3), ("max_logged_failures", -1)]
)
@pytest.mark.parametrize("source", ["flag", "config", "manifest"])
def test_simulate_rejects_values_below_the_minimum(tmp_path, capsys, source, key, value):
    # --threads 0 used to run one worker, and --max-logged-failures -1 to
    # write an empty failures.jsonl, both with exit status 0.
    cfg = {"p": 5, "p_grid": [0.3], "max_trials": 10}
    argv = ["simulate", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--builtin-3x8", "--p", "5", "--p-grid", "0.3", "--max-trials", "10",
                 "--" + key.replace("_", "-"), str(value)]
    else:
        cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tool": "qcldpc", "config": cfg} if source == "manifest"
                                   else cfg))
        argv += ["--config", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_simulate_accepts_null_where_the_default_is_null(tmp_path, capsys):
    cfg = {"pair_file": None, "p": 5, "p_grid": [0.3], "threads": None, "max_trials": 10,
           "llr_clip": 25, "damping": 0.5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(
        ["simulate", "--config", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 0
    assert len(data_rows((tmp_path / "out" / "sweep.csv").read_text())) == 1


def test_simulate_missing_grid_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--builtin-3x8", "--p", "5", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "grid" in err


def test_simulate_bad_grid_value(tmp_path, capsys):
    code, _, err = run_cli(
        SIM_ARGS + ["--p-grid", "0.3,1.5", "--out", str(tmp_path)], capsys
    )
    assert code == 2


def test_simulate_hashing_bound_metadata(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(SIM_ARGS + ["--p-grid", "0.3", "--out", str(out_dir)], capsys)
    head = (out_dir / "sweep.csv").read_text().splitlines()[0]
    assert head == "# design_rate=1/4 hashing_bound_p_d=0.126899"


# ---------------------------------------------------------------------------
# floor


def write_log(path, weights):
    with open(path, "w", encoding="utf-8") as fh:
        for i, w in enumerate(weights):
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


def test_floor_hand_computed(tmp_path, capsys):
    log = tmp_path / "f.jsonl"
    write_log(log, [3, 5, 40])
    code, out, _ = run_cli(["floor", str(log), "--l", "8", "--k", "1,3"], capsys)
    assert code == 0
    assert "bit_errors <= 1L (   8 bits): 0.666667" in out
    assert "bit_errors <= 3L (  24 bits): 0.666667" in out


def test_floor_all_within_two_l(tmp_path, capsys):
    log = tmp_path / "f.jsonl"
    write_log(log, [2, 16, 9])
    code, out, _ = run_cli(["floor", str(log), "--l", "8", "--k", "2"], capsys)
    assert code == 0
    assert "bit_errors <= 2L (  16 bits): 1.000000" in out


def test_floor_two_logs_merge_additively(tmp_path, capsys):
    log1, log2, both = tmp_path / "1.jsonl", tmp_path / "2.jsonl", tmp_path / "b.jsonl"
    write_log(log1, [3, 5])
    write_log(log2, [40])
    write_log(both, [3, 5, 40])
    _, out_split, _ = run_cli(
        ["floor", str(log1), str(log2), "--l", "8", "--k", "1"], capsys
    )
    _, out_merged, _ = run_cli(["floor", str(both), "--l", "8", "--k", "1"], capsys)
    assert out_split == out_merged


def test_floor_empty_log(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    code, out, _ = run_cli(["floor", str(log), "--l", "8"], capsys)
    assert code == 0
    assert "no failures recorded" in out


@pytest.mark.parametrize("k", [",", "0,-1", "0", "2,x"])
def test_floor_rejects_multipliers_that_are_not_positive_integers(tmp_path, capsys, k):
    # "," used to print no fraction rows, and "0,-1" rows for 0L and -1L.
    log = tmp_path / "f.jsonl"
    write_log(log, [3])
    with pytest.raises(SystemExit) as exc:
        main(["floor", str(log), "--l", "8", f"--k={k}"])
    assert exc.value.code == 2
    assert "positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("l", ["0", "-2"])
@pytest.mark.parametrize("weights", [[], [3]])
def test_floor_rejects_a_unit_that_is_not_a_positive_integer(tmp_path, capsys, l, weights):
    # With an empty log, --l 0 used to print "no failures recorded" and exit 0;
    # with a failure, it exited 1.
    log = tmp_path / "f.jsonl"
    write_log(log, weights)
    with pytest.raises(SystemExit) as exc:
        main(["floor", str(log), "--l", l])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ['{"trial":0}', "[1,2]", '{"bit_errors":"3"}', '{"bit_errors":-3}', "{"]
)
def test_floor_rejects_a_line_that_is_not_a_failure_record(tmp_path, capsys, line):
    log = tmp_path / "bad.jsonl"
    write_log(log, [3])
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    code, _, err = run_cli(["floor", str(log), "--l", "8"], capsys)
    assert code == 1
    assert err.startswith("error: ") and f"{log}, line 2:" in err


# ---------------------------------------------------------------------------
# bound


def test_bound_rate_one(capsys):
    code, out, _ = run_cli(["bound", "--rate", "1"], capsys)
    assert code == 0 and out.strip() == "0.000000"


def test_bound_rate_zero(capsys):
    code, out, _ = run_cli(["bound", "--rate", "0"], capsys)
    assert code == 0 and out.strip() == "0.189290"


def test_bound_jl_matches_rate(capsys):
    _, out_jl, _ = run_cli(["bound", "--j", "3", "--l", "8"], capsys)
    _, out_rate, _ = run_cli(["bound", "--rate", "0.25"], capsys)
    assert out_jl == out_rate == "0.126899\n"


@pytest.mark.parametrize("j, l", [("0", "8"), ("3", "0"), ("-3", "8")])
def test_bound_rejects_a_block_count_that_is_not_a_positive_integer(capsys, j, l):
    # --j 0 used to print 0.000000 and exit 0, --l 0 to exit 1 from design_rate.
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--j", j, "--l", l])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_bound_out_of_range(capsys):
    code, _, err = run_cli(["bound", "--rate", "1.5"], capsys)
    assert code == 2


def test_bound_requires_some_rate(capsys):
    code, _, err = run_cli(["bound"], capsys)
    assert code == 2
