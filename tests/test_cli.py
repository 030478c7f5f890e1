import csv
import json

import numpy as np
import pytest

from spfact.cli import (
    CSV_COLUMNS,
    MOVIELENS_LAM,
    PTREND_LAMS,
    TABLE1_LAM,
    _float_list,
    main,
    parse_args,
)


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def input_rows(path):
    """The input columns suite..seed of each CSV row, in file order."""
    cols = CSV_COLUMNS[: CSV_COLUMNS.index("seed") + 1]
    return [",".join(r[c] for c in cols) for r in read_csv(path)]


def make_fixture(tmp_path, m=16, n=14, rank=2, snr=15.0, missing=0.3, seed=3):
    out = tmp_path / "inst.txt"
    code = run_cli(
        [
            "synth",
            "--m", str(m), "--n", str(n), "--rank", str(rank),
            "--snr", str(snr), "--missing", str(missing), "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def write_ratings(path, m=12, n=15, k=60, seed=0):
    rng = np.random.default_rng(seed)
    lin = rng.choice(m * n, size=k, replace=False)
    with open(path, "w") as fh:
        for v in lin:
            u, i = divmod(int(v), n)
            fh.write(f"{u + 1}\t{i + 1}\t{rng.integers(1, 6)}\t0\n")
    return path


def test_synth_writes_fixture(tmp_path, capsys):
    out = make_fixture(tmp_path)
    text = capsys.readouterr().out
    assert str(out) in text
    header = out.read_text().splitlines()[0].split()
    assert header == ["16", "14", "2", "15.0", "0.3", "3"]


def test_synth_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as e:
        run_cli(["synth", "--m", "4", "--n", "4"])  # missing --rank
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        run_cli(["synth", "--m", "4", "--n", "4", "--rank", "1", "--missing", "1.0"])
    assert e.value.code == 2


def test_synth_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPFACT_OUTDIR", str(tmp_path))
    assert run_cli(["synth", "--m", "6", "--n", "5", "--rank", "1"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert any(p.suffix == ".txt" for p in tmp_path.iterdir())


def test_complete_single_run(tmp_path, capsys):
    fixture = make_fixture(tmp_path)
    csv_path = tmp_path / "runs.csv"
    code = run_cli(
        [
            "complete", "--input", str(fixture),
            "--p", "0.5", "--lam", "1.0", "--init-rank", "4",
            "--out", str(csv_path), "--no-timing",
        ]
    )
    assert code == 0
    rows = read_csv(csv_path)
    assert len(rows) == 1
    assert list(rows[0].keys()) == CSV_COLUMNS
    r = rows[0]
    assert int(r["final_rank"]) <= int(r["init_rank"]) + int(r["escapes"])
    assert float(r["re"]) > 0  # ground truth re-derived from the fixture header
    assert r["nmae"] == "nan"
    assert r["wall_ms"] == "0.0"


def test_complete_sweep_row_count(tmp_path):
    fixture = make_fixture(tmp_path)
    csv_path = tmp_path / "runs.csv"
    code = run_cli(
        [
            "complete", "--input", str(fixture),
            "--p", "0.3,0.5,1.0", "--lam", "1.0", "--init-rank", "3",
            "--out", str(csv_path), "--no-timing",
        ]
    )
    assert code == 0
    rows = read_csv(csv_path)
    assert len(rows) == 3
    assert sorted(float(r["p"]) for r in rows) == [0.3, 0.5, 1.0]


def test_complete_multiplier_init_rank_and_escape_both(tmp_path):
    fixture = make_fixture(tmp_path)
    csv_path = tmp_path / "runs.csv"
    code = run_cli(
        [
            "complete", "--input", str(fixture),
            "--p", "0.5", "--lam", "1.0", "--init-rank", "0.5x",
            "--escape", "both",
            "--out", str(csv_path), "--no-timing",
        ]
    )
    assert code == 0
    rows = read_csv(csv_path)
    assert len(rows) == 2
    assert {r["escape"] for r in rows} == {"on", "off"}
    assert all(int(r["init_rank"]) == 1 for r in rows)  # 0.5 * true rank 2


def test_complete_movielens_input(tmp_path):
    ratings = write_ratings(tmp_path / "u.data")
    csv_path = tmp_path / "runs.csv"
    code = run_cli(
        [
            "complete", "--input", str(ratings),
            "--p", "0.5", "--lam", "0.5", "--init-rank", "2",
            "--train-frac", "0.5",
            "--out", str(csv_path), "--no-timing",
        ]
    )
    assert code == 0
    r = read_csv(csv_path)[0]
    assert r["re"] == "nan"
    assert np.isfinite(float(r["nmae"]))


def test_complete_multiplier_rejected_without_rank(tmp_path):
    ratings = write_ratings(tmp_path / "u.data")
    with pytest.raises(SystemExit) as e:
        run_cli(
            ["complete", "--input", str(ratings), "--init-rank", "0.5x", "--no-timing"]
        )
    assert e.value.code == 2


def test_complete_byte_stable(tmp_path):
    fixture = make_fixture(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "complete", "--input", str(fixture),
        "--p", "0.5,0.3", "--lam", "0.7", "--init-rank", "3",
        "--seeds", "2", "--no-timing",
    ]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_complete_json_mirror(tmp_path):
    fixture = make_fixture(tmp_path)
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "runs.json"
    code = run_cli(
        [
            "complete", "--input", str(fixture),
            "--p", "0.5", "--lam", "1.0", "--init-rank", "3",
            "--out", str(csv_path), "--json", str(json_path), "--no-timing",
        ]
    )
    assert code == 0
    mirror = json.loads(json_path.read_text())
    assert len(mirror) == 1
    assert mirror[0]["error"] == ""
    assert set(CSV_COLUMNS) <= set(mirror[0].keys())


def test_complete_failure_row_and_exit_code(tmp_path):
    # lam = 0 with an over-wide rank-deficient init makes the Hessian
    # singular; the run must be recorded and the exit code nonzero
    fixture = make_fixture(tmp_path, m=6, n=5, rank=1, snr=float("inf"), missing=0.0)
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "runs.json"
    code = run_cli(
        [
            "complete", "--input", str(fixture),
            "--p", "0.5", "--lam", "0.0,1.0", "--init-rank", "6",
            "--out", str(csv_path), "--json", str(json_path), "--no-timing",
        ]
    )
    assert code == 1
    rows = read_csv(csv_path)
    assert len(rows) == 2
    failed = [r for r in rows if r["objective"] == "nan"]
    ok = [r for r in rows if r["objective"] != "nan"]
    assert len(failed) == 1 and len(ok) == 1
    assert ok[0]["re"] == "nan"  # fully observed fixture has no held-out set
    mirror = json.loads(json_path.read_text())
    errs = [e["error"] for e in mirror if e["error"]]
    assert len(errs) == 1 and "singular" in errs[0]


def test_complete_names_the_malformed_fixture_line(tmp_path, capsys):
    # a six-field first line picks the fixture reader, whose error names
    # the bad triplet line rather than a ratings-parser complaint
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3 1 10.0 0.5 0\n0 1 2.5\n1 x 2.5\n")
    code = run_cli(["complete", "--input", str(bad), "--no-timing"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:3: " in err and "tab-separated" not in err


def test_complete_has_no_format_option(tmp_path):
    fixture = make_fixture(tmp_path)
    with pytest.raises(SystemExit) as e:
        run_cli(["complete", "--input", str(fixture), "--format", "fixture"])
    assert e.value.code == 2


def test_bench_table1_counting(tmp_path):
    out_dir = tmp_path / "bench"
    code = run_cli(
        [
            "bench", "table1",
            "--m", "24", "--n", "20", "--rank", "2", "--seeds", "2",
            "--lam", "2.0", "--max-iter", "120",
            "--out-dir", str(out_dir), "--no-timing",
        ]
    )
    assert code == 0
    rows = read_csv(out_dir / "table1_runs.csv")
    # 5 multipliers x 2 p x 2 escape x 2 seeds
    assert len(rows) == 40
    summary = (out_dir / "table1_summary.csv").read_text().splitlines()
    # rows: one per multiplier; columns: (re, rank) per escape-mode x p
    header = summary[0].split(",")
    assert header[0] == "init_mult"
    assert len(header) == 1 + 2 * 2 * 2
    assert "re_p0.5_esc_on" in header and "rank_p0.3_esc_off" in header
    assert len(summary) == 1 + 5
    assert [line.split(",")[0] for line in summary[1:]] == [
        "0.5", "0.75", "1.0", "1.25", "1.5",
    ]


def test_bench_ptrend_counting(tmp_path):
    out_dir = tmp_path / "bench"
    code = run_cli(
        [
            "bench", "ptrend",
            "--m", "20", "--n", "18", "--rank", "2", "--seeds", "1",
            "--lams", "0.5,2.0", "--init-rank", "3", "--max-iter", "120",
            "--out-dir", str(out_dir), "--no-timing",
        ]
    )
    assert code == 0
    rows = read_csv(out_dir / "ptrend_runs.csv")
    assert len(rows) == 4 * 2  # p values x lambda values
    summary = (out_dir / "ptrend_summary.csv").read_text().splitlines()
    # one RE column per p, plus the best lambda used for it
    assert summary[0] == "metric,p=0.3,p=0.5,p=0.7,p=1"
    assert summary[1].startswith("re_median,")
    assert summary[2].startswith("best_lambda,")
    assert len(summary[1].split(",")) == 5


def test_bench_movielens_requires_data(tmp_path):
    with pytest.raises(SystemExit) as e:
        run_cli(["bench", "movielens", "--out-dir", str(tmp_path)])
    assert e.value.code == 2


def test_bench_unknown_suite():
    with pytest.raises(SystemExit) as e:
        run_cli(["bench", "nope"])
    assert e.value.code == 2


def test_bench_movielens_small(tmp_path):
    ratings = write_ratings(tmp_path / "u.data", m=40, n=35, k=700, seed=1)
    out_dir = tmp_path / "bench"
    code = run_cli(
        [
            "bench", "movielens", "--data", str(ratings),
            "--seeds", "1", "--lam", "2.0", "--max-iter", "150",
            "--out-dir", str(out_dir), "--no-timing",
        ]
    )
    assert code == 0
    rows = read_csv(out_dir / "movielens_runs.csv")
    assert [int(r["init_rank"]) for r in rows] == [10, 20, 30]
    assert all(np.isfinite(float(r["nmae"])) for r in rows)


def test_movielens_prep_summary_and_split(tmp_path, capsys):
    ratings = write_ratings(tmp_path / "u.data", m=10, n=12, k=40, seed=2)
    split_dir = tmp_path / "splits"
    code = run_cli(
        [
            "movielens-prep", "--data", str(ratings),
            "--train-frac", "0.5", "--seed", "1", "--split-out", str(split_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "40 ratings" in out
    train = (split_dir / "train.txt").read_text().splitlines()
    test = (split_dir / "test.txt").read_text().splitlines()
    assert len(train) - 1 == 20 and len(test) - 1 == 20
    from spfact import load_fixture

    _, obs_train, truth = load_fixture(split_dir / "train.txt")
    assert truth is None
    assert obs_train.nnz == 20


def test_config_file_defaults(tmp_path):
    fixture = make_fixture(tmp_path)
    cfg_file = tmp_path / "spfact.conf"
    cfg_file.write_text("# defaults\nlam = 0.7\nseeds = 2\nno-timing = true\n")
    csv_path = tmp_path / "runs.csv"
    code = run_cli(
        [
            "--config", str(cfg_file),
            "complete", "--input", str(fixture),
            "--p", "0.5", "--init-rank", "3",
            "--out", str(csv_path),
        ]
    )
    assert code == 0
    rows = read_csv(csv_path)
    assert len(rows) == 2  # seeds from config
    assert all(r["lambda"] == "0.7" for r in rows)
    assert all(r["wall_ms"] == "0.0" for r in rows)  # no-timing from config
    # explicit flag beats the config value
    code = run_cli(
        [
            "--config", str(cfg_file),
            "complete", "--input", str(fixture),
            "--p", "0.5", "--init-rank", "3", "--lam", "1.5",
            "--out", str(csv_path),
        ]
    )
    rows = read_csv(csv_path)
    assert all(r["lambda"] == "1.5" for r in rows)


def test_config_file_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.conf"
    cfg_file.write_text("not_a_flag = 3\n")
    with pytest.raises(SystemExit) as e:
        run_cli(["--config", str(cfg_file), "bench", "table1"])
    assert e.value.code == 2


def test_config_value_typed_by_the_chosen_command(tmp_path):
    # bench table1 types --lam as a float and bench ptrend --init-rank as an
    # int; complete takes both as comma-separated strings
    fixture = make_fixture(tmp_path)
    cfg_file = tmp_path / "spfact.conf"
    cfg_file.write_text("lam = 0.5,1.0\ninit-rank = 0.5x\nmax-iter = 5\nno-timing = true\n")
    csv_path = tmp_path / "runs.csv"
    code = run_cli(
        ["--config", str(cfg_file), "complete", "--input", str(fixture), "--out", str(csv_path)]
    )
    assert code == 0
    rows = read_csv(csv_path)
    assert [(r["lambda"], r["init_rank"]) for r in rows] == [("0.5", "1"), ("1.0", "1")]
    _, a = parse_args(["--config", str(cfg_file), "complete", "--input", "x"])
    assert (a.lam, a.init_rank, a.max_iter, a.no_timing) == ("0.5,1.0", "0.5x", 5, True)
    # the same values are still invalid for the commands that type them
    for argv in (["bench", "table1"], ["bench", "ptrend"]):
        with pytest.raises(SystemExit) as e:
            parse_args(["--config", str(cfg_file)] + argv)
        assert e.value.code == 2


def test_csv_column_order_documented():
    assert CSV_COLUMNS == [
        "suite", "m", "n", "true_rank", "missing", "snr_db", "p", "lambda",
        "init_rank", "escape", "seed", "iters", "escapes", "final_rank",
        "objective", "re", "nmae", "wall_ms",
    ]


def test_complete_json_stop_reason(tmp_path):
    fixture = make_fixture(tmp_path)
    json_path = tmp_path / "runs.json"
    args = ["--out", str(tmp_path / "runs.csv"), "--json", str(json_path), "--no-timing"]
    code = run_cli(
        ["complete", "--input", str(fixture), "--init-rank", "3", "--max-iter", "1"] + args
    )
    assert code == 0
    [entry] = json.loads(json_path.read_text())
    assert entry["stop_reason"] == "max_iter"
    assert entry["converged"] is False
    # a failed run has no stop reason
    fixture = make_fixture(tmp_path, m=6, n=5, rank=1, snr=float("inf"), missing=0.0)
    code = run_cli(
        ["complete", "--input", str(fixture), "--lam", "0.0", "--init-rank", "6"] + args
    )
    assert code == 1
    [entry] = json.loads(json_path.read_text())
    assert entry["error"] and entry["stop_reason"] == ""
    assert entry["converged"] is False


# expected rows recorded from the hand-written per-suite loops that the
# grid runner replaced
GRID_ORDER_CASES = {
    # sorted (init_rank, p, lambda, escape, seed): escape "off" sorts first
    "complete_fixture": (
        ["complete", "--input", "{fixture}", "--p", "0.5,0.3", "--init-rank", "1x,0.5x",
         "--escape", "both", "--seeds", "2", "--out", "{out}/runs.csv"],
        "runs.csv",
        [
            f"complete,16,14,2,0.2991071428571429,nan,{p},1.0,{ir},{esc},{seed}"
            for ir in (1, 2)
            for p in (0.3, 0.5)
            for esc in ("off", "on")
            for seed in (0, 1)
        ],
    ),
    "complete_ratings": (
        ["complete", "--input", "{ratings}", "--lam", "1.0,0.5", "--init-rank", "3,2",
         "--seeds", "2", "--out", "{out}/runs.csv"],
        "runs.csv",
        [
            f"complete,40,35,0,0.75,nan,0.5,{lam},{ir},on,{seed}"
            for ir in (2, 3)
            for lam in (0.5, 1.0)
            for seed in (0, 1)
        ],
    ),
    # multiplier -> p -> escape on, then off -> seed
    "table1": (
        ["bench", "table1", "--m", "12", "--n", "10", "--rank", "2", "--seeds", "2",
         "--out-dir", "{out}"],
        "table1_runs.csv",
        [
            f"table1,12,10,2,0.4,10.0,{p},100.0,{ir},{esc},{seed}"
            for ir in (1, 2, 2, 2, 3)
            for p in (0.5, 0.3)
            for esc in ("on", "off")
            for seed in (0, 1)
        ],
    ),
    # p -> lambda -> seed
    "ptrend": (
        ["bench", "ptrend", "--m", "12", "--n", "10", "--rank", "2", "--p", "0.5,0.3",
         "--lams", "1.0,2.0", "--seeds", "2", "--out-dir", "{out}"],
        "ptrend_runs.csv",
        [
            f"ptrend,12,10,2,0.5,8.0,{p},{lam},3,on,{seed}"
            for p in (0.5, 0.3)
            for lam in (1.0, 2.0)
            for seed in (0, 1)
        ],
    ),
    # init rank -> seed
    "movielens": (
        ["bench", "movielens", "--data", "{ratings}", "--seeds", "2", "--out-dir", "{out}"],
        "movielens_runs.csv",
        [
            f"movielens,40,35,0,0.75,nan,0.5,15.0,{ir},on,{seed}"
            for ir in (10, 20, 30)
            for seed in (0, 1)
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(GRID_ORDER_CASES))
def test_grid_order(tmp_path, case):
    argv, csv_name, expected = GRID_ORDER_CASES[case]
    paths = dict(
        fixture=make_fixture(tmp_path),
        ratings=write_ratings(tmp_path / "u.data", m=40, n=35, k=700, seed=1),
        out=tmp_path / "out",
    )
    (tmp_path / "out").mkdir()
    argv = [a.format(**paths) for a in argv] + ["--max-iter", "5", "--no-timing"]
    assert run_cli(argv) == 0
    assert input_rows(tmp_path / "out" / csv_name) == expected


def test_bench_suite_defaults():
    _, a = parse_args(["bench", "table1"])
    assert (a.m, a.n, a.rank, a.missing, a.snr, a.p, a.lam, a.seeds) == (
        200, 200, 10, 0.4, 10.0, "0.5,0.3", TABLE1_LAM, 5,
    )
    _, a = parse_args(["bench", "ptrend"])
    assert (a.m, a.n, a.rank, a.missing, a.snr, a.p, a.init_rank, a.seeds) == (
        200, 200, 20, 0.5, 8.0, "0.3,0.5,0.7,1.0", None, 5,
    )
    assert tuple(_float_list(a.lams)) == PTREND_LAMS
    _, a = parse_args(["bench", "movielens", "--data", "u.data"])
    assert (a.data, a.p, a.lam, a.train_frac, a.rmin, a.rmax, a.seeds) == (
        "u.data", "0.5", MOVIELENS_LAM, 0.5, 1.0, 5.0, 5,
    )
    assert (TABLE1_LAM, MOVIELENS_LAM) == (100.0, 15.0)
    assert PTREND_LAMS == (12.5, 50.0, 200.0, 800.0, 3200.0)


def test_bench_config_then_flag_precedence(tmp_path):
    cfg_file = tmp_path / "spfact.conf"
    cfg_file.write_text("rank = 3\nlam = 7.0\nlams = 1,2\ndata = u.data\n")
    config = ["--config", str(cfg_file)]
    # a config value beats the suite default
    _, a = parse_args(config + ["bench", "table1"])
    assert (a.rank, a.lam, a.missing) == (3, 7.0, 0.4)
    _, a = parse_args(config + ["bench", "ptrend"])
    assert (a.rank, a.lams, a.snr) == (3, "1,2", 8.0)
    # and supplies a required flag
    _, a = parse_args(config + ["bench", "movielens"])
    assert (a.data, a.lam) == ("u.data", 7.0)
    # an explicit flag beats the config value
    _, a = parse_args(config + ["bench", "table1", "--rank", "4", "--lam", "9"])
    assert (a.rank, a.lam) == (4, 9.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "table1", "--lams", "1"],
        ["bench", "table1", "--data", "u.data"],
        ["bench", "ptrend", "--lam", "1"],
        ["bench", "movielens", "--data", "u.data", "--m", "5"],
        ["bench", "movielens", "--data", "u.data", "--init-rank", "5"],
    ],
)
def test_bench_rejects_flags_the_suite_ignores(argv):
    with pytest.raises(SystemExit) as e:
        run_cli(argv)
    assert e.value.code == 2
