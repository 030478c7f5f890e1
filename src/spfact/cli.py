"""Command-line front end: synthetic instances, completion runs, benchmarks.

Subcommands
    synth           write a synthetic instance to the fixture text format
    complete        run the solver over a (p, lambda, init-rank, seed) grid
    bench           predefined seeded suites: table1, ptrend, movielens
    movielens-prep  validate/summarize a ratings file, optionally split it

Runs are emitted as CSV with a fixed column order (see CSV_COLUMNS), one
row per configuration, plus an optional JSON mirror that also carries
each run's stop reason and error message. Output is deterministic for
fixed inputs and seeds; wall_ms is the one exception unless --no-timing
zeroes it.

A 'key = value' config file (--config) supplies flag defaults; explicit
flags win. The SPFACT_OUTDIR environment variable sets the default
output directory.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .datasets import (
    SynthSpec,
    _write_fixture,
    gen_synthetic,
    load_fixture,
    nmae,
    parse_movielens,
    relative_error,
    save_fixture,
    split,
)
from .solver import SolverConfig, solve

CSV_COLUMNS = [
    "suite",
    "m",
    "n",
    "true_rank",
    "missing",
    "snr_db",
    "p",
    "lambda",
    "init_rank",
    "escape",
    "seed",
    "iters",
    "escapes",
    "final_rank",
    "objective",
    "re",
    "nmae",
    "wall_ms",
]

TABLE1_MULTIPLIERS = (0.5, 0.75, 1.0, 1.25, 1.5)
MOVIELENS_INIT_RANKS = (10, 20, 30)

# Desk-scale regularization defaults; the suites accept --lam/--lams to
# override. There is no universally good value, these are tuned for the
# default suite geometries.
TABLE1_LAM = 100.0
PTREND_LAMS = (12.5, 50.0, 200.0, 800.0, 3200.0)
MOVIELENS_LAM = 15.0


def _outdir(value):
    return value if value is not None else os.environ.get("SPFACT_OUTDIR", ".")


def _float_list(text):
    return [float(t) for t in text.split(",") if t]


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path, runs):
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in CSV_COLUMNS) for row, _ in runs]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, runs):
    mirror = []
    for row, err in runs:
        entry = dict(row)
        entry["error"] = err
        mirror.append(entry)
    with open(path, "w") as fh:
        json.dump(mirror, fh, indent=2)
        fh.write("\n")


def _report_failures(runs):
    failed = [(row, err) for row, err in runs if err]
    for row, err in failed:
        print(
            f"run failed (p={row['p']}, lambda={row['lambda']}, "
            f"init_rank={row['init_rank']}, seed={row['seed']}): {err}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _run_one(suite, y_train, cfg, meta, no_timing, re_fn, nmae_fn):
    """Solve one configuration and assemble a full RunRecord row."""
    row = dict(meta)
    row.update(
        suite=suite,
        p=cfg.p,
        init_rank=cfg.init_width,
        escape="on" if cfg.escape_enabled else "off",
        seed=cfg.seed,
    )
    row["lambda"] = cfg.lam
    t0 = time.perf_counter()
    error = ""
    try:
        F, report = solve(y_train, cfg)
        row.update(
            iters=report.iters,
            escapes=report.escapes,
            final_rank=report.final_width,
            objective=float(report.objective_trace[-1]),
            re=re_fn(F) if re_fn else float("nan"),
            nmae=nmae_fn(F) if nmae_fn else float("nan"),
            stop_reason=report.stop_reason,
            converged=bool(report.converged),
        )
    except Exception as exc:  # noqa: BLE001 - finish the remaining runs
        error = f"{type(exc).__name__}: {exc}"
        row.update(
            iters=0,
            escapes=0,
            final_rank=0,
            objective=float("nan"),
            re=float("nan"),
            nmae=float("nan"),
            stop_reason="",
            converged=False,
        )
    row["wall_ms"] = 0.0 if no_timing else (time.perf_counter() - t0) * 1000.0
    return row, error


def _run_grid(suite, instance, grid, args):
    """Solve each (init_rank, p, lam, escape_on, seed) cell, in grid order.

    instance(seed) returns (y_train, meta, re_fn, nmae_fn) for that seed.
    """
    runs = []
    for init_rank, p, lam, escape_on, seed in grid:
        y_train, meta, re_fn, nmae_fn = instance(seed)
        cfg = SolverConfig(
            p=p,
            lam=lam,
            init_width=init_rank,
            prune_thres=args.prune_thres,
            max_iter=args.max_iter,
            conv_tol=args.conv_tol,
            escape_enabled=escape_on,
            escape_check_max=args.escape_budget,
            seed=seed,
        )
        runs.append(_run_one(suite, y_train, cfg, meta, args.no_timing, re_fn, nmae_fn))
    return runs


def _synthetic(args):
    """One generated instance per seed at the suite's geometry, scored by RE."""
    meta = dict(
        m=args.m, n=args.n, true_rank=args.rank, missing=args.missing, snr_db=args.snr
    )

    def instance(seed):
        spec = SynthSpec(args.m, args.n, args.rank, args.snr, args.missing, seed)
        gt = gen_synthetic(spec)
        return gt.y_obs, meta, lambda F: relative_error(F, gt.x_true, gt.test_mask), None

    return instance


def _observed_meta(y_train, true_rank):
    return dict(
        m=y_train.m,
        n=y_train.n,
        true_rank=true_rank,
        missing=1.0 - y_train.nnz / (y_train.m * y_train.n),
        snr_db=float("nan"),
    )


def _ratings(obs, args):
    """One train/test split of a ratings set per seed, scored by NMAE."""

    def instance(seed):
        ms = split(obs, args.train_frac, seed)
        nmae_fn = lambda F: nmae(F, ms.test, args.rmin, args.rmax)
        return ms.train, _observed_meta(ms.train, 0), None, nmae_fn

    return instance


def _fixture(spec, obs, truth):
    """(instance, true_rank) of a loaded fixture, scored by RE when it has truth."""
    true_rank = spec.rank if spec else 0
    meta = _observed_meta(obs, true_rank)
    re_fn = None
    if truth is not None and truth.test_mask[0].size:
        re_fn = lambda F: relative_error(F, truth.x_true, truth.test_mask)
    return (lambda seed: (obs, meta, re_fn, None)), true_rank


# ----------------------------------------------------------------------
# synth


def cmd_synth(args, parser):
    if not 0.0 <= args.missing < 1.0:
        parser.error("--missing must lie in [0, 1)")
    snr = math.inf if args.snr is None else args.snr
    spec = SynthSpec(args.m, args.n, args.rank, snr, args.missing, args.seed)
    gt = gen_synthetic(spec)
    out = args.out
    if out is None:
        name = (
            f"synth_m{args.m}_n{args.n}_r{args.rank}_snr{snr}"
            f"_miss{args.missing}_seed{args.seed}.txt"
        )
        out = os.path.join(_outdir(None), name)
    save_fixture(out, spec, gt.y_obs)
    print(
        f"wrote {out}: {args.m}x{args.n} rank {args.rank}, "
        f"{gt.y_obs.nnz} observed entries ({gt.y_obs.nnz / (args.m * args.n):.1%}), "
        f"snr {snr} dB, seed {args.seed}"
    )
    return 0


# ----------------------------------------------------------------------
# complete


def _parse_init_ranks(tokens, true_rank, parser):
    ranks = []
    for tok in tokens.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.endswith("x"):
            if true_rank < 1:
                parser.error(
                    f"init rank {tok!r} is a multiplier but the input has no known rank"
                )
            ranks.append(max(1, round(float(tok[:-1]) * true_rank)))
        else:
            ranks.append(int(tok))
    if not ranks:
        parser.error("no init ranks given")
    return ranks


def _load_input(args):
    """(instance, true_rank); a six-field first line is a fixture header."""
    with open(args.input) as fh:
        if len(fh.readline().split()) == 6:
            return _fixture(*load_fixture(args.input))
    return _ratings(parse_movielens(args.input), args), 0


def cmd_complete(args, parser):
    instance, true_rank = _load_input(args)
    escape_modes = {"on": (True,), "off": (False,), "both": (True, False)}[args.escape]
    grid = sorted(
        (ir, p, lam, esc, seed)
        for ir in _parse_init_ranks(args.init_rank, true_rank, parser)
        for p in _float_list(args.p)
        for lam in _float_list(args.lam)
        for esc in escape_modes
        for seed in range(args.seeds)
    )
    runs = _run_grid("complete", instance, grid, args)
    _write_csv(args.out, runs)
    if args.json:
        _write_json(args.json, runs)
    return _report_failures(runs)


# ----------------------------------------------------------------------
# bench: each suite runs its grid, prints its table and returns
# (runs, summary CSV lines)


def _median(xs):
    return float(np.median(np.asarray(xs)))


def _table1(args):
    ps = _float_list(args.p)
    init_ranks = [max(1, round(mult * args.rank)) for mult in TABLE1_MULTIPLIERS]
    grid = [
        (ir, p, args.lam, esc, seed)
        for ir in init_ranks
        for p in ps
        for esc in (True, False)
        for seed in range(args.seeds)
    ]
    runs = _run_grid("table1", _synthetic(args), grid, args)

    # summary axes: one row per initial-rank multiplier, one column pair
    # (median RE, median rank) per escape-mode x p combination
    rows = [row for row, _ in runs]
    combos = [(p, esc) for p in ps for esc in ("on", "off")]
    header = ["init_mult"]
    for p, esc in combos:
        header += [f"re_p{p:g}_esc_{esc}", f"rank_p{p:g}_esc_{esc}"]
    summary = [",".join(header)]
    print("init_mult  " + "  ".join(f"p={p:g}/{esc}" for p, esc in combos))
    for mult, ir in zip(TABLE1_MULTIPLIERS, init_ranks):
        cells = [str(mult)]
        shown = []
        for p, esc in combos:
            sel = [
                r
                for r in rows
                if r["init_rank"] == ir and r["p"] == p and r["escape"] == esc
            ]
            re_med = _median([r["re"] for r in sel])
            rank_med = _median([r["final_rank"] for r in sel])
            cells += [repr(re_med), repr(rank_med)]
            shown.append(f"{re_med:.4f}/r{rank_med:g}")
        summary.append(",".join(cells))
        print(f"{mult:<10} " + "  ".join(shown))
    return runs, summary


def _ptrend(args):
    ps = _float_list(args.p)
    lams = _float_list(args.lams) or list(PTREND_LAMS)  # --lams '' keeps the sweep
    ir = args.init_rank if args.init_rank else round(1.5 * args.rank)
    grid = [
        (ir, p, lam, True, seed) for p in ps for lam in lams for seed in range(args.seeds)
    ]
    runs = _run_grid("ptrend", _synthetic(args), grid, args)

    # summary: one RE column per p, each taken at that p's best lambda
    rows = [row for row, _ in runs]
    best = {}
    for p in ps:
        for lam in lams:
            sel = [r for r in rows if r["p"] == p and r["lambda"] == lam]
            re_med = _median([r["re"] for r in sel])
            if p not in best or re_med < best[p][1]:
                best[p] = (lam, re_med)
    summary = [
        "metric," + ",".join(f"p={p:g}" for p in ps),
        "re_median," + ",".join(repr(best[p][1]) for p in ps),
        "best_lambda," + ",".join(repr(best[p][0]) for p in ps),
    ]
    print("        " + "  ".join(f"p={p:<10g}" for p in ps))
    print("re      " + "  ".join(f"{best[p][1]:<12.4f}" for p in ps))
    print("lambda  " + "  ".join(f"{best[p][0]:<12g}" for p in ps))
    return runs, summary


def _movielens(args):
    p = _float_list(args.p)[0]
    grid = [
        (ir, p, args.lam, True, seed)
        for ir in MOVIELENS_INIT_RANKS
        for seed in range(args.seeds)
    ]
    runs = _run_grid("movielens", _ratings(parse_movielens(args.data), args), grid, args)

    rows = [row for row, _ in runs]
    summary = ["init_rank,nmae_median"]
    print("init_rank  median_nmae")
    for ir in MOVIELENS_INIT_RANKS:
        med = _median([r["nmae"] for r in rows if r["init_rank"] == ir])
        summary.append(f"{ir},{med!r}")
        print(f"{ir:<10} {med:.4f}")
    return runs, summary


SUITES = {"table1": _table1, "ptrend": _ptrend, "movielens": _movielens}


def cmd_bench(args, parser):
    out_dir = _outdir(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    runs, summary = SUITES[args.suite](args)
    _write_csv(os.path.join(out_dir, f"{args.suite}_runs.csv"), runs)
    with open(os.path.join(out_dir, f"{args.suite}_summary.csv"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print(f"wrote {out_dir}/{args.suite}_runs.csv and {args.suite}_summary.csv")
    return _report_failures(runs)


# ----------------------------------------------------------------------
# movielens-prep


def cmd_movielens_prep(args, parser):
    obs = parse_movielens(args.data)
    density = obs.nnz / (obs.m * obs.n)
    print(
        f"{args.data}: {obs.nnz} ratings, {obs.m} users x {obs.n} items "
        f"(density {density:.2%}), values in [{obs.val.min():g}, {obs.val.max():g}]"
    )
    if args.split_out:
        os.makedirs(args.split_out, exist_ok=True)
        ms = split(obs, args.train_frac, args.seed)
        for name, part in (("train", ms.train), ("test", ms.test)):
            path = os.path.join(args.split_out, f"{name}.txt")
            _write_fixture(path, part, 0, math.nan, math.nan, args.seed)
            print(f"wrote {path}: {part.nnz} triplets")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "complete": cmd_complete,
    "bench": cmd_bench,
    "movielens-prep": cmd_movielens_prep,
}


# ----------------------------------------------------------------------
# parser plumbing


def _read_config(path):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _parsers(parser):
    """The parser and every sub-parser below it."""
    stack = [parser]
    while stack:
        p = stack.pop()
        yield p
        for a in p._actions:
            if isinstance(a, argparse._SubParsersAction):
                stack.extend(a.choices.values())


def _apply_config(parser, config):
    """Make config values the defaults of every flag of that name.

    Values stay strings, so each sub-parser converts them with the type of
    its own flag when it parses (a key may be typed differently by two
    commands); store_true flags take 1/true/yes/on. A flag the config
    supplies is no longer required on the command line.
    """
    unknown = set(config)
    for p in _parsers(parser):
        for a in p._actions:
            if a.dest not in config or isinstance(a, argparse._SubParsersAction):
                continue
            unknown.discard(a.dest)
            raw = config[a.dest]
            if isinstance(a, argparse._StoreTrueAction):
                raw = raw.lower() in ("1", "true", "yes", "on")
            a.default = raw
            a.required = False
    if unknown:
        raise ValueError(f"unknown config key {min(unknown)!r}")


def _add_solver_flags(sp):
    sp.add_argument("--prune-thres", type=float, default=1e-5)
    sp.add_argument("--max-iter", type=int, default=1000)
    sp.add_argument("--conv-tol", type=float, default=1e-4)
    sp.add_argument("--escape-budget", type=int, default=None)
    sp.add_argument("--no-timing", action="store_true", help="write wall_ms as 0")


def _add_ratings_flags(sp):
    sp.add_argument("--train-frac", type=float, default=0.5, help="ratings: train split")
    sp.add_argument("--rmin", type=float, default=1.0)
    sp.add_argument("--rmax", type=float, default=5.0)


def _add_geometry_flags(sp, rank, missing, snr, p):
    sp.add_argument("--m", type=int, default=200)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--rank", type=int, default=rank)
    sp.add_argument("--missing", type=float, default=missing)
    sp.add_argument("--snr", type=float, default=snr)
    sp.add_argument("--p", default=p, help="comma-separated exponents")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spfact",
        description="Schatten-p variational factorization: completion runs and benchmarks",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="key = value file of flag defaults (explicit flags still win)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="write a synthetic fixture instance")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--snr", type=float, default=None, help="SNR in dB; omit for noiseless")
    sp.add_argument("--missing", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output path (default under SPFACT_OUTDIR)")

    sp = sub.add_parser("complete", help="run the solver over a parameter grid")
    sp.add_argument("--input", required=True, help="fixture file or MovieLens ratings file")
    sp.add_argument("--p", default="0.5", help="comma-separated exponents")
    sp.add_argument("--lam", default="1.0", help="comma-separated regularization weights")
    sp.add_argument(
        "--init-rank",
        default="10",
        help="comma-separated widths; '0.5x' style multiplies the known true rank",
    )
    sp.add_argument("--escape", choices=("on", "off", "both"), default="on")
    sp.add_argument("--seeds", type=int, default=1, help="number of seeds (0..N-1)")
    _add_ratings_flags(sp)
    sp.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sp.add_argument("--json", default=None, help="optional JSON mirror path")
    _add_solver_flags(sp)

    sp = sub.add_parser("bench", help="run a predefined benchmark suite")
    suites = sp.add_subparsers(dest="suite", required=True)
    # exact flag names: '--m' must not reach '--max-iter' in a suite without '--m'
    table1 = suites.add_parser("table1", allow_abbrev=False)
    _add_geometry_flags(table1, rank=10, missing=0.4, snr=10.0, p="0.5,0.3")
    table1.add_argument("--lam", type=float, default=TABLE1_LAM)
    ptrend = suites.add_parser("ptrend", allow_abbrev=False)
    _add_geometry_flags(ptrend, rank=20, missing=0.5, snr=8.0, p="0.3,0.5,0.7,1.0")
    ptrend.add_argument(
        "--lams",
        default=",".join(map(repr, PTREND_LAMS)),
        help="comma-separated lambda sweep",
    )
    ptrend.add_argument("--init-rank", type=int, default=None, help="default 1.5x rank")
    movielens = suites.add_parser("movielens", allow_abbrev=False)
    movielens.add_argument("--data", required=True, help="ratings file path")
    movielens.add_argument("--p", default="0.5", help="exponent")
    movielens.add_argument("--lam", type=float, default=MOVIELENS_LAM)
    _add_ratings_flags(movielens)
    for suite in (table1, ptrend, movielens):
        suite.add_argument("--seeds", type=int, default=5)
        suite.add_argument("--out-dir", default=None)
        _add_solver_flags(suite)

    sp = sub.add_parser(
        "movielens-prep", help="validate and optionally split a ratings file"
    )
    sp.add_argument("--data", required=True)
    sp.add_argument("--train-frac", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--split-out", default=None, help="directory for train/test files")

    return parser


def parse_args(argv=None):
    """Returns (parser, args), with --config values as flag defaults."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    config_path = pre.parse_known_args(argv)[0].config
    parser = build_parser()
    if config_path:
        try:
            _apply_config(parser, _read_config(config_path))
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
    return parser, parser.parse_args(argv)


def main(argv=None):
    parser, args = parse_args(argv)
    try:
        return COMMANDS[args.command](args, parser)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - top-level CLI failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
