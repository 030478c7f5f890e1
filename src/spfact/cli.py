"""Command-line front end: synthetic instances, completion runs, benchmarks.

Subcommands
    synth           write a synthetic instance to the fixture text format
    complete        run the solver over a (p, lambda, init-rank, seed) grid
    bench           predefined seeded suites: table1, ptrend, movielens
    movielens-prep  validate/summarize a ratings file, optionally split it

complete and each suite name only the axes of their grid; _run_grid
checks every cell (a rejected value is a usage error, exit 2), makes the
outputs and only then runs the cells, seeds innermost, on one instance
per seed built once.
complete sorts each axis, the suites keep flag order. Runs are emitted as
CSV with a fixed column order (see CSV_COLUMNS), one row per cell, plus a
JSON mirror (complete --json; bench always) that also carries each run's
stop reason and error. bench also writes its summary CSV and prints it.
Output is deterministic for fixed inputs and seeds; wall_ms is the one
exception unless --no-timing zeroes it.

A 'key = value' config file (--config) supplies flag defaults; explicit
flags win. The SPFACT_OUTDIR environment variable sets the default
output directory.
"""

import argparse
import functools
import itertools
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

# The solve columns of a run that raised, in row order
FAILED_RUN = dict(
    iters=0, escapes=0, final_rank=0, objective=math.nan, re=math.nan, nmae=math.nan,
    stop_reason="", converged=False,
)


def _outdir(value):
    return value if value is not None else os.environ.get("SPFACT_OUTDIR", ".")


def _float_list(text):
    # argparse type of a comma list: its values, each once, in
    # first-occurrence order; a list with no value is a usage error
    values = list(dict.fromkeys(float(t) for t in text.split(",") if t))
    if not values:
        raise argparse.ArgumentTypeError("no values given")
    return values


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
    with open(path, "w") as fh:
        json.dump([dict(row, error=err) for row, err in runs], fh, indent=2)
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


def _checked(parser, make, *args):
    """make(*args), with a ValueError it raises reported as a usage error."""
    try:
        return make(*args)
    except ValueError as exc:
        parser.error(str(exc))


def _run_one(suite, cfg, inst, args):
    """Solve cfg on inst, its seed's built instance, into a full RunRecord row.

    The row starts from FAILED_RUN; a run that solves and scores overwrites
    each value. RE is taken over truth's held-out entries, NMAE over the
    test ratings on the [rmin, rmax] scale; with nothing to score it is NaN.
    """
    y_train, meta, truth, test = inst
    escape = "on" if cfg.escape_enabled else "off"
    row = dict(meta, suite=suite, p=cfg.p, init_rank=cfg.init_width, escape=escape)
    row.update({"seed": cfg.seed, "lambda": cfg.lam}, **FAILED_RUN)
    t0 = time.perf_counter()
    error = ""
    try:
        F, report = solve(y_train, cfg)
        row.update(
            iters=report.iters,
            escapes=report.escapes,
            final_rank=report.final_width,
            objective=float(report.objective_trace[-1]),
            re=relative_error(F, truth.x_true, truth.test_mask) if truth else math.nan,
            nmae=nmae(F, test, args.rmin, args.rmax) if test else math.nan,
            stop_reason=report.stop_reason,
            converged=bool(report.converged),
        )
    except Exception as exc:  # noqa: BLE001 - finish the remaining runs
        error = f"{type(exc).__name__}: {exc}"
    row["wall_ms"] = 0.0 if args.no_timing else (time.perf_counter() - t0) * 1000.0
    return row, error


def _run_grid(args, parser, out_dir, paths, suite, instance, init_ranks, ps, lams, escapes):
    """Solve each (init_rank, p, lam, escape_on, seed) cell of the axes'
    product, seeds innermost; instance(seed) returns (y_train, meta, truth,
    test). Every cell's SolverConfig and seed 0's instance are built, a
    value either rejects being a usage error (exit 2), and out_dir and an
    empty file at each path (None skipped) made before the first solve.
    Each later seed's instance is built after the previous one is released.
    """
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    configs = []
    seeds = range(args.seeds)
    for ir, p, lam, esc, seed in itertools.product(init_ranks, ps, lams, escapes, seeds):
        kw = dict(
            p=p, lam=lam, init_width=ir, escape_enabled=esc, seed=seed,
            prune_thres=args.prune_thres, max_iter=args.max_iter, conv_tol=args.conv_tol,
            escape_check_max=args.escape_budget,
        )
        try:
            configs.append(SolverConfig(**kw))
        except ValueError as exc:
            parser.error(f"{exc} (" + ", ".join(f"{k}={v}" for k, v in kw.items()) + ")")
    inst = _checked(parser, instance, 0)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for path in filter(None, paths):
        open(path, "w").close()
    runs = [None] * len(configs)
    for seed in seeds:
        if seed:
            inst = _checked(parser, instance, seed)
        # seeds innermost: this seed's cells are every args.seeds-th from index seed
        cells = slice(seed, None, args.seeds)
        runs[cells] = [_run_one(suite, cfg, inst, args) for cfg in configs[cells]]
        del inst  # one instance alive at a time: the next build may be large
    return runs


def _synthetic(args):
    """One generated instance per seed at the suite's geometry, scored by RE."""
    meta = dict(
        m=args.m, n=args.n, true_rank=args.rank, missing=args.missing, snr_db=args.snr
    )

    def instance(seed):
        gt = gen_synthetic(SynthSpec(args.m, args.n, args.rank, args.snr, args.missing, seed))
        return gt.y_obs, meta, gt, None

    return instance


def _observed_meta(y, true_rank):
    missing = 1.0 - y.nnz / (y.m * y.n)
    return dict(m=y.m, n=y.n, true_rank=true_rank, missing=missing, snr_db=math.nan)


def _ratings(obs, args):
    """One train/test split of a ratings set per seed, scored by NMAE."""

    def instance(seed):
        if args.rmax <= args.rmin:
            raise ValueError(f"--rmax ({args.rmax}) must exceed --rmin ({args.rmin})")
        ms = split(obs, args.train_frac, seed)
        return ms.train, _observed_meta(ms.train, 0), None, ms.test

    return instance


def _fixture(spec, obs, truth):
    """(instance, true_rank) of a loaded fixture, scored by RE when it has truth."""
    true_rank = spec.rank if spec else 0
    if truth is not None and not truth.test_mask.any():
        truth = None  # fully observed: no held-out entries to score
    inst = (obs, _observed_meta(obs, true_rank), truth, None)
    return (lambda seed: inst), true_rank


def _init_width(mult, rank):
    # the one init-width rule: --init-rank Nx, table1's rows, ptrend's default
    return max(1, round(mult * rank))


# ----------------------------------------------------------------------
# synth


def cmd_synth(args, parser):
    snr = math.inf if args.snr is None else args.snr
    spec = _checked(parser, SynthSpec, args.m, args.n, args.rank, snr, args.missing, args.seed)
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


def _parse_init_ranks(text, true_rank, parser):
    """The widths of --init-rank, sorted, each once; 'Nx' is N x the true rank."""
    ranks = set()
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            if not tok.endswith("x"):
                ranks.add(int(tok))
                continue
            mult = float(tok[:-1])
        except ValueError:
            parser.error(f"init rank {tok!r} is neither a width nor a multiplier like '0.5x'")
        if true_rank < 1:
            parser.error(f"init rank {tok!r} is a multiplier but the input has no known rank")
        if not 0 < mult < math.inf:
            parser.error(f"init rank {tok!r}: a multiplier must be positive and finite")
        ranks.add(_init_width(mult, true_rank))
    if not ranks:
        parser.error("no init ranks given")
    return sorted(ranks)


def _load_input(args):
    """(instance, true_rank); a six-field first line is a fixture header."""
    with open(args.input) as fh:
        if len(fh.readline().split()) == 6:
            return _fixture(*load_fixture(args.input))
    return _ratings(parse_movielens(args.input), args), 0


def cmd_complete(args, parser):
    instance, true_rank = _load_input(args)
    init_ranks = _parse_init_ranks(args.init_rank, true_rank, parser)
    escapes = {"on": (True,), "off": (False,), "both": (False, True)}[args.escape]
    runs = _run_grid(
        args, parser, None, [args.out, args.json],
        "complete", instance, init_ranks, sorted(args.p), sorted(args.lam), escapes,
    )
    _write_csv(args.out, runs)
    if args.json:
        _write_json(args.json, runs)
    return _report_failures(runs)


# ----------------------------------------------------------------------
# bench: each suite runs its grid through grid(instance, init_ranks, ps, lams,
# escapes) and returns (runs, summary CSV lines)


def _median(runs, field, **match):
    """Median of field over the rows of runs that match every key=value."""
    rows = [row for row, _ in runs if all(row[k] == v for k, v in match.items())]
    return float(np.median([row[field] for row in rows]))


def _table1(args, grid):
    init_ranks = [_init_width(mult, args.rank) for mult in TABLE1_MULTIPLIERS]
    runs = grid(_synthetic(args), init_ranks, args.p, (args.lam,), (True, False))

    # summary axes: one row per initial-rank multiplier, one column pair
    # (median RE, median rank) per escape-mode x p combination
    combos = [(p, esc) for p in args.p for esc in ("on", "off")]
    header = [f"re_p{p:g}_esc_{esc},rank_p{p:g}_esc_{esc}" for p, esc in combos]
    summary = [",".join(["init_mult"] + header)]
    for mult, ir in zip(TABLE1_MULTIPLIERS, init_ranks):
        cells = [str(mult)]
        for p, esc in combos:
            for field in ("re", "final_rank"):
                cells.append(repr(_median(runs, field, init_rank=ir, p=p, escape=esc)))
        summary.append(",".join(cells))
    return runs, summary


def _ptrend(args, grid):
    ps, lams = args.p, args.lams
    ir = _init_width(1.5, args.rank) if args.init_rank is None else args.init_rank
    runs = grid(_synthetic(args), (ir,), ps, lams, (True,))

    # summary: one RE column per p, each taken at that p's best lambda; min
    # keeps the first lambda on ties, and a NaN median wins only when first
    re_med = {
        (p, lam): _median(runs, "re", p=p, **{"lambda": lam}) for p in ps for lam in lams
    }
    best = {p: min(lams, key=lambda lam: re_med[p, lam]) for p in ps}
    summary = [
        "metric," + ",".join(f"p={p:g}" for p in ps),
        "re_median," + ",".join(repr(re_med[p, best[p]]) for p in ps),
        "best_lambda," + ",".join(repr(best[p]) for p in ps),
    ]
    return runs, summary


def _movielens(args, grid):
    instance = _ratings(parse_movielens(args.data), args)
    runs = grid(instance, MOVIELENS_INIT_RANKS, (args.p,), (args.lam,), (True,))
    summary = ["init_rank,nmae_median"] + [
        f"{ir},{_median(runs, 'nmae', init_rank=ir)!r}" for ir in MOVIELENS_INIT_RANKS
    ]
    return runs, summary


SUITES = {"table1": _table1, "ptrend": _ptrend, "movielens": _movielens}


def cmd_bench(args, parser):
    out_dir = _outdir(args.out_dir)
    names = ("runs.csv", "runs.json", "summary.csv")
    paths = [os.path.join(out_dir, f"{args.suite}_{name}") for name in names]
    grid = functools.partial(_run_grid, args, parser, out_dir, paths, args.suite)
    runs, summary = SUITES[args.suite](args, grid)
    _write_csv(paths[0], runs)
    _write_json(paths[1], runs)
    text = "\n".join(summary) + "\n"
    with open(paths[2], "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
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
        ms = _checked(parser, split, obs, args.train_frac, args.seed)
        os.makedirs(args.split_out, exist_ok=True)
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
    sp.add_argument("--p", type=_float_list, default=p, help="comma-separated exponents")


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
    sp.add_argument("--p", type=_float_list, default="0.5", help="comma-separated exponents")
    sp.add_argument(
        "--lam", type=_float_list, default="1.0", help="comma-separated regularization weights"
    )
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
        type=_float_list,
        default=",".join(map(repr, PTREND_LAMS)),
        help="comma-separated lambda sweep",
    )
    ptrend.add_argument("--init-rank", type=int, default=None, help="default 1.5x rank")
    movielens = suites.add_parser("movielens", allow_abbrev=False)
    movielens.add_argument("--data", required=True, help="ratings file path")
    movielens.add_argument("--p", type=float, default=0.5, help="exponent")
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
    except Exception as exc:  # noqa: BLE001 - top-level CLI failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
