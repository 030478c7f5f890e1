"""spfact solve benchmark: seeded workloads through the public `solve`.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 25 --trace 0

With --trace 0 it prints the end-to-end metrics, measured with tracing off;
with --trace 1 the per-layer metrics of a traced run. One caller solves in a
closed loop in this process, with BLAS pinned to one thread. Every solve's
output is checked (workloads.check_solve) and repeat solves must be
bit-identical. The last stdout line is the result JSON; the line before it
records the environment and per-start details.
"""

import os

# One BLAS thread, set through this process's own environment before numpy
# is imported anywhere in it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LayerCounters, Tracer, layer_spans, patched, spfact_modules, spfact_targets  # noqa: E402
from workloads import INSTANCE_SEED, WORKLOADS, check_solve, same_result  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import spfact; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "solve_s": "s",
    "sweeps_per_s": "1/s",
    "iters": "count",
    "rel_error": "ratio",
    "objective": "value",
    "solve_peak_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


def per_layer_units():
    units = {}
    for name in layer_spans():
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.total_s": "s"})
    units.update(
        {
            "observed.predicted_values.computed_bytes": "B",
            "observed.adjoint_embed.computed_bytes": "B",
            "escape.accepted": "count",
            "escape.accept_ratio": "ratio",
            "escape.rip_gap": "count",
            "spectral.unconverged": "count",
            "solver.iters": "count",
            "trace.self_sum_s": "s",
            "trace.overhead_s": "s",
            "run.warmup_s": "s",
        }
    )
    return units


def import_spfact():
    sys.path.insert(0, str(SRC))
    try:
        import spfact
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import spfact from {SRC}: {exc}") from None
    if not Path(spfact.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: spfact was imported from {spfact.__file__}, not {SRC}")
    return spfact


def import_seconds():
    """Fresh-interpreter import times of spfact, one per setup sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        out.append(float(proc.stdout))
    return out


def generate(spfact, wl, times):
    """The workload's instance, generated `times` times; returns it and the timings."""
    spec = spfact.SynthSpec(seed=INSTANCE_SEED, **wl.spec)
    secs = []
    for _ in range(times):
        t0 = time.perf_counter()
        truth = spfact.datasets.gen_synthetic(spec)
        secs.append(time.perf_counter() - t0)
    return truth, secs


class Tally:
    """Solves attempted and failed; a failure is a raise or a failed check."""

    def __init__(self, spfact, wl, truth):
        self.wl = wl
        self.rel_error = lambda F: spfact.relative_error(F, truth.x_true, truth.test_mask)
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def solve(self, solve, Y, cfg, ref=None):
        """(Factors, report, seconds), or None when the solve failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            F, report = solve(Y, cfg)
        except Exception:  # a raising solve is counted, and the run goes on
            self.fail(f"seed {cfg.seed}: {traceback.format_exc()}")
            return None
        secs = time.perf_counter() - t0
        bad = check_solve(self.wl, F, report, self.rel_error)
        if ref is not None and not same_result(ref, (F, report)):
            bad.append("repeat solve is not bit-identical to the first")
        if bad:
            self.fail(f"seed {cfg.seed}: " + "; ".join(bad))
            return None
        return F, report, secs

    def fail(self, reason):
        self.failed += 1
        self.reasons.append(reason)
        print(f"perfbench: solve failed: {reason}", file=sys.stderr)


def measure(spfact, wl, seed, seconds):
    """End-to-end metrics with tracing off."""
    imports = import_seconds()
    truth, gens = generate(spfact, wl, SETUP_SAMPLES)
    Y = truth.y_obs
    cfgs = [spfact.SolverConfig(seed=s, **wl.solver) for s in wl.start_seeds(seed)]
    solve = spfact.solver.solve
    tally = Tally(spfact, wl, truth)

    # The first solve in a process runs slower than later ones (about 1.5x on
    # table1), so the untimed tracemalloc solve doubles as the warm-up. Only
    # the solve itself is traced, not the output checks that follow it.
    first_solve = {}

    def solve_tracing_memory(Y, cfg):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return solve(Y, cfg)
        finally:
            first_solve["s"] = time.perf_counter() - t0
            first_solve["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    warm = tally.solve(solve_tracing_memory, Y, cfgs[0])
    firsts = [warm[:2] if warm else None] + [None] * (len(cfgs) - 1)
    times = [[] for _ in cfgs]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cfgs) or time.perf_counter() < deadline:
        k = i % len(cfgs)
        i += 1
        got = tally.solve(solve, Y, cfgs[k], firsts[k])
        if got is not None:
            firsts[k] = firsts[k] or got[:2]
            times[k].append(got[2])

    done = [k for k in range(len(cfgs)) if times[k]]
    if not done:
        raise SystemExit("perfbench: every timed solve failed")
    medians = [statistics.median(times[k]) for k in done]
    iters = [firsts[k][1].iters for k in done]
    metrics = {
        "solve_s": statistics.fmean(medians),
        "sweeps_per_s": sum(iters) / sum(medians),
        "iters": statistics.fmean(iters),
        "rel_error": statistics.fmean(tally.rel_error(firsts[k][0]) for k in done),
        "objective": statistics.fmean(float(firsts[k][1].objective_trace[-1]) for k in done),
        "solve_peak_mb": first_solve["peak_bytes"] / 1e6,
        "setup_s": statistics.median(imports) + statistics.median(gens),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    detail = {
        "warmup_s": first_solve["s"],
        "import_s": imports,
        "gen_s": gens,
        "failed_frac": tally.failed / tally.attempted,
        "starts": [
            {
                "seed": cfgs[k].seed,
                "solves": len(times[k]),
                "median_s": statistics.median(times[k]),
                "iters": firsts[k][1].iters,
                "final_width": firsts[k][1].final_width,
                "escapes": firsts[k][1].escapes,
                "converged": firsts[k][1].converged,
            }
            for k in done
        ],
    }
    return tally, metrics, END_TO_END_UNITS, detail


def trace(spfact, wl, seed, seconds):
    """Per-layer metrics: untraced and traced solves of the first start, alternated."""
    gen_tracer = Tracer()
    with patched(gen_tracer, spfact_targets(LayerCounters()), spfact_modules()):
        truth, _ = generate(spfact, wl, 1)
    Y = truth.y_obs
    cfg = spfact.SolverConfig(seed=wl.start_seeds(seed)[0], **wl.solver)
    solve = spfact.solver.solve
    tally = Tally(spfact, wl, truth)

    t0 = time.perf_counter()
    ref = tally.solve(solve, Y, cfg)
    warmup_s = time.perf_counter() - t0
    if ref is None:
        raise SystemExit("perfbench: the untraced reference solve failed")
    ref = ref[:2]

    plain, runs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        got = tally.solve(solve, Y, cfg, ref)
        if got is not None:
            plain.append(got[2])
        tracer, counters = Tracer(), LayerCounters()
        with patched(tracer, spfact_targets(counters), spfact_modules()):
            # tally.solve checks the traced result against the untraced `ref`.
            got = tally.solve(tracer.wrap(solve, "solver.solve"), Y, cfg, ref)
        if got is not None:
            runs.append((tracer.summary(), counters))
        if time.perf_counter() >= deadline:
            break
    if not (plain and runs):
        raise SystemExit("perfbench: no traced and untraced solve pair succeeded")

    summaries = [s for s, _ in runs]
    metrics = {}
    for name in layer_spans():
        if name == "datasets.gen_synthetic":
            per_solve = [gen_tracer.summary()[name]]
        else:
            per_solve = [s.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}) for s in summaries]
        if len({e["calls"] for e in per_solve}) > 1:
            tally.fail(f"{name} call count differs between traced solves")
        metrics[f"{name}.calls"] = per_solve[0]["calls"]
        for key in ("self_s", "total_s"):
            metrics[f"{name}.{key}"] = statistics.median(e[key] for e in per_solve)
    self_sums = [sum(e["self_s"] for e in s.values()) for s in summaries]
    for s, self_sum in zip(summaries, self_sums):
        root = s["solver.solve"]["total_s"]
        if abs(self_sum - root) > 1e-9 * root:
            tally.fail(f"self times add up to {self_sum} s, the traced solve took {root} s")

    counters = runs[0][1]
    pv_calls = metrics["observed.predicted_values.calls"]
    embed_calls = metrics["observed.adjoint_embed.calls"]
    metrics.update(
        {
            "observed.predicted_values.computed_bytes": counters.predicted_bytes / pv_calls if pv_calls else 0,
            "observed.adjoint_embed.computed_bytes": counters.embed_bytes / embed_calls if embed_calls else 0,
            "escape.accepted": counters.accepted,
            "escape.accept_ratio": counters.accepted / counters.attempts if counters.attempts else 0.0,
            "escape.rip_gap": counters.rip_gap,
            "spectral.unconverged": counters.unconverged,
            "solver.iters": ref[1].iters,
            "trace.self_sum_s": statistics.median(self_sums),
            "trace.overhead_s": metrics["solver.solve.total_s"] - statistics.median(plain),
            "run.warmup_s": warmup_s,
        }
    )
    detail = {"traced_solves": len(runs), "untraced_solves": len(plain), "start_seed": cfg.seed}
    return tally, metrics, per_layer_units(), detail


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "process_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")

    spfact = import_spfact()
    wl = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    tally, values, units, detail = run(spfact, wl, args.seed, args.seconds)
    env = dict(environment(), workload=wl.name, seed=args.seed, instance_seed=INSTANCE_SEED, trace=args.trace)
    print(json.dumps({"env": env, "detail": dict(detail, failures=tally.reasons[:5])}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
