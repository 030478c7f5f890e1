"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer, patched
from workloads import WORKLOADS, check_solve, same_result

spfact = run.import_spfact()

# Small stand-ins for each workload: the same code path in well under a second.
SMALL = {
    "table1": dict(spec=dict(m=40, n=40, rank=3, snr_db=20.0, missing_rate=0.4), lam=10.0, init_width=2),
    "sparse_large": dict(spec=dict(m=300, n=200, rank=3, snr_db=10.0, missing_rate=0.95), lam=5.0, init_width=5),
    "escape_sparse": dict(spec=dict(m=150, n=100, rank=3, snr_db=20.0, missing_rate=0.7), lam=10.0, init_width=3),
}


def small(name):
    wl, s = WORKLOADS[name], SMALL[name]
    solver = dict(wl.solver, lam=s["lam"], init_width=s["init_width"])
    return dataclasses.replace(wl, spec=s["spec"], solver=solver)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    assert [s.parent for s in tr.spans] == [-1, 0, 0]
    summary = tr.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_patched_wraps_every_binding_and_restores():
    toy = types.ModuleType("toy")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return 2 * g(x)\n", vars(toy))
    other = types.ModuleType("other")
    other.g = orig = toy.g
    seen = []
    tr = Tracer()
    with patched(tr, [(toy, "g", "toy.g", lambda a, r: seen.append((a, r)))], [toy, other]):
        with tr.span("toy.f"):
            assert toy.f(1) == 4
        assert other.g(2) == 3
    assert toy.g is orig and other.g is orig
    assert seen == [((1,), 2), ((2,), 3)]
    assert [(s.name, s.parent) for s in tr.spans] == [("toy.f", -1), ("toy.g", 0), ("toy.g", -1)]


def test_check_solve_flags_a_rising_objective():
    wl = WORKLOADS["table1"]
    F = spfact.Factors(np.ones((3, 1)), np.ones((2, 1)))
    report = types.SimpleNamespace(
        objective_trace=np.array([3.0, 2.0, 2.5, 1.0, 1.5]),
        escape_events=[types.SimpleNamespace(trace_index=4)],
        converged=True,
        final_width=wl.spec["rank"],
        iters=3,
    )
    bad = check_solve(wl, F, report, rel_error=lambda F: 1.0)
    assert any("rises" in b for b in bad)
    assert any("escape entry 4" in b for b in bad)
    assert any("relative error" in b for b in bad)


def test_same_result_detects_a_changed_factor():
    F = spfact.Factors(np.ones((3, 1)), np.ones((2, 1)))
    G = spfact.Factors(np.ones((3, 1)), np.array([[1.0], [1.0 + 1e-15]]))
    report = types.SimpleNamespace(objective_trace=np.array([1.0]))
    assert same_result((F, report), (F, report))
    assert not same_result((F, report), (G, report))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_measure(name):
    tally, metrics, units, detail = run.measure(spfact, small(name), seed=3, seconds=0)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == 1 + WORKLOADS[name].starts
    assert set(metrics) == set(units) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert detail["starts"][0]["seed"] == 3 * WORKLOADS[name].starts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_trace_is_bit_identical_to_untraced(name):
    # trace() checks every traced solve against the untraced reference solve
    # and fails the run when they differ or when self times do not add up.
    tally, metrics, units, _ = run.trace(spfact, small(name), seed=0, seconds=0)
    assert tally.failed == 0, tally.reasons
    assert set(metrics) == set(units)
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["solver.solve.total_s"], rel=1e-9)
    # bsum_step makes two grad calls per sweep, each with one masked_residual.
    assert metrics["solver.bsum_step.calls"] == metrics["solver.iters"]
    assert metrics["observed.masked_residual.calls"] >= 2 * metrics["solver.iters"]
    assert metrics["datasets.gen_synthetic.calls"] == 1
    escapes = WORKLOADS[name].solver.get("escape_enabled", True)
    assert (metrics["escape.attempt.calls"] > 0) == escapes


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
