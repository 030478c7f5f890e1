"""Span tracing of spfact's layers from outside the program.

A Tracer records one span per call: name, start, end and the index of the
span that was open when the call began. A layer's self time is its span's
duration minus the durations of its child spans; calls run on one thread,
so children never overlap and their durations add up to the covered part.

`patched` installs tracing wrappers for the duration of a `with` block.
`solve` looks its callees up in its own module globals (and the escape
module in its own), so every module namespace that binds a traced function
is patched, never the `spfact.*` re-exports, which `solve` never calls.
"""

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top


class Tracer:
    """In-memory span recorder; `summary` reduces spans per name."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._open = []
        self._clock = clock

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self._clock(), float("nan"), parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self._clock()

    def wrap(self, fn, name, on_return=None):
        """`fn` recorded as span `name`; `on_return(args, result)` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} summed over all spans."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
        out = {}
        for s, c in zip(self.spans, child_s):
            e = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            e["calls"] += 1
            e["total_s"] += s.end - s.start
            e["self_s"] += s.end - s.start - c
        return out


@contextmanager
def patched(tracer, targets, modules):
    """Wrap each target in every binding of it found in `modules`.

    A target is (owner, attr, span name, on_return). When `owner` is a class
    the class attribute is wrapped; when it is a module, every module in
    `modules` whose namespace binds the same object is patched too. The
    original objects are restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, on_return in targets:
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(orig, name, on_return)
            owners = [owner]
            if not isinstance(owner, type):
                owners = [m for m in modules if any(v is orig for v in vars(m).values())]
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is orig:
                        saved.append((o, key, orig))
                        setattr(o, key, wrapper)
        yield tracer
    finally:
        for o, key, orig in reversed(saved):
            setattr(o, key, orig)


class LayerCounters:
    """Counts taken at layer boundaries; bytes are computed from array sizes."""

    def __init__(self):
        self.predicted_bytes = 0
        self.embed_bytes = 0
        self.attempts = 0
        self.accepted = 0
        self.rip_gap = 0
        self.unconverged = 0

    def on_predicted_values(self, args, _result):
        Y, F = args
        self.predicted_bytes += 2 * Y.nnz * F.width * 8  # gathered rows of U and V

    def on_adjoint_embed(self, args, _result):
        (R,) = args
        self.embed_bytes += R.m * R.n * 8

    def on_attempt(self, _args, result):
        _, dec = result
        self.attempts += 1
        self.accepted += bool(dec.accepted)
        self.rip_gap += bool(dec.rip_gap)

    def on_top_singular_pair(self, _args, triple):
        self.unconverged += not triple.converged


def spfact_targets(counters):
    """Patch targets for the layers on the solve path.

    `solver.solve` is not patched: the benchmark opens that span around its
    own call. `norms.Factors` times `__post_init__`, the copy and validation
    every construction runs.
    """
    from spfact import datasets, escape, norms, observed, solver, spectral

    return [
        (solver, "bsum_step", "solver.bsum_step", None),
        (solver, "grad_U", "solver.grad_U", None),
        (solver, "grad_V", "solver.grad_V", None),
        (solver, "surrogate_hessian_U", "solver.surrogate_hessian_U", None),
        (solver, "surrogate_hessian_V", "solver.surrogate_hessian_V", None),
        (solver, "prune", "solver.prune", None),
        (solver, "objective", "solver.objective", None),
        (norms.Factors, "__post_init__", "norms.Factors", None),
        (norms, "column_energies", "norms.column_energies", None),
        (observed, "predicted_values", "observed.predicted_values", counters.on_predicted_values),
        (observed, "masked_residual", "observed.masked_residual", None),
        (observed, "loss_value", "observed.loss_value", None),
        (observed.ObservedMatrix, "to_csr", "observed.to_csr", None),
        (observed, "adjoint_embed", "observed.adjoint_embed", counters.on_adjoint_embed),
        (escape, "attempt", "escape.attempt", counters.on_attempt),
        (spectral, "top_singular_pair", "spectral.top_singular_pair", counters.on_top_singular_pair),
        (datasets, "gen_synthetic", "datasets.gen_synthetic", None),
    ]


def layer_spans():
    """Span names reported per layer: the solve itself, then every target."""
    return ["solver.solve"] + [name for _, _, name, _ in spfact_targets(LayerCounters())]


def spfact_modules():
    """The spfact submodules whose namespaces may bind a traced function."""
    return [m for name, m in sys.modules.items() if name.startswith("spfact.")]
