"""Outside-in span recorder for the lqnash layers.

Spans are recorded by rebinding the layer functions' names in the modules
that call them (``lqnash.cli``, ``lqnash.solver``, ``lqnash.evaluate`` and
``lqnash.model``), so nothing under ``src/`` knows it is traced.  Every
module that holds a given function gets the same wrapper, so a call is
recorded once whichever module makes it: ``exact_ne`` called from
``delta_augment_solve`` and ``rollout`` called from ``simulate`` are both
caught.

Spans carry name, start, end, parent and iteration id.  They stay in memory
until :meth:`Tracer.dump` writes them once at the end of a run.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    iteration: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span stack; single-threaded, like the program it traces."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = -1
        self._stack: list[int] = []

    def call(self, name, fn, counter, /, *args, **kwargs):
        """Run ``fn`` inside a span; ``counter(args, kwargs, result)`` adds counts."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.iteration)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, *args, **kwargs)

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def summarize(spans: list[Span], first: int, last: int | None = None) -> dict[str, dict[str, float]]:
    """Per span name over ``spans[first:last]``: total time ``s``, ``self_s``
    (time not covered by wrapped children), ``calls`` and summed counts."""
    last = len(spans) if last is None else last
    child_time: dict[int, float] = defaultdict(float)
    for span in spans[first:last]:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for index in range(first, last):
        span = spans[index]
        row = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = span.end - span.start
        row["s"] += duration
        row["self_s"] += duration - child_time[index]
        row["calls"] += 1
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return out


# Counters computed from arguments and results; all are exact integers.

def _inner_iters(args, kwargs, report):
    return {"inner_iters": sum(len(stage) for stage in report.trace)}


def _spec_text_in(args, kwargs, result):
    return {"spec_bytes": len(args[0])}


def _spec_text_out(args, kwargs, result):
    return {"spec_bytes": len(result)}


def _rollout_work(args, kwargs, result):
    """Flops and compulsory bytes of the numpy rollout kernel, computed from
    array sizes: a matrix-vector product or quadratic form of size a x b
    counts 2ab, vector adds count one per element."""
    A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas = args[:11]
    n_traj, m = x0s.shape
    T, N, p = A.shape[0], B.shape[0], K.shape[2]
    per_agent = 4 * m * p + 4 * p * p + 2 * m * m + 2 * m + m + 7 * p + 5
    flops = n_traj * (T * (2 * m * m + m + N * per_agent) + N * (2 * m * m + 2 * m))
    arrays = (A, B, Q, R, K, L, logdets, x0s, xis, omegas) + tuple(result)
    return {"flops": int(flops), "bytes": int(sum(a.size * a.itemsize for a in arrays))}


def layer_table() -> dict[str, tuple[object, object]]:
    """Span name -> (function, counter) for the public layer functions."""
    from lqnash import _rollout, control, evaluate, model, solver

    return {
        "model.load_game_spec": (model.load_game_spec, _spec_text_in),
        "model.dump_game_spec": (model.dump_game_spec, _spec_text_out),
        "model.validate_game_spec": (model.validate_game_spec, None),
        "model.random_game": (model.random_game, None),
        "model.load_joint_policy": (model.load_joint_policy, None),
        "model.dump_joint_policy": (model.dump_joint_policy, None),
        "solver.exact_ne": (solver.exact_ne, None),
        "solver.po_solve": (solver.po_solve, _inner_iters),
        "solver.check_assumption_tau": (solver.check_assumption_tau, None),
        "solver.delta_augment_solve": (solver.delta_augment_solve, None),
        "evaluate.value_certificate": (evaluate.value_certificate, None),
        "evaluate.exploitability": (evaluate.exploitability, None),
        "evaluate.policy_distance": (evaluate.policy_distance, None),
        "evaluate.simulate": (evaluate.simulate, None),
        "control.best_response_full": (control.best_response_full, None),
        "rollout.rollout": (_rollout.rollout, _rollout_work),
    }


def install(tracer: Tracer):
    """Rebind every layer function in the calling modules; returns an undo."""
    from lqnash import cli, evaluate, model, solver

    wrappers = {}
    for name, (fn, counter) in layer_table().items():
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn, counter))
    undo = []
    for module in (cli, solver, evaluate, model):
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])

    def restore() -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore
