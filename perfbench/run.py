"""Layered benchmark for lqnash: end-to-end timings untraced, per-layer spans traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, recorded by wrapping the layer
functions from outside ``src/`` (see ``tracing.py``).  Before the last line,
stdout carries one ``{"env": ...}`` line and one ``{"detail": ...}`` line
with per-operation medians, sample counts and failures.  The last line is
``{"correct", "attempted", "failed", "metrics"}``.

Outputs, spans and the per-seed record of digests and counts live under
``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread (of ``nproc``) keeps the tiny
# matrix products free of thread start-up and scheduling noise.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_WARM, SETUP_REPEATS = 2, 7

# A fresh interpreter: import the CLI module, then the workload's one-time
# preparation (nothing for the CLI workloads); then the machine-speed probe.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import lqnash.cli
import workloads
workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4]))
setup = time.perf_counter() - start
import speed
print(setup, speed.probe())
"""


def load_program() -> None:
    """Import lqnash from this checkout's ``src/``; exit nonzero if it is absent."""
    if not (SRC / "lqnash" / "cli.py").is_file():
        sys.exit(f"error: no lqnash package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import lqnash

    if Path(lqnash.__file__).resolve().parent != SRC / "lqnash":
        sys.exit(f"error: imported lqnash from {lqnash.__file__}, not from {SRC}")


def environment(args) -> dict:
    import numpy as np
    from lqnash import _rollout

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "LQNASH_BACKEND": os.environ.get(_rollout.ENV_VAR),
        "rollout_backend": _rollout.active_backend(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, probe time) in fresh interpreters; the unmeasured first
    ones fill the bytecode and file caches."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)]
    samples = []
    for repeat in range(SETUP_WARM + SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        if repeat >= SETUP_WARM:
            setup, probe = map(float, proc.stdout.split()[-2:])
            samples.append((setup, probe))
    return samples


def run_iteration(workload, runner, work: Path, iterations: list[dict], tracer=None) -> int:
    """One whole iteration, traced when ``tracer`` is given; returns its index."""
    index = len(iterations)
    runner.ops, runner.iteration, runner.tracer = {}, index, tracer
    if tracer is None:
        workload.iteration(runner, work)
    else:
        tracer.iteration = index
        restore = tracing.install(tracer)
        try:
            workload.iteration(runner, work)
        finally:
            restore()
    iterations.append(runner.ops)
    return index


def check_consistency(runner, iterations: list[dict], record_path: Path) -> None:
    """Outputs and exact counts of each operation must repeat in every
    iteration and in every earlier run of the same workload and seed."""
    reference: dict[str, dict] = {}
    for index, ops in enumerate(iterations):
        for name, op in ops.items():
            ref = reference.setdefault(name, {"digest": op["digest"], "counts": {}})
            _compare(runner, index, name, ref, op)
            for key, value in op["counts"].items():
                ref["counts"].setdefault(key, value)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    for name, ref in reference.items():
        if name in record:
            _compare(runner, 0, name, record[name], ref)
        merged = record.setdefault(name, {"digest": ref["digest"], "counts": {}})
        for key, value in ref["counts"].items():
            merged["counts"].setdefault(key, value)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    tmp.replace(record_path)


def _compare(runner, index: int, name: str, ref: dict, op: dict) -> None:
    if op["digest"] != ref["digest"]:
        runner.failures.setdefault((index, name), "output digest differs from the first run")
    for key in ref["counts"].keys() & op["counts"].keys():
        if op["counts"][key] != ref["counts"][key]:
            runner.failures.setdefault(
                (index, name), f"count {key} is {op['counts'][key]}, was {ref['counts'][key]}"
            )


def iteration_seconds(ops: dict) -> float:
    return sum(op["s"] for op in ops.values())


def layer_metrics(summary: dict, ops: dict) -> dict[str, float]:
    """Per-layer values of one traced iteration, keyed ``<span>.<field>``."""
    values: dict[str, float] = {
        "cli.bytes_written": sum(op["counts"].get("bytes_written", 0) for op in ops.values()),
        "model.spec_bytes": sum(row.get("spec_bytes", 0) for row in summary.values()),
    }
    for span, row in summary.items():
        for field, value in row.items():
            values[f"{span}.{field}"] = value
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or not args.seconds > 0:
        parser.error("--seed must fit in 64 unsigned bits and --seconds must be positive")

    load_program()
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"env": environment(args)}), flush=True)

    setup = measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    workload.prepare(args.seed)

    work = WORK / f"run-{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer()
    runner = workloads.Runner()
    iterations: list[dict] = []
    untraced: list[int] = []
    traced: list[int] = []
    # probes[i - 1] and probes[i] bracket iteration i (0 is the warm-up).
    probes: list[float] = []
    try:
        run_iteration(workload, runner, work, iterations)  # warm-up, not timed
        probes.append(speed.probe())
        # With tracing, traced and untraced iterations alternate so that
        # machine drift hits both alike; pairs are always completed.
        start = time.perf_counter()
        while not untraced or len(traced) < len(untraced) * args.trace or time.perf_counter() - start < args.seconds:
            if len(traced) < len(untraced) * args.trace:
                traced.append(run_iteration(workload, runner, work, iterations, tracer))
            else:
                untraced.append(run_iteration(workload, runner, work, iterations))
            probes.append(speed.probe())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_consistency(runner, iterations, WORK / "records" / f"{args.workload}-seed{args.seed}.json")

    untraced_s = [iteration_seconds(iterations[i]) for i in untraced]
    untraced_norm_s = [
        speed.normalised(iteration_seconds(iterations[i]), probes[i - 1], probes[i]) for i in untraced
    ]
    if args.trace:
        tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
        per_iter, covered = [], []
        for index in traced:
            own = [i for i, span in enumerate(tracer.spans) if span.iteration == index]
            summary = tracing.summarize(tracer.spans, own[0], own[-1] + 1) if own else {}
            per_iter.append(layer_metrics(summary, iterations[index]))
            covered.append(sum(tracer.spans[i].end - tracer.spans[i].start for i in own if tracer.spans[i].parent < 0))
        traced_s = [iteration_seconds(iterations[i]) for i in traced]
        values = {
            "trace.iter_s": statistics.median(traced_s),
            "trace.overhead_s": statistics.median(t - u for t, u in zip(traced_s, untraced_s)),
        }
        for entry in bench["per_layer"]:
            if entry["name"] not in values:
                values[entry["name"]] = statistics.median(v.get(entry["name"], 0) for v in per_iter)
        wanted = bench["per_layer"]
    else:
        values = {
            "iter_p50_norm_s": statistics.median(untraced_norm_s),
            "setup_s": statistics.median(speed.normalised(s, p, p) for s, p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = bench["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in wanted}

    per_op: dict[str, list[float]] = {}
    for index in untraced:
        for name, op in iterations[index].items():
            per_op.setdefault(name, []).append(speed.normalised(op["s"], probes[index - 1], probes[index]))
    failed = len(runner.failures)
    detail = {
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "iter_p50_s": {"value": statistics.median(untraced_s), "unit": "s", "n": len(untraced_s)},
        "iter_min_s": min(untraced_s),
        "iter_s": untraced_s,
        "iter_norm_s": untraced_norm_s,
        "probe_s": probes,
        "op_p50_norm_s": {
            f"{name}_s": {"value": statistics.median(t), "unit": "s", "n": len(t)} for name, t in per_op.items()
        },
        "setup_raw_s": [s for s, _ in setup],
        "setup_probe_s": [p for _, p in setup],
        "failed_frac": failed / runner.attempted,
        "traced_iter_s": traced_s if args.trace else [],
        "span_cover": statistics.median(c / t for c, t in zip(covered, traced_s)) if args.trace else None,
        "failures": [f"iteration {i}: {msg}" for (i, _), msg in sorted(runner.failures.items())][:20],
    }
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
