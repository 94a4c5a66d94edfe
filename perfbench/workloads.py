"""The four benchmark workloads and the checks on their outputs.

Each iteration is a fixed sequence of operations: CLI commands run in-process
through ``lqnash.cli.main``, or library calls.  Every input comes from the
workload seed alone.  An operation fails on a nonzero exit, an exception, or
a failed output check; its outputs are digested so that a later run or
iteration with the same seed can be compared byte for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from lqnash import cli, evaluate, model, solver
from tracing import summarize

SCALE = "0.3"
# A correct program misses a 5-standard-error band with probability < 1e-5.
MC_SIGMAS = 5.0
NASH_TOL = 1e-8
GAP_FLOOR = -1e-9

# Files each command writes into its --out directory.
OUTPUTS = {
    "randgen": ("spec.json",),
    "solve-exact": ("policy.json", "certificate.json"),
    "solve-po": ("policy.json", "trace.csv"),
    "check": ("condition.json",),
    "augment": ("policy.json", "trace.csv", "condition.json"),
    "eval": ("certificate.json",),
    "simulate": ("trajectories.csv", "costs.csv"),
}


class CheckFailed(Exception):
    """An operation's output is missing, malformed, non-finite or wrong."""


def _reject_constant(name):
    raise CheckFailed(f"non-finite constant {name} in JSON output")


def _parse_json(data: bytes) -> dict:
    return json.loads(data, parse_constant=_reject_constant)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _gaps_ok(gaps) -> None:
    _require(all(math.isfinite(g) and g >= GAP_FLOOR for g in gaps), f"bad Nash gaps {gaps}")


def _within_sigmas(means, std_errors, certificate) -> None:
    for i, (mean, se, cert) in enumerate(zip(means, std_errors, certificate)):
        _require(math.isfinite(mean) and se > 0, f"agent {i}: mean {mean}, std error {se}")
        _require(
            abs(mean - cert) <= MC_SIGMAS * se,
            f"agent {i}: empirical {mean} is {abs(mean - cert) / se:.2f} std errors from {cert}",
        )


class Runner:
    """Runs, times and checks operations; with a tracer, records spans too.

    ``ops`` maps each operation of the current iteration to its wall time,
    output digest and exact counts; ``failures`` maps (iteration, operation)
    to what went wrong.
    """

    def __init__(self) -> None:
        self.tracer = None
        self.attempted = 0
        self.iteration = 0
        self.failures: dict[tuple[int, str], str] = {}
        self.ops: dict[str, dict] = {}

    def op(self, name: str, fn, check):
        """Time ``fn()``; ``check(result)`` returns ``(digest, counts)`` or raises."""
        self.attempted += 1
        first = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation failure is counted and the run goes on
            self.failures[(self.iteration, name)] = f"{name}: {type(exc).__name__}: {exc}"
            return None
        duration = time.perf_counter() - start
        try:
            digest, counts = check(result)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures[(self.iteration, name)] = f"{name}: {type(exc).__name__}: {exc}"
            return None
        if self.tracer:
            for span, row in summarize(self.tracer.spans, first).items():
                counts.update({f"{span}.{k}": v for k, v in row.items() if k not in ("s", "self_s")})
        self.ops[name] = {"s": duration, "digest": digest, "counts": counts}
        return result

    def cli(self, command: str, out: Path, *args, check=None) -> None:
        """``lqnash <command> --out <out> <args>``; ``check(contents)`` inspects the outputs."""
        name = command.replace("-", "_")
        outputs = OUTPUTS[command]
        out.mkdir(parents=True, exist_ok=True)
        for file in outputs:
            (out / file).unlink(missing_ok=True)
        argv = [command, "--out", str(out), *map(str, args)]
        stderr = io.StringIO()

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                return cli.main(argv)

        def inspect(code):
            _require(code == 0, f"exit code {code}: {stderr.getvalue().strip()}")
            contents = {file: (out / file).read_bytes() for file in outputs}
            for file, data in contents.items():
                if file.endswith(".json"):
                    _parse_json(data)
                else:
                    _require(b"nan" not in data and b"inf" not in data, f"non-finite value in {file}")
            if check is not None:
                check(contents)
            digest = hashlib.sha256()
            for file in outputs:
                digest.update(file.encode() + b"\0" + contents[file])
            return digest.hexdigest(), {"bytes_written": sum(map(len, contents.values()))}

        traced = call if self.tracer is None else lambda: self.tracer.call(f"cli.{name}", call, None)
        self.op(name, traced, inspect)


def _array_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


class CliWorkload:
    """A workload of CLI commands; the seed is its only input."""

    def prepare(self, seed: int) -> None:
        self.seed = seed


class Wide(CliWorkload):
    """Agent axis: 20 agents, both solvers, Nash gaps of the iterative policy."""

    name = "wide"
    dims = ("--agents", 20, "--horizon", 50, "--state-dim", 10, "--action-dim", 2)

    def iteration(self, run: Runner, work: Path) -> None:
        gen, exact, po = work / "gen", work / "exact", work / "po"
        spec = gen / "spec.json"
        run.cli("randgen", gen, *self.dims, "--seed", self.seed, "--scale", SCALE, "--tau", 100)
        run.cli("solve-exact", exact, "--spec", spec)
        run.cli("solve-po", po, "--spec", spec)

        def agrees(contents):
            doc = _parse_json(contents["certificate.json"])
            _require(doc["compare_distance"] <= NASH_TOL, f"PO vs exact distance {doc['compare_distance']}")
            worst = max(abs(g) for g in doc["exploitability"])
            _require(worst <= NASH_TOL, f"max |Nash gap| of the PO policy {worst}")

        run.cli("eval", po, "--spec", spec, "--compare", exact / "policy.json", check=agrees)


class Long(CliWorkload):
    """Stage axis: 400 stages, tau below the uniqueness threshold, augmentation."""

    name = "long"
    dims = ("--agents", 3, "--horizon", 400, "--state-dim", 4, "--action-dim", 2)

    def iteration(self, run: Runner, work: Path) -> None:
        gen, sol = work / "gen", work / "sol"
        spec = gen / "spec.json"
        run.cli("randgen", gen, *self.dims, "--seed", self.seed, "--scale", SCALE, "--tau", 1)

        def unsatisfied(contents):
            doc = _parse_json(contents["condition.json"])
            _require(doc["satisfied"] is False, f"tau=1 unexpectedly satisfies the condition: {doc}")

        def augmented(contents):
            doc = _parse_json(contents["condition.json"])
            _require(doc["satisfied"] is True and doc["delta_used"] > 0, f"augmentation: {doc}")
            _gaps_ok(doc["exploitability"])

        def certified(contents):
            _gaps_ok(_parse_json(contents["certificate.json"])["exploitability"])

        run.cli("check", sol, "--spec", spec, check=unsatisfied)
        # Needed deltas lie in (0.1, 0.8] over seeds 0-40, so growth 16 makes
        # every seed take the same two rounds: 0.05 fails, 0.8 succeeds.
        run.cli("augment", sol, "--spec", spec, "--delta-init", 0.05, "--growth", 16, check=augmented)
        run.cli("eval", sol, "--spec", spec, check=certified)


class MonteCarloCli(CliWorkload):
    """CLI Monte Carlo: 5000 trajectories written to trajectories.csv."""

    name = "mc-cli"
    n_traj, horizon = 5000, 10
    dims = ("--agents", 3, "--horizon", horizon, "--state-dim", 4, "--action-dim", 2)

    def iteration(self, run: Runner, work: Path) -> None:
        gen, sol = work / "gen", work / "sol"
        spec = gen / "spec.json"
        run.cli("randgen", gen, *self.dims, "--seed", self.seed, "--scale", SCALE, "--tau", 50)
        run.cli("solve-exact", sol, "--spec", spec)

        def sampled(contents):
            lines = contents["trajectories.csv"].count(b"\n")
            expected = self.n_traj * (self.horizon + 1) + 1
            _require(lines == expected, f"trajectories.csv has {lines} lines, expected {expected}")
            rows = contents["costs.csv"].decode().splitlines()[1:]
            stats = [[float(v) for v in row.split(",")[1:]] for row in rows]
            _within_sigmas(*zip(*stats))

        run.cli("simulate", sol, "--spec", spec, "--n-traj", self.n_traj, "--seed", self.seed,
                check=sampled)


class MonteCarloLib:
    """Library Monte Carlo, no files: 50000 trajectories plus the certificate."""

    name = "mc-lib"
    n_traj = 50000

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.spec = model.random_game(3, 10, 4, 2, seed=seed, scale=float(SCALE)).with_tau(50)
        self.policy = solver.exact_ne(self.spec).policy

    def iteration(self, run: Runner, work: Path) -> None:
        spec, policy = self.spec, self.policy

        def sampled(sim):
            _require(bool(np.isfinite(sim.costs).all()), "non-finite sampled cost")
            return _array_digest(sim.states, sim.actions, sim.costs), {}

        sim = run.op("simulate", lambda: evaluate.simulate(spec, policy, self.n_traj, self.seed), sampled)

        def certified(cert):
            costs = cert.expected_costs
            if sim is not None:
                _within_sigmas(sim.mean_costs, sim.std_errors, costs)
            return _array_digest(costs, *(a.P for a in cert.agents)), {}

        run.op("value_certificate", lambda: evaluate.value_certificate(spec, policy), certified)


WORKLOADS = {w.name: w for w in (Wide(), Long(), MonteCarloCli(), MonteCarloLib())}
