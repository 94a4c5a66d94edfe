"""Command-line interface.

Subcommands: ``solve-exact``, ``solve-po``, ``check``, ``augment``,
``eval``, ``simulate``, ``randgen``.  Machine-readable outputs go to the
``--out`` directory (``policy.json``, ``certificate.json``, ``trace.csv``,
``condition.json``, ``trajectories.csv``, ``costs.csv``); a human-readable
summary goes to stdout.  ``eval`` and ``simulate`` consume the
``policy.json`` a solver wrote into the same ``--out`` directory.

Every file is read by ``_read`` and written by ``_Files.write``, which
writes ``\n`` line ends on every platform.  A command's files are staged
beside their targets and moved into place only once it succeeds, so a
command that fails changes no file in ``--out``.  ``main`` reads the spec
and creates ``--out`` before a command runs, and maps each error to its
exit code: 0 success, 2 load/validation error, 3 solver error, 4 I/O
error, naming the file that could not be read or written.  All outputs
are pure functions of the spec bytes, flags, and seed.

``simulate`` formats ``trajectories.csv`` on two cores when at least two
CPUs are usable and the second half of the trajectories holds at least
``_WORKER_MIN_VALUES`` floats.  A worker interpreter (``python -I -S
_csvrows.py``, which imports no numpy) formats the second half while this
process formats the first, and the bytes are those of one process.  The
worker reads its rows from, and writes its text to, unnamed temporary
files in ``--out``; it peaks at about 12 MB and adds a little CPU time.
If it cannot start or fails, this process formats its rows too; if this
process fails, the worker is killed and reaped.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import _csvrows
from .evaluate import (
    ValueCertificate,
    _certificate,
    _nash_gaps,
    policy_distance,
    simulate,
    value_certificate,
)
from .model import (
    GameSpec,
    _dumps,
    dump_game_spec,
    dump_joint_policy,
    load_game_spec,
    load_joint_policy,
    random_game,
)
from .solver import (
    ConditionRecord,
    SolveReport,
    SolverError,
    check_assumption_tau,
    delta_augment_solve,
    exact_ne,
    po_solve,
)

__all__ = ["main", "build_parser"]

# Trajectories formatted per write in trajectories.csv.  Larger chunks
# write no faster but raise peak memory with the text they hold.
_TRAJ_CHUNK = 64
# Floats a worker must format before one is started.  On a 2-vCPU VM
# (Python 3.11) a ``python -I -S`` worker took a median 13 ms to start and
# ``repr`` about 1 us per float, so this share repays the start-up at least
# twice.  There, with 104 floats per trajectory, the split broke even at a
# worker share of 13k floats and saved 19 ms at 27k and 22 ms at 40k.
_WORKER_MIN_VALUES = 30_000


class _IOFailure(OSError):
    pass


def _read(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read {what} {path}: {exc}") from None


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create output directory {out}: {exc}") from None
    return out


def _check_target(path: Path) -> None:
    """Fail as opening a directory ``path`` for writing fails."""
    if path.is_dir():
        exc = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        raise _IOFailure(f"cannot write {path}: {exc}")


class _Files:
    """The files one command writes.  Each is written to a staged sibling
    in ``--out``, and :meth:`commit` moves them all into place, in write
    order, so a command that fails changes no file in ``--out``."""

    def __init__(self) -> None:
        self.staged: list[tuple[Path, Path]] = []

    def write(self, path: Path, content) -> None:
        """Stage ``content`` for ``path``: text, or a function that writes into
        the open file.  Line ends are written as given, ``\n`` on every platform."""
        _check_target(path)
        staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        self.staged.append((staged, path))
        try:
            with open(staged, "w", newline="") as fh:
                if callable(content):
                    content(fh)
                else:
                    fh.write(content)
        except OSError as exc:
            raise _IOFailure(f"cannot write {path}: {exc}") from None

    def commit(self) -> None:
        """Move every staged file into place once no target is a directory."""
        for _, path in self.staged:
            _check_target(path)
        for staged, path in self.staged:
            try:
                os.replace(staged, path)
            except OSError as exc:
                raise _IOFailure(f"cannot write {path}: {exc}") from None


def _certificate_doc(spec: GameSpec, cert: ValueCertificate) -> dict:
    mu = spec.init_mean
    agents = [
        {"expected_cost": a.expected_cost, "value_at_init_mean": a.value_at(mu), "P": a.P, "q": a.q}
        for a in cert.agents
    ]
    return {"agents": agents}


def _condition_doc(spec: GameSpec, record: ConditionRecord) -> dict:
    return {
        "tau": float(spec.tau),
        "gamma_B": record.gamma_B,
        "gamma_P": record.gamma_P,
        "threshold": record.threshold,
        "margin": record.margin,
        "satisfied": record.satisfied,
    }


def _write_trace(write, path: Path, report: SolveReport) -> None:
    """One CSV line per stage and inner iteration, a stage per write; the
    bytes of ``csv.writer``, which writes floats with ``repr``.  Each
    stage's modulus is formatted once."""

    def stages(fh) -> None:
        fh.write("t,l,distance,contraction_modulus\n")
        for t, (stage_trace, modulus) in enumerate(zip(report.trace, report.contraction_moduli)):
            tail = f",{float(modulus)!r}\n"
            fh.write("".join([f"{t},{l},{float(dist)!r}{tail}" for l, dist in enumerate(stage_trace, start=1)]))

    write(path, stages)


def _cmd_randgen(args, _, out: Path, write) -> int:
    spec = random_game(args.agents, args.horizon, args.state_dim, args.action_dim, args.seed, args.scale)
    if args.tau is not None:
        spec = spec.with_tau(args.tau)
    write(out / "spec.json", dump_game_spec(spec))
    print(
        f"generated spec: agents={spec.num_agents} horizon={spec.horizon} "
        f"state_dim={spec.state_dim} action_dim={spec.action_dim} tau={spec.tau}"
    )
    print(f"wrote {out / 'spec.json'}")
    return 0


def _cmd_solve_exact(args, spec: GameSpec, out: Path, write) -> int:
    sol = exact_ne(spec)
    record = check_assumption_tau(spec, sol, args.margin)
    write(out / "policy.json", dump_joint_policy(sol.policy))
    cert = _certificate(spec, sol.riccati, sol.offsets)
    write(out / "certificate.json", _dumps(_certificate_doc(spec, cert)))
    print("exact equilibrium solved")
    for i, cost in enumerate(cert.expected_costs.tolist()):
        print(f"  agent {i}: expected cost {cost:.12g}")
    print(
        f"uniqueness condition: tau={spec.tau:g} threshold={record.threshold:.6g} "
        f"satisfied={record.satisfied}"
    )
    print(f"wrote {out / 'policy.json'}, {out / 'certificate.json'}")
    return 0


def _cmd_solve_po(args, spec: GameSpec, out: Path, write) -> int:
    report = po_solve(spec, inner_iters=args.inner_iters, stop_tol=args.stop_tol)
    write(out / "policy.json", dump_joint_policy(report.policy))
    _write_trace(write, out / "trace.csv", report)
    print("policy optimization finished")
    for t, stage_trace in enumerate(report.trace):
        last = stage_trace[-1] if stage_trace else float("nan")
        print(
            f"  stage {t}: iterations={len(stage_trace)} final_distance={last:.3e} "
            f"modulus={report.contraction_moduli[t]:.4g}"
        )
    if report.condition is not None:
        print(
            f"uniqueness condition (a posteriori): threshold={report.condition.threshold:.6g} "
            f"satisfied={report.condition.satisfied}"
        )
    print(f"wrote {out / 'policy.json'}, {out / 'trace.csv'}")
    return 0


def _cmd_check(args, spec: GameSpec, out: Path, write) -> int:
    sol = exact_ne(spec)
    record = check_assumption_tau(spec, sol, args.margin)
    write(out / "condition.json", _dumps(_condition_doc(spec, record)))
    print(
        f"tau={spec.tau:g} gamma_B={record.gamma_B:.6g} gamma_P={record.gamma_P:.6g} "
        f"threshold={record.threshold:.6g} margin={record.margin:g} satisfied={record.satisfied}"
    )
    print(f"wrote {out / 'condition.json'}")
    return 0


def _cmd_augment(args, spec: GameSpec, out: Path, write) -> int:
    report = delta_augment_solve(
        spec,
        delta_init=args.delta_init,
        growth=args.growth,
        max_rounds=args.max_rounds,
        inner_iters=args.inner_iters,
        stop_tol=args.stop_tol,
        margin=args.margin,
    )
    write(out / "policy.json", dump_joint_policy(report.policy))
    _write_trace(write, out / "trace.csv", report)
    doc = _condition_doc(spec, report.condition)
    doc["delta_used"] = report.delta_used
    doc["exploitability"] = report.nash_gaps
    write(out / "condition.json", _dumps(doc))
    print(f"augmentation succeeded with delta={report.delta_used:g}")
    for i, gap in enumerate(report.nash_gaps):
        print(f"  agent {i}: original-game exploitability {float(gap):.6e}")
    print(f"wrote {out / 'policy.json'}, {out / 'trace.csv'}, {out / 'condition.json'}")
    return 0


def _cmd_eval(args, spec: GameSpec, out: Path, write) -> int:
    joint = load_joint_policy(_read(out / "policy.json", "policy file"))
    cert = value_certificate(spec, joint)
    gaps = _nash_gaps(spec, joint, cert.expected_costs)
    doc = _certificate_doc(spec, cert)
    doc["exploitability"] = gaps
    for i, (cost, gap) in enumerate(zip(cert.expected_costs.tolist(), gaps.tolist())):
        print(f"  agent {i}: expected cost {cost:.12g} nash gap {gap:.6e}")
    if args.compare is not None:
        distance = policy_distance(joint, load_joint_policy(_read(args.compare, "comparison policy")))
        doc["compare_distance"] = distance
        print(f"policy distance to {args.compare}: {distance:.6e}")
    write(out / "certificate.json", _dumps(doc))
    print(f"wrote {out / 'certificate.json'}")
    return 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(n_traj: int, values: int) -> int:
    """Trajectories the parent formats itself, of ``n_traj`` with ``values``
    floats each: the first half, in whole chunks, when a worker is worth
    starting for the rest; otherwise all of them."""
    split = n_traj // 2 // _TRAJ_CHUNK * _TRAJ_CHUNK
    if _usable_cpus() < 2 or not sys.executable or (n_traj - split) * values < _WORKER_MIN_VALUES:
        return n_traj
    return split


@contextlib.contextmanager
def _worker(states: np.ndarray, actions: np.ndarray, lo: int, out: Path):
    """Format trajectories ``lo:`` in a worker interpreter that runs
    ``_csvrows.py``.  Yields the process and the unnamed file in ``out`` it
    writes to, or None if no worker is needed or it cannot start.  On exit a
    worker still running is killed, and the worker is reaped."""
    n_traj, T, n, p = actions.shape
    if lo == n_traj:
        yield None
        return
    import subprocess

    argv = [sys.executable, "-I", "-S", _csvrows.__file__,
            *map(str, (lo, n_traj - lo, T, states.shape[2], n * p, _TRAJ_CHUNK))]
    with contextlib.ExitStack() as stack:
        try:
            text = stack.enter_context(tempfile.TemporaryFile(dir=out))
            with tempfile.TemporaryFile(dir=out) as rows:
                for a in range(lo, n_traj, _TRAJ_CHUNK):
                    rows.write(states[a:a + _TRAJ_CHUNK].data)
                    rows.write(actions[a:a + _TRAJ_CHUNK].data)
                rows.seek(0)
                proc = subprocess.Popen(argv, stdin=rows, stdout=text, stderr=subprocess.DEVNULL)
        except OSError:
            proc = None
        if proc is None:
            yield None
            return
        try:
            yield proc, text
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _write_rows(fh, states: np.ndarray, actions: np.ndarray, lo: int, hi: int) -> None:
    """Write the lines of trajectories ``lo:hi``, a chunk of trajectories at
    a time; a chunk bounds the memory held by its ``tolist()`` copies and
    joined text."""
    T, m = states.shape[1] - 1, states.shape[2]
    width = actions.shape[2] * actions.shape[3]
    for a in range(lo, hi, _TRAJ_CHUNK):
        b = min(a + _TRAJ_CHUNK, hi)
        fh.write(_csvrows.format_rows(a, states[a:b].ravel().tolist(), actions[a:b].ravel().tolist(),
                                      T, m, width))


def _write_trajectories(fh, states: np.ndarray, actions: np.ndarray, out: Path) -> None:
    """Write the header and one CSV line per trajectory and stage.

    When ``_split`` says so, a worker interpreter formats the second half
    of the trajectories while this process formats the first, and its text
    is appended in blocks.  If the worker fails, this process formats its
    rows too; the bytes are the same either way.
    """
    n_traj, T, n, p = actions.shape
    m = states.shape[2]
    header = ["traj_id", "t"] + [f"x{k}" for k in range(m)] + [f"u{i}_{k}" for i in range(n) for k in range(p)]
    fh.write(",".join(header) + "\n")
    split = _split(n_traj, (T + 1) * m + T * n * p)
    with _worker(states, actions, split, out) as worker:
        _write_rows(fh, states, actions, 0, split)
        if worker is not None and worker[0].wait() == 0:
            fh.flush()
            worker[1].seek(0)
            shutil.copyfileobj(worker[1], fh.buffer)
            return
    _write_rows(fh, states, actions, split, n_traj)


def _cmd_simulate(args, spec: GameSpec, out: Path, write) -> int:
    joint = load_joint_policy(_read(out / "policy.json", "policy file"))
    result = simulate(spec, joint, args.n_traj, args.seed)
    cert = value_certificate(spec, joint)
    write(out / "trajectories.csv", lambda fh: _write_trajectories(fh, result.states, result.actions, out))
    # The bytes of csv.writer, which writes floats with repr.
    rows = list(enumerate(zip(result.mean_costs.tolist(), result.std_errors.tolist(),
                              cert.expected_costs.tolist())))
    write(out / "costs.csv", "agent,empirical_mean,std_error,certificate_value\n"
           + "".join([f"{i},{mean!r},{se!r},{value!r}\n" for i, (mean, se, value) in rows]))
    for i, (mean, se, value) in rows:
        print(f"  agent {i}: empirical {mean:.6g} +/- {se:.3g} (certificate {value:.6g})")
    print(f"wrote {out / 'trajectories.csv'}, {out / 'costs.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqnash",
        description="Solvers and certification for entropy-regularized LQ games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="path to the game JSON document")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("solve-exact", help="exact equilibrium via the backward stacked solve")
    add_common(p)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("solve-po", help="iterative receding-horizon policy optimization")
    add_common(p)
    p.add_argument("--inner-iters", type=int, default=None)
    p.add_argument("--stop-tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_solve_po)

    p = sub.add_parser("check", help="solve exactly and test the uniqueness condition")
    add_common(p)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("augment", help="tau-augmentation fallback solve")
    add_common(p)
    p.add_argument("--delta-init", type=float, default=1e-3)
    p.add_argument("--growth", type=float, default=2.0)
    p.add_argument("--max-rounds", type=int, default=20)
    p.add_argument("--inner-iters", type=int, default=None)
    p.add_argument("--stop-tol", type=float, default=1e-10)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("eval", help="certify the policy.json in --out; optional comparison")
    add_common(p)
    p.add_argument("--compare", default=None, help="second policy file to measure distance to")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="Monte Carlo rollouts of the policy.json in --out")
    add_common(p)
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("randgen", help="generate a seeded random game document")
    add_common(p, spec=False)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--state-dim", type=int, required=True)
    p.add_argument("--action-dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=_cmd_randgen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    files = _Files()
    try:
        spec = load_game_spec(_read(args.spec, "spec file")) if "spec" in args else None  # randgen has none
        code = args.func(args, spec, _out_dir(args.out), files.write)
        files.commit()
        return code
    except SolverError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 3
    except _IOFailure as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # GameSpecError included
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2
    finally:
        for staged, _ in files.staged:  # those not moved into place
            staged.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
