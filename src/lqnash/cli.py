"""Command-line interface.

Subcommands: ``solve-exact``, ``solve-po``, ``check``, ``augment``,
``eval``, ``simulate``, ``randgen``.  Machine-readable outputs go to the
``--out`` directory (``policy.json``, ``certificate.json``, ``trace.csv``,
``condition.json``, ``trajectories.csv``, ``costs.csv``); a human-readable
summary goes to stdout.  ``eval`` and ``simulate`` consume the
``policy.json`` a solver wrote into the same ``--out`` directory.

Exit codes: 0 success, 2 load/validation error, 3 solver error, 4 I/O
error.  All outputs are pure functions of the spec bytes, flags, and seed.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

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
    GameSpecError,
    JointPolicy,
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


def _read_spec(path: str) -> GameSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read spec file {path}: {exc}") from None
    return load_game_spec(text)


def _read_policy(out_dir: str) -> JointPolicy:
    path = Path(out_dir) / "policy.json"
    try:
        text = path.read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read policy file {path}: {exc}") from None
    return load_joint_policy(text)


class _IOFailure(OSError):
    pass


def _out_dir(args) -> Path:
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create output directory {path}: {exc}") from None
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from None


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, _dumps(doc))


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


def _write_trace(path: Path, report: SolveReport) -> None:
    """One CSV line per stage and inner iteration, a stage per write; the
    bytes of ``csv.writer``, which writes floats with ``repr``.  Each
    stage's modulus is formatted once."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write("t,l,distance,contraction_modulus\n")
            for t, (stage_trace, modulus) in enumerate(zip(report.trace, report.contraction_moduli)):
                tail = f",{float(modulus)!r}\n"
                fh.write("".join([f"{t},{l},{float(dist)!r}{tail}" for l, dist in enumerate(stage_trace, start=1)]))
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from None


def _cmd_randgen(args) -> int:
    out = _out_dir(args)
    spec = random_game(args.agents, args.horizon, args.state_dim, args.action_dim, args.seed, args.scale)
    if args.tau is not None:
        spec = spec.with_tau(args.tau)
    _write_text(out / "spec.json", dump_game_spec(spec))
    print(
        f"generated spec: agents={spec.num_agents} horizon={spec.horizon} "
        f"state_dim={spec.state_dim} action_dim={spec.action_dim} tau={spec.tau}"
    )
    print(f"wrote {out / 'spec.json'}")
    return 0


def _cmd_solve_exact(args) -> int:
    spec = _read_spec(args.spec)
    out = _out_dir(args)
    sol = exact_ne(spec)
    record = check_assumption_tau(spec, sol, args.margin)
    _write_text(out / "policy.json", dump_joint_policy(sol.policy))
    cert = _certificate(spec, sol.riccati, sol.offsets)
    _write_json(out / "certificate.json", _certificate_doc(spec, cert))
    print("exact equilibrium solved")
    for i, cost in enumerate(cert.expected_costs.tolist()):
        print(f"  agent {i}: expected cost {cost:.12g}")
    print(
        f"uniqueness condition: tau={spec.tau:g} threshold={record.threshold:.6g} "
        f"satisfied={record.satisfied}"
    )
    print(f"wrote {out / 'policy.json'}, {out / 'certificate.json'}")
    return 0


def _cmd_solve_po(args) -> int:
    spec = _read_spec(args.spec)
    out = _out_dir(args)
    report = po_solve(spec, inner_iters=args.inner_iters, stop_tol=args.stop_tol)
    _write_text(out / "policy.json", dump_joint_policy(report.policy))
    _write_trace(out / "trace.csv", report)
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


def _cmd_check(args) -> int:
    spec = _read_spec(args.spec)
    out = _out_dir(args)
    sol = exact_ne(spec)
    record = check_assumption_tau(spec, sol, args.margin)
    _write_json(out / "condition.json", _condition_doc(spec, record))
    print(
        f"tau={spec.tau:g} gamma_B={record.gamma_B:.6g} gamma_P={record.gamma_P:.6g} "
        f"threshold={record.threshold:.6g} margin={record.margin:g} satisfied={record.satisfied}"
    )
    print(f"wrote {out / 'condition.json'}")
    return 0


def _cmd_augment(args) -> int:
    spec = _read_spec(args.spec)
    out = _out_dir(args)
    report = delta_augment_solve(
        spec,
        delta_init=args.delta_init,
        growth=args.growth,
        max_rounds=args.max_rounds,
        inner_iters=args.inner_iters,
        stop_tol=args.stop_tol,
        margin=args.margin,
    )
    _write_text(out / "policy.json", dump_joint_policy(report.policy))
    _write_trace(out / "trace.csv", report)
    doc = _condition_doc(spec, report.condition)
    doc["delta_used"] = report.delta_used
    doc["exploitability"] = report.nash_gaps
    _write_json(out / "condition.json", doc)
    print(f"augmentation succeeded with delta={report.delta_used:g}")
    for i, gap in enumerate(report.nash_gaps):
        print(f"  agent {i}: original-game exploitability {float(gap):.6e}")
    print(f"wrote {out / 'policy.json'}, {out / 'trace.csv'}, {out / 'condition.json'}")
    return 0


def _cmd_eval(args) -> int:
    spec = _read_spec(args.spec)
    out = _out_dir(args)
    joint = _read_policy(args.out)
    cert = value_certificate(spec, joint)
    gaps = _nash_gaps(spec, joint, cert.expected_costs)
    doc = _certificate_doc(spec, cert)
    doc["exploitability"] = gaps
    for i, (cost, gap) in enumerate(zip(cert.expected_costs.tolist(), gaps.tolist())):
        print(f"  agent {i}: expected cost {cost:.12g} nash gap {gap:.6e}")
    if args.compare is not None:
        try:
            other = load_joint_policy(Path(args.compare).read_text())
        except OSError as exc:
            raise _IOFailure(f"cannot read comparison policy {args.compare}: {exc}") from None
        distance = policy_distance(joint, other)
        doc["compare_distance"] = distance
        print(f"policy distance to {args.compare}: {distance:.6e}")
    _write_json(out / "certificate.json", doc)
    print(f"wrote {out / 'certificate.json'}")
    return 0


def _write_trajectories(fh, states: np.ndarray, actions: np.ndarray) -> None:
    """Write one CSV line per trajectory and stage, a chunk of trajectories
    at a time.

    Bytes match ``csv.writer``: it writes floats with ``repr`` (``%r``) and
    the terminal row's missing actions as empty fields.  A chunk bounds the
    memory held by its ``tolist()`` copies and joined text.
    """
    n_traj, T, n, p = actions.shape
    m = states.shape[2]
    width = n * p
    line = "%d,%d," + ",".join(["%r"] * (m + width)) + "\n"
    last = "%d,%d," + ",".join(["%r"] * m) + "," * width + "\n"
    for lo in range(0, n_traj, _TRAJ_CHUNK):
        hi = min(lo + _TRAJ_CHUNK, n_traj)
        xs = states[lo:hi].tolist()
        us = actions[lo:hi].reshape(hi - lo, T, width).tolist()
        parts = []
        for r, x, u in zip(range(lo, hi), xs, us):
            for t in range(T):
                parts.append(line % (r, t, *x[t], *u[t]))
            parts.append(last % (r, T, *x[T]))
        fh.write("".join(parts))


def _cmd_simulate(args) -> int:
    spec = _read_spec(args.spec)
    out = _out_dir(args)
    joint = _read_policy(args.out)
    result = simulate(spec, joint, args.n_traj, args.seed)
    cert = value_certificate(spec, joint)

    n, m, p = spec.num_agents, spec.state_dim, spec.action_dim
    try:
        with open(out / "trajectories.csv", "w", newline="") as fh:
            header = ["traj_id", "t"] + [f"x{k}" for k in range(m)]
            for i in range(n):
                header += [f"u{i}_{k}" for k in range(p)]
            fh.write(",".join(header) + "\n")
            _write_trajectories(fh, result.states, result.actions)
        with open(out / "costs.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["agent", "empirical_mean", "std_error", "certificate_value"])
            for i in range(n):
                writer.writerow(
                    [
                        i,
                        float(result.mean_costs[i]),
                        float(result.std_errors[i]),
                        float(cert.expected_costs[i]),
                    ]
                )
    except OSError as exc:
        raise _IOFailure(f"cannot write simulation outputs: {exc}") from None

    for i in range(n):
        print(
            f"  agent {i}: empirical {float(result.mean_costs[i]):.6g} "
            f"+/- {float(result.std_errors[i]):.3g} (certificate {float(cert.expected_costs[i]):.6g})"
        )
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
    try:
        return args.func(args)
    except GameSpecError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 3
    except _IOFailure as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
