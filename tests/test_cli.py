import contextlib
import csv
import errno
import gc
import io
import json
import marshal
import os
import select
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import lqnash as lq
from lqnash import _text, cli, model
from lqnash.cli import main

from conftest import SCALAR_GAME_TEXT, overflowing_policies, random_pd_policy


@pytest.fixture
def scalar_spec_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(SCALAR_GAME_TEXT)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_randgen_round_trip(tmp_path):
    out = tmp_path / "gen"
    assert run("randgen", "--out", out, "--agents", 2, "--horizon", 3, "--state-dim", 2,
               "--action-dim", 1, "--seed", 9, "--scale", 0.5) == 0
    spec = lq.load_game_spec((out / "spec.json").read_text())
    assert spec.num_agents == 2 and spec.horizon == 3
    direct = lq.random_game(2, 3, 2, 1, seed=9, scale=0.5)
    assert lq.dump_game_spec(spec) == lq.dump_game_spec(direct)


def test_randgen_tau_override(tmp_path):
    out = tmp_path / "gen"
    assert run("randgen", "--out", out, "--agents", 1, "--horizon", 1, "--state-dim", 1,
               "--action-dim", 1, "--seed", 0, "--tau", 3.5) == 0
    spec = lq.load_game_spec((out / "spec.json").read_text())
    assert spec.tau == 3.5


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "1e308"])
def test_randgen_bad_scale_exit_code(tmp_path, capsys, scale):
    # inf and 1e308 used to escape as an OverflowError from Generator.uniform.
    out = tmp_path / "gen"
    assert run("randgen", "--out", out, "--agents", 1, "--horizon", 1, "--state-dim", 1,
               "--action-dim", 1, "--seed", 0, "--scale", scale) == 2
    assert "error (validation): scale" in capsys.readouterr().err
    assert not (out / "spec.json").exists()


def test_solve_exact_scalar_outputs(scalar_spec_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    policy = json.loads((out / "policy.json").read_text())
    assert policy["gains"][0][0][0][0] == pytest.approx(-1 / 3, abs=1e-12)
    assert policy["covs"][0][0][0][0] == pytest.approx(1 / 3, abs=1e-12)
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["agents"][0]["P"][0][0][0] == pytest.approx(5 / 3, abs=1e-12)
    stdout = capsys.readouterr().out
    assert "expected cost" in stdout
    # One line names the files once they are in place, in the order they were written.
    assert stdout.endswith(f"\nwrote {out / 'policy.json'}, {out / 'certificate.json'}\n")
    assert stdout.count("wrote") == 1


def test_solve_po_then_compare(scalar_spec_file, tmp_path, capsys):
    po_dir = tmp_path / "po"
    exact_dir = tmp_path / "exact"
    assert run("solve-po", "--spec", scalar_spec_file, "--out", po_dir) == 0
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", exact_dir) == 0
    assert run("eval", "--spec", scalar_spec_file, "--out", po_dir,
               "--compare", exact_dir / "policy.json") == 0
    cert = json.loads((po_dir / "certificate.json").read_text())
    assert cert["compare_distance"] <= 1e-8
    assert "policy distance" in capsys.readouterr().out


def test_compare_against_a_huge_policy(scalar_spec_file, tmp_path):
    # The gains differ by about 1e200, whose square overflows; the distance does not.
    out = tmp_path / "exact"
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    huge = tmp_path / "huge.json"
    huge.write_text('{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 1,'
                    ' "gains": [[[[1e200]]]], "covs": [[[[0.5]]]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("eval", "--spec", scalar_spec_file, "--out", out, "--compare", huge) == 0
    assert json.loads((out / "certificate.json").read_text())["compare_distance"] == 1e200


def test_trace_schema(scalar_spec_file, tmp_path):
    out = tmp_path / "po"
    assert run("solve-po", "--spec", scalar_spec_file, "--out", out, "--inner-iters", 5) == 0
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "l", "distance", "contraction_modulus"]
    assert rows[1][0] == "0" and rows[1][1] == "1"
    assert float(rows[1][2]) > 0


def reference_trace(report) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "l", "distance", "contraction_modulus"])
    for t, stage_trace in enumerate(report.trace):
        for l, dist in enumerate(stage_trace, start=1):
            writer.writerow([t, l, float(dist), float(report.contraction_moduli[t])])
    return buf.getvalue().encode()


def test_trace_bytes_match_csv_writer(tmp_path):
    spec = lq.random_game(3, 20, 4, 2, seed=3, scale=0.3).with_tau(1.85)
    reports = [
        lq.po_solve(spec),
        lq.po_solve(spec, inner_iters=3, stop_tol=None),
        # Zeros, huge and tiny values, inf and nan as the file may hold them.
        lq.SolveReport(policy=None, trace=((0.0, 1e-300, 5e-324), (1.5e300,), (float("nan"), float("inf"))),
                       contraction_moduli=(0.0, float("inf"), 1 / 3)),
    ]
    for report in reports:
        files = cli._Files()
        files.write(tmp_path / "trace.csv", cli._write_trace(report))
        files.commit()
        assert (tmp_path / "trace.csv").read_bytes() == reference_trace(report)


# Every file each command writes, in the order it writes them.
WRITES = [("randgen", "spec.json"), ("solve-exact", "policy.json"), ("solve-exact", "certificate.json"),
          ("solve-po", "policy.json"), ("solve-po", "trace.csv"), ("check", "condition.json"),
          ("augment", "policy.json"), ("augment", "trace.csv"), ("augment", "condition.json"),
          ("eval", "certificate.json"), ("simulate", "trajectories.csv"), ("simulate", "costs.csv")]
COMMAND_ARGS = {"randgen": ["--agents", 1, "--horizon", 1, "--state-dim", 1, "--action-dim", 1],
                "augment": ["--delta-init", 0.1], "simulate": ["--n-traj", 3]}


@pytest.mark.parametrize("command, file", WRITES, ids=[f"{c}-{f}" for c, f in WRITES])
def test_trace_write_error_exit_code(scalar_spec_file, tmp_path, capsys, command, file):
    """A command that cannot write one of its files changes no file in ``--out``."""
    out = tmp_path / "run"
    if command in ("eval", "simulate"):  # they read the policy a solver wrote into --out
        assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
        (out / file).unlink(missing_ok=True)
    (out / file).mkdir(parents=True)  # a directory where the file should go
    for _, name in WRITES:  # a sentinel in place of every other output
        if not (out / name).exists():
            (out / name).write_text(f"sentinel {name}\n")
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    spec = [] if command == "randgen" else ["--spec", scalar_spec_file]
    assert run(command, *spec, "--out", out, *COMMAND_ARGS.get(command, [])) == 4
    assert f"error (io): cannot write {out / file}: " in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before


@pytest.mark.parametrize("command, missing, message", [
    ("solve-exact", "spec", "cannot read spec file"),
    ("eval", "policy", "cannot read policy file"),
    ("simulate", "policy", "cannot read policy file"),
    ("eval", "compare", "cannot read comparison policy"),
], ids=["spec", "eval-policy", "simulate-policy", "compare"])
def test_read_error_exit_code(scalar_spec_file, tmp_path, capsys, command, missing, message):
    out = tmp_path / "run"
    if missing == "compare":
        assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
        capsys.readouterr()
    absent = {"spec": tmp_path / "absent.json", "policy": out / "policy.json", "compare": tmp_path / "absent.json"}
    spec = absent["spec"] if missing == "spec" else scalar_spec_file
    extra = ["--compare", absent["compare"]] if missing == "compare" else []
    assert run(command, "--spec", spec, "--out", out, *extra) == 4
    assert f"error (io): {message} {absent[missing]}: " in capsys.readouterr().err


@pytest.mark.parametrize("flags, env, key", [
    # Any read or write that falls back on the locale's encoding is an error.
    (["-X", "warn_default_encoding", "-W", "error::EncodingWarning"], {}, None),
    # The locale's encoding is ASCII, and the spec holds a UTF-8 ignored key.
    (["-X", "utf8=0"], {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}, "commentaire é"),
], ids=["encoding-warning", "ascii-locale"])
def test_spec_is_read_as_utf8(scalar_spec_file, tmp_path, flags, env, key):
    """The CLI reads a spec as UTF-8, whatever the locale, and writes what it
    writes for the same spec without the ignored key."""
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", tmp_path / "plain") == 0
    doc = json.loads(SCALAR_GAME_TEXT)
    if key:
        doc[key] = "équilibre"
    spec = tmp_path / "utf8.json"
    spec.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(lq.__file__))
    done = subprocess.run(
        [sys.executable, *flags, "-m", "lqnash.cli", "solve-exact", "--spec", str(spec), "--out", str(tmp_path / "run")],
        env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in ("policy.json", "certificate.json"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_check_writes_condition(scalar_spec_file, tmp_path):
    out = tmp_path / "chk"
    assert run("check", "--spec", scalar_spec_file, "--out", out) == 0
    doc = json.loads((out / "condition.json").read_text())
    assert doc["satisfied"] is True
    assert doc["threshold"] == 0.0


def _violating_spec_file(tmp_path, tau=1.0):
    spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8).with_tau(tau)  # threshold > 1
    path = tmp_path / "game.json"
    path.write_text(lq.dump_game_spec(spec))
    return path


def test_augment_outputs(tmp_path):
    out = tmp_path / "aug"
    assert run("augment", "--spec", _violating_spec_file(tmp_path), "--out", out, "--delta-init", 0.1,
               "--max-rounds", 30) == 0
    doc = json.loads((out / "condition.json").read_text())
    assert doc["delta_used"] > 0
    assert len(doc["exploitability"]) == 2
    assert (out / "policy.json").exists() and (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["check", "augment", "solve-exact"])
@pytest.mark.parametrize("margin", ["-1", "nan"])
def test_bad_margin_exit_code(tmp_path, capsys, command, margin):
    # At tau 0.01, margin -1 would have passed the check at any threshold.
    out = tmp_path / "o"
    assert run(command, "--spec", _violating_spec_file(tmp_path, tau=0.01), "--out", out, "--margin", margin) == 2
    assert "margin" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("delta_init", ["0", "nan", "inf"])
def test_bad_delta_init_exit_code(tmp_path, capsys, delta_init):
    out = tmp_path / "o"
    assert run("augment", "--spec", _violating_spec_file(tmp_path), "--out", out, "--delta-init", delta_init) == 2
    assert "error (validation): delta_init" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("growth", ["inf", "nan"])
def test_bad_growth_exit_code(tmp_path, capsys, growth):
    out = tmp_path / "o"
    assert run("augment", "--spec", _violating_spec_file(tmp_path), "--out", out, "--growth", growth) == 2
    assert "error (validation): growth must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("option, value", [("--stop-tol", "nan"), ("--inner-iters", "0")])
def test_bad_po_argument_of_augment_exit_code(tmp_path, capsys, option, value):
    # Every round of this game fails, so a late check would exit 3.
    out = tmp_path / "o"
    assert run("augment", "--spec", _violating_spec_file(tmp_path), "--out", out, "--delta-init", "1e-6",
               "--growth", "1.5", "--max-rounds", 2, option, value) == 2
    assert "error (validation): " + option[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_augment_overflow_exit_code(tmp_path, capsys):
    assert run("augment", "--spec", _violating_spec_file(tmp_path), "--out", tmp_path / "o",
               "--delta-init", "1e-300", "--growth", "1e200", "--max-rounds", 3) == 3
    assert "round 2" in capsys.readouterr().err


INF_COV_POLICY = ('{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 1,'
                  ' "gains": [[[[0]]]], "covs": [[[[1e999]]]]}')
# The certificate reads the whole covariance, sampling and the
# log-determinants only its lower triangle: two different policies.
ASYMMETRIC_COV_POLICY = ('{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 2,'
                         ' "gains": [[[[0], [0]]]], "covs": [[[[1, 0.3], [0, 1]]]]}')


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("text, message", [("5", "top level"), ("null", "top level"),
                                           (INF_COV_POLICY, "covs: contains non-finite"),
                                           (ASYMMETRIC_COV_POLICY, "error (validation): covs: not symmetric")],
                         ids=["int", "null", "inf-cov", "asymmetric-cov"])
def test_bad_policy_file_exit_code(scalar_spec_file, tmp_path, capsys, command, text, message):
    out = tmp_path / "run"
    out.mkdir()
    (out / "policy.json").write_text(text)
    assert run(command, "--spec", scalar_spec_file, "--out", out) == 2
    assert message in capsys.readouterr().err


def test_eval_gaps_near_zero_at_equilibrium(scalar_spec_file, tmp_path):
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    assert run("eval", "--spec", scalar_spec_file, "--out", out) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert abs(cert["exploitability"][0]) <= 1e-8


def test_simulate_outputs(scalar_spec_file, tmp_path):
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    assert run("simulate", "--spec", scalar_spec_file, "--out", out,
               "--n-traj", 500, "--seed", 3) == 0
    with open(out / "costs.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["agent", "empirical_mean", "std_error", "certificate_value"]
    empirical, se, certval = (float(v) for v in rows[1][1:])
    # at this equilibrium the realized cost is exactly constant, so the
    # standard error is pure round-off; keep an absolute floor
    assert abs(empirical - certval) <= 4 * se + 1e-12
    with open(out / "trajectories.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["traj_id", "t", "x0", "u0_0"]
    assert len(rows) == 1 + 500 * 2  # header + (T+1) rows per trajectory
    assert rows[2][3] == ""  # no action at the terminal stage


def _reference_costs_csv(result, cert) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agent", "empirical_mean", "std_error", "certificate_value"])
    for i in range(len(result.mean_costs)):
        writer.writerow([i, float(result.mean_costs[i]), float(result.std_errors[i]), float(cert.expected_costs[i])])
    return buf.getvalue().encode()


@pytest.mark.parametrize("n_traj", [1, 37])
def test_costs_bytes_match_csv_writer(tmp_path, n_traj):
    spec = lq.random_game(3, 4, 2, 2, seed=5, scale=0.4).with_tau(10.0)
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", spec_path, "--out", out) == 0
    assert run("simulate", "--spec", spec_path, "--out", out, "--n-traj", n_traj, "--seed", 8) == 0
    joint = lq.load_joint_policy((out / "policy.json").read_text())
    result = lq.simulate(spec, joint, n_traj, 8)
    if n_traj == 1:
        assert result.std_errors.tolist() == [0.0] * 3
    assert (out / "costs.csv").read_bytes() == _reference_costs_csv(result, lq.value_certificate(spec, joint))


def test_byte_identical_reruns(scalar_spec_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("solve-po", "--spec", scalar_spec_file, "--out", out) == 0
        assert run("simulate", "--spec", scalar_spec_file, "--out", out,
                   "--n-traj", 200, "--seed", 1) == 0
        outs.append(out)
    for fname in ("policy.json", "trace.csv", "costs.csv", "trajectories.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _reference_trajectories_csv(result, spec) -> str:
    """trajectories.csv as a row-by-row csv.writer writes it."""
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["traj_id", "t"] + [f"x{k}" for k in range(m)]
    for i in range(n):
        header += [f"u{i}_{k}" for k in range(p)]
    writer.writerow(header)
    for r in range(result.states.shape[0]):
        for t in range(T + 1):
            row: list = [r, t] + [float(v) for v in result.states[r, t]]
            if t < T:
                for i in range(n):
                    row += [float(v) for v in result.actions[r, t, i]]
            else:
                row += [""] * (n * p)
            writer.writerow(row)
    return buf.getvalue()


def test_simulate_trajectories_match_csv_writer(tmp_path):
    spec = lq.random_game(2, 3, 3, 2, seed=21, scale=0.3).with_tau(20.0)
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    out = tmp_path / "run"
    n_traj = 2 * _text._TRAJ_CHUNK + 7  # several chunks, the last one partial
    assert run("solve-exact", "--spec", spec_path, "--out", out) == 0
    assert run("simulate", "--spec", spec_path, "--out", out,
               "--n-traj", n_traj, "--seed", 2**40 + 3) == 0
    joint = lq.load_joint_policy((out / "policy.json").read_text())
    expected = _reference_trajectories_csv(lq.simulate(spec, joint, n_traj, 2**40 + 3), spec)
    assert (out / "trajectories.csv").read_bytes() == expected.encode()


@pytest.fixture
def traj_game(tmp_path):
    """A small game, its spec file, and an --out directory holding its exact policy."""
    spec = lq.random_game(2, 3, 3, 2, seed=21, scale=0.3).with_tau(20.0)
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", spec_path, "--out", out) == 0
    return spec, spec_path, out


@pytest.fixture
def workers(monkeypatch):
    """Every worker process started, in turn, as its pid and the exit code
    it was reaped with (None until then), with two CPUs usable and any
    document large enough to start one."""
    started = {}
    real_spawn, real_waitpid = os.posix_spawn, os.waitpid

    def spawn(*args, **kwargs):
        pid = real_spawn(*args, **kwargs)
        started[pid] = None
        return pid

    def waitpid(pid, options):
        got, status = real_waitpid(pid, options)
        if got in started:
            started[got] = os.waitstatus_to_exitcode(status)
        return got, status

    monkeypatch.setattr(os, "posix_spawn", spawn)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(_text, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_text, "_WORKER_MIN_VALUES", 1)
    return started


def _simulate(traj_game, n_traj, seed=5):
    """Run simulate into the game's --out; the expected trajectories.csv bytes."""
    spec, spec_path, out = traj_game
    assert run("simulate", "--spec", spec_path, "--out", out, "--n-traj", n_traj, "--seed", seed) == 0
    joint = lq.load_joint_policy((out / "policy.json").read_text())
    return _reference_trajectories_csv(lq.simulate(spec, joint, n_traj, seed), spec).encode()


def _serial_bytes(traj_game, n_traj, monkeypatch, seed=5):
    with monkeypatch.context() as m:
        m.setattr(_text, "_usable_cpus", lambda: 1)
        _simulate(traj_game, n_traj, seed)
    return (traj_game[2] / "trajectories.csv").read_bytes()


@pytest.mark.parametrize("kind, command, code", [("gains", "eval", 2), ("gains", "simulate", 2),
                                                ("cov", "eval", 0), ("cov", "simulate", 2)])
def test_overflowing_policy_exit_code(tmp_path, capsys, kind, command, code):
    """An overflowing certificate or sample exits 2, without a numpy warning,
    and writes no file; a finite certificate of a huge covariance is written."""
    spec, policies = overflowing_policies()
    (tmp_path / "spec.json").write_text(lq.dump_game_spec(spec))
    (tmp_path / "policy.json").write_text(lq.dump_joint_policy(policies[kind]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--spec", tmp_path / "spec.json", "--out", tmp_path) == code
    written = {"certificate.json"} if code == 0 else set()
    assert {p.name for p in tmp_path.iterdir()} == {"spec.json", "policy.json"} | written
    if code:
        assert "error (validation): agent 0: " in capsys.readouterr().err


def _assert_nothing_left(out, started, files=("certificate.json", "costs.csv", "policy.json", "trajectories.csv")):
    """No worker process is running or unreaped, and ``out`` holds no temporary file."""
    for pid, code in started.items():
        assert code is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert sorted(p.name for p in out.iterdir()) == list(files)


@contextlib.contextmanager
def _no_resource_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@contextlib.contextmanager
def _no_descriptor_left():
    """The block closes every descriptor it opens.  Raw descriptors, as of
    the worker's pipes and shared files, escape ResourceWarning."""
    gc.collect()
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("n_traj", [1, 3 * _text._TRAJ_CHUNK - 1, 3 * _text._TRAJ_CHUNK, 3 * _text._TRAJ_CHUNK + 1])
def test_split_trajectories_match_serial(traj_game, workers, monkeypatch, n_traj):
    with _no_descriptor_left():
        expected = _simulate(traj_game, n_traj)
    # Killed and reaped.
    assert list(workers.values()) == [-signal.SIGKILL]
    split = (traj_game[2] / "trajectories.csv").read_bytes()
    assert split == expected
    assert _serial_bytes(traj_game, n_traj, monkeypatch) == expected
    assert len(workers) == 1  # the serial run started none
    _assert_nothing_left(traj_game[2], workers)


def test_worker_rule(traj_game, monkeypatch):
    """simulate wants a worker for a trajectories.csv of ``_WORKER_MIN_VALUES``
    floats; ``_text.start`` starts one only with two usable CPUs and an
    interpreter to start."""
    assert 1 <= _text._usable_cpus() <= (os.cpu_count() or 1)
    spec, spec_path, out = traj_game
    per = (spec.horizon + 1) * spec.state_dim + spec.horizon * spec.num_agents * spec.action_dim
    n_traj = -(-_text._WORKER_MIN_VALUES // per)  # the fewest that repay a worker

    def wants(n):
        args = cli.build_parser().parse_args(["simulate", "--spec", str(spec_path), "--out", str(out), "--n-traj", str(n)])
        return cli._wants_worker(args, spec)

    assert wants(n_traj) and not wants(n_traj - 1)

    def started():
        _text.start()
        worker = _text._worker
        _text.stop()
        return worker is not None

    monkeypatch.setattr(_text, "_usable_cpus", lambda: 2)
    assert started() == sys.platform.startswith("linux")
    with monkeypatch.context() as m:
        m.setattr(sys, "executable", "")
        assert not started()
    monkeypatch.setattr(_text, "_usable_cpus", lambda: 1)
    assert not started()


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux's /proc/self/stat and two usable CPUs")
def test_worker_kept_off_this_process_cpu():
    """The worker may run on every CPU this process may use but the one it
    ran on when it started the worker."""
    _text.start()
    try:
        assert len(os.sched_getaffinity(_text._worker.pid)) == len(os.sched_getaffinity(0)) - 1
        assert os.sched_getaffinity(_text._worker.pid) < os.sched_getaffinity(0)
    finally:
        _text.stop()


def test_small_simulate_splits_rows_or_starts_no_worker(tmp_path, monkeypatch, replies):
    """100 trajectories of 400 floats start no worker, or one that formats
    part of the rows while this process formats the rest."""
    spec = lq.random_game(2, 66, 4, 1, seed=3, scale=0.3).with_tau(20.0)
    assert (spec.horizon + 1) * spec.state_dim + spec.horizon * spec.num_agents * spec.action_dim == 400
    spec_path, out = tmp_path / "game.json", tmp_path / "run"
    spec_path.write_text(lq.dump_game_spec(spec))
    assert run("solve-exact", "--spec", spec_path, "--out", out) == 0
    monkeypatch.setattr(_text, "_usable_cpus", lambda: 2)
    del replies[:]
    with _no_descriptor_left():
        assert run("simulate", "--spec", spec_path, "--out", out, "--n-traj", 100) == 0
    # A worker's text begins after this process's first trajectory.
    assert all(not text.startswith(b"0,") for text in replies)


# Each fake worker reads one job, writes an 11-byte text to the file of
# texts and replies for the job's last piece: naming 99 bytes of text, or 11
# but for a job that is not the one this process works on.  Then it exits
# 3, or waits for its input to end.
_FAKE_REPLIES = {"short": "b'%d %d 0 99\\n' % (job, last)", "stale": "b'%d %d 0 11\\n' % (job - 1, last)"}


def _fake_python(tmp_path, reply: str, then: str):
    """An executable that stands in for the worker's interpreter: it reads
    one job, writes the ``reply`` of ``_FAKE_REPLIES`` for its last piece,
    then runs ``then``."""
    path = tmp_path / "fake-python"
    path.write_text(f"#!{sys.executable}\nimport marshal, os, sys\n"
                    "job, size = map(int, sys.stdin.buffer.readline().split())\n"
                    "last = len(marshal.loads(os.pread(int(sys.argv[-2]), size, job))) - 1\n"
                    "os.pwrite(int(sys.argv[-1]), b'0,0,partial', 0)\n"
                    f"sys.stdout.buffer.write({_FAKE_REPLIES[reply]}); sys.stdout.flush()\n"
                    f"{then}\n")
    path.chmod(0o755)
    return str(path)


def test_worker_script_rejects_short_input(tmp_path):
    """The worker, run as the CLI runs it, exits nonzero when a job's floats
    end early in the file of jobs.  It formats a job's pieces from the last
    one back, appends each one's text to the file of texts and replies on
    its stdout with a line: the job, the piece's index, and the text's
    offset and byte length.  At the end of its input it exits 0, as a
    worker whose parent died does."""
    # Two pieces of one trajectory each, T=1, m=3, width=3: the states of
    # both trajectories, six values each, then the actions, three each.
    pieces = [("rows", 0, 1, 1, 3, 3, 0, 12), ("rows", 1, 1, 1, 3, 3, 6, 15)]
    head, job = marshal.dumps(pieces, 4), 16  # after the 16 bytes that name a job and its claim
    control = job.to_bytes(8, "little") + bytes(8)  # this process claims no piece
    floats = np.arange(18, dtype=np.float64).tobytes()
    line = b"%d %d\n" % (job, len(head))

    def serve(content: bytes, jobs: int):
        (tmp_path / "jobs").write_bytes(content)
        (tmp_path / "texts").write_bytes(b"")
        fds = [os.open(tmp_path / "jobs", os.O_RDONLY), os.open(tmp_path / "texts", os.O_WRONLY)]
        try:
            argv = [sys.executable, "-I", "-S", "-c", _text._BOOT, os.path.dirname(_text.__file__), *map(str, fds)]
            return subprocess.run(argv, input=line * jobs, pass_fds=fds, capture_output=True, timeout=60)
        finally:
            for fd in fds:
                os.close(fd)

    done = serve(control + head + floats[:-8], 1)
    assert done.returncode != 0 and b"EOFError" in done.stderr
    done = serve(control + head + floats, 2)
    first = b"1,0,6.0,7.0,8.0,15.0,16.0,17.0\n1,1,9.0,10.0,11.0,,,\n"
    second = b"0,0,0.0,1.0,2.0,12.0,13.0,14.0\n0,1,3.0,4.0,5.0,,,\n"
    assert done.returncode == 0
    assert (tmp_path / "texts").read_bytes() == (first + second) * 2
    places = [(1, 0, len(first)), (0, len(first), len(second))]
    places += [(i, at + len(first + second), size) for i, at, size in places]
    assert done.stdout == b"".join(b"%d %d %d %d\n" % (job, i, at, size) for i, at, size in places)


@pytest.fixture
def replies(monkeypatch):
    """The texts of the worker's pieces that this process took, in turn."""
    got = []
    real = _text._their_text

    def recorded(at, size):
        text = real(at, size)
        if text is not None:
            got.append(text)
        return text

    monkeypatch.setattr(_text, "_their_text", recorded)
    return got


def _json_outputs(tmp_path, spec_path) -> dict:
    """Every JSON file the CLI writes, from each command run on one game."""
    outs = {name: tmp_path / name for name in ("gen", "exact", "po", "aug")}
    dims = ["--agents", 2, "--horizon", 3, "--state-dim", 3, "--action-dim", 2]
    assert run("randgen", "--out", outs["gen"], *dims, "--seed", 4, "--scale", 0.3) == 0
    assert run("solve-exact", "--spec", spec_path, "--out", outs["exact"]) == 0
    assert run("check", "--spec", spec_path, "--out", outs["exact"]) == 0
    assert run("solve-po", "--spec", spec_path, "--out", outs["po"]) == 0
    assert run("eval", "--spec", spec_path, "--out", outs["po"], "--compare", outs["exact"] / "policy.json") == 0
    assert run("augment", "--spec", spec_path, "--out", outs["aug"], "--delta-init", 0.1) == 0
    return {f"{out.name}/{path.name}": path.read_bytes() for out in outs.values() for path in out.glob("*.json")}


def test_json_outputs_match_one_cpu(traj_game, workers, monkeypatch, tmp_path):
    """Every JSON file the CLI writes has the same bytes whether a worker
    formats part of it or this process formats all of it."""
    spec_path = traj_game[1]
    with monkeypatch.context() as m:
        m.setattr(_text, "_usable_cpus", lambda: 1)
        serial = _json_outputs(tmp_path / "serial", spec_path)
    assert workers == {}
    with _no_descriptor_left():
        split = _json_outputs(tmp_path / "split", spec_path)
    assert split == serial
    assert sorted(serial) == ["aug/condition.json", "aug/policy.json", "exact/certificate.json",
                              "exact/condition.json", "exact/policy.json", "gen/spec.json",
                              "po/certificate.json", "po/policy.json"]
    # randgen, solve-exact, solve-po, eval and augment start one each; check
    # writes no array.  Each is killed and reaped.
    assert list(workers.values()) == [-signal.SIGKILL] * 5


JSON_COMMANDS = {"randgen": ["--agents", 4, "--horizon", 48, "--state-dim", 8, "--action-dim", 4, "--seed", 4],
                 "solve-exact": [], "check": [], "solve-po": [], "augment": ["--delta-init", 0.1], "eval": []}


def _array_floats(node) -> int:
    """The numbers held in the lists of a JSON value: its arrays' floats."""
    if isinstance(node, dict):
        return sum(map(_array_floats, node.values()))
    if isinstance(node, list):
        return sum(1 if isinstance(x, float) else _array_floats(x) for x in node)
    return 0


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_commands_start_no_worker(tmp_path, workers, monkeypatch, command):
    """A command that writes JSON starts no worker while its largest
    document holds fewer than ``_WORKER_MIN_VALUES`` floats.  At or over
    the rule it starts one, writes the bytes of a run with one usable CPU,
    and leaves the worker killed and reaped.  The game's spec, policy and
    certificate hold 9k-25k floats each; check writes no array."""
    spec = lq.random_game(4, 48, 8, 4, seed=4, scale=0.3).with_tau(20.0)
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    policy = lq.dump_joint_policy(lq.exact_ne(spec).policy)

    def outputs(out) -> dict:
        out.mkdir()
        if command == "eval":  # it certifies the policy in --out
            (out / "policy.json").write_text(policy)
        spec_args = [] if command == "randgen" else ["--spec", spec_path]
        assert run(command, *spec_args, "--out", out, *JSON_COMMANDS[command]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    with monkeypatch.context() as m:
        m.setattr(_text, "_usable_cpus", lambda: 1)
        serial = outputs(tmp_path / "serial")
    largest = max([_array_floats(json.loads(text)) for name, text in serial.items()
                   if name.endswith(".json") and (command, name) != ("eval", "policy.json")])
    assert (largest == 0) == (command == "check")
    for rule, started in [(largest + 1, 0), (largest, 1)] if largest else [(1, 0)]:
        monkeypatch.setattr(_text, "_WORKER_MIN_VALUES", rule)
        out = tmp_path / f"rule-{rule}"
        with _no_descriptor_left():
            assert outputs(out) == serial
        assert list(workers.values()) == [-signal.SIGKILL] * started
        _assert_nothing_left(out, workers, sorted(serial))
        workers.clear()


def _trajectories_csv(spec: lq.GameSpec, n_traj: int) -> str:
    result = lq.simulate(spec, lq.exact_ne(spec).policy, n_traj, 5)
    pieces = cli._write_trajectories(result.states, result.actions)
    return "".join([piece if isinstance(piece, str) else piece.decode() for piece in pieces])


def _documents(spec: lq.GameSpec) -> dict:
    """Each document's text, laid out afresh, and its expected bytes: those
    of json.dumps(indent=2) or of a row-by-row csv.writer."""
    sol = lq.exact_ne(spec)
    cert = lq.value_certificate(spec, sol.policy)
    doc = cli._certificate_doc(spec, cert)
    doc["exploitability"] = np.array([1e-17, -0.0])
    reference = _reference_certificate(spec, cert.P, cert.q)
    reference["exploitability"] = [1e-17, -0.0]

    def trajectories(n_traj):
        expected = _reference_trajectories_csv(lq.simulate(spec, sol.policy, n_traj, 5), spec)
        return lambda: _trajectories_csv(spec, n_traj), expected.encode()

    return {"spec": (lambda: lq.dump_game_spec(spec), _reference_spec(spec)),
            "policy": (lambda: lq.dump_joint_policy(sol.policy), _reference_policy(sol.policy)),
            "certificate": (lambda: model._dumps(doc), _encoded(reference)),
            "trajectories": trajectories(14), "one-trajectory": trajectories(1)}


@pytest.mark.parametrize("kind", ["spec", "policy", "certificate", "trajectories", "one-trajectory"])
@pytest.mark.parametrize("blocks", [(_text._MAX_BLOCK, _text._TRAJ_CHUNK), (5, 4)], ids=["blocks", "small-blocks"])
def test_every_split_point_matches_serial(monkeypatch, workers, replies, kind, blocks):
    """Wherever the worker and this process meet, the bytes are those of
    json.dumps(indent=2) or of a row-by-row csv.writer.  For every piece
    ``j``, and for ``j`` past the last one, the running worker formats
    exactly the pieces from ``j`` to the last one before this process
    starts, and this process formats the pieces before ``j``."""
    spec = lq.random_game(2, 3, 3, 2, seed=21, scale=0.3).with_tau(20.0)
    text, expected = _documents(spec)[kind]
    monkeypatch.setattr(_text, "_MAX_BLOCK", blocks[0])
    monkeypatch.setattr(_text, "_TRAJ_CHUNK", blocks[1])
    assert text().encode() == expected  # no worker
    sizes, waited, meet = [], set(), 0
    real_submit, real_claim, real_received = _text.submit, _text._claim, _text.received

    def submit(pieces, flats):
        sizes.append(len(pieces))
        return real_submit(pieces, flats)

    def claim(job, first):  # the worker stops before piece `meet`
        real_claim(job, max(first, meet))

    def received(job, index):  # the first call waits for the worker's pieces
        places = real_received(job, index)
        if job not in waited:
            waited.add(job)
            deadline = time.monotonic() + 60
            while len(places) < index + 1 - meet and time.monotonic() < deadline:
                time.sleep(0.001)
                places += real_received(job, index - len(places))
        return places

    monkeypatch.setattr(_text, "submit", submit)
    monkeypatch.setattr(_text, "_claim", claim)
    monkeypatch.setattr(_text, "received", received)
    _text.start()
    try:
        assert text().encode() == expected
        n = sizes[0]
        assert len(replies) == n  # all of them
        if kind == "spec" and blocks[0] == 5:
            assert n > 20  # pieces within the stacks, mirrored ones included
        for meet in range(1, n + 1):
            del replies[:]
            assert text().encode() == expected, meet
            assert len(replies) == n - meet, meet
    finally:
        _text.stop()
    assert list(workers.values()) == [-signal.SIGKILL]
    assert sizes == [n] * (n + 1)


# Each way a worker's job or a command can fail: the command's exit code
# (None for an interrupt) and the worker's return code, or none if it never
# started.
_FAILURES = {"cannot-start": (0, []), "exits-nonzero": (0, [3]), "killed-mid-job": (0, [-signal.SIGKILL]),
             "short-reply": (0, [-signal.SIGKILL]), "stale-job": (0, [-signal.SIGKILL]),
             "write-oserror": (4, [-signal.SIGKILL]), "write-interrupt": (None, [-signal.SIGKILL]),
             "exit-2": (2, [-signal.SIGKILL]), "exit-3": (3, [-signal.SIGKILL]), "exit-4": (4, [-signal.SIGKILL])}


def _failing_run(traj_game, tmp_path, monkeypatch, kind, failure=None):
    """argv of a command that writes ``kind``, the CSV or JSON outputs, into
    a new --out directory, with ``failure`` set up; the directory."""
    _, spec_path, game_out = traj_game
    out = tmp_path / "out"
    out.mkdir(parents=True)
    if kind == "csv":
        monkeypatch.setattr(_text, "_TRAJ_CHUNK", 4)
        argv = ["simulate", "--spec", spec_path, "--out", out, "--n-traj", 32]
        (out / "policy.json").write_bytes((game_out / "policy.json").read_bytes())
    else:
        argv = ["solve-exact", "--spec", spec_path, "--out", out]
    if failure == "cannot-start":
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    elif failure in ("exits-nonzero", "short-reply", "stale-job"):
        reply = "stale" if failure == "stale-job" else "short"
        then = "sys.exit(3)" if failure == "exits-nonzero" else "sys.stdin.buffer.read()"
        monkeypatch.setattr(sys, "executable", _fake_python(tmp_path, reply, then))
        real_received, waited = _text.received, []

        def received_once_replied(job, index):
            # This process does not wait for a worker; the test waits for
            # the fake's reply, or exit, before this process first reads.
            if not waited:
                waited.append(job)
                if failure == "exits-nonzero":  # left for stop() to reap
                    deadline = time.monotonic() + 60
                    while (os.waitid(os.P_PID, _text._worker.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
                           and time.monotonic() < deadline):
                        time.sleep(0.001)
                else:
                    select.select([_text._worker.stdout], [], [], 60)
            return real_received(job, index)

        monkeypatch.setattr(_text, "received", received_once_replied)
    elif failure == "killed-mid-job":
        real_submit = _text.submit

        def submit_then_kill(pieces, flats):
            job = real_submit(pieces, flats)
            if _text._worker is not None:
                os.kill(_text._worker.pid, signal.SIGKILL)
            return job

        monkeypatch.setattr(_text, "submit", submit_then_kill)
    elif failure in ("write-oserror", "write-interrupt"):
        # trajectories.csv fails at its second chunk of rows; policy.json at
        # its one write.
        target, writes = (".trajectories.csv.", 2) if kind == "csv" else (".policy.json.", 0)
        error = OSError(errno.ENOSPC, "No space left on device") if failure == "write-oserror" else KeyboardInterrupt()
        real_open = open

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if Path(path).name.startswith(target):
                write, done = fh.write, []

                def write_then_fail(text):
                    if len(done) == writes:
                        raise error
                    done.append(text)
                    return write(text)

                fh.write = write_then_fail
            return fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
    elif failure == "exit-2":
        if kind == "csv":  # the sampled costs overflow
            joint = lq.load_joint_policy((out / "policy.json").read_text())
            (out / "policy.json").write_text(lq.dump_joint_policy(lq.JointPolicy(joint.gains * 1e200, joint.covs)))
        else:
            argv += ["--margin", -1]
    elif failure == "exit-3":  # the 400-stage divergence repro
        gen = tmp_path / "gen"
        with monkeypatch.context() as m:
            m.setattr(_text, "_usable_cpus", lambda: 1)
            assert run("randgen", "--out", gen, "--agents", 3, "--horizon", 400, "--state-dim", 4,
                       "--action-dim", 2, "--seed", 3, "--scale", 1.5) == 0
        argv = ["solve-po", "--spec", gen / "spec.json", "--out", out, "--inner-iters", 50]
    elif failure == "exit-4":  # written after the file the worker helps format
        (out / ("costs.csv" if kind == "csv" else "certificate.json")).mkdir()
    return argv, out


@pytest.mark.skipif(os.name != "posix", reason="the fake worker is a script run through its #! line")
@pytest.mark.parametrize("kind, failure", [(kind, failure) for kind in ("csv", "json") for failure in _FAILURES
                                           if (kind, failure) != ("csv", "exit-3")])  # simulate runs no solver
def test_failed_worker_or_command(traj_game, workers, replies, monkeypatch, tmp_path, capsys, kind, failure):
    """A worker that cannot start, fails, or replies short or to another job
    leaves the bytes of one process; a command that fails after its worker
    started, by an error of its own or by a write of this process, kills
    and reaps it and writes no file.  Either way no worker process is left
    running or unreaped, and ``--out`` holds no temporary file."""
    code, worker_codes = _FAILURES[failure]
    argv, out = _failing_run(traj_game, tmp_path, monkeypatch, kind, failure)
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()  # the set-up's commands
    with _no_resource_warning(), _no_descriptor_left(), np.errstate(over="ignore", invalid="ignore"):
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                run(*argv)
        else:
            assert run(*argv) == code
    assert list(workers.values()) == worker_codes
    if code == 0:
        serial, serial_out = _failing_run(traj_game, tmp_path / "serial", monkeypatch, kind)
        monkeypatch.setattr(_text, "_usable_cpus", lambda: 1)
        assert run(*serial) == 0
        names = sorted(p.name for p in serial_out.iterdir())
        _assert_nothing_left(out, workers, names)
        for name in names:
            assert (out / name).read_bytes() == (serial_out / name).read_bytes(), name
    else:
        _assert_nothing_left(out, workers, before)
        printed = capsys.readouterr()
        assert code is None or ("error (io): cannot write" if code == 4 else "error (") in printed.err
        assert "wrote" not in printed.out
    if failure not in ("write-oserror", "write-interrupt", "exit-4"):
        # No worker, a worker whose text never arrives whole or for this
        # process's job, or a command that fails before it writes a file:
        # this process formats every piece.
        assert replies == []


_STALLED = """\
import os, signal, sys
sys.path.insert(0, {src!r})
from lqnash import _text, cli
start, waitpid = _text.start, os.waitpid


def stalled():
    start()
    os.kill(_text._worker.pid, signal.SIGSTOP)
    stalled.pid, stalled.code = _text._worker.pid, None


def recorded(pid, options):
    got, status = waitpid(pid, options)
    if got == stalled.pid:
        stalled.code = os.waitstatus_to_exitcode(status)
    return got, status


_text.start, _text._usable_cpus, _text._WORKER_MIN_VALUES, os.waitpid = stalled, lambda: 2, 1, recorded
code = cli.main({argv!r})
try:
    waitpid(stalled.pid, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(code, stalled.code, reaped)
"""


@pytest.mark.skipif(os.name != "posix", reason="the worker is stopped with SIGSTOP")
@pytest.mark.parametrize("command", ["simulate", "solve-exact"])
def test_stalled_worker_makes_no_command_wait(tmp_path, monkeypatch, command):
    """A worker stopped right after it starts costs a command no wait: run
    in a child interpreter, the command exits 0 well within the timeout,
    writes the bytes of a run with one usable CPU, and leaves the worker
    killed and reaped.  simulate's 200 trajectories hold 232k floats."""
    spec = lq.random_game(4, 48, 8, 4, seed=4, scale=0.3).with_tau(20.0)  # the game of JSON_COMMANDS
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    policy = lq.dump_joint_policy(lq.exact_ne(spec).policy)

    def argv(out) -> list:
        out.mkdir()
        (out / "policy.json").write_text(policy)  # simulate samples it; solve-exact replaces it
        extra = ["--n-traj", "200", "--seed", "3"] if command == "simulate" else []
        return [command, "--spec", str(spec_path), "--out", str(out), *extra]

    with monkeypatch.context() as m:
        m.setattr(_text, "_usable_cpus", lambda: 1)
        assert run(*argv(tmp_path / "serial")) == 0
    src = os.path.dirname(os.path.dirname(lq.__file__))
    script = _STALLED.format(src=src, argv=argv(tmp_path / "stalled"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 {-signal.SIGKILL} True"
    serial = {path.name: path.read_bytes() for path in (tmp_path / "serial").iterdir()}
    assert {path.name: path.read_bytes() for path in (tmp_path / "stalled").iterdir()} == serial


@pytest.mark.parametrize("missing", ["memfd_create", "sched_getaffinity"])
@pytest.mark.parametrize("command", ["simulate", "solve-exact"])
def test_no_worker_without_memfd_create(tmp_path, workers, monkeypatch, missing, command):
    """Where ``os.memfd_create`` or ``os.sched_getaffinity`` is missing, as
    off Linux, a command starts no process, even with two usable CPUs, and
    writes the bytes of a run with one.  simulate's 200 trajectories hold
    232k floats."""
    spec = lq.random_game(4, 48, 8, 4, seed=4, scale=0.3).with_tau(20.0)  # the game of JSON_COMMANDS
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    policy = lq.dump_joint_policy(lq.exact_ne(spec).policy)

    def outputs(out) -> dict:
        out.mkdir()
        (out / "policy.json").write_text(policy)  # simulate samples it; solve-exact replaces it
        extra = ["--n-traj", 200, "--seed", 3] if command == "simulate" else []
        assert run(command, "--spec", spec_path, "--out", out, *extra) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    with monkeypatch.context() as m:
        m.setattr(_text, "_usable_cpus", lambda: 1)
        serial = outputs(tmp_path / "serial")
    monkeypatch.delattr(os, missing)
    assert outputs(tmp_path / "without") == serial
    assert workers == {}


@pytest.mark.parametrize("existing", [True, False], ids=["replaced", "new"])
@pytest.mark.parametrize("links", [True, False], ids=["hard-link", "copy"])
def test_commit_restores_targets_when_a_move_fails(scalar_spec_file, tmp_path, monkeypatch, capsys, existing, links):
    """A command whose second file cannot be moved into place, or is
    interrupted there, leaves every target as it was, and no staged or
    backup file, and prints no ``wrote`` line.  A failed move exits 4; an
    interrupt propagates as it is."""
    out = tmp_path / "run"
    out.mkdir()
    if existing:
        (out / "policy.json").write_text("old policy\n")
        (out / "certificate.json").write_text("old certificate\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    real_replace, moves = os.replace, []

    def replace(src, dst):
        moves.append(dst)
        if len(moves) == 2:
            raise error
        return real_replace(src, dst)

    def no_link(src, dst):
        raise OSError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "replace", replace)
    if not links:
        monkeypatch.setattr(os, "link", no_link)
    error = OSError(errno.EIO, "Input/output error")
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 4
    printed = capsys.readouterr()
    assert f"error (io): cannot write {out / 'certificate.json'}: " in printed.err
    assert "wrote" not in printed.out
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    error, moves[:] = KeyboardInterrupt(), []
    with pytest.raises(KeyboardInterrupt):
        run("solve-exact", "--spec", scalar_spec_file, "--out", out)
    assert "wrote" not in capsys.readouterr().out
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


_SPAWNED = """\
import sys
sys.path.insert(0, {src!r})
import lqnash.cli
print("subprocess" in sys.modules)
from lqnash import _text
start = _text.start


def started():
    start()
    print(_text._worker is not None)


_text.start, _text._usable_cpus, _text._WORKER_MIN_VALUES = started, lambda: 2, 1
code = lqnash.cli.main({argv!r})
print(code, "subprocess" in sys.modules)
"""


def test_import_loads_no_subprocess(traj_game):
    """Neither importing the CLI nor a simulate that starts a worker, run
    in a fresh interpreter, imports subprocess."""
    _, spec_path, out = traj_game
    src = os.path.dirname(os.path.dirname(lq.__file__))
    code = _SPAWNED.format(src=src, argv=["simulate", "--spec", str(spec_path), "--out", str(out), "--n-traj", "50"])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[1], lines[-1]) == ("False", "True", "0 False")


def test_po_divergence_exit_code(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run("randgen", "--out", gen, "--agents", 3, "--horizon", 400, "--state-dim", 4,
               "--action-dim", 2, "--seed", 3, "--scale", 1.5) == 0
    out = tmp_path / "po"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("solve-po", "--spec", gen / "spec.json", "--out", out, "--inner-iters", 50)
    assert code == 3
    assert "stage" in capsys.readouterr().err
    assert not (out / "policy.json").exists()


def test_po_divergence_exit_code_with_warnings_as_errors(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run("randgen", "--out", gen, "--agents", 3, "--horizon", 400, "--state-dim", 4,
               "--action-dim", 2, "--seed", 3, "--scale", 1.5) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("solve-po", "--spec", gen / "spec.json", "--out", tmp_path / "po",
                   "--inner-iters", 50)
    assert code == 3
    assert "stage 399: inner iteration diverged" in capsys.readouterr().err
    assert not (tmp_path / "po" / "policy.json").exists()


@pytest.mark.parametrize("command", ["solve-exact", "solve-po"])
def test_exact_overflow_exit_code(tmp_path, capsys, command):
    # Both solvers check the open-loop values; PO used to certify a cost of 1.5e200.
    path = tmp_path / "overflow.json"
    path.write_text(
        '{"num_agents": 1, "horizon": 2, "state_dim": 1, "action_dim": 1, "tau": 1,'
        ' "A": [[[1e100]], [[1e100]]], "B": 1, "Q": 1, "R": 1,'
        ' "noise_cov": 0, "init_mean": 1, "init_cov": 0}'
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(command, "--spec", path, "--out", out)
    assert code == 3
    assert "stage 0:" in capsys.readouterr().err
    assert not (out / "policy.json").exists()
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("command", ["solve-po", "check", "solve-exact", "augment"])
def test_input_norm_overflow_exit_code(tmp_path, capsys, command):
    # gamma_B**2 and B^T P B overflow; every command names the failing stage
    path = tmp_path / "huge_input.json"
    path.write_text(
        '{"num_agents": 2, "horizon": 1, "state_dim": 1, "action_dim": 1, "tau": 1,'
        ' "A": 1, "B": [1e160, 1], "Q": [[1, 1], [1, 1]], "R": [1, 1],'
        ' "noise_cov": 1, "init_mean": 1, "init_cov": 1}'
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command, "--spec", path, "--out", out)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error (solver):") and "stage 0: stage matrices are not finite" in err
    assert not (out / "policy.json").exists()


def _encoded(doc) -> bytes:
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


def _reference_spec(spec) -> bytes:
    fields = ("A", "B", "Q", "R", "noise_cov", "init_mean", "init_cov")
    return _encoded(
        {"num_agents": spec.num_agents, "horizon": spec.horizon, "state_dim": spec.state_dim,
         "action_dim": spec.action_dim, "tau": float(spec.tau),
         **{f: getattr(spec, f).tolist() for f in fields}}
    )


def _reference_policy(joint) -> bytes:
    gains, covs = joint.gains, joint.covs
    return _encoded(
        {"num_agents": joint.num_agents, "horizon": joint.horizon, "state_dim": gains.shape[3],
         "action_dim": gains.shape[2], "gains": gains.tolist(), "covs": covs.tolist()}
    )


def _reference_certificate(spec, P, q) -> dict:
    agents = []
    for i in range(spec.num_agents):
        mean_term = spec.init_mean @ P[i, 0] @ spec.init_mean
        agents.append({
            "expected_cost": float(mean_term + np.trace(spec.init_cov @ P[i, 0]) + q[i, 0]),
            "value_at_init_mean": float(mean_term + q[i, 0]),
            "P": P[i].tolist(),
            "q": q[i].tolist(),
        })
    return {"agents": agents}


def _reference_condition(spec, record) -> dict:
    return {"tau": float(spec.tau), "gamma_B": record.gamma_B, "gamma_P": record.gamma_P,
            "threshold": record.threshold, "margin": record.margin, "satisfied": record.satisfied}


def test_json_outputs_match_json_encoder(tmp_path):
    """Every JSON file the CLI writes has the bytes of json.dumps(indent=2)
    over the tolist()-ed results of the library calls behind it."""
    gen = tmp_path / "gen"
    assert run("randgen", "--out", gen, "--agents", 2, "--horizon", 3, "--state-dim", 2,
               "--action-dim", 3, "--seed", 11, "--scale", 0.8) == 0
    spec = lq.random_game(2, 3, 2, 3, seed=11, scale=0.8)
    spec_path = gen / "spec.json"
    assert spec_path.read_bytes() == _reference_spec(spec)

    exact, po, chk, aug = (tmp_path / d for d in ("exact", "po", "chk", "aug"))
    assert run("solve-exact", "--spec", spec_path, "--out", exact) == 0
    sol = lq.exact_ne(spec)
    assert (exact / "policy.json").read_bytes() == _reference_policy(sol.policy)
    assert (exact / "certificate.json").read_bytes() == _encoded(
        _reference_certificate(spec, sol.riccati, sol.offsets)
    )

    assert run("solve-po", "--spec", spec_path, "--out", po, "--inner-iters", 40) == 0
    po_policy = lq.po_solve(spec, inner_iters=40).policy
    assert (po / "policy.json").read_bytes() == _reference_policy(po_policy)

    assert run("check", "--spec", spec_path, "--out", chk) == 0
    record = lq.check_assumption_tau(spec, sol)
    assert not record.satisfied
    assert (chk / "condition.json").read_bytes() == _encoded(_reference_condition(spec, record))

    assert run("augment", "--spec", spec_path, "--out", aug, "--delta-init", 0.1,
               "--max-rounds", 30) == 0
    report = lq.delta_augment_solve(spec, delta_init=0.1, max_rounds=30)
    assert (aug / "policy.json").read_bytes() == _reference_policy(report.policy)
    doc = _reference_condition(spec, report.condition)
    doc["delta_used"] = report.delta_used
    doc["exploitability"] = [float(g) for g in report.nash_gaps]
    assert (aug / "condition.json").read_bytes() == _encoded(doc)

    assert run("eval", "--spec", spec_path, "--out", po, "--compare", exact / "policy.json") == 0
    cert = lq.value_certificate(spec, po_policy)
    doc = _reference_certificate(spec, cert.P, cert.q)
    doc["exploitability"] = [float(g) for g in lq.exploitability(spec, po_policy)]
    doc["compare_distance"] = lq.policy_distance(po_policy, sol.policy)
    assert (po / "certificate.json").read_bytes() == _encoded(doc)


def test_eval_certificate_computed_once(tmp_path, monkeypatch):
    """eval writes the bytes of value_certificate plus exploitability, but
    computes the certificate once."""
    spec = lq.random_game(3, 4, 3, 2, seed=17, scale=0.5).with_tau(5.0)
    spec_path = tmp_path / "game.json"
    spec_path.write_text(lq.dump_game_spec(spec))
    out = tmp_path / "run"
    out.mkdir()
    (out / "policy.json").write_text(lq.dump_joint_policy(random_pd_policy(spec, np.random.default_rng(17))))
    joint = lq.load_joint_policy((out / "policy.json").read_text())
    cert = lq.value_certificate(spec, joint)
    doc = _reference_certificate(spec, cert.P, cert.q)
    doc["exploitability"] = [float(g) for g in lq.exploitability(spec, joint)]
    assert max(doc["exploitability"]) > 1e-6  # not an equilibrium

    calls = []

    def counted(*args):
        calls.append(args)
        return lq.value_certificate(*args)

    monkeypatch.setattr(cli, "value_certificate", counted)
    monkeypatch.setattr(lq.evaluate, "value_certificate", counted)
    assert run("eval", "--spec", spec_path, "--out", out) == 0
    assert len(calls) == 1
    assert (out / "certificate.json").read_bytes() == _encoded(doc)


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(SCALAR_GAME_TEXT.replace('"tau": 2', '"tau": -1'))
    assert run("solve-exact", "--spec", bad, "--out", tmp_path / "o") == 2
    assert "tau" in capsys.readouterr().err


def test_solver_error_exit_code(tmp_path, capsys):
    text = (
        '{"num_agents": 2, "horizon": 1, "state_dim": 2, "action_dim": 2,'
        ' "tau": 1e-13,'
        ' "A": [[1.0, 0.0], [0.0, 1.0]],'
        ' "B": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],'
        ' "Q": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],'
        ' "R": [[[1e-13, 0.0], [0.0, 1e-13]], [[1e-13, 0.0], [0.0, 1e-13]]],'
        ' "noise_cov": [[0.0, 0.0], [0.0, 0.0]], "init_mean": [0.0, 0.0],'
        ' "init_cov": [[0.0, 0.0], [0.0, 0.0]]}'
    )
    path = tmp_path / "singular.json"
    path.write_text(text)
    assert run("solve-exact", "--spec", path, "--out", tmp_path / "o") == 3
    assert "stage" in capsys.readouterr().err


def test_io_error_exit_code(scalar_spec_file, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", blocker / "sub") == 4


def test_missing_spec_file(tmp_path):
    assert run("solve-exact", "--spec", tmp_path / "absent.json", "--out", tmp_path / "o") == 4


def test_eval_policy_spec_mismatch(scalar_spec_file, tmp_path, capsys):
    other = lq.random_game(2, 3, 2, 1, seed=1, scale=0.5)
    out = tmp_path / "run"
    out.mkdir()
    (out / "policy.json").write_text(lq.dump_joint_policy(lq.exact_ne(other).policy))
    assert run("eval", "--spec", scalar_spec_file, "--out", out) == 2
    assert "does not match" in capsys.readouterr().err


def _spec_with(tmp_path, **fields):
    doc = json.loads(SCALAR_GAME_TEXT)
    doc.update({"state_dim": 2, "A": [[1, 0], [0, 1]], "B": [[1], [0]], "Q": [[1, 0], [0, 1]],
                "noise_cov": [[1, 0], [0, 1]], "init_mean": [0, 0], "init_cov": [[1, 0], [0, 1]]})
    doc.update(fields)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("field, value, message", [
    # The Frobenius norm of Q overflows; its min eigenvalue is -1e300.
    ("Q", [[1e300, 0], [0, -1e300]], "Q[0][0]: not positive semidefinite"),
    ("Q", [[0, 1.5e308], [-1.5e308, 0]], "Q: not symmetric"),
    # (X + X^T)/2 would overflow to inf.
    ("Q", [[1.5e308, 0], [0, 1]], "Q: entries too large"),
    ("R", [[1.5e308]], "R: entries too large"),
    ("noise_cov", [[1.5e308, 0], [0, 1]], "noise_cov: entries too large"),
    ("init_cov", [[1, 0], [0, 1.5e308]], "init_cov: entries too large"),
])
def test_huge_symmetric_fields_rejected_by_name(tmp_path, capsys, field, value, message):
    path = _spec_with(tmp_path, **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("check", "--spec", path, "--out", tmp_path / "o")
    assert code == 2
    assert f"error (validation): {message}" in capsys.readouterr().err


def test_huge_symmetric_field_within_range_loads(tmp_path):
    path = _spec_with(tmp_path, Q=[[1e200, 0], [0, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = lq.load_game_spec(path.read_text())
    assert spec.Q[0, 0, 0, 0] == 1e200


def test_tiny_asymmetric_field_rejected(tmp_path, capsys):
    # Far from symmetric at its own scale; repaired, it would be indefinite
    # (min eigenvalue -5e-13), though both defects are below 1e-9 in absolute terms.
    path = _spec_with(tmp_path, Q=[[1e-20, 1e-12], [0, 1e-20]])
    assert run("check", "--spec", path, "--out", tmp_path / "o") == 2
    assert "error (validation): Q: not symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["1e150", "1e154", "1e200"])
def test_randgen_huge_scale_is_valid_or_a_validation_error(tmp_path, capsys, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("randgen", "--out", tmp_path / "gen", "--agents", 2, "--horizon", 3, "--state-dim", 2,
                   "--action-dim", 1, "--seed", 0, "--scale", scale)
    assert code in (0, 2)
    if code == 2:
        assert "error (validation): scale: " in capsys.readouterr().err
