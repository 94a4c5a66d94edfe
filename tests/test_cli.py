import contextlib
import csv
import errno
import gc
import io
import json
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lqnash as lq
from lqnash import _csvrows, cli
from lqnash.cli import main

from conftest import SCALAR_GAME_TEXT, random_pd_policy


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
    assert "expected cost" in capsys.readouterr().out


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
        cli._write_trace(files.write, tmp_path / "trace.csv", report)
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
    n_traj = 2 * cli._TRAJ_CHUNK + 7  # several chunks, the last one partial
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
    """Every worker process started, with two CPUs usable and any share of
    trajectories large enough to start one."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_WORKER_MIN_VALUES", 1)
    return started


def _simulate(traj_game, n_traj, seed=5):
    """Run simulate into the game's --out; the expected trajectories.csv bytes."""
    spec, spec_path, out = traj_game
    assert run("simulate", "--spec", spec_path, "--out", out, "--n-traj", n_traj, "--seed", seed) == 0
    joint = lq.load_joint_policy((out / "policy.json").read_text())
    return _reference_trajectories_csv(lq.simulate(spec, joint, n_traj, seed), spec).encode()


def _serial_bytes(traj_game, n_traj, monkeypatch, seed=5):
    with monkeypatch.context() as m:
        m.setattr(cli, "_usable_cpus", lambda: 1)
        _simulate(traj_game, n_traj, seed)
    return (traj_game[2] / "trajectories.csv").read_bytes()


def _assert_nothing_left(out, started, files=("certificate.json", "costs.csv", "policy.json", "trajectories.csv")):
    """No worker process is running or unreaped, and ``out`` holds no temporary file."""
    for proc in started:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)
    assert sorted(p.name for p in out.iterdir()) == list(files)


@contextlib.contextmanager
def _no_resource_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("n_traj", [1, 3 * cli._TRAJ_CHUNK - 1, 3 * cli._TRAJ_CHUNK, 3 * cli._TRAJ_CHUNK + 1])
def test_split_trajectories_match_serial(traj_game, workers, monkeypatch, n_traj):
    expected = _simulate(traj_game, n_traj)
    assert [proc.returncode for proc in workers] == [0]
    split = (traj_game[2] / "trajectories.csv").read_bytes()
    assert split == expected
    assert _serial_bytes(traj_game, n_traj, monkeypatch) == expected
    assert len(workers) == 1  # the serial run started none
    _assert_nothing_left(traj_game[2], workers)


def test_split_at_every_chunk_boundary(traj_game, workers, monkeypatch):
    monkeypatch.setattr(cli, "_TRAJ_CHUNK", 4)
    n_traj = 14
    serial = _serial_bytes(traj_game, n_traj, monkeypatch)
    for split in range(0, n_traj, 4):
        monkeypatch.setattr(cli, "_split", lambda n, values: split)
        assert _simulate(traj_game, n_traj) == serial
        assert (traj_game[2] / "trajectories.csv").read_bytes() == serial
    assert [proc.returncode for proc in workers] == [0] * 4
    _assert_nothing_left(traj_game[2], workers)


def test_worker_rule(monkeypatch):
    """A worker takes the rows after the first half, in whole chunks, only with
    two usable CPUs, an interpreter to start and a share worth its start-up."""
    assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)
    chunk = cli._TRAJ_CHUNK
    n_traj, values = 2 * chunk + 1, cli._WORKER_MIN_VALUES
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert cli._split(n_traj, values) == chunk
    assert cli._split(n_traj, 1) == n_traj  # too small a share
    with monkeypatch.context() as m:
        m.setattr(sys, "executable", "")
        assert cli._split(n_traj, values) == n_traj
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._split(n_traj, values) == n_traj


def _fake_python(tmp_path, action):
    """An executable that writes some text to stdout, then runs ``action``."""
    path = tmp_path / "fake-python"
    path.write_text(f"#!{sys.executable}\nimport os, signal, sys, time\n"
                    f"sys.stdout.buffer.write(b'0,0,partial'); sys.stdout.flush()\n{action}\n")
    path.chmod(0o755)
    return str(path)


@pytest.mark.skipif(os.name != "posix", reason="the fake worker is a script run through its #! line")
@pytest.mark.parametrize("action, code", [("sys.exit(3)", 3), ("os.kill(os.getpid(), signal.SIGKILL)", -9)],
                         ids=["exits-nonzero", "killed-mid-write"])
def test_failed_worker_gives_serial_bytes(traj_game, workers, monkeypatch, tmp_path, action, code):
    n_traj = 2 * cli._TRAJ_CHUNK + 7
    serial = _serial_bytes(traj_game, n_traj, monkeypatch)
    monkeypatch.setattr(sys, "executable", _fake_python(tmp_path, action))
    with _no_resource_warning():
        assert _simulate(traj_game, n_traj) == serial
    assert (traj_game[2] / "trajectories.csv").read_bytes() == serial
    assert [proc.returncode for proc in workers] == [code]
    _assert_nothing_left(traj_game[2], workers)


def test_worker_that_cannot_start_gives_serial_bytes(traj_game, workers, monkeypatch, tmp_path):
    n_traj = 2 * cli._TRAJ_CHUNK + 7
    serial = _serial_bytes(traj_game, n_traj, monkeypatch)
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    with _no_resource_warning():
        assert _simulate(traj_game, n_traj) == serial
    assert (traj_game[2] / "trajectories.csv").read_bytes() == serial
    assert workers == []
    _assert_nothing_left(traj_game[2], workers)


@pytest.mark.skipif(os.name != "posix", reason="the fake worker is a script run through its #! line")
@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_parent_write_error_kills_worker(traj_game, workers, monkeypatch, tmp_path, capsys, error):
    monkeypatch.setattr(cli, "_TRAJ_CHUNK", 4)
    # A worker that would outlive the test unless it is killed.
    monkeypatch.setattr(sys, "executable", _fake_python(tmp_path, "time.sleep(60)"))
    real_open = open

    def failing_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        writes = 0
        write = fh.write

        def write_twice(text):  # the header, then the first chunk
            nonlocal writes
            writes += 1
            if writes > 2:
                raise error
            return write(text)

        fh.write = write_twice
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    _, spec_path, out = traj_game
    argv = ["simulate", "--spec", spec_path, "--out", out, "--n-traj", 32]
    with _no_resource_warning():
        if isinstance(error, OSError):
            assert run(*argv) == 4
            assert f"error (io): cannot write {out / 'trajectories.csv'}: " in capsys.readouterr().err
        else:
            with pytest.raises(KeyboardInterrupt):
                run(*argv)
    assert [proc.returncode for proc in workers] == [-signal.SIGKILL]
    _assert_nothing_left(out, workers, ("certificate.json", "policy.json"))  # no part of trajectories.csv


def test_worker_script_rejects_short_input():
    """The worker, run as the CLI runs it, exits nonzero when its input ends early."""
    # One trajectory of T=1, m=3, width=3: six state values, then three action values.
    floats = np.arange(9, dtype=np.float64).tobytes()
    argv = [sys.executable, "-I", "-S", _csvrows.__file__, "0", "1", "1", "3", "3", "64"]
    done = subprocess.run(argv, input=floats[:-8], capture_output=True, timeout=60)
    assert done.returncode != 0 and b"EOFError" in done.stderr
    done = subprocess.run(argv, input=floats, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == b"0,0,0.0,1.0,2.0,6.0,7.0,8.0\n0,1,3.0,4.0,5.0,,,\n"


def test_import_loads_no_subprocess():
    src = os.path.dirname(os.path.dirname(lq.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import lqnash.cli; print('subprocess' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout == "False\n"


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
        assert "error (validation):" in capsys.readouterr().err
