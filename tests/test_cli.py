import argparse
import contextlib
import csv
import errno
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lqnash as lq
from lqnash import cli, model
from lqnash.cli import main

from conftest import (BOUNDARY_FLOATS, SCALAR_GAME_TEXT, finite_float_arrays, overflowing_policies, random_pd_policy,
                      singular_game_text)


@pytest.fixture
def scalar_spec_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(SCALAR_GAME_TEXT)
    return path


def run(*argv):
    return main([str(a) for a in argv])


# The library function each command's options feed; eval's --compare feeds none.
LIBRARY = {"randgen": lq.random_game, "solve-exact": lq.check_assumption_tau, "solve-po": lq.po_solve,
           "check": lq.check_assumption_tau, "augment": lq.delta_augment_solve, "eval": None, "simulate": lq.simulate}


@pytest.mark.parametrize("command", sorted(LIBRARY))
def test_left_out_options_take_the_library_defaults(command):
    """Parsed with only its required flags, a command sets no attribute for
    an option whose library parameter has a default, nor for one that feeds
    no parameter (--tau, --compare), so the library's default is in force;
    it sets one only for a parameter without a default."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == sorted(LIBRARY)
    actions = commands.choices[command]._actions
    args = parser.parse_args([command] + [s for a in actions if a.required for s in (a.option_strings[0], "1")])
    params = inspect.signature(LIBRARY[command]).parameters if LIBRARY[command] else {}
    options = [a.dest for a in actions if a.option_strings and not a.required and a.dest != "help"]
    assert options
    for dest in options:
        no_default = dest in params and params[dest].default is inspect.Parameter.empty
        assert (dest in args) == no_default, dest


def test_reused_parser_keeps_no_state_between_calls(scalar_spec_file, tmp_path):
    """main parses with one parser per process.  After a call that argparse
    rejects, having parsed --margin, a call that leaves the options out
    writes what it writes in a fresh interpreter."""
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as rejected:
        run("augment", "--spec", scalar_spec_file, "--out", tmp_path / "bad", "--margin", 0.5, "--growth", "x")
    assert rejected.value.code == 2
    assert run("augment", "--spec", scalar_spec_file, "--out", tmp_path / "here") == 0
    src = os.path.dirname(os.path.dirname(lq.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "lqnash.cli", "augment", "--spec", str(scalar_spec_file), "--out", str(tmp_path / "fresh")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    here, fresh = ({path.name: path.read_bytes() for path in (tmp_path / d).iterdir()} for d in ("here", "fresh"))
    assert "condition.json" in fresh and here == fresh


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


@pytest.mark.parametrize("compare, code, message", [
    (None, 4, "error (io): cannot read comparison policy "),
    ("spec", 2, "error (validation): gains: missing required key"),
], ids=["missing", "malformed"])
def test_eval_prints_nothing_when_its_comparison_fails(scalar_spec_file, tmp_path, capsys, compare, code, message):
    """eval prints its summary only once its certificate is staged, as every
    command does, so a comparison policy it cannot read leaves stdout empty."""
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    capsys.readouterr()
    other = scalar_spec_file if compare == "spec" else tmp_path / "absent.json"
    assert run("eval", "--spec", scalar_spec_file, "--out", out, "--compare", other) == code
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(message)


@pytest.mark.parametrize("command, bad", [
    ("solve-exact", "spec"), ("eval", "policy"), ("simulate", "policy"), ("eval", "compare"), ("check", "non-utf8"),
], ids=["spec", "eval-policy", "simulate-policy", "compare", "non-utf8"])
def test_load_error_names_its_document(scalar_spec_file, tmp_path, capsys, command, bad):
    """A document that does not load, or is not UTF-8, is a validation error
    whose message ends with the document's label and path."""
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    capsys.readouterr()
    broken = out / "policy.json" if bad == "policy" else tmp_path / "broken.json"
    # A policy given as the spec, the spec given as a policy, or a byte that is not UTF-8.
    texts = {"spec": (out / "policy.json").read_bytes(), "non-utf8": b'{"A": "\xff"}'}
    broken.write_bytes(texts.get(bad, SCALAR_GAME_TEXT.encode()))
    spec = broken if bad in ("spec", "non-utf8") else scalar_spec_file
    extra = ["--compare", broken] if bad == "compare" else []
    assert run(command, "--spec", spec, "--out", out, *extra) == 2
    message, label = {
        "spec": ("tau: missing required key", "spec file"),
        "policy": ("gains: missing required key", "policy file"),
        "compare": ("gains: missing required key", "comparison policy"),
        "non-utf8": ("'utf-8' codec can't decode byte 0xff in position 7: invalid start byte", "spec file"),
    }[bad]
    assert capsys.readouterr().err == f"error (validation): {message} ({label} {broken})\n"


@pytest.mark.parametrize("command", ["simulate", "randgen"])
def test_arrays_too_large_to_allocate_exit_code(scalar_spec_file, tmp_path, capsys, command):
    """A size whose first array takes 2**59 or 2**60 bytes, more than any
    address space maps and less than the 2**63 past which numpy raises
    ValueError itself, is a validation error that writes no file."""
    out = tmp_path / "run"
    out.mkdir()
    if command == "simulate":
        assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
        argv = ["--spec", scalar_spec_file, "--n-traj", 2**56]  # states (2**56, 2, 1)
    else:
        argv = ["--agents", 1, "--horizon", 1, "--state-dim", 2**28, "--action-dim", 1]  # A (1, 2**28, 2**28)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert run(command, *argv, "--out", out) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error (validation): Unable to allocate ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


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


def _reference_trajectories_csv(states, actions) -> str:
    """trajectories.csv as a row-by-row csv.writer writes it."""
    _, T, n, p = actions.shape
    m = states.shape[2]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["traj_id", "t"] + [f"x{k}" for k in range(m)]
    for i in range(n):
        header += [f"u{i}_{k}" for k in range(p)]
    writer.writerow(header)
    for r in range(states.shape[0]):
        for t in range(T + 1):
            row: list = [r, t] + [float(v) for v in states[r, t]]
            if t < T:
                for i in range(n):
                    row += [float(v) for v in actions[r, t, i]]
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
    result = lq.simulate(spec, joint, n_traj, 2**40 + 3)
    expected = _reference_trajectories_csv(result.states, result.actions)
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


def _refuse_processes(monkeypatch, tmp_path):
    """Make any attempt to start another process fail the test, and leave
    no interpreter to start."""
    def refused(*args, **kwargs):
        raise AssertionError("a process was started")

    for name in ("posix_spawn", "posix_spawnp", "fork", "spawnv", "spawnve", "system"):
        monkeypatch.setattr(os, name, refused, raising=False)
    monkeypatch.setattr(subprocess.Popen, "__init__", refused)
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))


@pytest.fixture
def no_process(monkeypatch, tmp_path):
    """Every output is laid out in this process: starting another fails the test."""
    _refuse_processes(monkeypatch, tmp_path)


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


def _simulate(traj_game, n_traj, seed=5):
    """Run simulate into the game's --out; the expected trajectories.csv bytes."""
    spec, spec_path, out = traj_game
    assert run("simulate", "--spec", spec_path, "--out", out, "--n-traj", n_traj, "--seed", seed) == 0
    joint = lq.load_joint_policy((out / "policy.json").read_text())
    result = lq.simulate(spec, joint, n_traj, seed)
    return _reference_trajectories_csv(result.states, result.actions).encode()


@pytest.mark.parametrize("n_traj", [1, 3 * cli._TRAJ_CHUNK - 1, 3 * cli._TRAJ_CHUNK, 3 * cli._TRAJ_CHUNK + 1])
def test_split_trajectories_match_serial(traj_game, no_process, n_traj):
    """trajectories.csv, split into pieces of ``_TRAJ_CHUNK`` trajectories,
    has the bytes of a serial, row-by-row csv.writer where the last piece is
    whole, one short or one long."""
    expected = _simulate(traj_game, n_traj)
    assert (traj_game[2] / "trajectories.csv").read_bytes() == expected


def test_simulate_writes_pieces_of_64_trajectories(tmp_path, monkeypatch):
    """100 trajectories of 400 floats start no process and are laid out in
    two pieces of rows, of 64 and 36 trajectories, with the bytes of a
    row-by-row csv.writer."""
    spec = lq.random_game(2, 66, 4, 1, seed=3, scale=0.3).with_tau(20.0)
    assert (spec.horizon + 1) * spec.state_dim + spec.horizon * spec.num_agents * spec.action_dim == 400
    spec_path, out = tmp_path / "game.json", tmp_path / "run"
    spec_path.write_text(lq.dump_game_spec(spec))
    assert run("solve-exact", "--spec", spec_path, "--out", out) == 0
    pieces, real = [], cli._write_trajectories

    def recorded(states, actions):
        for piece in real(states, actions):
            pieces.append(piece)
            yield piece

    monkeypatch.setattr(cli, "_write_trajectories", recorded)
    _refuse_processes(monkeypatch, tmp_path)
    assert run("simulate", "--spec", spec_path, "--out", out, "--n-traj", 100, "--seed", 5) == 0
    rows = spec.horizon + 1
    assert [(piece.split(b",", 2)[:2], piece.count(b"\n")) for piece in pieces[1:]] == [
        ([b"0", b"0"], 64 * rows), ([b"64", b"0"], 36 * rows)]
    result = lq.simulate(spec, lq.load_joint_policy((out / "policy.json").read_text()), 100, 5)
    expected = _reference_trajectories_csv(result.states, result.actions).encode()
    assert (out / "trajectories.csv").read_bytes() == expected


JSON_COMMANDS = {"randgen": ["--agents", 4, "--horizon", 48, "--state-dim", 8, "--action-dim", 4, "--seed", 4],
                 "solve-exact": [], "check": [], "solve-po": [], "augment": ["--delta-init", 0.1], "eval": []}


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_commands_start_no_worker(tmp_path, no_process, command):
    """A command that writes JSON starts no other process, and each JSON
    file it writes for a game of 9k-25k floats per document is what
    json.dumps(indent=2) writes for the values it holds."""
    spec = lq.random_game(4, 48, 8, 4, seed=4, scale=0.3).with_tau(20.0)
    spec_path, out = tmp_path / "game.json", tmp_path / "run"
    spec_path.write_text(lq.dump_game_spec(spec))
    out.mkdir()
    if command == "eval":  # it certifies the policy in --out
        (out / "policy.json").write_text(lq.dump_joint_policy(lq.exact_ne(spec).policy))
    spec_args = [] if command == "randgen" else ["--spec", spec_path]
    assert run(command, *spec_args, "--out", out, *JSON_COMMANDS[command]) == 0
    written = sorted(path.name for path in out.iterdir())
    assert written == {"randgen": ["spec.json"], "check": ["condition.json"], "eval": ["certificate.json", "policy.json"],
                       "solve-po": ["policy.json", "trace.csv"], "augment": ["condition.json", "policy.json", "trace.csv"],
                       "solve-exact": ["certificate.json", "policy.json"]}[command]
    for name in written:
        if name.endswith(".json"):
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", name


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
        result = lq.simulate(spec, sol.policy, n_traj, 5)
        expected = _reference_trajectories_csv(result.states, result.actions)
        return lambda: _trajectories_csv(spec, n_traj), expected.encode()

    return {"spec": (lambda: lq.dump_game_spec(spec), _reference_spec(spec)),
            "policy": (lambda: lq.dump_joint_policy(sol.policy), _reference_policy(sol.policy)),
            "certificate": (lambda: model._dumps(doc), _encoded(reference)),
            "trajectories": trajectories(14), "one-trajectory": trajectories(1)}


@pytest.mark.parametrize("kind", ["spec", "policy", "certificate", "trajectories", "one-trajectory"])
@pytest.mark.parametrize("blocks", [(cli._TRAJ_CHUNK,), (1, 2, 3, 4, 5)], ids=["blocks", "small-blocks"])
def test_every_split_point_matches_serial(monkeypatch, kind, blocks):
    """Every document has the bytes of json.dumps(indent=2) or of a serial,
    row-by-row csv.writer, with trajectories.csv in pieces of each size in
    ``blocks``: pieces of one trajectory split it after every trajectory."""
    spec = lq.random_game(2, 3, 3, 2, seed=21, scale=0.3).with_tau(20.0)
    text, expected = _documents(spec)[kind]
    for size in blocks:
        monkeypatch.setattr(cli, "_TRAJ_CHUNK", size)
        assert text().encode() == expected, size


@given(st.integers(1, 70), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.data())
def test_trajectories_match_csv_writer_for_any_float(n_traj, T, m, n, p, data):
    """States and actions of any finite float64, drawn by ``st.floats`` or
    from raw bit patterns, are written as a row-by-row csv.writer writes
    them, in one piece or more."""
    states = data.draw(finite_float_arrays((n_traj, T + 1, m)))
    actions = data.draw(finite_float_arrays((n_traj, T, n, p)))
    pieces = cli._write_trajectories(states, actions)
    text = "".join([piece if isinstance(piece, str) else piece.decode() for piece in pieces])
    assert text == _reference_trajectories_csv(states, actions)


def test_trajectories_boundary_floats():
    """Each boundary float, as a state and as an action, is written as a
    row-by-row csv.writer writes it."""
    values = np.array(BOUNDARY_FLOATS)
    states = np.stack([values, values[::-1]], axis=1).reshape(-1, 2, 1)
    actions = np.stack([values[::-1], values], axis=1).reshape(-1, 1, 1, 2)
    pieces = cli._write_trajectories(states, actions)
    text = "".join([piece if isinstance(piece, str) else piece.decode() for piece in pieces])
    assert text == _reference_trajectories_csv(states, actions)


def _mixed_floats(rng, shape) -> np.ndarray:
    """Normals scaled by powers of ten from 1e-8 to 1e19, so about half are
    written with an exponent."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)


@pytest.mark.parametrize("T, m, n, p", [(1, 3, 2, 2), (4, 3, 1, 2), (3, 1, 2, 4)], ids=["T=1", "N=1", "p>m"])
def test_trajectories_edge_shapes(T, m, n, p):
    """A horizon of one, where every other row is terminal, one agent, and
    more action than state entries are each written as a row-by-row
    csv.writer writes them, in a whole piece and a partial one."""
    rng = np.random.default_rng(T + 10 * m + 100 * n + 1000 * p)
    n_traj = cli._TRAJ_CHUNK + 5
    states, actions = _mixed_floats(rng, (n_traj, T + 1, m)), _mixed_floats(rng, (n_traj, T, n, p))
    pieces = list(cli._write_trajectories(states, actions))
    assert len(pieces) == 3
    assert "".join([pieces[0], *[piece.decode() for piece in pieces[1:]]]) == _reference_trajectories_csv(states, actions)


@pytest.mark.parametrize("where", ["terminal", "body"])
def test_trajectories_exponent_float_in_one_text(monkeypatch, where):
    """An exponent float only in a terminal state, or only in a row before
    it, sets ``null`` in one of the piece's two texts alone and is written
    as repr writes it."""
    rng = np.random.default_rng(9)
    states, actions = rng.uniform(0.5, 2.0, (3, 3, 2)), rng.uniform(-2.0, -0.5, (3, 2, 2, 1))
    if where == "terminal":
        states[1, 2, 1] = 1e-07
    else:
        states[2, 0, 0], actions[0, 1, 1, 0] = -1e16, 9.503e-05
    real, held = model._orjson_text, []

    def recorded(value, floats, indent):
        held.append(len(floats))
        return real(value, floats, indent)

    monkeypatch.setattr(model, "_orjson_text", recorded)
    pieces = list(cli._write_trajectories(states, actions))
    assert held == ([0, 1] if where == "terminal" else [2, 0])
    text = pieces[0] + pieces[1].decode()
    assert text == _reference_trajectories_csv(states, actions)
    assert ("1e-07" in text) == (where == "terminal")
    assert ("-1e+16" in text) == (where == "body")


@pytest.mark.parametrize("n_traj", [1, 64, 65])
@pytest.mark.parametrize("chunk", [1, 2, 64])
def test_trajectories_any_piece_size(monkeypatch, chunk, n_traj):
    """Pieces of 1, 2 or 64 trajectories, each a whole number of lines, give
    the bytes of a row-by-row csv.writer for 1, 64 or 65 trajectories."""
    monkeypatch.setattr(cli, "_TRAJ_CHUNK", chunk)
    rng = np.random.default_rng(chunk * 100 + n_traj)
    states, actions = _mixed_floats(rng, (n_traj, 3, 2)), _mixed_floats(rng, (n_traj, 2, 2, 2))
    pieces = list(cli._write_trajectories(states, actions))
    assert [piece.count(b"\n") for piece in pieces[1:]] == [3 * min(chunk, n_traj - lo) for lo in range(0, n_traj, chunk)]
    assert "".join([pieces[0], *[piece.decode() for piece in pieces[1:]]]) == _reference_trajectories_csv(states, actions)


@contextlib.contextmanager
def _no_resource_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _failing_run(traj_game, tmp_path, monkeypatch, kind, failure=None):
    """argv of a command that writes ``kind``, the CSV or JSON outputs, into
    a new --out directory, with ``failure`` set up; the directory."""
    _, spec_path, game_out = traj_game
    out = tmp_path / "out"
    out.mkdir(parents=True)
    if kind == "csv":
        monkeypatch.setattr(cli, "_TRAJ_CHUNK", 4)
        argv = ["simulate", "--spec", spec_path, "--out", out, "--n-traj", 32]
        (out / "policy.json").write_bytes((game_out / "policy.json").read_bytes())
    else:
        argv = ["solve-exact", "--spec", spec_path, "--out", out]
    if failure == "cannot-start":
        _refuse_processes(monkeypatch, tmp_path)
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
        assert run("randgen", "--out", gen, "--agents", 3, "--horizon", 400, "--state-dim", 4,
                   "--action-dim", 2, "--seed", 3, "--scale", 1.5) == 0
        argv = ["solve-po", "--spec", gen / "spec.json", "--out", out, "--inner-iters", 50]
    elif failure == "exit-4":  # written after the large file
        (out / ("costs.csv" if kind == "csv" else "certificate.json")).mkdir()
    return argv, out


# Each way a command can fail, or find no process to start, and its exit
# code (None for an interrupt).
_FAILURES = {"cannot-start": 0, "write-oserror": 4, "write-interrupt": None, "exit-2": 2, "exit-3": 3, "exit-4": 4}


@pytest.mark.parametrize("kind, failure", [(kind, failure) for kind in ("csv", "json") for failure in _FAILURES
                                           if (kind, failure) != ("csv", "exit-3")])  # simulate runs no solver
def test_failed_worker_or_command(traj_game, monkeypatch, tmp_path, capsys, kind, failure):
    """A command that can start no other process writes the bytes of a
    plain run.  A command that fails, by an error of its own or by a write
    of a file in pieces, writes no file and prints no ``wrote`` line:
    ``--out`` holds what it held before, and no staged file.  No file is
    left open either way."""
    code = _FAILURES[failure]
    if code == 0:
        plain, plain_out = _failing_run(traj_game, tmp_path / "plain", monkeypatch, kind)
        assert run(*plain) == 0
        expected = {p.name: p.read_bytes() for p in plain_out.iterdir()}
    argv, out = _failing_run(traj_game, tmp_path, monkeypatch, kind, failure)
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()  # the set-up's commands
    with _no_resource_warning(), np.errstate(over="ignore", invalid="ignore"):
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                run(*argv)
        else:
            assert run(*argv) == code
    if code == 0:
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected
        return
    assert sorted(p.name for p in out.iterdir()) == before
    printed = capsys.readouterr()
    assert code is None or ("error (io): cannot write" if code == 4 else "error (") in printed.err
    assert "wrote" not in printed.out


def _json_argvs(root, spec_path) -> list:
    """argv of each command that writes JSON, run in turn on one game, with
    its --out directories under ``root``."""
    gen, exact, po, aug = (root / name for name in ("gen", "exact", "po", "aug"))
    dims = ["--agents", 2, "--horizon", 3, "--state-dim", 3, "--action-dim", 2]
    argvs = [["randgen", "--out", gen, *dims, "--seed", 4, "--scale", 0.3],
             ["solve-exact", "--spec", spec_path, "--out", exact],
             ["check", "--spec", spec_path, "--out", exact],
             ["solve-po", "--spec", spec_path, "--out", po],
             ["eval", "--spec", spec_path, "--out", po, "--compare", exact / "policy.json"],
             ["augment", "--spec", spec_path, "--out", aug, "--delta-init", 0.1]]
    return [[str(a) for a in argv] for argv in argvs]


def _json_files(root) -> dict:
    return {f"{out.name}/{path.name}": path.read_bytes() for out in root.iterdir() for path in out.glob("*.json")}


_ONE_CPU = """\
import os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
sys.path.insert(0, {src!r})
from lqnash.cli import main
for argv in {argvs!r}:
    assert main(argv) == 0, argv
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child interpreter to one CPU")
def test_json_outputs_match_one_cpu(traj_game, tmp_path):
    """Every JSON file the CLI writes has the same bytes in this process as
    in a fresh interpreter that may use one CPU only, so that numpy's
    threads cannot split its sums."""
    spec_path = traj_game[1]
    for argv in _json_argvs(tmp_path / "all", spec_path):
        assert main(argv) == 0, argv
    src = os.path.dirname(os.path.dirname(lq.__file__))
    script = _ONE_CPU.format(src=src, argvs=_json_argvs(tmp_path / "one", spec_path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    serial = _json_files(tmp_path / "one")
    assert _json_files(tmp_path / "all") == serial
    assert sorted(serial) == ["aug/condition.json", "aug/policy.json", "exact/certificate.json",
                              "exact/condition.json", "exact/policy.json", "gen/spec.json",
                              "po/certificate.json", "po/policy.json"]


@pytest.mark.parametrize("missing", ["memfd_create", "sched_getaffinity"])
@pytest.mark.parametrize("command", ["simulate", "solve-exact"])
def test_no_worker_without_memfd_create(tmp_path, monkeypatch, missing, command):
    """Where ``os.memfd_create`` or ``os.sched_getaffinity`` is missing, as
    off Linux, a command starts no process and writes the bytes it writes
    where both are there.  simulate's 200 trajectories hold 232k floats."""
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

    expected = outputs(tmp_path / "with")
    monkeypatch.delattr(os, missing, raising=False)
    _refuse_processes(monkeypatch, tmp_path)
    assert outputs(tmp_path / "without") == expected


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


@pytest.mark.parametrize("stale", ["file", "link"])
def test_commit_replaces_a_stale_backup(scalar_spec_file, tmp_path, monkeypatch, capsys, stale):
    """A backup left in ``--out`` by an earlier process of this pid, a file
    or a hard link to its target, does not stop a commit: the commit
    succeeds and leaves no backup, and a later move that fails still
    restores the target's old bytes."""
    out = tmp_path / "run"
    out.mkdir()
    policy, backup = out / "policy.json", out / f".policy.json.{os.getpid()}.bak"

    def leave_stale():
        policy.write_text("old policy\n")
        if stale == "link":
            os.link(policy, backup)
        else:
            backup.write_text("stale\n")

    leave_stale()
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 0
    assert sorted(path.name for path in out.iterdir()) == ["certificate.json", "policy.json"]
    assert policy.read_bytes() != b"old policy\n"

    certificate = (out / "certificate.json").read_bytes()
    policy.unlink()
    leave_stale()
    capsys.readouterr()
    real_replace, moves = os.replace, []

    def replace(src, dst):
        moves.append(dst)
        if len(moves) == 2:
            raise OSError(errno.EIO, "Input/output error")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert run("solve-exact", "--spec", scalar_spec_file, "--out", out) == 4
    assert "wrote" not in capsys.readouterr().out
    assert {path.name: path.read_bytes() for path in out.iterdir()} == {
        "policy.json": b"old policy\n", "certificate.json": certificate}


_SPAWNED = """\
import sys
sys.path.insert(0, {src!r})
import lqnash.cli
print("subprocess" in sys.modules, "orjson" in sys.modules)
code = lqnash.cli.main({argv!r})
print(code, "subprocess" in sys.modules, "orjson" in sys.modules)
"""


def test_import_loads_no_subprocess(traj_game):
    """Importing the CLI in a fresh interpreter imports neither subprocess
    nor orjson, which only a command that reads or writes a document
    loads; a simulate loads orjson but still not subprocess."""
    _, spec_path, out = traj_game
    src = os.path.dirname(os.path.dirname(lq.__file__))
    code = _SPAWNED.format(src=src, argv=["simulate", "--spec", str(spec_path), "--out", str(out), "--n-traj", "50"])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False False", "0 False True")


def test_deeply_nested_spec_exit_code(tmp_path, capsys):
    """A spec that orjson refuses and json cannot parse within the
    recursion limit is a malformed document: exit 2, named, and no --out."""
    spec = lq.random_game(1, 2, 2, 1, seed=3)
    text = lq.dump_game_spec(spec)
    deep = "[" * 3000 + "1" + "]" * 3000
    path = tmp_path / "deep.json"
    path.write_text(text[:text.rindex("}")] + f', "x": {deep}, "y": NaN}}\n')
    out = tmp_path / "run"
    assert run("solve-exact", "--spec", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (validation): malformed JSON document: maximum recursion depth exceeded"), err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["solve-exact", "check", "solve-po"])
def test_singular_stage_exit_code(tmp_path, capsys, command):
    """The hand-built game with a singular coupling matrix is a solver error
    (exit 3) naming stage 0 for both solvers, and no file is written."""
    path, out = tmp_path / "singular.json", tmp_path / "out"
    path.write_text(singular_game_text(2))
    assert run(command, "--spec", path, "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error (solver): stage 0: ")
    assert "wrote" not in captured.out
    assert list(out.iterdir()) == []


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
