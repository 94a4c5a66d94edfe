"""The public surface: the names ``lqnash`` exports, the layer functions the
benchmark's tracer wraps, and README's library example."""
import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import lqnash as lq
from lqnash import _rollout

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AgentValue", "ConditionRecord", "GameSpec", "GameSpecError", "GaussianPolicyParams", "JointPolicy",
    "LinearGaussianPolicy", "NESolution", "SimulationResult", "SolveReport", "SolverError", "StageQuadratic",
    "ValueCertificate", "__version__", "best_response_full", "check_assumption_tau", "delta_augment_solve",
    "dump_game_spec", "dump_joint_policy", "entropy_quadratic_minimizer", "exact_ne", "exploitability",
    "kl_gaussian_to_standard", "load_game_spec", "load_joint_policy", "po_solve", "policy_distance",
    "random_game", "simulate", "stage_objective", "validate_game_spec", "value_certificate",
]


def test_public_names_and_the_names_the_benchmark_reads(monkeypatch):
    assert sorted(lq.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(lq, name) is not None
    # perfbench/run.py --trace 1 wraps every function of this table.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up there
    spec.loader.exec_module(tracing)
    for name, (fn, _) in tracing.layer_table().items():
        assert callable(fn), name
    assert isinstance(_rollout.ENV_VAR, str) and _rollout.active_backend() == "numpy"
    game = lq.random_game(2, 2, 2, 1, seed=0, scale=0.5)
    cert = lq.value_certificate(game, lq.exact_ne(game).policy)
    assert [agent.expected_cost for agent in cert.agents] == cert.expected_costs.tolist()


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(block, "README.md", "exec"), {})
    assert printed.getvalue().startswith("(2, 3, 1, 2) (2, 3, 1, 1)\n")
