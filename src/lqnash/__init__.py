"""Solvers and certification for finite-horizon entropy-regularized
general-sum linear-quadratic games.

Equilibria of these games are linear Gaussian stage policies; this package
computes them exactly (a stacked stage gain solve in a backward pass whose
values are the certificate recursion), iteratively (receding-horizon
simultaneous best responses), certifies candidate policies (exact value
certificates, per-agent Nash gaps, seeded Monte Carlo), and falls back to
raising the regularization weight when it is too small for uniqueness.
"""
from .control import (
    AgentValue,
    GaussianPolicyParams,
    StageQuadratic,
    best_response_full,
    entropy_quadratic_minimizer,
    kl_gaussian_to_standard,
    stage_objective,
)
from .evaluate import (
    SimulationResult,
    ValueCertificate,
    exploitability,
    policy_distance,
    simulate,
    value_certificate,
)
from .model import (
    GameSpec,
    GameSpecError,
    JointPolicy,
    LinearGaussianPolicy,
    dump_game_spec,
    dump_joint_policy,
    load_game_spec,
    load_joint_policy,
    random_game,
    validate_game_spec,
)
from .solver import (
    ConditionRecord,
    NESolution,
    SolveReport,
    SolverError,
    check_assumption_tau,
    delta_augment_solve,
    exact_ne,
    po_solve,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    "AgentValue",
    "ConditionRecord",
    "GameSpec",
    "GameSpecError",
    "GaussianPolicyParams",
    "JointPolicy",
    "LinearGaussianPolicy",
    "NESolution",
    "SimulationResult",
    "SolveReport",
    "SolverError",
    "StageQuadratic",
    "ValueCertificate",
    "best_response_full",
    "check_assumption_tau",
    "delta_augment_solve",
    "dump_game_spec",
    "dump_joint_policy",
    "entropy_quadratic_minimizer",
    "exact_ne",
    "exploitability",
    "kl_gaussian_to_standard",
    "load_game_spec",
    "load_joint_policy",
    "po_solve",
    "policy_distance",
    "random_game",
    "simulate",
    "stage_objective",
    "validate_game_spec",
    "value_certificate",
]
