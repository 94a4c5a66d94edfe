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
    best_response_stage,
    entropy_quadratic_minimizer,
    kl_gaussian_to_standard,
    lyapunov_backward,
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
    joint_policy_from_arrays,
    load_game_spec,
    load_joint_policy,
    random_game,
    specs_equal,
    stack_covs,
    stack_gains,
    validate_game_spec,
)
from .solver import (
    ConditionRecord,
    NESolution,
    SolveReport,
    SolverError,
    check_assumption_tau,
    contraction_modulus,
    delta_augment_solve,
    exact_ne,
    phi_matrix,
    po_solve,
)

__version__ = "0.1.0"

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
    "best_response_stage",
    "check_assumption_tau",
    "contraction_modulus",
    "delta_augment_solve",
    "dump_game_spec",
    "dump_joint_policy",
    "entropy_quadratic_minimizer",
    "exact_ne",
    "exploitability",
    "joint_policy_from_arrays",
    "kl_gaussian_to_standard",
    "load_game_spec",
    "load_joint_policy",
    "lyapunov_backward",
    "phi_matrix",
    "po_solve",
    "policy_distance",
    "random_game",
    "simulate",
    "specs_equal",
    "stack_covs",
    "stack_gains",
    "stage_objective",
    "validate_game_spec",
    "value_certificate",
]
