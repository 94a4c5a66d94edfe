"""Solvers and certification for finite-horizon entropy-regularized
general-sum linear-quadratic games.

Equilibria of these games are linear Gaussian stage policies; this package
computes them exactly (a stacked stage gain solve in a backward pass whose
values are the certificate recursion), iteratively (receding-horizon
simultaneous best responses), certifies candidate policies (exact value
certificates, per-agent Nash gaps, seeded Monte Carlo), and falls back to
raising the regularization weight when it is too small for uniqueness.
Each module's ``__all__`` is the one list of its public names.
"""
from . import control, evaluate, model, solver
from .control import *  # noqa: F403
from .evaluate import *  # noqa: F403
from .model import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.2.0"
__all__ = ["__version__", *control.__all__, *evaluate.__all__, *model.__all__, *solver.__all__]
