"""Monte Carlo solvers for fully coupled FBSDEs driven by sub-diffusions.

The driving noise is a Brownian motion evaluated along the inverse of a
drift-positive subordinator; the solver walks a continuation parameter from
an explicitly solvable linear system to the target coupled system, running
a Picard recursion of regression Monte Carlo linear solves at each step.
"""

from .clock import (
    MAX_EXPECTED_JUMPS,
    SubordinatorSpec,
    TimeGrid,
    sample_clock_ensemble,
    sample_jumps,
)
from .coefficients import (
    CoefficientBundle,
    HypothesisReport,
    check_hypothesis,
    get_bundle,
    mirror_bundle,
)
from .diagnostics import AprioriReport, MNormValue, apriori_ratio, contraction_fit, m_norm
from .fbsde_solver import (
    ContinuationConfig,
    DivergedError,
    SolveDiagnostics,
    picard_forcings,
    solve_fbsde,
)
from .linear_solver import ForcingSet, SolutionTriple, solve_linear
from .regression import BasisSpec, RegressionPlan, SingularSliceError
from .subdiffusion import MarkovState, PathEnsemble, build_ensemble

__version__ = "0.3.1"
