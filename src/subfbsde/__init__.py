"""Monte Carlo solvers for fully coupled FBSDEs driven by sub-diffusions.

The driving noise is a Brownian motion evaluated along the inverse of a
drift-positive subordinator; the solver walks a continuation parameter from
an explicitly solvable linear system to the target coupled system, running
a Picard recursion of regression Monte Carlo linear solves at each step.
The package re-exports each module's `__all__` but the CLI's.
"""

from .clock import *  # noqa: F401,F403
from .coefficients import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .fbsde_solver import *  # noqa: F401,F403
from .linear_solver import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403
from .subdiffusion import *  # noqa: F401,F403

__version__ = "0.4.0"
