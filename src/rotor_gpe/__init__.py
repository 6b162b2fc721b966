"""rotor-gpe: simulation and verification lab for the critically rotating Gross-Pitaevskii equation.

The model is the 3D cubic Gross-Pitaevskii equation in an isotropic
harmonic trap that rotates about the x3 axis at exactly the trap
frequency.  The package provides two independent linear propagator
backends (a dense closed-form kernel quadrature and a fast spectral
method built on the exact flow of the grid's 1D oscillator),
Galilean-type dressed operators with their chirp factorizations,
conservation-law diagnostics, a windowed nonlinear solver, and a
Duhamel fixed-point solver, plus a CLI that drives verification
batteries against closed-form references.

Each module's ``__all__`` is its public surface, and the package
re-exports the union of them; ``cli`` stays out, since it imports
``__version__`` from here.
"""

from . import config, diagnostics, errors, galilean, grid, propagator, snapshots, solver, states
from .config import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .errors import *  # noqa: F403
from .galilean import *  # noqa: F403
from .grid import *  # noqa: F403
from .propagator import *  # noqa: F403
from .snapshots import *  # noqa: F403
from .solver import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (config, diagnostics, errors, galilean, grid, propagator, snapshots, solver, states)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
