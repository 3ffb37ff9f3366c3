"""decosim: deterministic simulation of open quantum system dynamics.

Density-matrix states with strict validation, coherence and mixture
analysis, a fixed-step Lindblad integrator, a reproducible quantum-jump
trajectory engine, a library of physical models, and a scenario CLI.
"""

from . import coherence, errors, evolution, hilbert, trajectories
from .coherence import *
from .errors import *
from .evolution import *
from .hilbert import *
from .trajectories import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *hilbert.__all__,
           *coherence.__all__, *evolution.__all__, *trajectories.__all__]
