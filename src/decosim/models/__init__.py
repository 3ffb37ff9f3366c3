"""Physical model library: parameter containers, generators, and
closed-form references for the bundled scenarios."""

from . import central_spin, disorder, oscillator, three_level
from .central_spin import *
from .disorder import *
from .oscillator import *
from .three_level import *

__all__ = [*central_spin.__all__, *disorder.__all__, *oscillator.__all__,
           *three_level.__all__]
