"""Momentum methods near strict saddle points of nonconvex quadratics.

Spectral analysis of the heavy-ball iteration map, per-iteration divergence
rates for the general accelerated framework, and deterministic escape-time
experiments.  The package exports the union of its library modules'
``__all__`` lists.
"""

__version__ = "0.1.0"

from .problems import *
from .schedules import *
from .optimizers import *
from .spectral import *
from .rates import *
from .experiments import *
