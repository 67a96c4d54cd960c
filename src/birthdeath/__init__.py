"""Spatial birth-and-death jump chains on finite point configurations.

The package is organized around five pieces:

- ``configurations``: immutable finite point configurations, the
  bottleneck matching distance between them, and balls in that metric.
- ``measure``: the layered reference measure on configuration space
  (exact on boxes and products, Monte Carlo elsewhere) and Poisson
  point process sampling.
- ``rates``: birth/death rate models, the built-in contact model, and
  evidence-based validation of the standing conditions.
- ``chain``: the embedded jump chain, one-step probabilities, target
  sets, and replica-based hitting estimates with Wilson intervals.
- ``paths``: constructive one-point-change paths between
  configurations and certified lower bounds on following them.

``lab`` wires these into reproducible experiments with CSV reports,
and ``cli`` exposes everything as the ``bdlab`` command.
"""

from . import chain, configurations, lab, measure, paths, rates
from .chain import *
from .configurations import *
from .lab import *
from .measure import *
from .paths import *
from .rates import *

__version__ = "0.1.0"

# The package API is every module's own ``__all__``; no name is listed twice.
__all__ = sorted(
    {name for module in (chain, configurations, lab, measure, paths, rates) for name in module.__all__}
)
