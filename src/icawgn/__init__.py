"""Performance analysis of infinite constellations over the unconstrained AWGN channel.

Finite-dimensional error-probability bounds (sphere, ML, typicality),
their analytic sandwiches and precise asymptotics, fixed-error dispersion
analysis, and seeded Monte Carlo simulation of classic lattices with
exact nearest-point decoders.  The public names are those of each
module's ``__all__``.
"""

from .specfn import *
from .bounds import *
from .asymptotics import *
from .dispersion import *
from .lattices import *
from . import asymptotics, bounds, dispersion, lattices, specfn

__all__ = [name for m in (specfn, bounds, asymptotics, dispersion, lattices) for name in m.__all__]

__version__ = "0.1.0"
