"""Spectral solver and certified-stability toolkit for a closed elastic
interface between two Stokes fluids with viscosity contrast."""

__version__ = "0.1.0"

from .spectral import *
from .kernels import *
from .force import *
from .evolution import *
from .constants import *
from .multipliers import *

__all__ = (spectral.__all__ + kernels.__all__ + force.__all__
           + evolution.__all__ + constants.__all__ + multipliers.__all__)
