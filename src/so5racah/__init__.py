"""Exact SO(5) > SO(4) reduced coupling coefficients by Racah's method.

Core chain: solve the generator relations in the canonical
SO(5) > SO(4) ~ SO(3)xSO(3) basis, then transform to the isospin
(U(1)xSO(3)) or angular-momentum (SO(3)) bases via laddered
transformation brackets.  All arithmetic is exact, in the field of
rationals extended by square roots.
"""

__version__ = "0.1.0"

from .halfint import HalfInt, hi
from .exact import Radical, canonicalize, parse_value, render_value
from .so4 import So4Irrep
from .so5 import So5Irrep
from .racah import solve_isoscalars
from .isospin import chain2_brackets, chain2_transform
from .angmom import chain3_brackets, chain3_transform
