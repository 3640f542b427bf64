"""Grammatical evolution of closed-form approximations to the
prime-counting function: BNF grammars, genotype-phenotype mapping,
protected-arithmetic formulas, prime datasets, and a generational engine.
"""

from .engine import *
from .errors import *
from .evaluation import *
from .expr import *
from .grammar import *
from .mapping import *
from .primes import *

__version__ = "0.1.0"

__all__ = (engine.__all__ + errors.__all__ + evaluation.__all__
           + expr.__all__ + grammar.__all__ + mapping.__all__
           + primes.__all__)
