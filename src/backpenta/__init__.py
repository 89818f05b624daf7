"""Linear-time solvers for backward pentadiagonal linear systems, with an
exact symbolic rescue for zero pivots and a dense exact oracle."""

__version__ = "0.1.0"

from .ratfunc import (BothZero, DivisionByZero, PoleAtZero, Polynomial,
                      RationalFunction, from_literal, poly_gcd)
from .systems import (BackwardPentaSystem, LengthMismatch, PentaSystem,
                      SizeTooSmall, densify, new_system, reverse_rows)
from .solver import (IdenticallySingular, LUFactors, SolveReport, ZeroPivot,
                     back_substitute, det_original, determinant, factor,
                     factor_symbolic, force_interior_zero_pivot,
                     forward_sweep, solve, solve_symbolic)
from .oracle import (GeneratorConfig, Singular, SplitMix64, dense_det,
                     dense_solve, generate)

# by role, as README's Library section lists them; a tier-1 test pins it
__all__ = [
    "BackwardPentaSystem", "PentaSystem", "new_system", "reverse_rows",
    "densify",
    "solve", "solve_symbolic", "factor", "factor_symbolic", "forward_sweep",
    "back_substitute", "determinant", "det_original",
    "SolveReport", "LUFactors",
    "Polynomial", "RationalFunction", "from_literal", "poly_gcd",
    "GeneratorConfig", "SplitMix64", "generate", "force_interior_zero_pivot",
    "dense_solve", "dense_det",
    "SizeTooSmall", "LengthMismatch", "ZeroPivot", "IdenticallySingular",
    "PoleAtZero", "DivisionByZero", "BothZero", "Singular",
]
