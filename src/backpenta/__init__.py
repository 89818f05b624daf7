"""Linear-time solvers for backward pentadiagonal linear systems, with an
exact symbolic rescue for zero pivots and a dense exact oracle."""

__version__ = "0.1.0"

from .ratfunc import (BothZero, DivisionByZero, PoleAtZero, Polynomial,
                      RationalFunction, from_literal, poly_gcd)
from .systems import (BackwardPentaSystem, LengthMismatch, PentaSystem,
                      SizeTooSmall, densify, laplacian_system, new_system,
                      reverse_rows)
from .solver import (IdenticallySingular, LUFactors, SolveReport, ZeroPivot,
                     back_substitute, det_original, determinant, factor,
                     factor_symbolic, force_interior_zero_pivot,
                     forward_sweep, solve, solve_symbolic)
from .oracle import (GeneratorConfig, Singular, SplitMix64, dense_det,
                     dense_solve, generate)

__all__ = [
    "BackwardPentaSystem", "PentaSystem", "LUFactors", "SolveReport",
    "Polynomial", "RationalFunction", "GeneratorConfig", "SplitMix64",
    "new_system", "reverse_rows", "densify", "laplacian_system",
    "factor", "factor_symbolic", "forward_sweep", "back_substitute",
    "determinant", "det_original", "solve", "solve_symbolic",
    "dense_solve", "dense_det", "generate", "force_interior_zero_pivot",
    "from_literal", "poly_gcd",
    "SizeTooSmall", "LengthMismatch", "ZeroPivot", "IdenticallySingular",
    "PoleAtZero", "DivisionByZero", "BothZero", "Singular",
]
