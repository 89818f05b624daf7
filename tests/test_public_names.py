"""The public surface, pinned: a name joins or leaves backpenta.__all__
only by an edit here, and README's Library section lists the same names."""

import os
import re
import types

import backpenta

# README's roles, in the order of README and of __all__
SURFACE = {
    "systems": ("BackwardPentaSystem", "PentaSystem", "new_system",
                "reverse_rows", "densify"),
    "solving": ("solve", "solve_symbolic", "factor", "factor_symbolic",
                "forward_sweep", "back_substitute", "determinant",
                "det_original"),
    "reports": ("SolveReport", "LUFactors"),
    "Q(x)": ("Polynomial", "RationalFunction", "from_literal", "poly_gcd"),
    "generator and oracle": ("GeneratorConfig", "SplitMix64", "generate",
                             "force_interior_zero_pivot", "dense_solve",
                             "dense_det"),
    "errors": ("SizeTooSmall", "LengthMismatch", "ZeroPivot",
               "IdenticallySingular", "PoleAtZero", "DivisionByZero",
               "BothZero", "Singular"),
}


def test_all_is_pinned_and_names_every_public_attribute():
    assert backpenta.__all__ == [n for names in SURFACE.values()
                                 for n in names]
    public = {name for name, value in vars(backpenta).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(backpenta.__all__)


def test_readme_lists_the_pinned_names_by_role():
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    listed = re.search(r"Public names \(`backpenta.__all__`\), by role:\n\n"
                       r"((?:- .*\n(?:  .*\n)*)+)", readme).group(1)
    roles = {}
    for item in re.split(r"\n(?=- )", listed.strip()):
        role, names = item[2:].split(":", 1)
        roles[role] = tuple(re.findall(r"`(\w+)`", names))
    assert roles == SURFACE
