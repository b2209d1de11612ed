"""Reference elements, quadrature, DOF layouts, and Galerkin assembly."""

from epe.fem.assembly import FORM_SPACES, assemble_load, assemble_matrix
from epe.fem.dofs import DofLayout, Layouts, make_layouts
from epe.fem.elements import DegenerateCell, nedelec_basis, p1_basis
from epe.fem.quadrature import QuadratureRule, UnsupportedDegree, quadrature_rule

__all__ = [
    "DegenerateCell",
    "DofLayout",
    "FORM_SPACES",
    "Layouts",
    "QuadratureRule",
    "UnsupportedDegree",
    "assemble_load",
    "assemble_matrix",
    "make_layouts",
    "nedelec_basis",
    "p1_basis",
    "quadrature_rule",
]
