"""Finite element solver for quasi-static electroporoelasticity on the unit cube.

The package couples an eddy-current Maxwell system (electric field E in
lowest-order Nedelec edge elements, magnetic field H in cellwise-constant
vectors) with Biot consolidation (displacement u in vector P1, pressure p in
scalar P1) and advances the coupled system either by an operator-splitting
backward-Euler scheme (EM sub-step, then Biot sub-step) or by a monolithic
backward-Euler reference scheme.
"""

__version__ = "0.1.0"
