"""Quadrature, DOF layouts, and Galerkin assembly."""
