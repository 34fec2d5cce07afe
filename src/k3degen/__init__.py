"""Exact-arithmetic toolkit for semistable degenerations of K3 surfaces
with non-symplectic automorphisms: Kulikov type classification, weight
graded dimensions, cyclotomic order constraints, and the supporting
lattice and dual-complex machinery.

Each name is imported from its module, as in
`from k3degen.sncfiber import classify`; the package itself holds only
__version__."""

__version__ = "0.1.0"
