"""Exact-arithmetic toolkit for semistable degenerations of K3 surfaces
with non-symplectic automorphisms: Kulikov type classification, weight
graded dimensions, cyclotomic order constraints, and the supporting
lattice and dual-complex machinery.

Each name is imported from its module, as in
`from k3degen.sncfiber import classify`; the package itself holds only
__version__ and Refusal."""

__version__ = "0.1.0"


class Refusal(Exception):
    """Valid input that violates a mathematical constraint; bad input is a ValueError."""

    summary_prefix = ""  # leads the one-line summary the CLI prints for the refusal
