"""Exact-arithmetic toolkit for semistable degenerations of K3 surfaces
with non-symplectic automorphisms: Kulikov type classification, weight
graded dimensions, cyclotomic order constraints, and the supporting
lattice and dual-complex machinery."""

from .autorders import (
    CharSetting,
    admissible_transcendental_charpolys,
    nygaard_sigma0,
    order_decomposition,
    verify_het2_factorization,
    wild_prime_powers,
)
from .cyclotomic import (
    CycloFactorization,
    IntPolynomial,
    NotCyclotomicProduct,
    bounded_orders,
    cyclotomic_poly,
    euler_phi,
    factor_into_cyclotomics,
)
from .degeneration import (
    Decision,
    HodgeFieldClass,
    INFINITE_HEIGHT,
    allowed_m_from_type,
    allowed_types_from_field,
    allowed_types_from_height,
    allowed_types_from_m,
    combine,
    moduli_dim,
)
from .dualcomplex import (
    ComplexAutomorphism,
    DeltaComplex,
    InvalidComplex,
    NonOrientable,
    orient,
    orientation_action,
    sphere_failure,
)
from .elliptic import (
    FiberConfiguration,
    ImpossibleConfiguration,
    KodairaFiber,
    component_count,
    euler_number,
)
from .lattice import (
    Lattice,
    direct_sum,
    hyperbolic_plane,
    k3_lattice,
    rescale,
    root_lattice_a,
    root_lattice_e8,
    standard_lattice,
)
from .sncfiber import (
    KulikovType,
    MissingBetti,
    NotKulikov,
    SNCSurface,
    classify,
    crosscheck,
    e1_page,
    grw_dims,
)

__version__ = "0.1.0"
