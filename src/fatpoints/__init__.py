"""Exact-arithmetic study of fat point schemes in projective space.

The package computes Hilbert functions, multiplicities and regularity
indices of fat point schemes over the rationals, evaluates the Segre-type
upper bound coming from subsets of points on low-dimensional flats, and
provides constructive machinery (flat distributions, hyperplane-product
certificates) together with seeded generators and a batch verification
harness.
"""

from fatpoints.linalg import (
    Matrix,
    RrefResult,
    kernel_basis,
    rank_rows,
    rref,
)
from fatpoints.geometry import (
    Flat,
    LinearForm,
    ProjPoint,
    degeneracy_index,
    degeneracy_of,
    extend_flat_avoiding,
    flat_contains,
    general_position_on,
    span,
    spanned_flats,
)
from fatpoints.schemes import (
    FatPointScheme,
    Form,
    artinian_quotient_regularity,
    hilbert_function,
    in_fat_ideal,
    monomial_bound_check,
    multiplicity,
    regularity_index,
)
from fatpoints.segre import SegreReport, segre_bound
from fatpoints.constructions import (
    Certificate,
    Distribution,
    Verdict,
    build_certificate,
    cover_threshold,
    distribute_flats,
    removal_recursion_check,
    segre_verdict,
    verify_certificate,
)
from fatpoints.generators import PatternSpec, generate
from fatpoints.harness import BatchReport, batch_check, load_scheme, save_scheme

__all__ = [
    "Matrix",
    "RrefResult",
    "kernel_basis",
    "rank_rows",
    "rref",
    "Flat",
    "LinearForm",
    "ProjPoint",
    "degeneracy_index",
    "degeneracy_of",
    "extend_flat_avoiding",
    "flat_contains",
    "general_position_on",
    "span",
    "spanned_flats",
    "FatPointScheme",
    "Form",
    "artinian_quotient_regularity",
    "hilbert_function",
    "in_fat_ideal",
    "monomial_bound_check",
    "multiplicity",
    "regularity_index",
    "SegreReport",
    "segre_bound",
    "Certificate",
    "Distribution",
    "Verdict",
    "build_certificate",
    "cover_threshold",
    "distribute_flats",
    "removal_recursion_check",
    "segre_verdict",
    "verify_certificate",
    "PatternSpec",
    "generate",
    "BatchReport",
    "batch_check",
    "load_scheme",
    "save_scheme",
]

__version__ = "0.1.0"
