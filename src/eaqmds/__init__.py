"""Entanglement-assisted quantum MDS code construction and verification."""

from .algebra import Matrix, hermitian_adjoint, mat_mul, matrix_rank, nullspace_basis
from .codes import ClassicalCode, constacyclic_code, constacyclic_context, extended_rs_code
from .cosets import DefiningSet, bch_design_distance, cyclotomic_coset, defining_set, is_hermitian_dual_containing
from .eaqecc import EaqeccParams, derive_eaqecc, ebit_count, ebit_count_symplectic, enumerate_family
from .galois import FieldContext, FieldElement, build_field, element_order
from .verify import OracleBudget, certify_distance, exhaustive_min_distance, mds_minor_oracle, run_lemma_sweep

__version__ = "0.1.0"

__all__ = [
    "Matrix", "hermitian_adjoint", "mat_mul", "matrix_rank",
    "nullspace_basis", "ClassicalCode", "constacyclic_code",
    "constacyclic_context", "extended_rs_code",
    "DefiningSet", "bch_design_distance", "cyclotomic_coset", "defining_set",
    "is_hermitian_dual_containing", "EaqeccParams", "derive_eaqecc",
    "ebit_count", "ebit_count_symplectic", "enumerate_family", "FieldContext",
    "FieldElement", "build_field", "element_order",
    "OracleBudget", "certify_distance", "exhaustive_min_distance",
    "mds_minor_oracle", "run_lemma_sweep",
]
