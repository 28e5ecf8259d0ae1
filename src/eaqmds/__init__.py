"""Entanglement-assisted quantum MDS code construction and verification."""

from .codes import ClassicalCode, constacyclic_code, extended_rs_code
from .cosets import DefiningSet, bch_design_distance, defining_set
from .eaqecc import EaqeccParams, derive_eaqecc, enumerate_family
from .galois import FieldContext, build_field
from .verify import certify_distance, run_lemma_sweep

__version__ = "0.1.0"

__all__ = [
    "ClassicalCode", "constacyclic_code", "extended_rs_code",
    "DefiningSet", "bch_design_distance", "defining_set",
    "EaqeccParams", "derive_eaqecc", "enumerate_family",
    "FieldContext", "build_field",
    "certify_distance", "run_lemma_sweep",
]
