"""Entanglement-assisted quantum MDS code construction and verification."""

from .codes import ClassicalCode, constacyclic_code
from .cosets import DefiningSet
from .eaqecc import EaqeccParams, derive_eaqecc, enumerate_family
from .galois import FieldContext, build_field
from .verify import certify_distance, run_lemma_sweep

__version__ = "0.1.0"

__all__ = [
    "ClassicalCode", "constacyclic_code", "DefiningSet",
    "EaqeccParams", "derive_eaqecc", "enumerate_family",
    "FieldContext", "build_field",
    "certify_distance", "run_lemma_sweep",
]
