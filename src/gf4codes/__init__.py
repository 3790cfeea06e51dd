"""Quaternary linear codes: self-orthogonality, doubling, enumeration.

A library for [n, k] linear codes over GF(4) centered on hermitian
self-orthogonality: exact weight enumerators via bitsliced Gray-code
enumeration, the MacWilliams transform over exact integers, a doubling
construction that turns two self-orthogonal [n, k] codes into
self-orthogonal [2n+1, k+1] and [2n+2, k+2] codes with dual-distance
bounds, and the derivation of quantum [[n, n-2k, d]] code parameters.
"""

from . import catalog
from .codes import LinearCode, circulant, emit_matrix, parse_matrix, rref
from .doubling import (DoublingResult, OddDualVector, auxiliary_code,
                       double_even, double_odd, double_pair,
                       find_odd_dual_vector)
from .enumerator import (DEFAULT_MAX_DIM, WeightEnumerator, dual_distance,
                         format_enumerator, macwilliams, min_distance,
                         parse_enumerator, weight_enumerator)
from .errors import (BudgetExceededError, CatalogKeyError, ConsistencyError,
                     FormatError, GF4CodesError, MatrixFormatError,
                     PreconditionError)
from .gf4 import (CONJ, ELEMENTS, MUL, OMEGA, OMEGA_SQ, GF4Vector, add, append,
                  concat, conj, coordinate_sum, cyclic_shift, delete_coordinate,
                  hermitian_inner, inv, mul, trace, trace_inner)
from .quantum import QuantumParams, parse_bounds_table, quantum_params

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CatalogKeyError",
    "CONJ",
    "ConsistencyError",
    "DEFAULT_MAX_DIM",
    "DoublingResult",
    "ELEMENTS",
    "FormatError",
    "GF4CodesError",
    "GF4Vector",
    "LinearCode",
    "MatrixFormatError",
    "MUL",
    "OddDualVector",
    "OMEGA",
    "OMEGA_SQ",
    "PreconditionError",
    "QuantumParams",
    "WeightEnumerator",
    "add",
    "append",
    "auxiliary_code",
    "catalog",
    "circulant",
    "concat",
    "conj",
    "coordinate_sum",
    "cyclic_shift",
    "delete_coordinate",
    "double_even",
    "double_odd",
    "double_pair",
    "dual_distance",
    "emit_matrix",
    "find_odd_dual_vector",
    "format_enumerator",
    "hermitian_inner",
    "inv",
    "macwilliams",
    "min_distance",
    "mul",
    "parse_bounds_table",
    "parse_enumerator",
    "parse_matrix",
    "quantum_params",
    "rref",
    "trace",
    "trace_inner",
    "weight_enumerator",
]
