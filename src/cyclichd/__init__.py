"""Cyclic hyper degrees: recognition, witnesses, oracles and counting.

A degree sequence is a *cyclic hyper degree* when a simple hypergraph with
those degrees can be read off N consecutive rows of a column-shifted bit
table.  The fast path (recognizer + witness) decides this in polynomially
many big-integer operations; the oracle module re-decides everything
exhaustively at small orders so the fast path can be tested against it.
"""

from .analysis import (
    LowerBoundReport,
    exact_count,
    lower_bound,
    lower_bound_report,
    special_window_length,
)
from .bittable import (
    MATERIALIZE_CAP,
    BitColumn,
    ShiftVector,
    all_rows_distinct,
    packed_rows,
    rotate,
)
from .errors import CapacityError, DomainError, ValidationError
from .oracle import (
    BRUTEFORCE_CAP,
    ENUMERATE_CAP,
    REALIZABLE_CAP,
    SCAN_CAP,
    attained_set,
    chd_bruteforce,
    column_bits,
    enumerate_chd,
    is_realizable,
    realizable_set,
    window_sums,
)
from .ranges import SumRange, range_of, range_size
from .recognizer import (
    Assignment,
    DegreeSequence,
    candidate_lengths,
    feasible,
    perfect_matching,
    recognize,
)
from .witness import (
    DEFAULT_EDGE_CAP,
    Witness,
    build_witness,
    edge_vertices,
    materialize_edges,
    solve_start,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BitColumn",
    "BRUTEFORCE_CAP",
    "CapacityError",
    "DEFAULT_EDGE_CAP",
    "DegreeSequence",
    "DomainError",
    "ENUMERATE_CAP",
    "LowerBoundReport",
    "MATERIALIZE_CAP",
    "REALIZABLE_CAP",
    "SCAN_CAP",
    "ShiftVector",
    "SumRange",
    "ValidationError",
    "Witness",
    "all_rows_distinct",
    "attained_set",
    "build_witness",
    "candidate_lengths",
    "chd_bruteforce",
    "column_bits",
    "edge_vertices",
    "enumerate_chd",
    "exact_count",
    "feasible",
    "is_realizable",
    "lower_bound",
    "lower_bound_report",
    "materialize_edges",
    "packed_rows",
    "perfect_matching",
    "range_of",
    "range_size",
    "realizable_set",
    "recognize",
    "rotate",
    "solve_start",
    "special_window_length",
    "verify_witness",
    "window_sums",
]
