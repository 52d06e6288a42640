"""Trapping-set analysis for LDPC codes on bounded-width tree decompositions."""

from trapgraph.tanner import (
    AlistError,
    ScLdpcParams,
    TannerGraph,
    gamma_odd,
    generate_sc_ldpc,
    parse_alist,
    serialize_alist,
)
from trapgraph.decomp import (
    InvalidDecompositionError,
    NiceTreeDecomposition,
    TdFormatError,
    TreeDecomposition,
    heuristic_decomposition,
    heuristic_nice,
    make_nice,
    parse_td,
    sc_path_decomposition,
    sc_path_nice,
    serialize_td,
    validate,
    width,
)
from trapgraph.dpcore import DPResult, DPTable, run_dp
from trapgraph.oracle import (
    TrappingSetRecord,
    WorkLimitExceeded,
    brute_force_enumerate,
    brute_force_spectrum,
)
from trapgraph.witness import extract_witness

__all__ = [
    "AlistError",
    "DPResult",
    "DPTable",
    "InvalidDecompositionError",
    "NiceTreeDecomposition",
    "ScLdpcParams",
    "TannerGraph",
    "TdFormatError",
    "TrappingSetRecord",
    "TreeDecomposition",
    "WorkLimitExceeded",
    "brute_force_enumerate",
    "brute_force_spectrum",
    "extract_witness",
    "gamma_odd",
    "generate_sc_ldpc",
    "heuristic_decomposition",
    "heuristic_nice",
    "make_nice",
    "parse_alist",
    "parse_td",
    "run_dp",
    "sc_path_decomposition",
    "sc_path_nice",
    "serialize_alist",
    "serialize_td",
    "validate",
    "width",
]
