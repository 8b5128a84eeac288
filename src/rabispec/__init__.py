"""Numerical spectral toolkit for displaced two-level and multilevel
oscillator models: displaced-eigenfunction overlaps, degenerate
perturbation data with quasimode residual certification, truncated
diagonalization with convergence control, interval statistics of the
shifted spectrum, and two-term eigenvalue counting asymptotics.
"""

__version__ = "0.1.0"

from .errors import (CoverageError, DegenerateInput, InsufficientNodes,
                     ModelSpecError, NumericError, PrecisionError,
                     RabispecError, ResourceError, UsageError)
from .fock_ops import BasisDescriptor, ModelSpec, TruncatedOperator, build
from .overlaps import (diagonal_overlap_ratio, displacement_matrix,
                       overlap_closed, overlap_quadrature)
from .perturbation import (FirstOrderSplit, QuasimodeExpansion,
                           RabiParameters, first_order, quasimode_form,
                           quasimode_residual, quasimode_vectors)
from .specfun import (AvoidanceSequence, laguerre_poly, laguerre_zeros,
                      nondegenerate_sequence, p_polynomial)
from .spectral_analysis import (IntervalReport, Spectrum, braak_census,
                                braak_intervals, converged_spectrum,
                                count_below, eigen_spectrum, parity_split)
from .weyl_asymptotics import (SymbolSample, WeylPrediction,
                               empirical_counting, smges_gap_check,
                               weyl_prediction)

__all__ = [
    "AvoidanceSequence", "BasisDescriptor", "CoverageError", "DegenerateInput",
    "FirstOrderSplit", "InsufficientNodes", "IntervalReport", "ModelSpec",
    "ModelSpecError", "NumericError", "PrecisionError", "QuasimodeExpansion",
    "RabiParameters", "RabispecError", "ResourceError", "Spectrum",
    "SymbolSample", "TruncatedOperator", "UsageError", "WeylPrediction",
    "braak_census", "braak_intervals", "build", "converged_spectrum",
    "count_below", "diagonal_overlap_ratio", "displacement_matrix",
    "eigen_spectrum", "empirical_counting", "first_order", "laguerre_poly",
    "laguerre_zeros", "nondegenerate_sequence", "overlap_closed",
    "overlap_quadrature", "p_polynomial", "parity_split", "quasimode_form",
    "quasimode_residual", "quasimode_vectors", "smges_gap_check",
    "weyl_prediction",
]
