"""Doppler-resilient complementary waveform design and analysis.

Design a transmit pulse order and receive pulse weights from a Golay
complementary pair so that range sidelobes vanish to prescribed orders in
chosen Doppler zones, then evaluate the result through the composite
ambiguity function and its derived metrics.
"""

from .analysis import (
    BLANKING_THRESHOLD_DB,
    CafGrid,
    DopplerGrid,
    DopplerInterval,
    MetricsReport,
    composite_ambiguity,
    compute_metrics,
    dmbr,
    factors,
    magnitude_db,
    nag,
    pdsl,
    prsl_curve,
    rsba,
)
from .design import (
    DesignFailure,
    DesignResult,
    RoundedSolution,
    design_bd,
    design_nm_drcw,
    design_ptm,
    design_uniform,
    recover_amplitudes,
    round_solution,
)
from .nullspec import (
    NullSpec,
    constraint_basis,
    max_null_violation,
    null_residuals,
    quadratic_form,
)
from .sdp import SdpResiduals, SdpSolution, SolverFailure, solve_partition_sdp
from .sequences import (
    ComplementarityReport,
    GolayPair,
    WINDOW_KINDS,
    WindowTemplate,
    acf,
    binomial_weights,
    generate_golay_pair,
    ptm_order,
    verify_complementary,
    window_template,
)

__version__ = "0.1.0"

__all__ = [
    "BLANKING_THRESHOLD_DB",
    "CafGrid",
    "ComplementarityReport",
    "DesignFailure",
    "DesignResult",
    "DopplerGrid",
    "DopplerInterval",
    "GolayPair",
    "MetricsReport",
    "NullSpec",
    "RoundedSolution",
    "SdpResiduals",
    "SdpSolution",
    "SolverFailure",
    "WINDOW_KINDS",
    "WindowTemplate",
    "acf",
    "binomial_weights",
    "composite_ambiguity",
    "compute_metrics",
    "constraint_basis",
    "design_bd",
    "design_nm_drcw",
    "design_ptm",
    "design_uniform",
    "dmbr",
    "factors",
    "generate_golay_pair",
    "magnitude_db",
    "max_null_violation",
    "nag",
    "null_residuals",
    "pdsl",
    "prsl_curve",
    "ptm_order",
    "quadratic_form",
    "recover_amplitudes",
    "round_solution",
    "rsba",
    "solve_partition_sdp",
    "verify_complementary",
    "window_template",
]
