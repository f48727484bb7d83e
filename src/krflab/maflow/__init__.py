"""Pseudo-spectral solver for the parabolic complex Monge-Ampere flow on tori."""

from .background import (
    AdmissibilityError,
    TorusBackground,
    check_grid,
    metric_determinant_and_eigs,
)
from .estimates import (
    GapCheck,
    TraceCheck,
    estimate_report,
    fit_decay_rate,
    gap_constant,
    matrix_gap_check,
    trace_inequalities_check,
)
from .solver import (
    CONVERGENCE_TOL,
    DIAGNOSTIC_COLUMNS,
    EPS_POS,
    MODES,
    NORMALIZED,
    UNNORMALIZED,
    DiagnosticsRecord,
    DiagnosticsSeries,
    FlowState,
    RunConfig,
    SpectralTailError,
    StepFailure,
    current_cfl_bound,
    initial_state,
    ma_rhs,
    run,
    snapshot,
)

