"""Time stepping for the parabolic complex Monge-Ampere potential equation.

Unnormalized mode evolves phi by log(det(g0 + H(phi)) / Omega) with Omega
the reference density det(g0)*exp(f); normalized mode subtracts phi, which
absorbs the linear volume growth and turns the twisted stationary problem
log(det(g0 + H(phi)) / Omega) = phi into the flow's fixed point.
Integration is classical RK4 under a diffusive CFL bound, with positivity
of the evolving metric enforced at every stage.
Every quantity derives from the background's one metric kernel; one
check (``_positivity_floor``) guards positivity and one accept/halve loop
(``_advance``) takes the steps of both ``step`` and ``run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .background import (
    AdmissibilityError,
    TorusBackground,
    _det_and_eigs,
    _hermitian,
    _trace_ratio,
)

UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"
MODES = (UNNORMALIZED, NORMALIZED)

#: default positivity floor for the min eigenvalue of the evolving metric
EPS_POS = 1e-8
#: abort threshold for spectral tail energy fraction
TAIL_LIMIT = 1e-6
#: early-termination threshold on sup|phidot| for normalized runs
CONVERGENCE_TOL = 1e-10
#: dt halvings a step may take before it fails
MAX_HALVINGS = 8


class StepFailure(RuntimeError):
    """A step kept losing metric positivity after repeated dt halvings."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SpectralTailError(RuntimeError):
    """Too much energy reached the top of the spectrum; the run is unresolved."""


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow: time, potential, mode.

    Instances are immutable; derived fields (metric, time derivative,
    diagnostics) are recomputed from phi on demand so they can never go
    stale.
    """

    t: float
    phi: np.ndarray
    mode: str = UNNORMALIZED

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def initial_state(
    bg: TorusBackground, phi0: Optional[np.ndarray] = None, mode: str = UNNORMALIZED
) -> FlowState:
    phi = np.zeros(bg.shape) if phi0 is None else np.array(phi0, dtype=float)
    if phi.shape != bg.shape:
        raise ValueError(f"phi0 must have shape {bg.shape}")
    return FlowState(t=0.0, phi=phi, mode=mode)


def _positivity_floor(eig_min: np.ndarray, eps_pos: float) -> float:
    """Min of the eigenvalue field; raises unless it is at least eps_pos.

    Written as ``not floor >= eps_pos`` so that a NaN anywhere fails too.
    """
    floor = float(eig_min.min())
    if not floor >= eps_pos:
        loc = np.unravel_index(int(np.argmin(eig_min)), eig_min.shape)
        raise AdmissibilityError(floor, tuple(int(i) for i in loc), eps_pos)
    return floor


def _velocity(
    bg: TorusBackground, log_det: np.ndarray, phi: np.ndarray, mode: str
) -> np.ndarray:
    """log(det / Omega), minus phi in normalized mode."""
    rhs = log_det - bg.log_density
    if mode == NORMALIZED:
        rhs = rhs - phi
    return rhs


def _rhs(
    bg: TorusBackground, phi: np.ndarray, mode: str, eps_pos: float
) -> tuple[np.ndarray, float]:
    """Monge-Ampere right-hand side and the metric's min eigenvalue."""
    det, eig_min, _ = bg.fast_metric_fields(phi)
    floor = _positivity_floor(eig_min, eps_pos)
    return _velocity(bg, np.log(det), phi, mode), floor


def ma_rhs(
    bg: TorusBackground, state: FlowState, eps_pos: float = EPS_POS
) -> np.ndarray:
    """Instantaneous potential velocity at the state (admissibility checked)."""
    rhs, _ = _rhs(bg, state.phi, state.mode, eps_pos)
    return rhs


def cfl_bound(bg: TorusBackground, min_eig: float) -> float:
    """Diffusive step bound 0.25 * h^2 * min_eig(metric) / n."""
    return 0.25 * bg.spacing**2 * min_eig / bg.n


def current_cfl_bound(bg: TorusBackground, state: FlowState) -> float:
    _, eig_min, _ = bg.fast_metric_fields(state.phi)
    return cfl_bound(bg, float(eig_min.min()))


def _advance(
    bg: TorusBackground,
    state: FlowState,
    k1: np.ndarray,
    dt: float,
    eps_pos: float,
) -> tuple[FlowState, np.ndarray, float]:
    """The accept/halve loop of ``step`` and ``run``, given the first stage k1.

    Tries the RK4 step with dt, dt/2, ... and accepts the first whose
    stages and result keep metric positivity; after MAX_HALVINGS halvings
    a StepFailure carrying diagnostics is raised.  Returns the new state
    with its velocity and floor, which double as the next step's first
    stage and admissibility check.
    """
    phi, mode, trial = state.phi, state.mode, dt
    for _ in range(MAX_HALVINGS + 1):
        try:
            k2, _ = _rhs(bg, phi + 0.5 * trial * k1, mode, eps_pos)
            k3, _ = _rhs(bg, phi + 0.5 * trial * k2, mode, eps_pos)
            k4, _ = _rhs(bg, phi + trial * k3, mode, eps_pos)
            phi1 = phi + (trial / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k1_next, floor = _rhs(bg, phi1, mode, eps_pos)
            return FlowState(t=state.t + trial, phi=phi1, mode=mode), k1_next, floor
        except AdmissibilityError as err:
            last_error = err
            trial *= 0.5
    raise StepFailure(
        f"step at t={state.t:.6g} failed after {MAX_HALVINGS} halvings "
        f"(min eigenvalue {last_error.min_eig:.3e})",
        diagnostics={
            "t": state.t,
            "sup_phi": float(np.abs(state.phi).max()),
            "requested_dt": dt,
            "final_dt": trial,
            "min_eig": last_error.min_eig,
            "location": last_error.location,
        },
    )


def step(
    bg: TorusBackground,
    state: FlowState,
    dt: float,
    eps_pos: float = EPS_POS,
) -> FlowState:
    """One RK4 update of the potential.

    dt must respect the CFL bound of the current state.  If any stage or
    the result loses metric positivity the step is retried with dt/2, up
    to MAX_HALVINGS times, after which a StepFailure is raised.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1, floor = _rhs(bg, state.phi, state.mode, eps_pos)
    bound = cfl_bound(bg, floor)
    if dt > bound * (1.0 + 1e-9):
        raise ValueError(f"dt {dt:.3e} exceeds the CFL bound {bound:.3e}")
    return _advance(bg, state, k1, dt, eps_pos)[0]


# ---------------------------------------------------------------------------
# curvature diagnostics
# ---------------------------------------------------------------------------


def _curvature(bg: TorusBackground, phi: np.ndarray, eps_pos: float) -> tuple:
    """Pointwise geometry of g = g0 + H(phi), positivity checked.

    Returns (g, det, floor, log_det, hess, R): the metric components, its
    determinant, min eigenvalue, log det, the components of H(log det)
    (minus the Ricci form) and the scalar curvature tr(g^{-1} Ric).
    """
    g = bg._metric_parts(phi)
    det, eig_min, _ = _det_and_eigs(g)
    floor = _positivity_floor(eig_min, eps_pos)
    log_det = np.log(det)
    hess = bg._hessian_parts(log_det)
    return g, det, floor, log_det, hess, -_trace_ratio(g, det, hess)


def ricci_and_scalar(
    bg: TorusBackground, state: FlowState, eps_pos: float = EPS_POS
) -> tuple[np.ndarray, np.ndarray]:
    """Ricci tensor field (grid + (n,n)) and scalar curvature field.

    The Ricci components are minus the complex Hessian of log det of the
    evolving metric, differentiated spectrally; the scalar curvature is the
    trace against the inverse metric.
    """
    *_, hess, scal = _curvature(bg, state.phi, eps_pos)
    return _hermitian([-h for h in hess]), scal


# ---------------------------------------------------------------------------
# runs and diagnostics series
# ---------------------------------------------------------------------------

DIAGNOSTIC_COLUMNS = (
    "t",
    "sup_phi",
    "sup_phidot",
    "min_eig",
    "inf_R",
    "sup_R",
    "sup_trace",
    "volume",
    "energy",
)


@dataclass
class DiagnosticsRecord:
    t: float
    sup_phi: float
    sup_phidot: float
    min_eig: float
    inf_R: float
    sup_R: float
    sup_trace: float
    volume: float
    energy: float

    def row(self) -> list[float]:
        return [getattr(self, name) for name in DIAGNOSTIC_COLUMNS]


@dataclass
class DiagnosticsSeries:
    records: list[DiagnosticsRecord] = field(default_factory=list)
    converged: bool = False
    termination: str = "t_end"

    def append(self, rec: DiagnosticsRecord) -> None:
        if self.records and rec.t <= self.records[-1].t:
            raise ValueError("diagnostic timestamps must be strictly increasing")
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def rows(self) -> list[list[float]]:
        return [r.row() for r in self.records]

    @property
    def header(self) -> tuple[str, ...]:
        return DIAGNOSTIC_COLUMNS


def snapshot(
    bg: TorusBackground, state: FlowState, eps_pos: float = EPS_POS
) -> DiagnosticsRecord:
    g, det, floor, log_det, _, scal = _curvature(bg, state.phi, eps_pos)
    rhs = _velocity(bg, log_det, state.phi, state.mode)
    trace0 = _trace_ratio(bg._g0_parts, bg.det_g0, g)
    mean_phi = float(state.phi.mean())
    return DiagnosticsRecord(
        t=state.t,
        sup_phi=float(np.abs(state.phi).max()),
        sup_phidot=float(np.abs(rhs).max()),
        min_eig=floor,
        inf_R=float(scal.min()),
        sup_R=float(scal.max()),
        sup_trace=float(trace0.max()),
        volume=float(det.mean()),
        energy=float(np.sqrt(((state.phi - mean_phi) ** 2).mean())),
    )


@dataclass
class RunConfig:
    mode: str = UNNORMALIZED
    dt: Optional[float] = None  # None: adaptive diffusive CFL step
    t_end: float = 1.0
    record_every: int = 100
    eps_pos: float = EPS_POS
    convergence_tol: float = CONVERGENCE_TOL
    tail_limit: float = TAIL_LIMIT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def run(
    bg: TorusBackground,
    config: RunConfig,
    phi0: Optional[np.ndarray] = None,
) -> tuple[FlowState, DiagnosticsSeries]:
    """Integrate to t_end, recording diagnostics every record_every steps.

    Normalized runs terminate early (reported via series.converged) once
    sup|phidot| falls below the convergence tolerance.  The spectral tail
    is monitored at record times and the run aborts if more than
    ``tail_limit`` of the fluctuation energy reaches the outer third of
    the spectrum.
    """
    state = initial_state(bg, phi0, config.mode)
    series = DiagnosticsSeries()
    series.append(snapshot(bg, state, config.eps_pos))
    steps = 0
    # a collapsing CFL step means the metric is pinned against the
    # positivity floor; bail out instead of crawling forever
    g0_floor = float(np.linalg.eigvalsh(bg.g0).min())
    stall_dt = cfl_bound(bg, g0_floor) * 2.0**-24
    # stage-1 velocity doubles as the previous step's admissibility re-check
    k1, floor = _rhs(bg, state.phi, state.mode, config.eps_pos)
    while state.t < config.t_end - 1e-14:
        bound = cfl_bound(bg, floor)
        if bound < stall_dt:
            series.termination = "stalled"
            raise StepFailure(
                f"time step collapsed to {bound:.3e} at t={state.t:.6g}: metric "
                "is pinned against the positivity floor",
                diagnostics={"t": state.t, "min_eig": floor, "dt": bound},
            )
        dt = bound if config.dt is None else min(config.dt, bound)
        # the end-of-interval remainder may be far below the stall step
        dt = min(dt, config.t_end - state.t)
        state, k1, floor = _advance(bg, state, k1, dt, config.eps_pos)
        steps += 1
        at_end = state.t >= config.t_end - 1e-14
        converged = (
            config.mode == NORMALIZED
            and float(np.abs(k1).max()) < config.convergence_tol
        )
        if steps % config.record_every == 0 or at_end or converged:
            series.append(snapshot(bg, state, config.eps_pos))
            tail = bg.tail_energy_fraction(state.phi)
            if tail > config.tail_limit:
                series.termination = "spectral-tail"
                raise SpectralTailError(
                    f"tail energy fraction {tail:.3e} exceeds "
                    f"{config.tail_limit:.1e} at t={state.t:.6g}"
                )
            if converged:
                series.converged = True
                series.termination = "converged"
                return state, series
    series.termination = "t_end"
    return state, series
