"""Time stepping for the parabolic complex Monge-Ampere potential equation.

Unnormalized mode evolves phi by log(det(g0 + H(phi)) / Omega) with Omega
the reference density det(g0)*exp(f); normalized mode subtracts phi, which
absorbs the linear volume growth and turns the twisted stationary problem
log(det(g0 + H(phi)) / Omega) = phi into the flow's fixed point.

``run`` integrates with ETDRK4 (Cox & Matthews, J. Comput. Phys. 176,
2002) on the rfftn half grid: the stiff linear part L, the background
Laplacian (minus one when normalized), is applied exactly, and the rest
of the velocity, N(phi) = log(det / Omega) - Laplacian(phi), is evaluated
by the metric kernel straight from each stage's half spectrum.  The
exponential coefficients are real, since L is: closed forms, or near
L*h = 0, where those cancel, the Taylor series of the phi-functions
(Hochbruck & Ostermann, Acta Numerica 19, 2010), evaluated once per step
size.  An embedded second-order solution controls the step: its
difference from the fourth-order one is 2 f2 (N_a + N_b - N_v - N_c).
Records are spaced in simulated time as ``record_every`` steps of the
explicit scheme would be.  A state's metric is one ``StageMetric``, which
forms log(det / Omega) once and takes its one forward FFT only when a
stage or a record reads the spectrum; a record reuses its step's.  Its
one producer, ``_metric``, guards positivity at every stage, and the
accept/shrink rule sits in ``run``'s one stepping loop, ``_integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from math import factorial
from typing import Optional

import numpy as np

from ..cohomology import DomainError
from ..serialize import integer, number
from .background import (
    AdmissibilityError,
    TorusBackground,
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
#: an ETD step is accepted when its embedded pair differs by at most this (sup norm)
ETD_TOL = 1e-6
#: |L*h| below which the closed forms of the ETD coefficients lose digits
#: to cancellation and their Taylor series replace them
_NEAR_ZERO = 0.5
#: Taylor coefficients of the rows of ``_etd_terms`` by power of z, from
#: phi_k(z) = sum_j z^j / (j + k)!: Q/h = phi_1(z/2) / 2, f1/h = phi_1 -
#: 3 phi_2 + 4 phi_3, f2/h = phi_2 - 2 phi_3 and f3/h = -phi_2 + 4 phi_3.
#: Below _NEAR_ZERO the first power left out is < 1e-18 of each row.
_TAYLOR = np.array(
    [
        [0.5 ** (j + 1) / factorial(j + 1) for j in range(16)],
        [(j + 1) ** 2 / factorial(j + 3) for j in range(16)],
        [(j + 1) / factorial(j + 3) for j in range(16)],
        [(1 - j) / factorial(j + 3) for j in range(16)],
    ]
)


class StepFailure(DomainError):
    """A step kept losing metric positivity, or the step size collapsed.

    ``termination`` names the reason; when ``run`` raises it, ``series``
    holds the diagnostics recorded before the failure.
    """

    series: Optional["DiagnosticsSeries"] = None

    def __init__(
        self, message: str, diagnostics: Optional[dict] = None, termination: str = "step-failure"
    ):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.termination = termination


class SpectralTailError(DomainError):
    """Too much energy reached the top of the spectrum; the run is unresolved.

    ``diagnostics`` holds the record time, the tail fraction and the limit.
    When ``run`` raises it, ``series`` holds the diagnostics recorded up to
    and including the offending record.
    """

    termination = "spectral-tail"
    series: Optional["DiagnosticsSeries"] = None

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of the flow: time, potential, mode."""

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


def _velocity(log_ratio: np.ndarray, phi: np.ndarray, mode: str) -> np.ndarray:
    """log(det / Omega), minus phi in normalized mode."""
    return log_ratio - phi if mode == NORMALIZED else log_ratio


@dataclass
class StageMetric:
    """The metric g0 + H(phi) of one state on the background bg: components g
    ([a] or [a, d, p, q]), det, min eigenvalue floor, log_ratio = log(det /
    Omega), and ratio_k, its rfftn half spectrum, from which a stage forms
    N-hat and a record R.  ratio_k is transformed on first read.
    """

    bg: TorusBackground
    g: list[np.ndarray]
    det: np.ndarray
    floor: float
    log_ratio: np.ndarray

    @cached_property
    def ratio_k(self) -> np.ndarray:
        return self.bg.spectrum(self.log_ratio)


def _metric(bg: TorusBackground, vk: np.ndarray, eps_pos: float) -> StageMetric:
    """The metric at phi = irfftn(vk); raises unless floor >= eps_pos (a NaN fails)."""
    g, det, eig_min = bg.fast_metric_fields(vk)
    floor = float(eig_min.min())
    if not floor >= eps_pos:
        loc = np.unravel_index(int(np.argmin(eig_min)), eig_min.shape)
        raise AdmissibilityError(floor, tuple(int(i) for i in loc), eps_pos)
    return StageMetric(bg, g, det, floor, np.log(det) - bg.log_density)


def ma_rhs(
    bg: TorusBackground, state: FlowState, eps_pos: float = EPS_POS
) -> np.ndarray:
    """Instantaneous potential velocity at the state (admissibility checked)."""
    metric = _metric(bg, bg.spectrum(state.phi), eps_pos)
    return _velocity(metric.log_ratio, state.phi, state.mode)


def _cfl_bound(bg: TorusBackground, min_eig: float) -> float:
    """Diffusive step bound 0.25 * h^2 * min_eig(metric) / n."""
    return 0.25 * bg.spacing**2 * min_eig / bg.n


def current_cfl_bound(bg: TorusBackground, state: FlowState) -> float:
    """CFL bound at the state; raises AdmissibilityError unless it is admissible."""
    return _cfl_bound(bg, _metric(bg, bg.spectrum(state.phi), EPS_POS).floor)


# ---------------------------------------------------------------------------
# curvature diagnostics
# ---------------------------------------------------------------------------


def _curvature(metric: StageMetric) -> tuple:
    """(hess, R) of the metric: hess holds the components of H(log det), minus
    the Ricci form, and R is the scalar curvature tr(g^{-1} Ric).  The
    spectrum of log det is ratio_k plus the background's of log Omega.
    """
    bg, log_det_k = metric.bg, metric.ratio_k
    if bg._log_density_k is not None:
        log_det_k = log_det_k + bg._log_density_k
    hess = bg._hessian_parts(log_det_k)
    return hess, -_trace_ratio(metric.g, metric.det, hess)


# ---------------------------------------------------------------------------
# runs and diagnostics series
# ---------------------------------------------------------------------------

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


DIAGNOSTIC_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class DiagnosticsSeries:
    records: list[DiagnosticsRecord] = field(default_factory=list)
    converged: bool = False
    termination: str = "t_end"
    #: accepted steps, rejected step attempts and kernel evaluations of the run
    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    #: the smallest, largest and last accepted step; None before the first
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None
    dt_last: Optional[float] = None

    def accept(self, dt: float) -> None:
        """Count an accepted step of size dt."""
        self.steps += 1
        self.dt_last = dt
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)

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
    bg: TorusBackground,
    state: FlowState,
    eps_pos: float = EPS_POS,
    *,
    metric: Optional[StageMetric] = None,
) -> DiagnosticsRecord:
    """Diagnostics record of the state.

    ``metric`` is the state's metric when the caller already holds it, as
    ``run`` does from its accepted stage; by default it is computed from
    phi.
    """
    if metric is None:
        metric = _metric(bg, bg.spectrum(state.phi), eps_pos)
    scal = _curvature(metric)[1]
    rhs = _velocity(metric.log_ratio, state.phi, state.mode)
    trace0 = _trace_ratio(bg._g0_parts, bg.det_g0, metric.g)
    phi, size = state.phi, state.phi.size
    return DiagnosticsRecord(
        t=state.t,
        sup_phi=float(np.abs(phi).max()),
        sup_phidot=float(np.abs(rhs).max()),
        min_eig=metric.floor,
        inf_R=float(scal.min()),
        sup_R=float(scal.max()),
        sup_trace=float(trace0.max()),
        volume=float(metric.det.sum() / size),
        energy=float(np.sqrt(((phi - phi.sum() / size) ** 2).sum() / size)),
    )


@dataclass
class RunConfig:
    mode: str = UNNORMALIZED
    dt: Optional[float] = None  # cap on the step; None: no cap
    t_end: float = 1.0
    # records are spaced by record_every nominal steps in simulated time, the
    # nominal step being the diffusive CFL bound at the record (or dt if smaller)
    record_every: int = 100
    eps_pos: float = EPS_POS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        # serialize's JSON field types: a bool, a string or a list is a TypeError
        self.dt = None if self.dt is None else number(self.dt, "dt")
        self.t_end = number(self.t_end, "t_end")
        self.eps_pos = number(self.eps_pos, "eps_pos")
        # written as "not x > 0" so that NaN fails too
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive or None, got {self.dt}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not self.eps_pos > 0:
            raise ValueError(f"eps_pos must be positive, got {self.eps_pos}")
        if integer(self.record_every, "record_every") < 1:
            raise ValueError("record_every must be >= 1")


def _etd_terms(z: np.ndarray, ez2: np.ndarray) -> np.ndarray:
    """Q/h, f1/h, f2/h and f3/h at the ascending values z <= 0.

    ez2 is exp(z/2).  Values with |z| < _NEAR_ZERO, which come last, take
    the Taylor series of ``_TAYLOR``, one product with their powers; the
    others take the closed forms, each row written into the result as it
    is formed.
    """
    far = int(np.searchsorted(z, -_NEAR_ZERO, side="right"))
    terms = np.empty((4, z.size))
    terms[:, far:] = _TAYLOR @ np.vander(z[far:], _TAYLOR.shape[1], increasing=True).T
    z, ez2 = z[:far], ez2[:far]
    ez = ez2 * ez2
    z2 = z * z
    z3 = z2 * z
    terms[0, :far] = (ez2 - 1.0) / z
    terms[1, :far] = (-4.0 - z + ez * (4.0 - 3.0 * z + z2)) / z3
    terms[2, :far] = (2.0 + z + ez * (z - 2.0)) / z3
    terms[3, :far] = (-4.0 - 3.0 * z - z2 + ez * (4.0 - z)) / z3
    return terms


@dataclass
class _Step:
    """One ETDRK4 attempt: err, the sup norm of its embedded error estimate,
    and, when err is within ETD_TOL, the new state's half spectrum vk,
    potential phi and metric.
    """

    err: float
    vk: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    metric: Optional[StageMetric] = None


class _Etdrk4:
    """ETDRK4 on the rfftn half grid for phi' = L phi + N(phi).

    L is the background Laplacian symbol, minus one in normalized mode, and
    N-hat = ratio_k - lap * phi-hat, with ratio_k the stage metric's
    spectrum of log(det / Omega).  A stage is one kernel evaluation: one
    inverse transform per Hessian component and one forward transform of
    log(det / Omega); the result stage adds the inverse that forms phi.
    The coefficients are held for the current h alone, on the distinct
    values of L*h, and gathered to the grid where they are used.
    """

    def __init__(self, bg: TorusBackground, mode: str, eps_pos: float):
        self.bg, self.eps_pos = bg, eps_pos
        self.lap = bg.laplacian_symbol
        linear = self.lap - 1.0 if mode == NORMALIZED else self.lap
        self.values, index = np.unique(linear, return_inverse=True)
        self.index = index.reshape(linear.shape)
        self.h: Optional[float] = None
        self.table: dict[str, np.ndarray] = {}
        self.rhs_evals = 0

    def stage(self, vk: np.ndarray) -> StageMetric:
        """The metric at the half spectrum vk, counted as a kernel evaluation."""
        self.rhs_evals += 1
        return _metric(self.bg, vk, self.eps_pos)

    def nonlinear(self, vk: np.ndarray) -> np.ndarray:
        """N-hat at the half spectrum vk."""
        return self.stage(vk).ratio_k - self.lap * vk

    def coefficients(self, h: float) -> dict[str, np.ndarray]:
        """E, E^(1/2), Q, f1, f2 and f3 per distinct L*h.

        With z = L*h: E = exp(z), Q = h*(exp(z/2) - 1)/z, and f1, f2, f3
        are the Cox-Matthews weights.  The embedded solution is
        u2 = E v + h phi1(z) N_v + h phi2(z) (N_c - N_v), and both error
        weights of u4 - u2, f1 - h phi1 + h phi2 on N_v and f3 - h phi2 on
        N_c, equal -2 f2: u4 - u2 = 2 f2 (N_a + N_b - N_v - N_c).  L <= 0,
        and ``values`` ascend.
        """
        if h != self.h:
            z = h * self.values
            half = np.exp(0.5 * z)
            q, f1, f2, f3 = h * _etd_terms(z, half)
            self.table = {"E": np.exp(z), "E2": half, "Q": q, "f1": f1, "f2": f2, "f3": f3}
            self.h = h
        return self.table

    def attempt(self, vk: np.ndarray, ratio_k: np.ndarray, h: float) -> _Step:
        """One step from vk, whose metric's rfftn(log(det / Omega)) is ratio_k.

        The new state is evaluated, and its positivity checked, only when
        the error is within ETD_TOL.  Stage arrays are freed as soon as
        they are spent, since the kernel's own fields dominate peak memory.
        """
        table = self.coefficients(h)

        def at(name: str) -> np.ndarray:
            # gathered to the grid per use, so that no grid-sized
            # coefficient lives through a stage's kernel
            return table[name][self.index]

        nv = ratio_k - self.lap * vk
        a = at("E2") * vk + at("Q") * nv
        na = self.nonlinear(a)
        nb = self.nonlinear(at("E2") * vk + at("Q") * na)
        c = at("E2") * a + at("Q") * (2.0 * nb - nv)
        del a
        nab = 2.0 * at("f2") * (na + nb)
        del na, nb
        nc = self.nonlinear(c)
        del c
        diff = nab - 2.0 * at("f2") * (nv + nc)
        err = float(np.abs(self.bg.field(diff)).max())
        del diff
        if not err <= ETD_TOL:
            return _Step(err)
        vk1 = at("E") * vk + at("f1") * nv + nab + at("f3") * nc
        del nab, nc, nv
        metric = self.stage(vk1)
        return _Step(err, vk1, self.bg.field(vk1), metric)


def run(
    bg: TorusBackground,
    config: RunConfig,
    phi0: Optional[np.ndarray] = None,
) -> tuple[FlowState, DiagnosticsSeries]:
    """Integrate to t_end with ETDRK4, recording diagnostics along the way.

    Records fall every record_every nominal steps in simulated time (see
    ``RunConfig``), and the steps land exactly on them and on t_end.
    Normalized runs terminate early (reported via series.converged) once
    sup|phidot| falls below CONVERGENCE_TOL.  The spectral tail is
    monitored at record times and the run aborts if more than TAIL_LIMIT
    of the fluctuation energy reaches the outer third of the spectrum.
    A StepFailure or SpectralTailError raised here carries the series
    recorded so far as ``err.series``, its termination set.
    """
    state = initial_state(bg, phi0, config.mode)
    series = DiagnosticsSeries()
    etd = _Etdrk4(bg, config.mode, config.eps_pos)
    try:
        state = _integrate(bg, config, etd, state, series)
    except (StepFailure, SpectralTailError) as err:
        series.termination = err.termination
        err.series = series
        raise
    finally:
        series.rhs_evals = etd.rhs_evals
    return state, series


def _integrate(
    bg: TorusBackground,
    config: RunConfig,
    etd: _Etdrk4,
    state: FlowState,
    series: DiagnosticsSeries,
) -> FlowState:
    """The stepping loop of ``run``, the first record included; returns the final state.

    A step retries from its state until an attempt is accepted, counting
    each rejection in ``series.rejected``.  Lost positivity halves h, and
    fails the step after MAX_HALVINGS halvings.  An error above ETD_TOL
    shrinks h to 0.9 * h * (ETD_TOL / err)^(1/3) (half h if err is not
    finite), and fails as a stall below the stall step.  An accepted step
    proposes the next by the same rule, capped at 2h.  A record's snapshot
    reuses the accepted stage's metric, dropped right after, so that no
    stage's full-grid fields live on through the next step.
    """
    # a collapsing CFL step means the metric is pinned against the
    # positivity floor; bail out instead of crawling forever
    g0_floor = float(np.linalg.eigvalsh(bg.g0).min())
    stall_dt = _cfl_bound(bg, g0_floor) * 2.0**-24
    vk = bg.spectrum(state.phi)
    metric = etd.stage(vk)
    floor, ratio_k = metric.floor, metric.ratio_k
    series.append(snapshot(bg, state, config.eps_pos, metric=metric))
    del metric
    t_record = proposal = None
    while state.t < config.t_end - 1e-14:
        bound = _cfl_bound(bg, floor)
        if bound < stall_dt:
            raise StepFailure(
                f"time step collapsed to {bound:.3e} at t={state.t:.6g}: metric "
                "is pinned against the positivity floor",
                diagnostics={"t": state.t, "min_eig": floor, "dt": bound},
                termination="stalled",
            )
        if t_record is None:
            nominal = bound if config.dt is None else min(config.dt, bound)
            t_record = state.t + config.record_every * nominal
            if t_record >= config.t_end - 1e-14:
                t_record = config.t_end
        remaining = t_record - state.t
        h = remaining if proposal is None else min(proposal, remaining)
        if config.dt is not None:
            h = min(h, config.dt)
        if h >= remaining - 1e-14:
            h = remaining  # leave no sliver before the record
        requested, halvings = h, 0
        while True:
            try:
                step = etd.attempt(vk, ratio_k, h)
            except AdmissibilityError as exc:
                series.rejected += 1
                if halvings == MAX_HALVINGS:
                    raise StepFailure(
                        f"step at t={state.t:.6g} failed after {MAX_HALVINGS} halvings "
                        f"(min eigenvalue {exc.min_eig:.3e})",
                        diagnostics={
                            "t": state.t,
                            "sup_phi": float(np.abs(state.phi).max()),
                            "requested_dt": requested,
                            "final_dt": h,
                            "min_eig": exc.min_eig,
                            "location": exc.location,
                        },
                    ) from exc
                halvings += 1
                h *= 0.5
                continue
            if step.err <= ETD_TOL:
                break
            series.rejected += 1
            # the embedded pair differs by O(h^3), hence the cube root
            h *= 0.9 * (ETD_TOL / step.err) ** (1 / 3) if np.isfinite(step.err) else 0.5
            if h < stall_dt:
                raise StepFailure(
                    f"error control shrank the step to {h:.3e} at t={state.t:.6g}, "
                    f"below the stall step {stall_dt:.3e}",
                    diagnostics={"t": state.t, "dt": h, "error": step.err},
                    termination="stalled",
                )
        vk, floor, ratio_k = step.vk, step.metric.floor, step.metric.ratio_k
        series.accept(h)
        grown = h * (min(2.0, 0.9 * (ETD_TOL / step.err) ** (1 / 3)) if step.err else 2.0)
        # a step clipped to the record or to dt, and taken whole, keeps the
        # controller's proposal
        clipped = proposal is not None and requested < proposal and h == requested
        proposal = max(proposal, grown) if clipped else grown
        landed = h == remaining
        state = FlowState(t=t_record if landed else state.t + h, phi=step.phi, mode=config.mode)
        converged = (
            config.mode == NORMALIZED
            and np.abs(_velocity(step.metric.log_ratio, step.phi, config.mode)).max()
            < CONVERGENCE_TOL
        )
        record = landed or converged
        if record:
            series.append(snapshot(bg, state, config.eps_pos, metric=step.metric))
        del step
        if record:
            t_record = None
            tail = bg.tail_energy_fraction(vk)
            if tail > TAIL_LIMIT:
                raise SpectralTailError(
                    f"tail energy fraction {tail:.3e} exceeds "
                    f"{TAIL_LIMIT:.1e} at t={state.t:.6g}",
                    diagnostics={"t": state.t, "tail": tail, "limit": TAIL_LIMIT},
                )
            if converged:
                series.converged = True
                series.termination = "converged"
                return state
    series.termination = "t_end"
    return state
