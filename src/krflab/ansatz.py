"""Closed-form and ODE reductions of the flow on product geometries.

On homogeneous models the flow only moves the metric's scale
coefficients, so it reduces to constant-coefficient ODEs with known
solutions.  Curvature conventions are pinned so the coefficients are
integers: the round sphere metric has Ricci form twice itself, the
product of two round spheres likewise, the flat elliptic factor zero and
the hyperbolic factor minus twice itself.

Kinds:

- ``round-p1``: one scale, unnormalized rate -2 (extinction at half the
  initial scale);
- ``p1xp1``: two independent scales, each with rate -2;
- ``product-ec``: flat fiber scale frozen, hyperbolic base scale growing
  at rate +2; the normalized flow sends the fiber scale to zero like
  exp(-t) and the base scale to its fixed point 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import cohomology as coh
from .cohomology import models as coh_models

ROUND_P1 = "round-p1"
P1XP1 = "p1xp1"
PRODUCT_EC = "product-ec"
KINDS = (ROUND_P1, P1XP1, PRODUCT_EC)

UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"


class ExtinctionError(ValueError):
    """Asked to evaluate the reduced flow at or beyond its extinction time."""


@dataclass(frozen=True)
class AnsatzModel:
    kind: str
    scales: tuple[Fraction, ...]
    mode: str = UNNORMALIZED

    @staticmethod
    def of(kind: str, scales: Sequence, mode: str = UNNORMALIZED) -> "AnsatzModel":
        return AnsatzModel(kind, tuple(coh.as_fraction(s) for s in scales), mode)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.mode not in (UNNORMALIZED, NORMALIZED):
            raise ValueError("mode must be unnormalized or normalized")
        expected = 1 if self.kind == ROUND_P1 else 2
        if len(self.scales) != expected:
            raise ValueError(f"{self.kind} takes {expected} scale(s)")
        if any(s <= 0 for s in self.scales):
            raise ValueError("initial scales must be positive")


@dataclass(frozen=True)
class ODESystem:
    """Reduced flow: coefficient names, vector field, and exact solution."""

    names: tuple[str, ...]
    rhs: Callable[[float, np.ndarray], np.ndarray]
    closed_form: Callable[[np.ndarray], np.ndarray]  # ts -> (len(ts), k)
    extinction_time: Optional[Union[Fraction, float]]  # Fraction when exact
    description: str


#: per kind: coefficient names, the constant rate c of each scale under
#: the unnormalized flow, and the (unnormalized, normalized) descriptions;
#: the normalized flow adds -y, so every coefficient obeys y' = k*y + c
#: with k = 0 (unnormalized) or k = -1 (normalized)
_REDUCTIONS = {
    ROUND_P1: (
        ("lambda",),
        (-2,),
        ("round sphere: scale' = -2", "round sphere, normalized: scale' = -2 - scale"),
    ),
    P1XP1: (
        ("lambda1", "lambda2"),
        (-2, -2),
        (
            "sphere product: each scale' = -2",
            "sphere product, normalized: each scale' = -2 - scale",
        ),
    ),
    # product of an elliptic curve (fiber scale a) and a hyperbolic curve
    # (base scale b); immortal in both modes
    PRODUCT_EC: (
        ("a", "b"),
        (0, 2),
        (
            "flat x hyperbolic product: a' = 0, b' = 2",
            "flat x hyperbolic product, normalized: a' = -a, b' = 2 - b",
        ),
    ),
}


def _affine_solution(k: int, c: int, y0: float, ts: np.ndarray) -> np.ndarray:
    """Solution of y' = k*y + c, y(0) = y0, at the times ts."""
    if k == 0:
        return y0 + c * ts
    return (y0 + c / k) * np.exp(k * ts) - c / k


def _affine_extinction(k: int, c: int, y0: Fraction) -> Optional[Union[Fraction, float]]:
    """First t > 0 with y(t) = 0 for y' = k*y + c, or None if y stays positive.

    Exact (a Fraction) when k = 0.
    """
    if k == 0:
        return y0 / -c if c < 0 else None
    if c == 0:
        return None
    ratio = (c + k * float(y0)) / c
    if ratio <= 0.0:
        return None
    t = math.log(ratio) / -k
    return t if t > 0.0 else None


def reduce(model: AnsatzModel) -> ODESystem:
    """Exact ODE system for the scale coefficients of the reduced flow."""
    names, rates, descriptions = _REDUCTIONS[model.kind]
    normalized = model.mode == NORMALIZED
    k = -1 if normalized else 0
    C = np.array(rates, dtype=float)
    lam = [float(s) for s in model.scales]
    times = [_affine_extinction(k, c, y0) for c, y0 in zip(rates, model.scales)]
    times = [t for t in times if t is not None]
    return ODESystem(
        names=names,
        # k*y + C as a single array operation for each of k = -1 and k = 0
        rhs=(lambda t, y: C - y) if normalized else (lambda t, y: C.copy()),
        closed_form=lambda ts: np.stack(
            [_affine_solution(k, c, y0, np.asarray(ts)) for c, y0 in zip(rates, lam)],
            axis=-1,
        ),
        extinction_time=min(times) if times else None,
        description=descriptions[normalized],
    )


@dataclass
class AnsatzTrajectory:
    model: AnsatzModel
    system: ODESystem
    ts: np.ndarray
    coeffs: np.ndarray  # shape (len(ts), k)
    extinct: bool = False
    extinction_numeric: Optional[float] = None

    @property
    def names(self) -> tuple[str, ...]:
        return self.system.names

    def closed(self) -> np.ndarray:
        return self.system.closed_form(self.ts)

    def volume(self) -> np.ndarray:
        c = self.coeffs
        if self.model.kind == ROUND_P1:
            return c[:, 0].copy()
        return 2.0 * c[:, 0] * c[:, 1]

    def fiber_scale(self) -> np.ndarray:
        """Scale coefficient of the collapsing direction."""
        if self.model.kind == ROUND_P1:
            return self.coeffs[:, 0].copy()
        if self.model.kind == P1XP1:
            return self.coeffs.min(axis=1)
        return self.coeffs[:, 0].copy()

    def fiber_diameter_proxy(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.fiber_scale(), 0.0))


def _rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(model: AnsatzModel, t_end: float, dt: float = 1e-3) -> AnsatzTrajectory:
    """RK4 sampling of the reduced flow.

    Stops at extinction when a scale coefficient crosses zero before
    t_end; the crossing is refined by bisection to 1e-12 and reported on
    the trajectory.  Samples at or past extinction are never produced.
    """
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    system = reduce(model)
    ts = [0.0]
    ys = [np.array([float(s) for s in model.scales])]
    t, y = 0.0, ys[0]
    extinct = False
    ext_time = None
    while t < t_end - 1e-12 * max(1.0, t_end):
        step_dt = min(dt, t_end - t)
        y_new = _rk4_step(system.rhs, t, y, step_dt)
        if y_new.min() <= 0.0:
            lo, hi = 0.0, step_dt
            for _ in range(200):
                if hi - lo <= 1e-13:
                    break
                mid = 0.5 * (lo + hi)
                if _rk4_step(system.rhs, t, y, mid).min() <= 0.0:
                    hi = mid
                else:
                    lo = mid
            extinct = True
            ext_time = t + 0.5 * (lo + hi)
            break
        t, y = t + step_dt, y_new
        ts.append(t)
        ys.append(y)
    return AnsatzTrajectory(
        model=model,
        system=system,
        ts=np.array(ts),
        coeffs=np.stack(ys),
        extinct=extinct,
        extinction_numeric=ext_time,
    )


def einstein_residual(model: AnsatzModel, traj: AnsatzTrajectory) -> np.ndarray:
    """Defect of the base scale from its negative-Einstein fixed point.

    Measured per unit hyperbolic metric: the Ricci form of b times the
    hyperbolic metric is -2 times that metric, so the normalized-flow
    fixed point is b = 2 and the residual is |b(t) - 2|.
    """
    if model.kind != PRODUCT_EC or model.mode != NORMALIZED:
        raise ValueError("Einstein residual is defined for the normalized product model")
    return np.abs(traj.coeffs[:, 1] - 2.0)


@dataclass
class CollapseProfile:
    ts: np.ndarray
    fiber_scale_adjusted: np.ndarray  # computed exp(t) * a(t), a0 by the ansatz
    base_scale: np.ndarray
    base_trace: np.ndarray  # trace of the limit base metric in the evolving one
    schwarz_floor: float  # inf_t b(t), positive
    fiber_adjusted_max_error: float  # max |exp(t) * a(t) - a0|


def collapse_profile(model: AnsatzModel, traj: AnsatzTrajectory) -> CollapseProfile:
    """Collapsing data of the normalized product flow.

    The rescaled fiber coefficient exp(t)*a(t) is constant (the fiberwise
    limit holds exactly in this model, with limit the flat metric at the
    initial fiber scale); the base scale is bounded below by min(b0, 2)
    and its trace ratio converges to 1 like exp(-t).
    """
    if model.kind != PRODUCT_EC or model.mode != NORMALIZED:
        raise ValueError("collapse profile is defined for the normalized product model")
    a0 = float(model.scales[0])
    adjusted = np.exp(traj.ts) * traj.coeffs[:, 0]
    b = traj.coeffs[:, 1]
    return CollapseProfile(
        ts=traj.ts.copy(),
        fiber_scale_adjusted=adjusted,
        base_scale=b.copy(),
        base_trace=2.0 / b,
        schwarz_floor=float(b.min()),
        fiber_adjusted_max_error=float(np.abs(adjusted - a0).max()),
    )


def cohomology_counterpart(model: AnsatzModel) -> tuple:
    """(manifold model, initial class) matching the ansatz in the class engine."""
    if model.kind == ROUND_P1:
        return coh_models.get_model("cp1"), coh.ClassVector(model.scales)
    if model.kind == P1XP1:
        return coh_models.get_model("p1xp1"), coh.ClassVector(model.scales)
    return coh_models.get_model("product-ec"), coh.ClassVector(model.scales)


@dataclass(frozen=True)
class CrossCheck:
    ansatz_time: Optional[Fraction]  # None encodes infinite
    cohomology_time: Optional[Fraction]
    equal: bool


def crosscheck_T(model: AnsatzModel) -> CrossCheck:
    """Extinction time of the reduced ODE vs the class-line computation.

    Only meaningful in unnormalized mode, where both sides are exact
    rationals; the ODE answer is additionally confirmed numerically to
    1e-12 before being reported.
    """
    if model.mode != UNNORMALIZED:
        raise ValueError("cross-check compares unnormalized extinction times")
    system = reduce(model)
    ansatz_time = system.extinction_time  # Fraction or None
    manifold, a0 = cohomology_counterpart(model)
    T = coh.max_existence_time(manifold, a0)
    coho_time = T.value if T.finite else None
    if ansatz_time is not None:
        traj = integrate(model, float(ansatz_time) * 1.25, dt=1e-3)
        if not traj.extinct or abs(traj.extinction_numeric - float(ansatz_time)) > 1e-11:
            raise AssertionError("numeric extinction disagrees with the closed form")
    equal = (ansatz_time is None and coho_time is None) or (
        ansatz_time is not None and coho_time is not None and ansatz_time == coho_time
    )
    return CrossCheck(ansatz_time=ansatz_time, cohomology_time=coho_time, equal=equal)
