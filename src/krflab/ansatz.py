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

numpy is imported only by the functions that build arrays, so the kind
and mode names can be read without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from . import cohomology as coh
from .cohomology import models as coh_models

if TYPE_CHECKING:
    import numpy as np

ROUND_P1 = "round-p1"
P1XP1 = "p1xp1"
PRODUCT_EC = "product-ec"
KINDS = (ROUND_P1, P1XP1, PRODUCT_EC)

UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"


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
    """Reduced flow: coefficient names, exact solution and extinction time."""

    names: tuple[str, ...]
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
    lam = [float(s) for s in model.scales]
    times = [_affine_extinction(k, c, y0) for c, y0 in zip(rates, model.scales)]
    times = [t for t in times if t is not None]

    def closed_form(ts):
        """Solution of y' = k*y + c from each y0, at the times ts."""
        import numpy as np

        ts = np.asarray(ts)
        if k == 0:
            cols = [y0 + c * ts for c, y0 in zip(rates, lam)]
        else:
            cols = [(y0 + c / k) * np.exp(k * ts) - c / k for c, y0 in zip(rates, lam)]
        return np.stack(cols, axis=-1)

    return ODESystem(
        names=names,
        closed_form=closed_form,
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
        if self.model.kind == P1XP1:
            return self.coeffs.min(axis=1)
        return self.coeffs[:, 0].copy()

    def fiber_diameter_proxy(self) -> np.ndarray:
        import numpy as np

        return np.sqrt(np.maximum(self.fiber_scale(), 0.0))


def _scale_samples(
    c: float, normalized: bool, y: float, runs: list[tuple[float, int]], limit: int
) -> list[float]:
    """One scale's classical RK4 samples of y' = c - y (normalized) or y' = c,
    over at most ``limit`` steps of the runs, each run a (step, count) pair.

    Stops before the first step whose result is <= 0, so fewer than
    ``limit + 1`` samples mean that step killed the scale.
    """
    col = [y]
    append = col.append
    for h, count in runs:
        count = min(count, limit - len(col) + 1)
        half, sixth = 0.5 * h, h / 6.0
        if normalized:
            for _ in range(count):
                k1 = c - y
                k2 = c - (y + half * k1)
                k3 = c - (y + half * k2)
                k4 = c - (y + h * k3)
                y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if y <= 0.0:
                    return col
                append(y)
        else:
            increment = sixth * (c + 2.0 * c + 2.0 * c + c)
            for _ in range(count):
                y = y + increment
                if y <= 0.0:
                    return col
                append(y)
    return col


def integrate(model: AnsatzModel, t_end: float, dt: float = 1e-3) -> AnsatzTrajectory:
    """RK4 sampling of the reduced flow.

    Each scale obeys its own scalar equation, so each is stepped in its
    own loop on Python floats.  Stops at extinction when a scale
    coefficient crosses zero before t_end: every scale's samples end at
    the earliest such step, whose crossing is refined by bisection to
    1e-12 and reported on the trajectory.  Samples at or past extinction
    are never produced.
    """
    import numpy as np

    if not all(math.isfinite(x) and x > 0 for x in (t_end, dt)):
        raise ValueError(f"t_end and dt must be finite and positive, got {t_end} and {dt}")
    system = reduce(model)
    rates = [float(c) for c in _REDUCTIONS[model.kind][1]]
    normalized = model.mode == NORMALIZED

    ts, hs = [0.0], []  # sample times, and the steps min(dt, t_end - t) between them
    stop = t_end - 1e-12 * max(1.0, t_end)
    t = 0.0
    while t < stop:
        rest = t_end - t
        h = rest if rest < dt else dt
        t = t + h
        hs.append(h)
        ts.append(t)
    runs = [(h, len(list(run))) for h, run in groupby(hs)]
    steps = len(hs)
    cols = []
    for c, s in zip(rates, model.scales):
        cols.append(_scale_samples(c, normalized, float(s), runs, steps))
        steps = min(steps, len(cols[-1]) - 1)
    extinct = steps < len(hs)
    ext_time = None
    if extinct:
        y, t = [col[steps] for col in cols], ts[steps]
        lo, hi = 0.0, hs[steps]
        for _ in range(200):
            if hi - lo <= 1e-13:
                break
            mid = 0.5 * (lo + hi)
            # one step of size mid: a single sample means it kills the scale
            if any(
                len(_scale_samples(c, normalized, yi, [(mid, 1)], 1)) == 1
                for c, yi in zip(rates, y)
            ):
                hi = mid
            else:
                lo = mid
        ext_time = t + 0.5 * (lo + hi)
    return AnsatzTrajectory(
        model=model,
        system=system,
        ts=np.array(ts[: steps + 1]),
        coeffs=np.array([col[: steps + 1] for col in cols]).T.copy(),
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
    return abs(traj.coeffs[:, 1] - 2.0)


@dataclass
class CollapseProfile:
    fiber_scale_adjusted: np.ndarray  # computed exp(t) * a(t), a0 by the ansatz
    base_scale: np.ndarray
    schwarz_floor: float  # inf_t b(t), positive
    fiber_adjusted_max_error: float  # max |exp(t) * a(t) - a0|


def collapse_profile(model: AnsatzModel, traj: AnsatzTrajectory) -> CollapseProfile:
    """Collapsing data of the normalized product flow.

    The rescaled fiber coefficient exp(t)*a(t) is constant (the fiberwise
    limit holds exactly in this model, with limit the flat metric at the
    initial fiber scale); the base scale is bounded below by min(b0, 2).
    """
    if model.kind != PRODUCT_EC or model.mode != NORMALIZED:
        raise ValueError("collapse profile is defined for the normalized product model")
    import numpy as np

    a0 = float(model.scales[0])
    adjusted = np.exp(traj.ts) * traj.coeffs[:, 0]
    b = traj.coeffs[:, 1]
    return CollapseProfile(
        fiber_scale_adjusted=adjusted,
        base_scale=b.copy(),
        schwarz_floor=float(b.min()),
        fiber_adjusted_max_error=float(np.abs(adjusted - a0).max()),
    )


#: the built-in manifold model whose class engine matches each kind
_COUNTERPARTS = {ROUND_P1: "cp1", P1XP1: "p1xp1", PRODUCT_EC: "product-ec"}

#: name -> manifold model, such as ``cohomology.models.get_model``
ModelLookup = Callable[[str], coh.ManifoldModel]


def cohomology_counterpart(
    model: AnsatzModel, lookup: Optional[ModelLookup] = None
) -> tuple:
    """(manifold model, initial class) matching the ansatz in the class engine.

    ``lookup`` maps a model name to a manifold model; the built-ins by default.
    """
    manifold = (lookup or coh_models.get_model)(_COUNTERPARTS[model.kind])
    return manifold, coh.ClassVector(model.scales)


@dataclass(frozen=True)
class CrossCheck:
    ansatz_time: Optional[Fraction]  # None encodes infinite
    cohomology_time: Optional[Fraction]
    equal: bool


def crosscheck_T(
    model: AnsatzModel, lookup: Optional[ModelLookup] = None
) -> CrossCheck:
    """Closed-form extinction time of the reduced ODE vs the class engine's T.

    Only meaningful in unnormalized mode, where both sides are exact
    rationals.  Both are exact, so nothing is integrated: ``equal`` holds
    when the two times are the same rational or both infinite.  An
    approximate class-engine T never counts as equal.  ``lookup`` picks
    the manifold models, as in :func:`cohomology_counterpart`.
    """
    if model.mode != UNNORMALIZED:
        raise ValueError("cross-check compares unnormalized extinction times")
    ansatz_time = reduce(model).extinction_time  # Fraction or None
    T = coh.max_existence_time(*cohomology_counterpart(model, lookup))
    coho_time = T.value if T.finite else None
    return CrossCheck(
        ansatz_time=ansatz_time,
        cohomology_time=coho_time,
        equal=T.exact and ansatz_time == coho_time,
    )
