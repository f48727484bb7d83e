"""Exact-arithmetic engine for (1,1)-class evolution under the Kahler-Ricci flow.

A :class:`ManifoldModel` is a finite presentation of the real (1,1)
cohomology of a compact Kahler manifold: a basis, the top intersection
form, the coordinates of twice-pi times the first Chern class, an
inequality description of the Kahler cone, and a catalogue of subvarieties
with their restriction pairings.  All arithmetic is over
``fractions.Fraction``, so flow times, limiting classes, volumes and null
loci on the built-in models are exact.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from . import poly

RatLike = Union[int, str, Fraction]


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (CLI exit code 3)."""


class NotKahlerError(DomainError):
    def __init__(self, message: str, violated: tuple[str, ...] = ()):
        super().__init__(message)
        self.violated = violated


class NotNefError(DomainError):
    pass


class FiniteTimeRegimeError(DomainError):
    pass


class InfiniteTimeError(DomainError):
    pass


class ApproximateTimeError(DomainError):
    """The requested quantity needs an exact T but only an interval is known."""


def as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class ClassVector:
    """Rational coordinates of a real (1,1)-class in a model's basis."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[RatLike]) -> "ClassVector":
        return ClassVector(tuple(as_fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        _check_same_len(self, other)
        return ClassVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        _check_same_len(self, other)
        return ClassVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, s: RatLike) -> "ClassVector":
        s = as_fraction(s)
        return ClassVector(tuple(s * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _check_same_len(a: ClassVector, b: ClassVector) -> None:
    if len(a) != len(b):
        raise DimensionMismatchError(f"class dimensions differ: {len(a)} vs {len(b)}")


class DimensionMismatchError(DomainError):
    pass


@dataclass(frozen=True)
class IntersectionTensor:
    """Fully symmetric n-linear form on the basis, rational entries.

    ``entries`` maps nondecreasing index tuples of length ``n`` to values;
    missing tuples are zero.
    """

    n: int
    dim: int
    entries: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        for idx, val in self.entries.items():
            if len(idx) != self.n or tuple(sorted(idx)) != idx:
                raise ValueError(f"tensor key {idx} must be a sorted {self.n}-tuple")
            if not all(0 <= i < self.dim for i in idx):
                raise ValueError(f"tensor key {idx} out of range for dim {self.dim}")
            if not isinstance(val, Fraction):
                raise TypeError("tensor entries must be Fractions")

    def value(self, idx: Sequence[int]) -> Fraction:
        return self.entries.get(tuple(sorted(idx)), Fraction(0))

    def evaluate(self, *classes: ClassVector) -> Fraction:
        """Multilinear evaluation on exactly ``n`` class vectors."""
        if len(classes) != self.n:
            raise DimensionMismatchError(f"need {self.n} classes, got {len(classes)}")
        for c in classes:
            if len(c) != self.dim:
                raise DimensionMismatchError("class length does not match basis")
        total = Fraction(0)
        for idx in itertools.product(range(self.dim), repeat=self.n):
            v = self.value(idx)
            if v == 0:
                continue
            prod = v
            for slot, i in enumerate(idx):
                prod *= classes[slot].coords[i]
            total += prod
        return total


@dataclass(frozen=True)
class PolyFunctional:
    """Homogeneous polynomial in class coordinates with rational coefficients."""

    monomials: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        degrees = {sum(e) for e in self.monomials}
        if len(degrees) > 1:
            raise ValueError(f"functional is not homogeneous: degrees {degrees}")

    @property
    def degree(self) -> int:
        return sum(next(iter(self.monomials))) if self.monomials else 0

    def evaluate(self, a: ClassVector) -> Fraction:
        total = Fraction(0)
        for expo, coeff in self.monomials.items():
            term = coeff
            for i, e in enumerate(expo):
                if e:
                    term *= a.coords[i] ** e
            total += term
        return total

    def along_line(self, start: ClassVector, direction: ClassVector) -> list[Fraction]:
        """Coefficients of t -> functional(start - t*direction)."""
        return poly.restrict_to_line(self.monomials, start.coords, direction.coords)


@dataclass(frozen=True)
class ConeSpec:
    """Kahler iff every functional is strictly positive; nef iff all >= 0."""

    constraints: tuple[tuple[str, PolyFunctional], ...]

    def violated(self, a: ClassVector, strict: bool) -> tuple[str, ...]:
        bad = []
        for label, f in self.constraints:
            v = f.evaluate(a)
            if (v <= 0) if strict else (v < 0):
                bad.append(label)
        return tuple(bad)


@dataclass(frozen=True)
class SubvarietyEntry:
    """Catalogued irreducible subvariety with its restriction pairing.

    ``pairing`` maps nondecreasing index k-tuples to the value of the
    integral over the subvariety of the product of the corresponding basis
    classes, so the top self-intersection of a class restricted to the
    subvariety is a degree-k form in its coordinates.
    """

    label: str
    dim: int
    pairing: dict[tuple[int, ...], Fraction]

    def restrict(self, a: ClassVector) -> Fraction:
        """Integral over the subvariety of a^dim."""
        total = Fraction(0)
        for idx, val in self.pairing.items():
            term = val
            for i in idx:
                term *= a.coords[i]
            # multiplicity of the symmetric tuple in the multilinear expansion
            total += term * _multinomial(idx)
        return total


def _multinomial(sorted_idx: tuple[int, ...]) -> int:
    k = len(sorted_idx)
    counts = [len(list(g)) for _, g in itertools.groupby(sorted_idx)]
    out = math.factorial(k)
    for c in counts:
        out //= math.factorial(c)
    return out


@dataclass(frozen=True)
class ManifoldModel:
    name: str
    n: int
    basis: tuple[str, ...]
    tensor: IntersectionTensor
    c1twopi: ClassVector
    cone: ConeSpec
    catalogue: tuple[SubvarietyEntry, ...]
    kodaira: Optional[int]  # None encodes kodaira dimension minus infinity
    notes: str = ""

    def __post_init__(self):
        if len(self.c1twopi) != len(self.basis):
            raise ValueError("c1 coordinates do not match basis length")
        if self.tensor.dim != len(self.basis) or self.tensor.n != self.n:
            raise ValueError("tensor shape does not match model")

    def check_class(self, a: ClassVector) -> None:
        if len(a) != len(self.basis):
            raise DimensionMismatchError(
                f"model {self.name} has {len(self.basis)} basis classes, got {len(a)}"
            )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def evolve_class(model: ManifoldModel, a0: ClassVector, t: RatLike) -> ClassVector:
    """Class of the evolving metric at time t: a0 - t * (2 pi c1)."""
    model.check_class(a0)
    return a0 - model.c1twopi.scale(as_fraction(t))


def is_kahler(model: ManifoldModel, a: ClassVector) -> bool:
    model.check_class(a)
    return not model.cone.violated(a, strict=True)


def is_nef(model: ManifoldModel, a: ClassVector) -> bool:
    model.check_class(a)
    return not model.cone.violated(a, strict=False)


def volume(model: ManifoldModel, a: ClassVector) -> Fraction:
    """Top self-intersection of the class, exact."""
    model.check_class(a)
    return model.tensor.evaluate(*([a] * model.n))


@dataclass(frozen=True)
class ExistenceTime:
    """Maximal existence time of the flow started at a Kahler class.

    ``value`` is the exact rational time when ``exact`` (and None for the
    infinite case, reported via ``finite``); otherwise ``interval`` encloses
    the time to width 1e-12.
    """

    finite: bool
    exact: bool
    value: Optional[Fraction] = None
    interval: Optional[tuple[Fraction, Fraction]] = None
    binding: Optional[str] = None

    def __str__(self) -> str:
        if not self.finite:
            return "infinity"
        if self.exact:
            return str(self.value)
        lo, hi = self.interval
        return (
            f"~{float((lo + hi) / 2):.12g} "
            f"(approximate; certified in [{float(lo)!r}, {float(hi)!r}])"
        )


def max_existence_time(model: ManifoldModel, a0: ClassVector) -> ExistenceTime:
    """Supremum of t with a0 - t*(2 pi c1) Kahler.

    Each cone functional restricted to the line is a univariate rational
    polynomial; its first positive root is that constraint's failure time
    and T is the minimum over constraints.  Linear constraints and
    quadratics with square discriminant give exact rational answers;
    anything else is isolated to a 1e-12 interval and flagged approximate.
    """
    model.check_class(a0)
    bad = model.cone.violated(a0, strict=True)
    if bad:
        raise NotKahlerError(
            f"initial class {a0} on {model.name} is not Kahler; "
            f"violated: {', '.join(bad)}",
            violated=bad,
        )

    best: Optional[tuple] = None  # (key, exact, value-or-interval, label)
    for label, f in model.cone.constraints:
        coeffs = f.along_line(a0, model.c1twopi)
        root, interval = poly.first_positive_root(coeffs)
        if root is not None:
            candidate = (root, True, root, label)
        elif interval is not None:
            candidate = (interval[0], False, interval, label)
        else:
            continue
        if best is None or candidate[0] < best[0]:
            best = candidate

    if best is None:
        if not is_nef(model, model.c1twopi.scale(-1)):
            raise ValueError(
                f"inconsistent cone spec on {model.name}: every constraint "
                "survives all t >= 0 but the anticanonical direction is not nef"
            )
        return ExistenceTime(finite=False, exact=True)
    _, exact, payload, label = best
    if exact:
        return ExistenceTime(finite=True, exact=True, value=payload, binding=label)
    return ExistenceTime(finite=True, exact=False, interval=payload, binding=label)


def limiting_class(model: ManifoldModel, a0: ClassVector) -> ClassVector:
    """Class of the flow at its finite maximal time (requires exact T)."""
    T = max_existence_time(model, a0)
    if not T.finite:
        raise InfiniteTimeError(f"flow from {a0} on {model.name} exists for all time")
    if not T.exact:
        raise ApproximateTimeError(
            "maximal time is only known to an interval; limiting class not exact"
        )
    return evolve_class(model, a0, T.value)


def is_noncollapsed(model: ManifoldModel, a0: ClassVector) -> bool:
    """Finite-time singularity keeps positive volume iff the limit is big."""
    return volume(model, limiting_class(model, a0)) > 0


WHOLE_SPACE = "X"


@dataclass(frozen=True)
class NullLocus:
    """Catalogued subvarieties on which the nef class has zero pairing.

    The computation only ever consults the model's catalogue, hence the
    constant ``catalogue_relative`` marker; ``whole_space`` is set exactly
    when the class has zero volume.
    """

    labels: tuple[str, ...]
    whole_space: bool
    catalogue_relative: bool = True

    def all_labels(self) -> tuple[str, ...]:
        return ((WHOLE_SPACE,) if self.whole_space else ()) + self.labels


def null_locus(model: ManifoldModel, a: ClassVector) -> NullLocus:
    model.check_class(a)
    if not is_nef(model, a):
        raise NotNefError(f"class {a} on {model.name} is not nef")
    labels = tuple(
        entry.label for entry in model.catalogue if entry.restrict(a) == 0
    )
    return NullLocus(labels=labels, whole_space=volume(model, a) == 0)


def singularity_seed(model: ManifoldModel, a: ClassVector, lam: RatLike) -> ClassVector:
    """Kahler class whose flow dies at time ``lam`` with limiting class ``a``.

    ``a`` must be nef but not Kahler and ``a + lam * (2 pi c1)`` must be
    Kahler; then the line back to ``a`` stays Kahler until exactly ``lam``.
    The postcondition is cross-checked before returning.
    """
    model.check_class(a)
    lam = as_fraction(lam)
    if lam <= 0:
        raise DomainError("scale parameter must be positive")
    if not is_nef(model, a):
        raise NotNefError(f"target class {a} is not nef on {model.name}")
    if is_kahler(model, a):
        raise DomainError(f"target class {a} is already Kahler; no singularity")
    seed = a + model.c1twopi.scale(lam)
    if not is_kahler(model, seed):
        raise NotKahlerError(
            f"positivity check failed: {a} + {lam}*(2 pi c1) is not Kahler "
            f"on {model.name}"
        )
    T = max_existence_time(model, seed)
    if not (T.finite and T.exact and T.value == lam and limiting_class(model, seed) == a):
        raise AssertionError("seed postcondition failed; cone spec inconsistent")
    return seed


class Regime(enum.Enum):
    CALABI_YAU = "CalabiYau"
    AMPLE_CANONICAL = "AmpleCanonical"
    NEF_BIG_CANONICAL = "NefBigCanonical"
    INTERMEDIATE_KODAIRA = "IntermediateKodaira"


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    kodaira: Optional[int] = None
    fiber_dimension: Optional[int] = None

    def __str__(self) -> str:
        if self.regime is Regime.INTERMEDIATE_KODAIRA:
            return (
                f"{self.regime.value} (kodaira {self.kodaira}, "
                f"fiber dimension {self.fiber_dimension})"
            )
        return self.regime.value


def long_time_regime(model: ManifoldModel) -> RegimeReport:
    """Trichotomy for immortal flows, read off the anticanonical class."""
    minus_c1 = model.c1twopi.scale(-1)
    if not is_nef(model, minus_c1):
        raise FiniteTimeRegimeError(
            f"{model.name}: canonical class is not nef; every flow dies in finite time"
        )
    if model.c1twopi.is_zero():
        return RegimeReport(Regime.CALABI_YAU)
    if is_kahler(model, minus_c1):
        return RegimeReport(Regime.AMPLE_CANONICAL)
    if volume(model, minus_c1) > 0:
        return RegimeReport(Regime.NEF_BIG_CANONICAL)
    if model.kodaira is None or not 0 < model.kodaira < model.n:
        raise ValueError(
            f"{model.name}: boundary non-big canonical class needs intermediate "
            f"kodaira dimension metadata, found {model.kodaira}"
        )
    return RegimeReport(
        Regime.INTERMEDIATE_KODAIRA,
        kodaira=model.kodaira,
        fiber_dimension=model.n - model.kodaira,
    )
