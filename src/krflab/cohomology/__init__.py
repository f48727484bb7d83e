"""Exact-arithmetic engine for (1,1)-class evolution under the Kahler-Ricci flow.

A :class:`ManifoldModel` is a finite presentation of the real (1,1)
cohomology of a compact Kahler manifold: a basis, the top intersection
form, the coordinates of twice-pi times the first Chern class, an
inequality description of the Kahler cone, and a catalogue of subvarieties
with their restriction pairings.  Flow times, limiting classes, volumes
and null loci are exact rationals.

Queries run on a model's integer kernel (:class:`IntegerKernel`): a class
with coordinates A/q (A integer, q > 0) is tested and measured through
integer polynomials in A, and each answer becomes one ``Fraction``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
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
    """An int, a Fraction or a "p/q" string as a Fraction; a float is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class ClassVector:
    """Rational coordinates of a real (1,1)-class in a model's basis.

    ``cleared`` is the integer form (A, q) of the coordinates, computed on
    first use and kept on the instance; equality, hash and repr read
    ``coords`` only.
    """

    coords: tuple[Fraction, ...]
    _cleared: Optional[tuple[tuple[int, ...], int]] = field(
        default=None, init=False, repr=False, compare=False
    )

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

    @property
    def cleared(self) -> tuple[tuple[int, ...], int]:
        """(A, q) with coords = A/q, A integer and q the least common denominator."""
        if self._cleared is None:
            q = math.lcm(*(x.denominator for x in self.coords))
            A = tuple(x.numerator * (q // x.denominator) for x in self.coords)
            object.__setattr__(self, "_cleared", (A, q))
        return self._cleared

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


@dataclass(frozen=True)
class PolyFunctional:
    """Homogeneous polynomial in class coordinates with rational coefficients."""

    monomials: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        degrees = {sum(e) for e in self.monomials}
        if len(degrees) > 1:
            raise ValueError(f"functional is not homogeneous: degrees {degrees}")


def volume_functional(tensor: IntersectionTensor) -> PolyFunctional:
    """The degree-n form a -> a^n as an explicit polynomial."""
    return PolyFunctional(_expand_symmetric(tensor.entries, tensor.dim))


def _expand_symmetric(
    entries: dict[tuple[int, ...], Fraction], dim: int
) -> dict[tuple[int, ...], Fraction]:
    """Monomials of a -> sum over ordered index tuples of entry * prod(a_i).

    ``entries`` is keyed by sorted tuples; each stands for all its
    orderings, hence the multinomial multiplicity.
    """
    monos: dict[tuple[int, ...], Fraction] = {}
    for idx, val in entries.items():
        counts = [0] * dim
        for i in idx:
            counts[i] += 1
        mult = math.factorial(len(idx))
        for c in counts:
            mult //= math.factorial(c)
        expo = tuple(counts)
        monos[expo] = monos.get(expo, Fraction(0)) + val * mult
    return {e: c for e, c in monos.items() if c}


@dataclass(frozen=True)
class ConeSpec:
    """Kahler iff every functional is strictly positive; nef iff all >= 0."""

    constraints: tuple[tuple[str, PolyFunctional], ...]


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


#: integer polynomial in class coordinates, as (coefficient, exponents) terms
IntPoly = tuple[tuple[int, tuple[int, ...]], ...]


def _int_poly(monomials: dict[tuple[int, ...], Fraction]) -> tuple[IntPoly, int]:
    """(P, D) with P = D * monomials over the integers and D > 0."""
    den = math.lcm(*(c.denominator for c in monomials.values()))
    terms = tuple(
        (c.numerator * (den // c.denominator), e) for e, c in monomials.items() if c
    )
    return terms, den


def _value(poly: IntPoly, A: Sequence[int]) -> int:
    total = 0
    for coeff, expo in poly:
        for x, e in zip(A, expo):
            if e:
                coeff *= x**e
        total += coeff
    return total


def _along_line(poly: IntPoly, C: Sequence[int]) -> tuple[IntPoly, ...]:
    """(G_0, ..., G_d) with poly(A - s*C) = sum_j G_j(A) s^j, by binomial expansion."""
    degree = sum(poly[0][1]) if poly else 0
    parts: list[dict[tuple[int, ...], int]] = [{} for _ in range(degree + 1)]
    for coeff, expo in poly:
        for ks in itertools.product(*(range(e + 1) for e in expo)):
            term = coeff
            for e, k, c in zip(expo, ks, C):
                term *= math.comb(e, k) * (-c) ** k
            rest = tuple(e - k for e, k in zip(expo, ks))
            part = parts[sum(ks)]
            part[rest] = part.get(rest, 0) + term
    return tuple(tuple((v, e) for e, v in part.items() if v) for part in parts)


@dataclass(frozen=True)
class IntegerKernel:
    """A model's cone, volume form, pairings and cone lines over the integers.

    For a class A/q every question is an integer polynomial in A.  Each
    cone constraint f of degree d is stored as F = D*f with D > 0 clearing
    its denominators, so F and f share signs and zeros; so is each catalogue
    pairing.  The volume form is ``volume / volume_den``.  With
    2 pi c1 = C/c, ``lines[k] = (G_0, ..., G_d)`` are the integer
    polynomials with F(A - s*C) = sum_j G_j(A) s^j, so that along the flow
    line D*f(A/q - t*C/c) = q^-d * sum_j G_j(A) (q*t/c)^j.

    The kernel also keeps the :class:`ExistenceTime` of the last Kahler
    class it answered, keyed by that class's (A, q): one entry, so a
    query that asks for T again right after (the limiting class does)
    reads it back instead of solving the cone lines twice.
    """

    cone: tuple[tuple[str, IntPoly], ...]
    lines: tuple[tuple[IntPoly, ...], ...]
    volume: IntPoly
    volume_den: int
    catalogue: tuple[tuple[str, IntPoly], ...]
    c1: tuple[int, ...]
    c1_den: int
    _last_time: Optional[tuple[tuple[tuple[int, ...], int], "ExistenceTime"]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def of(model: "ManifoldModel") -> "IntegerKernel":
        C, c = model.c1twopi.cleared
        cone = tuple((label, _int_poly(f.monomials)[0]) for label, f in model.cone.constraints)
        volume, volume_den = _int_poly(_expand_symmetric(model.tensor.entries, model.tensor.dim))
        catalogue = tuple(
            (entry.label, _int_poly(_expand_symmetric(entry.pairing, len(model.basis)))[0])
            for entry in model.catalogue
        )
        return IntegerKernel(
            cone=cone,
            lines=tuple(_along_line(f, C) for _, f in cone),
            volume=volume,
            volume_den=volume_den,
            catalogue=catalogue,
            c1=C,
            c1_den=c,
        )

    def violated(self, A: Sequence[int], strict: bool) -> tuple[str, ...]:
        floor = 1 if strict else 0  # an integer v is > 0 iff v >= 1
        return tuple(label for label, f in self.cone if _value(f, A) < floor)


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
    #: built on first use and kept on this instance, never shared between
    #: models: two models may carry one name and different cones
    _kernel: Optional[IntegerKernel] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        dim = len(self.basis)
        if self.n < 1:
            raise ValueError(f"complex dimension {self.n} is below 1")
        if len(self.c1twopi) != dim:
            raise ValueError("c1 coordinates do not match basis length")
        if self.tensor.dim != dim or self.tensor.n != self.n:
            raise ValueError("tensor shape does not match model")
        if self.kodaira is not None and not 0 <= self.kodaira <= self.n:
            raise ValueError(f"kodaira dimension {self.kodaira} is outside 0..{self.n}")
        for label, f in self.cone.constraints:
            if any(len(expo) != dim or min(expo, default=0) < 0 for expo in f.monomials):
                raise ValueError(f"cone constraint [{label}] needs {dim} nonnegative exponents")
        for entry in self.catalogue:
            if not 1 <= entry.dim <= self.n:
                raise ValueError(
                    f"subvariety [{entry.label}] dimension {entry.dim} is outside 1..{self.n}"
                )
            if any(len(k) != entry.dim or not all(0 <= i < dim for i in k) for k in entry.pairing):
                raise ValueError(
                    f"subvariety [{entry.label}] needs pairing keys of {entry.dim} basis indices"
                )

    @property
    def kernel(self) -> IntegerKernel:
        if self._kernel is None:
            object.__setattr__(self, "_kernel", IntegerKernel.of(self))
        return self._kernel

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
    t = as_fraction(t)
    kernel = model.kernel
    A, q = a0.cleared
    # A/q - (tn/td) * C/c over the one denominator q*td*c
    tn, scale = t.numerator, t.denominator * kernel.c1_den
    return ClassVector(
        tuple(Fraction(x * scale - tn * k * q, q * scale) for x, k in zip(A, kernel.c1))
    )


def is_kahler(model: ManifoldModel, a: ClassVector) -> bool:
    model.check_class(a)
    return not model.kernel.violated(a.cleared[0], strict=True)


def is_nef(model: ManifoldModel, a: ClassVector) -> bool:
    model.check_class(a)
    return not model.kernel.violated(a.cleared[0], strict=False)


def volume(model: ManifoldModel, a: ClassVector) -> Fraction:
    """Top self-intersection of the class, exact."""
    model.check_class(a)
    kernel = model.kernel
    A, q = a.cleared
    return Fraction(_value(kernel.volume, A), kernel.volume_den * q**model.n)


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

    Each cone functional restricted to the line is a univariate polynomial
    in t, here with integer coefficients (a positive multiple, see
    :class:`IntegerKernel`); its first positive root is that constraint's
    failure time and T is the minimum over constraints.  Linear
    constraints and quadratics with square discriminant give exact
    rational answers; anything else is isolated to a 1e-12 interval and
    flagged approximate.  Asked twice in a row for one class, the model's
    kernel answers the second time from its last result.
    """
    model.check_class(a0)
    kernel = model.kernel
    key = a0.cleared
    if kernel._last_time is not None and kernel._last_time[0] == key:
        return kernel._last_time[1]
    A, q = key
    bad = kernel.violated(A, strict=True)
    if bad:
        raise NotKahlerError(
            f"initial class {a0} on {model.name} is not Kahler; "
            f"violated: {', '.join(bad)}",
            violated=bad,
        )
    T = _existence_time(model.name, kernel, A, q)
    object.__setattr__(kernel, "_last_time", (key, T))
    return T


def _existence_time(name: str, kernel: IntegerKernel, A: Sequence[int], q: int) -> ExistenceTime:
    """T for the Kahler class A/q: the first failure time over the cone lines."""
    c = kernel.c1_den
    best: Optional[tuple] = None  # (key, exact, value-or-interval, label)
    for (label, _), line in zip(kernel.cone, kernel.lines):
        d = len(line) - 1
        # G(q*t/c) times q^d * c^d: the coefficient of t^j is G_j(A) q^j c^(d-j)
        coeffs = [_value(g, A) * q**j * c ** (d - j) for j, g in enumerate(line)]
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
        if kernel.violated(tuple(-k for k in kernel.c1), strict=False):
            raise ValueError(
                f"inconsistent cone spec on {name}: every constraint "
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
    kernel = model.kernel
    A, _ = a.cleared
    if kernel.violated(A, strict=False):
        raise NotNefError(f"class {a} on {model.name} is not nef")
    labels = tuple(label for label, p in kernel.catalogue if _value(p, A) == 0)
    return NullLocus(labels=labels, whole_space=_value(kernel.volume, A) == 0)


def singularity_seed(model: ManifoldModel, a: ClassVector, lam: RatLike) -> ClassVector:
    """Kahler class whose flow dies at time ``lam`` with limiting class ``a``.

    ``a`` must be nef but not Kahler and ``a + lam * (2 pi c1)`` must be
    Kahler; then the line back to ``a`` stays Kahler until exactly ``lam``.
    The postcondition is cross-checked before returning; a cone spec that
    fails it (a cone that is not convex, say) raises DomainError.
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
        raise DomainError(f"seed postcondition failed on {model.name}; cone spec inconsistent")
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
