"""Exact univariate polynomials over the rationals.

Coefficient lists are ascending (``coeffs[k]`` multiplies ``t**k``) and hold
``int`` or ``fractions.Fraction`` values.  The one nontrivial service is
certified isolation of the smallest positive root, used to turn cone
constraints restricted to a line into exact (or certified-interval)
failure times.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

Rat = Fraction

#: width of the isolating interval returned for irrational roots
ISOLATION_WIDTH = Fraction(1, 10**12)


def trim(coeffs: Sequence[Rat]) -> list[Rat]:
    """Drop trailing zero coefficients (the zero polynomial trims to [])."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def evaluate(coeffs: Sequence[Rat], t: Rat) -> Rat:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * t + c
    return acc


def derivative(coeffs: Sequence[Rat]) -> list[Rat]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _poly_divmod(num: Sequence[Rat], den: Sequence[Rat]) -> tuple[list[Rat], list[Rat]]:
    num = list(num)
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(trim(rem)) >= len(den):
        rem = trim(rem)
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, d in enumerate(den):
            rem[shift + i] -= factor * d
        rem = rem[:-1]
    return trim(quot), trim(rem)


def _sturm_chain(coeffs: Sequence[Rat]) -> list[list[Rat]]:
    p0 = trim(coeffs)
    p1 = trim(derivative(p0))
    chain = [p0, p1]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain: list[list[Rat]], t: Rat) -> int:
    signs = []
    for p in chain:
        v = evaluate(p, t)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree(coeffs: Sequence[Rat]) -> list[Rat]:
    p = trim(coeffs)
    if len(p) <= 1:
        return p
    chain = _sturm_chain(p)
    gcd = chain[-1] if chain[-1] else chain[-2]
    # gcd(p, p') from the tail of the signed remainder sequence
    g = trim(gcd)
    if len(g) <= 1:
        return p
    quot, _ = _poly_divmod(p, g)
    return quot


def _cauchy_bound(coeffs: Sequence[Rat]) -> Rat:
    p = trim(coeffs)
    lead = p[-1]
    return 1 + max(abs(c / lead) for c in p[:-1]) if len(p) > 1 else Fraction(1)


def first_positive_root(coeffs: Sequence[Rat]) -> tuple[Optional[Rat], Optional[tuple[Rat, Rat]]]:
    """Smallest root in (0, inf) of a rational polynomial.

    Returns ``(root, None)`` when the root is exactly representable (always
    the case for degree <= 1, and for degree 2 when the discriminant is a
    rational square), ``(None, (lo, hi))`` with a certified isolating
    interval of width <= 1e-12 otherwise, and ``(None, None)`` when there is
    no positive root at all.
    """
    # a positive multiple has the same roots and the same Sturm interval
    # (every chain member scales by it and the squarefree part not at all)
    den = math.lcm(*(c.denominator for c in coeffs))
    p = trim([c.numerator * (den // c.denominator) for c in coeffs])
    if len(p) <= 1:
        return None, None  # constant (or zero): no isolated positive root
    if len(p) == 2:
        return (Fraction(-p[0], p[1]), None) if p[0] * p[1] < 0 else (None, None)
    if len(p) == 3:
        c, b, a = p
        disc = b * b - 4 * a * c
        if disc < 0:
            return None, None
        sq = math.isqrt(disc)
        if sq * sq == disc:
            # the roots are (-b -+ sq) / 2a; positive when the numerator has a's sign
            nums = [m for m in (-b - sq, -b + sq) if m * a > 0]
            if not nums:
                return None, None
            return Fraction(min(nums) if a > 0 else max(nums), 2 * a), None
        # irrational pair: fall through to certified isolation
    return None, _isolate_first_positive([Fraction(c) for c in p])


def _isolate_first_positive(p: list[Rat]) -> Optional[tuple[Rat, Rat]]:
    sf = _squarefree(p)
    chain = _sturm_chain(sf)
    bound = _cauchy_bound(sf)
    lo, hi = Fraction(0), bound
    if _sign_changes(chain, lo) - _sign_changes(chain, hi) == 0:
        # multiple-root-only case already removed by squarefree part
        return None
    # shrink to an interval containing exactly the smallest positive root
    while hi - lo > ISOLATION_WIDTH:
        mid = (lo + hi) / 2
        if _sign_changes(chain, lo) - _sign_changes(chain, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi
