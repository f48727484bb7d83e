"""A-priori-estimate check rows and the Hermitian matrix inequality checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..checks import Checks
from .background import TorusBackground
from .solver import EPS_POS, NORMALIZED, UNNORMALIZED, DiagnosticsSeries, RunConfig

#: tolerance on the scalar-curvature floor (discretization allowance), as
#: its literal: the rows print it as their tolerance text
R_FLOOR_TOL = "1e-4"
#: decay rate of sup|phidot| in a converging normalized run: the slowest
#: linearized mode is the mean, damped at exactly rate 1
NORMALIZED_DECAY_RATE = 1.0
#: relative tolerance on the fitted decay rate
DECAY_RATE_RTOL = 0.10
#: relative growth of sup|phi| over the last quarter of a run that counts as a blow-up trend
POTENTIAL_RTOL = 1e-6


def fit_decay_rate(
    ts: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float] = (1e-9, 1e-4),
) -> Optional[tuple[float, float]]:
    """Least-squares fit values ~ C * exp(-mu t) on a magnitude window.

    Returns (mu, C), or None when fewer than three samples fall in the
    window.
    """
    mask = (values > window[0]) & (values < window[1])
    if mask.sum() < 3:
        return None
    t = ts[mask]
    y = np.log(values[mask])
    slope, intercept = np.polyfit(t, y, 1)
    return -float(slope), float(np.exp(intercept))


def scalar_floor_row(checks: Checks, check: str, series: DiagnosticsSeries) -> None:
    """Add row ``check``: the grid-min scalar curvature drops at most R_FLOOR_TOL.

    The drop is measured from the first record; a NaN drop fails.
    """
    inf_r = series.column("inf_R")
    checks.within(check, inf_r[0] - inf_r.min(), "<=", R_FLOOR_TOL, f"drop <= {R_FLOOR_TOL}")


def decay_rate_row(checks: Checks, check: str, series: DiagnosticsSeries) -> None:
    """Add row ``check``: sup|phidot| decays like exp(-mu t), mu near the oracle rate.

    mu must lie within DECAY_RATE_RTOL of NORMALIZED_DECAY_RATE; no fit fails.
    """
    oracle = NORMALIZED_DECAY_RATE
    fit = fit_decay_rate(series.column("t"), series.column("sup_phidot"))
    rate = math.nan if fit is None else fit[0]
    checks.within(check, abs(rate - oracle), "<=", DECAY_RATE_RTOL * oracle, f"{oracle:.3f}",
                  "no fit" if fit is None else f"{rate:.4f}", f"{DECAY_RATE_RTOL:.0%}")


def estimate_report(series: DiagnosticsSeries, cfg: RunConfig, bg: TorusBackground) -> Checks:
    """Check a run's recorded diagnostics against the a priori estimates that apply to it.

    (i) potential-bound: no blow-up trend, i.e. the last quarter's max of
    sup|phi| stays within POTENTIAL_RTOL of the earlier max (a series of
    fewer than 8 records need only stay finite); (ii) scalar-floor, a fact
    of the untwisted unnormalized flow only; (iii) metric-equivalence: the
    metric's min eigenvalue stays >= ``EPS_POS``; (iv) normalized-decay,
    once a normalized run has converged.
    """
    if len(series) == 0:
        raise ValueError("empty diagnostics series")
    checks = Checks()
    sup_phi = series.column("sup_phi")
    if len(series) >= 8:
        cut = (3 * len(series)) // 4
        checks.within("potential-bound", sup_phi[cut:].max(), "<=",
                      sup_phi[:cut].max() * (1 + POTENTIAL_RTOL) + 1e-12,
                      "sup|phi|: last quarter's max <= earlier max", "{:.6g}",
                      f"{POTENTIAL_RTOL:.0e} relative")
    else:
        peak = sup_phi.max()
        checks.holds("potential-bound", math.isfinite(peak), "finite max sup|phi|", f"{peak:.6g}")
    untwisted = bg.f is None or float(np.abs(bg.f).max()) < 1e-14
    if cfg.mode == UNNORMALIZED and untwisted:
        scalar_floor_row(checks, "scalar-floor", series)
    checks.within("metric-equivalence", series.column("min_eig").min(), ">=", EPS_POS,
                  f"min eigenvalue >= {EPS_POS:.1e}", "{:.6g}", f"{EPS_POS:.1e}")
    if cfg.mode == NORMALIZED and series.converged:
        decay_rate_row(checks, "normalized-decay", series)
    return checks


# ---------------------------------------------------------------------------
# Hermitian matrix inequalities
# ---------------------------------------------------------------------------

#: relative slack for the eigenvalue-based chain checks (float roundoff)
CHAIN_TOL = 1e-11


def gap_constant(n: int) -> float:
    """Explicit constant C(n) = 4n - 3 for the near-identity gap bound.

    Derivation.  Let A be Hermitian positive with eigenvalues l_j,
    tr A <= n + e and det A >= 1 - e for some 0 < e < 1, and let S_k be the
    normalized elementary symmetric polynomials.  Then

        ||A - Id||^2 = sum (l_j - 1)^2 = n^2 S_1^2 - n(n-1) S_2 - 2n S_1 + n.

    The normalized symmetric means decrease (S_1 >= sqrt(S_2) >= ... >=
    S_n^(1/n)), so S_2 >= S_n^(2/n) >= (1-e)^(2/n) and S_1 <= 1 + e/n,
    while S_1 >= S_n^(1/n) >= 1 - e.  The quadratic n^2 s^2 - 2n s is
    maximized over s in [1-e, 1+e/n] at the right endpoint, hence

        ||A - Id||^2 <= n(n-1) (1 - (1-e)^(2/n)) + 2(n-1) e + e^2.

    Bernoulli's inequality gives (1-e)^(2/n) >= 1 - 2e/n for n >= 2 (and
    directly for n = 1), so the first term is at most 2(n-1) e; with
    e^2 <= e the total is at most (4n - 3) e.
    """
    return 4.0 * n - 3.0


@dataclass
class GapCheck:
    lhs: np.ndarray  # ||A - Id||^2
    bound: np.ndarray  # C(n) * eps
    violations: int  # samples over bound + min(1e-12, CHAIN_TOL * bound + 1e-15); NaN counts
    passed: bool  # no violation, and the chain holds
    chain_ok: bool
    s_values: np.ndarray  # normalized symmetric means S_1..S_n, last axis


def _normalized_symmetric(eigs: np.ndarray) -> np.ndarray:
    """S_1..S_n of eigenvalue arrays (..., n), normalized by binomials."""
    from math import comb

    n = eigs.shape[-1]
    # elementary symmetric polynomials by sequential convolution
    coeffs = np.zeros(eigs.shape[:-1] + (n + 1,))
    coeffs[..., 0] = 1.0
    for j in range(n):
        prev = coeffs.copy()
        coeffs[..., 1 : j + 2] = prev[..., 1 : j + 2] + eigs[..., j, None] * prev[..., 0 : j + 1]
    out = np.empty(eigs.shape[:-1] + (n,))
    for k in range(1, n + 1):
        out[..., k - 1] = coeffs[..., k] / comb(n, k)
    return out


def matrix_gap_check(A: np.ndarray, eps) -> GapCheck:
    """Verify the near-identity gap bound and the symmetric-means chain.

    Accepts a single Hermitian positive matrix or a stack (..., n, n) with
    matching eps broadcastable over the stack.  Preconditions
    tr A <= n + eps, det A >= 1 - eps and 0 < eps < 1 are enforced.
    """
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("A must be a square matrix or a stack of them")
    n = A.shape[-1]
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float), A.shape[:-2]).copy()
    if np.any(eps_arr <= 0) or np.any(eps_arr >= 1):
        raise ValueError("eps must lie in (0, 1)")
    eigs = np.linalg.eigvalsh(A)
    if np.any(eigs[..., 0] <= 0):
        raise ValueError("A must be positive definite")
    tr = eigs.sum(axis=-1)
    det = eigs.prod(axis=-1)
    scale = 1.0 + CHAIN_TOL
    if np.any(tr > (n + eps_arr) * scale) or np.any(det < (1.0 - eps_arr) / scale):
        raise ValueError("preconditions tr A <= n + eps, det A >= 1 - eps violated")

    s = _normalized_symmetric(eigs)
    roots = np.stack([s[..., k] ** (1.0 / (k + 1)) for k in range(n)], axis=-1)
    chain_ok = bool(
        np.all(roots[..., :-1] >= roots[..., 1:] * (1.0 - CHAIN_TOL))
        and np.all(1.0 + eps_arr / n >= roots[..., 0] * (1.0 - CHAIN_TOL))
        and np.all(roots[..., -1] >= (1.0 - eps_arr) * (1.0 - CHAIN_TOL) - CHAIN_TOL)
    )
    s1 = s[..., 0]
    s2 = s[..., 1] if n >= 2 else s1**2  # n = 1: S_2 term has zero weight
    lhs = n**2 * s1**2 - 2 * n * s1 - n * (n - 1) * s2 + n
    bound = gap_constant(n) * eps_arr
    slack = np.minimum(1e-12, bound * CHAIN_TOL + 1e-15)
    violations = int(np.count_nonzero(~(lhs <= bound + slack)))
    passed = violations == 0 and chain_ok
    return GapCheck(
        lhs=lhs, bound=bound, violations=violations, passed=passed, chain_ok=chain_ok, s_values=s
    )


@dataclass
class TraceCheck:
    passed: bool
    trace_lhs: np.ndarray
    trace_rhs: np.ndarray
    eig_lhs: np.ndarray
    eig_rhs: np.ndarray


def relative_eigenvalues(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Eigenvalues of B^{-1} A for Hermitian positive A, B (stacked ok)."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    L = np.linalg.cholesky(B)
    Linv = np.linalg.inv(L)
    M = Linv @ A @ Linv.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(M)


def trace_inequalities_check(A: np.ndarray, B: np.ndarray) -> TraceCheck:
    """Two eigenvalue inequalities used to pass between trace and volume bounds.

    With mu the eigenvalues of B^{-1}A (both Hermitian positive definite):

    * sum(mu) <= (sum(1/mu))^(n-1) / (n-1)! * prod(mu), i.e. the trace of A
      against B is controlled by the reverse trace and the volume ratio;
    * min(mu) >= prod(mu) * (n-1)^(n-1) / (sum(mu))^(n-1): each eigenvalue
      is the volume ratio divided by the product of the others, and that
      product is at most the (n-1)-power mean of the rest.
    """
    from math import factorial

    mu = relative_eigenvalues(A, B)
    if np.any(mu[..., 0] <= 0):
        raise ValueError("inputs must be positive definite")
    n = mu.shape[-1]
    tr_ba = mu.sum(axis=-1)  # trace of A measured in B
    tr_ab = (1.0 / mu).sum(axis=-1)  # trace of B measured in A
    det_ratio = mu.prod(axis=-1)
    trace_rhs = tr_ab ** (n - 1) / factorial(n - 1) * det_ratio
    eig_lhs = mu[..., 0]
    if n == 1:
        eig_rhs = det_ratio
    else:
        eig_rhs = det_ratio * (n - 1.0) ** (n - 1) / tr_ba ** (n - 1)
    scale = 1.0 + CHAIN_TOL
    passed = bool(
        np.all(tr_ba <= trace_rhs * scale) and np.all(eig_lhs >= eig_rhs / scale)
    )
    return TraceCheck(
        passed=passed,
        trace_lhs=tr_ba,
        trace_rhs=trace_rhs,
        eig_lhs=eig_lhs,
        eig_rhs=eig_rhs,
    )
