"""A-priori-estimate verdicts and the Hermitian matrix inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .solver import EPS_POS, DiagnosticsSeries

#: tolerance on the scalar-curvature floor (discretization allowance)
R_FLOOR_TOL = 1e-4
#: decay rate of sup|phidot| in a converging normalized run: the slowest
#: linearized mode is the mean, damped at exactly rate 1
NORMALIZED_DECAY_RATE = 1.0


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class EstimateReport:
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def __str__(self) -> str:
        lines = []
        for v in self.verdicts:
            status = "pass" if v.passed else "FAIL"
            lines.append(f"[{status}] {v.name}: {v.detail}")
        return "\n".join(lines)


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


def estimate_report(
    series: DiagnosticsSeries,
    eps_pos: float = EPS_POS,
    scalar_floor: bool = True,
    normalized_cy: bool = False,
) -> EstimateReport:
    """Check the recorded diagnostics against the expected a priori bounds.

    (i) the potential stays bounded with no blow-up trend; (ii) the
    grid-min scalar curvature drops at most R_FLOOR_TOL below its initial
    value (a NaN drop fails) -- this floor is only a fact for the untwisted
    unnormalized flow, so callers disable it via ``scalar_floor`` for
    twisted or normalized runs; (iii) the evolving metric stays uniformly
    positive; (iv) in normalized runs on Ricci-flat backgrounds,
    sup|phidot| decays like exp(-mu t) with mu within 10% of
    NORMALIZED_DECAY_RATE.
    """
    if len(series) == 0:
        raise ValueError("empty diagnostics series")
    report = EstimateReport()
    ts = series.column("t")
    sup_phi = series.column("sup_phi")

    peak = float(sup_phi.max())
    if len(series) >= 8:
        cut = max(1, (3 * len(series)) // 4)
        head_max = float(sup_phi[:cut].max())
        tail_max = float(sup_phi[cut:].max())
        no_blowup = np.isfinite(peak) and tail_max <= head_max * (1 + 1e-6) + 1e-12
    else:
        no_blowup = bool(np.isfinite(peak))
    report.verdicts.append(
        Verdict("potential-bound", no_blowup, f"running max sup|phi| = {peak:.6g}")
    )

    if scalar_floor:
        inf_r = series.column("inf_R")
        drop = float(inf_r[0] - inf_r.min())
        report.verdicts.append(
            Verdict(
                "scalar-floor",
                drop <= R_FLOOR_TOL,
                f"inf R start {inf_r[0]:.6g}, worst {inf_r.min():.6g} (drop {drop:.3e})",
            )
        )

    min_eig = float(series.column("min_eig").min())
    report.verdicts.append(
        Verdict(
            "metric-equivalence",
            min_eig >= eps_pos,
            f"min eigenvalue over run {min_eig:.6g} >= floor {eps_pos:.1e}",
        )
    )

    if normalized_cy:
        fit = fit_decay_rate(ts, series.column("sup_phidot"))
        if fit is None:
            report.verdicts.append(
                Verdict("normalized-decay", False, "too few samples in fit window")
            )
        else:
            mu, amp = fit
            ok = abs(mu - NORMALIZED_DECAY_RATE) <= 0.10 * NORMALIZED_DECAY_RATE
            detail = (
                f"fitted sup|phidot| ~ {amp:.3g} * exp(-{mu:.6g} t); "
                f"oracle rate {NORMALIZED_DECAY_RATE:.6g} (rtol 10%)"
            )
            report.verdicts.append(Verdict("normalized-decay", bool(ok), detail))
    return report


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
    passed: bool
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
    passed = bool(np.all(lhs <= bound * (1.0 + CHAIN_TOL) + 1e-15)) and chain_ok
    return GapCheck(lhs=lhs, bound=bound, passed=passed, chain_ok=chain_ok, s_values=s)


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
