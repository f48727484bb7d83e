"""One-shot verification suite: every headline number, checked end to end.

Each criterion runs at its stated tolerance and produces rows
(check, expected, got, tolerance, pass); the CLI `verify` subcommand
prints the table and exits nonzero on any failure, and the pytest
acceptance module asserts the same results.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

import numpy as np

from . import ansatz as az
from . import cohomology as coh
from . import ghmetric as gh
from . import maflow as mf
from .cohomology import models as coh_models


@dataclass
class CheckRow:
    check: str
    expected: str
    got: str
    tolerance: str
    passed: bool


@dataclass
class CriterionResult:
    index: int
    name: str
    rows: list[CheckRow] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, check: str, expected, got, tolerance: str, passed: bool) -> None:
        self.rows.append(CheckRow(check, str(expected), str(got), tolerance, passed))


@dataclass
class VerifyOptions:
    seed: int = 0
    flow_grid: int = 64  # grid for the n = 1 flow criteria
    models: Optional[dict] = None  # override the built-in catalogue

    def model(self, name: str):
        cat = self.models if self.models is not None else coh_models.builtin_models()
        return cat[name]


# ---------------------------------------------------------------------------
# criterion 1: cohomology exactness
# ---------------------------------------------------------------------------


def criterion_cohomology(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(1, "cohomology exactness")
    rng = random.Random(opts.seed + 1)

    def rand_pos():
        return F(rng.randint(1, 48), rng.randint(1, 12))

    sphere = opts.model("cp1")
    ok = True
    for _ in range(25):
        lam = rand_pos()
        T = coh.max_existence_time(sphere, coh.ClassVector((lam,)))
        ok &= T.finite and T.exact and T.value == lam / 2
    res.add("sphere: T = scale/2", True, ok, "exact", bool(ok))

    ok = True
    for name in ("torus1", "genus2"):
        model = opts.model(name)
        for _ in range(10):
            T = coh.max_existence_time(model, coh.ClassVector((rand_pos(),)))
            ok &= (not T.finite) and T.exact
    res.add("flat/hyperbolic curves: T infinite", True, ok, "exact", bool(ok))

    p1p1 = opts.model("p1xp1")
    ok = True
    for _ in range(25):
        l1, l2 = rand_pos(), rand_pos()
        T = coh.max_existence_time(p1p1, coh.ClassVector((l1, l2)))
        ok &= T.exact and T.value == min(l1, l2) / 2
    res.add("sphere product: T = min(scales)/2", True, ok, "exact", bool(ok))

    blow = opts.model("blowup-p2")
    ok = True
    for _ in range(2000):
        m1 = F(rng.randint(-60, 60), rng.randint(1, 8))
        m2 = F(rng.randint(-60, 60), rng.randint(1, 8))
        ok &= coh.is_kahler(blow, coh.ClassVector((m1, m2))) == (0 < -m2 < m1)
    res.add("blowup: cone decision equals 0 < -m2 < m1", True, ok, "exact", bool(ok))

    ok = True
    for _ in range(50):
        m1 = F(rng.randint(-60, 60), rng.randint(1, 8))
        m2 = F(rng.randint(-60, 60), rng.randint(1, 8))
        ok &= coh.volume(blow, coh.ClassVector((m1, m2))) == m1 * m1 - m2 * m2
        ok &= coh.volume(p1p1, coh.ClassVector((m1, m2))) == 2 * m1 * m2
    res.add(
        "surface volume forms: m1^2 - m2^2 (blowup), 2*m1*m2 (product)",
        True,
        ok,
        "exact",
        bool(ok),
    )

    ok = True
    for _ in range(50):
        m2 = -rand_pos()
        m1 = -m2 + rand_pos()
        T = coh.max_existence_time(blow, coh.ClassVector((m1, m2)))
        ok &= T.exact and T.value == min(-m2, (m1 + m2) / 2)
    res.add(
        "blowup: T = min(-m2, (m1+m2)/2) (scaled basis)", True, ok, "exact", bool(ok)
    )

    ok = True
    for _ in range(50):
        m2 = -rand_pos()
        m1 = -3 * m2 + rand_pos()  # noncollapsed branch
        a0 = coh.ClassVector((m1, m2))
        lim = coh.limiting_class(blow, a0)
        ok &= coh.volume(blow, lim) == (m1 + 3 * m2) ** 2
        ok &= coh.is_noncollapsed(blow, a0)
    res.add(
        "blowup noncollapsed: limit volume = (m1+3m2)^2", True, ok, "exact", bool(ok)
    )

    lim = coh.limiting_class(blow, coh.ClassVector.of([4, -1]))
    locus = coh.null_locus(blow, lim)
    res.add(
        "blowup: null locus of the limit class",
        "('E',)",
        locus.all_labels(),
        "exact",
        locus.all_labels() == ("E",),
    )
    return res


# ---------------------------------------------------------------------------
# criterion 2: flow stationarity and volume conservation
# ---------------------------------------------------------------------------


def criterion_stationarity(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(2, "flow stationarity and conservation")
    N = opts.flow_grid
    bg = mf.TorusBackground(n=1, N=N, g0=[[1.0]])
    state = mf.initial_state(bg)
    dt = mf.current_cfl_bound(bg, state)
    for _ in range(1000):
        state = mf.step(bg, state, dt)
    drift = float(np.abs(state.phi).max())
    res.add("zero potential fixed over 1000 steps", "sup|phi| < 1e-12", f"{drift:.3e}", "1e-12", drift < 1e-12)

    x, y = bg.coordinates()
    phi0 = 0.02 * np.cos(2 * np.pi * x) + 0.01 * np.sin(2 * np.pi * y)
    cfg = mf.RunConfig(mode=mf.UNNORMALIZED, t_end=1.0, record_every=200)
    _, series = mf.run(bg, cfg, phi0=phi0)
    vol = series.column("volume")
    rel_rate = float(np.abs(vol - vol[0]).max() / vol[0] / cfg.t_end)
    res.add(
        "grid volume conserved (perturbed run)",
        "relative drift < 1e-6 per unit time",
        f"{rel_rate:.3e}",
        "1e-6",
        rel_rate < 1e-6,
    )
    return res


# ---------------------------------------------------------------------------
# criterion 3: convergence of the normalized twisted flow
# ---------------------------------------------------------------------------


def criterion_convergence(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(3, "normalized flow converges to the twisted stationary solution")
    N = opts.flow_grid
    base = mf.TorusBackground(n=1, N=N, g0=[[2.0]])
    f = base.field_from_modes([((1, 0), 0.08, 0.0), ((0, 1), 0.0, 0.05)])
    bg = mf.TorusBackground(n=1, N=N, g0=[[2.0]], f=f)
    cfg = mf.RunConfig(mode=mf.NORMALIZED, t_end=30.0, record_every=200)
    final, series = mf.run(bg, cfg)
    res.add(
        "run reports convergence",
        "sup|phidot| < 1e-10",
        f"{series.termination} at t={final.t:.3f}",
        "1e-10",
        series.converged,
    )
    residual = float(np.abs(mf.ma_rhs(bg, final)).max())
    res.add(
        "stationary-equation residual at the final state",
        "< 1e-8",
        f"{residual:.3e}",
        "1e-8",
        residual < 1e-8,
    )
    # the slowest linearized mode is the mean, damped at exactly rate 1
    oracle = 1.0
    fit = mf.fit_decay_rate(series.column("t"), series.column("sup_phidot"))
    if fit is None:
        res.add("decay rate vs linearized oracle", oracle, "no fit", "10%", False)
    else:
        rate, _ = fit
        res.add(
            "decay rate vs linearized oracle",
            f"{oracle:.3f}",
            f"{rate:.4f}",
            "10%",
            abs(rate - oracle) <= 0.10 * oracle,
        )
    return res


# ---------------------------------------------------------------------------
# criterion 4: scalar curvature floor across the run matrix
# ---------------------------------------------------------------------------


def criterion_scalar_floor(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(4, "min scalar curvature never drops below its start")
    matrix = []
    bg1 = mf.TorusBackground(n=1, N=opts.flow_grid, g0=[[1.0]])
    x, y = bg1.coordinates()
    matrix.append((bg1, 0.015 * np.cos(2 * np.pi * x), 0.75))
    matrix.append((bg1, 0.01 * np.sin(2 * np.pi * (x + y)), 0.75))
    matrix.append(
        (bg1, 0.008 * np.cos(2 * np.pi * x) + 0.006 * np.sin(4 * np.pi * y), 0.75)
    )
    bg2 = mf.TorusBackground(n=2, N=16, g0=np.eye(2))
    c = bg2.coordinates()
    matrix.append((bg2, 0.02 * np.cos(2 * np.pi * c[0]), 0.4))
    matrix.append((bg2, 0.015 * np.sin(2 * np.pi * (c[1] + c[2])), 0.4))
    matrix.append(
        (
            bg2,
            0.01 * np.cos(2 * np.pi * c[0]) + 0.008 * np.cos(2 * np.pi * (c[2] - c[3])),
            0.4,
        )
    )
    for i, (bg, phi0, t_end) in enumerate(matrix):
        cfg = mf.RunConfig(mode=mf.UNNORMALIZED, t_end=t_end, record_every=40)
        _, series = mf.run(bg, cfg, phi0=phi0)
        inf_r = series.column("inf_R")
        drop = float(inf_r[0] - inf_r.min())
        res.add(
            f"run {i + 1} (n={bg.n}, N={bg.N}): inf R floor",
            "drop <= 1e-4",
            f"{drop:.3e}",
            "1e-4",
            inf_r.min() >= inf_r[0] - 1e-4,
        )
    return res


# ---------------------------------------------------------------------------
# criterion 5: near-identity matrix gap suite
# ---------------------------------------------------------------------------


def _random_unitaries(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    phase = r.diagonal(axis1=-2, axis2=-1).copy()
    phase /= np.abs(phase)
    return q * phase[:, None, :]


def sample_gap_matrices(rng: np.random.Generator, count: int, n: int):
    """Hermitian PD samples near the identity with their tightest eps."""
    delta = rng.uniform(0.0, 0.3, size=(count, 1))
    eigs = 1.0 + delta * rng.uniform(-1.0, 1.0, size=(count, n))
    q = _random_unitaries(rng, count, n)
    A = (q * eigs[:, None, :]) @ q.conj().swapaxes(-1, -2)
    A = 0.5 * (A + A.conj().swapaxes(-1, -2))
    tr = eigs.sum(axis=1)
    det = eigs.prod(axis=1)
    eps = np.maximum(np.maximum(tr - n, 1.0 - det), 1e-12) * (1 + 1e-9)
    return A, eps


def criterion_matrix_gap(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(5, "near-identity gap bound and symmetric-means chain")
    rng = np.random.default_rng(opts.seed + 5)
    count = 10**5
    for n in (1, 2, 3):
        A, eps = sample_gap_matrices(rng, count, n)
        chk = mf.matrix_gap_check(A, eps)
        violations = int(np.sum(chk.lhs > chk.bound + 1e-12))
        res.add(
            f"n={n}: ||A-Id||^2 <= {mf.gap_constant(n):g}*eps over {count} samples",
            "0 violations",
            f"{violations} violations",
            "exact bound, 1e-12 slack",
            violations == 0 and chk.passed,
        )
        res.add(
            f"n={n}: normalized symmetric-means chain",
            "holds",
            "holds" if chk.chain_ok else "violated",
            "1e-11 relative",
            chk.chain_ok,
        )
    return res


# ---------------------------------------------------------------------------
# criterion 6: product collapsing closed forms
# ---------------------------------------------------------------------------


def criterion_product_collapse(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(6, "normalized product flow: collapsing closed forms")
    for scales in ((F(1), F(2)), (F(3), F(4)), (F(2), F(1, 2))):
        model = az.AnsatzModel.of(az.PRODUCT_EC, scales, mode=az.NORMALIZED)
        traj = az.integrate(model, 10.0, dt=1e-3)
        dev = float(np.abs(traj.coeffs - traj.closed()).max())
        label = f"scales ({scales[0]}, {scales[1]})"
        res.add(
            f"{label}: trajectory matches a=a0*exp(-t), b=2+(b0-2)exp(-t)",
            "<= 1e-10",
            f"{dev:.3e}",
            "1e-10",
            dev <= 1e-10,
        )
        resid = az.einstein_residual(model, traj)
        envelope = abs(float(scales[1]) - 2.0) * np.exp(-traj.ts / 8.0)
        dominated = bool(np.all(resid <= envelope + 1e-12))
        res.add(
            f"{label}: residual |b-2| under |b0-2|*exp(-t/8)",
            "dominated",
            "dominated" if dominated else "exceeded",
            "1e-12 slack",
            dominated,
        )
        adjusted = az.collapse_profile(model, traj).fiber_scale_adjusted
        err = float(np.abs(adjusted - float(scales[0])).max())
        res.add(
            f"{label}: exp(t) * fiber scale constant",
            f"= {scales[0]} within 1e-10",
            f"range [{adjusted.min():.15g}, {adjusted.max():.15g}], max error {err:.3e}",
            "1e-10",
            err <= 1e-10,
        )
    return res


# ---------------------------------------------------------------------------
# criterion 7: ansatz vs cohomology extinction times
# ---------------------------------------------------------------------------


def criterion_cross_time(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(7, "ODE extinction equals the class-line maximal time")
    rng = random.Random(opts.seed + 7)

    def rand_scale():
        return F(rng.randint(1, 24), rng.randint(6, 12))

    ok_round = True
    for _ in range(20):
        chk = az.crosscheck_T(az.AnsatzModel.of(az.ROUND_P1, [rand_scale()]))
        ok_round &= chk.equal and isinstance(chk.ansatz_time, F)
    res.add("sphere: 20 random rational scales", True, ok_round, "exact", bool(ok_round))

    ok_prod = True
    for _ in range(20):
        chk = az.crosscheck_T(
            az.AnsatzModel.of(az.P1XP1, [rand_scale(), rand_scale()])
        )
        ok_prod &= chk.equal and isinstance(chk.ansatz_time, F)
    res.add(
        "sphere product: 20 random rational scale pairs",
        True,
        ok_prod,
        "exact",
        bool(ok_prod),
    )
    return res


# ---------------------------------------------------------------------------
# criterion 8: Gromov-Hausdorff collapsing
# ---------------------------------------------------------------------------


def criterion_gh_collapse(opts: VerifyOptions) -> CriterionResult:
    res = CriterionResult(8, "warped torus collapses to its base circle")
    ts = np.linspace(0.0, 10.0, 21)
    series = gh.collapse_series(ts, 8, 8)
    eps = series.epsilons
    monotone = bool(np.all(np.diff(eps) <= 1e-9))
    res.add(
        "distance bound nonincreasing in t",
        "monotone",
        "monotone" if monotone else "increases",
        "1e-9",
        monotone,
    )
    res.add(
        "tenfold decay by t = 10",
        f"<= eps(0)/10 = {eps[0] / 10:.4e}",
        f"{eps[-1]:.4e}",
        "factor 10",
        bool(eps[-1] <= eps[0] / 10.0),
    )
    ok = True
    for name, space in gh.catalogue().items():
        bound = gh.gh_upper_bound(space, space, seed=opts.seed)
        ok &= bound.exact and bound.epsilon == 0.0
    res.add(
        "catalogued spaces (size <= 6): self distance",
        "0 (exact search)",
        "all zero" if ok else "nonzero",
        "exact",
        bool(ok),
    )
    return res


CRITERIA: list[tuple[int, str, Callable[[VerifyOptions], CriterionResult]]] = [
    (1, "cohomology-exactness", criterion_cohomology),
    (2, "flow-stationarity-conservation", criterion_stationarity),
    (3, "normalized-flow-convergence", criterion_convergence),
    (4, "scalar-curvature-floor", criterion_scalar_floor),
    (5, "matrix-gap-suite", criterion_matrix_gap),
    (6, "product-collapsing", criterion_product_collapse),
    (7, "cross-module-times", criterion_cross_time),
    (8, "gh-collapsing", criterion_gh_collapse),
]


def run_criterion(index: int, opts: Optional[VerifyOptions] = None) -> CriterionResult:
    opts = opts or VerifyOptions()
    for idx, _, fn in CRITERIA:
        if idx == index:
            start = time.perf_counter()
            result = fn(opts)
            result.elapsed = time.perf_counter() - start
            return result
    raise KeyError(f"no criterion {index}")


def run_all(
    opts: Optional[VerifyOptions] = None, only: Optional[list[int]] = None
) -> list[CriterionResult]:
    opts = opts or VerifyOptions()
    results = []
    for idx, _, _ in CRITERIA:
        if only is not None and idx not in only:
            continue
        results.append(run_criterion(idx, opts))
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"criterion {res.index}: {res.name} [{status}] ({res.elapsed:.1f}s)")
        for row in res.rows:
            mark = "pass" if row.passed else "FAIL"
            lines.append(
                f"  [{mark}] {row.check} | expected {row.expected} | "
                f"got {row.got} | tol {row.tolerance}"
            )
    total = sum(len(r.rows) for r in results)
    bad = sum(1 for r in results for row in r.rows if not row.passed)
    lines.append(
        f"{len(results)} criteria, {total} checks, {bad} failures"
        if bad
        else f"{len(results)} criteria, {total} checks, all passed"
    )
    return "\n".join(lines)


def results_payload(results: list[CriterionResult]) -> dict:
    return {
        "schema": 1,
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "elapsed_seconds": r.elapsed,
                "checks": [
                    {
                        "check": row.check,
                        "expected": row.expected,
                        "got": row.got,
                        "tolerance": row.tolerance,
                        "passed": row.passed,
                    }
                    for row in r.rows
                ],
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
