"""One-shot verification suite: every headline number, checked end to end.

Each criterion runs at its stated tolerance and adds check rows (see
``krflab.checks``).  A criterion that raises ends in one FAIL row naming
the exception, and the other criteria still run; only ``MissingModel``
propagates.  The CLI `verify` subcommand prints the table and exits
nonzero on any failure, and the pytest acceptance module asserts the
same results.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import numpy as np

from . import ansatz as az
from . import cohomology as coh
from . import ghmetric as gh
from . import maflow as mf
from .checks import Checks
from .cohomology import models as coh_models
from .maflow.background import field_from_modes


@dataclass
class CriterionResult(Checks):
    index: int
    name: str
    elapsed: float = 0.0


class MissingModel(LookupError):
    """A criterion reads a model that the catalogue in VerifyOptions lacks."""


@dataclass
class VerifyOptions:
    seed: int = 0
    flow_grid: int = 64  # grid for the n = 1 flow criteria
    models: Optional[dict] = None  # the catalogue; the built-ins when None

    def __post_init__(self):
        mf.check_grid(self.flow_grid)
        if self.models is None:
            self.models = coh_models.builtin_models()

    def model(self, name: str):
        if name not in self.models:
            raise MissingModel(f"the catalogue has no model {name!r}, which the criteria read")
        return self.models[name]


CRITERIA: list[tuple[int, str, Callable[[VerifyOptions], CriterionResult]]] = []


def criterion(index: int, slug: str, title: str):
    """Register ``body(opts, res)`` as criterion ``index``.

    The registered function takes the options and returns the timed
    result.  An exception from ``body`` other than ``MissingModel``
    becomes one more FAIL row, after the rows already added, and its
    traceback goes to stderr.
    """

    def register(body):
        def run(opts: VerifyOptions) -> CriterionResult:
            res = CriterionResult(index, title)
            start = time.perf_counter()
            try:
                body(opts, res)
            except MissingModel:
                raise
            except Exception as err:
                traceback.print_exc()
                res.holds("criterion runs to the end", False, "no exception",
                          f"{type(err).__name__}: {err}")
            res.elapsed = time.perf_counter() - start
            return res

        CRITERIA.append((index, slug, run))
        return run

    return register


@criterion(1, "cohomology-exactness", "cohomology exactness")
def criterion_cohomology(opts: VerifyOptions, res: CriterionResult) -> None:
    rng = random.Random(opts.seed + 1)

    def rand_pos():
        return F(rng.randint(1, 48), rng.randint(1, 12))

    sphere = opts.model("cp1")
    ok = True
    for _ in range(25):
        lam = rand_pos()
        T = coh.max_existence_time(sphere, coh.ClassVector((lam,)))
        ok &= T.finite and T.exact and T.value == lam / 2
    res.holds("sphere: T = scale/2", ok, True)

    ok = True
    for name in ("torus1", "genus2"):
        model = opts.model(name)
        for _ in range(10):
            T = coh.max_existence_time(model, coh.ClassVector((rand_pos(),)))
            ok &= (not T.finite) and T.exact
    res.holds("flat/hyperbolic curves: T infinite", ok, True)

    p1p1 = opts.model("p1xp1")
    ok = True
    for _ in range(25):
        l1, l2 = rand_pos(), rand_pos()
        T = coh.max_existence_time(p1p1, coh.ClassVector((l1, l2)))
        ok &= T.exact and T.value == min(l1, l2) / 2
    res.holds("sphere product: T = min(scales)/2", ok, True)

    blow = opts.model("blowup-p2")
    ok = True
    for _ in range(2000):
        m1 = F(rng.randint(-60, 60), rng.randint(1, 8))
        m2 = F(rng.randint(-60, 60), rng.randint(1, 8))
        ok &= coh.is_kahler(blow, coh.ClassVector((m1, m2))) == (0 < -m2 < m1)
    res.holds("blowup: cone decision equals 0 < -m2 < m1", ok, True)

    ok = True
    for _ in range(50):
        m1 = F(rng.randint(-60, 60), rng.randint(1, 8))
        m2 = F(rng.randint(-60, 60), rng.randint(1, 8))
        ok &= coh.volume(blow, coh.ClassVector((m1, m2))) == m1 * m1 - m2 * m2
        ok &= coh.volume(p1p1, coh.ClassVector((m1, m2))) == 2 * m1 * m2
    res.holds("surface volume forms: m1^2 - m2^2 (blowup), 2*m1*m2 (product)", ok, True)

    ok = True
    for _ in range(50):
        m2 = -rand_pos()
        m1 = -m2 + rand_pos()
        T = coh.max_existence_time(blow, coh.ClassVector((m1, m2)))
        ok &= T.exact and T.value == min(-m2, (m1 + m2) / 2)
    res.holds("blowup: T = min(-m2, (m1+m2)/2) (scaled basis)", ok, True)

    ok = True
    for _ in range(50):
        m2 = -rand_pos()
        m1 = -3 * m2 + rand_pos()  # noncollapsed branch
        a0 = coh.ClassVector((m1, m2))
        lim = coh.limiting_class(blow, a0)
        ok &= coh.volume(blow, lim) == (m1 + 3 * m2) ** 2
        ok &= coh.is_noncollapsed(blow, a0)
    res.holds("blowup noncollapsed: limit volume = (m1+3m2)^2", ok, True)

    lim = coh.limiting_class(blow, coh.ClassVector.of([4, -1]))
    labels = coh.null_locus(blow, lim).all_labels()
    res.holds("blowup: null locus of the limit class", labels == ("E",), "('E',)", str(labels))


@criterion(2, "flow-stationarity-conservation", "flow stationarity and conservation")
def criterion_stationarity(opts: VerifyOptions, res: CriterionResult) -> None:
    N = opts.flow_grid
    bg = mf.TorusBackground(n=1, N=N, g0=[[1.0]])
    dt = mf.current_cfl_bound(bg, mf.initial_state(bg))
    state, _ = mf.run(bg, mf.RunConfig(dt=dt, t_end=1000 * dt, record_every=1000))
    drift = np.abs(state.phi).max()
    res.within("zero potential fixed over 1000 steps", drift, "<", "1e-12", "sup|phi| < 1e-12")

    x, y = bg.coordinates()
    phi0 = 0.02 * np.cos(2 * np.pi * x) + 0.01 * np.sin(2 * np.pi * y)
    cfg = mf.RunConfig(mode=mf.UNNORMALIZED, t_end=1.0, record_every=200)
    _, series = mf.run(bg, cfg, phi0=phi0)
    vol = series.column("volume")
    rel_rate = np.abs(vol - vol[0]).max() / vol[0] / cfg.t_end
    res.within("grid volume conserved (perturbed run)", rel_rate, "<", "1e-6",
               "relative drift < 1e-6 per unit time")


@criterion(3, "normalized-flow-convergence",
           "normalized flow converges to the twisted stationary solution")
def criterion_convergence(opts: VerifyOptions, res: CriterionResult) -> None:
    N = opts.flow_grid
    f = field_from_modes(1, N, [((1, 0), 0.08, 0.0), ((0, 1), 0.0, 0.05)])
    bg = mf.TorusBackground(n=1, N=N, g0=[[2.0]], f=f)
    cfg = mf.RunConfig(mode=mf.NORMALIZED, t_end=30.0, record_every=200)
    final, series = mf.run(bg, cfg)
    res.holds("run reports convergence", series.converged, "sup|phidot| < 1e-10",
              f"{series.termination} at t={final.t:.3f}", "1e-10")
    residual = np.abs(mf.ma_rhs(bg, final)).max()
    res.within("stationary-equation residual at the final state", residual, "<", "1e-8", "< 1e-8")
    mf.estimates.decay_rate_row(res, "decay rate vs linearized oracle", series)


@criterion(4, "scalar-curvature-floor", "min scalar curvature never drops below its start")
def criterion_scalar_floor(opts: VerifyOptions, res: CriterionResult) -> None:
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
        mf.estimates.scalar_floor_row(res, f"run {i + 1} (n={bg.n}, N={bg.N}): inf R floor", series)


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


@criterion(5, "matrix-gap-suite", "near-identity gap bound and symmetric-means chain")
def criterion_matrix_gap(opts: VerifyOptions, res: CriterionResult) -> None:
    rng = np.random.default_rng(opts.seed + 5)
    count = 10**5
    for n in (1, 2, 3):
        A, eps = sample_gap_matrices(rng, count, n)
        chk = mf.matrix_gap_check(A, eps)
        res.within(f"n={n}: ||A-Id||^2 <= {mf.gap_constant(n):g}*eps over {count} samples",
                   chk.violations, "<=", 0, "0 violations", "{:.0f} violations",
                   "exact bound, 1e-12 slack")
        res.holds(f"n={n}: normalized symmetric-means chain", chk.chain_ok, "holds",
                  "holds" if chk.chain_ok else "violated", "1e-11 relative")


@criterion(6, "product-collapsing", "normalized product flow: collapsing closed forms")
def criterion_product_collapse(opts: VerifyOptions, res: CriterionResult) -> None:
    for scales in ((F(1), F(2)), (F(3), F(4)), (F(2), F(1, 2))):
        model = az.AnsatzModel.of(az.PRODUCT_EC, scales, mode=az.NORMALIZED)
        traj = az.integrate(model, 10.0, dt=1e-3)
        dev = np.abs(traj.coeffs - traj.closed()).max()
        label = f"scales ({scales[0]}, {scales[1]})"
        res.within(f"{label}: trajectory matches a=a0*exp(-t), b=2+(b0-2)exp(-t)", dev,
                   "<=", "1e-10", "<= 1e-10")
        resid = az.einstein_residual(model, traj)
        envelope = abs(float(scales[1]) - 2.0) * np.exp(-traj.ts / 8.0)
        dominated = bool(np.all(resid <= envelope + 1e-12))
        res.holds(f"{label}: residual |b-2| under |b0-2|*exp(-t/8)", dominated, "dominated",
                  "dominated" if dominated else "exceeded", "1e-12 slack")
        adjusted = az.collapse_profile(model, traj).fiber_scale_adjusted
        err = np.abs(adjusted - float(scales[0])).max()
        res.within(f"{label}: exp(t) * fiber scale constant", err, "<=", "1e-10",
                   f"= {scales[0]} within 1e-10",
                   f"range [{adjusted.min():.15g}, {adjusted.max():.15g}], max error {{:.3e}}")


@criterion(7, "cross-module-times", "closed-form extinction equals the class-line maximal time")
def criterion_cross_time(opts: VerifyOptions, res: CriterionResult) -> None:
    rng = random.Random(opts.seed + 7)

    def rand_scale():
        return F(rng.randint(1, 24), rng.randint(6, 12))

    spheres = [az.AnsatzModel.of(az.ROUND_P1, [rand_scale()]) for _ in range(20)]
    products = [az.AnsatzModel.of(az.P1XP1, [rand_scale(), rand_scale()]) for _ in range(20)]
    for label, models in (
        ("sphere: closed form vs class engine, 20 random rational scales", spheres),
        ("sphere product: closed form vs class engine, 20 random rational scale pairs", products),
    ):
        checks = [az.crosscheck_T(model, opts.model) for model in models]
        res.holds(label, all(chk.equal and isinstance(chk.ansatz_time, F) for chk in checks), True)

    devs = []
    for model in spheres + products:
        closed = float(az.reduce(model).extinction_time)
        traj = az.integrate(model, 1.25 * closed, dt=1e-3)
        devs.append(abs(traj.extinction_numeric - closed) if traj.extinct else np.inf)
    # NaN propagates through max, and fails the row, as does no extinction
    res.within("RK4 extinction within 1e-11 of the closed form", np.max(devs), "<=", "1e-11",
               "<= 1e-11 over the 40 models")


@criterion(8, "gh-collapsing", "warped torus collapses to its base circle")
def criterion_gh_collapse(opts: VerifyOptions, res: CriterionResult) -> None:
    ts = np.linspace(0.0, 10.0, 21)
    eps = gh.collapse_series(ts, 8, 8).epsilons
    monotone = bool(np.all(np.diff(eps) <= 1e-9))
    res.holds("distance bound nonincreasing in t", monotone, "monotone",
              "monotone" if monotone else "increases", "1e-9")
    res.within("tenfold decay by t = 10", eps[-1], "<=", eps[0] / 10.0,
               f"<= eps(0)/10 = {eps[0] / 10:.4e}", "{:.4e}", "factor 10")
    ok = True
    for name, space in gh.catalogue().items():
        bound = gh.gh_upper_bound(space, space, seed=opts.seed)
        ok &= bound.exact and bound.epsilon == 0.0
    res.holds("catalogued spaces (size <= 6): self distance", ok, "0 (exact search)",
              "all zero" if ok else "nonzero")


def run_criterion(index: int, opts: Optional[VerifyOptions] = None) -> CriterionResult:
    for idx, _, run in CRITERIA:
        if idx == index:
            return run(opts or VerifyOptions())
    raise KeyError(f"no criterion {index}")


def check_criteria(indices: list[int]) -> None:
    """Raise ValueError naming every index that is not a criterion's."""
    known = [idx for idx, _, _ in CRITERIA]
    unknown = sorted(set(indices) - set(known))
    if unknown:
        raise ValueError(
            f"no criterion {', '.join(map(str, unknown))} "
            f"(the criteria are {known[0]}-{known[-1]})"
        )


def run_all(
    opts: Optional[VerifyOptions] = None, only: Optional[list[int]] = None
) -> list[CriterionResult]:
    opts = opts or VerifyOptions()
    check_criteria(only or [])
    return [run(opts) for idx, _, run in CRITERIA if only is None or idx in only]


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"criterion {res.index}: {res.name} [{status}] ({res.elapsed:.1f}s)")
        lines.extend("  " + row.line() for row in res.rows)
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
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "elapsed_seconds": r.elapsed,
                "checks": [row.payload() for row in r.rows],
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
