"""The four benchmark workloads: seeded inputs, the solve, and its checks.

Each workload is a ``Workload`` with three steps:

- ``make_inputs(seed, round_index)`` builds every input from the seed
  alone (the package receives only these generated inputs);
- ``solve(inputs)`` is the timed part: one round of solutions, made only
  through public calls into ``krflab``;
- ``check(inputs, outputs)`` returns one ``TaskResult`` per task of the
  round, each carrying the correctness checks of that task.

Calls into the package always go through module attributes
(``mf.run``, ``gh.gh_upper_bound``, ...) so that the traced run can
replace those attributes with recording wrappers; untraced runs never
touch them.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import krflab.ansatz as az
import krflab.cohomology as coh
import krflab.ghmetric as gh
import krflab.maflow as mf
from krflab.cohomology import models as coh_models


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class TaskResult:
    """One task of a round: its checks, or the exception it raised."""

    task: str
    checks: list[Check] = field(default_factory=list)
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error) or not all(c.passed for c in self.checks)


def _no_samples(outputs) -> dict[str, list[float]]:
    return {}


def _no_figures(samples: dict[str, list[float]]) -> dict[str, float]:
    return {}


@dataclass
class Workload:
    name: str
    make_inputs: Callable[..., Any]  # (seed, round_index, span=None)
    warm_up: Callable[[Any], None]
    solve: Callable[[Any], Any]
    check: Callable[[Any, Any], list[TaskResult]]
    #: simulated flow time of a round's outputs (0 for workloads without a flow)
    simulated_time: Callable[[Any], float] = lambda outputs: 0.0
    #: per-round samples of the workload's own figures, and their summary
    samples: Callable[[Any], dict[str, list[float]]] = _no_samples
    figures: Callable[[dict[str, list[float]]], dict[str, float]] = _no_figures


def _rng(seed: int, round_index: int, salt: str) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, sum(map(ord, salt))])


# ---------------------------------------------------------------------------
# flow-n1: normalized twisted flow to convergence (criterion 3 at N=32)
# ---------------------------------------------------------------------------

FLOW_N1_GRID = 16
FLOW_N1_G0 = 2.0
#: sum of the two twist amplitudes; criterion 3 uses 0.08 + 0.05
FLOW_N1_TWIST = 0.13
#: stop rule sup|phidot| < 1e-10 with decay rate >= 1 puts the final state
#: within about 1e-10 of the fixed point; two orders of headroom
FLOW_N1_ORACLE_TOL = 1e-8
FLOW_N1_RESIDUAL_TOL = 1e-8


@dataclass
class FlowInputs:
    bg: mf.TorusBackground
    config: mf.RunConfig
    phi0: np.ndarray | None


def flow_n1_inputs(seed: int, round_index: int, span=None) -> FlowInputs:
    """Mean-zero twist a*cos(2 pi x + alpha) + b*cos(2 pi y + beta).

    The amplitudes split the criterion-3 total 0.13 at a seeded ratio and
    the phases are seeded, so the convergence time and the CFL step stay
    close to criterion 3's from seed to seed.
    """
    rng = _rng(seed, round_index, "flow-n1")
    share = rng.uniform(0.3, 0.7)
    alpha, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
    amp_x, amp_y = FLOW_N1_TWIST * share, FLOW_N1_TWIST * (1.0 - share)
    with _span(span, "maflow.background"):
        base = mf.TorusBackground(n=1, N=FLOW_N1_GRID, g0=[[FLOW_N1_G0]])
        x, y = base.coordinates()
        f = amp_x * np.cos(2 * np.pi * x + alpha) + amp_y * np.cos(2 * np.pi * y + beta)
        f -= f.mean()
        bg = mf.TorusBackground(n=1, N=FLOW_N1_GRID, g0=[[FLOW_N1_G0]], f=f)
    config = mf.RunConfig(mode=mf.NORMALIZED, t_end=30.0, record_every=200)
    return FlowInputs(bg=bg, config=config, phi0=None)


def flow_warm_up(inputs: FlowInputs) -> None:
    state = mf.initial_state(inputs.bg, inputs.phi0, inputs.config.mode)
    mf.ma_rhs(inputs.bg, state)


def flow_solve(inputs: FlowInputs):
    return mf.run(inputs.bg, inputs.config, phi0=inputs.phi0)


def newton_stationary(bg: mf.TorusBackground, tol: float = 1e-12, max_iter: int = 400) -> np.ndarray:
    """Preconditioned Newton solve of log(det(g0 + H(phi)) / Omega) = phi.

    Independent of the time stepper: the preconditioner is the background
    Laplacian minus one, inverted in Fourier space, built here from the
    wavenumbers rather than from the package's own symbols.
    """
    freqs = np.fft.fftfreq(bg.N) * bg.N
    grids = np.meshgrid(*([freqs] * (2 * bg.n)), indexing="ij")
    w = np.stack([grids[2 * j + 1] + 1j * grids[2 * j] for j in range(bg.n)])
    inv = np.linalg.inv(bg.g0)
    quad = np.einsum("j...,jk,k...->...", w.conj(), inv, w).real
    mult = -np.pi**2 * quad - 1.0
    phi = np.zeros(bg.shape)
    for _ in range(max_iter):
        residual = mf.ma_rhs(bg, mf.FlowState(t=0.0, phi=phi, mode=mf.NORMALIZED))
        if np.abs(residual).max() < tol:
            return phi
        phi = phi - np.fft.ifftn(np.fft.fftn(residual) / mult).real
    raise RuntimeError("stationary Newton solve did not converge")


def flow_n1_check(inputs: FlowInputs, outputs) -> list[TaskResult]:
    final, series = outputs
    result = TaskResult("flow-n1 run")
    result.checks.append(
        Check("converged", bool(series.converged), f"{series.termination} at t={final.t:.4f}")
    )
    residual = float(np.abs(mf.ma_rhs(inputs.bg, final)).max())
    result.checks.append(
        Check("stationary residual < 1e-8", residual < FLOW_N1_RESIDUAL_TOL, f"{residual:.3e}")
    )
    target = newton_stationary(inputs.bg)
    gap = float(np.abs(final.phi - target).max())
    result.checks.append(
        Check("final phi matches the Newton solve", gap < FLOW_N1_ORACLE_TOL, f"{gap:.3e}")
    )
    return [result]


# ---------------------------------------------------------------------------
# flow-n2: unnormalized n=2 flow to a fixed horizon (criterion 4 style)
# ---------------------------------------------------------------------------

FLOW_N2_GRID = 16
FLOW_N2_T_END = 0.005
FLOW_N2_RECORD_EVERY = 5
#: initial min eigenvalue of g0 + H(phi0); every seed starts at the same
#: CFL step
FLOW_N2_START_EIG = 0.8
FLOW_N2_MODES = 3
FLOW_N2_INF_R_DROP = 1e-4
FLOW_N2_VOLUME_RATE = 1e-6


def flow_n2_inputs(seed: int, round_index: int, span=None) -> FlowInputs:
    """Three seeded low modes, scaled so that min eig(I + H(phi0)) = 0.8.

    With g0 = I the eigenvalues of I + s*H are 1 + s*eig(H), so one
    rescaling hits the target floor exactly and keeps positivity.
    """
    rng = _rng(seed, round_index, "flow-n2")
    with _span(span, "maflow.background"):
        bg = mf.TorusBackground(n=2, N=FLOW_N2_GRID, g0=np.eye(2))
    modes = []
    for _ in range(FLOW_N2_MODES):
        freq = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        while not any(freq):
            freq = tuple(int(v) for v in rng.integers(-1, 2, size=4))
        cos_amp, sin_amp = rng.uniform(-1.0, 1.0, size=2)
        modes.append((freq, cos_amp, sin_amp))
    shape = bg.field_from_modes(modes)
    _, eig_min, _ = mf.metric_determinant_and_eigs(bg.g0, bg.complex_hessian(shape))
    lowest = float(eig_min.min()) - 1.0
    phi0 = shape * ((1.0 - FLOW_N2_START_EIG) / -lowest)
    config = mf.RunConfig(
        mode=mf.UNNORMALIZED, t_end=FLOW_N2_T_END, record_every=FLOW_N2_RECORD_EVERY
    )
    return FlowInputs(bg=bg, config=config, phi0=phi0)


def flow_n2_check(inputs: FlowInputs, outputs) -> list[TaskResult]:
    final, series = outputs
    result = TaskResult("flow-n2 run")
    result.checks.append(
        Check("terminated at t_end", series.termination == "t_end", f"{series.termination} at t={final.t:.4f}")
    )
    inf_r = series.column("inf_R")
    drop = float(inf_r[0] - inf_r.min())
    result.checks.append(Check("inf R drop <= 1e-4", drop <= FLOW_N2_INF_R_DROP, f"{drop:.3e}"))
    vol = series.column("volume")
    rate = float(np.abs(vol - vol[0]).max() / vol[0] / inputs.config.t_end)
    result.checks.append(
        Check("volume drift < 1e-6 per unit time", rate < FLOW_N2_VOLUME_RATE, f"{rate:.3e}")
    )
    return [result]


# ---------------------------------------------------------------------------
# gh-search: heuristic and exhaustive Gromov-Hausdorff bounds, one collapse
# ---------------------------------------------------------------------------


@dataclass
class GHPair:
    label: str
    X: gh.FiniteMetricSpace
    Y: gh.FiniteMetricSpace
    seed: int


@dataclass
class GHInputs:
    heuristic: list[GHPair]
    exhaustive: list[GHPair]
    collapse_ts: np.ndarray
    collapse_grid: tuple[int, int]


def gh_inputs(seed: int, round_index: int, span=None) -> GHInputs:
    """Warped-torus samples at seeded times.

    Heuristic path: a 4x4 (16-point) sample against the 4-point circle
    its base collapses to.  Exact path: two pairs with |X|*|Y| <= 36.  One
    collapse series over a seeded time window.
    """
    rng = _rng(seed, round_index, "gh-search")
    times = rng.uniform(1.0, 1.5, size=4)
    search_seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
    torus, circle = gh.sample_warped_torus, gh.circle_space
    heuristic = [
        GHPair("16 vs circle 4", torus(times[0], 4, 4), circle(4), search_seeds[0]),
    ]
    exhaustive = [
        GHPair("6 vs circle 6", torus(times[1], 2, 3), circle(6), search_seeds[1]),
        GHPair("4 vs 6", torus(times[2], 2, 2), torus(times[3], 3, 2), search_seeds[2]),
    ]
    t_max = rng.uniform(8.0, 12.0)
    return GHInputs(heuristic, exhaustive, np.linspace(0.0, t_max, 21), (8, 8))


def gh_warm_up(inputs: GHInputs) -> None:
    pair = inputs.heuristic[0]
    gh.gh_epsilon(pair.X, pair.Y, gh.CorrespondencePair(np.zeros(len(pair.X)), np.zeros(len(pair.Y))))


def gh_solve(inputs: GHInputs):
    heuristic = [gh.gh_upper_bound(p.X, p.Y, seed=p.seed) for p in inputs.heuristic]
    exhaustive = [gh.gh_upper_bound(p.X, p.Y, seed=p.seed) for p in inputs.exhaustive]
    collapse = gh.collapse_series(inputs.collapse_ts, *inputs.collapse_grid)
    return heuristic, exhaustive, collapse


def _diameter_gap(X: gh.FiniteMetricSpace, Y: gh.FiniteMetricSpace) -> float:
    return abs(float(X.D.max()) - float(Y.D.max()))


def _bound_checks(pair: GHPair, bound: gh.GHBound, flag: str) -> list[Check]:
    witnessed = gh.gh_epsilon(pair.X, pair.Y, bound.maps)
    gap = _diameter_gap(pair.X, pair.Y)
    return [
        Check(f"flag is {flag}", bound.flag == flag, bound.flag),
        Check(
            "returned maps reproduce the bound",
            abs(witnessed - bound.epsilon) <= 1e-12,
            f"reported {bound.epsilon!r}, maps give {witnessed!r}",
        ),
        Check(
            "bound >= |diam X - diam Y|",
            bound.epsilon >= gap - 1e-12,
            f"{bound.epsilon:.6g} vs {gap:.6g}",
        ),
    ]


def gh_check(inputs: GHInputs, outputs) -> list[TaskResult]:
    heuristic, exhaustive, collapse = outputs
    results = []
    for pair, bound in zip(inputs.heuristic, heuristic):
        results.append(TaskResult(f"heuristic {pair.label}", _bound_checks(pair, bound, "heuristic")))
    for pair, bound in zip(inputs.exhaustive, exhaustive):
        task = TaskResult(f"exhaustive {pair.label}", _bound_checks(pair, bound, "exact"))
        # the local search the exact path seeds itself with, on its own
        local_eps, _ = gh._heuristic_bound(pair.X, pair.Y, pair.seed)
        task.checks.append(
            Check(
                "exact <= heuristic",
                bound.epsilon <= local_eps + 1e-12,
                f"exact {bound.epsilon:.6g}, heuristic {local_eps:.6g}",
            )
        )
        results.append(task)
    eps = collapse.epsilons
    results.append(
        TaskResult(
            "collapse series",
            [
                Check(
                    "collapse bound nonincreasing in t",
                    len(eps) == len(inputs.collapse_ts) and bool(np.all(np.diff(eps) <= 1e-9)),
                    f"{len(eps)} values, first {eps[0]:.4g}, last {eps[-1]:.4g}",
                )
            ],
        )
    )
    return results


def gh_samples(outputs) -> dict[str, list[float]]:
    heuristic, _, _ = outputs
    return {"gh_eps": [statistics.fmean(b.epsilon for b in heuristic)]}


def gh_figures(samples: dict[str, list[float]]) -> dict[str, float]:
    """gh_eps: mean heuristic bound over the first round's heuristic pairs.

    Later rounds run only while time is left, so only the first round is
    the same in every run of a seed.
    """
    return {"gh_eps": samples["gh_eps"][0]}


# ---------------------------------------------------------------------------
# exact-queries: Fraction-only class queries on the six catalogue models
# ---------------------------------------------------------------------------

EXACT_QUERIES_PER_ROUND = 1000
EXACT_INTEGRATES_PER_ROUND = 2

#: 2*pi*c1 of each built-in model, restated here for the closed forms
_C1 = {
    "cp1": (2,),
    "torus1": (0,),
    "genus2": (-2,),
    "p1xp1": (2, 2),
    "blowup-p2": (3, -1),
    "product-ec": (0, -2),
}
#: catalogued subvarieties and the coordinate each one pairs with (sign)
_CATALOGUE = {
    "p1xp1": (("H", 0, 1), ("F", 1, 1)),
    "blowup-p2": (("E", 1, -1), ("H", 0, 1)),
    "product-ec": (("E-fiber", 0, 1), ("C-section", 1, 1)),
}


def _closed_kahler(name: str, a: tuple) -> bool:
    if name == "blowup-p2":
        return 0 < -a[1] < a[0]
    return all(c > 0 for c in a)


def _closed_volume(name: str, a: tuple) -> Fraction:
    if len(a) == 1:
        return a[0]
    if name == "blowup-p2":
        return a[0] * a[0] - a[1] * a[1]
    return 2 * a[0] * a[1]


def _closed_time(name: str, a: tuple):
    """Maximal existence time of a Kahler class, None when infinite."""
    if name == "cp1":
        return a[0] / 2
    if name == "p1xp1":
        return min(a) / 2
    if name == "blowup-p2":
        return min(-a[1], (a[0] + a[1]) / 2)
    return None


def expected_query(name: str, a: tuple) -> dict:
    """Criterion-1 closed forms for one class, independent of the engine."""
    out = {"kahler": _closed_kahler(name, a), "volume": _closed_volume(name, a)}
    if not out["kahler"]:
        return out
    T = _closed_time(name, a)
    out["time"] = T
    nef = a if T is None else tuple(c - T * k for c, k in zip(a, _C1[name]))
    if T is not None:
        out["limit"] = nef
        out["limit_volume"] = _closed_volume(name, nef)
    out["null_labels"] = tuple(
        label for label, i, sign in _CATALOGUE.get(name, ()) if sign * nef[i] == 0
    )
    out["whole_space"] = _closed_volume(name, nef) == 0
    return out


def _rand_pos(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 48), rng.randint(1, 12))


def draw_class(rng: random.Random, name: str, inside: bool) -> tuple:
    """Random rational class inside (or outside) the model's Kahler cone."""
    dim = len(_C1[name])
    if inside:
        if name == "blowup-p2":
            m2 = -_rand_pos(rng)
            return (-m2 + _rand_pos(rng), m2)
        return tuple(_rand_pos(rng) for _ in range(dim))
    while True:
        a = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 8)) for _ in range(dim))
        if not _closed_kahler(name, a):
            return a


@dataclass
class ExactInputs:
    queries: list[tuple[str, tuple]]
    crosschecks: list[az.AnsatzModel]
    integrates: list[az.AnsatzModel]
    models: dict


def exact_inputs(seed: int, round_index: int, span=None) -> ExactInputs:
    rng = random.Random(f"exact-queries/{seed}/{round_index}")
    names = sorted(_C1)
    queries = []
    for i in range(EXACT_QUERIES_PER_ROUND):
        name = names[i % len(names)]
        queries.append((name, draw_class(rng, name, inside=rng.random() < 0.75)))
    rng.shuffle(queries)

    def scale():
        # extinction times near 1 keep the numeric cross-check's cost even
        return Fraction(rng.randint(18, 30), 12)

    crosschecks = [
        az.AnsatzModel.of(az.ROUND_P1, [scale()]),
        az.AnsatzModel.of(az.P1XP1, [scale(), scale()]),
        az.AnsatzModel.of(az.ROUND_P1, [scale()]),
        az.AnsatzModel.of(az.PRODUCT_EC, [scale(), scale()]),
    ]
    integrates = [
        az.AnsatzModel.of(az.PRODUCT_EC, [scale(), scale()], mode=az.NORMALIZED)
        for _ in range(EXACT_INTEGRATES_PER_ROUND)
    ]
    return ExactInputs(queries, crosschecks, integrates, coh_models.builtin_models())


def exact_query(model: coh.ManifoldModel, coords: tuple) -> dict:
    """One class query: cone, existence time, limit, volume, null locus."""
    a = coh.ClassVector(coords)
    out: dict = {"kahler": coh.is_kahler(model, a)}
    if not out["kahler"]:
        try:
            coh.max_existence_time(model, a)
            out["rejected"] = False
        except coh.NotKahlerError:
            out["rejected"] = True
        out["volume"] = coh.volume(model, a)
        return out
    T = coh.max_existence_time(model, a)
    out["volume"] = coh.volume(model, a)
    nef = a
    if T.finite:
        out["time"] = T.value if T.exact else None
        nef = coh.limiting_class(model, a)
        out["limit"] = tuple(nef.coords)
        out["limit_volume"] = coh.volume(model, nef)
    else:
        out["time"] = None
    locus = coh.null_locus(model, nef)
    out["null_labels"] = locus.labels
    out["whole_space"] = locus.whole_space
    return out


def exact_warm_up(inputs: ExactInputs) -> None:
    for name, coords in inputs.queries[:12]:
        exact_query(inputs.models[name], coords)


@dataclass
class ExactOutputs:
    queries: list  # per query: (result dict or exception text, seconds)
    crosschecks: list
    integrates: list


def exact_solve(inputs: ExactInputs) -> ExactOutputs:
    answers = []
    for name, coords in inputs.queries:
        start = time.perf_counter()
        try:
            answer = exact_query(inputs.models[name], coords)
        except Exception as err:  # a raised query is a failed task, not a crash
            answer = f"{type(err).__name__}: {err}"
        answers.append((answer, time.perf_counter() - start))
    crosschecks = [az.crosscheck_T(m) for m in inputs.crosschecks]
    integrates = [az.integrate(m, 2.0, dt=1e-3) for m in inputs.integrates]
    return ExactOutputs(answers, crosschecks, integrates)


def _query_checks(name: str, coords: tuple, got: dict) -> list[Check]:
    want = expected_query(name, coords)
    checks = [Check("cone decision", got["kahler"] == want["kahler"], f"{name} {coords}")]
    if not want["kahler"]:
        checks.append(Check("non-Kahler class rejected", got.get("rejected") is True))
    checks.append(Check("volume", got["volume"] == want["volume"], str(got["volume"])))
    if want["kahler"] and got["kahler"]:
        checks.append(Check("existence time", got.get("time") == want["time"], str(got.get("time"))))
        if want["time"] is not None:
            checks.append(Check("limiting class", got.get("limit") == want["limit"]))
            checks.append(Check("limit volume", got.get("limit_volume") == want["limit_volume"]))
        checks.append(
            Check(
                "null locus",
                got.get("null_labels") == want["null_labels"]
                and got.get("whole_space") == want["whole_space"],
                f"{got.get('null_labels')} whole={got.get('whole_space')}",
            )
        )
    return checks


def expected_extinction(model: az.AnsatzModel):
    if model.kind == az.ROUND_P1:
        return model.scales[0] / 2
    if model.kind == az.P1XP1:
        return min(model.scales) / 2
    return None


def exact_check(inputs: ExactInputs, outputs: ExactOutputs) -> list[TaskResult]:
    results = []
    for (name, coords), (answer, _) in zip(inputs.queries, outputs.queries):
        if isinstance(answer, str):
            results.append(TaskResult(f"query {name}", error=answer))
        else:
            results.append(TaskResult(f"query {name}", _query_checks(name, coords, answer)))
    for model, chk in zip(inputs.crosschecks, outputs.crosschecks):
        want = expected_extinction(model)
        results.append(
            TaskResult(
                f"crosscheck_T {model.kind}",
                [
                    Check("crosscheck_T equal", chk.equal is True),
                    Check(
                        "extinction time closed form",
                        chk.ansatz_time == want and chk.cohomology_time == want,
                        f"ansatz {chk.ansatz_time}, cohomology {chk.cohomology_time}, want {want}",
                    ),
                ],
            )
        )
    for model, traj in zip(inputs.integrates, outputs.integrates):
        dev = float(np.abs(traj.coeffs - traj.closed()).max())
        results.append(
            TaskResult(
                f"integrate {model.kind}",
                [Check("trajectory matches the closed form to 1e-10", dev <= 1e-10, f"{dev:.3e}")],
            )
        )
    return results


def exact_samples(outputs: ExactOutputs) -> dict[str, list[float]]:
    return {"query_s": [seconds for _, seconds in outputs.queries]}


def exact_figures(samples: dict[str, list[float]]) -> dict[str, float]:
    """Per-query latency: median and p99, which keeps >= 10 samples beyond it."""
    q = samples["query_s"]
    return {
        "query_p50_us": statistics.median(q) * 1e6,
        "query_p99_us": statistics.quantiles(q, n=100)[98] * 1e6,
        "query_samples": len(q),
    }


# ---------------------------------------------------------------------------


def _span(span, name: str):
    return contextlib.nullcontext() if span is None else span(name)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flow-n1",
            flow_n1_inputs,
            flow_warm_up,
            flow_solve,
            flow_n1_check,
            simulated_time=lambda outputs: float(outputs[0].t),
        ),
        Workload(
            "flow-n2",
            flow_n2_inputs,
            flow_warm_up,
            flow_solve,
            flow_n2_check,
            simulated_time=lambda outputs: float(outputs[0].t),
        ),
        Workload(
            "gh-search",
            gh_inputs,
            gh_warm_up,
            gh_solve,
            gh_check,
            samples=gh_samples,
            figures=gh_figures,
        ),
        Workload(
            "exact-queries",
            exact_inputs,
            exact_warm_up,
            exact_solve,
            exact_check,
            samples=exact_samples,
            figures=exact_figures,
        ),
    )
}
