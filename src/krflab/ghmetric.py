"""Finite-metric-space Gromov-Hausdorff machinery.

The distance notion is the map-pair formulation: two not-necessarily
continuous maps F: X -> Y and G: Y -> X witness distance <= eps when the
four defect families (distance distortion under each map and the two
round-trip displacements) are all bounded by eps.  ``gh_epsilon`` scores
a given pair of maps; ``gh_upper_bound`` searches over maps, exhaustively
(exact) when |X|*|Y| <= 36 and by a seeded local search (upper bound
only) otherwise.  The local search is coordinate descent on one
coordinate of F or G at a time, and scores all candidate values of that
coordinate in one batch: a block of |Y|*|X|**2 floats when F[x] moves
(2 MB at 64 points).  Its maps are bit-for-bit those of scoring each
candidate alone, which needs two things: every gathered block is
C-contiguous before its rows are reduced, and the soft score is summed
in one order, ((d1 + d2) + d3) + d4, whichever map moves.

The collapsing demonstration samples a two-torus whose fiber circle
shrinks like exp(-t/2) and certifies convergence to the base circle with
the explicit projection/section maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: exhaustive search threshold on |X| * |Y|
EXHAUSTIVE_LIMIT = 36
#: random restarts for the heuristic search
RESTARTS = 64
#: slack used when validating the triangle inequality
TRIANGLE_TOL = 1e-12


@dataclass(frozen=True)
class FiniteMetricSpace:
    labels: tuple[str, ...]
    D: np.ndarray

    @staticmethod
    def of(labels: Sequence[str], D) -> "FiniteMetricSpace":
        return FiniteMetricSpace(tuple(labels), np.asarray(D, dtype=float))

    def __post_init__(self):
        D = self.D
        n = len(self.labels)
        if D.shape != (n, n):
            raise ValueError(f"distance matrix must be {n}x{n}, got {D.shape}")
        if not np.isfinite(D).all():
            raise ValueError("distances must be finite")
        if np.abs(np.diag(D)).max(initial=0.0) > 0:
            raise ValueError("diagonal must be zero")
        if (D < 0).any():
            raise ValueError("distances must be nonnegative")
        if np.abs(D - D.T).max(initial=0.0) > TRIANGLE_TOL:
            raise ValueError("distance matrix must be symmetric")
        if n <= 128:
            through = (D[:, :, None] + D[None, :, :]).min(axis=1)
            if (D > through + TRIANGLE_TOL).any():
                raise ValueError("triangle inequality violated")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CorrespondencePair:
    """Index maps F: X -> Y and G: Y -> X (total, not necessarily injective)."""

    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "F", np.asarray(self.F, dtype=int))
        object.__setattr__(self, "G", np.asarray(self.G, dtype=int))


def gh_epsilon(X: FiniteMetricSpace, Y: FiniteMetricSpace, maps: CorrespondencePair) -> float:
    """Smallest eps the given maps witness: the max of the four defects."""
    F, G = maps.F, maps.G
    nx, ny = len(X), len(Y)
    if F.shape != (nx,) or G.shape != (ny,):
        raise ValueError(f"maps must have lengths ({nx}, {ny}), got {F.shape}, {G.shape}")
    if F.size and not (0 <= F.min() and F.max() < ny):
        raise ValueError("F maps outside Y")
    if G.size and not (0 <= G.min() and G.max() < nx):
        raise ValueError("G maps outside X")
    d1 = np.abs(X.D - Y.D[np.ix_(F, F)]).max(initial=0.0)
    d2 = np.abs(Y.D - X.D[np.ix_(G, G)]).max(initial=0.0)
    d3 = X.D[np.arange(nx), G[F]].max(initial=0.0)
    d4 = Y.D[np.arange(ny), F[G]].max(initial=0.0)
    return float(max(d1, d2, d3, d4))


@dataclass(frozen=True)
class GHBound:
    epsilon: float
    flag: str  # "exact" (exhaustive over the given point sets) or "heuristic"
    maps: CorrespondencePair

    @property
    def exact(self) -> bool:
        return self.flag == "exact"


def _signature_seed(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> np.ndarray:
    """Map each point of X to the Y point with the closest distance profile."""
    k = max(len(X), len(Y))
    grid = np.linspace(0.0, 1.0, k)

    def signatures(space):
        rows = np.sort(space.D, axis=1)
        base = np.linspace(0.0, 1.0, rows.shape[1])
        return np.stack([np.interp(grid, base, row) for row in rows])

    sx, sy = signatures(X), signatures(Y)
    cost = np.abs(sx[:, None, :] - sy[None, :, :]).sum(axis=2)
    return cost.argmin(axis=1)


def _anchor_seed(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, x0: int, y0: int
) -> np.ndarray:
    """Greedy profile matching after anchoring x0 -> y0."""
    cost = np.abs(X.D[:, x0][:, None] - Y.D[:, y0][None, :])
    F = cost.argmin(axis=1)
    F[x0] = y0
    return F


def _distortion(DA: np.ndarray, DB: np.ndarray, A: np.ndarray) -> tuple[float, float]:
    """(max |defect|, sum of squared defects) of the distortion of A: DA -> DB."""
    d = DA - DB[np.ix_(A, A)]
    return float(np.abs(d).max(initial=0.0)), float((d**2).sum())


def _moves(
    DA: np.ndarray, DB: np.ndarray, A: np.ndarray, B: np.ndarray, a: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Score every value of A[a] at once, with A: DA -> DB and B: DB -> DA.

    Row c of each block is one defect family with A[a] = c: the distortion
    of A (nb x na*na), the round trip DA[i, B[A[i]]] (nb x na) and the round
    trip DB[j, A[B[j]]] (nb x nb).  Returns (row max, row sum of squares)
    per family.  Each block is made C-contiguous before it is reduced (the
    nb x nb one comes out of fancy indexing Fortran-ordered): numpy then
    sums each row pairwise, exactly as it sums the family of one candidate.
    """
    na, nb = len(DA), len(DB)
    cands = np.repeat(A[None, :], nb, axis=0)
    cands[:, a] = np.arange(nb)
    # in place: at 64 points each temporary would be a fresh 2 MB allocation
    dist = DB[cands[:, :, None], cands[:, None, :]].reshape(nb, na * na)
    np.abs(np.subtract(DA.reshape(-1), dist, out=dist), out=dist)
    out = []
    for block in (dist, DA[np.arange(na), B[cands]], DB[np.arange(nb), cands[:, B]]):
        block = np.ascontiguousarray(block)
        worst = block.max(axis=1, initial=0.0)
        out.append((worst, np.square(block, out=block).sum(axis=1)))
    return tuple(out)


def _candidate_scores(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    F: np.ndarray,
    G: np.ndarray,
    fixed: tuple[float, float],
    x: int | None = None,
    y: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(worst, soft) of (F, G) with F[x], or else G[y], set to each value.

    ``fixed`` is ``_distortion`` of the map that does not move.  The soft
    score is summed as ((d1 + d2) + d3) + d4 for either move, d1/d2 being
    the X/Y distortions and d3/d4 the round trips starting in X/Y, which is
    the order a single candidate's score is summed in.
    """
    if y is None:
        (w1, s1), (w3, s3), (w4, s4) = _moves(X.D, Y.D, F, G, x)
        w2, s2 = fixed
    else:
        (w2, s2), (w4, s4), (w3, s3) = _moves(Y.D, X.D, G, F, y)
        w1, s1 = fixed
    return np.maximum(np.maximum(w1, w2), np.maximum(w3, w4)), ((s1 + s2) + s3) + s4


def _improve(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    F: np.ndarray,
    G: np.ndarray,
    rng: np.random.Generator,
    passes: int = 12,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coordinate descent on (max defect, sum of squared defects).

    Each coordinate F[x] (then G[y]) is one candidate batch: all |Y| (|X|)
    values are scored together from a block of |Y|*|X|**2 floats (2 MB at
    64 points), and the distortion of the map that does not move is scored
    once per phase.  The move taken is the first lexicographic minimum of
    (worst, soft) over the values other than the current one (masked to
    inf; scores are finite because distances are), if it beats the best
    so far.  That is the move a scan over the values in index order makes
    when it keeps each one that beats the running best.  The maps are
    bit-for-bit those of scoring each candidate alone, because the
    gathered blocks are reduced as C-contiguous rows and the soft sum
    keeps one order for both maps.
    """

    def take(scores, current):
        worst, soft = scores
        worst[current] = np.inf
        c = int(np.lexsort((soft, worst))[0])
        return c, (float(worst[c]), float(soft[c]))

    # row F[0] scores the pair as it stands
    worst, soft = _candidate_scores(X, Y, F, G, _distortion(Y.D, X.D, G), x=0)
    best = (float(worst[F[0]]), float(soft[F[0]]))
    for _ in range(passes):
        improved = False
        fixed = _distortion(Y.D, X.D, G)
        for x in rng.permutation(len(X)):
            c, trial = take(_candidate_scores(X, Y, F, G, fixed, x=x), F[x])
            if trial < best:
                best, F[x], improved = trial, c, True
        fixed = _distortion(X.D, Y.D, F)
        for y in rng.permutation(len(Y)):
            c, trial = take(_candidate_scores(X, Y, F, G, fixed, y=y), G[y])
            if trial < best:
                best, G[y], improved = trial, c, True
        if not improved:
            break
    return F, G, best[0]


def _heuristic_bound(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    seed: int,
    restarts: int = RESTARTS,
) -> tuple[float, CorrespondencePair]:
    rng = np.random.default_rng(seed)
    nx, ny = len(X), len(Y)
    # deterministic seeds (profile matching, anchor alignment), then the
    # requested number of random restarts
    seeds: list[tuple[np.ndarray, np.ndarray]] = [
        (_signature_seed(X, Y), _signature_seed(Y, X))
    ]
    anchors_x = range(nx) if nx <= 8 else rng.choice(nx, size=8, replace=False)
    anchors_y = range(ny) if ny <= 8 else rng.choice(ny, size=8, replace=False)
    for x0 in anchors_x:
        for y0 in anchors_y:
            seeds.append(
                (_anchor_seed(X, Y, int(x0), int(y0)), _anchor_seed(Y, X, int(y0), int(x0)))
            )
    for _ in range(restarts):
        seeds.append((rng.integers(0, ny, size=nx), rng.integers(0, nx, size=ny)))
    best_eps = math.inf
    best_pair = None
    for F0, G0 in seeds:
        F, G, eps = _improve(X, Y, np.array(F0, dtype=int), np.array(G0, dtype=int), rng)
        if eps < best_eps:
            best_eps = eps
            best_pair = CorrespondencePair(F.copy(), G.copy())
            if best_eps == 0.0:
                break
    return best_eps, best_pair


def _all_maps(src: int, dst: int) -> np.ndarray:
    """All maps {0..src-1} -> {0..dst-1} as rows, in itertools.product order."""
    if src == 0:
        return np.zeros((1, 0), dtype=int)
    return np.indices((dst,) * src).reshape(src, -1).T


def _exhaustive_bound(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, seed: int
) -> tuple[float, CorrespondencePair]:
    nx, ny = len(X), len(Y)
    eps0, pair0 = _heuristic_bound(X, Y, seed, restarts=8)
    best_eps, best_pair = eps0, pair0

    Fs = _all_maps(nx, ny)
    Gs = _all_maps(ny, nx)
    # distortion of every candidate map, vectorized over the stacks
    d1 = np.zeros(len(Fs))
    for x1 in range(nx):
        for x2 in range(x1 + 1, nx):
            np.maximum(d1, np.abs(X.D[x1, x2] - Y.D[Fs[:, x1], Fs[:, x2]]), out=d1)
    d2 = np.zeros(len(Gs))
    for y1 in range(ny):
        for y2 in range(y1 + 1, ny):
            np.maximum(d2, np.abs(Y.D[y1, y2] - X.D[Gs[:, y1], Gs[:, y2]]), out=d2)
    order_f = np.argsort(d1, kind="stable")
    order_g = np.argsort(d2, kind="stable")
    Gs_sorted = Gs[order_g]
    d2_sorted = d2[order_g]
    xs = np.arange(nx)
    ys = np.arange(ny)
    for fi in order_f:
        if d1[fi] >= best_eps:
            break  # every later F is at least this distorted
        F = Fs[fi]
        limit = int(np.searchsorted(d2_sorted, best_eps, side="left"))
        if limit == 0:
            continue
        Gsub = Gs_sorted[:limit]
        d3 = X.D[xs[None, :], Gsub[:, F]].max(axis=1) if nx else np.zeros(limit)
        d4 = Y.D[ys[None, :], F[Gsub]].max(axis=1) if ny else np.zeros(limit)
        eps_all = np.maximum(np.maximum(d1[fi], d2_sorted[:limit]), np.maximum(d3, d4))
        gi = int(eps_all.argmin())
        if eps_all[gi] < best_eps:
            best_eps = float(eps_all[gi])
            best_pair = CorrespondencePair(F.copy(), Gsub[gi].copy())
    return best_eps, best_pair


def gh_upper_bound(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, seed: int = 0
) -> GHBound:
    """Minimize gh_epsilon over map pairs.

    Exact (full enumeration with sound pruning) when |X|*|Y| is at most
    36; otherwise a nearest-neighbor/anchor seeded local search with 64
    random restarts, which only certifies an upper bound and is flagged
    "heuristic".
    """
    if len(X) * len(Y) <= EXHAUSTIVE_LIMIT:
        eps, pair = _exhaustive_bound(X, Y, seed)
        return GHBound(epsilon=eps, flag="exact", maps=pair)
    eps, pair = _heuristic_bound(X, Y, seed)
    return GHBound(epsilon=eps, flag="heuristic", maps=pair)


# ---------------------------------------------------------------------------
# warped torus collapsing
# ---------------------------------------------------------------------------


def sample_warped_torus(t: float, n_base: int, n_fiber: int) -> FiniteMetricSpace:
    """Grid sample of the unit two-torus with fiber metric shrunk by exp(-t).

    The metric is dx^2 + exp(-t) dy^2 with unit periods; geodesics of a
    flat torus lift to straight lines, and since both side lengths are at
    most 1 the minimum over integer shifts in {-1, 0, 1}^2 is exact.
    """
    if n_base < 1 or n_fiber < 1:
        raise ValueError("need at least one sample per direction")
    if t < 0:
        raise ValueError("t must be nonnegative")
    xs = np.arange(n_base) / n_base
    ys = np.arange(n_fiber) / n_fiber
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    px, py = gx.ravel(), gy.ravel()
    dx = px[:, None] - px[None, :]
    dy = py[:, None] - py[None, :]
    warp = math.exp(-t)
    best = None
    for k in (-1.0, 0.0, 1.0):
        for l in (-1.0, 0.0, 1.0):
            cand = (dx + k) ** 2 + warp * (dy + l) ** 2
            best = cand if best is None else np.minimum(best, cand)
    D = np.sqrt(best)
    np.fill_diagonal(D, 0.0)
    labels = [f"({i},{j})" for i in range(n_base) for j in range(n_fiber)]
    return FiniteMetricSpace.of(labels, D)


def circle_space(n: int) -> FiniteMetricSpace:
    """n equally spaced points on a circle of circumference 1."""
    xs = np.arange(n) / n
    dx = np.abs(xs[:, None] - xs[None, :])
    D = np.minimum(dx, 1.0 - dx)
    np.fill_diagonal(D, 0.0)
    return FiniteMetricSpace.of([f"{i}" for i in range(n)], D)


def fibration_maps(n_base: int, n_fiber: int) -> CorrespondencePair:
    """Projection to the base circle and the horizontal zero section."""
    F = np.repeat(np.arange(n_base), n_fiber)  # (i, j) -> i
    G = np.arange(n_base) * n_fiber  # i -> (i, 0)
    return CorrespondencePair(F, G)


@dataclass
class CollapseSeries:
    ts: np.ndarray
    epsilons: np.ndarray
    n_base: int
    n_fiber: int
    flag: str = "fibration-maps"
    #: distance defect at the largest sampled time (discretization floor)
    floor: float = 0.0
    #: fitted coefficient of the exp(-t/2) envelope above the floor
    rate_coefficient: float = 0.0

    def rows(self):
        return [
            [float(t), float(e), self.flag] for t, e in zip(self.ts, self.epsilons)
        ]

    header = ("t", "epsilon", "flag")


def collapse_series(
    ts: Sequence[float], n_base: int, n_fiber: int
) -> CollapseSeries:
    """Certified distance bounds from the warped torus to its base circle.

    Uses the explicit projection/section maps at each time, so every value
    is a genuine witness of distance <= eps; the series decreases to a
    discretization floor as the fiber collapses.
    """
    ts = np.asarray(list(ts), dtype=float)
    if len(ts) == 0 or np.any(np.diff(ts) <= 0):
        raise ValueError("t values must be strictly increasing")
    base = circle_space(n_base)
    maps = fibration_maps(n_base, n_fiber)
    eps = np.array(
        [
            gh_epsilon(sample_warped_torus(t, n_base, n_fiber), base, maps)
            for t in ts
        ]
    )
    floor = float(eps[-1])
    envelope = np.exp(-ts / 2.0)
    rate_coeff = float(np.max((eps - floor) / envelope))
    return CollapseSeries(
        ts=ts,
        epsilons=eps,
        n_base=n_base,
        n_fiber=n_fiber,
        floor=floor,
        rate_coefficient=rate_coeff,
    )


# ---------------------------------------------------------------------------
# catalogued test spaces
# ---------------------------------------------------------------------------


def _triangle(a: float, b: float, c: float) -> FiniteMetricSpace:
    return FiniteMetricSpace.of(
        ["p", "q", "r"], [[0, a, b], [a, 0, c], [b, c, 0]]
    )


def catalogue() -> dict[str, FiniteMetricSpace]:
    """Small named spaces (all of size <= 6) used by sanity checks."""
    return {
        "point": FiniteMetricSpace.of(["p"], [[0.0]]),
        "pair": FiniteMetricSpace.of(["p", "q"], [[0.0, 1.0], [1.0, 0.0]]),
        "equilateral": _triangle(1.0, 1.0, 1.0),
        "isoceles": _triangle(1.0, 1.0, 0.5),
        "square": circle_space(4),
        "hexagon": circle_space(6),
    }


# -- JSON schema -------------------------------------------------------------

SCHEMA_VERSION = 1


def space_to_dict(space: FiniteMetricSpace) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "labels": list(space.labels),
        "D": [float(v) for v in space.D.ravel()],
    }


def space_from_dict(data: dict) -> FiniteMetricSpace:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported metric-space schema: {data.get('schema')!r}")
    labels = list(data["labels"])
    n = len(labels)
    D = np.asarray(data["D"], dtype=float).reshape(n, n)
    return FiniteMetricSpace.of(labels, D)
