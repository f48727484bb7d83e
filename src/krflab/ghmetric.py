"""Finite-metric-space Gromov-Hausdorff machinery.

The distance notion is the map-pair formulation: two not-necessarily
continuous maps F: X -> Y and G: Y -> X witness distance <= eps when the
four defect families (distance distortion under each map and the two
round-trip displacements) are all bounded by eps.  ``gh_epsilon`` scores
a given pair of maps; ``gh_upper_bound`` searches over maps, exhaustively
(exact, whatever the seed) when |X|*|Y| <= 36 and by a seeded local
search (upper bound only) otherwise.

The local search is coordinate descent from anchor-aligned and random
start maps (matching distance profiles gives no start: on a homogeneous
space all profiles are equal).  The starts descend together: every value
of one coordinate of F or G, for every start still descending, is scored
in one batch, through one path for either map.  Only one row and one
column of a distortion depend on the moving coordinate, so each start
keeps its distortion blocks |D_X - D_Y[F, F]| and |D_Y - D_X[G, G]|, a
batch reads the moving map's block with that row and column set aside,
and a move rewrites them: O(S*(|X| + |Y|)**2) per batch of S starts.
The starts run in stacks whose largest temporary holds at most
``BLOCK_FLOATS`` entries, and the search stops after the first stack
that reaches epsilon 0.

The exhaustive search builds the distortion of every map one point of
its domain at a time and scores the first pair in distortion order.
Only maps whose distortion is below the best epsilon so far can beat it,
and only those are sorted, a chunk at a time as the scoring reaches
them; pairs are scored in blocks built from the maps' indices.

The collapsing demonstration samples a two-torus whose fiber circle
shrinks like exp(-t/2) and certifies convergence to the base circle with
the explicit projection/section maps, at every sampled time at once.
Rounded + and * are monotone on nonnegative values, so its distances take
the shortest lattice shift across and along the fiber each on its own,
bit for bit as the minimum over all nine shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .serialize import array, number, string

#: exhaustive search threshold on |X| * |Y|
EXHAUSTIVE_LIMIT = 36
#: random restarts for the heuristic search
RESTARTS = 64
#: coordinate-descent passes of the heuristic search
PASSES = 12
#: largest temporary of the heuristic search, in entries: a stack of S
#: starts needs S * max(|X|, |Y|)**2, so its memory does not grow with size
BLOCK_FLOATS = 64**3
#: a move that keeps the max defect must lower the soft score by more than
#: this share of it, which is far above the rounding of its sums
SOFT_RTOL = 1e-12
#: largest block of the exhaustive search, in round-trip entries
PAIR_BLOCK = 2**15
#: slack used when validating the triangle inequality
TRIANGLE_TOL = 1e-12
#: largest temporary of the triangle-inequality check, in floats
TRIANGLE_BLOCK = 128**3


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
        if n == 0:
            raise ValueError("a metric space needs at least one point")
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
        # rows i and middle points k in blocks of b, so that the (i, k, j)
        # temporary holds at most TRIANGLE_BLOCK floats; one block up to 128 points
        b = max(1, math.isqrt(TRIANGLE_BLOCK // n))
        for i in range(0, n, b):
            rows = D[i : i + b]
            through = np.full(rows.shape, np.inf)
            for k in range(0, n, b):
                via = rows[:, k : k + b, None] + D[None, k : k + b, :]
                np.minimum(through, via.min(axis=1), out=through)
            if (rows > through + TRIANGLE_TOL).any():
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
    return float(_epsilon(X.D, Y.D, F, G))


def _epsilon(DX: np.ndarray, DY: np.ndarray, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The max of the four defects of (F, G), for each DX of a stack (..., |X|, |X|)."""
    d1 = np.abs(DX - DY[np.ix_(F, F)]).max(axis=(-2, -1), initial=0.0)
    d2 = np.abs(DY - DX[..., G[:, None], G]).max(axis=(-2, -1), initial=0.0)
    d3 = DX[..., np.arange(len(F)), G[F]].max(axis=-1, initial=0.0)
    d4 = DY[np.arange(len(G)), F[G]].max(initial=0.0)
    return np.maximum(np.maximum(d1, d2), np.maximum(d3, d4))


@dataclass(frozen=True)
class GHBound:
    epsilon: float
    flag: str  # "exact" (exhaustive over the given point sets) or "heuristic"
    maps: CorrespondencePair

    @property
    def exact(self) -> bool:
        return self.flag == "exact"


def _anchor_seed(X: FiniteMetricSpace, Y: FiniteMetricSpace, x0: int, y0: int) -> np.ndarray:
    """Greedy profile matching after anchoring x0 -> y0."""
    cost = np.abs(X.D[:, x0][:, None] - Y.D[:, y0][None, :])
    F = cost.argmin(axis=1)
    F[x0] = y0
    return F


def _block(DA: np.ndarray, DB: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The distortion of each row of A: DA -> DB, entry by entry, |DA - DB[A, A]| (S x na x na)."""
    return np.abs(DA - DB[A[:, :, None], A[:, None, :]])


def _distortion(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max |defect|, sum of squared defects) of each distortion of a ``_block``."""
    d = block.reshape(len(block), -1)
    return d.max(axis=1, initial=0.0), np.square(d).sum(axis=1)


class _Side(NamedTuple):
    """One direction of the local search, maps DA -> DB, and what every batch of its moves reads."""

    DA: np.ndarray
    DB: np.ndarray
    from_x: bool  # DA is X's, so the round trip that starts in X is DA's
    DBt: np.ndarray  # DB.T, contiguous
    padded: np.ndarray  # DB and a row of zeros: gathering row nb gives zeros
    starts_a: np.ndarray  # flat index of the start of each row of DA
    starts_b: np.ndarray  # flat index of the start of each row of DB
    points_b: np.ndarray  # the points of DB as a column

    @staticmethod
    def of(DA: np.ndarray, DB: np.ndarray, from_x: bool) -> "_Side":
        na, nb = len(DA), len(DB)
        return _Side(
            DA,
            DB,
            from_x,
            np.ascontiguousarray(DB.T),
            np.vstack([DB, np.zeros(nb)]),
            np.arange(0, na * na, na),
            np.arange(0, nb * nb, nb),
            np.arange(nb)[:, None],
        )

    def rewrite(self, block: np.ndarray, A: np.ndarray, rows: np.ndarray, a: int) -> None:
        """Rewrite row and column a of the ``_block`` of those rows of A, after A[rows, a] moved."""
        Ar = A[rows]
        here = Ar[:, a, None]
        block[rows, a, :] = np.abs(self.DA[a] - self.DB[here, Ar])
        block[rows, :, a] = np.abs(self.DA[:, a] - self.DB[Ar, here])


def _moves(
    side: _Side,
    A: np.ndarray,
    B: np.ndarray,
    block: np.ndarray,
    fixed: tuple[np.ndarray, np.ndarray],
    a: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(worst, soft) of each row of a stack of map pairs with A[:, a] set to each value.

    Row s of A (S x na) maps DA -> DB and row s of B (S x nb) maps back;
    ``block`` is the ``_block`` of A and ``fixed`` the ``_distortion`` of
    B.  Entry [s, c] scores row s with A[s, a] = c, both S x nb.  worst is
    the exact max defect; soft, the sum of squared defects, is summed as
    ((d_moving + d_fixed) + d3) + d4 in both directions, d3 being the
    round trip that starts in X, and can differ in its last bits from one
    pair's sum alone.  No temporary holds more than S * max(na, nb)**2
    entries.
    """
    DA, DB = side.DA, side.DB
    S, na = A.shape
    nb = len(DB)
    # the current distortion without row and column a
    kept = block.copy()
    kept[:, a, :] = 0.0
    kept[:, :, a] = 0.0
    kept = kept.reshape(S, na * na)
    kept_max = kept.max(axis=1)
    kept_sum = np.square(kept, out=kept).sum(axis=1)
    # row a, DA[a, j] - DB[c, A[j]], and column a, DA[i, a] - DB[A[i], c],
    # for every candidate, (na, S, nb); their entry a is DA[a, a] - DB[c, c] = 0
    At = A.T
    line = np.abs(DA[a, :, None, None] - side.DBt.take(At, axis=0))
    column = np.abs(DA[:, a, None, None] - DB.take(At, axis=0))
    line[a] = column[a] = 0.0
    edge = np.maximum(line.max(axis=0), column.max(axis=0))
    moving_max = np.maximum(kept_max[:, None], edge)
    line *= line
    column *= column
    line += column
    moving_sum = kept_sum[:, None] + line.sum(axis=0)
    # the round trip from DA: entry a becomes DA[a, B[c]]
    rows = np.arange(S)[:, None]
    there = DA.take(side.starts_a + B.take(rows * nb + A))
    there[:, a] = 0.0
    new = DA[a, B]
    there_max = np.maximum(there.max(axis=1)[:, None], new)
    there_sum = np.square(there, out=there).sum(axis=1)[:, None] + np.square(new)
    # the round trip from DB: entry j with B[j] = a becomes DB[j, c]
    back = DB.take(side.starts_b + A.take(rows * na + B))
    hit = B.T == a  # (nb, S)
    back[hit.T] = 0.0
    # (nb, S, nb): row j of DB where B[j] = a, else a row of zeros
    new = side.padded.take(np.where(hit, side.points_b, nb), axis=0)
    back_max = np.maximum(back.max(axis=1)[:, None], new.max(axis=0))
    new *= new
    back_sum = np.square(back, out=back).sum(axis=1)[:, None] + new.sum(axis=0)
    trips = (there_max, there_sum), (back_max, back_sum)
    (w3, s3), (w4, s4) = trips if side.from_x else trips[::-1]
    fixed_max, fixed_sum = (v[:, None] for v in fixed)
    worst = np.maximum(np.maximum(moving_max, fixed_max), np.maximum(w3, w4))
    return worst, ((moving_sum + fixed_sum) + s3) + s4


def _improve(
    X: FiniteMetricSpace,
    Y: FiniteMetricSpace,
    F: np.ndarray,
    G: np.ndarray,
    orders: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate descent on (max defect, sum of squared defects), for a stack of starts.

    F (S x |X|) and G (S x |Y|) hold one starting pair per row; returns
    the improved stacks and each row's max defect, inputs untouched.  Each
    pass visits F's coordinates in its X order from ``orders``, then G's
    in its Y order.  A row takes the first lexicographic minimum of
    (worst, soft) over the values other than its current one, and moves
    there if that lowers its best worst defect, or ties it and lowers its
    best soft score by more than ``SOFT_RTOL`` of it (a tie in another
    batch's rounding is no move).  A row with no move in a pass drops
    out.  Rows never mix: each ends where the search from its start alone
    ends.
    """
    F, G = np.array(F), np.array(G)
    eps = np.empty(len(F))
    fwd, bwd = _Side.of(X.D, Y.D, True), _Side.of(Y.D, X.D, False)
    # the rows still descending: their indices, maps, distortion blocks and best scores
    live = np.arange(len(F))
    f, g = F.copy(), G.copy()
    ef, eg = _block(X.D, Y.D, f), _block(Y.D, X.D, g)
    # entry F[:, 0] of the candidates for F[:, 0] scores each pair as it stands
    worst, soft = _moves(fwd, f, g, ef, _distortion(eg), 0)
    best_w, best_s = worst[live, f[:, 0]], soft[live, f[:, 0]]
    for order_x, order_y in orders:
        improved = np.zeros(len(f), dtype=bool)
        rows = np.arange(len(f))
        phases = (fwd, f, g, ef, eg, order_x), (bwd, g, f, eg, ef, order_y)
        for side, A, B, block, other, order in phases:
            fixed = _distortion(other)
            for k in order:
                worst, soft = _moves(side, A, B, block, fixed, k)
                worst[rows, A[:, k]] = np.inf
                c = np.lexsort((soft, worst))[:, 0]
                w, s = worst[rows, c], soft[rows, c]
                better = (w < best_w) | ((w == best_w) & (s < best_s * (1.0 - SOFT_RTOL)))
                moved = np.flatnonzero(better)
                if len(moved):
                    A[moved, k] = c[moved]
                    best_w[moved], best_s[moved] = w[moved], s[moved]
                    improved[moved] = True
                    side.rewrite(block, A, moved, k)
        done = live[~improved]
        F[done], G[done], eps[done] = f[~improved], g[~improved], best_w[~improved]
        live, f, g = live[improved], f[improved], g[improved]
        ef, eg = ef[improved], eg[improved]
        best_w, best_s = best_w[improved], best_s[improved]
        if not len(live):
            break
    F[live], G[live], eps[live] = f, g, best_w
    return F, G, eps


def _heuristic_bound(
    X: FiniteMetricSpace, Y: FiniteMetricSpace, seed: int
) -> tuple[float, CorrespondencePair]:
    """Best pair the local search reaches from its starts, and its epsilon.

    The starts are up to 8 x 8 anchor alignments, then ``RESTARTS`` random
    pairs; after them the rng draws ``PASSES`` pass orders, shared by
    every start.  A stack holds at most ``BLOCK_FLOATS // max(|X|, |Y|)**2``
    starts, one at the least.  The result is the first start, in order,
    with the smallest epsilon.
    """
    rng = np.random.default_rng(seed)
    nx, ny = len(X), len(Y)
    # deterministic starts (anchor alignment), then RESTARTS random ones
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    anchors_x = range(nx) if nx <= 8 else rng.choice(nx, size=8, replace=False)
    anchors_y = range(ny) if ny <= 8 else rng.choice(ny, size=8, replace=False)
    for x0 in anchors_x:
        for y0 in anchors_y:
            starts.append(
                (_anchor_seed(X, Y, int(x0), int(y0)), _anchor_seed(Y, X, int(y0), int(x0)))
            )
    for _ in range(RESTARTS):
        starts.append((rng.integers(0, ny, size=nx), rng.integers(0, nx, size=ny)))
    orders = [(rng.permutation(nx), rng.permutation(ny)) for _ in range(PASSES)]
    Fs = np.array([F for F, _ in starts], dtype=int)
    Gs = np.array([G for _, G in starts], dtype=int)
    chunk = max(1, BLOCK_FLOATS // max(nx, ny) ** 2)
    best_eps = math.inf
    best_pair = None
    for lo in range(0, len(starts), chunk):
        F, G, eps = _improve(X, Y, Fs[lo : lo + chunk], Gs[lo : lo + chunk], orders)
        i = int(eps.argmin())
        if eps[i] < best_eps:
            best_eps = float(eps[i])
            best_pair = CorrespondencePair(F[i], G[i])
        if best_eps == 0.0:
            break
    return best_eps, best_pair


def _map_rows(idx, src: int, dst: int) -> np.ndarray:
    """Maps {0..src-1} -> {0..dst-1} with the given indices in itertools.product order."""
    return np.asarray(idx)[..., None] // dst ** np.arange(src - 1, -1, -1) % dst


def _distortions(DA: np.ndarray, DB: np.ndarray) -> np.ndarray:
    """Distortion of every map DA -> DB, flat in itertools.product order.

    Both orientations of each point pair count, as ``gh_epsilon`` reads
    them, so a space symmetric only within ``TRIANGLE_TOL`` gets the same
    distortion bit for bit.
    """
    na, nb = len(DA), len(DB)
    d = np.zeros(nb)
    # point b adds the last axis, and each pair a < b the larger of
    # |DA[a, b] - DB| and |DA[b, a] - DB.T| along axes a and b
    for b in range(1, na):
        d = d[..., None]
        for a in range(b):
            shape = [1] * (b + 1)
            shape[a] = shape[b] = nb
            pair = np.maximum(np.abs(DA[a, b] - DB), np.abs(DA[b, a] - DB.T)).reshape(shape)
            d = np.maximum(d, pair) if a == 0 else np.maximum(d, pair, out=d)
    return d.ravel()


class _SortedBelow:
    """The indices of d below a bound in stable (value, index) order, sorted a chunk at a time.

    ``values`` holds those values sorted.  ``order`` holds the indices
    sorted so far: every index whose value is at most the last chunk's
    edge, ties included.  Each chunk at least doubles ``order``.
    """

    def __init__(self, d: np.ndarray, bound: float):
        self.d = d
        self.values = np.sort(d[d < bound])
        self.order = np.empty(0, dtype=np.intp)

    def count(self, bound: float) -> int:
        """How many values lie below bound."""
        return int(np.searchsorted(self.values, bound, side="left"))

    def sort(self, n: int) -> None:
        """Sort chunks until ``order`` holds n indices, or all of them."""
        while len(self.order) < min(n, len(self.values)):
            done = len(self.order)
            edge = self.values[min(max(n, 2 * done), len(self.values)) - 1]
            chunk = self.d <= edge
            if done:
                chunk &= self.d > self.values[done - 1]
            chunk = np.flatnonzero(chunk)
            chunk = chunk[np.argsort(self.d[chunk], kind="stable")]
            self.order = np.concatenate([self.order, chunk])


def _exhaustive_bound(
    X: FiniteMetricSpace, Y: FiniteMetricSpace
) -> tuple[float, CorrespondencePair]:
    """Smallest epsilon over all map pairs, and the first pair that reaches it.

    The order is (F, G), F and G each stable in order of distortion.  A
    pair replaces the best only when strictly smaller, however the blocks
    of at most ``PAIR_BLOCK`` round-trip entries fall.
    """
    nx, ny = len(X), len(Y)
    d1, d2 = _distortions(X.D, Y.D), _distortions(Y.D, X.D)
    # argmin takes the first of equal minima: the first pair in order
    best_pair = CorrespondencePair(_map_rows(d1.argmin(), nx, ny), _map_rows(d2.argmin(), ny, nx))
    best_eps = gh_epsilon(X, Y, best_pair)
    fs, gs = _SortedBelow(d1, best_eps), _SortedBelow(d2, best_eps)
    # round trips D[i, G[F[i]]] as flat indices, the point i along the first axis
    there = (np.arange(nx) * nx)[:, None, None]
    back = (np.arange(ny) * ny)[:, None, None]
    m = max(nx, ny)
    lo = 0
    while lo < fs.count(best_eps):
        ng = gs.count(best_eps)
        if ng == 0:
            break
        # several F against all ng G, or one F against the G in pieces as they are sorted
        rows = max(1, PAIR_BLOCK // (ng * m))
        cols = max(1, PAIR_BLOCK // (rows * m))
        fs.sort(lo + rows)
        F = _map_rows(fs.order[lo : lo + rows], nx, ny)
        g0 = 0
        while g0 < ng and gs.values[g0] < best_eps:
            gs.sort(g0 + 1 if rows == 1 else ng)
            G = _map_rows(gs.order[g0 : min(g0 + cols, ng)], ny, nx)
            d3 = X.D.take(there + G.T[F.T]).max(axis=0)  # (F, G)
            d4 = Y.D.take(back + F.T[G.T]).max(axis=0).T
            eps = np.maximum(
                np.maximum(fs.values[lo : lo + len(F), None], gs.values[None, g0 : g0 + len(G)]),
                np.maximum(d3, d4),
            )
            f, g = np.unravel_index(eps.argmin(), eps.shape)
            if eps[f, g] < best_eps:
                best_eps = float(eps[f, g])
                best_pair = CorrespondencePair(F[f].copy(), G[g].copy())
            g0 += len(G)
        lo += len(F)
    return best_eps, best_pair


def gh_upper_bound(X: FiniteMetricSpace, Y: FiniteMetricSpace, seed: int = 0) -> GHBound:
    """Minimize gh_epsilon over map pairs.

    Flagged "exact" when |X|*|Y| <= ``EXHAUSTIVE_LIMIT``: the first pair
    in distortion order with the smallest epsilon, whatever the seed.
    Otherwise the seeded local search's upper bound, flagged "heuristic".
    """
    if len(X) * len(Y) <= EXHAUSTIVE_LIMIT:
        eps, pair = _exhaustive_bound(X, Y)
        return GHBound(epsilon=eps, flag="exact", maps=pair)
    eps, pair = _heuristic_bound(X, Y, seed)
    return GHBound(epsilon=eps, flag="heuristic", maps=pair)


# ---------------------------------------------------------------------------
# warped torus collapsing
# ---------------------------------------------------------------------------


def _warped_torus_distances(ts: Sequence[float], n_base: int, n_fiber: int) -> np.ndarray:
    """Distance matrices of ``sample_warped_torus`` at each t, stacked (T, n, n).

    Bit for bit the minimum over all nine lattice shifts.  Not validated
    here; a test pins that they pass over a grid of (t, n_base, n_fiber).
    """
    if n_base < 1 or n_fiber < 1:
        raise ValueError("need at least one sample per direction")
    if not all(t >= 0 for t in ts):
        raise ValueError("t must be nonnegative")
    xs = np.arange(n_base) / n_base
    ys = np.arange(n_fiber) / n_fiber
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    px, py = gx.ravel(), gy.ravel()
    dx = px[:, None] - px[None, :]
    dy = py[:, None] - py[None, :]
    across = np.minimum(np.minimum((dx - 1.0) ** 2, dx**2), (dx + 1.0) ** 2)
    along = np.minimum(np.minimum((dy - 1.0) ** 2, dy**2), (dy + 1.0) ** 2)
    warp = np.array([math.exp(-t) for t in ts])[:, None, None]
    D = np.sqrt(across + warp * along)
    n = len(px)
    D[:, np.arange(n), np.arange(n)] = 0.0
    return D


def sample_warped_torus(t: float, n_base: int, n_fiber: int) -> FiniteMetricSpace:
    """Grid sample of the unit two-torus with fiber metric shrunk by exp(-t).

    The metric is dx^2 + exp(-t) dy^2 with unit periods; geodesics of a
    flat torus lift to straight lines, and since both side lengths are at
    most 1 the minimum over integer shifts in {-1, 0, 1}^2 is exact.
    """
    D = _warped_torus_distances([t], n_base, n_fiber)[0]
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
    #: distance defect at the largest sampled time (discretization floor)
    floor: float = 0.0
    #: fitted coefficient of the exp(-t/2) envelope above the floor
    rate_coefficient: float = 0.0

    def rows(self):
        return [[float(t), float(e), self.flag] for t, e in zip(self.ts, self.epsilons)]

    flag = "fibration-maps"
    header = ("t", "epsilon", "flag")


def collapse_series(ts: Sequence[float], n_base: int, n_fiber: int) -> CollapseSeries:
    """Certified distance bounds from the warped torus to its base circle.

    Uses the explicit projection/section maps at each time, so every value
    is a genuine witness of distance <= eps; the series decreases to a
    discretization floor as the fiber collapses.  All times are scored at
    once, bit for bit as ``gh_epsilon`` on each ``sample_warped_torus``.
    """
    ts = np.asarray(list(ts), dtype=float)
    if len(ts) == 0:
        raise ValueError("need at least one t value")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("t values must be strictly increasing")
    base = circle_space(n_base)
    maps = fibration_maps(n_base, n_fiber)
    eps = _epsilon(_warped_torus_distances(ts, n_base, n_fiber), base.D, maps.F, maps.G)
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
    return FiniteMetricSpace.of(["p", "q", "r"], [[0, a, b], [a, 0, c], [b, c, 0]])


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


# -- JSON --------------------------------------------------------------------


def space_to_dict(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "D": [float(v) for v in space.D.ravel()],
    }


def space_from_dict(data: dict) -> FiniteMetricSpace:
    labels = [string(label, "a point label") for label in array(data["labels"], "labels")]
    n = len(labels)
    D = np.array([number(v, "a distance") for v in array(data["D"], "D")]).reshape(n, n)
    return FiniteMetricSpace.of(labels, D)
