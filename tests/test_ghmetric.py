import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krflab.ghmetric as gh
from oracles import (
    all_maps,
    all_pair_epsilons,
    brute_force_gh_bound,
    candidate_scores,
    collapse_epsilons,
    exhaustive_loop,
    family_moves,
    gh_scores,
    map_distortions,
    pairwise_distortions,
    sequential_improve,
    warped_torus_distances,
)


def test_identity_maps_give_zero():
    X = gh.circle_space(5)
    pair = gh.CorrespondencePair(np.arange(5), np.arange(5))
    assert gh.gh_epsilon(X, X, pair) == 0.0


def test_two_points_to_one_point_defect_by_hand():
    X = gh.FiniteMetricSpace.of(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    Y = gh.FiniteMetricSpace.of(["*"], [[0.0]])
    # F constant; either choice of G: the distance distortion of the pair
    # at distance 1 is the binding defect
    for g in (0, 1):
        pair = gh.CorrespondencePair(np.array([0, 0]), np.array([g]))
        assert gh.gh_epsilon(X, Y, pair) == 1.0


def test_transposition_isometry_three_points():
    X = gh.FiniteMetricSpace.of(
        ["p", "q", "r"], [[0, 1, 1], [1, 0, 0.5], [1, 0.5, 0]]
    )
    pair = gh.CorrespondencePair(np.array([0, 2, 1]), np.array([0, 2, 1]))
    assert gh.gh_epsilon(X, X, pair) == 0.0


def test_epsilon_rejects_bad_maps():
    X = gh.circle_space(3)
    Y = gh.circle_space(4)
    with pytest.raises(ValueError):
        gh.gh_epsilon(X, Y, gh.CorrespondencePair(np.array([0, 1]), np.zeros(4, int)))
    with pytest.raises(ValueError):
        gh.gh_epsilon(X, Y, gh.CorrespondencePair(np.array([0, 1, 9]), np.zeros(4, int)))


def test_label_permutation_invariance():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(5, 2))
    D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    X = gh.FiniteMetricSpace.of([f"{i}" for i in range(5)], D)
    perm = rng.permutation(5)
    Xp = gh.FiniteMetricSpace.of(
        [f"{i}" for i in range(5)], D[np.ix_(perm, perm)]
    )
    F = np.argsort(perm)  # x in X -> position of x in Xp
    pair = gh.CorrespondencePair(F, perm)
    assert gh.gh_epsilon(X, Xp, pair) < 1e-15


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_exhaustive_identical_spaces():
    for name, space in gh.catalogue().items():
        bound = gh.gh_upper_bound(space, space)
        assert bound.exact, name
        assert bound.epsilon == 0.0, name


def test_exhaustive_matches_brute_force_oracle():
    X = gh.FiniteMetricSpace.of(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    Y = gh.FiniteMetricSpace.of(["*"], [[0.0]])
    bound = gh.gh_upper_bound(X, Y)
    assert bound.exact
    assert bound.epsilon == brute_force_gh_bound(X, Y) == 1.0


def test_exhaustive_brute_force_on_random_small_spaces():
    rng = np.random.default_rng(23)
    for _ in range(4):
        ptsx = rng.uniform(0, 1, size=(3, 2))
        ptsy = rng.uniform(0, 1, size=(3, 2))
        Dx = np.sqrt(((ptsx[:, None] - ptsx[None]) ** 2).sum(-1))
        Dy = np.sqrt(((ptsy[:, None] - ptsy[None]) ** 2).sum(-1))
        np.fill_diagonal(Dx, 0.0)
        np.fill_diagonal(Dy, 0.0)
        X = gh.FiniteMetricSpace.of(list("abc"), Dx)
        Y = gh.FiniteMetricSpace.of(list("xyz"), Dy)
        bound = gh.gh_upper_bound(X, Y)
        assert bound.exact
        assert abs(bound.epsilon - brute_force_gh_bound(X, Y)) < 1e-14


def test_exhaustive_symmetry_surrogate():
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 1, size=(4, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    X = gh.FiniteMetricSpace.of(list("abcd"), D)
    Y = gh.circle_space(4)
    fwd = gh.gh_upper_bound(X, Y).epsilon
    bwd = gh.gh_upper_bound(Y, X).epsilon
    assert abs(fwd - bwd) <= 1e-12


def test_heuristic_finds_rotation_isometry():
    # 8-point circle vs itself rotated: 64 map pairs > exhaustive limit
    X = gh.circle_space(8)
    shift = 3
    perm = (np.arange(8) + shift) % 8
    Y = gh.FiniteMetricSpace.of([f"r{i}" for i in range(8)], X.D[np.ix_(perm, perm)])
    bound = gh.gh_upper_bound(X, Y, seed=0)
    assert bound.flag == "heuristic"
    assert bound.epsilon <= 1e-12


def test_heuristic_deterministic_given_seed():
    X = gh.sample_warped_torus(1.0, 4, 3)
    Y = gh.circle_space(5)
    a = gh.gh_upper_bound(X, Y, seed=7)
    b = gh.gh_upper_bound(X, Y, seed=7)
    assert a.epsilon == b.epsilon
    assert (a.maps.F == b.maps.F).all() and (a.maps.G == b.maps.G).all()


@pytest.mark.parametrize("src, dst", [(6, 6), (4, 6), (6, 4), (1, 3), (3, 1), (0, 2)])
def test_all_maps_rows_follow_itertools_product(src, dst):
    # the exhaustive search's stable tie-breaks depend on this row order,
    # in the oracle's table and in the rows the search builds from indices
    expected = np.array(list(itertools.product(range(dst), repeat=src)), dtype=int)
    for rows in (all_maps(src, dst), gh._map_rows(np.arange(dst**src), src, dst)):
        assert rows.shape == expected.shape
        assert (rows == expected).all()


@pytest.mark.parametrize("na, nb", [(6, 6), (4, 6), (6, 4), (1, 3), (3, 1), (2, 5)])
def test_distortions_match_one_gather_per_point_pair(na, nb):
    # bit for bit: the same differences, and a max is exact in any order
    rng = np.random.default_rng(na * 10 + nb)
    DA, DB = _euclidean(rng, na).D, _euclidean(rng, nb).D
    want = map_distortions(DA, DB, all_maps(na, nb))
    assert gh._distortions(DA, DB).tobytes() == want.tobytes()


def test_exact_bound_reads_both_orientations_of_a_nearly_symmetric_space():
    # X is symmetric only within TRIANGLE_TOL: the exact search must report
    # the epsilon that gh_epsilon gives its own maps, to the bit
    rng = np.random.default_rng(12)
    for _ in range(200):
        X, Y = _euclidean(rng, 3), _euclidean(rng, 4)
        D = X.D + np.triu(np.full(X.D.shape, 9e-13), 1)
        X = gh.FiniteMetricSpace.of(list(X.labels), D)
        for A, B in ((X, Y), (Y, X)):
            bound = gh.gh_upper_bound(A, B)
            assert bound.exact
            assert bound.epsilon == gh.gh_epsilon(A, B, bound.maps)
            want = map_distortions(A.D, B.D, all_maps(len(A), len(B)))
            assert gh._distortions(A.D, B.D).tobytes() == want.tobytes()


def _euclidean(rng, n):
    pts = rng.uniform(0, 1, size=(n, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    np.fill_diagonal(D, 0.0)
    return gh.FiniteMetricSpace.of([f"{i}" for i in range(n)], D)


def _simplex(n):
    D = np.ones((n, n))
    np.fill_diagonal(D, 0.0)
    return gh.FiniteMetricSpace.of([f"{i}" for i in range(n)], D)


def _search_cases():
    rotation = (np.arange(8) + 3) % 8
    circle8 = gh.circle_space(8)
    rng = np.random.default_rng(41)
    return {
        # the gh-search workload's seed-8 heuristic pair, full of symmetric ties
        "torus 16 vs circle 4": (gh.sample_warped_torus(1.0925835231625027, 4, 4), gh.circle_space(4), 1921531423),
        "torus 12 vs circle 5": (gh.sample_warped_torus(1.0, 4, 3), gh.circle_space(5), 7),
        "rotated circle 8": (circle8, gh.FiniteMetricSpace.of(list("abcdefgh"), circle8.D[np.ix_(rotation, rotation)]), 0),
        "exhaustive 6 vs circle 6": (gh.sample_warped_torus(1.2, 2, 3), gh.circle_space(6), 3),
        # distances 0, 1/4, 1/2 and 1: every score is exact, so ties are exact
        "simplex 10 vs circle 4": (_simplex(10), gh.circle_space(4), 5),
        "euclidean 7 vs 6 (a)": (_euclidean(rng, 7), _euclidean(rng, 6), 11),
        "euclidean 7 vs 6 (b)": (_euclidean(rng, 7), _euclidean(rng, 6), 12),
    }


def test_candidate_scores_equal_single_candidate_scores():
    # the worst defect is exact; the soft score is summed in another order
    X, Y = gh.sample_warped_torus(1.3, 4, 3), _euclidean(np.random.default_rng(5), 9)
    rng = np.random.default_rng(6)

    def single(Fc, Gc):
        d1 = X.D - Y.D[np.ix_(Fc, Fc)]
        d2 = Y.D - X.D[np.ix_(Gc, Gc)]
        d3 = X.D[np.arange(len(X)), Gc[Fc]]
        d4 = Y.D[np.arange(len(Y)), Fc[Gc]]
        soft = (d1**2).sum() + (d2**2).sum() + (d3**2).sum() + (d4**2).sum()
        return gh.gh_epsilon(X, Y, gh.CorrespondencePair(Fc, Gc)), soft

    # every move of every row of two stacks of random pairs: a wrong order
    # shows in a few percent
    fwd, bwd = gh._Side.of(X.D, Y.D, True), gh._Side.of(Y.D, X.D, False)
    for rows in (3, 4):
        F = rng.integers(0, len(Y), size=(rows, len(X)))
        G = rng.integers(0, len(X), size=(rows, len(Y)))
        EF, EG = gh._block(X.D, Y.D, F), gh._block(Y.D, X.D, G)
        for x in range(len(X)):
            worst, soft = gh._moves(fwd, F, G, EF, gh._distortion(EG), x)
            assert worst.shape == soft.shape == (rows, len(Y))
            for s, c in itertools.product(range(rows), range(len(Y))):
                Fc = F[s].copy()
                Fc[x] = c
                want_worst, want_soft = single(Fc, G[s])
                assert worst[s, c] == want_worst
                assert soft[s, c] == pytest.approx(want_soft, rel=1e-13, abs=0.0)
        for y in range(len(Y)):
            worst, soft = gh._moves(bwd, G, F, EG, gh._distortion(EF), y)
            assert worst.shape == soft.shape == (rows, len(X))
            for s, c in itertools.product(range(rows), range(len(X))):
                Gc = G[s].copy()
                Gc[y] = c
                want_worst, want_soft = single(F[s], Gc)
                assert worst[s, c] == want_worst
                assert soft[s, c] == pytest.approx(want_soft, rel=1e-13, abs=0.0)


def test_moves_score_each_family_of_each_candidate():
    # the oracle that ``_moves`` equals bit for bit, checked family by
    # family: distances may be asymmetric within the tolerance, so that
    # row a and column a of a distortion differ; the maxima must still be exact
    rng = np.random.default_rng(8)
    DX, DY = _euclidean(rng, 6).D, _euclidean(rng, 5).D
    DX[np.triu_indices(6, 1)] += 9e-13
    F = rng.integers(0, 5, size=(3, 6))
    G = rng.integers(0, 6, size=(3, 5))
    for DA, DB, A, B in ((DX, DY, F, G), (DY, DX, G, F)):
        na, nb = len(DA), len(DB)
        block = gh._block(DA, DB, A)
        for a in range(na):
            families = family_moves(DA, DB, A, B, block, a)
            for s, c in itertools.product(range(3), range(nb)):
                Ac = A[s].copy()
                Ac[a] = c
                entries = (
                    np.abs(DA - DB[np.ix_(Ac, Ac)]),
                    DA[np.arange(na), B[s][Ac]],
                    DB[np.arange(nb), Ac[B[s]]],
                )
                for (worst, soft), v in zip(families, entries):
                    assert worst[s, c] == v.max()
                    assert soft[s, c] == pytest.approx(np.square(v).sum(), rel=1e-13, abs=0.0)


def _move_cases():
    rng = np.random.default_rng(8)
    DX, DY = _euclidean(rng, 6).D, _euclidean(rng, 5).D
    DX[np.triu_indices(6, 1)] += 9e-13
    return {
        "torus 12 vs euclidean 9": (gh.sample_warped_torus(1.3, 4, 3).D, _euclidean(rng, 9).D),
        "asymmetric euclidean 6 vs 5": (DX, DY),
        "simplex 10 vs circle 4": (_simplex(10).D, gh.circle_space(4).D),
    }


@pytest.mark.parametrize("case", list(_move_cases()))
def test_moves_equal_the_family_oracle_bit_for_bit(case):
    # an output comparison does not see a soft score summed in another
    # order, such as a G move reading its round trips in the F move's order
    DX, DY = _move_cases()[case]
    rng = np.random.default_rng(9)
    fwd, bwd = gh._Side.of(DX, DY, True), gh._Side.of(DY, DX, False)
    for rows in (1, 3, 4):
        F = rng.integers(0, len(DY), size=(rows, len(DX)))
        G = rng.integers(0, len(DX), size=(rows, len(DY)))
        EF, EG = gh._block(DX, DY, F), gh._block(DY, DX, G)
        fixed_g, fixed_f = gh._distortion(EG), gh._distortion(EF)
        for x in range(len(DX)):
            found = gh._moves(fwd, F, G, EF, fixed_g, x)
            want = candidate_scores(DX, DY, F, G, fixed_g, EF, x=x)
            assert all(np.array_equal(v, w) for v, w in zip(found, want))
        for y in range(len(DY)):
            found = gh._moves(bwd, G, F, EG, fixed_f, y)
            want = candidate_scores(DX, DY, F, G, fixed_f, EG, y=y)
            assert all(np.array_equal(v, w) for v, w in zip(found, want))


def _one_by_one(X, Y, F, G, orders):
    """``_improve`` as the sequential oracle run on each start alone."""
    found = [sequential_improve(X, Y, f, g, orders) for f, g in zip(F, G)]
    return tuple(np.array(column) for column in zip(*found))


def _searches(X, Y, seed):
    bound = gh.gh_upper_bound(X, Y, seed=seed)
    found = [(bound.flag, bound.epsilon, bound.maps)]
    if bound.exact:  # otherwise gh_upper_bound was this very call
        eps, pair = gh._heuristic_bound(X, Y, seed)
        found.append(("heuristic", eps, pair))
    return found


def _accepted_moves(X, Y, seed):
    """(before, after) map pairs of every move the local search accepts.

    The search runs with each start alone, so the maps of consecutive
    candidate batches differ exactly by the moves accepted in between.
    """
    improve, scores = gh._improve, gh._moves
    states, moves = [], []

    def record(side, A, B, block, fixed, a):
        F, G = (A, B) if side.from_x else (B, A)
        states.append((F[0].copy(), G[0].copy()))
        return scores(side, A, B, block, fixed, a)

    def one_at_a_time(X, Y, F, G, orders):
        found = []
        for f, g in zip(F, G):
            states.clear()
            F1, G1, eps = improve(X, Y, f[None], g[None], orders)
            states.append((F1[0], G1[0]))
            moves.extend(
                (a, b)
                for a, b in zip(states, states[1:])
                if not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))
            )
            found.append((F1[0], G1[0], eps[0]))
        return tuple(np.array(column) for column in zip(*found))

    with mock.patch.object(gh, "_improve", one_at_a_time), mock.patch.object(
        gh, "_moves", record
    ):
        gh._heuristic_bound(X, Y, seed)
    return moves


@pytest.mark.parametrize("case", list(_search_cases()))
def test_batched_search_matches_sequential_oracle(case, monkeypatch):
    X, Y, seed = _search_cases()[case]
    batched = _searches(X, Y, seed)
    with monkeypatch.context() as patch:
        patch.setattr(gh, "_improve", _one_by_one)
        sequential = _searches(X, Y, seed)
    assert len(batched) == len(sequential)
    for (flag, eps, pair), (ref_flag, ref_eps, _) in zip(batched, sequential):
        assert flag == ref_flag
        assert eps.hex() == ref_eps.hex()
        assert eps == gh.gh_epsilon(X, Y, pair)
    # each accepted move changes one coordinate and strictly improves
    # (worst, soft), scored from scratch
    moves = _accepted_moves(X, Y, seed)
    assert moves
    for (F0, G0), (F1, G1) in moves:
        assert (F0 != F1).sum() + (G0 != G1).sum() == 1
        assert gh_scores(X, Y, F1, G1) < gh_scores(X, Y, F0, G0)


@pytest.mark.parametrize("case", list(_search_cases()))
def test_heuristic_bound_keeps_the_first_best_start_in_any_stacks(case, monkeypatch):
    # every start and the shared pass orders, recorded with no stop at epsilon 0
    X, Y, seed = _search_cases()[case]
    starts = []

    def record(X, Y, F, G, orders):
        starts.extend(zip(F, G))
        record.orders = orders
        return F, G, np.full(len(F), np.inf)

    with monkeypatch.context() as patch:
        patch.setattr(gh, "_improve", record)
        gh._heuristic_bound(X, Y, seed)
    assert len(starts) == min(len(X), 8) * min(len(Y), 8) + gh.RESTARTS
    # one start after another: keep each strictly better one, stop at zero
    best_eps, best = math.inf, None
    for F0, G0 in starts:
        F, G, eps = gh._improve(X, Y, F0[None], G0[None], record.orders)
        if eps[0] < best_eps:
            best_eps, best = eps[0], (F[0], G[0])
            if best_eps == 0.0:
                break
    start_block = max(len(X), len(Y)) ** 2
    for rows in (7, gh.BLOCK_FLOATS // start_block):
        monkeypatch.setattr(gh, "BLOCK_FLOATS", rows * start_block)
        eps, pair = gh._heuristic_bound(X, Y, seed)
        assert eps.hex() == best_eps.hex()
        assert np.array_equal(pair.F, best[0]) and np.array_equal(pair.G, best[1])


@pytest.mark.parametrize("case", list(_search_cases()))
def test_stacked_descent_rows_match_each_start_alone(case):
    # rows never mix, so where the starts are cut into stacks cannot matter
    X, Y, seed = _search_cases()[case]
    rng = np.random.default_rng(seed)
    F = rng.integers(0, len(Y), size=(9, len(X)))
    G = rng.integers(0, len(X), size=(9, len(Y)))
    F[0], G[0] = np.arange(len(X)) % len(Y), np.arange(len(Y)) % len(X)
    orders = [(rng.permutation(len(X)), rng.permutation(len(Y))) for _ in range(gh.PASSES)]
    Fs, Gs, eps = gh._improve(X, Y, F, G, orders)
    assert eps.shape == (9,)
    for s in range(9):
        F1, G1, eps1 = gh._improve(X, Y, F[s : s + 1], G[s : s + 1], orders)
        assert eps[s].hex() == eps1[0].hex()
        assert np.array_equal(Fs[s], F1[0]) and np.array_equal(Gs[s], G1[0])
        assert eps[s] == gh.gh_epsilon(X, Y, gh.CorrespondencePair(Fs[s], Gs[s]))



@pytest.mark.parametrize("case", list(_search_cases()))
def test_kept_distortion_blocks_match_a_fresh_gather(case, monkeypatch):
    # the local search keeps the distortion block of each live row through
    # its moves: every batch must read |DA - DB[A, A]| of the maps as they
    # stand, and the distortion of the map that stays fixed
    X, Y, seed = _search_cases()[case]
    moves, stacks = gh._moves, {}

    def check(side, A, B, block, fixed, a):
        fresh = np.abs(side.DA - side.DB[A[:, :, None], A[:, None, :]])
        assert np.array_equal(block, fresh)
        other = gh._distortion(np.abs(side.DB - side.DA[B[:, :, None], B[:, None, :]]))
        assert all(np.array_equal(v, w) for v, w in zip(fixed, other))
        stacks.setdefault(side.from_x, []).append(A.copy())
        return moves(side, A, B, block, fixed, a)

    monkeypatch.setattr(gh, "_moves", check)
    gh._heuristic_bound(X, Y, seed)
    # moves were accepted and read back on both sides
    for seen in stacks.values():
        assert any(
            a.shape == b.shape and not np.array_equal(a, b) for a, b in zip(seen, seen[1:])
        )
    assert len(stacks) == 2

def _exhaustive_cases():
    cases = {
        name: case
        for name, case in _search_cases().items()
        if len(case[0]) * len(case[1]) <= gh.EXHAUSTIVE_LIMIT
    }
    torus = gh.sample_warped_torus
    rng = np.random.default_rng(43)
    cases.update(
        {
            # the gh-search workload's second exact pair: no G beats the seed
            "torus 4 vs 6": (torus(1.1, 2, 2), torus(1.4, 3, 2), 17),
            "simplex 6 vs circle 6": (_simplex(6), gh.circle_space(6), 4),
            "point vs hexagon": (gh.catalogue()["point"], gh.circle_space(6), 2),
            "euclidean 4 vs 5": (_euclidean(rng, 4), _euclidean(rng, 5), 9),
            "euclidean 3 vs 3": (_euclidean(rng, 3), _euclidean(rng, 3), 10),
        }
    )
    return cases


def _assert_same_bound(found, want):
    (eps, pair), (ref_eps, ref_pair) = found, want
    assert eps.hex() == ref_eps.hex()
    assert np.array_equal(pair.F, ref_pair.F) and np.array_equal(pair.G, ref_pair.G)


@pytest.mark.parametrize("case", list(_exhaustive_cases()))
def test_exhaustive_blocks_match_the_loop_oracle(case, monkeypatch):
    X, Y, _ = _exhaustive_cases()[case]
    want = exhaustive_loop(X, Y)
    _assert_same_bound(gh._exhaustive_bound(X, Y), want)
    # a few pairs per block: one F against G in pieces, or a few F at once
    monkeypatch.setattr(gh, "PAIR_BLOCK", 5 * max(len(X), len(Y)))
    _assert_same_bound(gh._exhaustive_bound(X, Y), want)


@pytest.mark.parametrize("case", list(_exhaustive_cases()))
def test_exact_bound_does_not_depend_on_the_seed(case):
    X, Y, _ = _exhaustive_cases()[case]
    bounds = [gh.gh_upper_bound(X, Y, seed=seed) for seed in range(5)]
    assert all(bound.exact for bound in bounds)
    for bound in bounds[1:]:
        _assert_same_bound((bound.epsilon, bound.maps), (bounds[0].epsilon, bounds[0].maps))


def _first_best_pair(X, Y):
    """The first pair in (F, G) distortion order with the smallest epsilon, from every pair."""
    eps, Fs, Gs = all_pair_epsilons(X, Y)
    f, g = np.unravel_index(eps.argmin(), eps.shape)
    return float(eps[f, g]), gh.CorrespondencePair(Fs[f], Gs[g])


def _line(*points):
    pts = np.array(points, dtype=float)
    D = np.abs(pts[:, None] - pts[None])
    return gh.FiniteMetricSpace.of([f"{i}" for i in range(len(pts))], D)


@pytest.mark.parametrize(
    "X, Y",
    [
        (_line(0, 1), _line(1, 2, 0)),
        (_line(0, 3, 2), _line(0, 1)),
        (_line(0, 3, 2), _line(0, 0, 1, 1)),
    ],
)
def test_exhaustive_blocks_break_ties_like_the_loop(X, Y, monkeypatch):
    # the first pair in order is not the best, and several pairs tie at the
    # minimum: the search must find the first of them
    eps, _, _ = all_pair_epsilons(X, Y)
    assert eps.min() < eps[0, 0] and (eps == eps.min()).sum() > 1
    want = exhaustive_loop(X, Y)
    _assert_same_bound(want, _first_best_pair(X, Y))
    for block in (gh.PAIR_BLOCK, 3 * max(len(X), len(Y)), 1):
        monkeypatch.setattr(gh, "PAIR_BLOCK", block)
        _assert_same_bound(gh._exhaustive_bound(X, Y), want)


@st.composite
def _small_spaces(draw, n):
    kind = draw(st.sampled_from(["plane", "equal", "line"]))
    if kind == "plane":
        coordinates = st.tuples(st.floats(0, 1), st.floats(0, 1))
        pts = np.array(draw(st.lists(coordinates, min_size=n, max_size=n)))
        D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    elif kind == "equal":
        D = np.full((n, n), draw(st.floats(0.125, 4.0)))
    else:  # integer points on a line: many exact ties
        pts = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
        D = np.abs(pts[:, None] - pts[None])
    np.fill_diagonal(D, 0.0)
    return gh.FiniteMetricSpace.of([f"{i}" for i in range(n)], D)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exhaustive_blocks_match_the_loop_on_random_spaces(data):
    # at most 10**6 map pairs, so that even a first pair that prunes nothing
    # is quick (6 vs 6 has 46656**2; the cases above cover it)
    nx = data.draw(st.integers(1, 6), label="nx")
    sizes = [n for n in range(1, 7) if n**nx * nx**n <= 10**6]
    ny = data.draw(st.sampled_from(sizes), label="ny")
    X, Y = data.draw(_small_spaces(nx), label="X"), data.draw(_small_spaces(ny), label="Y")
    # small blocks, and the check against every pair, only where there are few pairs
    few = ny**nx * nx**ny <= 10_000
    blocks = [gh.PAIR_BLOCK, 3 * max(nx, ny)] if few else [gh.PAIR_BLOCK]
    block = data.draw(st.sampled_from(blocks), label="block")
    with mock.patch.object(gh, "PAIR_BLOCK", block):
        found = gh._exhaustive_bound(X, Y)
    _assert_same_bound(found, exhaustive_loop(X, Y))
    assert found[0] == gh.gh_epsilon(X, Y, found[1])
    if few:  # ties at the minimum go to the first pair in order
        _assert_same_bound(found, _first_best_pair(X, Y))



@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distortions_grown_point_by_point_match_the_full_grid(data):
    # a max is exact in any order, so the grid grown one point at a time is
    # the full grid to the bit, also where DA is symmetric only within the tolerance
    na, nb = data.draw(st.integers(1, 6), label="na"), data.draw(st.integers(1, 6), label="nb")
    A, B = data.draw(_small_spaces(na), label="A"), data.draw(_small_spaces(nb), label="B")
    if data.draw(st.booleans(), label="nearly symmetric"):
        A = gh.FiniteMetricSpace.of(list(A.labels), A.D + np.triu(np.full(A.D.shape, 9e-13), 1))
    assert np.array_equal(gh._distortions(A.D, B.D), pairwise_distortions(A.D, B.D))


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(0, 5), min_size=1, max_size=60),
    bound=st.integers(0, 6),
    reads=st.lists(st.integers(1, 70), max_size=6),
)
def test_sorted_below_is_a_prefix_of_the_stable_sort(values, bound, reads):
    # few distinct values: chunk edges fall inside runs of ties
    d = np.array(values, dtype=float)
    stream = gh._SortedBelow(d, bound)
    want = np.argsort(d, kind="stable")[: int((d < bound).sum())]
    assert np.array_equal(stream.values, d[want])
    for n in reads:
        stream.sort(n)
        assert len(stream.order) >= min(n, len(want))
        assert np.array_equal(stream.order, want[: len(stream.order)])


def test_exhaustive_sorts_few_of_the_maps_below_the_first_epsilon(monkeypatch):
    # the gh-search 6-vs-6 pair: the first pair's epsilon lets through nearly
    # every map, the final one few; the search must still find the loop's pair
    X, Y = gh.sample_warped_torus(1.2, 2, 3), gh.circle_space(6)
    init, streams = gh._SortedBelow.__init__, []

    def record(self, d, bound):
        init(self, d, bound)
        streams.append((self, d, bound))

    monkeypatch.setattr(gh._SortedBelow, "__init__", record)
    found = gh._exhaustive_bound(X, Y)
    _assert_same_bound(found, exhaustive_loop(X, Y))
    assert len(streams) == 2
    for stream, d, first in streams:
        assert first > 1.5 * found[0]
        assert len(stream.values) > 10_000
        assert len(stream.order) < len(stream.values) / 10
        assert np.array_equal(stream.order, np.argsort(d, kind="stable")[: len(stream.order)])


@pytest.mark.parametrize("block", [gh.PAIR_BLOCK, 5 * 6, 1])
def test_exhaustive_chunks_take_every_tie_at_their_edge(block, monkeypatch):
    # simplex against circle: a handful of distortion values, so the chunks
    # the search asks for end inside runs of exact ties
    X, Y = _simplex(6), gh.circle_space(6)
    sort, crossed = gh._SortedBelow.sort, []

    def record(self, n):
        sort(self, n)
        k = len(self.order)
        assert k == len(self.values) or self.values[k] > self.values[k - 1]
        crossed.append(0 < n < k and self.values[n - 1] == self.values[n])

    monkeypatch.setattr(gh, "PAIR_BLOCK", block)
    monkeypatch.setattr(gh._SortedBelow, "sort", record)
    _assert_same_bound(gh._exhaustive_bound(X, Y), exhaustive_loop(X, Y))
    assert any(crossed)

# ---------------------------------------------------------------------------
# warped torus
# ---------------------------------------------------------------------------


def test_warped_distances_are_the_nine_shift_minimum():
    # rounded + and * are monotone on nonnegative values: the minimum of each
    # direction's term alone gives the nine-shift minimum to the bit
    ts = [0.0, 1e-3, 1.0, 30.0]
    for nb, nf in itertools.product((1, 2, 3, 4, 5, 8), repeat=2):
        want = warped_torus_distances(ts, nb, nf)
        assert np.array_equal(gh._warped_torus_distances(ts, nb, nf), want), (nb, nf)


def test_warped_distances_closed_form():
    X = gh.sample_warped_torus(0.0, 2, 2)  # points (0,0),(0,.5),(.5,0),(.5,.5)
    labels = list(X.labels)
    i = labels.index("(0,0)")
    j = labels.index("(0,1)")  # (0, 0.5)
    assert abs(X.D[i, j] - 0.5) < 1e-15
    t = 6.0
    Xt = gh.sample_warped_torus(t, 2, 2)
    assert abs(Xt.D[i, j] - math.exp(-t / 2) * 0.5) < 1e-15


def test_warped_wraparound_shift():
    X = gh.sample_warped_torus(0.0, 4, 1)  # base points 0, .25, .5, .75
    labels = list(X.labels)
    i = labels.index("(0,0)")
    j = labels.index("(3,0)")
    assert abs(X.D[i, j] - 0.25) < 1e-15  # through the wrap, not 0.75


def test_degenerate_fiber_is_base_sample():
    X = gh.sample_warped_torus(2.0, 6, 1)
    base = gh.circle_space(6)
    assert np.abs(X.D - base.D).max() < 1e-15


def test_collapse_series_monotone_and_bounded():
    ts = np.linspace(0.0, 10.0, 21)
    series = gh.collapse_series(ts, 8, 8)
    eps = series.epsilons
    assert (np.diff(eps) <= 1e-9).all()
    assert eps[0] <= math.exp(0.0) * 0.5 + 0.25  # fiber diameter + discretization
    assert eps[-1] <= math.exp(-5.0) * 0.5 + 0.25
    assert eps[-1] <= eps[0] / 10.0
    # the reported envelope really dominates the series
    bound = series.rate_coefficient * np.exp(-ts / 2.0) + series.floor
    assert (eps <= bound + 1e-12).all()


def test_collapse_series_trivial_fiber_hits_floor_only():
    series = gh.collapse_series([0.0, 1.0, 2.0], 8, 1)
    # the sample is already the base circle: only round-trip defects remain
    assert np.abs(series.epsilons).max() < 1e-15


@pytest.mark.parametrize("nb, nf", list(itertools.product((1, 2, 3, 8), repeat=2)))
def test_collapse_series_trusts_samples_that_pass_validation(nb, nf):
    # the series takes its samples unvalidated: each one passes the checks,
    # is the validated sample bit for bit, and scores like gh_epsilon on it
    ts = [0.0, 0.5, 3.0, 10.0]
    D = gh._warped_torus_distances(ts, nb, nf)
    assert D.shape == (len(ts), nb * nf, nb * nf)
    for t, Dt in zip(ts, D):
        gh.FiniteMetricSpace.of([f"{i}" for i in range(nb * nf)], Dt)
        assert Dt.tobytes() == gh.sample_warped_torus(t, nb, nf).D.tobytes()
    eps = gh.collapse_series(ts, nb, nf).epsilons
    assert [e.hex() for e in eps] == [e.hex() for e in collapse_epsilons(ts, nb, nf)]


@pytest.mark.parametrize("ts", [[0.0, math.nan], [-1.0, 0.0]])
def test_collapse_series_rejects_times_without_a_sample(ts):
    with pytest.raises(ValueError, match="nonnegative"):
        gh.collapse_series(ts, 2, 2)


def test_space_json_round_trip():
    X = gh.sample_warped_torus(1.5, 3, 2)
    data = gh.space_to_dict(X)
    Y = gh.space_from_dict(data)
    assert Y.labels == X.labels
    assert np.abs(Y.D - X.D).max() == 0.0


def test_space_validation():
    with pytest.raises(ValueError):
        gh.FiniteMetricSpace.of(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValueError):
        gh.FiniteMetricSpace.of(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]])  # negative
    with pytest.raises(ValueError):
        gh.FiniteMetricSpace.of(
            ["a", "b", "c"],
            [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]],  # triangle fails
        )


@pytest.mark.parametrize("n", [128, 129, 300])
def test_space_checks_triangle_inequality_at_every_size(n):
    D = _simplex(n).D
    # d(0, 1) = 5 > d(0, 2) + d(2, 1) = 2, and the same for the last pair
    for i, j in ((0, 1), (n - 2, n - 1)):
        bad = D.copy()
        bad[i, j] = bad[j, i] = 5.0
        with pytest.raises(ValueError, match="triangle"):
            gh.FiniteMetricSpace.of([f"{i}" for i in range(n)], bad)


def test_space_needs_a_point():
    with pytest.raises(ValueError, match="at least one point"):
        gh.FiniteMetricSpace.of([], np.zeros((0, 0)))


def test_space_rejects_non_finite_distances():
    nan = math.nan
    with pytest.raises(ValueError, match="finite"):
        gh.FiniteMetricSpace.of(["a", "b", "c"], [[0, nan, 1], [nan, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="finite"):
        gh.FiniteMetricSpace.of(["a", "b"], [[0, math.inf], [math.inf, 0]])
