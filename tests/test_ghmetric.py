import itertools
import math

import numpy as np
import pytest

import krflab.ghmetric as gh
from oracles import brute_force_gh_bound, sequential_improve


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
    # the exhaustive search's stable tie-breaks depend on this row order
    expected = np.array(list(itertools.product(range(dst), repeat=src)), dtype=int)
    rows = gh._all_maps(src, dst)
    assert rows.shape == expected.shape
    assert (rows == expected).all()


def _euclidean(rng, n):
    pts = rng.uniform(0, 1, size=(n, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
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
        "euclidean 7 vs 6 (a)": (_euclidean(rng, 7), _euclidean(rng, 6), 11),
        "euclidean 7 vs 6 (b)": (_euclidean(rng, 7), _euclidean(rng, 6), 12),
    }


def test_candidate_scores_equal_single_candidate_scores():
    # a score off in its last bit can flip a symmetric tie between two moves
    X, Y = gh.sample_warped_torus(1.3, 4, 3), _euclidean(np.random.default_rng(5), 9)
    rng = np.random.default_rng(6)

    def single(Fc, Gc):
        d1 = X.D - Y.D[np.ix_(Fc, Fc)]
        d2 = Y.D - X.D[np.ix_(Gc, Gc)]
        d3 = X.D[np.arange(len(X)), Gc[Fc]]
        d4 = Y.D[np.arange(len(Y)), Fc[Gc]]
        soft = (d1**2).sum() + (d2**2).sum() + (d3**2).sum() + (d4**2).sum()
        return gh.gh_epsilon(X, Y, gh.CorrespondencePair(Fc, Gc)), soft

    # every move of three random pairs: a wrong order shows in a few percent
    for _ in range(3):
        F = rng.integers(0, len(Y), size=len(X))
        G = rng.integers(0, len(X), size=len(Y))
        for x in range(len(X)):
            worst, soft = gh._candidate_scores(X, Y, F, G, gh._distortion(Y.D, X.D, G), x=x)
            for c in range(len(Y)):
                Fc = F.copy()
                Fc[x] = c
                assert (worst[c], soft[c]) == single(Fc, G)
        for y in range(len(Y)):
            worst, soft = gh._candidate_scores(X, Y, F, G, gh._distortion(X.D, Y.D, F), y=y)
            for c in range(len(X)):
                Gc = G.copy()
                Gc[y] = c
                assert (worst[c], soft[c]) == single(F, Gc)


def _searches(X, Y, seed):
    bound = gh.gh_upper_bound(X, Y, seed=seed)
    found = [(bound.flag, bound.epsilon, bound.maps)]
    if bound.exact:  # otherwise gh_upper_bound was this very call
        eps, pair = gh._heuristic_bound(X, Y, seed)
        found.append(("heuristic", eps, pair))
    return found


@pytest.mark.parametrize("case", list(_search_cases()))
def test_batched_search_matches_sequential_oracle(case, monkeypatch):
    X, Y, seed = _search_cases()[case]
    batched = _searches(X, Y, seed)
    monkeypatch.setattr(gh, "_improve", sequential_improve)
    sequential = _searches(X, Y, seed)
    assert len(batched) == len(sequential)
    for (flag, eps, pair), (ref_flag, ref_eps, ref_pair) in zip(batched, sequential):
        assert flag == ref_flag
        assert eps == ref_eps
        assert np.array_equal(pair.F, ref_pair.F)
        assert np.array_equal(pair.G, ref_pair.G)


# ---------------------------------------------------------------------------
# warped torus
# ---------------------------------------------------------------------------


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


def test_space_rejects_non_finite_distances():
    nan = math.nan
    with pytest.raises(ValueError, match="finite"):
        gh.FiniteMetricSpace.of(["a", "b", "c"], [[0, nan, 1], [nan, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="finite"):
        gh.FiniteMetricSpace.of(["a", "b"], [[0, math.inf], [math.inf, 0]])
