import itertools
import random
from fractions import Fraction as F

import pytest

import krflab.cohomology as C
from krflab.cohomology import ClassVector, models
from krflab.serialize import write_json
from oracles import restrict


CP1 = models.get_model("cp1")
TORUS1 = models.get_model("torus1")
GENUS2 = models.get_model("genus2")
P1XP1 = models.get_model("p1xp1")
BLOWUP = models.get_model("blowup-p2")
PRODUCT_EC = models.get_model("product-ec")
ALL = [CP1, TORUS1, GENUS2, P1XP1, BLOWUP, PRODUCT_EC]
# Complex 2-torus, presented on the ray spanned by a flat Kahler class.  The full (1,1)
# cohomology is 4-dimensional; this model tracks only the flow-invariant ray through the
# chosen flat metric (c1 = 0, so the flow never moves the class).
TORUS2_RAY = models.model_from_dict(
    {
        "schema": 1, "name": "torus2", "n": 2, "basis": ["flat"], "tensor": {"0,0": "1"},
        "c1twopi": ["0"], "cone": [{"label": "flat", "monomials": {"1": "1"}}], "catalogue": [],
        "kodaira": 0, "notes": "flat-class ray of a complex 2-torus; volume normalized to lambda^2",
    }
)


def cv(*vals):
    return ClassVector.of(vals)


def rand_fraction(rng, lo=-6, hi=6):
    return F(rng.randint(lo * 12, hi * 12), rng.choice([1, 2, 3, 4, 6, 12]))


def rand_kahler(rng, model):
    for _ in range(200):
        a = ClassVector.of([abs(rand_fraction(rng)) + F(1, 12) for _ in model.basis])
        if model.name == "blowup-p2":
            m1, m2 = a.coords
            a = cv(m1 + m2, -m2)  # fold into the 0 < -m2 < m1 wedge
        if C.is_kahler(model, a):
            return a
    raise AssertionError(f"could not sample a Kahler class on {model.name}")


# ---------------------------------------------------------------------------
# evolve_class
# ---------------------------------------------------------------------------


def test_evolve_sphere_matches_shrinking_area():
    lam = F(7, 3)
    assert C.evolve_class(CP1, cv(lam), F(1, 2)) == cv(lam - 1)
    assert C.evolve_class(CP1, cv(lam), 1) == cv(lam - 2)


def test_evolve_at_time_zero_is_identity():
    for model in ALL:
        a = cv(*([F(5, 7)] * len(model.basis)))
        assert C.evolve_class(model, a, 0) == a


def test_evolve_blowup_componentwise():
    # independent rational arithmetic on the raw tuples
    rng = random.Random(7)
    for _ in range(50):
        m1, m2, t = rand_fraction(rng), rand_fraction(rng), abs(rand_fraction(rng))
        got = C.evolve_class(BLOWUP, cv(m1, m2), t)
        assert got.coords == (m1 - 3 * t, m2 + t)


def test_evolve_dimension_mismatch():
    with pytest.raises(C.DimensionMismatchError):
        C.evolve_class(BLOWUP, cv(1), 1)


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------


def test_blowup_kahler_wedge():
    assert C.is_kahler(BLOWUP, cv(4, -1))
    assert not C.is_kahler(BLOWUP, cv(1, -2))  # -m2 > m1 fails
    assert not C.is_kahler(BLOWUP, cv(1, 1))  # -m2 > 0 fails
    assert not C.is_kahler(BLOWUP, cv(1, 0))  # boundary


def test_zero_class_is_nef_not_kahler():
    for model in ALL:
        zero = ClassVector.of([0] * len(model.basis))
        assert not C.is_kahler(model, zero)
        assert C.is_nef(model, zero)


def test_p1xp1_boundary_class():
    assert not C.is_kahler(P1XP1, cv(1, 0))
    assert C.is_nef(P1XP1, cv(1, 0))


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_blowup_volume_closed_form():
    rng = random.Random(11)
    for _ in range(50):
        m1, m2 = rand_fraction(rng), rand_fraction(rng)
        assert C.volume(BLOWUP, cv(m1, m2)) == m1 * m1 - m2 * m2


def test_torus_zero_class_volume():
    assert C.volume(TORUS1, cv(0)) == 0
    assert C.volume(TORUS2_RAY, cv(0)) == 0


def _brute_volume(model, a):
    # independent multilinear expansion straight off the stored tensor
    total = F(0)
    d = len(model.basis)
    for idx in itertools.product(range(d), repeat=model.n):
        term = model.tensor.value(idx)
        for i in idx:
            term *= a.coords[i]
        total += term
    return total


def test_p1xp1_volume_by_tensor_expansion():
    rng = random.Random(13)
    for _ in range(50):
        m1, m2 = rand_fraction(rng), rand_fraction(rng)
        a = cv(m1, m2)
        assert C.volume(P1XP1, a) == 2 * m1 * m2 == _brute_volume(P1XP1, a)


# ---------------------------------------------------------------------------
# maximal existence time
# ---------------------------------------------------------------------------


def test_sphere_time_half_area():
    rng = random.Random(17)
    for _ in range(20):
        lam = abs(rand_fraction(rng)) + F(1, 12)
        T = C.max_existence_time(CP1, cv(lam))
        assert T.finite and T.exact and T.value == lam / 2


def test_flat_torus_time_infinite():
    for lam in (F(1), F(7, 5), F(100)):
        T = C.max_existence_time(TORUS1, cv(lam))
        assert not T.finite and T.exact
    T = C.max_existence_time(GENUS2, cv(F(3, 2)))
    assert not T.finite


def test_p1xp1_min_rule():
    T = C.max_existence_time(P1XP1, cv(2, 6))
    assert T.value == 1
    rng = random.Random(19)
    for _ in range(20):
        l1 = abs(rand_fraction(rng)) + F(1, 12)
        l2 = abs(rand_fraction(rng)) + F(1, 12)
        T = C.max_existence_time(P1XP1, cv(l1, l2))
        assert T.exact and T.value == min(l1, l2) / 2


def test_blowup_time_both_branches():
    # scaled coordinates: T = min(-m2, (m1+m2)/2); unscaled area variables
    # l = 2*pi*m turn this into min(-l2/(2pi), (l1+l2)/(4pi))
    rng = random.Random(23)
    for _ in range(50):
        m2 = -(abs(rand_fraction(rng)) + F(1, 12))
        m1 = -m2 + abs(rand_fraction(rng)) + F(1, 12)
        T = C.max_existence_time(BLOWUP, cv(m1, m2))
        assert T.exact and T.value == min(-m2, (m1 + m2) / 2)


def test_blowup_example_binding_constraint():
    T = C.max_existence_time(BLOWUP, cv(4, -1))
    assert T.value == 1 and T.binding == "E"


def test_non_kahler_start_rejected():
    with pytest.raises(C.NotKahlerError) as err:
        C.max_existence_time(P1XP1, cv(1, -1))
    assert "b" in err.value.violated


# ---------------------------------------------------------------------------
# limiting class / noncollapsed / null locus
# ---------------------------------------------------------------------------


def test_blowup_noncollapsed_branch():
    # m1 > -3 m2: the exceptional-curve constraint binds first
    a0 = cv(4, -1)
    lim = C.limiting_class(BLOWUP, a0)
    assert lim == cv(1, 0)
    assert C.volume(BLOWUP, lim) == 1 == (4 + 3 * -1) ** 2
    assert C.is_noncollapsed(BLOWUP, a0)
    rng = random.Random(29)
    for _ in range(30):
        m2 = -(abs(rand_fraction(rng)) + F(1, 12))
        m1 = -3 * m2 + abs(rand_fraction(rng)) + F(1, 12)
        lim = C.limiting_class(BLOWUP, cv(m1, m2))
        assert C.volume(BLOWUP, lim) == (m1 + 3 * m2) ** 2 > 0


def test_blowup_collapsed_branch():
    # m1 <= -3 m2: volume factor hits zero first
    a0 = cv(2, -1)
    assert C.max_existence_time(BLOWUP, a0).value == F(1, 2)
    assert not C.is_noncollapsed(BLOWUP, a0)


def test_sphere_collapses_to_zero_class():
    lim = C.limiting_class(CP1, cv(F(9, 4)))
    assert lim == cv(0)
    assert not C.is_noncollapsed(CP1, cv(F(9, 4)))


def test_limiting_class_requires_finite_time():
    with pytest.raises(C.InfiniteTimeError):
        C.limiting_class(TORUS1, cv(1))


def test_null_locus_of_blowup_limit_is_exceptional_curve():
    lim = C.limiting_class(BLOWUP, cv(4, -1))
    locus = C.null_locus(BLOWUP, lim)
    assert locus.all_labels() == ("E",)
    assert not locus.whole_space
    assert locus.catalogue_relative


def test_null_locus_empty_for_kahler_classes():
    rng = random.Random(31)
    for model in ALL:
        a = rand_kahler(rng, model)
        assert C.null_locus(model, a).all_labels() == ()


def test_null_locus_degenerate_product_class():
    locus = C.null_locus(P1XP1, cv(F(5, 2), 0))
    assert locus.whole_space
    assert locus.labels == ("F",)
    assert locus.all_labels() == ("X", "F")


def test_null_locus_requires_nef():
    with pytest.raises(C.NotNefError):
        C.null_locus(BLOWUP, cv(1, 1))


# ---------------------------------------------------------------------------
# singularity seeds
# ---------------------------------------------------------------------------


def test_seed_on_blowup_recovers_target():
    for lam in (F(1, 3), F(2), F(7, 5)):
        seed = C.singularity_seed(BLOWUP, cv(1, 0), lam)
        assert seed == cv(1 + 3 * lam, -lam)
        T = C.max_existence_time(BLOWUP, seed)
        assert T.value == lam
        assert C.limiting_class(BLOWUP, seed) == cv(1, 0)


def test_seed_on_sphere_through_origin():
    lam = F(5, 4)
    seed = C.singularity_seed(CP1, cv(0), lam)
    assert seed == cv(2 * lam)
    assert C.max_existence_time(CP1, seed).value == lam
    assert C.limiting_class(CP1, seed) == cv(0)


def test_seed_fails_on_flat_torus():
    # c1 = 0, so no positive multiple can push the zero class into the cone
    with pytest.raises(C.DomainError):
        C.singularity_seed(TORUS1, cv(0), F(1))


def test_seed_rejects_kahler_target():
    with pytest.raises(C.DomainError):
        C.singularity_seed(BLOWUP, cv(4, -1), 1)


def test_seed_postcondition_failure_is_a_domain_error():
    # the "gap" constraint (x - y)^2 vanishes on the diagonal, so the cone is
    # not convex: the line from (3, 1) back to (0, 4) leaves it at t = 1, not 3
    pinched = C.ManifoldModel(
        name="pinched",
        n=2,
        basis=("x", "y"),
        tensor=C.IntersectionTensor(n=2, dim=2, entries={(0, 1): F(1)}),
        c1twopi=cv(1, -1),
        cone=C.ConeSpec(
            (
                ("x", C.PolyFunctional({(1, 0): F(1)})),
                ("y", C.PolyFunctional({(0, 1): F(1)})),
                ("gap", C.PolyFunctional({(2, 0): F(1), (1, 1): F(-2), (0, 2): F(1)})),
            )
        ),
        catalogue=(),
        kodaira=None,
    )
    assert C.max_existence_time(pinched, cv(3, 1)).value == 1
    with pytest.raises(C.DomainError, match="postcondition"):
        C.singularity_seed(pinched, cv(0, 4), 3)


# ---------------------------------------------------------------------------
# long-time regime
# ---------------------------------------------------------------------------


def test_regimes_of_builtins():
    assert C.long_time_regime(TORUS1).regime is C.Regime.CALABI_YAU
    assert C.long_time_regime(TORUS2_RAY).regime is C.Regime.CALABI_YAU
    assert C.long_time_regime(GENUS2).regime is C.Regime.AMPLE_CANONICAL
    rep = C.long_time_regime(PRODUCT_EC)
    assert rep.regime is C.Regime.INTERMEDIATE_KODAIRA
    assert rep.kodaira == 1 and rep.fiber_dimension == 1


def test_regime_rejects_finite_time_models():
    for model in (CP1, P1XP1, BLOWUP):
        with pytest.raises(C.FiniteTimeRegimeError):
            C.long_time_regime(model)


# ---------------------------------------------------------------------------
# invariants (seeded randomized property checks)
# ---------------------------------------------------------------------------


def test_cone_homogeneity():
    rng = random.Random(37)
    for model in ALL:
        for _ in range(50):
            a = ClassVector.of([rand_fraction(rng) for _ in model.basis])
            s = abs(rand_fraction(rng)) + F(1, 12)
            assert C.is_kahler(model, a) == C.is_kahler(model, a.scale(s))
            assert C.is_nef(model, a) == C.is_nef(model, a.scale(s))


def test_convexity_spot_check():
    rng = random.Random(41)
    for model in ALL:
        for _ in range(25):
            a, b = rand_kahler(rng, model), rand_kahler(rng, model)
            assert C.is_kahler(model, a + b)


def test_monotone_failure_along_flow_line():
    rng = random.Random(43)
    for model in (CP1, P1XP1, BLOWUP):
        for _ in range(25):
            a0 = rand_kahler(rng, model)
            T = C.max_existence_time(model, a0)
            assert T.finite and T.exact
            t1 = T.value * F(rng.randint(1, 9), 10)
            t2 = T.value * F(rng.randint(1, 9) + 10, 20)
            assert C.is_kahler(model, C.evolve_class(model, a0, min(t1, t2)))
            assert C.is_kahler(model, C.evolve_class(model, a0, max(t1, t2)))
            beyond = T.value * (1 + F(rng.randint(1, 100), 100))
            assert not C.is_kahler(model, C.evolve_class(model, a0, beyond))


def test_collapse_consistency():
    rng = random.Random(47)
    for model in (CP1, P1XP1, BLOWUP):
        for _ in range(25):
            a0 = rand_kahler(rng, model)
            lim = C.limiting_class(model, a0)
            assert (C.volume(model, lim) == 0) == (not C.is_noncollapsed(model, a0))


def test_nakai_agreement_on_blowup():
    # generic cone decision equals the closed-form wedge 0 < -m2 < m1
    rng = random.Random(53)
    for _ in range(10**4):
        m1 = F(rng.randint(-600, 600), rng.randint(1, 50))
        m2 = F(rng.randint(-600, 600), rng.randint(1, 50))
        expected = 0 < -m2 < m1
        assert C.is_kahler(BLOWUP, cv(m1, m2)) == expected


def test_immortality_iff_nef_anticanonical():
    rng = random.Random(59)
    for model in ALL:
        nef_minus_c1 = C.is_nef(model, model.c1twopi.scale(-1))
        for _ in range(10):
            a0 = rand_kahler(rng, model)
            T = C.max_existence_time(model, a0)
            assert (not T.finite) == nef_minus_c1


# ---------------------------------------------------------------------------
# serialization round-trip
# ---------------------------------------------------------------------------


def test_model_schema_round_trip(tmp_path):
    path = tmp_path / "catalogue.json"
    write_json(path, models.catalogue_to_dict(models.builtin_models()))
    loaded = models.load_catalogue(path)
    assert set(loaded) == set(models.builtin_models())
    for name, model in models.builtin_models().items():
        other = loaded[name]
        assert other == model


def test_builtin_models_are_their_table_entries_in_the_writers_form():
    for name, entry in models._TABLE.items():
        assert models.model_to_dict(models.get_model(name)) == {"schema": 1, "name": name, **entry}


def test_model_from_dict_rejects_bad_schema():
    data = models.model_to_dict(CP1)
    data["schema"] = 99
    with pytest.raises(ValueError):
        models.model_from_dict(data)


def test_blowup_catalogue_pairings_are_the_stored_facts():
    # the exceptional curve pairs to -1 with its own class and 0 with the
    # hyperplane pullback; the line pairs to +1 with the hyperplane class
    entries = {e.label: e for e in BLOWUP.catalogue}
    assert restrict(entries["E"], cv(1, 0)) == 0
    assert restrict(entries["E"], cv(0, 1)) == -1
    assert restrict(entries["H"], cv(1, 0)) == 1
    assert restrict(entries["H"], cv(0, 1)) == 0


def test_product_catalogue_pairings():
    entries = {e.label: e for e in P1XP1.catalogue}
    assert restrict(entries["H"], cv(2, 3)) == 2
    assert restrict(entries["F"], cv(2, 3)) == 3


def _hyperbolic_slice_model():
    # custom surface model whose volume form is m1^2 - 2*m2^2: flow lines can
    # exit the cone at irrational times
    tensor = C.IntersectionTensor(
        n=2, dim=2, entries={(0, 0): F(1), (1, 1): F(-2)}
    )
    cone = C.ConeSpec(
        (
            ("volume", C.volume_functional(tensor)),
            ("u", C.PolyFunctional({(1, 0): F(1)})),
        )
    )
    return C.ManifoldModel(
        name="hyperbolic-slice",
        n=2,
        basis=("u", "v"),
        tensor=tensor,
        c1twopi=ClassVector.of([0, -1]),
        cone=cone,
        catalogue=(),
        kodaira=None,
    )


def test_irrational_failure_time_is_certified_interval():
    model = _hyperbolic_slice_model()
    a0 = cv(2, 1)
    assert C.is_kahler(model, a0)
    T = C.max_existence_time(model, a0)
    assert T.finite and not T.exact
    lo, hi = T.interval
    import math

    root = math.sqrt(2.0) - 1.0  # 4 - 2(1+t)^2 = 0
    assert float(lo) <= root <= float(hi)
    assert hi - lo <= F(1, 10**12)
    assert T.binding == "volume"
    with pytest.raises(C.ApproximateTimeError):
        C.limiting_class(model, a0)


def test_p1xp1_collapsed_limit_class():
    a0 = cv(3, 1)
    assert C.max_existence_time(P1XP1, a0).value == F(1, 2)
    lim = C.limiting_class(P1XP1, a0)
    assert lim == cv(2, 0)
    assert C.volume(P1XP1, lim) == 0
    assert not C.is_noncollapsed(P1XP1, a0)
    locus = C.null_locus(P1XP1, lim)
    assert locus.whole_space and locus.labels == ("F",)
