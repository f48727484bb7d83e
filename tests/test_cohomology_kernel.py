"""The integer kernels against the Fraction-path oracle, answer by answer.

Every answer of the class engine is compared with ``==`` to the one the
oracle computes by evaluating each polynomial on ``Fraction`` coordinates
and multiplying each constraint out along the flow line.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krflab.cohomology as C
import oracles
from krflab.cohomology import models
from krflab.serialize import write_json
from test_cohomology import _hyperbolic_slice_model


def rational_model():
    # rational c1, tensor, constraints and pairings, and a cubic constraint
    tensor = C.IntersectionTensor(
        n=2, dim=2, entries={(0, 0): F(1, 3), (0, 1): F(1, 2), (1, 1): F(-1, 5)}
    )
    cone = C.ConeSpec(
        (
            ("quad", C.PolyFunctional({(2, 0): F(3, 7), (1, 1): F(1, 2), (0, 2): F(2, 9)})),
            ("lin", C.PolyFunctional({(1, 0): F(1, 2), (0, 1): F(1, 3)})),
            ("cubic", C.PolyFunctional({(3, 0): F(1, 2), (1, 2): F(-3, 4), (0, 3): F(1, 6)})),
            ("w", C.PolyFunctional({(0, 1): F(5, 4), (1, 0): F(7, 10)})),
        )
    )
    catalogue = (
        C.SubvarietyEntry("D", 1, {(0,): F(1, 2), (1,): F(-1, 3)}),
        C.SubvarietyEntry("S", 2, {(0, 1): F(2, 3), (1, 1): F(1, 4)}),
        C.SubvarietyEntry("P", 1, {(1,): F(3, 8)}),
    )
    return C.ManifoldModel(
        name="rational",
        n=2,
        basis=("x", "y"),
        tensor=tensor,
        c1twopi=C.ClassVector.of([F(1, 2), F(-1, 3)]),
        cone=cone,
        catalogue=catalogue,
        kodaira=None,
    )


MODELS = {
    **models.builtin_models(),
    "hyperbolic-slice": _hyperbolic_slice_model(),
    "rational": rational_model(),
}

coordinate = st.one_of(
    st.just(F(0)),
    st.integers(-40, 40).map(F),
    st.fractions(min_value=-40, max_value=40, max_denominator=10**6),
)


#: a Kahler class of each model; scaled and perturbed, it keeps most draws
#: inside the cone, where the time, limit and null-locus paths run
INTERIOR = {
    "cp1": (1,),
    "torus1": (1,),
    "genus2": (1,),
    "p1xp1": (1, 1),
    "blowup-p2": (3, -1),
    "product-ec": (1, 1),
    "hyperbolic-slice": (2, 0),
    "rational": (1, 10),
}


def classes(model):
    dim = len(model.basis)
    raw = st.lists(coordinate, min_size=dim, max_size=dim)
    near = st.tuples(
        st.fractions(min_value=F(1, 10), max_value=40, max_denominator=10**6),
        st.lists(
            st.fractions(-1, 1, max_denominator=10**6) | st.just(F(0)), min_size=dim, max_size=dim
        ),
    ).map(lambda sp: [sp[0] * k + p for k, p in zip(INTERIOR[model.name], sp[1])])
    return (raw | near).map(C.ClassVector.of)


def locus(result):
    return result.labels, result.whole_space


def engine_answers(model, a):
    out = {
        "kahler": C.is_kahler(model, a),
        "nef": C.is_nef(model, a),
        "volume": C.volume(model, a),
    }
    if out["nef"]:
        out["null_locus"] = locus(C.null_locus(model, a))
    if out["kahler"]:
        T = C.max_existence_time(model, a)
        out["T"] = (T.finite, T.exact, T.value, T.interval, T.binding)
        if T.finite and T.exact:
            lim = C.limiting_class(model, a)
            out["limit"] = lim
            out["limit_volume"] = C.volume(model, lim)
            out["limit_null_locus"] = locus(C.null_locus(model, lim))
    else:
        with pytest.raises(C.NotKahlerError) as err:
            C.max_existence_time(model, a)
        out["violated"] = err.value.violated
    return out


def oracle_answers(model, a):
    out = {
        "kahler": not oracles.violated(model, a, strict=True),
        "nef": not oracles.violated(model, a, strict=False),
        "volume": oracles.volume(model, a),
    }
    if out["nef"]:
        out["null_locus"] = locus(oracles.null_locus(model, a))
    if out["kahler"]:
        T = oracles.max_existence_time(model, a)
        out["T"] = (T.finite, T.exact, T.value, T.interval, T.binding)
        if T.finite and T.exact:
            lim = oracles.limiting_class(model, a, T.value)
            out["limit"] = lim
            out["limit_volume"] = oracles.volume(model, lim)
            out["limit_null_locus"] = locus(oracles.null_locus(model, lim))
    else:
        out["violated"] = oracles.violated(model, a, strict=True)
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_answer_equals_the_fraction_oracle(name):
    model = MODELS[name]

    @settings(max_examples=150, deadline=None)
    @given(classes(model))
    def check(a):
        assert engine_answers(model, a) == oracle_answers(model, a)

    check()


@pytest.mark.parametrize(
    "name, coords, exact",
    [
        ("hyperbolic-slice", ["2", "1"], False),
        ("hyperbolic-slice", ["1000003/1000000", "-1/7"], False),
        ("rational", ["-132/19", "191/3"], True),
        ("rational", ["-132/19", "190000001/2999997"], True),
        ("rational", ["49", "-1/14"], False),
        ("rational", ["49000001/1000000", "-1/14"], False),
        ("blowup-p2", ["4", "-1"], True),
        ("blowup-p2", ["1000001/999999", "-1/999998"], True),
    ],
)
def test_kernel_matches_the_oracle_on_chosen_classes(name, coords, exact):
    # both the interval path and the exact path, at denominators near 1e6
    model = MODELS[name]
    a = C.ClassVector.of(coords)
    assert C.is_kahler(model, a)
    assert C.max_existence_time(model, a).exact == exact
    assert engine_answers(model, a) == oracle_answers(model, a)


def test_interval_path_is_taken_on_the_hyperbolic_slice():
    T = C.max_existence_time(MODELS["hyperbolic-slice"], C.ClassVector.of([2, 1]))
    assert T.finite and not T.exact and T.binding == "volume"
    assert T == oracles.max_existence_time(MODELS["hyperbolic-slice"], C.ClassVector.of([2, 1]))


# -- the kernel belongs to the model instance ---------------------------------


def _cone_model(name, slope):
    # cone {x > 0, y > slope * x}, c1 = (1, 1): T depends on the cone
    return C.ManifoldModel(
        name=name,
        n=2,
        basis=("x", "y"),
        tensor=C.IntersectionTensor(n=2, dim=2, entries={(0, 1): F(1)}),
        c1twopi=C.ClassVector.of([1, 1]),
        cone=C.ConeSpec(
            (
                ("x", C.PolyFunctional({(1, 0): F(1)})),
                ("y", C.PolyFunctional({(0, 1): F(1), (1, 0): -F(slope)})),
            )
        ),
        catalogue=(),
        kodaira=None,
    )


def test_catalogue_model_with_a_builtin_name_answers_from_its_own_cone(tmp_path):
    builtin = models.get_model("blowup-p2")
    a = C.ClassVector.of([4, -1])
    assert C.max_existence_time(builtin, a).value == 1  # builds the built-in's kernel
    impostor = _cone_model("blowup-p2", -2)  # y > -2x: (4, -1) is Kahler here too
    path = tmp_path / "catalogue.json"
    write_json(path, models.catalogue_to_dict({"blowup-p2": impostor}))
    loaded = models.load_catalogue(path)["blowup-p2"]
    assert loaded.name == builtin.name and loaded != builtin
    T = C.max_existence_time(loaded, a)
    # y + 2x = 7 - 3t and x = 4 - t: the y constraint binds at 7/3
    assert (T.value, T.binding) == (F(7, 3), "y")
    assert T == oracles.max_existence_time(loaded, a)
    one_one = C.ClassVector.of([1, 1])
    assert C.is_kahler(loaded, one_one) and not C.is_kahler(builtin, one_one)
    assert C.max_existence_time(builtin, a).value == 1


def test_models_built_and_dropped_in_a_loop_answer_from_their_own_cone():
    # a kernel cached by id() or by name would answer from a dead model's
    # cone, since CPython reuses the id of a freed object
    a = C.ClassVector.of([4, 3])
    slopes = {0: F(-1, 2), 1: F(1, 2)}
    # y - slope*x along (4 - t, 3 - t) vanishes at 10/3 and at 2; x at 4
    want = {0: F(10, 3), 1: F(2)}
    for i in range(200):
        model = _cone_model("loop", slopes[i % 2])
        T = C.max_existence_time(model, a)
        assert T.value == want[i % 2], i
        assert C.is_kahler(model, C.ClassVector.of([4, -1])) == (i % 2 == 0)
        del model


# -- one integer form per class, one existence time per kernel ---------------


def time_answers(model, a, limit_first):
    """T, limiting class and null locus of the nef end, as the engine gives them."""
    if limit_first:  # the limiting class asks for T itself, with no T before it
        try:
            C.limiting_class(model, a)
        except C.InfiniteTimeError:
            pass
        except C.NotKahlerError as err:
            return ("not kahler", err.violated)
    try:
        T = C.max_existence_time(model, a)
    except C.NotKahlerError as err:
        return ("not kahler", err.violated)
    nef = C.limiting_class(model, a) if T.finite else a
    return (T.finite, T.exact, T.value, T.binding), nef, locus(C.null_locus(model, nef))


def oracle_time_answers(model, a):
    bad = oracles.violated(model, a, strict=True)
    if bad:
        return ("not kahler", bad)
    T = oracles.max_existence_time(model, a)
    nef = oracles.limiting_class(model, a, T.value) if T.finite else a
    return (T.finite, T.exact, T.value, T.binding), nef, locus(oracles.null_locus(model, nef))


BUILTINS = models.builtin_models()  # shared, so each kernel keeps its last answer


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interleaved_queries_answer_for_their_own_class_and_model(data):
    # classes of all six models queried as A, B, A, ...: the kernel's last
    # answer must never stand in for another class or another model
    names = data.draw(st.lists(st.sampled_from(sorted(BUILTINS)), min_size=2, max_size=5))
    pool = [(name, data.draw(classes(BUILTINS[name]))) for name in names]
    order = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=12))
    for i in order:
        name, a = pool[i]
        model = BUILTINS[name]
        limit_first = data.draw(st.booleans())
        assert time_answers(model, a, limit_first) == oracle_time_answers(model, a), (name, a)


def test_one_class_on_two_models_and_two_classes_on_one_model():
    cp1, torus1, blowup = BUILTINS["cp1"], BUILTINS["torus1"], BUILTINS["blowup-p2"]
    a = C.ClassVector.of([3])
    assert C.max_existence_time(cp1, a).value == F(3, 2)
    assert not C.max_existence_time(torus1, a).finite  # same (A, q), other kernel
    assert C.max_existence_time(cp1, C.ClassVector.of(["3/1"])).value == F(3, 2)
    b, c = C.ClassVector.of([4, -1]), C.ClassVector.of([7, -2])
    for x, want in ((b, F(1)), (c, F(2)), (b, F(1)), (c, F(2))):
        assert C.max_existence_time(blowup, x).value == want
        assert C.limiting_class(blowup, x) == oracles.limiting_class(blowup, x, want)
    with pytest.raises(C.NotKahlerError):  # a rejected class leaves no answer behind
        C.max_existence_time(blowup, C.ClassVector.of([1, 4]))
    assert C.max_existence_time(blowup, c).value == F(2)


def test_limiting_class_reads_the_time_just_computed(monkeypatch):
    model = models.get_model("blowup-p2")
    a = C.ClassVector.of([4, -1])
    T = C.max_existence_time(model, a)
    monkeypatch.setattr(C, "_existence_time", None)  # a second solve would raise
    assert C.max_existence_time(model, a) is T
    assert C.limiting_class(model, a) == C.ClassVector.of([1, 0])
    assert C.is_noncollapsed(model, a)


def test_class_vector_identity_ignores_its_integers():
    a, b = C.ClassVector.of(["1/2", "-3/4", 5]), C.ClassVector.of(["1/2", "-3/4", 5])
    before = (repr(a), hash(a), str(a), a == b)
    assert a.cleared == ((2, -3, 20), 4)
    assert b._cleared is None
    assert (repr(a), hash(a), str(a), a == b) == before
    assert repr(a) == repr(b) and hash(a) == hash(b) and {a: 1}[b] == 1
    assert "cleared" not in repr(a)
    assert C.ClassVector.of([]).cleared == ((), 1)


def _record_reads(monkeypatch) -> list:
    """The names that ``model_from_dict`` reads from now on, in a process with no model built."""
    read, names = models.model_from_dict, []
    monkeypatch.setattr(models, "_BUILT", {})  # nothing built yet, as in a fresh process
    monkeypatch.setattr(
        models, "model_from_dict", lambda data: names.append(data["name"]) or read(data)
    )
    return names


def test_get_model_builds_only_the_named_model(monkeypatch):
    built = _record_reads(monkeypatch)
    assert models.get_model("cp1").name == "cp1"
    assert built == ["cp1"]
    with pytest.raises(KeyError):
        models.get_model("p2")


def test_builtin_models_are_built_once_and_shared(monkeypatch):
    built = _record_reads(monkeypatch)
    cp1 = models.get_model("cp1")
    assert models.get_model("cp1") is cp1
    first, second = models.builtin_models(), models.builtin_models()
    assert list(first) == list(models._TABLE) and first is not second
    assert all(first[name] is second[name] is models.get_model(name) for name in first)
    first["cp1"] = None  # the caller's dict, not the shared models
    assert models.builtin_models()["cp1"] is cp1
    assert built == list(models._TABLE)


def test_catalogue_models_and_kernels_stay_per_instance(tmp_path):
    path = tmp_path / "catalogue.json"
    write_json(path, models.catalogue_to_dict(models.builtin_models()))
    first, second = models.load_catalogue(path), models.load_catalogue(path)
    for name, builtin in models.builtin_models().items():
        a, b = first[name], second[name]
        assert a == b == builtin and a is not b and a is not builtin
        assert len({id(a.kernel), id(b.kernel), id(builtin.kernel)}) == 3
