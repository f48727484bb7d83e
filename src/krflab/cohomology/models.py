"""Built-in manifold models and the JSON model-catalogue schema.

Normalization convention: every model uses a basis in which the
coordinates of 2*pi*c1 are rational, and intersection numbers are stored
in units that make them rational too.  Where that differs from the common
Fubini-Study normalization the dictionary is recorded in the model notes.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Union

from ..serialize import SCHEMA_VERSION, array, check_schema, integer, mapping, read_json, string
from . import (
    ClassVector,
    ConeSpec,
    IntersectionTensor,
    ManifoldModel,
    PolyFunctional,
    SubvarietyEntry,
    as_fraction,
    volume_functional,
)


def _linear(coeffs: dict[int, Fraction], dim: int) -> PolyFunctional:
    return PolyFunctional(
        {tuple(int(j == i) for j in range(dim)): c for i, c in coeffs.items()}
    )


def riemann_surface(genus: int) -> ManifoldModel:
    """Compact Riemann surface; the single basis class is the area class.

    The area class is normalized to total area 1, so volumes of
    lambda * (basis) read lambda.  Curvature conventions: the round sphere
    metric has Ricci form twice itself, the flat torus zero, hyperbolic
    minus twice itself, so 2*pi*c1 has coordinate 2, 0, resp. -2.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus == 0:
        name, c1, kod, basis = "cp1", 2, None, "fs"
    elif genus == 1:
        name, c1, kod, basis = "torus1", 0, 0, "flat"
    else:
        name, c1, kod, basis = f"genus{genus}", -2, 1, "hyp"
    tensor = IntersectionTensor(n=1, dim=1, entries={(0,): Fraction(1)})
    return ManifoldModel(
        name=name,
        n=1,
        basis=(basis,),
        tensor=tensor,
        c1twopi=ClassVector.of([c1]),
        cone=ConeSpec(((basis, _linear({0: Fraction(1)}, 1)),)),
        catalogue=(),
        kodaira=kod,
        notes=f"genus {genus} curve; area class normalized to unit total area",
    )


def torus(n: int) -> ManifoldModel:
    """Complex n-torus, presented on the ray spanned by a flat Kahler class.

    The full (1,1) cohomology is n^2-dimensional; this model tracks only
    the flow-invariant ray through the chosen flat metric (c1 = 0 so the
    flow never moves the class).
    """
    if n < 1:
        raise ValueError("complex dimension must be positive")
    tensor = IntersectionTensor(n=n, dim=1, entries={(0,) * n: Fraction(1)})
    return ManifoldModel(
        name=f"torus{n}",
        n=n,
        basis=("flat",),
        tensor=tensor,
        c1twopi=ClassVector.of([0]),
        cone=ConeSpec((("flat", _linear({0: Fraction(1)}, 1)),)),
        catalogue=(),
        kodaira=0,
        notes="flat-class ray of a complex n-torus; volume normalized to lambda^n",
    )


def product_p1_p1() -> ManifoldModel:
    """P1 x P1 with basis the two ruling classes a, b.

    Intersections stored in units with a.b = 1 (i.e. both rulings
    normalized to unit area), a^2 = b^2 = 0; a class is Kahler iff both
    coordinates are positive.  2*pi*c1 = 2(a + b).
    """
    tensor = IntersectionTensor(
        n=2, dim=2, entries={(0, 1): Fraction(1)}
    )
    catalogue = (
        # horizontal ruling P1 x {pt}: pairs with the first coordinate
        SubvarietyEntry("H", 1, {(0,): Fraction(1)}),
        # vertical ruling {pt} x P1: pairs with the second coordinate
        SubvarietyEntry("F", 1, {(1,): Fraction(1)}),
    )
    cone = ConeSpec(
        (
            ("a", _linear({0: Fraction(1)}, 2)),
            ("b", _linear({1: Fraction(1)}, 2)),
        )
    )
    return ManifoldModel(
        name="p1xp1",
        n=2,
        basis=("a", "b"),
        tensor=tensor,
        c1twopi=ClassVector.of([2, 2]),
        cone=cone,
        catalogue=catalogue,
        kodaira=None,
        notes="ruling classes with unit pairing; volume of (m1, m2) is 2*m1*m2",
    )


def blowup_p2() -> ManifoldModel:
    """P2 blown up at a point, in the 2*pi-scaled basis (h, e).

    h is the pullback of the hyperplane class scaled so h^2 = 1 and e is
    the class of the exceptional curve E with e^2 = -1, h.e = 0; then
    2*pi*c1 = 3h - e has rational coordinates.  Coordinate dictionary: in
    the normalization where the hyperplane class integrates to 2*pi over a
    line, a class l1*H + l2*E has coordinates (m1, m2) = (l1, l2)/(2*pi)
    here, the flow time parameter is unchanged, and volumes here are
    1/(2*pi)^2 times volumes there.

    The Kahler cone is the Nakai-Moishezon region: positive volume and
    positive pairing with both h and e, which reduces to 0 < -m2 < m1.
    """
    tensor = IntersectionTensor(
        n=2,
        dim=2,
        entries={(0, 0): Fraction(1), (1, 1): Fraction(-1)},
    )
    cone = ConeSpec(
        (
            ("volume", volume_functional(tensor)),  # m1^2 - m2^2 > 0
            ("H", _linear({0: Fraction(1)}, 2)),  # pairing with h: m1 > 0
            ("E", _linear({1: Fraction(-1)}, 2)),  # pairing with e: -m2 > 0
        )
    )
    catalogue = (
        # exceptional curve: integral of m1*h + m2*e is -m2
        SubvarietyEntry("E", 1, {(1,): Fraction(-1)}),
        # line avoiding the blown-up point: integral is m1
        SubvarietyEntry("H", 1, {(0,): Fraction(1)}),
    )
    return ManifoldModel(
        name="blowup-p2",
        n=2,
        basis=("h", "e"),
        tensor=tensor,
        c1twopi=ClassVector.of([3, -1]),
        cone=cone,
        catalogue=catalogue,
        kodaira=None,
        notes="2*pi-scaled basis; Kahler region 0 < -m2 < m1",
    )


def product_ec() -> ManifoldModel:
    """Product of an elliptic curve E and a genus-2 curve C.

    Basis (e, c): the two factor area classes with unit pairing e.c = 1.
    The hyperbolic factor carries Ricci form minus twice itself, so
    2*pi*c1 = -2c; the flow expands the base factor forever while the
    fiber class is frozen.
    """
    tensor = IntersectionTensor(n=2, dim=2, entries={(0, 1): Fraction(1)})
    cone = ConeSpec(
        (
            ("e", _linear({0: Fraction(1)}, 2)),
            ("c", _linear({1: Fraction(1)}, 2)),
        )
    )
    catalogue = (
        # elliptic fiber E x {pt}: pairs with the fiber coordinate
        SubvarietyEntry("E-fiber", 1, {(0,): Fraction(1)}),
        # base section {pt} x C: pairs with the base coordinate
        SubvarietyEntry("C-section", 1, {(1,): Fraction(1)}),
    )
    return ManifoldModel(
        name="product-ec",
        n=2,
        basis=("e", "c"),
        tensor=tensor,
        c1twopi=ClassVector.of([0, -2]),
        cone=cone,
        catalogue=catalogue,
        kodaira=1,
        notes="elliptic x genus-2 product; intermediate kodaira dimension 1",
    )


#: builders of the six catalogued models, keyed by CLI name
_BUILTINS = {
    "cp1": lambda: riemann_surface(0),
    "torus1": lambda: riemann_surface(1),
    "genus2": lambda: riemann_surface(2),
    "p1xp1": product_p1_p1,
    "blowup-p2": blowup_p2,
    "product-ec": product_ec,
}


#: the built-in models built so far, shared by every caller in the process;
#: a built-in kernel's memo is keyed by the class's (A, q), so sharing is safe
_BUILT: dict[str, ManifoldModel] = {}


def builtin_models() -> dict[str, ManifoldModel]:
    """The six catalogued models, keyed by CLI name; the same instances on every call."""
    return {name: get_model(name) for name in _BUILTINS}


def get_model(name: str) -> ManifoldModel:
    """The one built-in model of that name, built on first use."""
    model = _BUILT.get(name)
    if model is None:
        if name not in _BUILTINS:
            raise KeyError(
                f"unknown model {name!r}; built-ins: {', '.join(sorted(_BUILTINS))}"
            )
        model = _BUILT[name] = _BUILTINS[name]()
    return model


# ---------------------------------------------------------------------------
# serialization (schema 1)
# ---------------------------------------------------------------------------


def _encode(table: dict[tuple[int, ...], Fraction]) -> dict[str, str]:
    """An index- or exponent-keyed table as JSON: "i,j" keys, "p/q" values."""
    return {",".join(map(str, key)): str(v) for key, v in table.items()}


def _decode(data: dict, field: str) -> dict[tuple[int, ...], Fraction]:
    """data[field], a JSON object written by ``_encode``."""
    items = mapping(data[field], field).items()
    return {tuple(int(i) for i in key.split(",")): as_fraction(v) for key, v in items}


def model_to_dict(model: ManifoldModel) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "name": model.name,
        "n": model.n,
        "basis": list(model.basis),
        "tensor": _encode(model.tensor.entries),
        "c1twopi": [str(c) for c in model.c1twopi],
        "cone": [
            {"label": label, "monomials": _encode(f.monomials)}
            for label, f in model.cone.constraints
        ],
        "catalogue": [
            {"label": entry.label, "dim": entry.dim, "pairing": _encode(entry.pairing)}
            for entry in model.catalogue
        ],
        "kodaira": "minus-infinity" if model.kodaira is None else model.kodaira,
        "notes": model.notes,
    }


def model_from_dict(data: dict) -> ManifoldModel:
    check_schema(mapping(data, "a model"), "model")
    n = integer(data["n"], "n")
    basis = tuple(string(label, "basis label") for label in array(data["basis"], "basis"))
    kod = data["kodaira"]
    return ManifoldModel(
        name=string(data["name"], "model name"),
        n=n,
        basis=basis,
        tensor=IntersectionTensor(n=n, dim=len(basis), entries=_decode(data, "tensor")),
        c1twopi=ClassVector.of(array(data["c1twopi"], "c1twopi")),
        cone=ConeSpec(
            tuple(
                (string(item["label"], "cone label"), PolyFunctional(_decode(item, "monomials")))
                for item in array(data["cone"], "cone")
            )
        ),
        catalogue=tuple(
            SubvarietyEntry(
                label=string(item["label"], "subvariety label"),
                dim=integer(item["dim"], f"[{item['label']}] dim"),
                pairing=_decode(item, "pairing"),
            )
            for item in array(data["catalogue"], "catalogue")
        ),
        kodaira=None if kod == "minus-infinity" else integer(kod, "kodaira"),
        notes=string(data.get("notes", ""), "notes"),
    )


def catalogue_to_dict(models: dict[str, ManifoldModel]) -> dict:
    """The catalogue JSON of the models: what ``load_catalogue`` reads back."""
    return {"models": [model_to_dict(m) for m in models.values()]}


def load_catalogue(path: Union[str, Path]) -> dict[str, ManifoldModel]:
    payload = read_json(path, "catalogue")
    models = [model_from_dict(item) for item in payload["models"]]
    return {m.name: m for m in models}
