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
    ClassVector, ConeSpec, IntersectionTensor, ManifoldModel, PolyFunctional, SubvarietyEntry,
    as_fraction,
)


#: the six built-in models, keyed by CLI name: catalogue entries as ``model_to_dict`` writes
#: them, less ``schema`` and ``name``; ``get_model`` reads them with ``model_from_dict``.  The
#: comment on a subvariety gives the integral over it of the class with coordinates (m1, m2)
_TABLE: dict[str, dict] = {
    # Compact Riemann surfaces: the single basis class is the area class, normalized to total
    # area 1, so volumes of lambda * (basis) read lambda.  Curvature conventions: the round
    # sphere metric has Ricci form twice itself, the flat torus zero, hyperbolic minus twice
    # itself, so 2*pi*c1 has coordinate 2, 0, resp. -2.
    "cp1": {
        "n": 1, "basis": ["fs"], "tensor": {"0": "1"}, "c1twopi": ["2"], "catalogue": [],
        "cone": [{"label": "fs", "monomials": {"1": "1"}}], "kodaira": "minus-infinity",
        "notes": "genus 0 curve; area class normalized to unit total area",
    },
    "torus1": {
        "n": 1, "basis": ["flat"], "tensor": {"0": "1"}, "c1twopi": ["0"], "catalogue": [],
        "cone": [{"label": "flat", "monomials": {"1": "1"}}], "kodaira": 0,
        "notes": "genus 1 curve; area class normalized to unit total area",
    },
    "genus2": {
        "n": 1, "basis": ["hyp"], "tensor": {"0": "1"}, "c1twopi": ["-2"], "catalogue": [],
        "cone": [{"label": "hyp", "monomials": {"1": "1"}}], "kodaira": 1,
        "notes": "genus 2 curve; area class normalized to unit total area",
    },
    # P1 x P1 with basis the two ruling classes a, b.  Intersections stored in units with
    # a.b = 1 (i.e. both rulings normalized to unit area), a^2 = b^2 = 0; a class is Kahler iff
    # both coordinates are positive.  2*pi*c1 = 2(a + b).
    "p1xp1": {
        "n": 2, "basis": ["a", "b"], "tensor": {"0,1": "1"}, "c1twopi": ["2", "2"],
        "cone": [
            {"label": "a", "monomials": {"1,0": "1"}},
            {"label": "b", "monomials": {"0,1": "1"}},
        ],
        "catalogue": [
            {"label": "H", "dim": 1, "pairing": {"0": "1"}},  # horizontal ruling P1 x {pt}: m1
            {"label": "F", "dim": 1, "pairing": {"1": "1"}},  # vertical ruling {pt} x P1: m2
        ],
        "kodaira": "minus-infinity",
        "notes": "ruling classes with unit pairing; volume of (m1, m2) is 2*m1*m2",
    },
    # P2 blown up at a point, in the 2*pi-scaled basis (h, e).  h is the pullback of the
    # hyperplane class scaled so h^2 = 1 and e is the class of the exceptional curve E with
    # e^2 = -1, h.e = 0; then 2*pi*c1 = 3h - e has rational coordinates.  Coordinate
    # dictionary: in the normalization where the hyperplane class integrates to 2*pi over a
    # line, a class l1*H + l2*E has coordinates (m1, m2) = (l1, l2)/(2*pi) here, the flow time
    # parameter is unchanged, and volumes here are 1/(2*pi)^2 times volumes there.
    # The Kahler cone is the Nakai-Moishezon region: positive volume and positive pairing with
    # both h and e, which reduces to 0 < -m2 < m1.
    "blowup-p2": {
        "n": 2, "basis": ["h", "e"], "tensor": {"0,0": "1", "1,1": "-1"},
        "c1twopi": ["3", "-1"],
        "cone": [
            {"label": "volume", "monomials": {"2,0": "1", "0,2": "-1"}},  # m1^2 - m2^2 > 0
            {"label": "H", "monomials": {"1,0": "1"}},  # pairing with h: m1 > 0
            {"label": "E", "monomials": {"0,1": "-1"}},  # pairing with e: -m2 > 0
        ],
        "catalogue": [
            {"label": "E", "dim": 1, "pairing": {"1": "-1"}},  # exceptional curve: -m2
            {"label": "H", "dim": 1, "pairing": {"0": "1"}},  # line missing the blown-up point: m1
        ],
        "kodaira": "minus-infinity", "notes": "2*pi-scaled basis; Kahler region 0 < -m2 < m1",
    },
    # Product of an elliptic curve E and a genus-2 curve C.  Basis (e, c): the factor area
    # classes, with unit pairing e.c = 1.  The hyperbolic factor carries Ricci form minus twice
    # itself, so 2*pi*c1 = -2c; the flow expands the base forever while the fiber class is frozen.
    "product-ec": {
        "n": 2, "basis": ["e", "c"], "tensor": {"0,1": "1"}, "c1twopi": ["0", "-2"],
        "cone": [
            {"label": "e", "monomials": {"1,0": "1"}},
            {"label": "c", "monomials": {"0,1": "1"}},
        ],
        "catalogue": [
            {"label": "E-fiber", "dim": 1, "pairing": {"0": "1"}},  # elliptic fiber E x {pt}: m1
            {"label": "C-section", "dim": 1, "pairing": {"1": "1"}},  # base section {pt} x C: m2
        ],
        "kodaira": 1, "notes": "elliptic x genus-2 product; intermediate kodaira dimension 1",
    },
}


#: the built-in models built so far, shared by every caller in the process;
#: a built-in kernel's memo is keyed by the class's (A, q), so sharing is safe
_BUILT: dict[str, ManifoldModel] = {}


def builtin_models() -> dict[str, ManifoldModel]:
    """The six catalogued models, keyed by CLI name; the same instances on every call."""
    return {name: get_model(name) for name in _TABLE}


def get_model(name: str) -> ManifoldModel:
    """The one built-in model of that name, built from its table entry on first use."""
    model = _BUILT.get(name)
    if model is None:
        if name not in _TABLE:
            raise KeyError(f"unknown model {name!r}; built-ins: {', '.join(sorted(_TABLE))}")
        entry = {"schema": SCHEMA_VERSION, "name": name, **_TABLE[name]}
        model = _BUILT[name] = model_from_dict(entry)
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
    models: dict[str, ManifoldModel] = {}
    for model in map(model_from_dict, payload["models"]):
        if models.setdefault(model.name, model) is not model:
            raise ValueError(f"the catalogue names model {model.name!r} twice")
    return models
