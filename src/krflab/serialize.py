"""Class coordinates, deterministic CSV/JSON emission, and run manifests.

It owns the JSON format: every payload written leads with ``SCHEMA_VERSION``,
every file read must carry it, and ``integer``, ``number``, ``string``,
``array`` and ``mapping`` type a field.
Rationals travel as "p/q" strings end to end so the exact code paths are
never contaminated by floats: ``str`` writes a Fraction and
``cohomology.as_fraction`` reads one back, here and in the model catalogue.
Every CSV, on disk or on stdout, goes through one csv-module writer that
quotes a cell holding a comma; floats are written with shortest round-trip
repr, which makes re-runs byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

from . import __version__
from .cohomology import as_fraction

SCHEMA_VERSION = 1


def parse_class_coords(text: str) -> list[Fraction]:
    """Comma-separated rationals, e.g. '4,-1' or '7/2, 1/3'."""
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("empty class coordinates")
    return [as_fraction(p) for p in parts]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr is "np.float64(...)"
    return str(value)


def emit_csv(fh: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header and the rows as CSV on an open text stream."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(list(header))
    writer.writerows([_cell(v) for v in row] for row in rows)


def write_csv(path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        emit_csv(fh, header, rows)


def strict_json(value):
    """value with tuples as lists and non-finite floats as None, for strict JSON."""
    if isinstance(value, dict):
        return {k: strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def dumps(payload: dict) -> str:
    """The payload as indented JSON, its first key ``"schema": SCHEMA_VERSION``."""
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2)


def write_json(path: Union[str, Path], payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(payload) + "\n")


def check_schema(payload: dict, what: str) -> dict:
    """payload if it carries this schema version; any other is a ValueError."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported {what} schema: {payload.get('schema')!r}")
    return payload


def read_json(path: Union[str, Path], what: str) -> dict:
    """The JSON object in the file, of this schema version (``what`` names it)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} holds a JSON {type(payload).__name__}, not an object")
    return check_schema(payload, what)


def integer(x, what: str) -> int:
    """x if it is an int; a float (or a bool, or any other type) is a TypeError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"{what} must be an integer, got {x!r}")


def number(x, what: str) -> float:
    """x as a float if it is an int or a float; a bool, a string or a list is a TypeError."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise TypeError(f"{what} must be a number, got {x!r}")


def string(x, what: str) -> str:
    """x if it is a str; a number, a bool, a list or null is a TypeError."""
    if isinstance(x, str):
        return x
    raise TypeError(f"{what} must be a string, got {x!r}")


def array(x, what: str) -> list:
    """x if it is a JSON array; a string, a number, an object or null is a TypeError."""
    if isinstance(x, list):
        return x
    raise TypeError(f"{what} must be a JSON array, got {x!r}")


def mapping(x, what: str) -> dict:
    """x if it is a JSON object; an array, a string, a number or null is a TypeError."""
    if isinstance(x, dict):
        return x
    raise TypeError(f"{what} must be a JSON object, got {x!r}")


def write_manifest(
    out_dir: Union[str, Path],
    command: str,
    config_path: Optional[str] = None,
    seed: Optional[int] = None,
    extra: Optional[dict] = None,
) -> None:
    """Provenance record written next to every artifact a command emits."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config": config_path,
        "output_dir": str(out_dir),
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": _environment(),
    }
    if extra:
        manifest.update(extra)
    write_json(out_dir / "manifest.json", manifest)


def _environment() -> dict:
    """Python, numpy and scipy versions and core counts, keyed as in BENCH_krflab.json.

    The versions come from package metadata, so no command imports numpy for them.
    """
    import os
    import platform
    from importlib import metadata

    versions = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_count": os.cpu_count(),
    }
