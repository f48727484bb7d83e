"""Check rows: the one verdict type of the ``verify`` gate and the flow report.

A row reads (check, expected, got, tolerance, pass).  A yes/no row
carries its verdict.  A numeric row carries a value and a bound, and its
got text, its verdict and its margin all come from those two: the margin
is how far the value sits inside its bound, so a row passes exactly when
its margin is >= 0 (> 0 for ``<``), and a non-finite value or margin
fails.  Rows print as one line each and encode as strict JSON.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from . import serialize as ser

_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass
class CheckRow:
    check: str
    expected: str
    got: str
    tolerance: str
    passed: bool
    value: Optional[float] = None  # None on yes/no rows
    bound: Optional[float] = None
    margin: Optional[float] = None  # how far the value sits inside its bound

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.check} | expected {self.expected} | "
            f"got {self.got} | tol {self.tolerance}"
        )

    def payload(self) -> dict:
        # JSON has no NaN or inf: a non-finite value, bound or margin is null
        return ser.strict_json(asdict(self))


@dataclass
class Checks:
    # keyword-only, so that a subclass's own fields lead its constructor
    rows: list[CheckRow] = field(default_factory=list, kw_only=True)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def holds(self, check: str, passed, expected, got: Optional[str] = None, tol="exact"):
        """Add a yes/no row; its got text defaults to the verdict's."""
        passed = bool(passed)  # a numpy verdict stays JSON-encodable
        got = str(passed) if got is None else got
        self.rows.append(CheckRow(check, str(expected), got, tol, passed))

    def within(
        self, check: str, value, op: str, bound: Union[str, float], expected: str,
        got: str = "{:.3e}", tol: Optional[str] = None,
    ):
        """Add a numeric row that passes iff ``value op bound`` and its margin is finite.

        A bound given as its literal (``"1e-4"``) is also the tolerance
        text; ``got`` is the template the value is printed with.
        """
        value, limit = float(value), float(bound)
        margin = value - limit if op == ">=" else limit - value
        passed = _COMPARE[op](value, limit) and math.isfinite(margin)
        self.rows.append(
            CheckRow(check, expected, got.format(value), tol or bound, passed, value, limit, margin)
        )
