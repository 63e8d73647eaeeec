"""Relation reports: named identity checks with per-point residuals.

A verifier that checks its identities at a list of points builds its
reports through ``tabulate``: it hands over a row function, the tuple of its
identities' residuals at one point, and gets one report per identity, the
columns of the table of rows over its points.  A one-point check takes
``RelationReport.single``.

A report stores the evaluation points, the relative residual at each point,
the maximum residual, the tolerance it was judged against, and the headroom
log10(tolerance / max residual) in digits.  Residuals are relative to
scale = max(1, |LHS|, |RHS|) (``relative_residual``; for eigen-style
identities the operand magnitude is folded into the scale by the caller).  JSON
serialization keeps numbers as decimal strings at full precision, with a
fixed key order, so reports are byte-reproducible for a fixed configuration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import mpmath as mp

from . import __version__
from .kernel import DomainError

SCHEMA_VERSION = "periodlab-report-2"


def residual_scale(*values) -> mp.mpf:
    """max(1, |v| for v in values) - the denominator of relative residuals."""
    s = mp.mpf(1)
    for v in values:
        a = abs(v)
        if a > s:
            s = a
    return s


def relative_residual(lhs, rhs, *more) -> mp.mpf:
    """|lhs - rhs| / residual_scale(lhs, rhs, *more)."""
    return abs(lhs - rhs) / residual_scale(lhs, rhs, *more)


def _numstr(x, dps: int = 30) -> str:
    return mp.nstr(mp.mpf(x) if not isinstance(x, mp.mpc) else x, dps)


def _point_pair(z, dps: int = 30) -> list:
    """[re, im] of z as decimal strings with dps digits, at z's own precision."""
    return [mp.nstr(mp.re(z), dps), mp.nstr(mp.im(z), dps)]


@dataclass(frozen=True)
class RelationReport:
    """Outcome of checking one named identity at a list of points."""

    identity: str
    points: tuple
    residuals: tuple
    tolerance: mp.mpf

    @classmethod
    def from_residuals(cls, identity: str, points: Sequence, residuals: Sequence, tolerance) -> "RelationReport":
        return cls(
            identity=identity,
            points=tuple(mp.mpc(p) for p in points),
            residuals=tuple(mp.mpf(r) for r in residuals),
            tolerance=mp.mpf(tolerance),
        )

    @classmethod
    def single(cls, identity: str, point, residual, tolerance) -> "RelationReport":
        return cls.from_residuals(identity, [point], [residual], tolerance)

    @property
    def max_residual(self) -> mp.mpf:
        """The largest residual; NaN when any residual is NaN, which max() would skip."""
        if any(mp.isnan(r) for r in self.residuals):
            return mp.nan
        return max(self.residuals) if self.residuals else mp.mpf(0)

    @property
    def headroom_digits(self) -> mp.mpf:
        """log10(tolerance / max_residual), the digits to spare; inf for a zero residual."""
        if self.max_residual == 0:
            return mp.inf
        return mp.log10(self.tolerance / self.max_residual)

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "points": [_point_pair(p) for p in self.points],
            "residuals": [_numstr(r, 15) for r in self.residuals],
            "max_residual": _numstr(self.max_residual, 15),
            "tolerance": _numstr(self.tolerance, 15),
            "headroom_digits": _numstr(self.headroom_digits, 4),
            "pass": self.passed,
        }

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.identity}: max residual "
            f"{_numstr(self.max_residual, 8)} (tol {_numstr(self.tolerance, 5)}, "
            f"headroom {_numstr(self.headroom_digits, 4)} digits, {len(self.points)} points)"
        )


def tabulate(pts: Sequence, row: Callable, identities: Sequence[Tuple[str, mp.mpf]], dps: int) -> List[RelationReport]:
    """One report per (name, tolerance) of ``identities``, in order, from the residual rows at ``pts``.

    ``row(z)`` is the tuple of the identities' residuals at z, evaluated at
    ``dps`` digits for each point in turn.  Raises DomainError on an empty
    point list: an identity checked at no point would pass vacuously.
    """
    pts = list(pts)
    if not pts:
        raise DomainError(f"{identities[0][0]}: no points to check")
    with mp.workdps(dps):
        rows = [row(mp.mpc(z)) for z in pts]
    columns = zip(identities, zip(*rows), strict=True)
    return [RelationReport.from_residuals(name, pts, col, tol) for (name, tol), col in columns]


def reports_to_json(reports: Iterable[RelationReport], config: dict | None = None) -> str:
    """The report envelope {tool_version, schema, config, reports, all_pass}."""
    reports = list(reports)
    payload = {
        "tool_version": __version__,
        "schema": SCHEMA_VERSION,
        "config": config or {},
        "reports": [r.to_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2)


def reports_to_csv(reports: Iterable[RelationReport], path: str) -> None:
    """Flat residual table (one row per point) for plotting; the label column is kept, empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["identity", "label", "re", "im", "residual", "tolerance", "pass"])
        for r in reports:
            for p, res in zip(r.points, r.residuals):
                writer.writerow(
                    [
                        r.identity,
                        "",
                        _numstr(mp.re(p)),
                        _numstr(mp.im(p)),
                        _numstr(res, 15),
                        _numstr(r.tolerance, 15),
                        str(bool(res <= r.tolerance)),
                    ]
                )
