"""Command-line surface: L-values, period polynomials, verification suites.

Exit codes: 0 success (all identities pass), 1 at least one identity failed
(report still written) or ``periodpoly --check`` found the quadrature oracle
off the period polynomial by more than 10^-digits, 2 domain/configuration
error, 3 convergence failure.
Reports are byte-reproducible for a fixed configuration and version: numbers
are serialized as decimal strings, key order is fixed, and no timestamps are
embedded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

import mpmath as mp

from . import __version__
from .kernel import DomainError, NonConvergent, PrecisionContext, TailTooLarge
from .lfun import critical_lvalues, dirichlet_truncation_length, l_completed, l_dirichlet, lambda_first_term
from .qforms import (
    DIM_ONE_WEIGHTS,
    QSeries,
    UnsupportedWeight,
    ZERO_SPACE_WEIGHTS,
    _deligne_bound,
    certified_cusp_form,
    certified_window,
    cusp_form,
    weakly_holomorphic_m10,
)
from .reports import SCHEMA_VERSION, RelationReport, _point_pair, reports_to_csv, reports_to_json

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3

CONFIG_SCHEMA = "periodlab-config-1"

SUITES = ("superm", "wk2", "mockes", "perstar", "poincare", "special", "all")

_FORM_WEIGHTS = {"delta": 12, **{f"cusp{k}": k for k in DIM_ONE_WEIGHTS}}

# wh-10 has no a-priori tail bound: its coefficient bound is read off the
# stored window (qforms._wh_log_coeff_bound), so the window is fixed, not
# derived.  170 terms certify every perstar sum up to digits 100, where the
# longest takes 110.
WH10_TERMS = 170

# longest window `lvalue` builds, by either method: the build costs O(N^2)
# integer convolutions, seconds at 4000 terms but minutes at 20000
MAX_WINDOW_TERMS = 4000


@dataclass
class SuiteConfig:
    """Parsed, versioned configuration for verification runs."""

    digits: int = 50
    tol_tight: Optional[str] = None
    tol_fd: Optional[str] = None
    forms: List[str] = field(default_factory=lambda: ["delta", "cusp16"])

    @classmethod
    def from_file(cls, path: str) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or raw.get("schema") != CONFIG_SCHEMA:
            raise ValueError(f"config must carry schema = {CONFIG_SCHEMA}")
        cfg = cls()
        for key in ("digits", "tol_tight", "tol_fd", "forms"):
            if key in raw:
                setattr(cfg, key, raw[key])
        if type(cfg.digits) is not int:  # JSON true/false would pass isinstance(int)
            raise ValueError("digits must be an integer")
        for key in ("tol_tight", "tol_fd"):
            value = getattr(cfg, key)
            if value is not None and not _positive_number(value):
                raise ValueError(f"{key} must be a string holding a finite positive number")
        if not isinstance(cfg.forms, list) or not cfg.forms:
            raise ValueError("forms must be a non-empty list of form labels")
        for f in cfg.forms:
            if not isinstance(f, str) or f not in _FORM_WEIGHTS:
                raise ValueError(f"unknown form {f!r}")
        # distinct by weight: "cusp12" names the same form as "delta"
        if len({_FORM_WEIGHTS[f] for f in cfg.forms}) < len(cfg.forms):
            raise ValueError("forms must be a non-empty list of distinct forms")
        return cfg

    def context(self) -> PrecisionContext:
        tols = {key: mp.mpf(getattr(self, key)) for key in ("tol_tight", "tol_fd") if getattr(self, key) is not None}
        return PrecisionContext(digits=self.digits, **tols)

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, **asdict(self)}


def _positive_number(value) -> bool:
    """True for a string that mp.mpf parses to a finite positive number."""
    try:
        return isinstance(value, str) and mp.isfinite(mp.mpf(value)) and mp.mpf(value) > 0
    except ValueError:
        return False


def _form_weight(label: str) -> int:
    if label not in _FORM_WEIGHTS:
        raise UnsupportedWeight(f"unknown form {label!r}")
    return _FORM_WEIGHTS[label]


def cached_form(label: str, N: int) -> QSeries:
    """The form ``label`` on N terms; the constructors memoize in-process."""
    return cusp_form(_form_weight(label), N)


def holomorphic_form(label: str, ctx: PrecisionContext) -> QSeries:
    """The form ``label`` on the window ctx.digits needs (``qforms.certified_cusp_form``)."""
    return certified_cusp_form(_form_weight(label), ctx)


# ---------------------------------------------------------------------------
# point grids
# ---------------------------------------------------------------------------

def _grid(n: int, x0: str, dx: str, y0: str, dy: str) -> list:
    """n points x0 + dx t + i (y0 + dy t), t = j/(n-1) for j < n, the offsets given as decimal strings.

    The generic grid ("0.1", "0.8", "0.6", "1.8") fills 0.1 <= Re z <= 0.9,
    0.6 <= Im z <= 2.4; the perstar grid ("0.15", "0.4", "0.9", "0.5") keeps
    |z|^2 <= 2.5 Im z so S-leg base heights stay moderate.
    """
    x0, dx, y0, dy = (mp.mpf(v) for v in (x0, dx, y0, dy))
    ts = [mp.mpf(i) / max(n - 1, 1) for i in range(n)]
    return [mp.mpc(x0 + dx * t, y0 + dy * t) for t in ts]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_suite(name: str, cfg: SuiteConfig, ctx: PrecisionContext) -> List[RelationReport]:
    from .mockcore import verify_mock_es, verify_superm, verify_w_k2
    from .poincare import (
        verify_bol_xi_avatar,
        verify_laplace_eigenvalue,
        verify_termwise_dipoincare,
        verify_termwise_xi,
    )
    from .regint import verify_per_star
    from .special import whittaker_derivative_identity_check

    reports: List[RelationReport] = []
    forms = [holomorphic_form(label, ctx) for label in cfg.forms]
    pts10, pts5 = (_grid(n, "0.1", "0.8", "0.6", "1.8") for n in (10, 5))
    if name == "superm":
        for f in forms:
            reports.append(verify_superm(f, pts10, ctx))
    elif name == "wk2":
        for f in forms:
            reports.extend(verify_w_k2(f, pts5, ctx))
    elif name == "mockes":
        for f in forms:
            reports.extend(verify_mock_es(f, [mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc("-0.5", "1.5")], ctx))
    elif name == "perstar":
        M = weakly_holomorphic_m10(WH10_TERMS)
        reports.extend(verify_per_star(M, _grid(3, "0.15", "0.4", "0.9", "0.5"), ctx))
    elif name == "poincare":
        k = 12
        reports.extend(verify_termwise_xi(k, 1, [mp.mpc(0, 1), mp.mpc("0.3", "0.8")], ctx))
        reports.extend(verify_termwise_dipoincare(k, 1, [mp.mpc(0, 1), mp.mpc("0.25", "1.5")], ctx))
        reports.append(
            verify_laplace_eigenvalue(2 - k, 1, mp.mpf(6), [mp.mpc(0, 1)], ctx)
        )
        reports.extend(verify_bol_xi_avatar(holomorphic_form("delta", ctx), pts5, ctx))
    elif name == "special":
        for k in (4, 12):
            for y in ("0.5", "1", "2", "5"):
                reports.append(whittaker_derivative_identity_check(k, mp.mpf(y), ctx))
    else:
        raise ValueError(f"unknown suite {name!r}")
    return reports


def _write_report(reports: List[RelationReport], cfg: SuiteConfig, out: Optional[str], csv: Optional[str]) -> None:
    text = reports_to_json(reports, cfg.to_dict())
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if csv:
        reports_to_csv(reports, csv)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# what a command reports as an error payload; anything else is a bug and raises
_CAUGHT = (DomainError, NonConvergent, TailTooLarge, ValueError)


def _error_exit(exc: Exception, kind: str = "domain") -> int:
    """Print {"error", "kind"} for exc; exit 3 for a convergence failure, else 2."""
    if isinstance(exc, (NonConvergent, TailTooLarge)):
        kind = "convergence"
    print(json.dumps({"error": str(exc), "kind": kind}))
    return EXIT_CONVERGENCE if kind == "convergence" else EXIT_DOMAIN


def cmd_lvalue(args) -> int:
    try:
        ctx = PrecisionContext(digits=args.digits)
        k = _form_weight(args.form)
        with mp.workdps(ctx.work_dps):
            s = mp.mpf(args.s)
        if not math.isfinite(float(s)):
            raise DomainError(f"s = {args.s} is not a finite number")
        tol = mp.mpf("1e-12")
        if args.method == "dirichlet":
            N = max(dirichlet_truncation_length(_deligne_bound(k), s, tol), 32)
        else:
            N = certified_window(k, ctx) + lambda_first_term(k, float(s))
        if N > MAX_WINDOW_TERMS:
            raise TailTooLarge(f"the window at s = {args.s} needs {N} > {MAX_WINDOW_TERMS} terms")
        f = cached_form(args.form, N)
        lv = l_dirichlet(f, s, ctx, tol=tol) if args.method == "dirichlet" else l_completed(f, s, ctx)
        payload = {
            "schema": SCHEMA_VERSION,
            "form": args.form,
            "s": _point_pair(lv.s, ctx.digits),
            "value": _point_pair(lv.value, ctx.digits),
            "method": lv.method,
            "est_error": mp.nstr(lv.est_error, 10),
        }
        print(json.dumps(payload))
        return EXIT_OK
    except _CAUGHT as exc:
        return _error_exit(exc)


def cmd_periodpoly(args) -> int:
    from .eichler import period_polynomial, period_polynomial_quadrature

    try:
        ctx = PrecisionContext(digits=args.digits)
        if args.weight is not None and args.form is not None:
            raise ValueError("pass --form or --weight, not both")
        k = args.weight if args.weight is not None else _form_weight(args.form or "delta")
        if k in ZERO_SPACE_WEIGHTS:
            payload = {
                "schema": SCHEMA_VERSION,
                "form": None,
                "weight": k,
                "coefficients": [["0", "0"] for _ in range(max(k - 1, 0))],
                "critical_values": [],
                "note": "cusp space is zero; period polynomial vanishes",
            }
            print(json.dumps(payload))
            return EXIT_OK
        if k not in DIM_ONE_WEIGHTS:
            raise UnsupportedWeight(f"weight {k} not supported (dim > 1 or odd)")
        label = "delta" if k == 12 else f"cusp{k}"
        f = holomorphic_form(label, ctx)
        r = period_polynomial(f, ctx)
        payload = {
            "schema": SCHEMA_VERSION,
            "form": label,
            "weight": k,
            "coefficients": [_point_pair(c, ctx.digits) for c in r.coeffs],
            "critical_values": [
                {"s": s, "value": _point_pair(lv.value, ctx.digits)} for s, lv in enumerate(critical_lvalues(f, ctx), 1)
            ],
        }
        deviation = 0
        if args.check:
            with mp.workdps(ctx.work_dps):
                devs = []
                for z0 in (mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc(0, 2)):
                    oracle = period_polynomial_quadrature(f, z0, ctx)
                    devs.append(abs(oracle - r(z0)) / (1 + abs(oracle)))
                deviation = max(devs)
                payload["quadrature_max_deviation"] = mp.nstr(deviation, 10)
        print(json.dumps(payload))
        return EXIT_IDENTITY_FAILURE if deviation > mp.mpf(10) ** -ctx.digits else EXIT_OK
    except _CAUGHT as exc:
        return _error_exit(exc)


def cmd_verify(args) -> int:
    try:
        cfg = SuiteConfig.from_file(args.config) if args.config else SuiteConfig()
        if args.digits is not None:
            cfg.digits = args.digits
        if args.form:
            if args.form not in _FORM_WEIGHTS:
                raise ValueError(f"unknown form {args.form!r}")
            cfg.forms = [args.form]
        ctx = cfg.context()
    except (ValueError, OSError) as exc:
        return _error_exit(exc, "config")
    try:
        names = SUITES[:-1] if args.suite == "all" else (args.suite,)  # SUITES ends with "all"
        reports: List[RelationReport] = []
        for name in names:
            reports.extend(run_suite(name, cfg, ctx))
    except _CAUGHT as exc:
        return _error_exit(exc)
    _write_report(reports, cfg, args.out, args.csv)
    for r in reports:
        print(r.summary_line(), file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_IDENTITY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="periodlab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pl = sub.add_parser("lvalue", help="compute an L-value")
    pl.add_argument("--form", required=True)
    pl.add_argument("--s", required=True)
    pl.add_argument("--method", choices=("dirichlet", "completed"), default="completed")
    pl.add_argument("--digits", type=int, default=50)
    pl.set_defaults(func=cmd_lvalue)

    pp = sub.add_parser("periodpoly", help="emit period polynomial JSON")
    pp.add_argument("--form", default=None, help="default delta; not with --weight")
    pp.add_argument("--weight", type=int, default=None)
    pp.add_argument("--digits", type=int, default=50)
    pp.add_argument("--check", action="store_true", help="re-run the quadrature oracle; exit 1 if it is off by more than 10^-digits")
    pp.set_defaults(func=cmd_periodpoly)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--form", default=None)
    pv.add_argument("--digits", type=int, default=None)
    pv.add_argument("--config", default=None)
    pv.add_argument("--out", default=None)
    pv.add_argument("--csv", default=None)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
