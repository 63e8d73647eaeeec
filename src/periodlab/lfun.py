"""L-values of level-1 cusp forms.

Two engines:

* ``l_dirichlet`` - direct summation in the absolute-convergence region,
  with a certified tail bound from the series' coefficient-growth metadata.
  This is the oracle for non-critical values.
* ``l_completed`` - the incomplete-gamma series for the completed function
  Lambda(s) = (2 pi)^(-s) Gamma(s) L(s)
            = sum_n a(n) [ Gamma(s, 2 pi n) / (2 pi n)^s
                          + (-1)^(k/2) Gamma(k-s, 2 pi n) / (2 pi n)^(k-s) ],
  obtained by splitting int_0^oo f(iy) y^(s-1) dy at y = 1 and applying
  f(i/y) = (iy)^k f(iy).  It converges exponentially and is valid at every
  s, which makes it the engine for all critical arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import mpmath as mp

from .kernel import DomainError, PrecisionContext, TailTooLarge
from .qforms import QSeries, _certified_length, _check_tail, _coeff_model, _to_mpc
from .reports import _point_pair
from .special import upper_incomplete_gamma


class OutOfRegion(DomainError):
    """Argument outside the absolute-convergence region of the Dirichlet series."""


@dataclass(frozen=True)
class LValue:
    s: mp.mpc
    value: mp.mpc
    method: str
    est_error: mp.mpf

    def to_dict(self) -> dict:
        return {
            "s": _point_pair(self.s),
            "value": _point_pair(self.value),
            "method": self.method,
            "est_error": mp.nstr(self.est_error, 10),
        }


def dirichlet_truncation_length(tail_bound, s, tol) -> int:
    """Smallest N with the certified tail C N^(alpha-sigma+1)/(sigma-alpha-1) <= tol."""
    C, alpha = mp.mpf(tail_bound[0]), mp.mpf(tail_bound[1])
    sigma = mp.re(mp.mpc(s))
    margin = sigma - alpha - 1
    if margin <= 0:
        raise OutOfRegion("no certified truncation in this region")
    n = (C / (mp.mpf(tol) * margin)) ** (1 / margin)
    return int(mp.ceil(n)) + 1


def l_dirichlet(f: QSeries, s, ctx: PrecisionContext, tol=None) -> LValue:
    """sum a(n) n^(-s) for Re s > (k+1)/2 + 1, certified tail <= tol.

    Raises OutOfRegion outside the stated region and TailTooLarge when the
    stored coefficient window cannot certify the requested tolerance.
    """
    with mp.workdps(ctx.work_dps):
        s = mp.mpc(s)
        sigma = mp.re(s)
        if not sigma > (f.weight + 1) / 2 + 1:
            raise OutOfRegion(f"Re s = {sigma} not inside Re s > (k+1)/2 + 1")
        if f.tail_bound is None:
            raise DomainError("l_dirichlet needs a series with a polynomial tail bound")
        tol = mp.mpf(tol) if tol is not None else mp.mpf(ctx.tol_tight)
        C, alpha = mp.mpf(f.tail_bound[0]), mp.mpf(f.tail_bound[1])
        total = mp.mpc(0)
        for n in range(max(1, f.n_min), f.n_max + 1):
            c = f.coeff(n)
            if c != 0:
                total += _to_mpc(c) * mp.mpf(n) ** (-s)
        # sum_{n>N} C n^(alpha - sigma) <= C N^(alpha-sigma+1)/(sigma-alpha-1)
        N = mp.mpf(f.n_max)
        tail = C * N ** (alpha - sigma + 1) / (sigma - alpha - 1)
        if not tail <= tol * (1 + abs(total)):
            raise TailTooLarge(
                f"certified Dirichlet tail {mp.nstr(tail, 5)} needs more coefficients of {f.label}"
            )
        return LValue(s=s, value=total, method="dirichlet", est_error=tail)


def _lambda_and_tail(f: QSeries, s, ctx: PrecisionContext) -> Tuple[mp.mpc, float]:
    """Lambda(s) and the log of its certified tail.

    The number of terms is fixed before summing.  With sigma = Re s and
    x = 2 pi n > sigma - 1, |Gamma(s, x)| <= Gamma(sigma, x)
    <= x^(sigma-1) e^(-x) x / (x - sigma + 1), so once 2 pi n >= max(sigma,
    k - sigma) the n-th term is at most 2 |a(n)| e^(-2 pi n): f's
    coefficient model against |q| = e^(-2 pi).  Raises TailTooLarge when the
    window ends before that tail reaches 10^-digits (1 + |Lambda(s)|).
    """
    if not f.cuspidal:
        raise DomainError("completed L-series requires a cusp form")
    with mp.workdps(ctx.work_dps):
        s = mp.mpc(s)
        k = f.weight
        sign = (-1) ** (k // 2)
        sigma = float(mp.re(s))
        log_c, alpha, beta = _coeff_model(f)
        n_first = max(1, math.ceil(max(sigma, k - sigma) / (2 * math.pi)))
        N, log_tail = _certified_length((log_c + math.log(2), alpha, beta), -2 * math.pi, f.n_max, ctx, n_first)
        total = mp.mpc(0)
        for n in range(1, N + 1):
            c = f.coeff(n)
            if c == 0:
                continue
            x = 2 * mp.pi * n
            t1 = upper_incomplete_gamma(s, x, ctx) * x ** (-s)
            t2 = sign * upper_incomplete_gamma(k - s, x, ctx) * x ** (-(k - s))
            total += _to_mpc(c) * (t1 + t2)
        _check_tail(log_tail, total, ctx, f"Lambda({f.label})")
        return total, log_tail


def l_completed(f: QSeries, s, ctx: PrecisionContext) -> LValue:
    """L(s) at arbitrary s via the completed series (exponentially convergent).

    ``est_error`` is the certified tail of Lambda(s) carried over to L(s),
    and never less than ctx.eps().
    """
    with mp.workdps(ctx.work_dps):
        s = mp.mpc(s)
        lam, log_tail = _lambda_and_tail(f, s, ctx)
        factor, gamma = (2 * mp.pi) ** s, mp.gamma(s)
        value = lam * factor / gamma
        tail = mp.exp(log_tail) * abs(factor / gamma)
        return LValue(s=s, value=value, method="completed", est_error=max(ctx.eps(), tail))
