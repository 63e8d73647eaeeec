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
  s.

At the critical integers s = 1, ..., k-1 both orders are positive integers,
and Gamma(s, x) = (s-1)! e^(-x) sum_{j<s} x^j/j! (DLMF 8.4.8) is elementary.
``critical_lvalues`` sums the same series in that closed form: one pass over
the window gives the power sums T_m = sum_n a(n) e^(-2 pi n) (2 pi n)^(-m),
m = 1, ..., k-1, and then
  Lambda(s) = A(s) + (-1)^(k/2) A(k-s),  A(s) = (s-1)! sum_{m=1}^{s} T_m/(s-m)!,
which satisfies the functional equation Lambda(k-s) = (-1)^(k/2) Lambda(s)
bit for bit.  ``l_completed`` stays the engine at every other s and the
oracle for the critical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import mpmath as mp

from .kernel import DomainError, PrecisionContext, TailTooLarge
from .qforms import QSeries, _certified_length, _check_tail, _coeff_model, _to_mpc
from .special import upper_incomplete_gamma


class OutOfRegion(DomainError):
    """Argument outside the absolute-convergence region of the Dirichlet series."""


@dataclass(frozen=True)
class LValue:
    s: mp.mpc
    value: mp.mpc
    method: str
    est_error: mp.mpf


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


def lambda_first_term(k: int, sigma: float) -> int:
    """The first n of Lambda's term bound at Re s = sigma: 2 pi n >= max(sigma, k - sigma), n >= 1."""
    return max(1, math.ceil(max(sigma, k - sigma) / (2 * math.pi)))


def _lambda_and_tail(f: QSeries, s, ctx: PrecisionContext) -> Tuple[mp.mpc, float, mp.mpf]:
    """Lambda(s), the log of its certified tail, and the size of its terms.

    The number of terms is fixed before summing.  With sigma = Re s and
    x = 2 pi n > sigma - 1, |Gamma(s, x)| <= Gamma(sigma, x)
    <= x^(sigma-1) e^(-x) x / (x - sigma + 1), so once 2 pi n >= max(sigma,
    k - sigma) the n-th term is at most 2 |a(n)| e^(-2 pi n): f's coefficient
    model against |q| = e^(-2 pi).  Raises TailTooLarge when the window ends
    before that tail reaches 10^-digits (1 + |Lambda(s)|), and before summing
    when it ends short of that n.  Each incomplete gamma stops at ctx.eps()
    relative, so the size sum_n |a(n)| (|t1| + |t2|) of the two terms times
    ctx.eps() bounds the error of the sum itself, which can be far above
    ctx.eps() |Lambda(s)|.
    """
    if not f.cuspidal:
        raise DomainError("completed L-series requires a cusp form")
    with mp.workdps(ctx.work_dps):
        s = mp.mpc(s)
        k = f.weight
        sign = (-1) ** (k // 2)
        sigma = float(mp.re(s))
        N, log_tail = _certified_length(_lambda_model(f), -2 * math.pi, f.n_max, ctx, lambda_first_term(k, sigma))
        if log_tail == math.inf:
            raise TailTooLarge(f"Lambda({f.label}) at Re s = {sigma}: the term bound starts past n = {f.n_max}")
        total, size = mp.mpc(0), mp.mpf(0)
        for n in range(1, N + 1):
            c = f.coeff(n)
            if c == 0:
                continue
            c = _to_mpc(c)
            x = 2 * mp.pi * n
            t1 = upper_incomplete_gamma(s, x, ctx) * x ** (-s)
            t2 = sign * upper_incomplete_gamma(k - s, x, ctx) * x ** (-(k - s))
            total += c * (t1 + t2)
            size += abs(c) * (abs(t1) + abs(t2))
        _check_tail(log_tail, total, ctx, f"Lambda({f.label})")
        return total, log_tail, size


def _lambda_model(f: QSeries) -> Tuple[float, float, float]:
    """f's coefficient model doubled: the bound 2 |a(n)| on the n-th term over e^(-2 pi n)."""
    log_c, alpha, beta = _coeff_model(f)
    return log_c + math.log(2), alpha, beta


def l_completed(f: QSeries, s, ctx: PrecisionContext) -> LValue:
    """L(s) at arbitrary s via the completed series (exponentially convergent).

    ``est_error`` is the certified tail of Lambda(s) plus ctx.eps() times the
    size of its terms, carried over to L(s), and never less than ctx.eps().
    """
    with mp.workdps(ctx.work_dps):
        s = mp.mpc(s)
        lam, log_tail, size = _lambda_and_tail(f, s, ctx)
        # 1/Gamma is entire: L has its trivial zeros at s = 0, -1, -2, ...
        factor = (2 * mp.pi) ** s * mp.rgamma(s)
        value = lam * factor
        err = (mp.exp(log_tail) + ctx.eps() * size) * abs(factor)
        return LValue(s=s, value=value, method="completed", est_error=max(ctx.eps(), err))


def _critical_lambdas(f: QSeries, ctx: PrecisionContext) -> Tuple[list, float]:
    """[Lambda(1), ..., Lambda(k-1)] in closed form and the log of their certified tail.

    One window serves every s: ``lambda_first_term`` at sigma = 1,
    ceil((k-1)/(2 pi)), is the largest of its starts over s = 1, ..., k-1, so
    the term bound holds for all of them, and N is never shorter than that
    of any single s.  The power sums take q^n = e^(-2 pi n) as a running
    product and (2 pi n)^(-m) as running powers of 1/(2 pi n).  Raises
    TailTooLarge as ``_lambda_and_tail``.
    """
    if not f.cuspidal:
        raise DomainError("completed L-series requires a cusp form")
    k = f.weight
    with mp.workdps(ctx.work_dps):
        sign = (-1) ** (k // 2)
        N, log_tail = _certified_length(_lambda_model(f), -2 * math.pi, f.n_max, ctx, lambda_first_term(k, 1))
        two_pi, q = 2 * mp.pi, mp.exp(-2 * mp.pi)
        T = [mp.mpc(0)] * k  # T[m], m = 1, ..., k-1
        qn = mp.mpf(1)
        for n in range(1, N + 1):
            qn *= q
            c = f.coeff(n)
            if c == 0:
                continue
            w, inv = _to_mpc(c) * qn, 1 / (two_pi * n)
            for m in range(1, k):
                w *= inv
                T[m] += w
        fact = [mp.factorial(j) for j in range(k)]
        A = [None] + [fact[s - 1] * mp.fsum(T[m] / fact[s - m] for m in range(1, s + 1)) for s in range(1, k)]
        lams = [A[s] + sign * A[k - s] for s in range(1, k)]
        for s, lam in enumerate(lams, 1):
            _check_tail(log_tail, lam, ctx, f"Lambda({s}) of {f.label}")
        return lams, log_tail


def critical_lvalues(f: QSeries, ctx: PrecisionContext) -> Tuple[LValue, ...]:
    """L(1), ..., L(k-1) from the closed-form completed series.

    ``est_error`` follows ``l_completed``: the certified tail of Lambda(s)
    carried over to L(s) = (2 pi)^s Lambda(s)/(s-1)!, never less than
    ctx.eps().  The finite sums need no rounding term: they are elementary,
    with no series of their own to stop.  Memoized on f per context.
    """
    key = ("critical_lvalues", ctx)
    got = f._memo.get(key)
    if got is not None:
        return got
    lams, log_tail = _critical_lambdas(f, ctx)
    with mp.workdps(ctx.work_dps):
        tail, factor, out = mp.exp(log_tail), mp.mpf(1), []
        for s, lam in enumerate(lams, 1):
            factor *= 2 * mp.pi / max(s - 1, 1)  # (2 pi)^s / (s-1)!
            err = max(ctx.eps(), tail * factor)
            out.append(LValue(s=mp.mpc(s), value=lam * factor, method="critical", est_error=err))
    got = f._memo[key] = tuple(out)
    return got
