"""Seed functions, truncated Poincare sums, termwise descent identities.

Identities between full Poincare series reduce termwise because the xi and
Bol operators commute with the slash action; a "matched truncation" evaluates
both sides over the identical finite coset set, turning slowly convergent
series statements into exact pointwise checks at any truncation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence, Tuple

import mpmath as mp

from .eichler import GroupElement, IDENTITY, eichler_integral
from .kernel import DomainError, PrecisionContext, laplace_fd, xi_fd
from .mockcore import F_f2
from .qforms import QSeries, conjugate_form, bol, evaluate
from .reports import RelationReport, relative_residual, tabulate
from .special import cal_M, psi_seed


@dataclass(frozen=True)
class CosetTruncation:
    """Coset representatives for the translation subgroup, bottom rows bounded.

    One representative per coset with bottom row (c, d), gcd(c, d) = 1,
    1 <= c <= bound, |d| <= bound, plus the identity (c, d) = (0, 1).
    """

    bound: int
    representatives: Tuple[GroupElement, ...]

    @classmethod
    def build(cls, bound: int) -> "CosetTruncation":
        if bound < 0:
            raise ValueError("bound must be >= 0")
        reps = [IDENTITY]
        for c in range(1, bound + 1):
            for d in range(-bound, bound + 1):
                if gcd(c, d) != 1:
                    continue
                # a = d^(-1) mod c, so that a d - b c = 1
                a = pow(d, -1, c)
                reps.append(GroupElement(a, (a * d - 1) // c, c, d))
        return cls(bound=bound, representatives=tuple(reps))


def phi_seed(k: int, m: int, s, z, ctx: PrecisionContext) -> mp.mpc:
    """Seed cal_M(k, s, 4 pi m y) e(m x) of the weight-k series (k may be <= 0)."""
    if m == 0:
        raise DomainError("phi_seed requires m != 0")
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("phi_seed requires Im z > 0")
        return cal_M(k, s, 4 * mp.pi * m * mp.im(z), ctx) * mp.exp(2j * mp.pi * m * mp.re(z))


def truncated_poincare(
    series_weight: int,
    seed: Callable[[mp.mpc], mp.mpc],
    z,
    trunc: CosetTruncation,
    ctx: PrecisionContext,
) -> mp.mpc:
    """sum over representatives of (seed |_weight gamma)(z), fixed order."""
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        terms = [
            seed(g.apply(z)) * g.jfactor(z) ** (-series_weight)
            for g in trunc.representatives
        ]
        return mp.fsum(terms)


DESCENT_BOUND = 10  # bottom-row bound C of the matched coset truncation


def _verify_descent(name: str, tag: str, w: int, seed: Callable, target: Callable, pref,
                    pts: Sequence[complex], matched_pt: mp.mpc, ctx: PrecisionContext) -> list:
    """Reports ``name``_termwise[``tag``] and ``name``_matched[``tag``,C=..] of xi_w(seed) = pref target.

    The seed has weight w, the target weight 2 - w.  Termwise at each of
    ``pts``; matched at ``matched_pt``, where both sides are summed over one
    coset set (bottom rows bounded by DESCENT_BOUND), so the identity holds
    at every bound because xi commutes with the action.
    """
    row = lambda z: (relative_residual(xi_fd(seed, w, z, ctx), pref * target(z)),)
    termwise = tabulate(pts, row, [(f"{name}_termwise[{tag}]", ctx.tol_fd)], ctx.work_dps)
    with mp.workdps(ctx.work_dps):
        trunc = CosetTruncation.build(DESCENT_BOUND)
        big = lambda v: truncated_poincare(w, seed, v, trunc, ctx)
        lhs = xi_fd(big, w, matched_pt, ctx)
        res_matched = relative_residual(lhs, pref * truncated_poincare(2 - w, target, matched_pt, trunc, ctx))
    return termwise + [
        RelationReport.single(f"{name}_matched[{tag},C={DESCENT_BOUND}]", matched_pt, res_matched, ctx.tol_fd),
    ]


def verify_termwise_xi(k: int, m: int, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """xi_k of the s-derivative seed against the dual-weight Whittaker seed.

    Termwise: xi_k(psi_{-m})(z) = (4 pi m)^(1-k) phi^{(2-k)}_{m, k/2}(z);
    matched truncation at 2i.
    """
    if m <= 0:
        raise DomainError("index m must be positive")
    with mp.workdps(ctx.work_dps):
        pref = (4 * mp.pi * m) ** (1 - k)
    return _verify_descent(
        "xi_descent", f"k={k},m={m}", k,
        lambda w: psi_seed(k, -m, w, ctx),
        lambda w: phi_seed(2 - k, m, mp.mpf(k) / 2, w, ctx),
        pref, pts, mp.mpc(0, 2), ctx,
    )


def verify_termwise_dipoincare(k: int, m: int, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """xi_{2-k} of the dual-weight seed against the exponential seed.

    Termwise: xi_{2-k}(phi^{(2-k)}_{-m, k/2})(z) = (k-1)(4 pi m)^(k-1) q^m;
    matched truncation at 1.5i.
    """
    if m <= 0:
        raise DomainError("index m must be positive")
    with mp.workdps(ctx.work_dps):
        pref = (k - 1) * (4 * mp.pi * m) ** (k - 1)
    return _verify_descent(
        "bol_descent", f"k={k},m={m}", 2 - k,
        lambda w: phi_seed(2 - k, -m, mp.mpf(k) / 2, w, ctx),
        lambda w: mp.exp(2j * mp.pi * m * w),
        pref, pts, mp.mpc(0, "1.5"), ctx,
    )


def verify_laplace_eigenvalue(
    series_weight: int,
    m: int,
    s,
    pts: Sequence[complex],
    ctx: PrecisionContext,
) -> RelationReport:
    """Residual of Delta_w(phi) - (s(1-s) + (w^2 - 2w)/4) phi at pts.

    The residual is scaled by the seed magnitude as well: at the harmonic
    parameter the eigenvalue vanishes and the finite-difference error is
    proportional to |phi|, not to the (zero) right-hand side.
    """
    with mp.workdps(ctx.work_dps):
        s = mp.mpf(s)
        lam = s * (1 - s) + mp.mpf(series_weight ** 2 - 2 * series_weight) / 4
    seed = lambda w: phi_seed(series_weight, m, s, w, ctx)

    def row(z):
        lhs, val = laplace_fd(seed, series_weight, z, ctx), seed(z)
        return (relative_residual(lhs, lam * val, val),)

    name = f"laplace_eigenvalue[w={series_weight},m={m},s={mp.nstr(s, 6)}]"
    return tabulate(pts, row, [(name, ctx.tol_fd)], ctx.work_dps)[0]


def verify_bol_xi_avatar(f: QSeries, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """q-series avatar of the D^(k-1) o xi_k chain on the iterated integral.

    First family (finite differences): xi_k(F2)(z) equals the q-series
    (2i)^(1-k) conj(F(-conj z)) = -(2i)^(1-k) F^(c)(z) pointwise.  Second
    family: applying the termwise (k-1)-fold derivative to that series gives
    -(k-2)!/(4 pi)^(k-1) f^c, checked by evaluating both sides.
    """
    k = f.weight
    fc = conjugate_form(f)
    Fc = eichler_integral(fc, ctx)
    with mp.workdps(ctx.work_dps):
        pref = (2j) ** (1 - k)
        # D^(k-1) of the weight 2-k series (2i)^(1-k) F^c = -(2i)^(1-k) F_{f^c},
        # which carries F's tail bound; expect -(k-2)!/(4 pi)^(k-1) f^c
        chain = bol(Fc.series.scale(-pref))
        chain_pref = -mp.factorial(k - 2) / (4 * mp.pi) ** (k - 1)
    F2 = lambda w: F_f2(f, w, ctx, method="termwise")
    row = lambda z: (relative_residual(xi_fd(F2, k, z, ctx), -pref * Fc(z)),
                     relative_residual(evaluate(chain, z, ctx), chain_pref * evaluate(fc, z, ctx)))
    names = [(f"bol_xi_avatar_fd[{f.label}]", ctx.tol_fd), (f"bol_xi_avatar_chain[{f.label}]", ctx.tol_tight)]
    return tabulate(pts, row, names, ctx.work_dps)
