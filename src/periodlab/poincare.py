"""Seed functions, truncated Poincare sums, termwise descent identities.

Identities between full Poincare series reduce termwise because the xi and
Bol operators commute with the slash action; a "matched truncation" evaluates
both sides over the identical finite coset set, turning slowly convergent
series statements into exact pointwise checks at any truncation bound.

A seed is a value, ``special.Seed(k, m, s, ds)``.  ``truncated_poincare``
makes one pass over the cosets on fixed-point integers, and for a stencil
takes the four images' seed values from one confluent series per coset;
each descent hands ``xi_fd`` that evaluator as its stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence, Tuple

import mpmath as mp
from mpmath.libmp import from_int, fzero, mpf_add, mpf_div, to_fixed

from .eichler import GroupElement, IDENTITY, eichler_integral
from .kernel import DomainError, PrecisionContext, laplace_fd, xi_fd
from .mockcore import F_f2
from .qforms import QSeries, conjugate_form, bol, evaluate
from .reports import RelationReport, relative_residual, tabulate
from .special import _KUMMER_GUARD_BITS, Seed, _seed_kernel, _seed_points, seed_values


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
    """Seed cal_M(k, s, 4 pi m y) e(m x) of the weight-k series (k may be <= 0): ``Seed(k, m, s)`` at z."""
    return seed_values(Seed(k, m, s), [z], ctx)[0]


def _jfactor_power(re: int, im: int, n: int, P: int) -> tuple:
    """(Fr, Fi, e) with (Fr + i Fi) 2^e = ((re + i im) 2^-P)^n, the mantissas kept to about P bits."""
    e = -P
    if n < 0:
        # 1/(re + i im) = (re - i im)/(re^2 + im^2)
        N, sh = re * re + im * im, P + (abs(re) | abs(im)).bit_length()
        re, im, e, n = (re << sh) // N, (-im << sh) // N, P - sh, -n
    fr, fi, f = 1, 0, 0
    while True:
        if n & 1:
            fr, fi, f = fr * re - fi * im, fr * im + fi * re, f + e
            d = (abs(fr) | abs(fi)).bit_length() - P
            if d > 0:
                fr, fi, f = fr >> d, fi >> d, f + d
        n >>= 1
        if not n:
            return fr, fi, f
        re, im, e = re * re - im * im, 2 * re * im, 2 * e
        d = (abs(re) | abs(im)).bit_length() - P
        if d > 0:
            re, im, e = re >> d, im >> d, e + d


def truncated_poincare(seed: Seed, z, trunc: CosetTruncation, ctx: PrecisionContext):
    """sum over representatives of (seed |_k gamma)(z), k = seed.k, in a fixed order.

    ``z`` is one point, or a list or tuple of points (a stencil), which
    returns the list of their sums.  The points are held as integers at the
    scale 2^P, P the working precision plus guard bits.  Per coset, with
    w = x + i y, c w + d = (c x + d) + i c y is exact, and
    Im gamma w = y / |c w + d|^2 and Re gamma w = ((a x + b)(c x + d) + a c y^2) / |c w + d|^2
    take one division each.  The seed takes every point's image in one
    cluster call (``special._seed_kernel``: one confluent series, Taylor-summed
    to each image), which also takes the phase e(m Re gamma w) and
    j(gamma, w)^(-k) per point.  The sums keep P bits, as the seed's values
    do, for the stencils of ``xi_fd``.
    """
    many = isinstance(z, (list, tuple))
    with mp.workdps(ctx.work_dps):
        points = _seed_points(seed, z if many else [z])
        P = mp.mp.prec + _KUMMER_GUARD_BITS
        one = 1 << P
        coords = [(to_fixed(w.real._mpf_, P), to_fixed(w.imag._mpf_, P)) for w in points]
        sums = [(fzero, fzero)] * len(points)
        seed_at = _seed_kernel(seed, ctx)
        for g in trunc.representatives:
            a, b, c, d = g.a, g.b, g.c, g.d
            X, ys, factors = [], [], []
            for x, y in coords:
                re, im = c * x + d * one, c * y
                N = re * re + im * im
                X.append((((a * x + b * one) * re + a * c * y * y) << P) // N)
                ys.append(mpf_div(from_int(y << P), from_int(N), P))
                factors.append(_jfactor_power(re, im, -seed.k, P))
            terms = seed_at(X, ys, factors)
            sums = [(mpf_add(sr, tr, P), mpf_add(si, ti, P)) for (sr, si), (tr, ti) in zip(sums, terms)]
        values = [mp.make_mpc(v) for v in sums]
    return values if many else values[0]


DESCENT_BOUND = 10  # bottom-row bound C of the matched coset truncation


def _verify_descent(name: str, tag: str, seed: Seed, target: Seed, pref, pts: Sequence[complex],
                    matched_pt: mp.mpc, ctx: PrecisionContext) -> list:
    """Reports ``name``_termwise[``tag``] and ``name``_matched[``tag``,C=..] of xi_w(seed) = pref target.

    The seed has weight w = seed.k, the target weight 2 - w.  Termwise at
    each of ``pts``; matched at ``matched_pt``, where both sides are summed
    over one coset set (bottom rows bounded by DESCENT_BOUND), so the
    identity holds at every bound because xi commutes with the action.  Each
    xi stencil reaches ``xi_fd`` as one evaluator call: termwise the seed's
    four values come from one cal_M cluster (``seed_values``), and matched
    the four sums from one cluster per coset (``truncated_poincare``).
    """
    w = seed.k
    values = lambda points: seed_values(seed, points, ctx)
    row = lambda z: (relative_residual(xi_fd(None, w, z, ctx, values), pref * seed_values(target, [z], ctx)[0]),)
    termwise = tabulate(pts, row, [(f"{name}_termwise[{tag}]", ctx.tol_fd)], ctx.work_dps)
    with mp.workdps(ctx.work_dps):
        trunc = CosetTruncation.build(DESCENT_BOUND)
        lhs = xi_fd(None, w, matched_pt, ctx, lambda points: truncated_poincare(seed, points, trunc, ctx))
        res_matched = relative_residual(lhs, pref * truncated_poincare(target, matched_pt, trunc, ctx))
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
    half_k = mp.mpf(k) / 2
    return _verify_descent(
        "xi_descent", f"k={k},m={m}", Seed(k, -m, half_k, True), Seed(2 - k, m, half_k),
        pref, pts, mp.mpc(0, 2), ctx,
    )


def verify_termwise_dipoincare(k: int, m: int, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """xi_{2-k} of the dual-weight seed against the exponential seed.

    Termwise: xi_{2-k}(phi^{(2-k)}_{-m, k/2})(z) = (k-1)(4 pi m)^(k-1) q^m;
    matched truncation at 1.5i.  q^m = e^(2 pi i m z) is the terminating
    seed phi^{(k)}_{m, k/2}: there a = s - k/2 = 0, so 1F1 = 1.
    """
    if m <= 0:
        raise DomainError("index m must be positive")
    with mp.workdps(ctx.work_dps):
        pref = (k - 1) * (4 * mp.pi * m) ** (k - 1)
    half_k = mp.mpf(k) / 2
    return _verify_descent(
        "bol_descent", f"k={k},m={m}", Seed(2 - k, -m, half_k), Seed(k, m, half_k),
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
    proportional to |phi|, not to the (zero) right-hand side.  The four
    stencil values come from one cal_M cluster.
    """
    with mp.workdps(ctx.work_dps):
        s = mp.mpf(s)
        lam = s * (1 - s) + mp.mpf(series_weight ** 2 - 2 * series_weight) / 4
    seed = Seed(series_weight, m, s)
    values = lambda points: seed_values(seed, points, ctx)
    at = lambda z: values([z])[0]

    def row(z):
        lhs, val = laplace_fd(at, series_weight, z, ctx, values), at(z)
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
