"""Seed functions, truncated Poincare sums, termwise descent identities.

Identities between full Poincare series reduce termwise because the xi and
Bol operators commute with the slash action; a "matched truncation" evaluates
both sides over the identical finite coset set, turning slowly convergent
series statements into exact pointwise checks at any truncation bound.

A seed is a value, ``special.Seed(k, m, s, ds)``.  ``truncated_poincare``
makes one pass over the cosets on fixed-point integers.  For a stencil it
takes, per coset, one set of transcendental values at the image of the
stencil's centre (one exponential, one phase, one logarithm, one j-factor
and one confluent series) and the four images from it by short series;
each descent hands ``xi_fd`` that evaluator as its stencil.  Where the
points are closed under the mirror z -> -conj z, as a stencil or a point
on the imaginary axis is, the cosets come in mirror pairs (c, +-d) whose
terms are conjugate, and one seed cluster serves each pair.  The Bol-xi
avatar takes F2's stencil from one ray-sum pass (``regint._star_stencil``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import mpf_abs, to_fixed

from .eichler import GroupElement, IDENTITY, eichler_integral
from .fixedpoint import GUARD_BITS, gauss_mpc, gauss_power, gauss_sum
from .kernel import DomainError, PrecisionContext, laplace_fd, xi_fd
from .qforms import QSeries, conjugate_form, bol, evaluate
from .regint import _star_stencil
from .reports import RelationReport, relative_residual, tabulate
from .special import Seed, _seed_kernel, _seed_points, _y_scale, seed_values


@dataclass(frozen=True)
class CosetTruncation:
    """Coset representatives for the translation subgroup, bottom rows bounded.

    One representative per coset with bottom row (c, d), gcd(c, d) = 1,
    1 <= c <= bound, |d| <= bound, plus the identity (c, d) = (0, 1).

    ``mirror_half`` holds the representatives with c = 0 or d >= 0; each
    with c d != 0 stands for itself and its mirror row (c, -d): for
    gamma = (a b; c d) and gamma' = (-a b; c -d), gamma'(-conj w) =
    -conj(gamma w) and j(gamma', -conj w) = -conj j(gamma, w), so
    ``truncated_poincare`` takes the mirror's term from gamma's by
    conjugation.  It is derived from the representatives once, and None
    unless their bottom rows are closed under (c, d) -> (c, -d) with
    multiplicity, as every ``build`` is; rows with c d = 0 are their own
    mirrors.
    """

    bound: int
    representatives: Tuple[GroupElement, ...]

    @cached_property
    def mirror_half(self) -> Optional[Tuple[GroupElement, ...]]:
        rows = Counter((g.c, g.d) for g in self.representatives)
        if all(rows[c, -d] == n for (c, d), n in rows.items() if c):
            return tuple(g for g in self.representatives if g.c == 0 or g.d >= 0)
        return None

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


def truncated_poincare(seed: Seed, z, trunc: CosetTruncation, ctx: PrecisionContext):
    """sum over representatives of (seed |_k gamma)(z), k = seed.k, in a fixed order.

    ``z`` is one point, or a list or tuple of points (a stencil), which
    returns the list of their sums.  The points are held as integers at the
    scale 2^P, P the working precision plus guard bits, and their mean z is
    the cluster's centre.  Per coset, with c z + d = (c x + d) + i c y exact,
    Im gamma z = y / |c z + d|^2 and
    Re gamma z = ((a x + b)(c x + d) + a c y^2) / |c z + d|^2 take one
    division each, and j(gamma, z)^(-k) one power (``gauss_power``).  A
    point w = z + delta differs exactly by
    gamma w - gamma z = delta / ((c z + d)(c w + d)) and
    c w + d = (c z + d)(1 + t), t = c delta / (c z + d), each a division on
    integers; ``special._seed_kernel`` takes the seed's transcendental set
    once at gamma z, with one confluent series, and each point from it by
    short series in ratios of size at most about |delta| / Im z.  A single
    point is a cluster of one and takes none.  Points spread by Im z / 4 or
    more are summed one at a time.  The coset terms are added on integers
    at one scale, and the sums keep P bits, as the seed's values do, for the
    stencils of ``xi_fd``.

    The real parts are cut toward zero, so that the mirror iota w = -conj w
    of a point has exactly the negated coordinates.  When the points are
    closed under iota and ``trunc.mirror_half`` is set, one cluster serves
    each mirror pair of cosets: the seed has real s (a dyadic rational, as
    the kernel takes it) and integer m, so phi(iota w) = conj phi(w), and
    the term of gamma' = (-a b; c -d) at w is (-1)^k conj of gamma's term
    at iota w, read off gamma's cluster on the integers.  Any other cluster
    or truncation takes one cluster per coset.
    """
    many = isinstance(z, (list, tuple))
    with mp.workdps(ctx.work_dps):
        points = _seed_points(seed, z if many else [z])
        P = mp.mp.prec + GUARD_BITS
        one = 1 << P
        coords = []
        for w in points:
            X = to_fixed(mpf_abs(w.real._mpf_), P)
            coords.append((-X if w.real < 0 else X, to_fixed(w.imag._mpf_, P)))
        x, y = (sum(v) // len(coords) for v in zip(*coords))
        deltas = [(X - x, Y - y) for X, Y in coords]
        if max(math.hypot(dx / one, dy / one) for dx, dy in deltas) >= y / one / 4:
            return [truncated_poincare(seed, w, trunc, ctx) for w in points]
        seed_at, scale = _seed_kernel(seed, ctx), _y_scale(seed.m, P)
        index = {XY: i for i, XY in enumerate(coords)}
        mirror = [index.get((-X, Y)) for X, Y in coords]
        half = trunc.mirror_half if None not in mirror else None
        terms = [[] for _ in points]
        for g in half or trunc.representatives:
            a, b, c, d = g.a, g.b, g.c, g.d
            re, im = c * x + d * one, c * y
            N = re * re + im * im
            U = (((a * x + b * one) * re + a * c * y * y) << P) // N
            # c / (c z + d) and |c z + d|^2 / y, times 2^P
            cr, ci, iv = (c * re << 2 * P) // N, (-c * im << 2 * P) // N, N // y
            D = []
            for dx, dy in deltas:
                wr, wi = re + c * dx, im + c * dy  # (c w + d) 2^P
                Mr, Mi = re * wr - im * wi >> P, re * wi + im * wr >> P  # (c z + d)(c w + d) 2^P
                M2 = Mr * Mr + Mi * Mi
                # gamma w - gamma z = delta conj(M) / |M|^2, its imaginary part over Im gamma z, and t
                dU, dV = ((dx * Mr + dy * Mi) << P) // M2, ((dy * Mr - dx * Mi) << P) // M2
                D.append((dU, dV, dV * iv >> P, dx * cr - dy * ci >> P, dx * ci + dy * cr >> P))
            row = seed_at(U, (y << 2 * P) // N * scale, D, gauss_power(re, im, -seed.k, P))
            for acc, term in zip(terms, row):
                acc.append(term)
            if half and g.c and g.d:
                for acc, i in zip(terms, mirror):
                    tr, ti, e = row[i]
                    acc.append((-tr, ti, e) if seed.k & 1 else (tr, -ti, e))
        values = [gauss_mpc(gauss_sum(acc, P), P) for acc in terms]
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
    the four sums from one cluster per mirror pair of cosets
    (``truncated_poincare``): both matched points lie on the imaginary axis.
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
    (2i)^(1-k) conj(F(-conj z)) = -(2i)^(1-k) F^(c)(z) pointwise; F2 is
    Fstar of F's q-series (``F_f2`` termwise), and ``xi_fd`` takes its four
    stencil values from one ray-sum pass (``regint._star_stencil``), each
    term's fraction once for the four points.  Second
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
    M = eichler_integral(f, ctx).series
    row = lambda z: (relative_residual(xi_fd(None, k, z, ctx, _star_stencil(M, z, ctx)), -pref * Fc(z)),
                     relative_residual(evaluate(chain, z, ctx), chain_pref * evaluate(fc, z, ctx)))
    names = [(f"bol_xi_avatar_fd[{f.label}]", ctx.tol_fd), (f"bol_xi_avatar_chain[{f.label}]", ctx.tol_tight)]
    return tabulate(pts, row, names, ctx.work_dps)
