"""Regularized cusp integrals and starred period objects.

The regularized integral R.int_{z0}^{i oo} f(w) dw is the value at u = 0 of
the analytic continuation of the e^(uw)-damped integral.  For integrands
(principal part) + (exponentially decaying remainder) against the rational
kernels used here, each principal term continues in closed form through
incomplete gamma functions of nonpositive integer order:

    R.int_{w0}^{i oo} e^(2 pi i n w) (w + a)^(-k) dw
        = e^(-lam a) (-lam)^(k-1) Gamma(1-k, -lam (w0 + a)),   lam = 2 pi i n.

Gamma(1-k, .) is log-branched, and the continuation path in u must pass the
obstruction points u = -2 pi i n on a fixed side; the two sides differ by
an explicit monodromy.  This module continues through {Re u < 0}, equivalently
along a contour slanted down-right, uniformly for every principal term: there
Gamma(1-k, x) takes arg x in (0, 2 pi), the principal value minus the
monodromy (-1)^(k-1)/(k-1)! 2 pi i when Im x < 0.  The verified identities
hold under either uniform continuation; the value of an individual
regularized integral depends on it.

Each kernel is one term scale (w + a)^(-s), and every term folds to
c_n q0^n (w0 + a)^(1-s) G_n with q0 = e^(2 pi i w0) and
G_n = e^x x^(s-1) Gamma(1-s, x), x = -2 pi i n (w0 + a).  The principal terms
n < 0 take G on that sheet from the series of x^N Gamma(-N, x), DLMF 8.4.15,
on fixed-point integers (``special._negint_series``; ``_folded_terms``), the
constant term n = 0 is elementary, and the decaying part n >= 1 is the same
fold summed over the coefficients on the principal branch (``ray_sum``),
whose length is fixed by a certified tail bound.  There G_n = 1/f with f
the Legendre continued fraction: a sum is one pass on fixed-point integers
with one exponential and one power, each fraction evaluated at the depth
that meets its term's share of the error budget, and each term's G taken
to a fixed-point value with one division pair per order, which every base
point shares.  Its set-up and its error are float log-magnitudes: the
window, the term bounds and the certified error take no mpmath
logarithm.  Both can also return a jet, the sums at orders
s..s+J for the Taylor expansion in the shift a: each term then takes one G
at one order and recurs to the others, in the direction where that is
stable.  Ray quadrature is not used here; it remains, with mpmath's
incomplete gamma, the oracle that the tests compare against.

The starred periods of a weight-(2-k) input M, with Q = M |_{2-k} (1 - S)
its period cocycle, are

    Fstar(z)     = R.int_{-conj z}^{i oo} M(w) (w+z)^(-k) dw            (``f_star``),
    rstar(z)     = [R.int_0^{i oo} M(w) (w+.)^(-k) dw] |_k S (z)
                 = R.int_0^{i oo} M(w) (wz-1)^(-k) dw                  (``r_star``),
    tildestar(z) = int_{-conj z}^{i oo} Q(w) (w+z)^(-k) dw   (``Q.kernel_integral``),

and hatstar = rstar - tildestar (``hat_star``).  For a genuinely modular M
the cocycle vanishes (``cocycle`` None), so tildestar = 0 and hatstar = rstar.  A
nonzero cocycle must be supplied by the caller, since it is not recoverable
from the expansion alone; it is spot-checked against M and, of degree
<= k-2, integrated exactly.  rstar splits at a base point z0, by default
i ``SPLIT_HEIGHT`` = 5i/4.  The leg
[z0, i oo) is regularized as it stands; the leg [0, z0] maps by w -> -1/w
onto [S z0, i oo), where M(-1/w) = w^(2-k) (M(w) - Q(w)), so

    rstar(z) = R.int_{z0}^{i oo} M(w) z^(-k) (w - 1/z)^(-k) dw
             - R.int_{S z0}^{i oo} M(w) (w + z)^(-k) dw
             + int_{S z0}^{i oo} Q(w) (w + z)^(-k) dw,

the last exact by ``PolynomialC.kernel_integral``; the value does not
depend on z0.  hatstar takes that integral and tildestar's as one, from
S z0 to -conj z.  Off the unit circle S z0 != z0, so rstar(z) sums from
(z0, -1/z) and (S z0, z) while rstar(S z) sums from (z0, z) and (S z0, -1/z):
the sums in rstar|(1+S) do not cancel, and that relation checks them.  The
xi stencil of hatstar around z moves only the shifts -1/z and z, so it
takes each leg, principal terms and decaying part, from one jet at z
(``_hat_stencil``), whose sum at z is hatstar(z) itself, which perstar
takes from it; the tests of jet against direct values keep that stencil
sensitive to how the direct values move with the shift.  The xi stencil of
Fstar (F2 for F's q-series) keeps w0 + a = 2 i Im z at every point: a
point w is the base -conj w of (-conj z, z), and off the real line also an
a-shift 2 i Im(w - z), so one ``ray_sum`` pass with a base per point takes
each term's fraction once for all four (``_star_stencil``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import mpf_mul, pi_fixed, to_fixed

from .eichler import PolynomialC, S, period_relations
from .fixedpoint import log2_eps, log_abs, q_parts, series_order
from .kernel import DomainError, PrecisionContext, StepTooLarge, xi_fd
from .qforms import QSeries, _certified_length, _check_tail, _coeff_model, _fixed_coeffs, _to_mpc, evaluate
from .reports import relative_residual, residual_scale, tabulate
from .special import _CF_GUARD_BITS, _legendre_fraction, _negint_series

SPLIT_HEIGHT = 5 / 4  # height of r_star's default base point
_LN2, _LOG_2PI = math.log(2), math.log(2 * math.pi)


class NotRegularizable(DomainError):
    """A principal term yields a pole at u = 0 (constant against a polynomial)."""


def _folded_terms(n: int, w0, a, s: int, J: int) -> list:
    """q0^n G_sigma for sigma = s..s+J, n < 0: times (w0 + a)^(1-sigma), R.int_{w0}^{i oo} e^(2 pi i n w) (w + a)^(-sigma) dw.

    That is e^(-lam a) (-lam)^(sigma-1) Gamma(1-sigma, x), lam = 2 pi i n, folded
    as ``ray_sum`` folds its terms: q0 = e^(2 pi i w0), x = -2 pi i n (w0 + a)
    and G_sigma = e^x x^(sigma-1) Gamma(1-sigma, x) on the module's sheet, at
    the current precision.  The term takes one G, at the order sigma* of
    ``ray_sum``'s rule: the least order with sigma* >= |x|, s + J if there is
    none.  For s + J <= 0 it starts from G_0 = 1/x; otherwise from the series
    H = x^N Gamma(-N, x), N = sigma* - 1 (``special._negint_series``), folded
    as q0^n G = e^(-2 pi i n a) H with one exponential.  The other orders
    recur by x G_sigma = 1 - sigma G_(sigma+1), from
    Gamma(b+1, x) = b Gamma(b, x) + x^b e^(-x): at integer order the monodromy
    (-1)^N/N! 2 pi i of Gamma(-N, .) obeys the same recurrence, so it holds on
    every sheet.  Below sigma* an error enters times |sigma / x| < 1 for
    sigma >= 0, above it times |x / sigma| <= 1; at the negative orders the
    recurrence is Horner's rule for the finite sum
    (-sigma)! sum_(j <= -sigma) x^(j+sigma-1) / j!.
    """
    u = w0 + a
    if u == 0:
        raise DomainError("a principal term needs w0 + a != 0")
    x = mp.mpc(u.imag, -u.real) * (2 * n * mp.pi)
    r, top = math.hypot(float(x.real), float(x.imag)), s + J
    anchor = next((o for o in range(s, top + 1) if o >= r), top)
    q = None if anchor >= 1 and J == 0 else mp.expjpi(2 * n * w0)  # q0^n, which the recurrence needs
    if anchor <= 0:
        anchor, F = 0, q / x
    else:
        Hr, Hi, P = _negint_series(anchor - 1, x, -mp.mp.prec, sheet=True)
        F = mp.expjpi(-2 * n * a) * mp.mpc(mp.mpf((Hr, -P)), mp.mpf((Hi, -P)))
    Fs = {anchor: F}
    for o in range(anchor - 1, s - 1, -1):
        Fs[o] = (q - o * Fs[o + 1]) / x  # x q0^n G_sigma = q0^n - sigma q0^n G_(sigma+1)
    for o in range(anchor, top):
        Fs[o + 1] = (q - x * Fs[o]) / o
    return [Fs[o] for o in range(s, top + 1)]


def ray_sum(series: QSeries, w0, a, s: int, ctx: PrecisionContext, scale=1, J: int = 0, bases=None):
    """(scale sum_{n>=1} c_n int_{w0}^{i oo} e^(2 pi i n w) (w+a)^(-s) dw, log of its certified error).

    c_n are the n >= 1 coefficients of ``series``; needs Im(w0 + a) > 0.
    With x = -2 pi i n (w0+a), Re x = 2 pi n Im(w0+a) > 0 and
    |x| = 2 pi n |w0+a| >= 2 pi Im(w0+a): for s >= 0,
    |Gamma(1-s, x)| <= |x|^(-s) e^(-Re x) (rotate the integration path of
    Gamma(1-s, x) = x^(1-s) e^(-x) int_0^oo e^(-xt) (1+t)^(-s) dt onto arg t = -arg x);
    for s < 0 the finite sum gives |Gamma(1-s, x)| <= e^(-Re x) (|x| - s)^(-s),
    at most |x|^(-s) e^(-Re x) F, F = (1 - s/(2 pi Im(w0+a)))^(-s), for every n.
    So the n-th term is at most |scale c_n| (2 pi n)^(-1) |w0+a|^(-s) e^(-2 pi n Im w0),
    times F when s < 0.  Raises TailTooLarge when the window cannot certify
    the digits.

    For integer s the n-th term folds to C c_n q0^n G_n, C = scale (w0+a)^(1-s),
    G_n = e^x x^(s-1) Gamma(1-s, x), so |c_n q0^n G_n| <= t_n = |c_n| |q0|^n F / |x_n|.
    Every term takes G_n = 1/f_n from the Legendre fraction f_n, which
    converges for Re x > 0 and ends exactly at a positive integer order 1-s;
    it is evaluated at the depth that meets the relative eps T / (N t_n),
    T = max t_n, kept within [eps, 2^-20], which leaves 1/f_n within
    4 tol_n relative (``_legendre_fraction``).  The certified error, returned
    and checked by ``_check_tail``, is the tail plus
    |C| sum_n 4 tol_n t_n, about 4 eps T |C|.  The window, the t_n and the
    error come from float logarithms of |scale|, |w0 + a| and the
    coefficients' exponents, with no mpmath logarithm.  One pass on Gaussian
    integers at P = -log2(eps) + 32 bits takes each term's
    g = B_n conj(A_n) / |A_n|^2 for 1/f_n = B_n / A_n as a P-bit value, one
    division pair per order, and adds c_n g q0^n in the unit 2^-P T for each
    base (N roundings, below N 2^-30 eps T), q0^n renormalized to P bits per
    step and x_n = n x_1 an integer multiple.

    With J > 0 it returns the list of (sum, log error) at the orders
    s, s+1, ..., s+J in one pass, a jet in a: the sum against
    (w+a+delta)^(-s) is sum_j (-delta)^j (s)_j / j! times the sum at order
    s+j; it needs s >= 0.  The window is the longest of the orders', and t_n
    takes the F of order s, the largest.  Each term takes one fraction, at
    the least order sigma* with sigma* >= |x_n|, s+J if there is none, and
    recurs from it by x G_sigma = 1 - sigma G_(sigma+1) (from
    Gamma(b+1, x) = b Gamma(b, x) + x^b e^(-x)): down below sigma*, where an
    error in G_(sigma+1) enters G_sigma times |sigma / x_n| < 1, and up above
    it, G_(sigma+1) = (1 - x G_sigma) / sigma, where an error enters times
    |x_n / sigma| <= 1.  So no order's G is off by more than the fraction's
    4 tol_n relative of G_(sigma*), and |G_sigma| <= 1/|x_n| at every order
    sigma >= 0: each order keeps the term's share 4 tol_n t_n of the budget,
    and each order's certified error is its own tail plus that budget times
    its own |C|.

    ``bases``, a list of (eta, J_eta) in place of J, returns for each the
    list of jet sums at orders s..s+J_eta from the base point w0 + eta
    against (w + a - eta)^(-s).  Since (w0 + eta) + (a - eta) = w0 + a,
    every x_n, and so every fraction, is the one of (w0, a): only q0 moves,
    to e^(2 pi i (w0 + eta)), so the coefficient sets c_n e^(2 pi i n eta)
    share one pass and each term takes its fraction, and each order its
    division pair, once for all of them.  The window, the t_n and the tails
    take the lowest base point.
    """
    u0 = w0 + a
    height = float(u0.imag)
    if not height > 0:
        raise DomainError("ray sum needs Im(w0 + a) > 0")
    one_base = bases is None
    bases = [(0, J)] if one_base else bases
    J = max(Jb for _, Jb in bases)
    if J and s < 0:
        raise DomainError("a ray-sum jet needs s >= 0")
    orders = range(s, s + J + 1)
    log2_F = [-o * math.log2(1 - o / (2 * math.pi * height)) if o < 0 else 0.0 for o in orders]
    log_b, alpha, beta = _coeff_model(series)
    log_q = -2 * math.pi * min(float((w0 + eta).imag) for eta, _ in bases)
    # log |scale (w0 + a)^(1-o)| per order o, and the tails from the bounds |scale| / (2 pi |w0+a|^o) F
    log_scale, log_u = log_abs(scale), log_abs(u0)
    log_C = [log_scale + (1 - o) * log_u for o in orders]
    tails = [_certified_length((log_b + lc - log_u - _LOG_2PI + lf * _LN2, alpha - 1, beta), log_q, series.n_max, ctx)
             for lc, lf in zip(log_C, log2_F)]
    N = max(length for length, _ in tails)
    first, mags, parts = _fixed_coeffs(series)
    n0, n_last = max(1, series.n_min + first), min(N, series.n_max)
    # log2 t_n for n <= n_last, -inf below n0 and where c_n = 0; |c_n| < 2^(mags + 1/2)
    c = 0.5 + log2_F[0] - (_LOG_2PI + log_u) / _LN2
    log2_t = [-math.inf] * n0 + [mags[n - series.n_min] + c + n * log_q / _LN2 - math.log2(n) for n in range(n0, n_last + 1)]
    log2_T = max(log2_t, default=-math.inf)
    sums = [[[0, 0] for _ in range(Jb + 1)] for _, Jb in bases]  # sum_n c_n q0^n G_n per base and order, in the unit 2^v
    budget = 0.0  # sum_n 4 tol_n t_n / T
    if log2_T > -math.inf:
        eps = ctx.eps()
        P, log2_eps = _CF_GUARD_BITS - mp.mag(eps), float(mp.mag(eps) - 1)
        two_pi = pi_fixed(P) << 1
        X1r, X1i = two_pi * to_fixed(u0.imag._mpf_, P) >> P, -(two_pi * to_fixed(u0.real._mpf_, P)) >> P
        abs_x1 = math.exp(log_u) * 2 * math.pi
        log2_budget = log2_eps + log2_T - math.log2(N)
        qs = []  # per base: [Qr, Qi, sq, qr, qi, eq] with q0^n = (qr + i qi) 2^eq
        for eta, _ in bases:
            wb = w0 + eta
            E, cos, sin = q_parts(wb.real._mpf_, wb.imag._mpf_, P)
            sq = P - E[2] - E[3]
            qs.append([to_fixed(mpf_mul(E, cos), sq), to_fixed(mpf_mul(E, sin), sq), sq, 1 << P, 0, -P])
        v = math.ceil(log2_T) - P
        for n in range(1, n_last + 1):
            for q in qs:
                Qr, Qi, sq, qr, qi, eq = q
                qr, qi = qr * Qr - qi * Qi, qr * Qi + qi * Qr
                d = max(qr.bit_length(), qi.bit_length()) - P
                q[3:] = qr >> d, qi >> d, eq + d - sq
            lt = log2_t[n]
            if lt == -math.inf:
                continue
            tol = min(max(log2_budget - lt, log2_eps), -20.0)
            budget += 2 ** (tol + 2 + lt - log2_T)
            X = (n * X1r, n * X1i)
            anchor = min(max(s, math.ceil(n * abs_x1)), s + J)  # the least order >= |x_n|, s + J if none
            G = [None] * (J + 1)  # G_o at index o - s
            G[anchor - s] = _legendre_fraction(((1 - anchor) << P, 0), X, P, tol)[:6]
            for o in range(anchor - 1, s - 1, -1):
                G[o - s] = _order_step(G[o + 1 - s], o, X, P, False)
            for o in range(anchor, s + J):
                G[o + 1 - s] = _order_step(G[o - s], o, X, P, True)
            cr, ci, ex = parts[n - series.n_min]
            Hs = []  # c_n G = (hr + i hi) 2^eh per order: one division pair each
            for Br, Bi, eB, Ar, Ai, eA in G:
                den = Ar * Ar + Ai * Ai
                gr, gi = ((Br * Ar + Bi * Ai) << P) // den, ((Bi * Ar - Br * Ai) << P) // den
                Hs.append((cr * gr - ci * gi, cr * gi + ci * gr, ex + eB - eA - P))
            for base_sums, (_, _, _, qr, qi, eq) in zip(sums, qs):
                for acc, (hr, hi, eh) in zip(base_sums, Hs):
                    vr, vi = hr * qr - hi * qi, hr * qi + hi * qr
                    sh = eh + eq - v
                    if sh >= 0:
                        acc[0] += vr << sh
                        acc[1] += vi << sh
                    else:
                        acc[0] += vr >> -sh
                        acc[1] += vi >> -sh
    out = []
    log_budget = (log2_T + math.log2(budget)) * _LN2 if budget else -math.inf
    commons = [scale * u0 ** (1 - s)]  # scale (w0 + a)^(1-o) per order
    for _ in range(J):
        commons.append(commons[-1] / u0)
    for base_sums in sums:
        jet = []
        for (Tr, Ti), (_, log_tail), lc, common in zip(base_sums, tails, log_C, commons):
            total = mp.mpc(mp.mpf((Tr, v)), mp.mpf((Ti, v))) * common if budget else mp.mpc(0)
            log_err = log_budget + lc
            if log_tail > -math.inf:
                log_err = max(log_err, log_tail) + math.log1p(math.exp(-abs(log_err - log_tail)))
            _check_tail(log_err, total, ctx, f"ray sum of {series.label}")
            jet.append((total, log_err))
        out.append(jet)
    if one_base:
        return out[0] if J else out[0][0]
    return out


def _order_step(g: tuple, order: int, X: tuple, P: int, up: bool) -> tuple:
    """By x G_order = 1 - order G_(order+1), x = X 2^-P: G_(order+1) from G_order when ``up``, else G_order from G_(order+1).

    Each G = (Br + i Bi) 2^eB / ((Ar + i Ai) 2^eA), the form
    ``_legendre_fraction`` returns.  Down: B' = A - order B and A' = x A;
    up: B' = A - x B and A' = order A.  The difference is taken on a common
    exponent, and each pair is shifted back to P bits.
    """
    Br, Bi, eB, Ar, Ai, eA = g
    if up:
        Br, Bi = X[0] * Br - X[1] * Bi >> P, X[0] * Bi + X[1] * Br >> P
        Dr, Di, eD = order * Ar, order * Ai, eA
    else:
        Br, Bi = order * Br, order * Bi
        Dr, Di, eD = X[0] * Ar - X[1] * Ai, X[0] * Ai + X[1] * Ar, eA - P
    e = min(eA, eB)
    Nr, Ni = (Ar << eA - e) - (Br << eB - e), (Ai << eA - e) - (Bi << eB - e)
    dN = max(Nr.bit_length(), Ni.bit_length()) - P
    dD = max(Dr.bit_length(), Di.bit_length()) - P
    Nr, Ni = (Nr >> dN, Ni >> dN) if dN >= 0 else (Nr << -dN, Ni << -dN)
    Dr, Di = (Dr >> dD, Di >> dD) if dD >= 0 else (Dr << -dD, Di << -dD)
    return Nr, Ni, e + dN, Dr, Di, eD + dD


def reg_integral_to_icusp(M: QSeries, z0, a, s: int, ctx: PrecisionContext, scale=1) -> mp.mpc:
    """R.int_{z0}^{i oo} M(w) scale (w + a)^(-s) dw.

    The principal terms n < 0 of M are continued in closed form
    (``_folded_terms``) and the constant term is elementary, both in
    ``_principal_part``; the decaying remainder n >= 1 is the certified
    ``ray_sum`` (which needs Im(z0 + a) > 0).  Raises NotRegularizable when
    the constant term has a genuine pole at u = 0 (s <= 1).
    """
    with mp.workdps(ctx.work_dps):
        z0 = mp.mpc(z0)
        total = _principal_part(M, z0, a, s, ctx, scale)
        if M.n_max >= 1:
            total += ray_sum(M, z0, a, s, ctx, scale)[0]
        return total


def _principal_part(M: QSeries, z0: mp.mpc, a, s: int, ctx: PrecisionContext, scale=1, J: int = 0):
    """The principal and constant terms, n <= 0, of ``reg_integral_to_icusp``, at the current precision.

    With J > 0 it returns the list of their sums at the orders s..s+J, a
    jet in a as ``ray_sum`` returns it.  Each principal term takes one G
    and recurs to the other orders (``_folded_terms``); the constant term
    is c_0 (z0 + a)^(1-sigma) / (sigma - 1) at each order sigma.
    """
    u = z0 + a
    if s >= 1 and u == 0:
        raise DomainError("kernel pole sits at the base point")
    sums = [mp.mpc(0)] * (J + 1)
    for n in range(M.n_min, min(M.n_max, 0) + 1):
        c = _to_mpc(M.coeff(n))
        if c == 0:
            continue
        if n < 0:
            terms = _folded_terms(n, z0, a, s, J)
        elif s < 2:
            raise NotRegularizable("constant term against a non-decaying kernel has a pole at u = 0")
        else:
            terms = [mp.mpf(1) / (o - 1) for o in range(s, s + J + 1)]
        sums = [total + c * term for total, term in zip(sums, terms)]
    out = [total * scale * u ** (1 - o) for o, total in enumerate(sums, s)]
    return out if J else out[0]


def _cocycle_spot_check(M: QSeries, Q: Optional[PolynomialC], ctx: PrecisionContext) -> None:
    """Raise DomainError unless M|(1-S) = Q (0 for None) at one fixed point; a pass is memoized per (ctx, Q)."""
    key = ("cocycle_at", ctx, Q)
    if key in M._memo:
        return
    z = mp.mpc("0.37", "1.21")
    lhs = evaluate(M, S.apply(z), ctx)
    rhs = z ** M.weight * (evaluate(M, z, ctx) - (0 if Q is None else Q(z)))
    if not abs(lhs - rhs) <= mp.mpf("1e-10") * residual_scale(lhs, rhs):
        raise DomainError("M|(1-S) does not match the cocycle (None stands for a modular M); pass M's period cocycle")
    M._memo[key] = True


def f_star(M: QSeries, z, ctx: PrecisionContext) -> mp.mpc:
    """Fstar(z) = R.int_{-conj z}^{i oo} M(w) (w+z)^(-k) dw, k = 2 - weight of M."""
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("starred periods need Im z > 0")
        return reg_integral_to_icusp(M, -mp.conj(z), z, 2 - M.weight, ctx)


def r_star(M: QSeries, z, ctx: PrecisionContext, cocycle: Optional[PolynomialC] = None, z0=None) -> mp.mpc:
    """rstar(z) = R.int_0^{i oo} M(w) (wz-1)^(-k) dw for Im z >= 0, split at z0 (default i SPLIT_HEIGHT).

    See the module docstring: the leg [0, z0] is taken from S z0 with the
    cocycle ``cocycle`` = M|(1-S), None for a modular M.  For real z both rays
    stay Im z0 and Im S z0 above their kernel poles; at the cusp z = 0 the
    first kernel (wz-1)^(-k) is the constant (-1)^k, so a constant term of M
    raises NotRegularizable.  Raises DomainError for Im z < 0 (no certified
    route), for Im z0 <= 0, and unless M|(1-S) matches the cocycle at a point.
    """
    with mp.workdps(ctx.work_dps):
        value, sz0 = _r_star_legs(M, z, ctx, cocycle, z0)
        if cocycle is not None:
            value += cocycle.kernel_integral(2 - M.weight, z, sz0)
        return value


def _r_star_legs(M: QSeries, z, ctx: PrecisionContext, cocycle: Optional[PolynomialC], z0=None) -> tuple:
    """(rstar(z) without its cocycle integral, S z0): the two regularized legs, at the current precision."""
    z = mp.mpc(z)
    z0 = mp.mpc(z0) if z0 is not None else mp.mpc(0, SPLIT_HEIGHT)
    if not (mp.im(z) >= 0 and mp.im(z0) > 0):
        raise DomainError("rstar needs Im z >= 0 and a base point z0 in the upper half-plane")
    _cocycle_spot_check(M, cocycle, ctx)
    k, sz0 = 2 - M.weight, S.apply(z0)
    a, s, scale = (0, 0, (-1) ** k) if z == 0 else (-1 / z, k, z ** (-k))
    return reg_integral_to_icusp(M, z0, a, s, ctx, scale) - reg_integral_to_icusp(M, sz0, z, k, ctx), sz0


def hat_star(M: QSeries, z, ctx: PrecisionContext, cocycle: Optional[PolynomialC] = None) -> mp.mpc:
    """hatstar(z) = rstar(z) - int_{-conj z}^{i oo} Q(w) (w+z)^(-k) dw for the cocycle Q; rstar(z) when None.

    The two cocycle integrals, rstar's from S z0 and tildestar's from
    -conj z, both to i oo, are taken as one exact
    int_{S z0}^{-conj z} Q(w) (w+z)^(-k) dw: one Taylor shift of Q.
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        value, sz0 = _r_star_legs(M, z, ctx, cocycle)
        if cocycle is not None:
            value += cocycle.kernel_integral(2 - M.weight, z, sz0, -mp.conj(z))
        return value


def _hat_stencil(M: QSeries, z, ctx: PrecisionContext, cocycle: Optional[PolynomialC]) -> Callable:
    """hatstar at ``xi_fd``'s stencil points w near z, with each rstar leg from one jet at z.

    The legs sum against (w' - 1/w)^(-k) from z0 and (w' + w)^(-k) from
    S z0: their shifts -1/w and w move by delta = (w - z)/(z w) and w - z
    from z.  Each leg takes one jet at z, of the least order J whose Taylor
    remainder is at most eps relative to the sum of the term bounds t_n
    (``_jet_value``): its principal and constant terms (``_principal_part``)
    plus its ``ray_sum`` jet, so each principal term takes one series per
    stencil, not one per point.  The stencil values are the Taylor sums
    (``_jet_value``).  The factor w^(-k) and the cocycle integral are taken
    at each point as ``hat_star`` takes them.  A leg's jet is kept for later
    calls whose points it reaches: hatstar(z) itself is its order-s entry,
    the Taylor sum at delta = 0.
    """
    k, z0 = 2 - M.weight, mp.mpc(0, SPLIT_HEIGHT)
    sz0 = S.apply(z0)
    jets = {}  # per leg, (J, jet)

    def values(points):
        with mp.workdps(ctx.work_dps):
            legs = []
            for w0, a, deltas in ((z0, -1 / z, [(w - z) / (z * w) for w in points]), (sz0, z, [w - z for w in points])):
                rho = float(max(map(abs, deltas)) / abs(w0 + a))
                if not rho < 0.5:
                    raise StepTooLarge("a jet step reaches half way to the kernel pole")
                J = series_order(rho, k, log2_eps(ctx))  # see _jet_value
                if jets.get(w0, (-1,))[0] < J:
                    jet = _principal_part(M, w0, a, k, ctx, J=J)
                    if M.n_max >= 1:
                        jet = [p + v for p, (v, _) in zip(jet, ray_sum(M, w0, a, k, ctx, J=J))]
                    jets[w0] = J, jet
                legs.append([_jet_value(jets[w0][1], k, d) for d in deltas])
            out = []
            for w, near, far in zip(points, *legs):
                value = w ** (-k) * near - far
                if cocycle is not None:
                    value += cocycle.kernel_integral(k, w, sz0, -mp.conj(w))
                out.append(value)
            return out

    return values


def _star_stencil(M: QSeries, z, ctx: PrecisionContext) -> Callable:
    """Fstar at ``xi_fd``'s stencil points w near z, with the ray sums of all of them from one ``ray_sum`` pass.

    Fstar(w) sums from -conj w against (v + w)^(-k).  With delta = w - z and
    eta = -conj(delta), that is the sum from the base point -conj z + eta
    against (v + z - eta + 2 i Im delta)^(-k): every point shares
    w0 + a = 2 i Im z, so ``ray_sum`` takes each point as a base eta of
    (-conj z, z), F2(z +- h) = sum_n e^(-+2 pi i n h) T_n, and the a-jet of
    the points off the real line, of the order ``_jet_value`` sets at
    rho = |2 Im delta| / (2 Im z), gives F2(z +- i h) = sum_n e^(-+2 pi n h) T_n(a +- 2 i h)
    as its Taylor sum (``_jet_value``); T_n are the terms of Fstar(z).  Each
    term takes one fraction for the four points.  The principal and
    constant terms are taken at each point (``_principal_part``).
    """
    k = 2 - M.weight

    def values(points):
        with mp.workdps(ctx.work_dps):
            w0, deltas = -mp.conj(z), [w - z for w in points]
            rho = float(max(abs(d.imag) for d in deltas) / mp.im(z))
            if not rho < 0.5:
                raise StepTooLarge("a jet step reaches half way to the kernel pole")
            J = series_order(rho, k, log2_eps(ctx))
            bases = [(-mp.conj(d), J if d.imag else 0) for d in deltas]
            jets = ray_sum(M, w0, z, k, ctx, bases=bases) if M.n_max >= 1 else [[(0, 0)]] * len(points)
            return [_principal_part(M, -mp.conj(w), w, k, ctx) + _jet_value([v for v, _ in jet], k, 2j * d.imag)
                    for w, d, jet in zip(points, deltas, jets)]

    return values


def _jet_value(jet: list, s: int, delta) -> mp.mpc:
    """sum_j (-delta)^j (s)_j / j! S_(s+j), the Taylor sum of a jet of sums S at the shift a + delta.

    A jet's order is ``series_order`` at rho = |delta| / |w0 + a| < 1/2 and kappa = s,
    as (s)_j / j! = C(s + j - 1, j) has the ratios (s + j)/(j + 1): |w + a| >= |w0 + a|
    along the ray, so each term moves from its Taylor sum by at most eps times its bound
    t_n |C|.  A principal term's coefficients q0^n (w0 + a)^(1-s-j) G_(s+j), G_sigma about
    1/(x + sigma), follow the same powers of rho (``test_principal_jet_vs_direct_stencil``).
    """
    total, power = mp.mpc(0), mp.mpf(1)
    for j, value in enumerate(jet):
        total += math.comb(s + j - 1, j) * power * value
        power *= -delta
    return total


def hat_equation_residual(M: QSeries, z, h, ctx: PrecisionContext) -> mp.mpf:
    """Relative residual of Fstar|_k(S-1)(z) = h, given h = hatstar(z)."""
    k = 2 - M.weight
    with mp.workdps(ctx.work_dps):
        lhs = f_star(M, S.apply(z), ctx) * z ** (-k) - f_star(M, z, ctx)
        return relative_residual(lhs, h)


def hat_relation_residuals(M: QSeries, z, h, ctx: PrecisionContext, cocycle: Optional[PolynomialC] = None) -> tuple:
    """(h, and the relative residuals of h|(1+S) = 0, h|(1+U+U^2) = 0 and xi_k(hatstar)(z) = target), h = hatstar(z).

    rstar is holomorphic, and the z-bar derivative of
    int_{-conj z}^{i oo} Q(w) (w+z)^(-k) dw is Q(-conj z) (2iy)^(-k), so for
    even k xi_k(hatstar)(z) = -(2i)^(1-k) conj(Q(-conj z)): 0 for a modular M,
    (2i)^(1-k) r_{f^c}(z) for Q = r_f.  The xi residual is scaled by
    max(1, |xi|, |target|, |h|), since the stencil error of ``xi_fd`` is
    relative to the size of hatstar near z.  The stencil takes its ray sums
    from one jet per leg (``_hat_stencil``).  For h None, h is the same
    jets' sum at z, delta = 0, with the same cocycle integral, so hatstar(z)
    is not summed a second time.  The period relations take hatstar directly
    at S z, U z and U^2 z.
    """
    k = 2 - M.weight
    hat = lambda w: hat_star(M, w, ctx, cocycle)
    with mp.workdps(ctx.work_dps):
        stencil = _hat_stencil(M, z, ctx, cocycle)
        xv = xi_fd(None, k, z, ctx, stencil)
        if h is None:
            h = stencil([mp.mpc(z)])[0]
        rel_s, rel_u = period_relations(hat, h, k, z)
        target = 0 if cocycle is None else -(2j) ** (1 - k) * mp.conj(cocycle(-mp.conj(z)))
        scale = residual_scale(h)
        return h, abs(rel_s) / scale, abs(rel_u) / scale, relative_residual(xv, target, h)


def verify_per_star(M: QSeries, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """Reports: Fstar|_k(S-1) = hatstar, the two period relations, xi-image, for a modular M.

    hatstar = rstar, and its xi-image must vanish to FD tolerance.  hatstar
    at z comes from the xi stencil's jets (``hat_relation_residuals``), and
    serves both helpers; Fstar is taken at z and at S z.
    """

    def row(z):
        h, *relations = hat_relation_residuals(M, z, None, ctx)
        return (hat_equation_residual(M, z, h, ctx), *relations)

    names = [(f"perstar_eq[{M.label}]", ctx.tol_tight), (f"perstar_slash_S[{M.label}]", ctx.tol_tight),
             (f"perstar_slash_U[{M.label}]", ctx.tol_tight), (f"perstar_xi_holomorphy[{M.label}]", ctx.tol_fd)]
    return tabulate(pts, row, names, ctx.work_dps)
