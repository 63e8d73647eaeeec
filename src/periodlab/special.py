"""Special functions: incomplete gamma, normalized Whittaker values, seeds.

Conventions used throughout:

* ``upper_incomplete_gamma(s, x)`` is Gamma(s, x) = int_x^oo t^(s-1) e^(-t) dt
  for real or complex s and x, on the principal branch; it is the package's
  only incomplete-gamma routine.  Its branches are the Legendre continued
  fraction in the right half-plane for large x or a large negative order
  (``_on_fraction``), the series DLMF 8.4.15 for other nonpositive integer
  orders (``_negint_series``), and Gamma(s) minus the lower-gamma series
  otherwise.
* e^x x^(-s) Gamma(s, x) is 1/f for that continued fraction f, from its
  one implementation ``_legendre_fraction``, for every order: a forward
  pass on Python floats fixes the depth n at which f_n meets a given
  relative tolerance (``_fraction_depth``), and one backward pass on
  Gaussian fixed-point integers at a given scale 2^P evaluates f_n, with
  the numerator and denominator renormalized separately by shifts.  At an
  integer order, which every ray-sum term and Gamma(-N, x) take, a_j is a
  small integer and each step takes one P-bit complex product.
  ``regint.ray_sum`` runs it directly for every term, on its own
  fixed-point arguments and at each term's share of the sum's error budget;
  ``_on_fraction`` picks only ``upper_incomplete_gamma``'s branch.
* The series of x^N Gamma(-N, x) runs on Gaussian fixed-point integers,
  T_(k+1) = T_k y / (k + 1) with y = -x, each divided by k - N, with guard
  bits sized before the sum from float bounds (the peak term e^|x| against
  the result) and checked after it, and stops on a bound of the whole tail.
  ``regint``'s principal terms take it directly, on the module's sheet.
* ``cal_M(k, s, u) = |u|^(-k/2) M_{sgn(u) k/2, s - 1/2}(|u|)`` is computed
  from the confluent hypergeometric series K = 1F1(s - mu; 2s; |u|)
  everywhere (entire in the argument), summed on fixed-point integers at
  the working precision plus guard bits (``_kummer_sums``).  s is a dyadic
  rational, so each step multiplies and divides by integers, small for
  every seed, and the loop stops on a bound of the whole tail.  The same
  loop sums the s-derivative, so the seed ``psi_seed`` takes no difference
  in s.  A cluster of nearby arguments of one sign (a stencil, or its
  images under one coset) takes one series at its center, which also sums
  y K'(y); Kummer's equation, and its s-derivative, give the rest of the
  jet, and each argument takes its Taylor sum (``_confluent``).  A seed
  cluster (``_seed_kernel``) also takes its exponential, phase, logarithm
  and j-factor once, at its centre, and each point from them by short
  series on fixed-point integers, stopped as the confluent jet is
  (``fixedpoint.series_order``).  A seed is a value, ``Seed(k, m, s, ds)``:
  ``seed_values``, ``psi_seed``, ``poincare.phi_seed`` and ``cal_M`` (the
  seed ``Seed(k, sgn(u), s)`` at i |u| / (4 pi)) evaluate it.  The integral
  representation of M_{mu, nu}(y) is a test oracle only (``tests/oracles.py``):
  it degenerates on the boundary Re(nu - mu + 1/2) = 0 that the seeds sit on.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import mpmath as mp
from mpmath.libmp import (
    euler_fixed,
    from_int,
    from_man_exp,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    pi_fixed,
    to_fixed,
)
from mpmath.libmp.libelefun import cos_sin_fixed
from mpmath.libmp.libmpc import mpc_log

from .fixedpoint import GUARD_BITS, fixed, gauss_mpc, gauss_taylor, log2_eps, series_order, taylor
from .kernel import DomainError, NonConvergent, PrecisionContext, StepTooLarge
from .reports import RelationReport, relative_residual

_GAMMA_DPS_PAD = 10
# bits the fixed-point continued fraction carries beyond -log2(eps): they
# absorb the rounding of the b_j and of the backward pass, up to a unit of
# 2^-P per step relative, over the thousands of steps that arguments near
# the imaginary axis with |x| near or below |s| + 1 take
_CF_GUARD_BITS = 32


def upper_incomplete_gamma(s, x, ctx: PrecisionContext):
    """Gamma(s, x) for real or complex order s and argument x.

    A real x must be positive.  A complex x may be any nonzero number; on
    the negative real axis the value is the limit from above (arg x = pi),
    as in mpmath.  A complex s with zero imaginary part, and a complex x on
    the positive real axis, are taken as real.  The branches:

    * Re x > 0 and |x| > |s| + 1, or |x| > 6 and Re s <= 1 - |x| where
      the sums below fail (``_on_fraction``): the Legendre continued
      fraction (DLMF 8.9), ``_legendre_fraction``.
    * s = -N for an integer N >= 0: x^(-N) times the series DLMF 8.4.15
      of x^N Gamma(-N, x) (``_negint_series``), which sizes and checks its
      own guard bits and raises NonConvergent past 4 times the precision.
    * otherwise: Gamma(s) minus the lower-gamma series.

    The lower-gamma sums can cancel.  When they lose more digits than the
    guard pad, the same branch runs again with that many more digits, so
    the result always carries ``ctx.work_dps`` digits.
    """
    with mp.workdps(ctx.work_dps + _GAMMA_DPS_PAD):
        s, x = mp.mpmathify(s), mp.mpmathify(x)
        if isinstance(s, mp.mpc) and s.imag == 0:
            s = s.real
        if isinstance(x, mp.mpc) and x.imag == 0 and x.real > 0:
            x = x.real
        if x == 0 or (not isinstance(x, mp.mpc) and x < 0):
            raise DomainError("upper_incomplete_gamma needs a real x > 0 or a complex x != 0")
    extra = 0
    while True:
        with mp.workdps(ctx.work_dps + _GAMMA_DPS_PAD + extra):
            value, size = _gamma_upper_terms(s, x, ctx.eps())
            lost = int(mp.log10(size / abs(value))) + 1 if value else mp.inf
        if lost <= _GAMMA_DPS_PAD + extra:
            return value
        if lost > 4 * ctx.work_dps:
            raise NonConvergent("incomplete gamma sums cancel beyond recovery")
        extra = lost


def _gamma_upper_terms(s, x, eps):
    """(Gamma(s, x), largest magnitude summed) at the current precision.

    ``eps`` bounds the truncation error relative to the result.
    """
    if mp.re(x) > 0 and _on_fraction(s, abs(x)):
        # e^x x^(-s) Gamma(s, x) = 1/f, the Legendre continued fraction, within
        # 2^(log2_tol + 2) = 2^(mag(eps) - 1) <= eps relative
        P = _CF_GUARD_BITS - mp.mag(eps)
        Br, Bi, eB, Ar, Ai, eA, _ = _legendre_fraction(fixed(s, P), fixed(x, P), P, float(mp.mag(eps) - 3))
        if isinstance(s, mp.mpc) or isinstance(x, mp.mpc):
            scaled = mp.mpc(mp.mpf((Br, eB)), mp.mpf((Bi, eB))) / mp.mpc(mp.mpf((Ar, eA)), mp.mpf((Ai, eA)))
        else:
            scaled = mp.mpf((Br, eB)) / mp.mpf((Ar, eA))
        value = mp.exp(-x) * x ** s * scaled
        return value, abs(value)
    if mp.isint(s) and s <= 0:
        # the series sizes its own guard bits: x^N Gamma(-N, x) within 2^(mag(eps) - 1) <= eps relative
        N = int(-s)
        Hr, Hi, P = _negint_series(N, x, float(mp.mag(eps) - 1))
        H = mp.mpc(mp.mpf((Hr, -P)), mp.mpf((Hi, -P))) if isinstance(x, mp.mpc) else mp.mpf((Hr, -P))
        value = H / x ** N
        return value, abs(value)
    # lower gamma: x^s e^(-x) sum_j x^j / (s (s+1) ... (s+j)); the result
    # is pref (g - sum), so the stop test is relative to g - sum
    gs, pref = mp.gamma(s), mp.exp(-x) * x ** s
    g = gs / pref
    term = 1 / s
    total, top = term, abs(term)
    for j in range(1, 10 ** 6):
        term *= x / (s + j)
        total += term
        mag = abs(term)
        top = max(top, mag)
        if mag < eps * abs(g - total):
            return gs - pref * total, max(abs(gs), abs(pref) * top)
    raise NonConvergent("lower gamma series did not converge")


def _negint_series(N: int, x, log2_tol: float, sheet: bool = False) -> tuple:
    """(Hr, Hi, P): x^N Gamma(-N, x) = (Hr + i Hi) 2^-P within 2^log2_tol relative, for an integer N >= 0 and an mpf or mpc x != 0.

    DLMF 8.4.15, times x^N: with y = -x and T_k = y^k / k!,

        x^N Gamma(-N, x) = T_N (psi(N + 1) - ln x) - sum_{k != N} T_k / (k - N),

    ln x on the principal branch (arg x = pi on the negative real axis), or
    with ``sheet`` arg x in [0, 2 pi), which takes 2 pi i T_N off below the
    axis.  The sum (``_negint_terms``) runs on Gaussian integers at the
    scale 2^P, with P sized before the sum from float bounds: its rounding,
    about e^|x| units of 2^-P per term, against the result, about
    e^(-Re x) / (|x| + N + 1) (the Legendre fraction's first convergent);
    the rounding and the tail left each get a quarter of 2^log2_tol.  After
    the sum the same bound against the result found is the check: a
    shortfall runs the sum again sized from the result found, and one past
    4 log2(1/tol) bits raises NonConvergent.
    """
    re_x = float(mp.re(x))
    r = math.hypot(re_x, float(mp.im(x)))
    log2_H = -re_x * math.log2(math.e) - math.log2(r + N + 1)
    log2_unit = 2 + r * math.log2(math.e)  # log2(4 e^|x|), the units of 2^-P each term may carry
    while True:
        P = max(0, math.ceil(log2_unit + math.log2(3 * r + N + 8 - log2_tol) + 2 - log2_H - log2_tol)) + 8
        Hr, Hi, log2_err = _negint_terms(N, fixed(x, P), P, P + log2_H + log2_tol - 2, sheet)
        found = (abs(Hr) | abs(Hi)).bit_length() - 1 - P  # 2^found <= |H|
        if log2_err <= P + found + log2_tol:
            return Hr, Hi, P
        if P > -4 * log2_tol:
            raise NonConvergent("the series of Gamma(-N, x) cancels beyond recovery")
        log2_H = found


def _negint_terms(N: int, X: tuple, P: int, log2_tail: float, sheet: bool) -> tuple:
    """(Hr, Hi, log2_err): the sum of ``_negint_series`` at x = (Xr + i Xi) 2^-P, as (Hr + i Hi) 2^-P within 2^(log2_err - P).

    T_(k+1) = (T_k y >> P) // (k + 1) lands within 3 units (of 2^-P) of the
    exact step from T_k, and an error in T_k reaches T_j times
    |y|^(j-k) k! / j! <= e^|y|, so every T_k is within 3 e^|y| units; each
    T_k / (k - N) adds one unit more.  psi(N + 1) = H_N - gamma and ln x are
    summed only when the loop reaches k = N, within N + 3 units.  So after
    term k the rounding is at most (k + N + 2 W + 6)(3 e^|y| + 1) units,
    below (k + N + 2 W + 6) 4 e^|y|.

    The loop stops on a bound of the whole tail, not on a small term: past
    k + 1 >= 2 |y| each ratio |T_(j+1) / T_j| = |y| / (j + 1) is at most
    rho = |y| / (k + 1) <= 1/2, and each later term carries a weight
    1/|j - N|: at most 1/(k + 1 - N) for k >= N, and at most
    W >= max(1, |psi(N + 1) - ln x|) before, since j = N takes the weight
    of its logarithm.  So the terms left sum to at most
    weight |T_k| rho / (1 - rho), and the loop stops once that is below
    2^log2_tail units, past the peak at k ~ |y| and not at k > N: Gamma(-N, x)
    for N far above |x| takes no more terms than e^-x does.
    """
    one = 1 << P
    Yr, Yi = -X[0], -X[1]
    r = math.hypot(Yr / one, Yi / one)
    W = 1 + math.log(N + 1) + abs(math.log(r)) + 2 * math.pi
    log2_W = math.log2(W)
    start = math.ceil(2 * r) - 1  # rho <= 1/2 from here on
    Tr, Ti, Sr, Si, TN = one, 0, 0, 0, None
    for k in range(10 ** 6):
        if k == N:
            TN = Tr, Ti
        else:
            Sr += Tr // (k - N)
            Si += Ti // (k - N)
        # |Tr| + |Ti| < 2^b, and rho / (1 - rho) = |y| / (k + 1 - |y|)
        if k >= start:
            tail = max(Tr.bit_length(), Ti.bit_length()) + 1 + math.log2(r / (k + 1 - r))
            tail += log2_W if k < N else -math.log2(k + 1 - N)
            if tail <= log2_tail:
                break
        Tr, Ti = (Tr * Yr - Ti * Yi >> P) // (k + 1), (Tr * Yi + Ti * Yr >> P) // (k + 1)
    else:
        raise NonConvergent("the series of Gamma(-N, x) did not converge")
    if TN is not None:
        psi = sum(one // j for j in range(1, N + 1)) - euler_fixed(P)
        log_re, log_im = mpc_log((from_man_exp(X[0], -P), from_man_exp(X[1], -P)), P)
        Lr, Li = psi - to_fixed(log_re, P), -to_fixed(log_im, P)
        if sheet and X[1] < 0:
            Li -= pi_fixed(P) << 1
        Sr -= TN[0] * Lr - TN[1] * Li >> P
        Si -= TN[0] * Li + TN[1] * Lr >> P
    rounding = math.log2(k + N + 2 * W + 6) + 2 + r * math.log2(math.e)
    return -Sr, -Si, max(rounding, tail) + 1


def _on_fraction(s, r) -> bool:
    """Whether ``upper_incomplete_gamma(s, x)`` takes the Legendre continued fraction for Re x > 0 and |x| = r.

    It does for r > |s| + 1, and for r > 6 with Re s = -N <= 1 - r, where
    the sums fail or cost most.  At a non-integer order the lower-gamma
    series stops in the dip its terms take while |s + j| > r (10^218 off at
    s = -288.5, x = 80 pi).  At an integer order the series of Gamma(-N, x)
    (``_negint_series``) sums terms up to e^r against a result of about
    e^(-Re x) / (r + N + 1), so it takes about 2 r log2(e) guard bits and
    more than e r terms; it stays while that cancellation is at most
    ``_GAMMA_DPS_PAD`` digits (r <= 11.5), as for every r <= 6, where the
    fraction would take about (ln 1/eps)^2 / 16 r steps.  Where it leaves,
    the fraction converges fast: at real order |a_j| / (b_(j-1) b_j) < 1/4,
    as (N + 2j)^2 >= 4 j (j + N), and it stops within a few hundred steps up
    to 100 digits.  The fraction converges for every Re x > 0, and
    ``regint.ray_sum`` runs it below this threshold too, at each term's
    share of its error budget.
    """
    if r > abs(s) + 1:
        return True
    N, r = -float(mp.re(s)), float(r)
    if not (r > 6 and N >= r - 1):
        return False
    return not mp.isint(s) or 2 * r * math.log10(math.e) > _GAMMA_DPS_PAD


def _legendre_fraction(s: tuple, x: tuple, P: int, log2_tol: float) -> tuple:
    """(Br, Bi, eB, Ar, Ai, eA, steps): 1/f = (Br + i Bi) 2^eB / ((Ar + i Ai) 2^eA) to relative 2^log2_tol.

    ``s`` and ``x`` are (Re, Im) integer pairs times 2^P.  f is the Legendre
    continued fraction b_0 + a_1/(b_1 + a_2/(b_2 + ...)) with
    b_j = x + 2j + 1 - s and a_j = -j (j - s) (DLMF 8.9.2), and the result is
    its convergent f_n at the depth n = ``steps``: n = m - 1 at a positive
    integer order m, where a_m = 0 and the fraction ends exactly, and
    otherwise the depth ``_fraction_depth`` fixes for the tolerance.

    f_n is one backward pass on Gaussian integers at the scale 2^P:
    t_n = b_n and t_(j-1) = b_(j-1) + a_j / t_j, so f_n = t_0.  Each t_j is
    held as a pair p_j / q_j, with p_(j-1) = b_(j-1) p_j + a_j q_j and
    q_(j-1) = p_j: one P-bit complex product per step, and at an integer
    order a_j q_j is a small integer times q_j.  p is shifted back to P bits
    at each step with its own exponent, and q keeps the exponent p had, so
    a large |t_j| costs q no precision: the result is 1/f = q_0 / p_0.  Each
    step rounds p within a few units of 2^-P relative, which the caller's
    guard bits absorb (``_CF_GUARD_BITS``); with the depth pass's margin the
    result is within 2^(log2_tol + 2) relative.
    """
    one = 1 << P
    sr, si = s
    # at an integer order m, a_j = j (m - j) is a small integer
    whole, m = not (si or sr & (one - 1)), sr >> P
    n = m - 1 if whole and m >= 1 else _fraction_depth(s, x, P, log2_tol)
    br, bi = x[0] + ((2 * n + 1) << P) - sr, x[1] - si  # b_n
    two = 2 * one
    qr, qi = one, 0
    e = d = (abs(br) | abs(bi)).bit_length() - P
    pr, pi = (br >> d, bi >> d) if d >= 0 else (br << -d, bi << -d)
    # p is (pr + i pi) 2^(e - P) and q is (qr + i qi) 2^(e - d - P), each of P bits
    for j in range(n, 0, -1):
        br -= two
        if whole:
            a = j * (m - j)
            Yr, Yi = a * qr, a * qi
        else:
            ar, ai = j * (sr - j * one), j * si
            Yr, Yi = ar * qr - ai * qi >> P, ar * qi + ai * qr >> P
        # b_(j-1) p_j + a_j q_j on p_j's exponent
        if d >= 0:
            Xr = (br * pr - bi * pi >> P) + (Yr >> d)
            Xi = (br * pi + bi * pr >> P) + (Yi >> d)
        else:
            Xr = (br * pr - bi * pi >> P) + (Yr << -d)
            Xi = (br * pi + bi * pr >> P) + (Yi << -d)
        qr, qi = pr, pi
        d = (abs(Xr) | abs(Xi)).bit_length() - P
        if d >= 0:
            pr, pi = Xr >> d, Xi >> d
        else:
            pr, pi = Xr << -d, Xi << -d
        e += d
    return qr, qi, e - d - P, pr, pi, e - P, n


def _fraction_depth(s: tuple, x: tuple, P: int, log2_tol: float) -> int:
    """The depth n at which the convergent f_n of ``_legendre_fraction`` is within 2^(log2_tol + 2) of f relative.

    A forward pass on Python floats, real when s and x are real and complex
    otherwise.  The Wallis recurrence A_j = b_j A_(j-1) + a_j A_(j-2), and
    the same for B, from (A_-1, A_0) = (1, b_0) and (B_-1, B_0) = (0, 1),
    runs as the ratios alpha_j = A_j / A_(j-1) and beta_j = B_j / B_(j-1),
    so no float overflows at any |x|.  Since
    A_j B_(j-1) - A_(j-1) B_j = (-1)^(j+1) a_1 ... a_j, the step is
    |f_j - f_(j-1)| / |f_j| = D_j = |a_1 ... a_j| / |A_j B_(j-1)|, and
    D_j = D_(j-1) |a_j / (alpha_j beta_(j-1))|, held with an exponent of
    its own past 2^-500.  The pass stops once D_j < 2^(log2_tol - 1), a bit
    inside the bit-length test of a fixed-point pass, against rounding.

    That test bounds the last step, not the error: the steps left sum to
    about the last one times r/(1 - r), r = |a_j A_(j-2) / A_j| the ratio of
    consecutive steps.  For r <= 4/5 that factor is at most 4.  Above it,
    where the fraction converges slowly (small |x|), the pass runs on until
    the step times r/(1 - r) is below 2^(log2_tol + 1).  s = m + frac with
    m the integer nearest Re s, so a_j = j ((m - j) + frac) keeps its digits
    when s lies within a float ulp of the integer j.
    """
    one = 1 << P
    m = s[0] + (one >> 1) >> P
    frac = (s[0] - (m << P)) / one
    b = x[0] / one + (1 - m) - frac  # b_0
    if s[1] or x[1]:
        frac = complex(frac, s[1] / one)
        b = complex(b, (x[1] - s[1]) / one)
    # j = 1: alpha_0 = b_0, beta_1 = b_1 and D_1 = |a_1 / A_1|
    a = m - 1 + frac
    alpha0 = b
    b += 2
    u = a / alpha0
    alpha = beta = b
    alpha += u
    D = abs(a / (alpha0 * alpha))
    lim = log2_tol - 1  # the pass stops once D < 2^lim; D holds D_j 2^(lim - log2_tol + 1)
    T = 2.0 ** lim
    for j in range(2, 10 ** 6):
        if D < T:
            r = abs(u / alpha)
            if r <= 0.8 or r < 1 and D * r / (1 - r) < 4 * T:
                return j - 1
        b += 2
        a = j * (m - j + frac)
        u, v = a / alpha, a / beta
        alpha = b + u
        D *= abs(v / alpha)
        beta = b + v
        if D < 1e-150:
            D, k = math.frexp(D)
            lim -= k
            T = 2.0 ** lim
    raise NonConvergent("upper gamma continued fraction did not converge")


def _dyadic(*values) -> tuple:
    """(Q, N_1, ..., N_n): each value is N_i / Q exactly, Q the least power of two (at least 2) that serves."""
    parts = [mp.mpf(v)._mpf_ for v in values]
    e = max([1] + [-x for _, _, x, _ in parts])
    return (1 << e, *((-m if sign else m) << (x + e) for sign, m, x, _ in parts))


def _kummer_sums(A: int, B: int, Q: int, Y: int, P: int, log2_eps: float, ds: bool, jet: bool) -> tuple:
    """(S0, S1, dS0, dS1) times 2^P: sum_j T_j and sum_j j T_j of 1F1(a; b; y), and the same of the s-derivatives dT_j.

    a = A/Q and b = B/Q are exact, Q a power of two; y = Y 2^-P.  The
    s-derivative runs along (a, b) = (s - mu, 2 s).  The terms
    T_(j+1) = T_j y (a + j) / ((b + j)(j + 1)) (DLMF 13.2.2) and
    dT_(j+1) = [dT_j y (a + j) + T_j y (b - 2a - j) / (b + j)] / ((b + j)(j + 1))
    take one P-bit product by y each; the rest multiplies and divides by the
    integers Q (a + j), Q (b + j) and Q (b - 2a - j), which are small for
    every seed.  No 1/(a + j) appears, so a = 0, where T_j = 0 from j = 1 on
    but dT_j is not, needs no case.  The weighted sums, y K'(y) and its
    s-derivative, are summed only for a ``jet``.

    The loop stops on a tail bound, not on a small term.  Past any j with
    b + j > 0, each ratio |T_(i+1) / T_i| is at most r = kappa y / (j + 1),
    kappa = 1 + |a - b| / (b + j), and |dT_(i+1)| <= r (|dT_i| + g |T_i|),
    g = (1 + 2 kappa) / (kappa (b + j)), for every i >= j.  With
    j + n <= (j + 1) n, sum n r^n = r / (1 - r)^2 and sum n^2 r^n <= 2 r / (1 - r)^3,
    no sum moves past T_j by more than (j + 1) r / (1 - r)^2 |T_j|, and no
    s-derivative sum by more than (j + 1) r / (1 - r)^2 (|dT_j| + 2 g |T_j| / (1 - r)).
    For r <= 1/2 the loop stops once the first is below 2^log2_eps (1 + |S0|)
    and the second below 2^log2_eps (1 + |dS0|).
    """
    one = 1 << P
    b, y, gap = B / Q, Y / one, abs(A - B) / Q
    T = S0 = one
    S1 = dT = dS0 = dS1 = 0
    N, D, C = A, B, B - 2 * A  # Q (a + j), Q (b + j) and Q (b - 2a - j), at j = 0
    # lead below is at least lead0, as (j + 1) r = kappa y >= y and 1 - r < 1,
    # so a term that passes the stop test's first half with lead0 needs no logarithm
    lead0 = math.log2(y) - log2_eps + 1 if y else 0.0
    # the first j at which the stop test below gets past b + j > 0 and r <= 1/2
    start = next(j for j in range(1, 10 ** 6) if b + j > 0 and (1 + gap / (b + j)) * y / (j + 1) <= 0.5)
    for j in range(1, 10 ** 6):
        Ty = T * Y >> P
        den = D * j
        if ds:
            dT = ((dT * Y >> P) * N * D + Ty * C * Q) // (den * D)
            dS0 += dT
        T = Ty * N // den
        S0 += T
        if jet:
            S1 += j * T
            dS1 += j * dT
        if not (N or ds):
            return S0, S1, dS0, dS1  # a = 1 - j: the series ends at T_(j-1)
        N += Q
        D += Q
        C -= Q
        if j < start:
            continue
        bj = b + j
        kappa = 1 + gap / bj
        r = kappa * y / (j + 1)
        if r > 0.5:
            continue
        if not r:
            return S0, S1, dS0, dS1  # y below 2^-P: every later term is 0
        # 2^(n - 1) <= v < 2^n for n = v.bit_length(), v > 0
        nT, nS = abs(T).bit_length(), (one + abs(S0)).bit_length()
        if nT + lead0 >= nS:
            continue
        lead = math.log2((j + 1) * r) - 2 * math.log2(1 - r) - log2_eps + 1
        if nT + lead >= nS:
            continue
        g = (1 + 2 * kappa) / (kappa * bj)
        if not ds or (abs(dT) + math.ceil(2 * g / (1 - r)) * abs(T)).bit_length() + lead < (one + abs(dS0)).bit_length():
            return S0, S1, dS0, dS1
    raise NonConvergent("confluent series iteration cap reached")


def _kummer_jet(A: int, B: int, Q: int, Y: int, P: int, c: list, d: list, J: int, ds: bool) -> None:
    """Extend c = [c_0, c_1] to c_0 .. c_J, c_r = y^r K^(r)(y) / r!, and with ``ds`` d = [d_0, d_1] to the same of dK/ds; all times 2^P.

    Kummer's equation y K'' + (b - y) K' - a K = 0 (DLMF 13.2.1),
    differentiated r times and multiplied by y^(r+1) / r!, reads
    (r + 1)(r + 2) c_(r+2) = (y - b - r)(r + 1) c_(r+1) + (a + r) y c_r.
    Its s-derivative along (a, b) = (s - mu, 2 s) adds the source
    K^(r) - 2 K^(r+1), that is y c_r - 2 (r + 1) c_(r+1), to the same
    recurrence for d_r.
    """
    for r in range(J - 1):
        den = (Q * (r + 1) * (r + 2)) << P
        lead = (Y * Q - ((B + r * Q) << P)) * (r + 1)
        cross = (A + r * Q) * Y
        if ds:
            d.append((lead * d[r + 1] + cross * d[r] + Q * Y * c[r] - ((2 * (r + 1) * Q * c[r + 1]) << P)) // den)
        c.append((lead * c[r + 1] + cross * c[r]) // den)


_cached_order = lru_cache(maxsize=1024)(series_order)


def _seed_order(rho: float, kappa, log2_tol: float) -> int:
    """``series_order`` at rho > 0 rounded up to a power of two, memoized: a few hundred seed clusters take a few bounds."""
    return _cached_order(2.0 ** math.frexp(rho)[1], kappa, log2_tol)


@lru_cache(maxsize=256)
def _exp_coeffs(J: int, P: int) -> tuple:
    """1/n! times 2^P for n <= J: the coefficients of exp."""
    c = [1 << P]
    for n in range(1, J + 1):
        c.append(c[-1] // n)
    return tuple(c)


@lru_cache(maxsize=256)
def _binomial_coeffs(num: int, den: int, J: int, P: int) -> tuple:
    """binom(e, n) times 2^P for n <= J, e = num/den: the coefficients of (1 + x)^e."""
    c = [1 << P]
    for n in range(J):
        c.append(c[-1] * (num - n * den) // (den * (n + 1)))
    return tuple(c)


@lru_cache(maxsize=256)
def _log1p_coeffs(J: int, P: int) -> tuple:
    """(-1)^n / (n + 1) times 2^P for n <= J: the coefficients of log1p(x) / x."""
    return tuple((-1) ** n * (1 << P) // (n + 1) for n in range(J + 1))


def _confluent(k: int, s, neg: bool, ds: bool, ctx: PrecisionContext) -> tuple:
    """(E, jet) for cal_M(k, s, -+y) (- for ``neg``): the prefactor's exponent s - k/2 = E_num/Q as (E_num, Q), and the cluster's confluent jet.

    Built once per (k, s, sign) at the working precision: call ``jet``
    under it.  jet(Yc, Rs) takes one confluent series at y_c = Yc 2^-P
    (``_kummer_sums``), which gives K = 1F1(a; b; y_c), a = s - mu, b = 2 s,
    and c_1 = y_c K'(y_c) = sum j T_j, and the same of dK/ds; Kummer's
    equation gives the rest of the jet (``_kummer_jet``), and it returns the
    lists (Ks, Ls) of the Taylor sums of K and dK/ds at each
    rho = R 2^-P = y / y_c - 1, all times 2^P.  A cluster of one (every
    R = 0) takes no jet.  The order is ``series_order`` at max |rho| < 1/2,
    ratio 1 and a Cauchy bound G on |t - y_c| = y_c: |(a)_j / ((b)_j j!)| <=
    kappa^j / j! and its s-derivative is at most (1 + 2 kappa) kappa^(j-1) j /
    (beta j!), kappa = max(1, sup_i |a + i| / |b + i|) and beta = min_i |b + i|
    over i >= 0, so every c_r is at most G = e^(2 kappa y_c), and every d_r
    at most G max(1, (1 + 2 kappa) 2 y_c / beta), the G of a ``ds`` jet.
    """
    Q, S = _dyadic(s)
    if S <= 0 and not 2 * S % Q:
        raise DomainError("2s must not be a nonpositive integer")
    hk = k * Q >> 1  # Q k/2
    A, B = S + hk if neg else S - hk, 2 * S  # Q a and Q b
    P = mp.mp.prec + GUARD_BITS
    tol, a, b = log2_eps(ctx), A / Q, B / Q
    near = range(max(0, math.ceil(-b)) + 1)  # |a + i| / |b + i| is monotone toward 1 past these i
    kappa, beta = max(1, *(abs(a + i) / abs(b + i) for i in near)), min(abs(b + i) for i in near)

    def jet(Yc: int, Rs: list) -> tuple:
        wide = any(Rs)
        S0, S1, dS0, dS1 = _kummer_sums(A, B, Q, Yc, P, tol, ds, wide)
        if not wide:
            return [S0] * len(Rs), [dS0] * len(Rs)
        c, d, y = [S0, S1], [dS0, dS1], Yc / (1 << P)
        log2_G = 2 * kappa * y * math.log2(math.e)
        if ds:
            log2_G += max(0, math.log2((1 + 2 * kappa) * 2 * y / beta))
        J = series_order(max(map(abs, Rs)) / (1 << P), 1, tol, log2_G)
        _kummer_jet(A, B, Q, Yc, P, c, d, J, ds)
        Ks = [taylor(c[:J + 1], R, P) for R in Rs]
        return Ks, [taylor(d[:J + 1], R, P) for R in Rs] if ds else Ks

    return (S - hk, Q), jet


def cal_M(k: int, s, u, ctx: PrecisionContext, ds: bool = False):
    """Normalized Whittaker value |u|^(-k/2) M_{sgn(u) k/2, s-1/2}(|u|), u != 0; with ``ds``, its s-derivative.

    That is y^(s - k/2) e^(-y/2) 1F1(s - mu; 2 s; y), y = |u|, mu = sgn(u) k/2,
    and its s-derivative y^(s - k/2) e^(-y/2) (log y 1F1 + d/ds 1F1).  A list
    or tuple ``u`` of arguments of one sign is a cluster: it returns the list
    of values, from one confluent series: the real seed ``Seed(k, sgn(u), s, ds)``
    at i |u| / (4 pi) (``_seed_kernel``, with y_c = |u| and r exact to 2^-P).
    """
    cluster = isinstance(u, (list, tuple))
    with mp.workdps(ctx.work_dps):
        us = [mp.mpf(v) for v in (u if cluster else [u])]
        if not us or not all(us):
            raise DomainError("cal_M requires u != 0")
        neg = us[0] < 0
        if any((v < 0) != neg for v in us):
            raise DomainError("a cal_M cluster takes arguments of one sign")
        P = mp.mp.prec + GUARD_BITS
        scale = _y_scale(1, P)
        Ys = [to_fixed(abs(v)._mpf_, 2 * P) for v in us]  # 4 pi Im w = |u|, times 2^(2P)
        Y = (min(Ys) + max(Ys)) >> 1
        D = [(0, (Z - Y + (scale >> 1)) // scale, ((Z - Y) << P) // Y, 0, 0) for Z in Ys]
        values = _seed_kernel(Seed(k, -1 if neg else 1, s, ds), ctx)(0, Y, D)
    values = [mp.make_mpf(from_man_exp(re, e, P)) for re, _, e in values]
    return values if cluster else values[0]


class Seed(NamedTuple):
    """The seed cal_M(k, s, 4 pi m y) e(m x) of the weight-k Poincare series, m != 0; with ``ds``, its s-derivative."""

    k: int
    m: int
    s: object
    ds: bool = False


@lru_cache(maxsize=64)
def _y_scale(m: int, P: int) -> int:
    """4 pi |m| times 2^P: the seed's argument 4 pi |m| Im w over Im w."""
    return to_fixed(mpf_mul(mpf_pi(P), from_int(4 * abs(m)), P), P)


@lru_cache(maxsize=64)
def _seed_kernel(seed: Seed, ctx: PrecisionContext) -> Callable:
    """The cluster evaluator (U, Y, D, factor=None) -> Gaussian values (re, im, e), (re + i im) 2^e, of ``seed`` at points near a centre.

    Built once per seed and context (memoized), and called under the working
    precision.  The centre is x + i y, with U = x 2^P and Y = y_c 2^(2P) > 0
    integers for y_c = 4 pi |m| y (Y = V ``_y_scale`` for V = y 2^P on the
    grid), P the working precision plus the guard bits.  Each point w takes
    an entry (dU, dV, R, Tr, Ti) of D: w - (x + i y) = (dU + i dV) 2^-P, dV
    within a unit, 4 pi |m| Im w = y_c (1 + r) for r = R 2^-P (R = dV 2^P / V
    for a point on the grid), and t = (Tr + i Ti) 2^-P; its value is the seed
    at w times factor (1 + t)^(-k), where the Gaussian ``factor``
    (Fr, Fi, f) = (Fr + i Fi) 2^f is the centre's j-factor (1 when None).
    The seed at w is

        y_c^E e^(-y_c/2) e(m x) (1 + r)^E F(r) exp(2 pi (i m dU - |m| dV) 2^-P),

    E = s - k/2, F = K(y_c (1 + r)) or, for the s-derivative,
    (log y_c + log1p(r)) K + dK/ds.  The centre takes the transcendental
    set once: one exponential (y_c^E e^(-y_c/2)), one phase e(m x) with
    m x reduced exactly to [0, 1), one logarithm (for ``ds`` or a
    non-integer E) and the caller's one j-factor; the confluent series is
    one per cluster (``_confluent``).  Each point then takes the binomial
    series (1 + r)^E and (1 + t)^(-k), log1p(r) and the exponential's series
    on fixed-point integers, each to the order ``_seed_order`` sets from the
    cluster's largest ratio for a remainder of 2^-(prec + 4), prec the working
    precision, so that together they stay within 2^-prec of the value: (1 + x)^e
    has ratios |e - n|/(n + 1) <= (kappa + n)/(n + 1) for kappa = max(|e|, 1),
    log1p(x)/x ratios below 1 (kappa 1).  A single point is a cluster of one and
    takes no series.  A cluster with max |r| >= 1/2 or an exponent of modulus
    1/2 or more takes each point as its own cluster.  Values keep P bits.
    """
    P = mp.mp.prec + GUARD_BITS
    one, m, k, ds = 1 << P, seed.m, seed.k, seed.ds
    two_pi = pi_fixed(P) << 1
    (E, Q), jet = _confluent(k, seed.s, m < 0, ds, ctx)
    power = E // Q if not E % Q else None
    log2_tol = -mp.mp.prec - 4
    kappa_E, kappa_k = max(abs(E) / Q, 1), max(abs(k), 1)

    def values(U: int, Y: int, D: list, factor=None) -> list:
        Rs = [R for _, _, R, _, _ in D]
        # 2 pi (i m dU - |m| dV), the exponent of e(m w) / e(m (x + i y)), times 2^P
        W = [(-(two_pi * abs(m) * dV) >> P, two_pi * m * dU >> P) for dU, dV, _, _, _ in D]
        rho = max(map(abs, Rs)) / one
        w_max = max(math.hypot(Wr / one, Wi / one) for Wr, Wi in W)
        if rho >= 0.5 or w_max >= 0.5:
            return [v for dU, _, R, Tr, Ti in D
                    for v in values(U + dU, Y + (Y * R >> P), [(0, 0, 0, Tr, Ti)], factor)]
        yc = from_man_exp(Y, -2 * P, P)
        Ks, Ls = jet(Y >> P, Rs)
        log_y = mpf_log(yc, P) if ds or power is None else None
        if power is None:
            pref = mpf_exp(mpf_sub(mpf_mul(from_man_exp(E, 1 - Q.bit_length()), log_y, P), mpf_shift(yc, -1), P), P)
        else:
            pref = mpf_exp(mpf_neg(mpf_shift(yc, -1)), P)
            if power:
                pref = mpf_mul(pref, mpf_pow_int(yc, power, P), P)
        sign, man, e, _ = pref
        mx = (m * U) & (one - 1)  # m x reduced exactly to [0, 1), times 2^P
        cos, sin = cos_sin_fixed(mx * two_pi >> P, P) if mx else (one, 0)
        if sign:
            man = -man
        Zr, Zi = man * cos >> P, man * sin >> P  # the centre's value over F is (Zr + i Zi) 2^e
        if factor:
            Fr, Fi, f = factor
            Zr, Zi, e = Zr * Fr - Zi * Fi >> P, Zr * Fi + Zi * Fr >> P, e + f + P
        t_max = max(math.hypot(Tr / one, Ti / one) for _, _, _, Tr, Ti in D)
        cR = _binomial_coeffs(E, Q, _seed_order(rho, kappa_E, log2_tol), P) if rho and E else None
        cL = _log1p_coeffs(_seed_order(rho, 1, log2_tol), P) if rho and ds else None
        cW = _exp_coeffs(_seed_order(w_max, None, log2_tol), P) if w_max else None
        cT = _binomial_coeffs(-k, 1, _seed_order(t_max, kappa_k, log2_tol), P) if t_max else None
        Lc = to_fixed(log_y, P) if ds else 0
        out = []
        for (_, _, R, Tr, Ti), (Wr, Wi), K, L in zip(D, W, Ks, Ls):
            F = ((Lc + (R * taylor(cL, R, P) >> P if cL else 0)) * K >> P) + L if ds else K
            if cR:
                F = F * taylor(cR, R, P) >> P
            Br, Bi = gauss_taylor(cW, Wr, Wi, P) if cW else (one, 0)
            if cT:
                Cr, Ci = gauss_taylor(cT, Tr, Ti, P)
                Br, Bi = Br * Cr - Bi * Ci >> P, Br * Ci + Bi * Cr >> P
            Br, Bi = Br * F >> P, Bi * F >> P
            out.append((Zr * Br - Zi * Bi, Zr * Bi + Zi * Br, e - P))
        return out

    return values


def _seed_points(seed: Seed, points) -> list:
    """``points`` as mpc values, unrounded, once m != 0 and every Im z > 0 are checked."""
    if seed.m == 0:
        raise DomainError("a seed requires m != 0")
    points = [mp.mpmathify(z) for z in points]
    if not all(z.imag > 0 for z in points):
        raise DomainError("a seed requires Im z > 0")
    return points


def seed_values(seed: Seed, points, ctx: PrecisionContext) -> list:
    """``seed`` at each of ``points`` (Im > 0), as one cluster about their mean: a stencil's values in one call."""
    with mp.workdps(ctx.work_dps):
        points = _seed_points(seed, points)
        P = mp.mp.prec + GUARD_BITS
        X, Y = [to_fixed(z.real._mpf_, P) for z in points], [to_fixed(z.imag._mpf_, P) for z in points]
        U, V = sum(X) // len(X), sum(Y) // len(Y)
        D = [(x - U, y - V, ((y - V) << P) // V, 0, 0) for x, y in zip(X, Y)]
        return [gauss_mpc(v, P) for v in _seed_kernel(seed, ctx)(U, V * _y_scale(seed.m, P), D)]


def psi_seed(k: int, m: int, z, ctx: PrecisionContext) -> mp.mpc:
    """Seed d/ds[cal_M(k, s, 4 pi m y)]_{s=k/2} e(m x) for the weight-k series, k >= 1: ``Seed(k, m, k/2, ds=True)`` at z.

    The s-derivative is in closed form: Kummer's series and its s-derivative
    are summed in one loop.
    """
    return seed_values(Seed(k, m, mp.mpf(k) / 2, True), [z], ctx)[0]


def whittaker_derivative_identity_check(k: int, y, ctx: PrecisionContext) -> RelationReport:
    """Residual of the nested-derivative collapse of the normalized Whittaker seed.

    Left side: d/dy' [ d/ds cal_M(k, s, -y') e^(-y'/2) ]_{s=k/2, y'=y}, the
    s-derivative in closed form, the y-derivative by a central difference at
    ``ctx.fd_step`` whose two values come from one cal_M cluster; right side:
    e^(-y/2) y^(-k) cal_M(2-k, k/2, y).  Raises StepTooLarge when the stencil
    reaches y' <= 0, where -y' would flip mu.
    """
    with mp.workdps(ctx.work_dps):
        y = mp.mpf(y)
        if y <= 0:
            raise DomainError("identity check requires y > 0")
        h = mp.mpf(ctx.fd_step)
        if y - h <= 0:
            raise StepTooLarge("y-stencil crosses y = 0")
        up, down = cal_M(k, mp.mpf(k) / 2, [-(y + h), -(y - h)], ctx, ds=True)
        lhs = (up * mp.exp(-(y + h) / 2) - down * mp.exp(-(y - h) / 2)) / (2 * h)
        rhs = mp.exp(-y / 2) * y ** mp.mpf(-k) * cal_M(2 - k, mp.mpf(k) / 2, y, ctx)
        return RelationReport.single(
            identity=f"whittaker_derivative_identity[k={k},y={mp.nstr(y, 15)}]",
            point=mp.mpc(y),
            residual=relative_residual(lhs, rhs),
            tolerance=ctx.tol_fd,
        )
