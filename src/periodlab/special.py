"""Special functions: incomplete gamma, normalized Whittaker values, seeds.

Conventions used throughout:

* ``upper_incomplete_gamma(s, x)`` is Gamma(s, x) = int_x^oo t^(s-1) e^(-t) dt
  for real or complex s and x, on the principal branch; it is the package's
  only incomplete-gamma/E1 routine.  Its branches are the Legendre continued
  fraction for large x in the right half-plane, the E1 anchor plus a finite
  sum for nonpositive integer order, and Gamma(s) minus the lower-gamma
  series otherwise.
* ``scaled_upper_gamma(s, x, eps)`` = e^x x^(-s) Gamma(s, x) is 1/f for
  that continued fraction f.  It runs the Wallis forward recurrence on
  Gaussian fixed-point integers at -log2(eps) plus guard bits, with the
  numerator and denominator pairs renormalized separately by shifts, and a
  stop test in float log2 that takes no division.  ``regint.ray_sum`` calls
  it directly, since its terms need only 1/f.
* ``cal_M(k, s, u) = |u|^(-k/2) M_{sgn(u) k/2, s - 1/2}(|u|)`` is computed
  from the confluent hypergeometric series everywhere (entire in the
  argument), summed on fixed-point integers at the working precision plus
  guard bits.  The classical integral representation of M_{mu, nu}(y) is a
  test oracle only (``tests/oracles.py``), since it degenerates on the
  boundary Re(nu - mu + 1/2) = 0 that the seed functions sit on.
"""

from __future__ import annotations

import math

import mpmath as mp

from .kernel import DomainError, NonConvergent, PrecisionContext, StepTooLarge
from .reports import RelationReport, residual_scale

_GAMMA_DPS_PAD = 10
# bits the fixed-point continued fraction carries beyond -log2(eps): they
# absorb the rounding of the b_j and of the thousands of recurrence steps
# that arguments near the imaginary axis with |x| close to |s| + 1 take
_CF_GUARD_BITS = 32
# bits the fixed-point confluent series carries beyond the working precision
_KUMMER_GUARD_BITS = 20


def upper_incomplete_gamma(s, x, ctx: PrecisionContext):
    """Gamma(s, x) for real or complex order s and argument x.

    A real x must be positive.  A complex x may be any nonzero number; on
    the negative real axis the value is the limit from above (arg x = pi),
    as in mpmath.  A complex s with zero imaginary part, and a complex x on
    the positive real axis, are taken as real and run real arithmetic.  The
    branches:

    * Re x > 0 and |x| > |s| + 1: the Legendre continued fraction
      (DLMF 8.9), ``scaled_upper_gamma``; it holds for every order.
    * s = -N for an integer N >= 0:
      Gamma(-N, x) = (-1)^N/N! (E1(x) - e^(-x) sum_{j<N} (-1)^j j! x^(-j-1)).
    * otherwise: Gamma(s) minus the lower-gamma series.

    The two sums can cancel.  When they lose more digits than the guard
    pad, the same branch runs again with that many more digits, so the
    result always carries ``ctx.work_dps`` digits.
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
    if mp.re(x) > 0 and abs(x) > abs(s) + 1:
        value = mp.exp(-x) * x ** s * scaled_upper_gamma(s, x, eps)
        return value, abs(value)
    if mp.isint(s) and s <= 0:
        N = int(-s)
        e1, emx = mp.e1(x), mp.exp(-x)
        acc, term, top = 0, 1 / x, 0
        for j in range(N):
            acc += term
            top = max(top, abs(term))
            term *= -(j + 1) / x
        c = (-1) ** N / mp.factorial(N)
        return c * (e1 - emx * acc), abs(c) * max(abs(e1), abs(emx) * top)
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


def _fixed(v, P: int) -> tuple:
    """(Re v, Im v) times 2^P, as integers."""
    if isinstance(v, mp.mpc):
        return v.real.to_fixed(P), v.imag.to_fixed(P)
    return mp.mpf(v).to_fixed(P), 0


def scaled_upper_gamma(s, x, eps):
    """e^x x^(-s) Gamma(s, x) = 1/f to relative ``eps``, for Re x > 0 and |x| > |s| + 1.

    f is the Legendre continued fraction b_0 + a_1/(b_1 + a_2/(b_2 + ...))
    with b_j = x + 2j + 1 - s and a_j = -j (j - s) (DLMF 8.9.2).  The Wallis
    recurrence A_j = b_j A_(j-1) + a_j A_(j-2), and the same for B, from
    (A_-1, A_0) = (1, b_0), (B_-1, B_0) = (0, 1), runs on Gaussian integers
    at the scale 2^P, P = -log2(eps) + guard bits; each pair is shifted back
    to about P bits on its own, so a large |f| costs B no precision.  Since
    A_j B_(j-1) - A_(j-1) B_j = (-1)^(j+1) a_1 ... a_j, the step satisfies
    |f_n - f_(n-1)| / |f_n| = |a_1 ... a_n| / |A_n B_(n-1)|; the sum of
    float log2 |a_j| against bit lengths stops the loop once that is below
    ``eps``, with no division.  At a positive integer order a_s = 0 and the
    fraction ends exactly.  The result is B_n / A_n: an mpf for real s and
    x, an mpc otherwise.
    """
    P = _CF_GUARD_BITS - mp.mag(eps)
    log2_eps = float(mp.mag(eps) - 1)
    one = 1 << P
    sr, si = _fixed(s, P)
    br, bi = _fixed(x, P)
    br += one - sr
    bi -= si
    sc = complex(s)
    # with both imaginary parts zero, every imaginary half below stays 0
    real = not (si or bi)
    Ar2, Ai2, Ar1, Ai1 = one, 0, br, bi
    Br2, Bi2, Br1, Bi1 = 0, 0, one, 0
    Ai = Bi = 0
    eA = eB = -P
    log2_a = 0.0
    for j in range(1, 10 ** 6):
        ar, ai = j * (sr - j * one), j * si
        if not (ar or ai):
            break
        br += 2 * one
        if real:
            Ar = (br * Ar1 + ar * Ar2) >> P
            Br = (br * Br1 + ar * Br2) >> P
        else:
            Ar = (br * Ar1 - bi * Ai1 + ar * Ar2 - ai * Ai2) >> P
            Ai = (br * Ai1 + bi * Ar1 + ar * Ai2 + ai * Ar2) >> P
            Br = (br * Br1 - bi * Bi1 + ar * Br2 - ai * Bi2) >> P
            Bi = (br * Bi1 + bi * Br1 + ar * Bi2 + ai * Br2) >> P
        # s within a float ulp of the integer j: |j - s| from the fixed-point parts
        a = abs(j * (j - sc))
        log2_a += math.log2(a) if a else math.log2(j) + 0.5 * math.log2((j * one - sr) ** 2 + si * si) - P
        # 2^(bit length - 1) <= max(|re|, |im|) <= |A|, so this overestimates the step
        nA = max(Ar.bit_length(), Ai.bit_length())
        nB1 = max(Br1.bit_length(), Bi1.bit_length())
        converged = log2_a - (nA - 1 + eA) - (nB1 - 1 + eB) < log2_eps
        Ar2, Ai2, Ar1, Ai1 = Ar1, Ai1, Ar, Ai
        Br2, Bi2, Br1, Bi1 = Br1, Bi1, Br, Bi
        if converged:
            break
        # keep each pair within 8 bits of 2^P
        d = nA - P
        if d > 8:
            Ar2, Ai2, Ar1, Ai1 = Ar2 >> d, Ai2 >> d, Ar1 >> d, Ai1 >> d
            eA += d
        elif d < -8:
            Ar2, Ai2, Ar1, Ai1 = Ar2 << -d, Ai2 << -d, Ar1 << -d, Ai1 << -d
            eA += d
        d = max(Br.bit_length(), Bi.bit_length()) - P
        if d > 8:
            Br2, Bi2, Br1, Bi1 = Br2 >> d, Bi2 >> d, Br1 >> d, Bi1 >> d
            eB += d
        elif d < -8:
            Br2, Bi2, Br1, Bi1 = Br2 << -d, Bi2 << -d, Br1 << -d, Bi1 << -d
            eB += d
    else:
        raise NonConvergent("upper gamma continued fraction did not converge")
    if isinstance(s, mp.mpc) or isinstance(x, mp.mpc):
        return mp.mpc(mp.mpf((Br1, eB)), mp.mpf((Bi1, eB))) / mp.mpc(mp.mpf((Ar1, eA)), mp.mpf((Ai1, eA)))
    return mp.mpf((Br1, eB)) / mp.mpf((Ar1, eA))


def _kummer_series(a, b, y, ctx: PrecisionContext) -> mp.mpf:
    """Confluent hypergeometric 1F1(a; b; y) by direct summation (entire in y).

    The terms T_(j+1) = T_j (a + j) y / ((b + j)(j + 1)) (DLMF 13.2.2) run
    on integers at the scale 2^P, P = ``mp.prec`` + guard bits, each
    quotient rounded toward zero.  The loop stops at the first term, from
    the fifth on, with |T_j| 2^(1 - mag(eps)) < 2^P + |sum|, which implies
    |T_j| < eps (1 + |sum|).
    """
    P = mp.mp.prec + _KUMMER_GUARD_BITS
    one = 1 << P
    A, B, Y = mp.mpf(a).to_fixed(P), mp.mpf(b).to_fixed(P), mp.mpf(y).to_fixed(P)
    stop_shift = 1 - mp.mag(ctx.eps())
    # ((A + j 2^P) Y) >> P = ((A Y) >> P) + j Y exactly, so N and D step by addition
    N, D = (A * Y) >> P, B
    term = total = one
    for j in range(1, 10 ** 6):
        num, den = term * N, D * j
        term = num // den if (num < 0) == (den < 0) else -(-num // den)
        total += term
        if j > 4 and abs(term) << stop_shift < one + abs(total):
            return mp.mpf((total, -P))
        N += Y
        D += one
    raise NonConvergent("confluent series iteration cap reached")


def cal_M(k: int, s, u, ctx: PrecisionContext) -> mp.mpf:
    """Normalized Whittaker value |u|^(-k/2) M_{sgn(u) k/2, s-1/2}(|u|), u != 0.

    That is |u|^(s - k/2) e^(-|u|/2) 1F1(s - mu; 2 s; |u|) with mu = sgn(u) k/2.
    """
    if u == 0:
        raise DomainError("cal_M requires u != 0")
    with mp.workdps(ctx.work_dps):
        s = mp.mpf(s)
        two_s = 2 * s
        if two_s <= 0 and mp.isint(two_s):
            raise DomainError("2s must not be a nonpositive integer")
        y = abs(mp.mpf(u))
        half_k = mp.mpf(k) / 2
        mu = half_k if u > 0 else -half_k
        return y ** (s - half_k) * mp.exp(-y / 2) * _kummer_series(s - mu, two_s, y, ctx)


def psi_seed(k: int, m: int, z, ctx: PrecisionContext, step=None) -> mp.mpc:
    """Seed d/ds[cal_M(k, s, 4 pi m y)]_{s=k/2} e(m x) for the weight-k series.

    Central difference in s for m < 0; for m > 0 the point s = k/2 is the
    boundary of the terminating regime, so a one-sided second-order stencil
    from s > k/2 is used instead.
    """
    if m == 0:
        raise DomainError("psi_seed requires m != 0")
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("psi_seed requires Im z > 0")
        h = mp.mpf(step) if step is not None else mp.mpf(ctx.fd_step)
        s0 = mp.mpf(k) / 2
        u = 4 * mp.pi * m * mp.im(z)
        if 2 * (s0 - h) <= 0:
            raise StepTooLarge("s-step crosses the confluent series pole")
        if m < 0:
            d = (cal_M(k, s0 + h, u, ctx) - cal_M(k, s0 - h, u, ctx)) / (2 * h)
        else:
            d = (
                -3 * cal_M(k, s0, u, ctx)
                + 4 * cal_M(k, s0 + h, u, ctx)
                - cal_M(k, s0 + 2 * h, u, ctx)
            ) / (2 * h)
        return d * mp.exp(2j * mp.pi * m * mp.re(z))


def whittaker_derivative_identity_check(k: int, y, ctx: PrecisionContext) -> RelationReport:
    """Residual of the nested-derivative collapse of the normalized Whittaker seed.

    Left side: d/ds [ d/dy' ( cal_M(k, s + k/2, -y') e^(-y'/2) ) ]_{s=0, y'=y}
    by central differences; right side: e^(-y/2) y^(-k) cal_M(2-k, k/2, y).
    The s- and y-steps use 10^(-digits/5), balancing the nested truncation
    against roundoff at the elevated working precision.
    """
    with mp.workdps(ctx.work_dps):
        y = mp.mpf(y)
        if y <= 0:
            raise DomainError("identity check requires y > 0")
        h = mp.mpf(10) ** (-mp.mpf(ctx.digits) / 5)

        def inner(s, yy):
            return cal_M(k, s + mp.mpf(k) / 2, -yy, ctx) * mp.exp(-yy / 2)

        def ddy(s):
            return (inner(s, y + h) - inner(s, y - h)) / (2 * h)

        lhs = (ddy(h) - ddy(-h)) / (2 * h)
        rhs = mp.exp(-y / 2) * y ** mp.mpf(-k) * cal_M(2 - k, mp.mpf(k) / 2, y, ctx)
        resid = abs(lhs - rhs) / residual_scale(lhs, rhs)
        return RelationReport.single(
            identity=f"whittaker_derivative_identity[k={k},y={mp.nstr(y, 15)}]",
            point=mp.mpc(y),
            residual=resid,
            tolerance=ctx.tol_fd,
        )
