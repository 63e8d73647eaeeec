"""Special functions: incomplete gamma, normalized Whittaker values, seeds.

Conventions used throughout:

* ``upper_incomplete_gamma(s, x)`` is Gamma(s, x) = int_x^oo t^(s-1) e^(-t) dt
  for real or complex s and x, on the principal branch; it is the package's
  only incomplete-gamma/E1 routine.  Its branches are the Legendre continued
  fraction in the right half-plane for large x or a large negative order
  (``_on_fraction``), the E1 anchor plus a finite sum for other nonpositive
  integer orders, and Gamma(s) minus the lower-gamma series otherwise.
* e^x x^(-s) Gamma(s, x) is 1/f for that continued fraction f, from its
  one implementation ``_legendre_fraction``: the Wallis forward recurrence
  on Gaussian fixed-point integers at a given scale 2^P, with the numerator
  and denominator pairs renormalized separately by shifts, and a stop test
  in float log2 that takes no division, at any relative tolerance.  At an
  integer order, which every ray-sum term and Gamma(-N, x) take, a_j is a
  small integer and each step multiplies by it with no P-bit product.
  ``regint.ray_sum`` runs it directly for every term, on its own
  fixed-point arguments and at each term's share of the sum's error budget;
  ``_on_fraction`` picks only ``upper_incomplete_gamma``'s branch.
* The E1 branch sums its finite part by Horner in 1/x, and sizes its
  cancellation from float magnitudes (lgamma and log |x|).
* ``cal_M(k, s, u) = |u|^(-k/2) M_{sgn(u) k/2, s - 1/2}(|u|)`` is computed
  from the confluent hypergeometric series everywhere (entire in the
  argument), summed on fixed-point integers at the working precision plus
  guard bits; the same loop sums its s-derivative, so the seed ``psi_seed``
  takes no difference in s.  The integral representation of M_{mu, nu}(y)
  is a test oracle only (``tests/oracles.py``): it degenerates on the
  boundary Re(nu - mu + 1/2) = 0 that the seed functions sit on.
"""

from __future__ import annotations

import math

import mpmath as mp

from .kernel import DomainError, NonConvergent, PrecisionContext, StepTooLarge
from .reports import RelationReport, relative_residual

_GAMMA_DPS_PAD = 10
# bits the fixed-point continued fraction carries beyond -log2(eps): they
# absorb the rounding of the b_j and of the thousands of recurrence steps
# that arguments near the imaginary axis with |x| near or below |s| + 1 take
_CF_GUARD_BITS = 32
# bits the fixed-point confluent series carries beyond the working precision
_KUMMER_GUARD_BITS = 20


def upper_incomplete_gamma(s, x, ctx: PrecisionContext):
    """Gamma(s, x) for real or complex order s and argument x.

    A real x must be positive.  A complex x may be any nonzero number; on
    the negative real axis the value is the limit from above (arg x = pi),
    as in mpmath.  A complex s with zero imaginary part, and a complex x on
    the positive real axis, are taken as real.  The branches:

    * Re x > 0 and |x| > |s| + 1, or |x| > 6 and Re s <= 1 - |x| where
      the sums below fail (``_on_fraction``): the Legendre continued
      fraction (DLMF 8.9), ``_legendre_fraction``.
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
    if mp.re(x) > 0 and _on_fraction(s, abs(x)):
        # e^x x^(-s) Gamma(s, x) = 1/f, the Legendre continued fraction, within
        # 2^(log2_tol + 2) = 2^(mag(eps) - 1) <= eps relative
        P = _CF_GUARD_BITS - mp.mag(eps)
        Br, Bi, eB, Ar, Ai, eA, _ = _legendre_fraction(_fixed(s, P), _fixed(x, P), P, float(mp.mag(eps) - 3))
        if isinstance(s, mp.mpc) or isinstance(x, mp.mpc):
            scaled = mp.mpc(mp.mpf((Br, eB)), mp.mpf((Bi, eB))) / mp.mpc(mp.mpf((Ar, eA)), mp.mpf((Ai, eA)))
        else:
            scaled = mp.mpf((Br, eB)) / mp.mpf((Ar, eA))
        value = mp.exp(-x) * x ** s * scaled
        return value, abs(value)
    if mp.isint(s) and s <= 0:
        # sum_{j<N} (-1)^j j! y^(j+1) = y (1 - y (1 - 2 y (1 - ... (1 - (N-1) y)))), y = 1/x
        N, y, acc = int(-s), 1 / x, 0
        for j in range(N, 0, -1):
            acc = y * (1 - j * acc)
        e1, emx = mp.e1(x), mp.exp(-x)
        c = (-1) ** N / mp.factorial(N)
        with mp.workprec(53):
            log_x = float(mp.log(abs(x)))
        # log(j! |x|^(-j-1)) is convex in j, so the largest summand is the first or the last
        top = mp.exp(max(-log_x, math.lgamma(N) - N * log_x)) if N else 0
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


def _on_fraction(s, r) -> bool:
    """Whether ``upper_incomplete_gamma(s, x)`` takes the Legendre continued fraction for Re x > 0 and |x| = r.

    It does for r > |s| + 1, and for r > 6 with Re s = -N <= 1 - r, where
    the sums fail: at integer -N the finite sum outgrows the result by about
    r^(N-1) N / N! (75 digits at N = 288, r = 62 pi), and at any other order
    the lower-gamma series stops in the dip its terms take while |s + j| > r
    (10^218 off at s = -288.5, x = 80 pi).  There the fraction converges
    fast: at real order |a_j| / (b_(j-1) b_j) < 1/4, as (N + 2j)^2 >= 4 j (j + N),
    and it stops within a few hundred steps up to 100 digits.  At integer
    order E1 stays while the sum loses at most ``_GAMMA_DPS_PAD`` digits, as
    for every r <= 6, where the fraction would take about (ln 1/eps)^2 / 16 r steps.
    The fraction converges for every Re x > 0, and ``regint.ray_sum`` runs
    it below this threshold too, at each term's share of its error budget.
    """
    if r > abs(s) + 1:
        return True
    N, r = -float(mp.re(s)), float(r)
    if not (r > 6 and N >= r - 1):
        return False
    return not mp.isint(s) or (N - 1) * math.log(r) + math.log(N) - math.lgamma(N + 1) > _GAMMA_DPS_PAD * math.log(10)


def _fixed(v, P: int) -> tuple:
    """(Re v, Im v) times 2^P, as integers."""
    if isinstance(v, mp.mpc):
        return v.real.to_fixed(P), v.imag.to_fixed(P)
    return mp.mpf(v).to_fixed(P), 0


def _legendre_fraction(s: tuple, x: tuple, P: int, log2_tol: float) -> tuple:
    """(Br, Bi, eB, Ar, Ai, eA, steps): 1/f = (Br + i Bi) 2^eB / ((Ar + i Ai) 2^eA) to relative 2^log2_tol.

    ``s`` and ``x`` are (Re, Im) integer pairs times 2^P.  f is the Legendre
    continued fraction b_0 + a_1/(b_1 + a_2/(b_2 + ...)) with
    b_j = x + 2j + 1 - s and a_j = -j (j - s) (DLMF 8.9.2).  The Wallis recurrence
    A_j = b_j A_(j-1) + a_j A_(j-2), and the same for B, from
    (A_-1, A_0) = (1, b_0), (B_-1, B_0) = (0, 1), runs on Gaussian integers
    at the scale 2^P; each pair is shifted back to about P bits on its own,
    so a large |f| costs B no precision.  At an integer order a_j is a small
    integer, and the step adds a_j A_(j-2) after the shift, with no P-bit
    product: since (a_j 2^P A) >> P = a_j A exactly, the result is the
    same.  Since A_j B_(j-1) - A_(j-1) B_j = (-1)^(j+1) a_1 ... a_j, the step satisfies
    |f_n - f_(n-1)| / |f_n| = |a_1 ... a_n| / |A_n B_(n-1)|; the sum of
    float log2 |a_j| against bit lengths stops the loop once that is below
    2^log2_tol, with no division, after ``steps`` steps.  At a positive
    integer order m, a_m = 0 and the fraction ends exactly after m - 1 steps.

    That test bounds the last step, not the error: the steps left sum to
    about the last one times r/(1 - r), r = |a_j A_(j-2) / A_j| the ratio of
    consecutive steps, read off the leading bits.  For r <= 4/5 that factor
    is at most 4.  Above it, where the fraction converges slowly (small |x|),
    the loop runs on until the step times r/(1 - r) is below
    2^(log2_tol + 2).  Either way the result is within about
    2^(log2_tol + 2) relative.
    """
    one = 1 << P
    sr, si = s
    br, bi = x
    br += one - sr
    bi -= si
    sc = complex(sr / one, si / one)
    # at an integer order m, a_j = j (m - j) is a small integer
    whole, m = not (si or sr & (one - 1)), sr >> P
    Ar2, Ai2, Ar1, Ai1 = one, 0, br, bi
    Br2, Bi2, Br1, Bi1 = 0, 0, one, 0
    eA = eB = -P
    log2_a = 0.0
    two = 2 * one
    for j in range(1, 10 ** 6):
        br += two
        if whole:
            a = j * (m - j)
            if not a:
                j -= 1
                break
            Ar = (br * Ar1 - bi * Ai1 >> P) + a * Ar2
            Ai = (br * Ai1 + bi * Ar1 >> P) + a * Ai2
            Br = (br * Br1 - bi * Bi1 >> P) + a * Br2
            Bi = (br * Bi1 + bi * Br1 >> P) + a * Bi2
            la = math.log2(abs(a))
        else:
            ar, ai = j * (sr - j * one), j * si
            Ar = (br * Ar1 - bi * Ai1 + ar * Ar2 - ai * Ai2) >> P
            Ai = (br * Ai1 + bi * Ar1 + ar * Ai2 + ai * Ar2) >> P
            Br = (br * Br1 - bi * Bi1 + ar * Br2 - ai * Bi2) >> P
            Bi = (br * Bi1 + bi * Br1 + ar * Bi2 + ai * Br2) >> P
            # s within a float ulp of the integer j: |j - s| from the fixed-point parts
            a = abs(j * (j - sc))
            la = math.log2(a) if a else math.log2(j) + 0.5 * math.log2((j * one - sr) ** 2 + si * si) - P
        log2_a += la
        # 2^(bit length - 1) <= max(|re|, |im|) <= |A|, so this overestimates the step
        nA = (abs(Ar) | abs(Ai)).bit_length()  # max of the two bit lengths
        nB1 = (abs(Br1) | abs(Bi1)).bit_length()
        step = log2_a - (nA - 1 + eA) - (nB1 - 1 + eB)
        converged = step < log2_tol
        if converged:
            # the steps left sum to about 2^step r/(1 - r): at most 2^(log2_tol + 2) for r <= 4/5
            sh = max(nA - 60, 0)
            r = 2 ** la * abs(complex(Ar2 >> sh, Ai2 >> sh)) / abs(complex(Ar >> sh, Ai >> sh))
            converged = r <= 0.8 or r < 1 and step + math.log2(r / (1 - r)) < log2_tol + 2
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
        d = (abs(Br) | abs(Bi)).bit_length() - P
        if d > 8:
            Br2, Bi2, Br1, Bi1 = Br2 >> d, Bi2 >> d, Br1 >> d, Bi1 >> d
            eB += d
        elif d < -8:
            Br2, Bi2, Br1, Bi1 = Br2 << -d, Bi2 << -d, Br1 << -d, Bi1 << -d
            eB += d
    else:
        raise NonConvergent("upper gamma continued fraction did not converge")
    return Br1, Bi1, eB, Ar1, Ai1, eA, j


def _kummer_series(a, b, y, ctx: PrecisionContext, ds: bool = False):
    """1F1(a; b; y) by direct summation (entire in y); with ``ds``, (1F1, d/ds 1F1) along (a, b) = (s - mu, 2 s).

    The terms T_(j+1) = T_j N_j / ((b + j)(j + 1)), N_j = (a + j) y (DLMF
    13.2.2), and dT_(j+1) = [dT_j N_j + T_j C_j / (b + j)] / ((b + j)(j + 1)),
    C_j = (b - 2 a - j) y, run on integers at the scale 2^P, P = ``mp.prec``
    + guard bits, each quotient rounded toward zero.  No 1/(a + j) appears,
    so a = 0, where T_j = 0 from j = 1 on but dT_j is not, needs no case.
    The loop stops at the first j from the fifth on where each term summed
    has |T_j| 2^(1 - mag(eps)) < 2^P + |its sum|, so |T_j| < eps (1 + |sum|).
    """
    P = mp.mp.prec + _KUMMER_GUARD_BITS
    one = 1 << P
    A, B, Y = mp.mpf(a).to_fixed(P), mp.mpf(b).to_fixed(P), mp.mpf(y).to_fixed(P)
    stop_shift = 1 - mp.mag(ctx.eps())
    # ((A + j 2^P) Y) >> P = ((A Y) >> P) + j Y exactly, so N, C and D step by addition
    N, C, D = (A * Y) >> P, ((B - 2 * A) * Y) >> P, B
    term = total = one
    dterm = dtotal = 0
    div = lambda num, den: num // den if (num < 0) == (den < 0) else -(-num // den)
    for j in range(1, 10 ** 6):
        den = D * j
        if ds:
            dterm = div(dterm * N + (div(term * C, D) << P), den)
            dtotal += dterm
        term = div(term * N, den)
        total += term
        if j > 4 and abs(term) << stop_shift < one + abs(total) and abs(dterm) << stop_shift < one + abs(dtotal):
            return (mp.mpf((total, -P)), mp.mpf((dtotal, -P))) if ds else mp.mpf((total, -P))
        N += Y
        C -= Y
        D += one
    raise NonConvergent("confluent series iteration cap reached")


def cal_M(k: int, s, u, ctx: PrecisionContext, ds: bool = False) -> mp.mpf:
    """Normalized Whittaker value |u|^(-k/2) M_{sgn(u) k/2, s-1/2}(|u|), u != 0; with ``ds``, its s-derivative.

    That is y^(s - k/2) e^(-y/2) 1F1(s - mu; 2 s; y), y = |u|, mu = sgn(u) k/2,
    and its s-derivative y^(s - k/2) e^(-y/2) (log y 1F1 + d/ds 1F1).
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
        F = _kummer_series(s - mu, two_s, y, ctx, ds)
        return y ** (s - half_k) * mp.exp(-y / 2) * (mp.log(y) * F[0] + F[1] if ds else F)


def psi_seed(k: int, m: int, z, ctx: PrecisionContext) -> mp.mpc:
    """Seed d/ds[cal_M(k, s, 4 pi m y)]_{s=k/2} e(m x) for the weight-k series, k >= 1.

    The s-derivative is in closed form: ``cal_M(..., ds=True)``, which sums
    Kummer's series and its s-derivative in one loop.
    """
    if m == 0:
        raise DomainError("psi_seed requires m != 0")
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("psi_seed requires Im z > 0")
        d = cal_M(k, mp.mpf(k) / 2, 4 * mp.pi * m * mp.im(z), ctx, ds=True)
        return d * mp.exp(2j * mp.pi * m * mp.re(z))


def whittaker_derivative_identity_check(k: int, y, ctx: PrecisionContext) -> RelationReport:
    """Residual of the nested-derivative collapse of the normalized Whittaker seed.

    Left side: d/dy' [ d/ds cal_M(k, s, -y') e^(-y'/2) ]_{s=k/2, y'=y}, the
    s-derivative in closed form, the y-derivative by a central difference at
    ``ctx.fd_step``; right side: e^(-y/2) y^(-k) cal_M(2-k, k/2, y).  Raises
    StepTooLarge when the stencil reaches y' <= 0, where -y' would flip mu.
    """
    with mp.workdps(ctx.work_dps):
        y = mp.mpf(y)
        if y <= 0:
            raise DomainError("identity check requires y > 0")
        h = mp.mpf(ctx.fd_step)
        if y - h <= 0:
            raise StepTooLarge("y-stencil crosses y = 0")
        inner = lambda t: cal_M(k, mp.mpf(k) / 2, -t, ctx, ds=True) * mp.exp(-t / 2)
        lhs = (inner(y + h) - inner(y - h)) / (2 * h)
        rhs = mp.exp(-y / 2) * y ** mp.mpf(-k) * cal_M(2 - k, mp.mpf(k) / 2, y, ctx)
        return RelationReport.single(
            identity=f"whittaker_derivative_identity[k={k},y={mp.nstr(y, 15)}]",
            point=mp.mpc(y),
            residual=relative_residual(lhs, rhs),
            tolerance=ctx.tol_fd,
        )
