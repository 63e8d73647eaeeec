"""Gaussian fixed-point arithmetic for the modules that sum on integers; it imports nothing from the package.

A value v at the scale 2^P is the integer pair (Re v, Im v) 2^P, a Gaussian
value (re, im, e) is (re + i im) 2^e.  Hot loops keep their arithmetic inline.
``series_order`` is the one stop rule for a Taylor sum with bounded ratios.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, mpf_exp, mpf_mul, mpf_neg, mpf_pi, mpf_shift

# bits beyond the working precision that the fixed-point sums carry, and to
# which q = e^(2 pi i z) is held by the q-series sums and quad_ray's nodes
GUARD_BITS = 20


def log2_eps(ctx) -> float:
    """log2 of the context's cutoff eps = 10^-(digits+8)."""
    return -(ctx.digits + 8) * math.log2(10)


def fixed(v, P: int) -> tuple:
    """(Re v, Im v) times 2^P, as integers."""
    if isinstance(v, mp.mpc):
        return v.real.to_fixed(P), v.imag.to_fixed(P)
    return mp.mpf(v).to_fixed(P), 0


def gauss_mpc(value: tuple, P: int) -> mp.mpc:
    """The Gaussian value (re, im, e) as an mpc that keeps P bits."""
    re, im, e = value
    return mp.make_mpc((from_man_exp(re, e, P), from_man_exp(im, e, P)))


def gauss_sum(terms: list, P: int) -> tuple:
    """The sum of Gaussian values (re, im, e) as one (re, im, e), on integers at a scale that keeps P bits of the largest term."""
    u = max(e + (abs(re) | abs(im)).bit_length() for re, im, e in terms) - P - len(terms).bit_length()
    Sr = Si = 0
    for re, im, e in terms:
        if e >= u:
            Sr, Si = Sr + (re << e - u), Si + (im << e - u)
        else:
            Sr, Si = Sr + (re >> u - e), Si + (im >> u - e)
    return Sr, Si, u


def gauss_power(re: int, im: int, n: int, P: int) -> tuple:
    """(Fr, Fi, e) with (Fr + i Fi) 2^e = ((re + i im) 2^-P)^n by binary powering, the mantissas kept to about P bits."""
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


def taylor(c: list, R: int, P: int) -> int:
    """sum_r c_r rho^r by Horner, rho = R 2^-P, every value times 2^P."""
    v = c[-1]
    for cr in reversed(c[:-1]):
        v = cr + (v * R >> P)
    return v


def gauss_taylor(c: list, Xr: int, Xi: int, P: int) -> tuple:
    """sum_r c_r x^r by Horner for real c_r and x = (Xr + i Xi) 2^-P, every value times 2^P, as a pair."""
    vr, vi = c[-1], 0
    for cr in reversed(c[:-1]):
        vr, vi = cr + (vr * Xr - vi * Xi >> P), vr * Xi + vi * Xr >> P
    return vr, vi


def series_order(rho: float, kappa, log2_tol: float, log2_c0: float = 0.0) -> int:
    """Least J with c_(J+1) rho^(J+1) / (1 - q) <= 2^log2_tol, q = rho ratio(J+1) < 1: where sum_n c_n x^n, |x| <= rho, stops.

    c_n bounds the coefficients' moduli: c_0 = 2^log2_c0 and c_(n+1) / c_n <=
    ratio(n) = 1/(n + 1) for ``kappa`` None (exp) or (kappa + n)/(n + 1).
    Past order J every ratio is at most q, so the terms left sum to at most the
    first over 1 - q.  With a kappa, q >= 1 for rho >= 1: that raises ValueError.
    """
    if kappa is not None and rho >= 1:
        raise ValueError(f"a series with ratios (kappa + n)/(n + 1) does not converge at rho = {rho}")
    if not rho:
        return 0
    a, b = (1, 0) if kappa is None else (kappa, 1)  # ratio(n) = (a + b n) / (n + 1)
    log2_rho = math.log2(rho)
    J, log2_c = 0, log2_c0 + math.log2(a)  # log2 of the bound on c_(J+1)
    while True:
        q = rho * ((a + b * (J + 1)) / (J + 2))
        if q < 1 and log2_c + (J + 1) * log2_rho - math.log2(1 - q) <= log2_tol:
            return J
        J += 1
        log2_c += math.log2((a + b * J) / (J + 1))


def log_abs(v) -> float:
    """ln |v| in float for a nonzero int, Fraction or number: mpmath values from their mantissas, so that no float overflows at any size."""
    if isinstance(v, int):
        return math.log(abs(v))
    if isinstance(v, Fraction):
        return math.log(abs(v.numerator)) - math.log(v.denominator)
    v = mp.mpmathify(v)
    parts = [p for p in (v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_,)) if p[1]]
    top = max(e + bc for _, _, e, bc in parts)
    size = math.hypot(*(math.ldexp(man >> max(bc - 60, 0), e + max(bc - 60, 0) - top) for _, man, e, bc in parts))
    return math.log(size) + top * math.log(2)


def q_parts(x, y, P: int) -> tuple:
    """(E, cos, sin), raw mpf values with e^(2 pi i (x + i y)) = E (cos + i sin).

    ``x`` and ``y`` are raw mpf values.  Each part is within about one unit
    at P bits of its own scale, at any height: one real exponential, of
    2 pi y rounded 8 bits beyond P + mag y, and one cosine/sine pair of
    pi (2x), exact in x.
    """
    wp = P + 8 + max(y[2] + y[3], 0)
    E = mpf_exp(mpf_neg(mpf_mul(mpf_shift(mpf_pi(wp), 1), y, wp)), wp)
    cos, sin = mpf_cos_sin_pi(mpf_shift(x, 1), wp)
    return E, cos, sin
