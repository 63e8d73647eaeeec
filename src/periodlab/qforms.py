"""q-expansion algebra and the level-1 modular forms used as inputs.

Coefficients are exact whenever a series is built symbolically: ints for
E4, E6, E8, E10, E14, Delta, the cusp forms and the weight -10 form, whose
convolutions run in integer arithmetic with every division exact and
asserted, and fractions.Fraction otherwise.  Evaluation converts to the
working precision, so no coefficient error enters downstream tolerance
budgets.  Series are immutable
and hashable, which lets evaluators memoize on the series itself.

q-series sums: scaled Horner on fixed-point integers.  ``_sum_q_series``
runs one Horner loop over the whole window on Gaussian Python integers,
in a unit scaled to the largest term, with q from one real exponential
and one cosine/sine pair, or carried by a ``quad_ray`` node, whose ray
takes that pair once for all its nodes.

Truncation follows one rule, shared by every windowed sum in the package (q-
series here, the Eichler integral, the completed L-series, and
``regint.ray_sum``, which carries termwise F2 and r2, the non-critical
L-values and the regularized integrals):
``_certified_length`` fixes the number of terms before the sum starts, from
the series' coefficient-growth model, so that the certified tail is below
ctx.eps().  A window too short for that is summed whole, and the result is
returned only if its tail is within the claimed 10^-digits (1 + |sum|);
otherwise ``_check_tail`` raises TailTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil as _math_ceil, exp as _math_exp, inf as _math_inf, log as _math_log, log1p as _math_log1p
from math import pi as _MATH_PI, sqrt as _math_sqrt
from typing import Optional, Sequence, Tuple, Union

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, mpf_exp, mpf_ge, mpf_lt, mpf_mul, mpf_neg, mpf_pi, mpf_shift
from mpmath.libmp import round_nearest as _NEAREST, to_fixed, to_float

from .kernel import DomainError, PrecisionContext, TailTooLarge

Coefficient = Union[Fraction, mp.mpc, mp.mpf, int]


class UnsupportedWeight(DomainError):
    """Requested a cusp-form space this package does not construct."""


DIM_ONE_WEIGHTS = (12, 16, 18, 20, 22, 26)
# S_k = 0 for these even weights; the zero form is still a valid answer.
ZERO_SPACE_WEIGHTS = (0, 2, 4, 6, 8, 10, 14)

# Evaluation falls back to modularity below this height; at Im z = 0.5 the
# q-decay e^(-pi) ~ 0.043 is the break-even against the transform overhead.
REDUCTION_HEIGHT = 0.5

_LN10 = _math_log(10)
# bits beyond the working precision to which q = e^(2 pi i z) is held, by
# the q-series sums and by the q that quad_ray's nodes carry
Q_GUARD_BITS = 20
# 1/2, and as raw mpf values the strip -1/2 <= Re z < 1/2 and the reduction height
_HALF = mp.mpf(0.5)
_STRIP, _HEIGHT = (mp.mpf(-0.5)._mpf_, _HALF._mpf_), mp.mpf(REDUCTION_HEIGHT)._mpf_
# fewest terms a windowed sum takes; see _certified_length
_MIN_TERMS = 4


@dataclass(frozen=True)
class QSeries:
    """Weight-tagged Fourier expansion sum a(n) q^n over n_min <= n <= n_max.

    tail_bound = (C, alpha) certifies |a(n)| <= C n^alpha for n beyond the
    stored window (meaningful for holomorphic series; None for principal-part
    series, whose tails are estimated from the e^(c sqrt(n)) coefficient
    growth at evaluation time).  ``modular`` marks series that transform with
    weight ``weight`` under the full modular group, enabling the low-height
    evaluation fallback.  ``_memo`` holds values derived from the
    coefficients (their mpc conversion per binary precision, the log of the
    growth constant, a passed cocycle spot check per context and cocycle)
    and the objects built from the series, each keyed (name, ctx): its
    ``critical_lvalues``, ``period_polynomial`` and ``eichler_integral``.
    It is not an init argument, so ``replace`` starts a fresh one, and it
    takes no part in equality or hashing.
    """

    weight: int
    n_min: int
    coeffs: Tuple[Coefficient, ...]
    tail_bound: Optional[Tuple[float, float]] = None
    cuspidal: bool = False
    modular: bool = False
    label: str = ""
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.cuspidal and self.n_min < 1:
            raise ValueError("cuspidal series must have n_min >= 1")

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.coeffs) - 1

    def coeff(self, n: int) -> Coefficient:
        if n < self.n_min or n > self.n_max:
            return Fraction(0)
        return self.coeffs[n - self.n_min]

    def scale(self, c) -> "QSeries":
        if isinstance(c, int) or isinstance(c, Fraction):
            coeffs = tuple(Fraction(c) * a if isinstance(a, (int, Fraction)) else _to_mpc(c) * a for a in self.coeffs)
        else:
            c = mp.mpc(c)
            coeffs = tuple(c * _to_mpc(a) for a in self.coeffs)
        tb = None
        if self.tail_bound is not None:
            tb = (float(abs(c)) * self.tail_bound[0], self.tail_bound[1])
        return replace(self, coeffs=coeffs, tail_bound=tb, label=f"scale({self.label})")


def _mpc_coeffs(f: "QSeries") -> tuple:
    """Coefficients converted to mpc at the current working precision, memoized.

    Conversion of exact rationals with very large numerators dominates
    repeated evaluation otherwise; the memo lives on the (immutable) series,
    keyed by the binary precision, and goes when the series goes.
    """
    converted = f._memo.get(mp.mp.prec)
    if converted is None:
        converted = f._memo[mp.mp.prec] = tuple(_to_mpc(c) for c in f.coeffs)
    return converted


def _fixed_coeffs(f: "QSeries") -> tuple:
    """(first, mags, parts) of the coefficients at the working precision, memoized.

    parts[j] = (Re mantissa, Im mantissa, exponent) gives coefficient
    n_min + j exactly as (Re + i Im) 2^exponent, both mantissas signed ints
    on a shared exponent; mags[j] is a float with |Re|, |Im| < 2^mags[j]
    (-inf for a zero coefficient), and ``first`` the index of the first
    nonzero coefficient (len(coeffs) if none).  ``_sum_q_series`` shifts
    them into its fixed-point unit.
    """
    key = ("fixed", mp.mp.prec)
    got = f._memo.get(key)
    if got is None:
        mags, parts = [], []
        for c in _mpc_coeffs(f):
            (rs, rm, rx, rb), (is_, im, ix, ib) = c.real._mpf_, c.imag._mpf_
            rm, im = -rm if rs else rm, -im if is_ else im
            if not im:
                ix = rx
            elif not rm:
                rx = ix
            ex = min(rx, ix)
            parts.append((rm << (rx - ex), im << (ix - ex), ex))
            mags.append(max(rx + rb if rm else -_math_inf, ix + ib if im else -_math_inf))
        first = next((j for j, mag in enumerate(mags) if mag > -_math_inf), len(mags))
        got = f._memo[key] = (first, tuple(mags), tuple(parts))
    return got


def _to_mpc(c: Coefficient) -> mp.mpc:
    if isinstance(c, Fraction):
        return mp.mpc(mp.mpf(c.numerator) / mp.mpf(c.denominator))
    return mp.mpc(c)


def _exact_div(a: int, b: int) -> int:
    """a / b for integers that b divides."""
    q, r = divmod(a, b)
    assert r == 0, "integer q-coefficients must divide exactly"
    return q


def _sigma_table(power: int, n_max: int) -> list:
    """sigma_power(n) for 1 <= n <= n_max by direct divisor sweep."""
    table = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dp = d ** power
        for n in range(d, n_max + 1, d):
            table[n] += dp
    return table


def _convolve(a: Sequence[int], b: Sequence[int], n_max: int) -> list:
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a[: n_max + 1]):
        if ai == 0:
            continue
        for j in range(min(len(b), n_max + 1 - i)):
            out[i + j] += ai * b[j]
    return out


@lru_cache(maxsize=None)
def eisenstein(weight: int, N: int) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    The coefficients are integers for k = 4, 6, 8, 10 and 14 and Fractions
    otherwise.
    """
    if weight < 4 or weight % 2:
        raise UnsupportedWeight("eisenstein needs even weight >= 4")
    num, den = mp.bernfrac(weight)
    bk = Fraction(int(num), int(den))
    factor = Fraction(-2 * weight) / bk
    if factor.denominator == 1:
        factor = factor.numerator
    sig = _sigma_table(weight - 1, N)
    coeffs = [1] + [factor * sig[n] for n in range(1, N + 1)]
    c_bound = float(2 * abs(factor))  # sigma_{k-1}(n) <= zeta(k-1) n^(k-1) <= 2 n^(k-1)
    return QSeries(
        weight=weight,
        n_min=0,
        coeffs=tuple(coeffs),
        tail_bound=(c_bound, float(weight - 1)),
        modular=True,
        label=f"E{weight}",
    )


def _deligne_bound(weight: int) -> Tuple[float, float]:
    """(C, alpha) with |a(n)| <= d(n) n^((k-1)/2) <= C n^alpha for a weight-k eigenform."""
    return 2.0, weight / 2


@lru_cache(maxsize=None)
def delta(N: int) -> QSeries:
    """Discriminant form (E4^3 - E6^2)/1728 with integer coefficients tau(n)."""
    if N < 2:
        raise ValueError("need N >= 2")
    e4 = list(eisenstein(4, N).coeffs)
    e6 = list(eisenstein(6, N).coeffs)
    e42 = _convolve(e4, e4, N)
    e43 = _convolve(e42, e4, N)
    e62 = _convolve(e6, e6, N)
    coeffs = [_exact_div(x - y, 1728) for x, y in zip(e43, e62)]
    assert coeffs[0] == 0 and coeffs[1] == 1
    return QSeries(
        weight=12,
        n_min=1,
        coeffs=tuple(coeffs[1:]),
        tail_bound=_deligne_bound(12),
        cuspidal=True,
        modular=True,
        label="delta",
    )


@lru_cache(maxsize=None)
def cusp_form(weight: int, N: int) -> QSeries:
    """The normalized Hecke eigenform in a one-dimensional cusp space.

    Supported weights are exactly those with dim S_k = 1; the form is
    delta * E_{k-12} (with E_0 = 1).
    """
    if weight not in DIM_ONE_WEIGHTS:
        raise UnsupportedWeight(f"dim S_{weight} != 1; supported: {DIM_ONE_WEIGHTS}")
    d = delta(N)
    if weight == 12:
        return d
    e = eisenstein(weight - 12, N)
    coeffs = _convolve([0] + list(d.coeffs), list(e.coeffs), N)
    return QSeries(
        weight=weight,
        n_min=1,
        coeffs=tuple(coeffs[1:]),
        tail_bound=_deligne_bound(weight),
        cuspidal=True,
        modular=True,
        label=f"cusp{weight}",
    )


def certified_cusp_form(weight: int, ctx: PrecisionContext) -> QSeries:
    """``cusp_form(weight, N)`` on the window ctx.digits needs.

    N is the certified length of the q-series at Im z = REDUCTION_HEIGHT,
    the lowest height at which the form's q-series and Eichler sums are
    evaluated.  Every sum over the form derives its own length from the same
    coefficient bound and raises TailTooLarge if this window falls short.
    """
    C, alpha = _deligne_bound(weight)
    # each term gains log10(e^pi) > 1 digit there, so 10 (digits + 8) is ample
    N, _ = _certified_length((_math_log(C), alpha, 0.0), -2 * _MATH_PI * REDUCTION_HEIGHT, 10 * (ctx.digits + 8), ctx)
    return cusp_form(weight, N)


@lru_cache(maxsize=None)
def weakly_holomorphic_m10(N: int) -> QSeries:
    """Weight -10 weakly holomorphic form E4^2 E6 / Delta^2 (pole order 2), integer coefficients."""
    if N < 1:
        raise ValueError("need N >= 1")
    pad = N + 4
    e4 = list(eisenstein(4, pad).coeffs)
    e6 = list(eisenstein(6, pad).coeffs)
    d = [0] + list(delta(pad).coeffs)
    num = _convolve(_convolve(e4, e4, pad), e6, pad)
    d2 = _convolve(d, d, pad)
    # long division by q^2 (1 + ...): M = sum_{n >= -2} c_n q^n
    denom = [d2[i + 2] for i in range(pad - 1)]
    coeffs = []
    acc: dict = {}
    for n in range(-2, N + 1):
        v = num[n + 2]
        for j in range(-2, n):
            v -= acc[j] * denom[n - j]
        acc[n] = _exact_div(v, denom[0])
        coeffs.append(acc[n])
    return QSeries(
        weight=-10,
        n_min=-2,
        coeffs=tuple(coeffs),
        tail_bound=None,
        modular=True,
        label="e4sq_e6_over_delta_sq",
    )


def conjugate_form(f: QSeries) -> QSeries:
    """Series of z -> conj(f(-conj z)): coefficients conjugated, weight kept.

    A series with real coefficients is its own conjugate and comes back as
    the same object, so the caches keyed on it are shared.
    """
    if all(isinstance(c, (int, Fraction)) or mp.im(c) == 0 for c in f.coeffs):
        return f
    coeffs = tuple(c if isinstance(c, (int, Fraction)) else mp.conj(mp.mpc(c)) for c in f.coeffs)
    return replace(f, coeffs=coeffs, label=f"{f.label}^c")


def bol(f: QSeries) -> QSeries:
    """(k-1)-fold normalized derivative: a(n) -> n^(k-1) a(n), weight 2-k -> k.

    The weight bookkeeping makes the operator one-shot: it accepts only
    series tagged with a nonpositive dual weight 2-k and emits weight k, so a
    second application is a type error, not a silent wrong answer.
    """
    if f.weight > 0:
        raise DomainError("bol expects a series of weight 2-k <= 0")
    k = 2 - f.weight
    power = k - 1
    coeffs = []
    for n in range(f.n_min, f.n_max + 1):
        c = f.coeff(n)
        if isinstance(c, (int, Fraction)):
            coeffs.append(Fraction(c) * Fraction(n) ** power)
        else:
            coeffs.append(_to_mpc(c) * mp.mpf(n) ** power)
    tb = None
    if f.tail_bound is not None:
        tb = (f.tail_bound[0], f.tail_bound[1] + power)
    return QSeries(
        weight=k,
        n_min=f.n_min,
        coeffs=tuple(coeffs),
        tail_bound=tb,
        cuspidal=f.n_min >= 1,
        modular=False,
        label=f"D^{power}({f.label})",
    )


def _wh_log_coeff_bound(f: QSeries) -> float:
    """log C, C empirical with |a(n)| <= C e^(4 pi sqrt(2 n)) on the window."""
    got = f._memo.get("wh_log_c")
    if got is not None:
        return got
    best = mp.mpf(1)
    coeffs = _mpc_coeffs(f)
    for n in range(max(1, f.n_min), f.n_max + 1):
        c = abs(coeffs[n - f.n_min])
        if c == 0:
            continue
        ratio = c / mp.exp(4 * mp.pi * mp.sqrt(2 * mp.mpf(n)))
        if ratio > best:
            best = ratio
    result = f._memo["wh_log_c"] = float(mp.log(10 * best))
    return result


def _coeff_model(f: QSeries) -> Tuple[float, float, float]:
    """(log C, alpha, beta) with |a(n)| <= C n^alpha e^(beta sqrt(n)) for n >= 1.

    The polynomial model comes from ``tail_bound``; without one, the
    exponential e^(4 pi sqrt(2 n)) growth of weakly holomorphic coefficients.
    """
    if f.tail_bound is not None:
        C, alpha = f.tail_bound
        return (_math_log(C) if C > 0 else -_math_inf), float(alpha), 0.0
    return _wh_log_coeff_bound(f), 0.0, 4 * _MATH_PI * _math_sqrt(2.0)


def _certified_length(model, log_q: float, n_max: int, ctx: PrecisionContext, n_first: int = 1) -> Tuple[int, float]:
    """Number of terms N of a q-series sum, fixed before the sum starts.

    ``model`` = (log C, alpha, beta) bounds the n-th term, n >= ``n_first``,
    by C n^alpha e^(beta sqrt(n)) |q|^n with log|q| = ``log_q`` < 0.  Past N
    consecutive term bounds fall at least by the ratio
    r = |q| ((N+2)/(N+1))^max(alpha, 0) e^(beta (sqrt(N+2) - sqrt(N+1))),
    so the tail is at most term(N+1) / (1 - r); once r < 1 this decreases
    in N.  N is the smallest length whose tail is <= ctx.eps(), but at least
    ``_MIN_TERMS``: far up the cusp the whole sum drops below eps, and a sum
    cut to nothing there would jump with each step of N under a quadrature
    whose kernel grows with the height (the period polynomial oracle, the
    non-critical L-value integral), keeping it from converging.  When the
    window end ``n_max`` is shorter, N = n_max.  N is estimated in closed
    form, then stepped by one to that length, which is exact: the bound is
    infinite while r >= 1 and strictly decreasing after.  Returns (N, log of
    the certified tail past N), for ``_check_tail`` after summing.
    """
    log_c, alpha, beta = model
    up = max(alpha, 0.0)

    def log_tail(N: int) -> float:
        m = N + 1
        log_r = log_q + up * _math_log((m + 1) / m) + beta * (_math_sqrt(m + 1) - _math_sqrt(m))
        if not log_r < 0:
            return _math_inf
        return log_c + alpha * _math_log(m) + beta * _math_sqrt(m) + m * log_q - _math_log1p(-_math_exp(log_r))

    if n_max < n_first - 1 or not log_q < 0:
        return n_max, _math_inf
    lo = max(n_first - 1, min(_MIN_TERMS, n_max))
    log_eps = -(ctx.digits + 8) * _LN10
    # log C + alpha log m + beta sqrt m + m log q = log eps, m = N + 1, is a
    # quadratic in sqrt m once alpha log m is frozen at the last root
    m = 1.0
    for _ in range(2):
        d = max(log_c + alpha * _math_log(m) - log_eps, 0.0)
        t = (beta + _math_sqrt(beta * beta - 4 * log_q * d)) / (-2 * log_q)
        m = max(t * t, 1.0) if t * t < n_max + 2 else n_max + 2.0
    N = min(max(_math_ceil(m) - 1, lo), n_max)
    while N > lo and log_tail(N - 1) <= log_eps:
        N -= 1
    while N < n_max and not log_tail(N) <= log_eps:
        N += 1
    return N, log_tail(N)


def _check_tail(log_tail: float, total, ctx: PrecisionContext, what: str) -> None:
    """Raise TailTooLarge unless the tail is within the claimed 10^-digits (1 + |total|)."""
    bound = -ctx.digits * _LN10
    if log_tail <= bound or log_tail <= bound + _math_log1p(float(abs(total))):
        return
    raise TailTooLarge(
        f"certified tail 1e{log_tail / _LN10:.1f} of {what} exceeds 1e-{ctx.digits} (1 + |sum|): "
        "the coefficient window is too short"
    )


def _reduce_step(z: mp.mpc) -> Tuple[mp.mpc, bool]:
    """One modular reduction step: z moved into -1/2 <= Re z < 1/2, and Im z >= REDUCTION_HEIGHT."""
    x, y = z._mpc_
    if mpf_lt(x, _STRIP[0]) or mpf_ge(x, _STRIP[1]):
        z = z - mp.floor(z.real + _HALF)  # leaves Im z as it is
    return z, mpf_ge(y, _HEIGHT)


def evaluate(f: QSeries, z, ctx: PrecisionContext) -> mp.mpc:
    """Evaluate sum a(n) q^n at z in the upper half-plane.

    Modular series with Im z below the reduction height are moved into the
    fast-convergence region with f(z) = z^(-k) f(-1/z) and exact integer
    translations.  The number of terms is fixed up front by
    ``_certified_length``; raises TailTooLarge when the coefficient window
    ends before the certified tail reaches 10^-digits (1 + |f(z)|).
    """
    with mp.workdps(ctx.work_dps):
        z = z if isinstance(z, mp.mpc) else mp.mpc(z)
        if not z.imag > 0:
            raise DomainError("evaluate requires Im z > 0")
        return _reduced_sum(f, z, ctx) if f.modular else _sum_q_series(f, z, ctx)


def _reduced_sum(f: QSeries, z: mp.mpc, ctx: PrecisionContext, cocycle=None) -> mp.mpc:
    """f(z) from its q-series, applying f(z) = cocycle(z) + z^(-w) f(-1/z) below the reduction height.

    w = f.weight, and ``cocycle`` None stands for 0 (a modular f).  Each
    step first translates z into the strip -1/2 <= Re z < 1/2 and at least
    doubles Im z; the sum runs once z is above REDUCTION_HEIGHT.  Call at
    the working precision.
    """
    total = factor = None  # set by the first step
    for _ in range(8 * ctx.work_dps):
        z, high = _reduce_step(z)
        if high:
            break
        if cocycle is not None:
            r = cocycle(z)
            total = r if total is None else total + factor * r
        jac = z ** (-f.weight)
        factor = jac if factor is None else factor * jac
        z = -1 / z
    value = _sum_q_series(f, z, ctx)
    if factor is None:
        return value
    return factor * value if total is None else total + factor * value


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


def _sum_q_series(f: QSeries, z: mp.mpc, ctx: PrecisionContext) -> mp.mpc:
    """sum a(n) q^n over n_min <= n <= min(N, n_max), N from ``_certified_length``.

    One Horner loop over the whole window (principal part, constant term
    and holomorphic part) computes H = sum c_n q^(n - n_0) on Gaussian
    integers in the unit 2^u, u = e - P, P = ``mp.prec`` + guard bits,
    where n_0 is the window's first index with c_n != 0 and 2^e bounds
    max |c_n q^(n - n_0)|, found in float from the coefficients' exponents
    (memoized per precision by ``_fixed_coeffs``).  q = e^(-2 pi y) e^(2 pi i x)
    is held to P bits at its own scale, each component off by about one
    unit at any height (``q_parts``).  A ``quad_ray`` node carries its q,
    made for P bits or more, as the ray's q(w0) times e^(-2 pi s) for its
    height s above w0 (a few units at P bits); as the node holds y0 + s
    rounded to prec + 20 bits, that q is the one of a point within
    y 2^-(prec + 20) of z, off q(z) by a relative 2 pi y 2^-(prec + 20),
    below 2^-(prec + 11) up to the deepest node (y about 50 at 50
    digits), and it enters like q's own rounding.  Each
    Horner step and each coefficient is cut to the unit, at most one unit
    per component, and a cut at index n reaches H times |q|^(n - n_0); so
    the integers add at most about 2^(2 - P) max term / (1 - |q|), the same
    relative digits for any size of coefficients and at every height, and
    q's rounding enters as in a loop of mpc products (eps sum |terms|).  For
    n_0 >= 0, q^(n_0) H is one exact integer product, rounded once (a
    Horner step cut to 2^u would lose log2 1/|q| bits); a principal part
    takes one mpc power of q.
    """
    x, y = z._mpc_
    log_q = -2 * _MATH_PI * to_float(y)
    N, log_tail = _certified_length(_coeff_model(f), log_q, max(f.n_max, 0), ctx)
    first, mags, parts = _fixed_coeffs(f)
    m = min(N, f.n_max) - f.n_min
    prec = mp.mp.prec
    if m < first:
        total = mp.mpc(0)
    else:
        log2_q = log_q / _math_log(2)
        e = max(mags[j] + (j - first) * log2_q for j in range(first, m + 1))
        P = prec + Q_GUARD_BITS
        u = _math_ceil(e) - P
        carried = getattr(z, "q", None)
        if carried is not None and carried[0] >= P:
            _, E, cos, sin = carried
        else:
            E, cos, sin = q_parts(x, y, P)
        s = P - E[2] - E[3]
        Qr, Qi = to_fixed(mpf_mul(E, cos), s), to_fixed(mpf_mul(E, sin), s)
        Hr = Hi = 0
        for j in range(m, first - 1, -1):
            cr, ci, ex = parts[j]
            Hr, Hi = (Hr * Qr - Hi * Qi) >> s, (Hr * Qi + Hi * Qr) >> s
            sh = ex - u
            if sh >= 0:
                Hr += cr << sh
                Hi += ci << sh
            else:
                Hr += cr >> -sh
                Hi += ci >> -sh
        n_0 = f.n_min + first
        for _ in range(n_0):
            Hr, Hi = Hr * Qr - Hi * Qi, Hr * Qi + Hi * Qr
            u -= s
        total = mp.make_mpc((from_man_exp(Hr, u, prec, _NEAREST), from_man_exp(Hi, u, prec, _NEAREST)))
        if n_0 < 0:
            total *= mp.mpc(mp.mpf((Qr, -s)), mp.mpf((Qi, -s))) ** n_0
    _check_tail(log_tail, total, ctx, f.label)
    return total

