"""q-expansion algebra and the level-1 modular forms used as inputs.

Coefficients are exact whenever a series is built symbolically: ints for
E4, E6, E8, E10, E14, Delta, the cusp forms and the weight -10 form, whose
convolutions run in integer arithmetic with every division exact and
asserted, and fractions.Fraction otherwise.  Evaluation converts to the
working precision, so no coefficient error enters downstream tolerance
budgets.  Series are immutable
and hashable, which lets evaluators memoize on the series itself.

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
from math import exp as _math_exp, inf as _math_inf, log as _math_log, log1p as _math_log1p
from math import pi as _MATH_PI, sqrt as _math_sqrt
from typing import Optional, Sequence, Tuple, Union

import mpmath as mp

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
    growth constant, a passed modularity spot check per context); it is not
    an init argument, so ``replace`` starts a fresh one, and it takes no
    part in equality or hashing.
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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "QSeries") -> "QSeries":
        if self.weight != other.weight:
            raise ValueError("cannot add series of different weights")
        n_min = min(self.n_min, other.n_min)
        n_max = max(self.n_max, other.n_max)
        coeffs = tuple(_add(self.coeff(n), other.coeff(n)) for n in range(n_min, n_max + 1))
        tb = None
        if self.tail_bound and other.tail_bound:
            tb = (self.tail_bound[0] + other.tail_bound[0], max(self.tail_bound[1], other.tail_bound[1]))
        return QSeries(
            weight=self.weight,
            n_min=n_min,
            coeffs=coeffs,
            tail_bound=tb,
            cuspidal=self.cuspidal and other.cuspidal,
            modular=self.modular and other.modular,
            label=f"({self.label}+{other.label})",
        )

    def scale(self, c) -> "QSeries":
        if isinstance(c, int) or isinstance(c, Fraction):
            coeffs = tuple(Fraction(c) * Fraction(a) if isinstance(a, (int, Fraction)) else c * a for a in self.coeffs)
        else:
            c = mp.mpc(c)
            coeffs = tuple(c * _to_mpc(a) for a in self.coeffs)
        tb = None
        if self.tail_bound is not None:
            tb = (float(abs(mp.mpc(c))) * self.tail_bound[0], self.tail_bound[1])
        return replace(self, coeffs=coeffs, tail_bound=tb, label=f"scale({self.label})")


def _add(a: Coefficient, b: Coefficient) -> Coefficient:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) + Fraction(b)
    return _to_mpc(a) + _to_mpc(b)


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
    # Deligne bound |tau(n)| <= d(n) n^(11/2) with d(n) <= 2 sqrt(n)
    return QSeries(
        weight=12,
        n_min=1,
        coeffs=tuple(coeffs[1:]),
        tail_bound=(2.0, 6.0),
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
        tail_bound=(2.0, float(weight) / 2),
        cuspidal=True,
        modular=True,
        label=f"cusp{weight}",
    )


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
    in N.  N is the smallest length whose tail is <= ctx.eps(), found by
    bisection in float logs, but at least ``_MIN_TERMS``: far up the cusp
    the whole sum drops below eps, and a sum cut to nothing there would
    jump with each step of N under a quadrature whose kernel grows with the
    height (the period polynomial oracle, the non-critical L-value
    integral), keeping it from converging.  When the window end ``n_max``
    is shorter, N = n_max.  Returns (N, log of the certified tail past N),
    which the caller hands to ``_check_tail`` after summing.
    """
    log_c, alpha, beta = model
    up = max(alpha, 0.0)

    def log_tail(N: int) -> float:
        m = N + 1
        log_r = log_q + up * _math_log((m + 1) / m) + beta * (_math_sqrt(m + 1) - _math_sqrt(m))
        if not log_r < 0:
            return _math_inf
        return log_c + alpha * _math_log(m) + beta * _math_sqrt(m) + m * log_q - _math_log1p(-_math_exp(log_r))

    if n_max < n_first - 1:
        return n_max, _math_inf
    lo = max(n_first - 1, min(_MIN_TERMS, n_max))
    log_eps = -(ctx.digits + 8) * _LN10
    top = log_tail(n_max)
    if not top <= log_eps:
        return n_max, top
    low = log_tail(lo)
    if low <= log_eps:
        return lo, low
    hi = n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_tail(mid) <= log_eps:
            hi = mid
        else:
            lo = mid
    return hi, log_tail(hi)


def _check_tail(log_tail: float, total, ctx: PrecisionContext, what: str) -> None:
    """Raise TailTooLarge unless the tail is within the claimed 10^-digits (1 + |total|)."""
    bound = -ctx.digits * _LN10
    if log_tail <= bound or log_tail <= bound + _math_log1p(float(abs(total))):
        return
    raise TailTooLarge(
        f"certified tail 1e{log_tail / _LN10:.1f} of {what} exceeds 1e-{ctx.digits} (1 + |sum|): "
        "the coefficient window is too short"
    )


def evaluate(f: QSeries, z, ctx: PrecisionContext) -> mp.mpc:
    """Evaluate sum a(n) q^n at z in the upper half-plane.

    Modular series with Im z below the reduction height are moved into the
    fast-convergence region with f(z) = z^(-k) f(-1/z) and exact integer
    translations.  The number of terms is fixed up front by
    ``_certified_length``; raises TailTooLarge when the coefficient window
    ends before the certified tail reaches 10^-digits (1 + |f(z)|).
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("evaluate requires Im z > 0")
        factor = mp.mpc(1)
        if f.modular:
            for _ in range(8 * ctx.work_dps):
                z = z - mp.floor(mp.re(z) + mp.mpf("0.5"))
                if mp.im(z) >= REDUCTION_HEIGHT:
                    break
                factor *= z ** (-f.weight)
                z = -1 / z
        value = _sum_q_series(f, z, ctx)
        return factor * value


def _sum_q_series(f: QSeries, z: mp.mpc, ctx: PrecisionContext) -> mp.mpc:
    q = mp.exp(2j * mp.pi * z)
    total = mp.mpc(0)
    coeffs = _mpc_coeffs(f)
    # principal part (exact negative powers)
    if f.n_min < 0:
        qinv = 1 / q
        qn = mp.mpc(1)
        for n in range(-1, f.n_min - 1, -1):
            qn *= qinv
            total += coeffs[n - f.n_min] * qn
    if f.n_min <= 0 <= f.n_max:
        total += coeffs[-f.n_min]
    N, log_tail = _certified_length(_coeff_model(f), -2 * _MATH_PI * float(mp.im(z)), max(f.n_max, 0), ctx)
    start = max(1, f.n_min)
    qn = q ** (start - 1)
    for n in range(start, N + 1):
        qn *= q
        total += coeffs[n - f.n_min] * qn
    _check_tail(log_tail, total, ctx, f.label)
    return total


# ---------------------------------------------------------------------------
# q-expansion file format: line 1 "weight <k> <n_min> <N>", one coefficient
# per line afterwards, exact rationals "p/q" or decimal strings; UTF-8, LF.
# ---------------------------------------------------------------------------

def write_qexp(f: QSeries, path: str) -> None:
    lines = [f"weight {f.weight} {f.n_min} {f.n_max}"]
    for c in f.coeffs:
        if isinstance(c, (int, Fraction)):
            fr = Fraction(c)
            lines.append(f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator))
        else:
            c = mp.mpc(c)
            if mp.im(c) != 0:
                raise ValueError("file format stores real coefficients only")
            lines.append(mp.nstr(mp.re(c), mp.mp.dps))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_qexp(path: str) -> QSeries:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = lines[0].split()
    if len(head) != 4 or head[0] != "weight":
        raise ValueError("malformed q-expansion header")
    weight, n_min, n_max = int(head[1]), int(head[2]), int(head[3])
    raw = lines[1:]
    if len(raw) != n_max - n_min + 1:
        raise ValueError("coefficient count does not match header")
    coeffs = []
    for tok in raw:
        if "/" in tok:
            p, q = tok.split("/")
            coeffs.append(Fraction(int(p), int(q)))
        elif _is_int(tok):
            coeffs.append(Fraction(int(tok)))
        else:
            coeffs.append(mp.mpc(mp.mpf(tok)))
    cuspidal = n_min >= 1
    return QSeries(
        weight=weight,
        n_min=n_min,
        coeffs=tuple(coeffs),
        tail_bound=None,
        cuspidal=cuspidal,
        modular=False,
        label=f"file:{path}",
    )


def _is_int(tok: str) -> bool:
    t = tok.lstrip("+-")
    return t.isdigit()
