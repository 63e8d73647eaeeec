"""Slash action, period polynomials and Eichler integrals.

The period polynomial of a weight-k cusp form is assembled from its critical
L-values L(1), ..., L(k-1), which ``lfun.critical_lvalues`` takes from one
pass of k-1 power sums over the coefficient window (the completed series in
closed form: exponentially convergent and exactly symmetric, with no
incomplete gamma), and the definitional integral
int_0^{i oo} f(w)(w - z)^(k-2) dw is retained as a quadrature oracle.  The
Eichler integral F(z) is evaluated from its termwise closed form with the
cocycle rule F = r + z^(k-2) F(-1/z) applied below the reduction height.
The slash action on polynomials is exact in coefficient space
(``slash_polynomial``), so the relations r|(1+S) = r|(1+U+U^2) = 0 that put
r in W_k can be checked on r's coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import to_fixed

from .kernel import DomainError, PrecisionContext, quad_ray
from .lfun import critical_lvalues
from .qforms import QSeries, _reduced_sum, _to_mpc, evaluate


class NonPolynomialResult(DomainError):
    """A polynomial slashed at an incompatible weight left V_n."""


@dataclass(frozen=True)
class GroupElement:
    """Integer 2x2 matrix with determinant 1, acting by Moebius maps."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, z) -> mp.mpc:
        z = mp.mpc(z)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def jfactor(self, z) -> mp.mpc:
        return self.c * mp.mpc(z) + self.d


IDENTITY = GroupElement(1, 0, 0, 1)
S = GroupElement(0, -1, 1, 0)
T = GroupElement(1, 1, 0, 1)
U = GroupElement(1, -1, 1, 0)
UTILDE = GroupElement(-1, -1, 1, 0)  # = S U^2 S^(-1)


@dataclass(frozen=True)
class PolynomialC:
    """Complex polynomial c_0 + c_1 z + ... + c_n z^n of degree bound n."""

    degree_bound: int
    coeffs: Tuple[mp.mpc, ...]
    # hashed once: mpc hashes are slow, and a polynomial keys the cocycle memo of every termwise r2
    _hash: int = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.degree_bound, self.coeffs)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, degree_bound: Optional[int] = None) -> "PolynomialC":
        cs = tuple(mp.mpc(c) for c in coeffs)
        n = degree_bound if degree_bound is not None else max(len(cs) - 1, 0)
        if len(cs) - 1 > n:
            raise ValueError("coefficient list exceeds degree bound")
        cs = cs + tuple(mp.mpc(0) for _ in range(n + 1 - len(cs)))
        return cls(degree_bound=n, coeffs=cs)

    def __call__(self, z) -> mp.mpc:
        z = mp.mpc(z)
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def kernel_integral(self, k: int, z, a, b=None) -> mp.mpc:
        """Exact int_a^b P(w) (w+z)^(-k) dw; b = None stands for i*infinity.

        Taylor-shifted to the pole, P(w) = sum_j c_j (w+z)^j, so for
        deg P <= k-2 the antiderivative G(w) = sum_j c_j u^(j+1-k)/(j-k+1),
        u = w + z, has no logarithm: G is single-valued and rational,
        G(i oo) = 0, and the integral is G(b) - G(a) along any path that
        misses -z.  G(w) is a polynomial in v = 1/u with no constant term,
        summed by Horner's rule.  Raises DomainError for a nonzero
        coefficient above degree k-2, where the integral to i oo diverges,
        and for an endpoint at the pole -z.

        The shift (repeated synthetic division by u = w + z) and both Horner
        sums run on Gaussian integers in one unit 2^U, and G(b) - G(a) is
        taken exactly in it.  U is sized from float bounds before the sums:
        each rounding of a unit reaches G(w) times at most (2 + |z|)^n
        (n = deg P), so U lies that far, the working precision and
        8 + 2 log2 k guard bits below the least of the endpoints' term sizes
        |c_j| |v|^(k-1-j) / (k-1), taken against sum_m |v|^m <= (k-1) max(|v|, |v|^(k-1)).
        Each value so keeps the working precision relative to the size of its
        terms, as a sum in mpc arithmetic would, and z is read to the bits
        that keep its own error below a unit at every coefficient.
        """
        if any(c != 0 for c in self.coeffs[max(k - 1, 0):]):
            raise DomainError(f"polynomial degree exceeds k-2 = {k - 2}")
        z = mp.mpc(z)
        ends = [mp.mpc(w) + z for w in ((a,) if b is None else (b, a))]
        if not all(ends):
            raise DomainError("integration endpoint at the kernel pole -z")
        c = self.coeffs[: max(k - 1, 0)]
        mags = [mp.mag(cj) for cj in c]  # 2^(m - 2) <= |c_j| <= 2^m
        if not any(m > -math.inf for m in mags):
            return mp.mpc(0)
        n, prec = len(c) - 1, mp.mp.prec
        lz = max(mp.mag(z), 1) + 1  # 2 + |z| <= 2^lz
        # each end: log2 of a lower bound on its term sizes over sum_m |v|^m, |v| in [2^-mu, 2^(2-mu)]
        sizes = []
        for u in ends:
            mu = mp.mag(u)
            top = max(m - 2 - (k - 1 - j) * mu for j, m in enumerate(mags))
            sizes.append(top - 2 * math.log2(k - 1) - max(2 - mu, (k - 1) * (2 - mu)))
        U = math.floor(min(sizes)) - prec - 8 - 2 * k.bit_length() - n * lz
        E = max(m + j * lz for j, m in enumerate(mags)) + (n + 1).bit_length()  # every shifted value < 2^E
        Wz = E - U + n.bit_length() + 1
        C = [(to_fixed(cj.real._mpf_, -U), to_fixed(cj.imag._mpf_, -U)) for cj in c]
        Zr, Zi = to_fixed(z.real._mpf_, Wz), to_fixed(z.imag._mpf_, Wz)
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                (cr, ci), (dr, di) = C[j], C[j + 1]
                C[j] = cr - (Zr * dr - Zi * di >> Wz), ci - (Zr * di + Zi * dr >> Wz)
        D = [(cr // (j + 1 - k), ci // (j + 1 - k)) for j, (cr, ci) in enumerate(C)]
        total, K = [0, 0], 2 * (prec + 8)
        for sign, u in zip((1, -1) if b is not None else (-1,), ends):
            # u = (Ur + i Ui) 2^-Pu and v = 1/u = (Vr + i Vi) 2^-Pv, each of about prec + 8 bits
            Pu = min(prec + 8 - mp.mag(u), K)
            Pv = K - Pu
            Ur, Ui = to_fixed(u.real._mpf_, Pu), to_fixed(u.imag._mpf_, Pu)
            den = Ur * Ur + Ui * Ui
            Vr, Vi = (Ur << K) // den, -(Ui << K) // den
            Hr, Hi = D[0]
            for dr, di in D[1:] + [(0, 0)] * (k - 1 - n):
                Hr, Hi = (Vr * Hr - Vi * Hi >> Pv) + dr, (Vr * Hi + Vi * Hr >> Pv) + di
            total[0] += sign * Hr
            total[1] += sign * Hi
        return mp.mpc(mp.mpf((total[0], U)), mp.mpf((total[1], U)))


def slash_polynomial(P: PolynomialC, m: int, gamma: GroupElement) -> PolynomialC:
    """Exact weight-m action on polynomials: P(gamma z) (cz+d)^(-m).

    Requires m = -degree_bound, the weight under which V_n is closed; the
    result is assembled from sum_j c_j (az+b)^j (cz+d)^(n-j).
    """
    n = P.degree_bound
    if m != -n:
        raise NonPolynomialResult(f"weight {m} does not preserve V_{n}")
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    out = [mp.mpc(0)] * (n + 1)
    for j, cj in enumerate(P.coeffs):
        if cj == 0:
            continue
        # (a z + b)^j
        pj = [mp.mpc(0)] * (j + 1)
        for t in range(j + 1):
            pj[t] = mp.mpc(math.comb(j, t)) * mp.mpc(a) ** t * mp.mpc(b) ** (j - t)
        # (c z + d)^(n - j)
        qj = [mp.mpc(0)] * (n - j + 1)
        for t in range(n - j + 1):
            qj[t] = mp.mpc(math.comb(n - j, t)) * mp.mpc(c) ** t * mp.mpc(d) ** (n - j - t)
        for t1, p1 in enumerate(pj):
            if p1 == 0:
                continue
            for t2, q2 in enumerate(qj):
                out[t1 + t2] += cj * p1 * q2
    return PolynomialC(n, tuple(out))


def slash_function(F: Callable[[mp.mpc], mp.mpc], m: int, gamma: GroupElement) -> Callable:
    """Lazy weight-m action on a black-box function: z -> F(gamma z)(cz+d)^(-m)."""

    def slashed(z):
        z = mp.mpc(z)
        return F(gamma.apply(z)) * gamma.jfactor(z) ** (-m)

    return slashed


def period_relations(h: Callable[[mp.mpc], mp.mpc], v0: mp.mpc, k: int, z: mp.mpc) -> Tuple[mp.mpc, mp.mpc]:
    """h|(1+S)(z) and h|(1+U+U^2)(z) at weight k, given v0 = h(z)."""
    rel_s = v0 + slash_function(h, k, S)(z)
    rel_u = v0 + slash_function(h, k, U)(z) + slash_function(h, k, U * U)(z)
    return rel_s, rel_u


def period_polynomial(f: QSeries, ctx: PrecisionContext) -> PolynomialC:
    """Period polynomial r of degree bound k-2 from critical L-values, memoized on f per context.

    Coefficient of z^(k-2-n) is
    -(k-2)!/(2 pi i)^(k-1) * (2 pi i)^(k-2-n) L(n+1) / (k-2-n)!.
    The values L(1), ..., L(k-1) come from ``critical_lvalues``, which
    raises TailTooLarge when f's window is too short; ``l_completed`` at
    each s is their oracle.
    """
    if not f.cuspidal:
        raise DomainError("period polynomial requires a cusp form")
    key = ("period_polynomial", ctx)
    got = f._memo.get(key)
    if got is not None:
        return got
    k = f.weight
    with mp.workdps(ctx.work_dps):
        lvals = [lv.value for lv in critical_lvalues(f, ctx)]
        pref = -mp.factorial(k - 2) / (2j * mp.pi) ** (k - 1)
        coeffs = [mp.mpc(0)] * (k - 1)
        for n in range(k - 1):
            j = k - 2 - n  # degree of this term
            coeffs[j] = pref * (2j * mp.pi) ** j * lvals[n] / mp.factorial(j)
        got = f._memo[key] = PolynomialC.from_coeffs(coeffs, degree_bound=k - 2)
    return got


def period_polynomial_quadrature(f: QSeries, z0, ctx: PrecisionContext) -> mp.mpc:
    """Definitional oracle r(z0) = int_0^{i oo} f(w)(w - z0)^(k-2) dw."""
    k = f.weight
    with mp.workdps(ctx.work_dps):
        z0 = mp.mpc(z0)
        integrand = lambda w: evaluate(f, w, ctx) * (w - z0) ** (k - 2)
        return quad_ray(integrand, mp.mpc(0), ctx)


class EichlerIntegral:
    """Evaluator for F(z) = int_z^{i oo} f(w)(w - z)^(k-2) dw of weight 2-k.

    Termwise, F(z) = (k-2)! (-2 pi i)^(1-k) sum a(n) n^(1-k) q^n.  Below the
    reduction height the cocycle rule F(z) = r(z) + z^(k-2) F(-1/z) (together
    with exact T-translations) moves the argument into the fast-convergence
    region: ``qforms._reduced_sum`` with r as the cocycle.  The q-sum is a
    QSeries, ``series``, whose coefficients carry the prefactor, with tail
    bound (|prefactor| C, alpha + 1 - k) from f's (C, alpha), so it is
    truncated by the package's one certified rule and raises TailTooLarge
    when f's window is too short.
    """

    def __init__(self, f: QSeries, ctx: PrecisionContext):
        if not f.cuspidal:
            raise DomainError("Eichler integral requires a cusp form")
        self.ctx, self._f = ctx, f
        with mp.workdps(ctx.work_dps):
            k = f.weight
            pref = mp.factorial(k - 2) * (-2j * mp.pi) ** (1 - k)
            tail_bound = None
            if f.tail_bound is not None:
                tail_bound = (float(abs(pref)) * f.tail_bound[0], f.tail_bound[1] + 1 - k)
            self.series = QSeries(
                weight=2 - k,
                n_min=1,
                coeffs=tuple(pref * _to_mpc(f.coeff(n)) * mp.mpf(n) ** (1 - k) for n in range(1, f.n_max + 1)),
                tail_bound=tail_bound,
                label=f"F[{f.label}]",
            )

    def evaluate(self, z) -> mp.mpc:
        with mp.workdps(self.ctx.work_dps):
            z = z if isinstance(z, mp.mpc) else mp.mpc(z)
            if not z.imag > 0:
                raise DomainError("Eichler integral evaluated off the upper half-plane")
            # r is taken (and memoized on f) only when z is reduced
            return _reduced_sum(self.series, z, self.ctx, cocycle=lambda w: period_polynomial(self._f, self.ctx)(w))

    def __call__(self, z) -> mp.mpc:
        return self.evaluate(z)


def eichler_integral(f: QSeries, ctx: PrecisionContext) -> EichlerIntegral:
    """F for f at ctx, memoized on f per context."""
    key = ("eichler_integral", ctx)
    got = f._memo.get(key)
    if got is None:
        got = f._memo[key] = EichlerIntegral(f, ctx)
    return got
