"""Second-order period objects: completion, non-critical values, verifiers.

Objects attached to a weight-k cusp form f, with F = sum b(n) q^n its
Eichler integral and r its period polynomial:

* F2(z)     = int_{-conj z}^{i oo} F(w) (w+z)^(-k) dw;
* r2(z)     = int_0^{i oo} F(w) (wz-1)^(-k) dw;
* tilde(z)  = int_{-conj z}^{i oo} r(w) (w+z)^(-k) dw, exact by
              ``PolynomialC.kernel_integral`` (purely non-holomorphic: every
              y-exponent is negative);
* hat = r2 - tilde, the completion satisfying the period relations.

F2 and r2 are ``regint``'s starred ``f_star`` and ``r_star`` of M = F's
q-series (weight 2-k) with its period cocycle F|(1-S) = r; F2 also keeps ray
quadrature, its definitional oracle.  r2 covers Im z >= 0, the cusp 0
included, and raises below the real axis, where no route is certified.  hat is
``regint.hat_star``, and the verifiers check it through ``regint``'s
identity helpers.  See ``regint`` for the starred definitions and sums.
Non-critical L-values are read off from derivatives of r2 at 0:
d^m/dz^m r2(z) |_{z -> 0+} = i^(k+m) (m+k-1)! m! / ((k-1)(2 pi)^(m+k)) L(k+m),
by differentiating under the integral sign and splitting at i.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp

from .eichler import UTILDE, eichler_integral, period_polynomial, period_relations, slash_polynomial
from .kernel import DomainError, PrecisionContext, quad_ray
from .lfun import LValue, critical_lvalues
from .qforms import QSeries
from .regint import f_star, hat_equation_residual, hat_relation_residuals, hat_star, r_star, ray_sum
from .reports import RelationReport, relative_residual, tabulate


def F_f2(f: QSeries, z, ctx: PrecisionContext, method: str = "quadrature") -> mp.mpc:
    """Iterated integral F2(z); ``method`` is "quadrature" or "termwise" (``regint.f_star`` of F's q-series).

    The quadrature route stays while the objects-warm benchmark workload
    times it; it joins the test oracles when that workload changes (ROADMAP).
    """
    if method not in ("quadrature", "termwise"):
        raise ValueError("method must be 'quadrature' or 'termwise'")
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("F_f2 requires Im z > 0")
        F, k = eichler_integral(f, ctx), f.weight
        if method == "termwise":
            return f_star(F.series, z, ctx)
        integrand = lambda w: F(w) * (w + z) ** (-k)
        return quad_ray(integrand, -mp.conj(z), ctx)


def r_f2(f: QSeries, z, ctx: PrecisionContext) -> mp.mpc:
    """Holomorphic second-order period function int_0^{i oo} F(w)(wz-1)^(-k) dw for Im z >= 0.

    ``regint.r_star`` of F's q-series with cocycle r; DomainError for Im z < 0.
    """
    return r_star(eichler_integral(f, ctx).series, z, ctx, cocycle=period_polynomial(f, ctx))


def tilde_r_f2(f: QSeries, z, ctx: PrecisionContext) -> mp.mpc:
    """Non-holomorphic correction term, exact by ``PolynomialC.kernel_integral``."""
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("tilde_r_f2 requires Im z > 0")
        return period_polynomial(f, ctx).kernel_integral(f.weight, z, -mp.conj(z))


def hat_r_f2(f: QSeries, z, ctx: PrecisionContext) -> mp.mpc:
    """Completion r2 - tilde at z: ``regint.hat_star`` of F's q-series with cocycle r."""
    return hat_star(eichler_integral(f, ctx).series, z, ctx, period_polynomial(f, ctx))


def noncritical_lvalue(f: QSeries, m: int, ctx: PrecisionContext) -> LValue:
    """L(k+m) extracted from the m-th derivative of r2 at the cusp 0.

    Differentiating under the integral sign gives
    d^m/dz^m r2(z) = (-1)^m (k)_m int_0^{i oo} F(w) w^m (wz-1)^(-k-m) dw,
    absolutely convergent down to z = 0, where it collapses to
    (-1)^k (k)_m int F(w) w^m dw, so L(k+m) = (-1)^k (-2 pi i)^(k+m) / ((k-2)! m!)
    int F(w) w^m dw.  Split at i and mapping [0, i] by w -> -1/w, with real Gamma arguments 2 pi n,
    int_0^{i oo} F(w) w^m dw = sum b(n) I_n^(-m)
                             - (-1)^m (sum b(n) I_n^(k+m) - int_i^{i oo} r(w) w^(-k-m) dw),
    I_n^(s) = int_i^{i oo} e^(2 pi i n w) w^(-s) dw.  Any m >= 0 works: the
    tail bound of ``ray_sum`` covers the positive orders 1+m of I_n^(-m), and
    a window too short for the digits raises TailTooLarge.  ``est_error`` is
    the two certified tails plus the critical values' own est_error carried
    through r's coefficients, times the same factor.
    """
    if m < 0:
        raise DomainError("derivative order m must be >= 0")
    with mp.workdps(ctx.work_dps):
        k = f.weight
        lvs = critical_lvalues(f, ctx)
        sign = (-1) ** m
        b, i = eichler_integral(f, ctx).series, mp.mpc(0, 1)
        upper, tail_up = ray_sum(b, i, 0, -m, ctx)
        lower, tail_low = ray_sum(b, i, 0, k + m, ctx, -sign)
        integral = upper + lower + sign * period_polynomial(f, ctx).kernel_integral(k + m, 0, i)
        # an error e in L(k-1-j) moves r's w^j coefficient by (k-2)! (2 pi)^(j+1-k) e / j!,
        # and int_i^{i oo} r(w) w^(-k-m) dw by that over k+m-1-j
        coeff_err = mp.factorial(k - 2) * mp.fsum(
            (2 * mp.pi) ** (j + 1 - k) * lvs[k - 2 - j].est_error / (mp.factorial(j) * (k + m - 1 - j))
            for j in range(k - 1)
        )
        factor = (-1) ** k * (-2j * mp.pi) ** (k + m) / (mp.factorial(k - 2) * mp.factorial(m))
        err = abs(factor) * (mp.exp(tail_up) + mp.exp(tail_low) + coeff_err)
        return LValue(s=mp.mpc(k + m), value=factor * integral, method="mock-period", est_error=max(ctx.eps(), err))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_superm(f: QSeries, pts: Sequence[complex], ctx: PrecisionContext) -> RelationReport:
    """Residuals of F2|_k(S-1)(z) - (r2 - tilde)(z) at each point (``regint.hat_equation_residual``)."""
    M, r = eichler_integral(f, ctx).series, period_polynomial(f, ctx)
    row = lambda z: (hat_equation_residual(M, z, hat_star(M, z, ctx, r), ctx),)
    return tabulate(pts, row, [(f"superm[{f.label}]", ctx.tol_tight)], ctx.work_dps)[0]


def verify_w_k2(f: QSeries, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """Period relations and xi-image of the completion: three reports (``regint.hat_relation_residuals``).

    hat|(1+S) = hat|(1+U+U^2) = 0 at tol_tight, and
    xi_k(hat) = (2i)^(1-k) r_{f^c} at tol_fd (finite differences).
    """
    M, r = eichler_integral(f, ctx).series, period_polynomial(f, ctx)
    row = lambda z: hat_relation_residuals(M, z, hat_star(M, z, ctx, r), ctx, r)[1:]
    names = [(f"wk2_slash_S[{f.label}]", ctx.tol_tight), (f"wk2_slash_U[{f.label}]", ctx.tol_tight),
             (f"wk2_xi_image[{f.label}]", ctx.tol_fd)]
    return tabulate(pts, row, names, ctx.work_dps)


def verify_mock_es(f: QSeries, pts: Sequence[complex], ctx: PrecisionContext) -> list:
    """The two period relations satisfied by r2 itself (with correction integrals).

    r2|(1+S)(z)      = int_0^{i oo} r(w) (w+z)^(-k) dw
    r2|(1+U+U^2)(z)  = int_{-1}^{i oo} r(w) (w+z)^(-k) dw
                       + int_{-1}^{0} (r|_{2-k} Utilde)(w) (w+z)^(-k) dw

    The right-hand sides are polynomials against (w+z)^(-k), integrated
    exactly by ``PolynomialC.kernel_integral``; the left-hand sides take r2
    termwise.
    """
    k = f.weight
    r2 = lambda w: r_f2(f, w, ctx)
    with mp.workdps(ctx.work_dps):
        r = period_polynomial(f, ctx)
        r_ut = slash_polynomial(r, 2 - k, UTILDE)

    def row(z):
        lhs1, lhs2 = period_relations(r2, r2(z), k, z)
        rhs1 = r.kernel_integral(k, z, 0)
        rhs2 = r.kernel_integral(k, z, -1) + r_ut.kernel_integral(k, z, -1, 0)
        return relative_residual(lhs1, rhs1), relative_residual(lhs2, rhs2)

    names = [(f"mockes_1S[{f.label}]", ctx.tol_tight), (f"mockes_UU[{f.label}]", ctx.tol_tight)]
    return tabulate(pts, row, names, ctx.work_dps)
