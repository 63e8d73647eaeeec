"""Quadrature and difference oracles that only the tests call.

Each quadrature oracle is the defining integral of an object the package
computes in closed form or by certified series.  The mp.quad oracles raise
NonConvergent when the quadrature's own error estimate exceeds
tol_tight (1 + |value|); ``r2_quadrature`` runs the package's ray
quadrature, which raises by its own rule.  The difference oracles take the
s-derivative of the Whittaker seed by finite differences of ``cal_M``, which
the package sums in closed form; their error is O(step^2).  The W_k check
reads the period relations of a polynomial off its coefficients, slashed
exactly by ``slash_polynomial``.
"""

import mpmath as mp

from periodlab import (
    DomainError,
    NonConvergent,
    PrecisionContext,
    S,
    U,
    cal_M,
    eichler_integral,
    period_polynomial,
    quad_ray,
    residual_scale,
)
from periodlab.eichler import slash_polynomial
from periodlab.kernel import QUAD_MAXDEGREE


def _inverse_power(x: mp.mpc, k: int) -> mp.mpc:
    """x^(-k) for k >= 1 by binary powering, each product and the reciprocal rounded at the working precision.

    mpmath's ``x ** (-k)`` takes the power of x's full mantissas exactly
    before it rounds: at a ray node and k = 16 that takes 63 us against 28
    (2 vCPUs, 50 digits), and the two agree within 1e-71 relative.
    """
    power = None
    while True:
        if k & 1:
            power = x if power is None else power * x
        k >>= 1
        if not k:
            return 1 / power
        x *= x


def r2_quadrature(f, z, ctx: PrecisionContext) -> mp.mpc:
    """r2(z) by ray quadrature up from 0, where F tends to r(0); for Im z >= 0 the pole 1/z lies off that ray."""
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        F, k = eichler_integral(f, ctx), f.weight
        integrand = lambda w: F(w) * _inverse_power(w * z - 1, k)
        return quad_ray(integrand, mp.mpc(0), ctx)


def tilde_quadrature(f, z, ctx: PrecisionContext) -> mp.mpc:
    """Correction term int_{-conj z}^{i oo} r(w) (w+z)^(-k) dw by mp.quad.

    On the vertical ray w = -x + it, t >= y, the integrand
    r(w) (i(t+y))^(-k) decays like t^(-2).
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        r, k = period_polynomial(f, ctx), f.weight
        x, y = mp.re(z), mp.im(z)
        integrand = lambda t: r(mp.mpc(-x, t)) * mp.mpc(0, t + y) ** (-k) * mp.mpc(0, 1)
        val, err = mp.quad(integrand, [y, mp.inf], method="tanh-sinh", maxdegree=QUAD_MAXDEGREE, error=True)
        if not err <= ctx.tol_tight * (1 + abs(val)):
            raise NonConvergent(f"correction-term quadrature error {mp.nstr(err, 5)} exceeds tolerance")
        return val


def whittaker_M_integral(mu, nu, y, ctx: PrecisionContext) -> mp.mpf:
    """Integral representation of M_{mu, nu}(y), y > 0 and Re(nu +- mu + 1/2) > 0."""
    with mp.workdps(ctx.work_dps):
        mu, nu, y = mp.mpf(mu), mp.mpf(nu), mp.mpf(y)
        if not y > 0:
            raise DomainError("Whittaker argument y must be positive")
        if not (nu + mu + mp.mpf("0.5") > 0 and nu - mu + mp.mpf("0.5") > 0):
            raise DomainError("integral representation needs Re(nu +- mu + 1/2) > 0")
        integ, err = mp.quad(
            lambda t: t ** (nu + mu - mp.mpf("0.5")) * (1 - t) ** (nu - mu - mp.mpf("0.5")) * mp.exp(-y * t),
            [0, 1],
            method="tanh-sinh",
            maxdegree=QUAD_MAXDEGREE,
            error=True,
        )
        pref = (
            y ** (nu + mp.mpf("0.5"))
            * mp.exp(y / 2)
            * mp.gamma(1 + 2 * nu)
            / (mp.gamma(nu + mu + mp.mpf("0.5")) * mp.gamma(nu - mu + mp.mpf("0.5")))
        )
        value = pref * integ
        if not abs(pref) * err <= ctx.tol_tight * (1 + abs(value)):
            raise NonConvergent(f"Whittaker integral error estimate {mp.nstr(abs(pref) * err, 5)} exceeds tolerance")
        return value


def psi_seed_difference(k: int, m: int, z, ctx: PrecisionContext, step) -> mp.mpc:
    """psi_seed(k, m, z) with d/ds cal_M by a difference in s at ``step``.

    Central for m < 0; for m > 0, where s = k/2 is the edge of the
    terminating regime, the one-sided second-order stencil from s > k/2.
    """
    with mp.workdps(ctx.work_dps):
        z, h, s0 = mp.mpc(z), mp.mpf(step), mp.mpf(k) / 2
        M = lambda s: cal_M(k, s, 4 * mp.pi * m * mp.im(z), ctx)
        if m < 0:
            d = (M(s0 + h) - M(s0 - h)) / (2 * h)
        else:
            d = (-3 * M(s0) + 4 * M(s0 + h) - M(s0 + 2 * h)) / (2 * h)
        return d * mp.exp(2j * mp.pi * m * mp.re(z))


def whittaker_nested_difference(k: int, y, ctx: PrecisionContext) -> mp.mpf:
    """d/ds [ d/dy' ( cal_M(k, s + k/2, -y') e^(-y'/2) ) ]_{s=0, y'=y} by nested central differences.

    Both steps are h = 10^(-digits/5), which balances the O(h^2) truncation
    against roundoff divided by h^2; y must exceed h.
    """
    with mp.workdps(ctx.work_dps):
        y = mp.mpf(y)
        h = mp.mpf(10) ** (-mp.mpf(ctx.digits) / 5)
        inner = lambda s, t: cal_M(k, s + mp.mpf(k) / 2, -t, ctx) * mp.exp(-t / 2)
        ddy = lambda s: (inner(s, y + h) - inner(s, y - h)) / (2 * h)
        return (ddy(h) - ddy(-h)) / (2 * h)


def w_relation_norms(P) -> tuple:
    """Coefficient sup norms of P|(1+S) and P|(1+U+U^2) at weight -deg P, relative to max(1, P's).

    Both vanish exactly for P in W_k, k - 2 = P's degree bound.
    """
    n = P.degree_bound
    scale = residual_scale(*P.coeffs)

    def norm(*gammas):
        images = [slash_polynomial(P, -n, g).coeffs for g in gammas]
        return max(abs(sum(cs)) for cs in zip(P.coeffs, *images)) / scale

    return norm(S), norm(U, U * U)
