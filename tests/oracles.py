"""Quadrature oracles that only the tests call.

Each is the defining integral of an object the package computes in closed
form, evaluated by mp.quad, and raises NonConvergent when the quadrature's
own error estimate exceeds tol_tight (1 + |value|).
"""

import mpmath as mp

from periodlab import DomainError, NonConvergent, PrecisionContext, period_polynomial
from periodlab.kernel import QUAD_MAXDEGREE


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
