"""Quadrature and difference oracles that only the tests call.

Each quadrature oracle is the defining integral of an object the package
computes in closed form or by certified series.  The mp.quad oracles raise
NonConvergent when the quadrature's own error estimate exceeds
tol_tight (1 + |value|); ``r2_quadrature`` runs the package's ray
quadrature, which raises by its own rule.  The difference oracles take the
s-derivative of the Whittaker seed by finite differences of ``cal_M``, which
the package sums in closed form; their error is O(step^2).  The W_k check
reads the period relations of a polynomial off its coefficients, slashed
exactly by ``slash_polynomial``.  The incomplete-gamma oracles share no
code with the package's continued fraction: ``gamma_oracle`` takes
mpmath's gammainc, or E1 with an exact finite sum, and
``legendre_fraction_forward`` evaluates the same continued fraction by the
Wallis forward recurrence, the reference for the package's backward pass.
"""

import math

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


def gamma_oracle(s, x, dps):
    """Gamma(s, x) to dps digits, independent of the continued fraction.

    mp.gammainc for complex and positive integer orders (a finite sum at the
    latter).  At a nonpositive integer order -N and
    complex x it takes seconds per call (its hypergeometric fallback), so
    there mpmath's E1 with the exact finite sum
    Gamma(-N, x) = (-1)^N/N! (E1(x) - e^(-x) sum_{j<N} (-1)^j j! x^(-j-1))
    runs instead, with the digits that sum cancels, log10(N! |x|^N), added.
    """
    if isinstance(s, mp.mpc) or s > 0:
        with mp.workdps(dps):
            return mp.gammainc(s, x)
    N = int(-s)
    with mp.workdps(dps + int(mp.log10(mp.factorial(N) * abs(x) ** N)) + 5):
        acc, term = mp.mpc(0), 1 / mp.mpc(x)
        for j in range(N):
            acc += term
            term *= -(j + 1) / x
        return (-1) ** N / mp.factorial(N) * (mp.e1(x) - mp.exp(-x) * acc)


def ray_term(n: int, w0, a, s: int, dps: int) -> mp.mpc:
    """int_{w0}^{i oo} e^(2 pi i n w) (w + a)^(-s) dw for n >= 1, Im(w0 + a) >= 0 and w0 + a != 0, from ``gamma_oracle``.

    e^(-lam a) (-lam)^(s-1) Gamma(1-s, x) with lam = 2 pi i n and
    x = -lam (w0 + a), Re x >= 0, on Gamma's principal branch.
    """
    with mp.workdps(dps):
        lam = 2j * mp.pi * n
        gamma = gamma_oracle(1 - s, -lam * (w0 + a), dps)
        return mp.exp(-lam * a) * (-lam) ** (s - 1) * gamma


def legendre_fraction_forward(s: tuple, x: tuple, P: int, log2_tol: float) -> tuple:
    """The reference for ``special._legendre_fraction``: the same (Br, Bi, eB, Ar, Ai, eA, steps) by the Wallis forward recurrence.

    ``s`` and ``x`` are (Re, Im) integer pairs times 2^P, and f is the
    Legendre continued fraction b_0 + a_1/(b_1 + a_2/(b_2 + ...)) with
    b_j = x + 2j + 1 - s and a_j = -j (j - s) (DLMF 8.9.2).  The Wallis
    recurrence A_j = b_j A_(j-1) + a_j A_(j-2), and the same for B, from
    (A_-1, A_0) = (1, b_0), (B_-1, B_0) = (0, 1), runs on Gaussian integers
    at the scale 2^P, each pair shifted back to about P bits on its own.
    Since A_j B_(j-1) - A_(j-1) B_j = (-1)^(j+1) a_1 ... a_j, the step is
    |f_n - f_(n-1)| / |f_n| = |a_1 ... a_n| / |A_n B_(n-1)|, read in float
    log2 against bit lengths, which overestimate it; the loop stops once
    it is below 2^log2_tol and the steps left, about the last one times
    r/(1 - r) for the ratio r of consecutive steps, are below
    2^(log2_tol + 2).  At a positive integer order m, a_m = 0 and the
    fraction ends exactly after m - 1 steps.  Run with more bits and a
    tighter tolerance, it is the tests' value of 1/f.
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

