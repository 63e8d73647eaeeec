"""Regularized cusp integrals and starred period objects.

The regularized integral R.int_{z0}^{i oo} f(w) dw is the value at u = 0 of
the analytic continuation of the e^(uw)-damped integral.  For integrands
(principal part) + (exponentially decaying remainder) against the rational
kernels used here, each principal term continues in closed form through
incomplete gamma functions of nonpositive integer order:

    R.int_{w0}^{i oo} e^(2 pi i n w) (w + a)^(-k) dw
        = e^(-lam a) (-lam)^(k-1) Gamma(1-k, -lam (w0 + a)),   lam = 2 pi i n.

Gamma(1-k, .) is log-branched, and the continuation path in u must pass the
obstruction points u = -2 pi i n on one side or the other; the two choices
differ by an explicit monodromy.  This module fixes the continuation through
{Re u < 0} (branch "L", equivalently a contour slanted down-right), applies
it uniformly to every term, and exposes the choice as a parameter.  All
verified identities hold under either uniform choice; the value of an
individual regularized integral does depend on it.  The principal value
comes from ``special.upper_incomplete_gamma``; the chosen sheet adds the
monodromy (-1)^(k-1)/(k-1)! (-+2 pi i) to it.  Branch "L" takes arg in
(0, 2 pi) and branch "R" takes arg in (-2 pi, 0], so an argument on the
negative real axis lies on the upper edge under "L" and the lower under "R".

Each kernel is a sum of terms scale (w + a)^(-s): the principal terms n < 0
take the formula above on the chosen sheet, the constant term n = 0 is
elementary, and the decaying part n >= 1 is the same formula summed over the
coefficients on the principal branch (``ray_sum``), whose length is fixed by
a certified tail bound.  There, once |x| > |1-s| + 1, Gamma(1-s, x) is
e^(-x) x^(1-s) / f with f the Legendre continued fraction, and the term
folds to c_n q0^n (w0 + a)^(1-s) / f with q0 = e^(2 pi i w0), so a whole
sum takes one exponential and one power besides the fractions.  Ray
quadrature is not used here; it remains the oracle that the tests compare
against.

Cusp-to-cusp integrals follow the base-point split
R.int_a^b = R.int_{z0}^b - R.int_{z0}^a with each cusp leg damped in its own
scaling-matrix coordinate; the level-1 cusps are 0 and i oo with sigma_0 = S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import mpmath as mp

from .eichler import PolynomialC, S
from .kernel import DomainError, PrecisionContext, xi_fd
from .qforms import QSeries, _certified_length, _check_tail, _coeff_model, _mpc_coeffs
from .reports import RelationReport, residual_scale
from .special import scaled_upper_gamma, upper_incomplete_gamma

DEFAULT_BRANCH = "L"

CUSP_ZERO = 0
CUSP_IOO = "ioo"


class NotRegularizable(DomainError):
    """A principal term yields a pole at u = 0 (constant against a polynomial)."""


@dataclass(frozen=True)
class RegKernel:
    """Rational or polynomial kernel composed against the input series.

    kind "plus": (w + z)^(-k); "sz": (wz - 1)^(-k); "one": constant 1;
    "poly": a polynomial in w.  k is the kernel exponent (even, >= 2).
    """

    kind: str
    k: int
    z: Optional[mp.mpc] = None
    poly: Optional[PolynomialC] = None

    def __post_init__(self):
        if self.kind not in ("plus", "sz", "one", "poly"):
            raise ValueError("unknown kernel kind")
        if self.kind in ("plus", "sz") and self.z is None:
            raise ValueError("rational kernel needs its z parameter")
        if self.kind == "poly" and self.poly is None:
            raise ValueError("poly kernel needs a polynomial")

    def terms(self) -> Tuple[Tuple[mp.mpc, int, mp.mpc], ...]:
        """(a, s, scale) with kernel(w) = sum scale (w + a)^(-s)."""
        if self.kind == "plus":
            return ((self.z, self.k, mp.mpc(1)),)
        if self.kind == "sz" and self.z != 0:
            return ((-1 / self.z, self.k, self.z ** (-self.k)),)
        if self.kind == "sz":  # (w 0 - 1)^(-k) is the constant (-1)^k
            return ((mp.mpc(0), 0, mp.mpc((-1) ** self.k)),)
        if self.kind == "one":
            return ((mp.mpc(0), 0, mp.mpc(1)),)
        return tuple((mp.mpc(0), -j, c) for j, c in enumerate(self.poly.coeffs) if c != 0)

    def s_transformed(self) -> "RegKernel":
        """Kernel of (M K)|_2 S for modular M of weight 2-k."""
        if self.kind == "plus":
            if self.z == 0:
                return RegKernel(kind="one", k=self.k)
            return RegKernel(kind="sz", k=self.k, z=self.z)
        if self.kind == "sz":
            return RegKernel(kind="plus", k=self.k, z=self.z)
        if self.kind == "one":
            return RegKernel(kind="plus", k=self.k, z=mp.mpc(0))
        raise DomainError("polynomial kernels have no cusp-zero transform here")


def _gamma_negint_on_branch(N: int, x: mp.mpc, branch: str, ctx: PrecisionContext) -> mp.mpc:
    """Gamma(-N, x) continued to the sheet that ``branch`` selects.

    Branch "L" takes arg x in (0, 2 pi), branch "R" takes arg x in
    (-2 pi, 0]; on the negative real axis "L" is the upper edge and "R" the
    lower edge.  Each differs from the principal value by the explicit
    monodromy (-1)^N/N! (-+2 pi i) of Gamma(-N, .) around 0.
    """
    x = mp.mpc(x)
    if branch == "L":
        turns = -1 if mp.im(x) < 0 else 0
    elif branch == "R":
        turns = 1 if mp.im(x) > 0 or (mp.im(x) == 0 and mp.re(x) < 0) else 0
    else:
        raise ValueError("branch must be 'L' or 'R'")
    jump = (-1) ** N / mp.factorial(N) * 2j * mp.pi * turns
    return upper_incomplete_gamma(-N, x, ctx) + jump


def exp_ray_integral(n: int, w0, a, s: int, ctx: PrecisionContext, branch: Optional[str] = None) -> mp.mpc:
    """R.int_{w0}^{i oo} e^(2 pi i n w) (w + a)^(-s) dw for integer s and n != 0.

    e^(-lam a) (-lam)^(s-1) Gamma(1-s, -lam (w0 + a)) with lam = 2 pi i n,
    on the principal branch, which is the plain integral when
    Re(-lam (w0 + a)) > 0 along the ray (n >= 1 and Im(w0 + a) > 0), or on
    the sheet ``branch`` selects (s >= 1; for s <= 0 Gamma(1-s, .) is entire).
    The principal terms n < 0 of ``reg_integral_to_icusp`` take it on a
    sheet; the decaying terms n >= 1 run folded in ``ray_sum``, and the
    principal-branch form is their unfolded oracle in the tests.
    """
    lam = 2j * mp.pi * n
    x = -lam * (w0 + a)
    if branch is None or s < 1:
        g = upper_incomplete_gamma(1 - s, x, ctx)
    else:
        g = _gamma_negint_on_branch(s - 1, x, branch, ctx)
    return mp.exp(-lam * a) * (-lam) ** (s - 1) * g


def ray_sum(series: QSeries, w0, a, s: int, ctx: PrecisionContext, scale=1) -> Tuple[mp.mpc, float]:
    """(scale sum_{n>=1} c_n int_{w0}^{i oo} e^(2 pi i n w) (w+a)^(-s) dw, log of its certified tail).

    c_n are the n >= 1 coefficients of ``series``; needs Im(w0 + a) > 0.
    With x = -2 pi i n (w0+a), Re x = 2 pi n Im(w0+a) > 0 and
    |x| = 2 pi n |w0+a| >= 2 pi Im(w0+a): for s >= 0,
    |Gamma(1-s, x)| <= |x|^(-s) e^(-Re x) (rotate the integration path of
    Gamma(1-s, x) = x^(1-s) e^(-x) int_0^oo e^(-xt) (1+t)^(-s) dt onto arg t = -arg x);
    for s < 0 the finite sum gives |Gamma(1-s, x)| <= e^(-Re x) (|x| - s)^(-s),
    at most |x|^(-s) e^(-Re x) (1 - s/(2 pi Im(w0+a)))^(-s) for every n.  So
    the n-th term is at most |scale c_n| (2 pi n)^(-1) |w0+a|^(-s) e^(-2 pi n Im w0),
    times that factor when s < 0.  Raises TailTooLarge when the window
    cannot certify the digits.

    For integer s the n-th term folds to c_n q0^n (w0+a)^(1-s) G_n with
    q0 = e^(2 pi i w0) and G_n = e^x x^(s-1) Gamma(1-s, x): q0^n is a running
    product and (w0+a)^(1-s) one power per sum.  Once |x| > |1-s| + 1,
    G_n = 1/f_n for the Legendre continued fraction f_n
    (``special.scaled_upper_gamma``), so those terms take no exponential or
    power of their own; the few terms below that threshold take G_n from
    ``upper_incomplete_gamma``.
    """
    height = mp.im(w0 + a)
    if not height > 0:
        raise DomainError("ray sum needs Im(w0 + a) > 0")
    bound = abs(scale) / (2 * mp.pi) / abs(w0 + a) ** s
    if s < 0:
        bound *= (1 - s / (2 * mp.pi * height)) ** (-s)
    log_b, alpha, beta = _coeff_model(series)
    model = (log_b + float(mp.log(bound)), alpha - 1, beta)
    N, log_tail = _certified_length(model, -2 * math.pi * float(mp.im(w0)), series.n_max, ctx)
    coeffs = _mpc_coeffs(series)
    x1 = -2j * mp.pi * (w0 + a)
    order, eps = mp.mpf(1 - s), ctx.eps()
    n_fold = int((abs(1 - s) + 1) / abs(x1)) + 1  # first n on the continued-fraction branch
    q0 = mp.exp(2j * mp.pi * w0)
    start = max(1, series.n_min)
    qn = q0 ** (start - 1)
    total = mp.mpc(0)
    for n in range(start, N + 1):
        qn *= q0
        c = coeffs[n - series.n_min]
        if c == 0:
            continue
        x = n * x1
        if n < n_fold:
            g = upper_incomplete_gamma(order, x, ctx) * mp.exp(x) * x ** (s - 1)
        else:
            g = scaled_upper_gamma(order, x, eps)
        total += c * qn * g
    total *= scale * (w0 + a) ** (1 - s)
    _check_tail(log_tail, total, ctx, f"ray sum of {series.label}")
    return total, log_tail


def reg_integral_to_icusp(
    M: QSeries,
    kernel: RegKernel,
    z0,
    ctx: PrecisionContext,
    branch: str = DEFAULT_BRANCH,
) -> mp.mpc:
    """R.int_{z0}^{i oo} M(w) * kernel(w) dw.

    For each kernel term scale (w + a)^(-s): the principal terms n < 0 of M
    are continued in closed form on the sheet ``branch`` selects, the
    constant term is elementary, and the decaying remainder n >= 1 is the
    certified ``ray_sum`` (which needs Im(z0 + a) > 0).  Raises
    NotRegularizable when the constant term has a genuine pole at u = 0
    (s <= 1).
    """
    with mp.workdps(ctx.work_dps):
        z0 = mp.mpc(z0)
        coeffs = _mpc_coeffs(M)
        total = mp.mpc(0)
        for a, s, scale in kernel.terms():
            if s >= 1 and z0 + a == 0:
                raise DomainError("kernel pole sits at the base point")
            for n in range(M.n_min, min(M.n_max, 0) + 1):
                c = coeffs[n - M.n_min]
                if c == 0:
                    continue
                if n < 0:
                    total += c * scale * exp_ray_integral(n, z0, a, s, ctx, branch)
                elif s < 2:
                    raise NotRegularizable("constant term against a non-decaying kernel has a pole at u = 0")
                else:
                    total += c * scale * (z0 + a) ** (1 - s) / (s - 1)
            if M.n_max >= 1:
                total += ray_sum(M, z0, a, s, ctx, scale)[0]
        return total


def _leg_to_cusp(
    M: QSeries,
    kernel: RegKernel,
    cusp,
    z0: mp.mpc,
    ctx: PrecisionContext,
    branch: str,
) -> mp.mpc:
    """R.int_{z0}^{cusp} with the damping taken in the cusp's own coordinate."""
    if cusp == CUSP_IOO:
        return reg_integral_to_icusp(M, kernel, z0, ctx, branch)
    if cusp == CUSP_ZERO:
        if not M.modular:
            raise DomainError("cusp-zero leg needs a modular series")
        return reg_integral_to_icusp(M, kernel.s_transformed(), S.apply(z0), ctx, branch)
    raise DomainError("supported cusps: 0 and 'ioo'")


def reg_integral_cusp_to_cusp(
    M: QSeries,
    kernel: RegKernel,
    cusp_a,
    cusp_b,
    z0,
    ctx: PrecisionContext,
    branch: str = DEFAULT_BRANCH,
) -> mp.mpc:
    """R.int_{cusp_a}^{cusp_b} = R.int_{z0}^{cusp_b} - R.int_{z0}^{cusp_a}.

    Independent of the base point z0; antisymmetric in (a, b) by construction.
    """
    with mp.workdps(ctx.work_dps):
        z0 = mp.mpc(z0)
        if not mp.im(z0) > 0:
            raise DomainError("base point must lie in the upper half-plane")
        if cusp_a == cusp_b:
            return mp.mpc(0)
        leg_b = _leg_to_cusp(M, kernel, cusp_b, z0, ctx, branch)
        leg_a = _leg_to_cusp(M, kernel, cusp_a, z0, ctx, branch)
        return leg_b - leg_a


@dataclass(frozen=True)
class StarredPeriods:
    """Pointwise starred periods; hatstar = rstar - tildestar exactly."""

    z: mp.mpc
    Fstar: mp.mpc
    rstar: mp.mpc
    tildestar: mp.mpc
    hatstar: mp.mpc


def _modularity_spot_check(M: QSeries, ctx: PrecisionContext) -> None:
    """Raise DomainError unless M(Sz) = z^w M(z) at one fixed point; a pass is memoized per ctx."""
    from .qforms import evaluate

    key = ("modular_at", ctx)
    if key in M._memo:
        return
    z = mp.mpc("0.37", "1.21")
    lhs = evaluate(M, S.apply(z), ctx)
    rhs = z ** M.weight * evaluate(M, z, ctx)
    if not abs(lhs - rhs) <= mp.mpf("1e-10") * residual_scale(lhs, rhs):
        raise DomainError(
            "input is not modular; pass its period cocycle explicitly via `cocycle`"
        )
    M._memo[key] = True


def starred_periods(
    M: QSeries,
    z,
    ctx: PrecisionContext,
    branch: str = DEFAULT_BRANCH,
    cocycle: Optional[PolynomialC] = None,
    z0=None,
) -> StarredPeriods:
    """Starred period objects of a weight-(2-k) input at z.

    Fstar(z)     = R.int_{-conj z}^{i oo} M(w) (w+z)^(-k) dw
    rstar(z)     = [R.int_0^{i oo} M(w) (w+.)^(-k) dw] |_k S (z)
                 = R.int_0^{i oo} M(w) (wz-1)^(-k) dw
    tildestar(z) = int_{-conj z}^{i oo} Q(w) (w+z)^(-k) dw,

    where Q = M |_{2-k} (1 - S) is the period cocycle of the input.  For a
    genuinely modular M the cocycle vanishes and tildestar = 0; a nonzero
    cocycle must be supplied by the caller (synthetic inputs here are
    modular, and the cocycle of a general harmonic-part candidate is not
    recoverable from its expansion alone).  tildestar is integrated exactly
    by ``PolynomialC.kernel_integral``, so the cocycle must have degree <= k-2.
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        if not mp.im(z) > 0:
            raise DomainError("starred periods need Im z > 0")
        k = 2 - M.weight
        if cocycle is None:
            if M.is_zero():
                return StarredPeriods(z=z, Fstar=mp.mpc(0), rstar=mp.mpc(0), tildestar=mp.mpc(0), hatstar=mp.mpc(0))
            _modularity_spot_check(M, ctx)
        base = mp.mpc(z0) if z0 is not None else mp.mpc(0, 1)
        fstar = reg_integral_to_icusp(M, RegKernel(kind="plus", k=k, z=z), -mp.conj(z), ctx, branch)
        rst = reg_integral_cusp_to_cusp(
            M, RegKernel(kind="sz", k=k, z=z), CUSP_ZERO, CUSP_IOO, base, ctx, branch
        )
        if cocycle is None or cocycle.is_zero():
            tst = mp.mpc(0)
        else:
            tst = cocycle.kernel_integral(k, z, -mp.conj(z))
        return StarredPeriods(z=z, Fstar=fstar, rstar=rst, tildestar=tst, hatstar=rst - tst)


def verify_per_star(
    M: QSeries,
    pts: Sequence[complex],
    ctx: PrecisionContext,
    branch: str = DEFAULT_BRANCH,
) -> list:
    """Reports: Fstar|_k(S-1) = hatstar, the two period relations, xi-image.

    For the modular synthetic input the cocycle vanishes, so the xi-image of
    hatstar must vanish to FD tolerance (holomorphy of the starred
    completion); the xi residual is scaled by the magnitude of hatstar.
    """
    k = 2 - M.weight
    hat = lambda w: starred_periods(M, w, ctx, branch).hatstar
    res_eq, res_s, res_u, res_xi = [], [], [], []
    from .eichler import U, slash_function

    with mp.workdps(ctx.work_dps):
        for z in pts:
            z = mp.mpc(z)
            sp = starred_periods(M, z, ctx, branch)
            sp_s = starred_periods(M, S.apply(z), ctx, branch)
            lhs = sp_s.Fstar * z ** (-k) - sp.Fstar
            res_eq.append(abs(lhs - sp.hatstar) / residual_scale(lhs, sp.hatstar))

            hs = sp.hatstar + sp_s.hatstar * z ** (-k)
            hu = (
                sp.hatstar
                + slash_function(hat, k, U)(z)
                + slash_function(hat, k, U * U)(z)
            )
            scale = residual_scale(sp.hatstar)
            res_s.append(abs(hs) / scale)
            res_u.append(abs(hu) / scale)

            xv = xi_fd(hat, k, z, ctx)
            res_xi.append(abs(xv) / residual_scale(sp.hatstar))
    return [
        RelationReport.from_residuals(f"perstar_eq[{M.label}]", pts, res_eq, ctx.tol_tight),
        RelationReport.from_residuals(f"perstar_slash_S[{M.label}]", pts, res_s, ctx.tol_tight),
        RelationReport.from_residuals(f"perstar_slash_U[{M.label}]", pts, res_u, ctx.tol_tight),
        RelationReport.from_residuals(f"perstar_xi_holomorphy[{M.label}]", pts, res_xi, ctx.tol_fd),
    ]
