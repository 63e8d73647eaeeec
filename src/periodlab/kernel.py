"""Numerical kernel: precision context, ray quadrature, finite-difference operators.

All arithmetic is mpmath-based.  "Complex value" throughout the package means
an ``mpmath.mpc`` carried at the working precision of the active
:class:`PrecisionContext`; no wrapper type is introduced.  Every routine is
pure: a context object is read-only and may be shared between concurrent
callers, and quadrature/summation orders are fixed so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import mpmath as mp
from mpmath.libmp import mpf_add, mpf_mul


class KernelError(Exception):
    """Base class for numerical-kernel failures."""


class NonConvergent(KernelError):
    """Quadrature refinements failed to agree within tolerance."""


class BadPath(KernelError):
    """An integration path leaves the certified region (or hits a pole)."""


class StepTooLarge(KernelError):
    """A finite-difference stencil leaves the certified analyticity region."""


class DomainError(KernelError):
    """Argument outside the mathematical domain of an operation."""


class TailTooLarge(KernelError):
    """A certified series tail exceeds the requested tolerance."""


# maximal mpmath quadrature degree, for every quadrature in the package
QUAD_MAXDEGREE = 10

# extra working digits used inside kernels, beyond a context's digits
GUARD_DIGITS = 15


@dataclass(frozen=True)
class PrecisionContext:
    """The working precision and the tolerances in one immutable bundle.

    digits      decimal working precision (>= 30); kernels work at
                ``work_dps`` = digits + GUARD_DIGITS.  No series length is
                set here: each q-series sum derives its own from the digits
                (``qforms._certified_length``)
    tol_tight   tolerance for quadrature/series identities
    tol_fd      tolerance for finite-difference based identities; both
                defaults are doubles, the same whatever the ambient precision

    Derived, computed once at the working precision whatever the ambient
    one: ``fd_step`` = 10^(-digits/3), the real step of the finite
    differences, which balances second-order truncation against roundoff,
    and the cutoff ``eps()``.
    """

    digits: int = 50
    tol_tight: mp.mpf = mp.mpf(1e-20)
    tol_fd: mp.mpf = mp.mpf(1e-6)
    fd_step: mp.mpf = field(default=None, init=False, compare=False, hash=False, repr=False)
    _eps: mp.mpf = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30")
        with mp.workdps(self.work_dps):
            object.__setattr__(self, "fd_step", mp.mpf(10) ** (-mp.mpf(self.digits) / 3))
            object.__setattr__(self, "_eps", mp.mpf(10) ** (-(self.digits + 8)))

    @property
    def work_dps(self) -> int:
        return self.digits + GUARD_DIGITS

    def eps(self) -> mp.mpf:
        """Series/quadrature cutoff 10^-(digits+8), well below the working precision."""
        return self._eps


def ensure_finite(value: mp.mpc, what: str = "result") -> mp.mpc:
    if not mp.isfinite(value):
        raise NonConvergent(f"{what} is not finite")
    return value


def path_clearance(start: mp.mpc, points: Sequence[complex], min_dist: float = 1e-6) -> None:
    """Raise BadPath when any of ``points`` comes within ``min_dist`` of the ray up from ``start``."""
    x0, y0 = mp.re(start), mp.im(start)
    for p in points:
        p = mp.mpc(p)
        dx = abs(mp.re(p) - x0)
        dy = mp.mpf(0) if mp.im(p) >= y0 else y0 - mp.im(p)
        if mp.sqrt(dx * dx + dy * dy) < min_dist:
            raise BadPath(f"pole {p} too close to vertical ray")


class RayPoint(mp.mpc):
    """A node w of ``quad_ray``: an mpc that also carries q = e^(2 pi i w).

    ``q`` = (P, E, cos, sin), the parts of ``qforms.q_parts`` held to P bits.
    Arithmetic never sets it: a translation or w -> -1/w returns a plain
    mpc, or a RayPoint without q (mpmath types an mpf-op-mpc result after
    its right operand), so either drops the carried q; read it as
    ``getattr(w, "q", None)``.
    """

    __slots__ = ("q",)


@lru_cache(maxsize=None)
def _ray_nodes(degree: int, prec: int) -> tuple:
    """(heights s, weights, e^(-2 pi s)) of mp.quad's tanh-sinh nodes on [0, 1].

    From the rule's own nodes (u, w) of that degree at precision ``prec``:
    the height s = -ln(u)/pi above the start, rounded as mp.quad's integrand
    would round it at prec + 20 bits (raw mpf), the weight w/u (mpf), and
    e^(-2 pi s) to prec + Q_GUARD_BITS bits (raw mpf).
    """
    from .qforms import Q_GUARD_BITS, q_parts

    heights, weights, decays = [], [], []
    zero, P = mp.mpf(0)._mpf_, prec + Q_GUARD_BITS
    with mp.workprec(prec + 20):
        for u, w in mp.mp._tanh_sinh.get_nodes(mp.mpf(0), mp.mpf(1), degree, prec):
            s = (-(mp.log(u) / mp.pi))._mpf_
            heights.append(s)
            weights.append(w / u)
            decays.append(q_parts(zero, s, P)[0])
    return tuple(heights), tuple(weights), tuple(decays)


def _ray_tanh_sinh(integrand, x0: mp.mpf, y0: mp.mpf) -> tuple:
    """(int_0^1 g(x0 + i t(u)) du/u, error estimate), t = y0 - ln(u)/pi.

    The pass, nodes and stop rule of mp.quad on [0, 1] with
    method="tanh-sinh", maxdegree=QUAD_MAXDEGREE and error=True, at the
    current precision: the integrand sees the same points in the same
    order, at prec + 20 bits, each as a RayPoint whose q is
    q(w0) e^(-2 pi s), so a ray takes one exponential and one cosine/sine
    pair and each node one product.
    """
    from .qforms import Q_GUARD_BITS, q_parts

    rule, prec = mp.mp._tanh_sinh, mp.mp.prec
    epsilon = mp.eps / 8
    P = prec + Q_GUARD_BITS
    x0, y0, new = x0._mpf_, y0._mpf_, object.__new__
    E0, cos, sin = q_parts(x0, y0, P)
    results, err = [], mp.mpf(0)
    with mp.extraprec(20):
        wp = mp.mp.prec
        for degree in range(1, QUAD_MAXDEGREE + 1):
            heights, weights, decays = _ray_nodes(degree, prec)
            values = []
            for s, Es in zip(heights, decays):
                w = new(RayPoint)
                w._mpc_ = (x0, mpf_add(y0, s, wp))
                w.q = (P, mpf_mul(E0, Es, P + 8), cos, sin)
                values.append(integrand(w))
            # TanhSinh.sum_next: half the nodes are the previous degree's
            h = mp.mpf(2) ** (-degree)
            S = results[-1] / (h * 2) if results else mp.mpf(0)
            results.append(h * (S + mp.fdot(weights, values)))
            if degree > 1:
                err = rule.estimate_error(results, prec, epsilon)
                if err <= epsilon:
                    break
    return +results[-1], err


def quad_ray(
    integrand: Callable[[mp.mpc], mp.mpc],
    start,
    ctx: PrecisionContext,
    avoid: Sequence[complex] = (),
) -> mp.mpc:
    """Integrate ``integrand`` up the vertical ray from ``start`` to i*infinity.

    The caller certifies |integrand(x+iy)| <= C e^(-2 pi y): every integrand
    is a q-series times a kernel of polynomial size.  The ray w = x0 + i t,
    t >= y0, is mapped onto u in (0, 1] by u = e^(-pi (t - y0)), so that
    int_{w0}^{i oo} g dw = (i/pi) int_0^1 g(x0 + i t(u)) du/u, one tanh-sinh
    pass.  The u-integrand is at most C e^(-2 pi y0) u/pi: it vanishes at
    u = 0, with only (ln 1/u)^j factors from polynomial kernels, and a cusp
    start (y0 = 0) sits at the endpoint u = 1, where tanh-sinh copes with
    bounded integrands that are not smooth.  The deepest node, u about
    2^(-prec) at the quadrature's precision, reaches t - y0 of about
    prec ln 2 / pi (about 50 at 50 digits); the rate pi rather than 2 pi
    doubles that depth, which the (ln 1/u)^j kernels need.  Start points
    may sit on the real axis (cusps) only when the caller certifies the
    integrand bounded there.

    The pass is mp.quad's own (same nodes, degrees and stop rule, so the
    same integrand calls), run over nodes cached per degree and precision
    as (t - y0, weight/u, e^(-2 pi (t - y0))).  Each node reaches the
    integrand as a RayPoint carrying q = q(w0) e^(-2 pi (t - y0)), which
    the q-series sums use in place of their own exponential and
    cosine/sine pair: those are taken once per ray, not once per node.

    Raises NonConvergent when the internal error estimate exceeds
    tol_tight * (1 + |result|), BadPath when the start lies below the real
    axis or a point of ``avoid`` lies on the ray.
    """
    with mp.workdps(ctx.work_dps):
        start = mp.mpc(start)
        x0, y0 = mp.re(start), mp.im(start)
        if y0 < 0:
            raise BadPath("ray start below the real axis")
        if avoid:
            path_clearance(start, avoid)
        val, err = _ray_tanh_sinh(integrand, x0, y0)
        total, toterr = mp.mpc(0, 1) * val / mp.pi, err / mp.pi
        ensure_finite(total, "quad_ray result")
        if not toterr <= ctx.tol_tight * (1 + abs(total)):
            raise NonConvergent(
                f"quad_ray error estimate {mp.nstr(toterr, 5)} exceeds tolerance"
            )
        return total


def _stencil(F: Callable[[mp.mpc], mp.mpc], z: mp.mpc, ctx: PrecisionContext, step) -> tuple:
    """(h, F(z+h), F(z-h), F(z+ih), F(z-ih)) for the step ``step`` (default ctx.fd_step)."""
    h = mp.mpf(step) if step is not None else mp.mpf(ctx.fd_step)
    if mp.im(z) - h <= 0:
        raise StepTooLarge("stencil leaves the upper half-plane")
    ih = mp.mpc(0, 1) * h
    return h, F(z + h), F(z - h), F(z + ih), F(z - ih)


def xi_fd(
    F: Callable[[mp.mpc], mp.mpc],
    k: int,
    z: complex,
    ctx: PrecisionContext,
    step: Optional[mp.mpf] = None,
) -> mp.mpc:
    """Weight-k xi operator 2i y^k conj(dF/dzbar) by central differences.

    dF/dzbar = (F_x + i F_y)/2 with second-order stencils of width
    ctx.fd_step.  The error is O(fd_step^2) relative to the magnitude of F
    near z, so F must be evaluated essentially to full working precision.
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        h, fxp, fxm, fyp, fym = _stencil(F, z, ctx, step)
        Fx = (fxp - fxm) / (2 * h)
        Fy = (fyp - fym) / (2 * h)
        dzbar = (Fx + mp.mpc(0, 1) * Fy) / 2
        return ensure_finite(2j * mp.im(z) ** k * mp.conj(dzbar), "xi_fd")


def laplace_fd(
    F: Callable[[mp.mpc], mp.mpc],
    k: int,
    z: complex,
    ctx: PrecisionContext,
    step: Optional[mp.mpf] = None,
) -> mp.mpc:
    """Weight-k hyperbolic Laplacian -y^2(F_xx+F_yy) + iky(F_x+iF_y), 5-point stencil."""
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        h, fxp, fxm, fyp, fym = _stencil(F, z, ctx, step)
        f0 = F(z)
        Fxx = (fxp - 2 * f0 + fxm) / h ** 2
        Fyy = (fyp - 2 * f0 + fym) / h ** 2
        Fx = (fxp - fxm) / (2 * h)
        Fy = (fyp - fym) / (2 * h)
        y = mp.im(z)
        val = -(y ** 2) * (Fxx + Fyy) + mp.mpc(0, 1) * k * y * (Fx + mp.mpc(0, 1) * Fy)
        return ensure_finite(val, "laplace_fd")
