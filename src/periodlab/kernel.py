"""Numerical kernel: precision context, ray quadrature, finite-difference operators.

All arithmetic is mpmath-based.  "Complex value" throughout the package
means an ``mpmath.mpc`` carried at the working precision of the active
:class:`PrecisionContext`; no wrapper type is introduced.  Every routine is
pure: a context object is read-only and may be shared between concurrent
callers, and quadrature/summation orders are fixed so repeated runs are
bit-identical.  Ray quadrature is mp.quad's tanh-sinh pass, with a rule
whose nodes are ray heights, stopped at the context's cutoff ``eps()``
relative to the value, like every certified series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import mpf_add, mpf_mul

from .fixedpoint import GUARD_BITS, q_parts

class KernelError(Exception):
    """Base class for numerical-kernel failures."""


class NonConvergent(KernelError):
    """Quadrature refinements failed to agree within tolerance."""


class BadPath(KernelError):
    """A ray of integration starts below the real axis."""


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


class RayPoint(mp.mpc):
    """A node w of ``quad_ray``: an mpc that also carries q = e^(2 pi i w).

    ``q`` = (P, E, cos, sin), the parts of ``fixedpoint.q_parts`` held to P bits.
    Arithmetic never sets it: a translation or w -> -1/w returns a plain
    mpc, or a RayPoint without q (mpmath types an mpf-op-mpc result after
    its right operand), so either drops the carried q; read it as
    ``getattr(w, "q", None)``.
    """

    __slots__ = ("q",)


class _RayRule(TanhSinh):
    """mp.quad's tanh-sinh rule on [0, 1], its nodes moved up a ray.

    Each tanh-sinh node u on [0, 1] with weight w becomes the node
    (s, e^(-2 pi s)) with weight w/u: s = -ln(u)/pi is the height above the
    ray's start (raw mpf, rounded at prec + 20 bits, the precision the pass
    calls its integrand at) and e^(-2 pi s) is held to prec + ``GUARD_BITS``
    bits (raw mpf).  These are the rule's nodes on its standard interval [-1, 1], which the
    pass does not transform, so mpmath caches them per degree and
    precision from the first ray on.

    The error estimate is mpmath's extrapolation from the last three
    degrees, divided by pi + |I| for the
    pass's value I: the ray integral is i I/pi, so the estimate is relative
    to 1 + |i I/pi|, the scale every cutoff in the package is relative to.
    """

    def calc_nodes(self, degree, prec, verbose=False):
        ctx = self.ctx
        zero, P = ctx.zero._mpf_, prec + GUARD_BITS
        ray_nodes = []
        with ctx.workprec(prec + 20):
            nodes = super().calc_nodes(degree, prec, verbose)
            for u, w in self.transform_nodes(nodes, 0, 1):
                s = (-(ctx.log(u) / ctx.pi))._mpf_
                ray_nodes.append(((s, q_parts(zero, s, P)[0]), w / u))
        return ray_nodes

    def estimate_error(self, results, prec, epsilon):
        return super().estimate_error(results, prec, epsilon) / (self.ctx.pi + abs(results[-1]))


_RAY_RULE = _RayRule(mp.mp)


def quad_ray(integrand: Callable[[mp.mpc], mp.mpc], start, ctx: PrecisionContext) -> mp.mpc:
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

    The pass is mp.quad's: ``_RayRule``'s summation at degrees 1 to
    QUAD_MAXDEGREE, 20 bits above the working precision, on a tanh-sinh
    rule whose nodes are ray heights t - y0 paired with
    e^(-2 pi (t - y0)).  It stops at the first degree whose error estimate
    is at most ``ctx.eps()`` (1 + |result|), the cutoff every certified
    series in the package stops at, not at mp.quad's 2^(-prec)/8, which
    lies 9 digits below it.  Each node reaches the integrand as a RayPoint
    carrying q = q(w0) e^(-2 pi (t - y0)), which the q-series sums use in
    place of their own exponential and cosine/sine pair: those are taken
    once per ray, not once per node.

    Raises NonConvergent when the error estimate exceeds
    tol_tight * (1 + |result|), BadPath when the start lies below the real
    axis.
    """
    with mp.workdps(ctx.work_dps):
        start = mp.mpc(start)
        if mp.im(start) < 0:
            raise BadPath("ray start below the real axis")
        x0, y0 = start._mpc_
        P = mp.mp.prec + GUARD_BITS
        E0, cos, sin = q_parts(x0, y0, P)
        new = object.__new__

        def on_ray(node):
            # the height y0 + s at the precision mp.quad evaluates at
            s, Es = node
            w = new(RayPoint)
            w._mpc_ = (x0, mpf_add(y0, s, mp.mp.prec))
            w.q = (P, mpf_mul(E0, Es, P + 8), cos, sin)
            return integrand(w)

        # one rule instance keeps one node cache; [-1, 1] is the interval the
        # ray nodes are given on; err comes back relative to 1 + |total|
        prec = mp.mp.prec
        with mp.workprec(prec + 20):
            val, err = _RAY_RULE.summation(on_ray, [-1, 1], prec, ctx.eps(), QUAD_MAXDEGREE)
        total = mp.mpc(0, 1) * val / mp.pi
        ensure_finite(total, "quad_ray result")
        if not err <= ctx.tol_tight:
            raise NonConvergent(
                f"quad_ray error estimate {mp.nstr(err * (1 + abs(total)), 5)} exceeds tolerance"
            )
        return total


def _stencil(F: Callable[[mp.mpc], mp.mpc], z: mp.mpc, ctx: PrecisionContext, values=None) -> tuple:
    """(h, F(z+h), F(z-h), F(z+ih), F(z-ih)) for the context's one step h = ctx.fd_step.

    ``values``, when given, maps the four points to F at them in one call.
    """
    h = ctx.fd_step
    if mp.im(z) - h <= 0:
        raise StepTooLarge("stencil leaves the upper half-plane")
    ih = mp.mpc(0, 1) * h
    points = (z + h, z - h, z + ih, z - ih)
    return (h, *(values(points) if values else map(F, points)))


def xi_fd(F: Callable[[mp.mpc], mp.mpc], k: int, z: complex, ctx: PrecisionContext, stencil=None) -> mp.mpc:
    """Weight-k xi operator 2i y^k conj(dF/dzbar) by central differences.

    dF/dzbar = (F_x + i F_y)/2 with second-order stencils of width
    ctx.fd_step.  The error is O(fd_step^2) relative to the magnitude of F
    near z, so F must be evaluated essentially to full working precision.
    ``stencil``, when given, is a stencil evaluator: it maps the four
    points z +- h, z +- ih to F at them in one call (``regint`` sums
    hatstar's stencil from one ray-sum jet, ``poincare`` a seed's from one
    confluent series), in place of four calls of F, which may then be None;
    the points, step and formula are the same.
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        h, fxp, fxm, fyp, fym = _stencil(F, z, ctx, stencil)
        Fx = (fxp - fxm) / (2 * h)
        Fy = (fyp - fym) / (2 * h)
        dzbar = (Fx + mp.mpc(0, 1) * Fy) / 2
        return ensure_finite(2j * mp.im(z) ** k * mp.conj(dzbar), "xi_fd")


def laplace_fd(F: Callable[[mp.mpc], mp.mpc], k: int, z: complex, ctx: PrecisionContext, stencil=None) -> mp.mpc:
    """Weight-k hyperbolic Laplacian -y^2(F_xx+F_yy) + iky(F_x+iF_y), 5-point stencil.

    ``stencil`` is a stencil evaluator for the four points around z, as in
    ``xi_fd``; the center takes F(z).
    """
    with mp.workdps(ctx.work_dps):
        z = mp.mpc(z)
        h, fxp, fxm, fyp, fym = _stencil(F, z, ctx, stencil)
        f0 = F(z)
        Fxx = (fxp - 2 * f0 + fxm) / h ** 2
        Fyy = (fyp - 2 * f0 + fym) / h ** 2
        Fx = (fxp - fxm) / (2 * h)
        Fy = (fyp - fym) / (2 * h)
        y = mp.im(z)
        val = -(y ** 2) * (Fxx + Fyy) + mp.mpc(0, 1) * k * y * (Fx + mp.mpc(0, 1) * Fy)
        return ensure_finite(val, "laplace_fd")
