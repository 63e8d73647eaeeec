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
from typing import Callable, Optional, Sequence

import mpmath as mp


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


@dataclass(frozen=True)
class PrecisionContext:
    """All numerical knobs in one immutable bundle.

    digits      decimal working precision (>= 30)
    series_len  default q-series truncation length
    fd_step     real step for finite differences; default 10^(-digits/3),
                which balances second-order truncation against roundoff
    tol_tight   tolerance for quadrature/series identities
    tol_fd      tolerance for finite-difference based identities; both
                defaults are doubles, the same whatever the ambient precision
    guard       extra working digits used inside kernels
    """

    digits: int = 50
    series_len: int = 64
    fd_step: Optional[mp.mpf] = None
    tol_tight: mp.mpf = mp.mpf(1e-20)
    tol_fd: mp.mpf = mp.mpf(1e-6)
    guard: int = 15
    _eps: mp.mpf = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.digits < 30:
            raise ValueError("digits must be >= 30")
        if self.series_len < 16:
            raise ValueError("series_len must be >= 16")
        if self.fd_step is None:
            with mp.workdps(self.digits + self.guard):
                h = mp.mpf(10) ** (-mp.mpf(self.digits) / 3)
            object.__setattr__(self, "fd_step", h)
        if not self.fd_step ** 2 > mp.mpf(10) ** (-self.digits):
            raise ValueError("fd_step^2 must exceed 10^(-digits)")
        with mp.workdps(self.work_dps):
            object.__setattr__(self, "_eps", mp.mpf(10) ** (-(self.digits + 8)))

    @property
    def work_dps(self) -> int:
        return self.digits + self.guard

    def eps(self) -> mp.mpf:
        """Series/quadrature cutoff 10^-(digits+8), well below the working precision.

        Computed once, at the working precision, whatever the ambient one.
        """
        return self._eps


DEFAULT_CTX = PrecisionContext()


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
        h = lambda u: integrand(mp.mpc(x0, y0 - mp.log(u) / mp.pi)) / u
        val, err = mp.quad(h, [0, 1], method="tanh-sinh", maxdegree=QUAD_MAXDEGREE, error=True)
        total, toterr = mp.mpc(0, 1) * val / mp.pi, err / mp.pi
        ensure_finite(total, "quad_ray result")
        if not toterr <= ctx.tol_tight * (1 + abs(total)):
            raise NonConvergent(
                f"quad_ray error estimate {mp.nstr(toterr, 5)} exceeds tolerance"
            )
        return total


def _check_stencil(z: mp.mpc, h: mp.mpf) -> None:
    if mp.im(z) - h <= 0:
        raise StepTooLarge("stencil leaves the upper half-plane")


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
        h = mp.mpf(step) if step is not None else mp.mpf(ctx.fd_step)
        _check_stencil(z, h)
        Fx = (F(z + h) - F(z - h)) / (2 * h)
        Fy = (F(z + mp.mpc(0, 1) * h) - F(z - mp.mpc(0, 1) * h)) / (2 * h)
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
        h = mp.mpf(step) if step is not None else mp.mpf(ctx.fd_step)
        _check_stencil(z, h)
        f0 = F(z)
        fxp, fxm = F(z + h), F(z - h)
        ih = mp.mpc(0, 1) * h
        fyp, fym = F(z + ih), F(z - ih)
        Fxx = (fxp - 2 * f0 + fxm) / h ** 2
        Fyy = (fyp - 2 * f0 + fym) / h ** 2
        Fx = (fxp - fxm) / (2 * h)
        Fy = (fyp - fym) / (2 * h)
        y = mp.im(z)
        val = -(y ** 2) * (Fxx + Fyy) + mp.mpc(0, 1) * k * y * (Fx + mp.mpc(0, 1) * Fy)
        return ensure_finite(val, "laplace_fd")
