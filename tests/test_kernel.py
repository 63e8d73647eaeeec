"""Kernel: context invariants, ray quadrature, finite-difference operators."""

import mpmath as mp
import pytest
import random
import sys

from periodlab import (
    BadPath,
    F_f2,
    PrecisionContext,
    StepTooLarge,
    hat_r_f2,
    laplace_fd,
    noncritical_lvalue,
    period_polynomial_quadrature,
    quad_ray,
    r_f2,
    starred_periods,
    verify_mock_es,
    verify_w_k2,
    xi_fd,
)
import periodlab.eichler as eichler
import periodlab.mockcore as mockcore
from periodlab.regint import exp_ray_integral


def test_context_invariants():
    with pytest.raises(ValueError):
        PrecisionContext(digits=20)
    with pytest.raises(ValueError):
        PrecisionContext(series_len=4)
    with pytest.raises(ValueError):
        PrecisionContext(digits=50, fd_step=mp.mpf("1e-30"))
    ctx = PrecisionContext()
    assert ctx.fd_step ** 2 > mp.mpf(10) ** (-ctx.digits)


def test_eps_computed_once():
    # computed at the working precision, whatever the ambient one, and not
    # part of equality or hashing
    with mp.workdps(15):
        ctx, again = PrecisionContext(digits=60), PrecisionContext(digits=60)
    with mp.workdps(ctx.work_dps):
        assert ctx.eps() == mp.mpf(10) ** -(ctx.digits + 8)
    assert ctx.eps() is ctx.eps()
    assert ctx == again and hash(ctx) == hash(again)


def test_quad_ray_zero_integrand(ctx):
    val = quad_ray(lambda w: mp.mpc(0), mp.mpc(0, 1), ctx)
    assert val == 0


def test_quad_ray_exponential(ctx):
    # antiderivative e^(2 pi i w)/(2 pi i) evaluated between i and i*oo
    val = quad_ray(lambda w: mp.exp(2j * mp.pi * w), mp.mpc(0, 1), ctx)
    want = (0 - mp.exp(-2 * mp.pi)) / (2j * mp.pi)
    assert abs(val - want) < mp.mpf("1e-45")


def test_quad_ray_linearity(ctx):
    rng = random.Random(7)
    start = mp.mpc("0.3", "0.7")
    f = lambda w: mp.exp(2j * mp.pi * w)
    g = lambda w: mp.exp(2j * mp.pi * w) * (w + 2j) ** (-4)
    for _ in range(3):
        a = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        combo = quad_ray(lambda w: a * f(w) + b * g(w), start, ctx)
        parts = a * quad_ray(f, start, ctx) + b * quad_ray(g, start, ctx)
        assert abs(combo - parts) <= 2 * ctx.tol_tight * (1 + abs(combo))


def test_quad_ray_path_split_invariance(ctx):
    f = lambda w: mp.exp(2j * mp.pi * w) * (w + 1j) ** (-2)
    whole = quad_ray(f, mp.mpc("0.2", "0.4"), ctx)
    for h in ("0.8", "1.7", "3.5"):
        with mp.workdps(ctx.work_dps):
            low = mp.quad(lambda t: f(mp.mpc("0.2", t)) * 1j, [mp.mpf("0.4"), mp.mpf(h)])
        high = quad_ray(f, mp.mpc("0.2", h), ctx)
        assert abs(whole - (low + high)) < ctx.tol_tight * (1 + abs(whole))


RAY_KERNELS = ((-24, 0), (-10, 0), (-4, "0.3"), (12, mp.mpc("0.2", "0.5")), (16, mp.mpc("-0.1", "0.1")))


@pytest.mark.parametrize("digits", [50, 80], ids=["50", "80"])
def test_quad_ray_vs_exp_ray_integral(digits):
    # e^(2 pi i n w) (w + a)^(-s) against its incomplete-gamma closed form,
    # from cusp starts to high ones; the polynomial kernels (s < 0) need
    # nodes far up the ray
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)
    for y0 in ("0", "0.05", "0.4", "1", "3.7"):
        w0 = mp.mpc("0.1", y0)
        for n in (1, 3):
            for s, a in RAY_KERNELS:
                a = mp.mpc(a)
                got = quad_ray(lambda w: mp.exp(2j * mp.pi * n * w) * (w + a) ** (-s), w0, ctx)
                with mp.workdps(ctx.work_dps):
                    want = exp_ray_integral(n, w0, a, s, ctx)
                    assert abs(got - want) <= bound * max(1, abs(want)), (y0, n, s)


def test_quad_ray_evaluation_budget(ctx, f_delta, f_cusp16, monkeypatch):
    # integrand calls per oracle, counted by wrapping the integrand on its
    # way into quad_ray; one tanh-sinh pass per ray
    nodes = [0]

    def counting_quad_ray(integrand, *args, **kwargs):
        def counted(w):
            nodes[0] += 1
            return integrand(w)

        return quad_ray(counted, *args, **kwargs)

    monkeypatch.setattr(mockcore, "quad_ray", counting_quad_ray)
    monkeypatch.setattr(eichler, "quad_ray", counting_quad_ray)
    F_f2(f_cusp16, mp.mpc("0.2", "0.4"), ctx, method="quadrature")
    assert 0 < nodes[0] <= 400
    nodes[0] = 0
    period_polynomial_quadrature(f_delta, mp.mpc("0.3", "0.2"), ctx)
    assert 0 < nodes[0] <= 800


def test_quad_ray_bad_path(ctx):
    with pytest.raises(BadPath):
        quad_ray(lambda w: w, mp.mpc(0, -1), ctx)
    with pytest.raises(BadPath):
        # a pole on the ray
        quad_ray(lambda w: 1 / (w - 2j), mp.mpc(0, 1), ctx, avoid=(mp.mpc(0, 2),))


def test_xi_holomorphic_annihilation(ctx):
    rng = random.Random(11)
    for _ in range(20):
        z = mp.mpc(rng.uniform(-1, 1), rng.uniform(0.5, 2.5))
        v = xi_fd(lambda w: w ** 3, 12, z, ctx)
        assert abs(v) < ctx.tol_fd


def test_xi_power_of_y(ctx):
    # xi_k(y^(1-k)) = 2i y^k conj((1-k) y^(-k) / (2i) * i * i) -- compare with
    # the symbolic Wirtinger derivative d/dzbar y^(1-k) = (1-k) y^(-k) * (i/2)...
    # d/dzbar y^s = s y^(s-1) * (i/2) since y = (z - zbar)/(2i), dy/dzbar = -1/(2i) = i/2
    k = 12
    z = mp.mpc(0, 1)
    got = xi_fd(lambda w: mp.im(w) ** (1 - k), k, z, ctx)
    y = mp.im(z)
    want = 2j * y ** k * mp.conj((1 - k) * y ** (-k) * mp.mpc(0, "0.5"))
    assert abs(got - want) < ctx.tol_fd * abs(want)
    assert abs(got) > 1  # nonzero image
    # weight independence sanity at second point
    z = mp.mpc("0.3", "1.7")
    got = xi_fd(lambda w: mp.im(w) ** (1 - k), k, z, ctx)
    y = mp.im(z)
    want = 2j * y ** k * mp.conj((1 - k) * y ** (-k) * mp.mpc(0, "0.5"))
    assert abs(got - want) < ctx.tol_fd * abs(want)


def test_xi_conjugate(ctx):
    v = xi_fd(lambda w: mp.conj(w), 0, mp.mpc(0, 2), ctx)
    assert abs(v - 2j) < ctx.tol_fd


def test_xi_step_too_large(ctx):
    with pytest.raises(StepTooLarge):
        xi_fd(lambda w: w, 2, mp.mpc(0, mp.mpf("1e-30")), ctx)


def test_laplace_holomorphic(ctx):
    for k in (4, 12):
        v = laplace_fd(lambda w: mp.exp(2j * mp.pi * w), k, mp.mpc("0.2", "1.1"), ctx)
        scale = abs(mp.exp(2j * mp.pi * mp.mpc("0.2", "1.1")))
        assert abs(v) < ctx.tol_fd * max(1, scale)


def test_laplace_harmonic_power(ctx):
    # y^(1-k) is annihilated by the weight-k Laplacian
    k = 12
    z = mp.mpc("0.4", "0.9")
    v = laplace_fd(lambda w: mp.im(w) ** (1 - k), k, z, ctx)
    assert abs(v) < ctx.tol_fd * mp.im(z) ** (1 - k)


def test_laplace_is_minus_xi_composition(ctx):
    # Delta_k = -xi_{2-k} o xi_k on a smooth non-harmonic test function
    k = 8
    z = mp.mpc("0.3", "1.2")
    F = lambda w: mp.im(w) ** 3 * mp.exp(2j * mp.pi * w)
    inner = lambda w: xi_fd(F, k, w, ctx, step=mp.mpf("1e-12"))
    lhs = laplace_fd(F, k, z, ctx, step=mp.mpf("1e-8"))
    rhs = -xi_fd(inner, 2 - k, z, ctx, step=mp.mpf("1e-8"))
    scale = max(1, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < mp.mpf("1e-6") * scale


def test_quad_ray_is_oracle_only(ctx, f_delta, f_wh, monkeypatch):
    # every production route runs without ray quadrature, which stays the
    # definitional oracle of F2 and r2 and of the tests
    def refuse(*args, **kwargs):
        raise AssertionError("quad_ray called")

    for name, module in list(sys.modules.items()):
        if name == "periodlab" or name.startswith("periodlab."):
            for key, value in list(vars(module).items()):
                if value is quad_ray:
                    monkeypatch.setattr(module, key, refuse)
    z = mp.mpc("0.3", "1.2")
    starred_periods(f_wh, z, ctx)
    F_f2(f_delta, z, ctx, method="termwise")
    r_f2(f_delta, z, ctx, method="termwise")
    hat_r_f2(f_delta, z, ctx)
    noncritical_lvalue(f_delta, 2, ctx)
    verify_w_k2(f_delta, [z], ctx)
    verify_mock_es(f_delta, [z], ctx)
    with pytest.raises(AssertionError):
        F_f2(f_delta, z, ctx)
