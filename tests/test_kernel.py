"""Kernel: context invariants, ray quadrature, finite-difference operators."""

import mpmath as mp
import pytest
import random
import sys
from mpmath.calculus.quadrature import TanhSinh

from periodlab import (
    BadPath,
    F_f2,
    PrecisionContext,
    StepTooLarge,
    f_star,
    hat_r_f2,
    laplace_fd,
    noncritical_lvalue,
    period_polynomial_quadrature,
    quad_ray,
    r_f2,
    r_star,
    verify_mock_es,
    verify_w_k2,
    xi_fd,
)
import periodlab.eichler as eichler
import periodlab.mockcore as mockcore
import periodlab.qforms as qforms
from periodlab.eichler import eichler_integral
from periodlab.kernel import QUAD_MAXDEGREE
from periodlab.qforms import evaluate, q_parts

from oracles import ray_term


def test_context_invariants():
    with pytest.raises(ValueError):
        PrecisionContext(digits=20)
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
def test_quad_ray_vs_incomplete_gamma(digits):
    # e^(2 pi i n w) (w + a)^(-s) against its incomplete-gamma closed form
    # from mpmath, from cusp starts to high ones; the polynomial kernels
    # (s < 0) need nodes far up the ray
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)
    for y0 in ("0", "0.05", "0.4", "1", "3.7"):
        w0 = mp.mpc("0.1", y0)
        for n in (1, 3):
            for s, a in RAY_KERNELS:
                a = mp.mpc(a)
                got = quad_ray(lambda w: mp.exp(2j * mp.pi * n * w) * (w + a) ** (-s), w0, ctx)
                with mp.workdps(ctx.work_dps):
                    want = ray_term(n, w0, a, s, ctx.work_dps + 10)
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
    # a high ray stops at degree 4 (147 nodes), where its error estimate
    # first falls below eps (1 + |F2|); degree 5 would add 148 more
    nodes[0] = 0
    F_f2(f_cusp16, mp.mpc("0.2", "1.6"), ctx, method="quadrature")
    assert 0 < nodes[0] <= 150
    nodes[0] = 0
    period_polynomial_quadrature(f_delta, mp.mpc("0.3", "0.2"), ctx)
    assert 0 < nodes[0] <= 800


class _RelativeTanhSinh(TanhSinh):
    """mpmath's tanh-sinh rule with its error estimate relative to 1 + |I|/pi, the stop ``quad_ray`` claims."""

    def estimate_error(self, results, prec, epsilon):
        return super().estimate_error(results, prec, epsilon) / (self.ctx.pi + abs(results[-1]))


@pytest.mark.parametrize("digits", [50, 80, 50], ids=["50", "80", "50-again"])
def test_quad_ray_matches_mp_quad(digits):
    # against mpmath's tanh-sinh summation on the plain u-integrand
    # g(x0 + i(y0 - ln u/pi))/u, which carries no q and no cached ray nodes,
    # run as mp.quad runs it (20 extra bits) but stopped at quad_ray's
    # cutoff eps (1 + |I/pi|): the same integrand calls and the same value;
    # digits 50 -> 80 -> 50 catches a node cache that does not key on the
    # precision.  mp.quad's own stop, 2^(-prec)/8, takes one degree more on
    # the last ray at 50 digits and on the one before it at 80; there
    # quad_ray stops a degree earlier, within eps of mp.quad's value
    ctx = PrecisionContext(digits=digits)
    rays = (
        (mp.mpc("0.1", 0), lambda w: mp.exp(2j * mp.pi * w) * w ** 10),
        (mp.mpc("0.3", "0.7"), lambda w: mp.exp(6j * mp.pi * w) * (w + 2j) ** (-4)),
        (mp.mpc("0.2", "0.5"), lambda w: mp.exp(2j * mp.pi * w) * (w + mp.mpc("0.1", "0.4")) ** (-16)),
        (mp.mpc("0.2", "1.6"), lambda w: mp.exp(2j * mp.pi * w)),
    )
    fewer = []
    for start, g in rays:
        calls = [0, 0, 0]

        def ray_integrand(w):
            calls[1] += 1
            return g(w)

        got = quad_ray(ray_integrand, start, ctx)
        with mp.workdps(ctx.work_dps):
            start = mp.mpc(start)  # rounded as quad_ray rounds it
            x0, y0 = start.real, start.imag

            def u_integrand(u, counter=0):
                calls[counter] += 1
                return g(mp.mpc(x0, y0 - mp.log(u) / mp.pi)) / u

            prec = mp.mp.prec
            with mp.workprec(prec + 20):
                val, _ = _RelativeTanhSinh(mp.mp).summation(u_integrand, [0, 1], prec, ctx.eps(), QUAD_MAXDEGREE)
            want = 1j * val / mp.pi
            assert calls[0] == calls[1] > 0
            assert abs(got - want) <= mp.mpf(2) ** -mp.mp.prec * abs(want)
            default = 1j * mp.quad(lambda u: u_integrand(u, 2), [0, 1], method="tanh-sinh", maxdegree=QUAD_MAXDEGREE) / mp.pi
            assert calls[2] >= calls[1]
            assert abs(got - default) <= ctx.eps() * max(1, abs(default))
            fewer.append(calls[2] > calls[1])
    assert fewer == [False, False, digits == 80, digits == 50]


@pytest.mark.parametrize("digits", [50, 80], ids=["50", "80"])
def test_ray_points_carry_q(digits, f_delta, f_cusp16, f_wh, monkeypatch):
    # F and the wh-10 q-sum (principal part, n_0 < 0) at every node of a ray
    # from height 0.5, with the carried q and at the same point as a plain
    # mpc; at x0 = 1/2 the translation into the strip drops the carried q,
    # and a q carried at a lower precision is not used
    ctx = PrecisionContext(digits=digits)
    low = PrecisionContext(digits=digits - 20)
    bound = mp.mpf(10) ** -(digits + 5)
    Fs = [eichler_integral(f, ctx) for f in (f_delta, f_cusp16)]
    funcs = [F.evaluate for F in Fs] + [lambda w: evaluate(f_wh, w, ctx)]
    q_computed = [0]

    def counting_q_parts(*args):
        q_computed[0] += 1
        return q_parts(*args)

    for x0 in ("0.1", "-0.37", "0.5"):
        for node_ctx in (ctx, low):
            nodes = []
            quad_ray(lambda w: nodes.append(w) or Fs[0](w), mp.mpc(x0, "0.5"), node_ctx)
            with mp.workdps(ctx.work_dps):
                assert min(w.imag for w in nodes) >= 0.5 and max(w.imag for w in nodes) > 0.6 * node_ctx.digits
                for w in nodes:
                    assert getattr(w, "q", None) is not None
                    assert getattr(w - 1, "q", None) is None and getattr(-1 / w, "q", None) is None
                    plain = mp.make_mpc(w._mpc_)  # the same point, not rounded
                    assert getattr(plain, "q", None) is None
                    for func in funcs:
                        q_computed[0] = 0
                        monkeypatch.setattr(qforms, "q_parts", counting_q_parts)
                        carried = func(w)
                        monkeypatch.undo()
                        # the carried q is used exactly when it is valid here
                        assert q_computed[0] == (x0 == "0.5" or node_ctx is low)
                        want = func(plain)
                        assert abs(carried - want) <= bound * abs(want), (x0, w)


def test_quad_ray_bad_path(ctx):
    with pytest.raises(BadPath):
        quad_ray(lambda w: w, mp.mpc(0, -1), ctx)


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
    inner = lambda w: xi_fd(F, k, w, ctx)
    lhs = laplace_fd(F, k, z, ctx)
    rhs = -xi_fd(inner, 2 - k, z, ctx)
    scale = max(1, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < mp.mpf("1e-6") * scale


def test_quad_ray_is_oracle_only(ctx, f_delta, f_wh, monkeypatch):
    # every production route runs without ray quadrature, which stays the
    # definitional oracle of F2 and the tests' oracle of r2; r2 takes none
    # on H, on the real axis or at the cusp 0
    def refuse(*args, **kwargs):
        raise AssertionError("quad_ray called")

    for name, module in list(sys.modules.items()):
        if name == "periodlab" or name.startswith("periodlab."):
            for key, value in list(vars(module).items()):
                if value is quad_ray:
                    monkeypatch.setattr(module, key, refuse)
    z = mp.mpc("0.3", "1.2")
    f_star(f_wh, z, ctx)
    r_star(f_wh, z, ctx)
    F_f2(f_delta, z, ctx, method="termwise")
    for w in (z, 0, mp.mpf("0.5")):
        r_f2(f_delta, w, ctx)
    hat_r_f2(f_delta, z, ctx)
    noncritical_lvalue(f_delta, 2, ctx)
    verify_w_k2(f_delta, [z], ctx)
    verify_mock_es(f_delta, [z], ctx)
    with pytest.raises(AssertionError):
        F_f2(f_delta, z, ctx)
