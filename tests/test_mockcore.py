"""Second-order period objects and their verifiers."""

import mpmath as mp
import pytest
import random
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodlab import (
    DomainError,
    F_f2,
    IDENTITY,
    PrecisionContext,
    S,
    T,
    U,
    conjugate_form,
    critical_lvalues,
    cusp_form,
    delta,
    hat_r_f2,
    l_completed,
    l_dirichlet,
    noncritical_lvalue,
    period_polynomial,
    r_f2,
    residual_scale,
    tilde_r_f2,
    verify_mock_es,
    verify_per_star,
    verify_superm,
    verify_w_k2,
    xi_fd,
    laplace_fd,
)
from periodlab import mockcore
from periodlab.eichler import EichlerIntegral, slash_function
from periodlab.qforms import certified_cusp_form

from oracles import r2_quadrature, tilde_quadrature


@pytest.fixture(scope="module")
def zero(f_delta):
    return f_delta.scale(0)


def test_F_f2_two_routes_agree(ctx, f_delta):
    for z in (mp.mpc(0, 1), mp.mpc("0.3", "1.0")):
        v1 = F_f2(f_delta, z, ctx)
        v2 = F_f2(f_delta, z, ctx, method="termwise")
        assert abs(v1 - v2) <= ctx.tol_tight * (1 + abs(v1))


@pytest.mark.parametrize("digits", [50, 80, 100])
def test_F_f2_quadrature_meets_termwise_within_eps(digits):
    # quad_ray stops where its error estimate falls below eps (1 + |F2|);
    # on 20 Latin-hypercube points (Re z in -0.5..0.5, Im z in 0.3..2.5) the
    # quadrature stays within 100 eps of the certified ray sums
    ctx = PrecisionContext(digits=digits)
    f = cusp_form(16, 120)
    rng = random.Random(2)

    def strata(lo, hi, n=20):
        cells = rng.sample(range(n), n)
        return [mp.mpf(lo) + (hi - lo) * (c + mp.mpf(rng.random())) / n for c in cells]

    for x, y in zip(strata(-0.5, 0.5), strata(0.3, 2.5)):
        z = mp.mpc(x, y)
        q = F_f2(f, z, ctx)
        t = F_f2(f, z, ctx, method="termwise")
        with mp.workdps(ctx.work_dps):
            assert abs(q - t) <= 100 * ctx.eps() * max(1, abs(t)), z


def test_F_f2_quadrature_evaluates_F_once_per_node(ctx, f_cusp16, monkeypatch):
    # one EichlerIntegral.evaluate per quad_ray integrand call, counted the
    # way perfbench's tracer counts them: the integrand wrapped on its way
    # into quad_ray, the method wrapped on the class
    counts = {"F": 0, "nodes": 0}
    evaluate, quad_ray = EichlerIntegral.evaluate, mockcore.quad_ray

    def counted_evaluate(self, z):
        counts["F"] += 1
        return evaluate(self, z)

    def counting_quad_ray(integrand, *args, **kwargs):
        def counted(w):
            counts["nodes"] += 1
            return integrand(w)

        return quad_ray(counted, *args, **kwargs)

    monkeypatch.setattr(EichlerIntegral, "evaluate", counted_evaluate)
    monkeypatch.setattr(mockcore, "quad_ray", counting_quad_ray)
    F_f2(f_cusp16, mp.mpc("0.2", "0.4"), ctx, method="quadrature")
    assert counts["nodes"] > 0 and counts["F"] == counts["nodes"]


def test_wrapped_integrand_gives_identical_quadrature(ctx, f_cusp16, monkeypatch):
    # the contract perfbench's --selfcheck and its eichler.F.calls gate rely
    # on: an integrand wrapped in a one-argument function on its way into
    # quad_ray gives a bit-identical F_f2, the one quadrature route the
    # benchmark calls, with one EichlerIntegral.evaluate per integrand call
    z = mp.mpc("0.2", "0.4")
    want = F_f2(f_cusp16, z, ctx)
    counts = {"F": 0, "nodes": 0}
    evaluate, quad_ray = EichlerIntegral.evaluate, mockcore.quad_ray

    def counted_evaluate(self, w):
        counts["F"] += 1
        return evaluate(self, w)

    def wrapping_quad_ray(integrand, *args, **kwargs):
        def wrapped(w):
            counts["nodes"] += 1
            return integrand(w)

        return quad_ray(wrapped, *args, **kwargs)

    monkeypatch.setattr(EichlerIntegral, "evaluate", counted_evaluate)
    monkeypatch.setattr(mockcore, "quad_ray", wrapping_quad_ray)
    got = F_f2(f_cusp16, z, ctx)
    assert got._mpc_ == want._mpc_
    assert counts["nodes"] > 0 and counts["F"] == counts["nodes"]


def test_F_f2_t_invariance(ctx, f_delta):
    z = mp.mpc("0.3", 1)
    a = F_f2(f_delta, z + 1, ctx)
    b = F_f2(f_delta, z, ctx)
    assert abs(a - b) <= ctx.tol_tight * (1 + abs(a))


def test_F_f2_zero(ctx, zero):
    assert F_f2(zero, mp.mpc(0, 1), ctx) == 0


def test_r_f2_holomorphy_probe(ctx, f_delta):
    z = mp.mpc(1, 1)
    v = xi_fd(lambda w: r_f2(f_delta, w, ctx), 12, z, ctx)
    scale = max(1, abs(r_f2(f_delta, z, ctx)))
    assert abs(v) <= ctx.tol_fd * scale


def test_r_f2_zero(ctx, zero):
    for z in (mp.mpc(0, 1), 0, mp.mpf("0.5")):
        assert r_f2(zero, z, ctx) == 0
    assert r2_quadrature(zero, mp.mpc(0, 1), ctx) == 0


@pytest.mark.parametrize("digits", [50, 80])
@pytest.mark.parametrize("label", ["delta", "cusp16"])
def test_r_f2_two_routes_agree(label, digits):
    # the quadrature oracle against the ray sums split at i SPLIT_HEIGHT
    ctx = PrecisionContext(digits=digits)
    f = delta(90) if label == "delta" else cusp_form(16, 90)
    for z in (mp.mpc("0.1", "0.6"), mp.mpc(1, 1), S.apply(mp.mpc("0.3", "0.9")), U.apply(mp.mpc("0.2", "0.8"))):
        q = r2_quadrature(f, z, ctx)
        t = r_f2(f, z, ctx)
        assert abs(q - t) <= ctx.tol_tight * (1 + abs(q)), z


@pytest.mark.parametrize("label", ["delta", "cusp16"])
def test_r_f2_at_the_cusp_is_a_noncritical_value(ctx, f_delta, f_cusp16, label):
    # at the cusp the starred split's first kernel is the constant (-1)^k,
    # and r2(0) = int_0^{i oo} F(w) dw = i^k (k-2)! / (2 pi)^k L(k)
    f = f_delta if label == "delta" else f_cusp16
    k = f.weight
    got = r_f2(f, 0, ctx)
    with mp.workdps(ctx.work_dps):
        want = mp.mpc(0, 1) ** k * mp.factorial(k - 2) / (2 * mp.pi) ** k * l_completed(f, k, ctx).value
    assert abs(got - want) <= ctx.tol_tight * abs(want)


@pytest.mark.parametrize("label", ["delta", "cusp16"])
def test_r_f2_routes_meet_at_the_real_axis(label):
    # on the real axis and at the cusp r2 is the starred split, checked
    # against the quadrature oracle from 0 and against itself at x + 10^-40 i
    f = delta(120) if label == "delta" else cusp_form(16, 120)
    for ctx in (PrecisionContext(digits=50), PrecisionContext(digits=80)):
        for x in ("1e-30", "0.5", "-2", "-40", "1e6", "0"):
            x = mp.mpf(x)
            on_axis = r_f2(f, x, ctx)
            want = r2_quadrature(f, x, ctx)
            assert abs(on_axis - want) <= ctx.tol_tight * abs(want), (ctx.digits, x)
            above = r_f2(f, mp.mpc(x, "1e-40"), ctx)
            assert abs(on_axis - above) <= mp.mpf("1e-35") * abs(on_axis), (ctx.digits, x)


def test_r_f2_raises_below_the_real_axis(ctx, f_delta):
    # no certified route exists for Im z < 0
    for z in (mp.mpc("0.0001", -1), mp.mpc("0.3", "-0.5"), mp.mpc(1, -2)):
        with pytest.raises(DomainError):
            r_f2(f_delta, z, ctx)


@pytest.mark.parametrize("op", [F_f2])
def test_unknown_method_rejected(ctx, f_delta, op):
    with pytest.raises(ValueError):
        op(f_delta, mp.mpc(0, 1), ctx, method="simpson")


def test_tilde_closed_vs_quadrature(ctx, f_delta):
    for z in (mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc("0.5", 2)):
        c = tilde_r_f2(f_delta, z, ctx)
        q = tilde_quadrature(f_delta, z, ctx)
        assert abs(c - q) <= ctx.tol_tight * (1 + abs(c)), z


def test_tilde_decays_like_inverse_y(ctx, f_delta):
    # integrating r, written in the critical values, against (w+z)^(-k) from
    # -conj z gives tilde(z) = -(k-2)! sum_{n,l} L(n+1) (-2 pi i z)^l
    # (-4 pi y)^(-1-n-l) / (l! (k-2-n-l)! (1+n+l)): purely non-holomorphic,
    # every y-exponent is negative, so y * tilde(iy) converges.  At z = iy
    # every l-term of the n = 0 row scales as 1/y, so the limit constant is
    # the full n = 0 row of that sum (the l = 0 term alone misses it by a
    # factor ~4.6).
    k = 12
    L1 = critical_lvalues(f_delta, ctx)[0].value
    C0 = -mp.factorial(k - 2) * L1 * mp.fsum(
        (2 * mp.pi) ** l
        * (-1) ** (1 + l)
        * (4 * mp.pi) ** mp.mpf(-1 - l)
        / (mp.factorial(l) * mp.factorial(k - 2 - l) * (1 + l))
        for l in range(k - 1)
    )
    v100 = tilde_r_f2(f_delta, mp.mpc(0, 100), ctx)
    assert abs(100 * v100 - C0) <= mp.mpf("0.01") * abs(C0)
    v50 = tilde_r_f2(f_delta, mp.mpc(0, 50), ctx)
    # O(1/y) approach: halving the distance when y doubles
    assert abs(100 * v100 - C0) <= mp.mpf("0.7") * abs(50 * v50 - C0)


def test_tilde_zero(ctx, zero):
    assert tilde_r_f2(zero, mp.mpc(0, 1), ctx) == 0


def test_hat_assembly_exact(ctx, f_delta, f_cusp16, monkeypatch):
    # hat = r2 - tilde, with the two exact cocycle integrals, r2's from S z0
    # and tilde's from -conj z, taken as one from S z0 to -conj z: one
    # kernel_integral call per point.  On the superm grid and at
    # 0.4 + 0.01i, near the real axis where tilde is large
    from periodlab.cli import _grid
    from periodlab.eichler import PolynomialC

    calls = [0]
    integral = PolynomialC.kernel_integral

    def counted(*args, **kwargs):
        calls[0] += 1
        return integral(*args, **kwargs)

    monkeypatch.setattr(PolynomialC, "kernel_integral", counted)
    for f in (f_delta, f_cusp16):
        for z in _grid(10, "0.1", "0.8", "0.6", "1.8") + [mp.mpc("0.4", "0.01")]:
            before = calls[0]
            hat = hat_r_f2(f, z, ctx)
            assert calls[0] == before + 1, (f.label, z)
            with mp.workdps(ctx.work_dps):
                want = r_f2(f, z, ctx) - tilde_r_f2(f, z, ctx)
                assert abs(hat - want) <= ctx.tol_tight * residual_scale(hat, want), (f.label, z)


def test_hat_harmonicity(ctx, f_delta):
    z = mp.mpc(1, 1)
    h = lambda w: hat_r_f2(f_delta, w, ctx)
    v = laplace_fd(h, 12, z, ctx)
    assert abs(v) <= ctx.tol_fd * max(1, abs(h(z)))


def test_hat_xi_image(ctx, f_delta):
    z = mp.mpc("0.3", "1.1")
    h = lambda w: hat_r_f2(f_delta, w, ctx)
    rp = period_polynomial(f_delta, ctx)
    got = xi_fd(h, 12, z, ctx)
    want = (2j) ** (1 - 12) * rp(z)
    assert abs(got - want) <= ctx.tol_fd * abs(want)


def test_noncritical_values_vs_dirichlet(ctx, f_delta, f_delta_long):
    for m in (0, 3):
        got = noncritical_lvalue(f_delta, m, ctx).value
        want = l_dirichlet(f_delta_long, 12 + m, ctx, tol=mp.mpf("1e-13")).value
        assert abs(got - want) <= mp.mpf("1e-8") * abs(want), m


def test_noncritical_est_error_covers_deviation(ctx, f_delta):
    # the reference sums a longer window, so it does not share the
    # truncation of either route
    long = delta(120)
    for m in (0, 1, 2, 3, 7, 8, 10):
        got = noncritical_lvalue(f_delta, m, ctx)
        want = l_completed(long, 12 + m, ctx)
        assert abs(got.value - want.value) <= got.est_error + want.est_error, m
        assert got.est_error <= mp.mpf(10) ** (5 - ctx.digits), m


def test_s_image_relations_see_the_ray_sums(ctx, f_delta, monkeypatch):
    # r2(z) and r2(Sz) sum from different base points (the split is at
    # i SPLIT_HEIGHT, not at i), so a relative error in the ray sums does not
    # cancel in r2|(1+S) or hat|(1+S); every module's binding of ray_sum is
    # bumped, wherever the sums of r2 run
    import sys

    from periodlab.regint import ray_sum

    def bumped(*args, **kwargs):
        got = ray_sum(*args, **kwargs)
        bump = lambda pair: (pair[0] * (1 + mp.mpf("1e-6")), pair[1])
        return [bump(pair) for pair in got] if kwargs.get("J") else bump(got)

    for name, module in list(sys.modules.items()):
        if name == "periodlab" or name.startswith("periodlab."):
            for key, value in list(vars(module).items()):
                if value is ray_sum:
                    monkeypatch.setattr(module, key, bumped)
    z = [mp.mpc("0.2", "0.9")]
    mockes_1s = verify_mock_es(f_delta, z, ctx)[0]
    wk2_slash_s = verify_w_k2(f_delta, z, ctx)[0]
    assert mockes_1s.identity.startswith("mockes_1S") and not mockes_1s.passed
    assert wk2_slash_s.identity.startswith("wk2_slash_S") and not wk2_slash_s.passed


def test_noncritical_zero(ctx, zero):
    assert noncritical_lvalue(zero, 2, ctx).value == 0


def test_superm_generic_points(ctx, f_delta):
    # includes a translated pair (z, z+1): the completion itself carries no
    # translation law, but the defining identity holds at both points
    z = mp.mpc("0.1", "0.5")
    pts = [z, z + 1, mp.mpc("0.5", "1.7"), mp.mpc("0.9", "3.0")]
    rep = verify_superm(f_delta, pts, ctx)
    assert rep.passed, rep.summary_line()


def test_superm_imaginary_axis(ctx, f_delta):
    rep = verify_superm(f_delta, [mp.mpc(0, 1), mp.mpc(0, "1.7")], ctx)
    assert rep.passed


def test_superm_zero(ctx, zero):
    rep = verify_superm(zero, [mp.mpc(0, 1)], ctx)
    assert rep.passed and rep.max_residual == 0


def test_wk2_families(ctx, f_delta):
    pts = [mp.mpc("0.2", "0.9"), mp.mpc("0.7", "1.4")]
    reps = verify_w_k2(f_delta, pts, ctx)
    assert len(reps) == 3
    for r in reps:
        assert r.passed, r.summary_line()


@pytest.fixture(scope="module")
def f_complex(ctx):
    # complex coefficients, so f^c != f and the conjugation is exercised
    return certified_cusp_form(12, ctx).scale(mp.mpc(1, 2))


def test_xi_target_from_cocycle_is_conjugate_period(ctx, f_complex):
    # the wk2 xi target -(2i)^(1-k) conj(r_f(-conj z)) is (2i)^(1-k) r_{f^c}(z)
    r, rc = period_polynomial(f_complex, ctx), period_polynomial(conjugate_form(f_complex), ctx)
    assert conjugate_form(f_complex) is not f_complex
    with mp.workdps(ctx.work_dps):
        for z in (mp.mpc("0.2", "0.9"), mp.mpc("-0.6", "1.3"), mp.mpc("1.1", "0.4")):
            want = rc(z)
            assert abs(-mp.conj(r(-mp.conj(z))) - want) <= mp.mpf(10) ** -(ctx.digits + 5) * abs(want), z


def test_wk2_complex_coefficients(ctx, f_complex):
    for rep in verify_w_k2(f_complex, [mp.mpc("0.2", "0.9"), mp.mpc("0.7", "1.4")], ctx):
        assert rep.passed, rep.summary_line()


def test_wk2_weight16(ctx, f_cusp16):
    reps = verify_w_k2(f_cusp16, [mp.mpc("0.3", "1.1")], ctx)
    for r in reps:
        assert r.passed, r.summary_line()


def test_mock_es_relations(ctx, f_delta):
    reps = verify_mock_es(f_delta, [mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc("-0.5", "1.5")], ctx)
    for r in reps:
        assert r.passed, r.summary_line()


@st.composite
def _sl2z_images(draw):
    # z moved by a word of length <= 3 in S and T
    z = mp.mpc(draw(st.floats(-0.6, 0.6)), draw(st.floats(0.5, 1.6)))
    g = IDENTITY
    for letter in draw(st.lists(st.sampled_from([S, T]), max_size=3)):
        g = g * letter
    return g.apply(z)


@settings(max_examples=15)
@given(_sl2z_images())
def test_relations_at_sl2z_images(ctx, f_delta, w):
    # superm takes F2 at w and at Sw, so both stay at height >= 0.3
    assume(mp.im(w) >= mp.mpf("0.3") and mp.im(S.apply(w)) >= mp.mpf("0.3"))
    h = lambda w: hat_r_f2(f_delta, w, ctx)
    with mp.workdps(ctx.work_dps):
        v0 = h(w)
        rel_s = v0 + slash_function(h, 12, S)(w)
        rel_u = v0 + slash_function(h, 12, U)(w) + slash_function(h, 12, U * U)(w)
    assert abs(rel_s) <= ctx.tol_tight * residual_scale(v0), w
    assert abs(rel_u) <= ctx.tol_tight * residual_scale(v0), w
    assert verify_superm(f_delta, [w], ctx).passed, w


def test_mock_es_zero(ctx, zero):
    reps = verify_mock_es(zero, [mp.mpc(0, 1)], ctx)
    for r in reps:
        assert r.max_residual == 0


def test_pipeline_linear_in_f(ctx, f_delta):
    # run with 2f and compare: every pipeline output is linear in f
    two = f_delta.scale(2)
    z = mp.mpc("0.4", "1.3")
    for op in (r_f2, tilde_r_f2, F_f2):
        a = op(f_delta, z, ctx)
        b = op(two, z, ctx)
        assert abs(b - 2 * a) <= 2 * ctx.tol_tight * (1 + abs(b)), op.__name__
    va = noncritical_lvalue(f_delta, 1, ctx).value
    vb = noncritical_lvalue(two, 1, ctx).value
    assert abs(vb - 2 * va) <= 2 * ctx.tol_tight * (1 + abs(vb))


def test_verifiers_independent_of_ambient_precision(ctx, f_delta):
    # all internal arithmetic happens at the context's working precision,
    # so results cannot degrade when the caller sits at low ambient dps
    # (the CLI, unlike this test session, runs at mpmath's default 15)
    with mp.workdps(15):
        rep = verify_superm(f_delta, [mp.mpc("0.3", "1.2")], ctx)
        reps = verify_mock_es(f_delta, [mp.mpc(1, 1)], ctx)
    assert rep.max_residual < mp.mpf("1e-40")
    for r in reps:
        assert r.max_residual < mp.mpf("1e-40"), r.summary_line()


def test_xi_image_degree_bound(ctx, f_delta):
    # xi(hat) interpolated by a degree-(k-2) polynomial at k+3 samples;
    # residual at 3 holdout points stays at FD tolerance
    k = 12
    h = lambda w: hat_r_f2(f_delta, w, ctx)
    xs = [mp.mpc("0.1", "0.8") + j * mp.mpc("0.07", "0.12") for j in range(k + 3)]
    vals = [xi_fd(h, k, z, ctx) for z in xs]
    # least-squares fit of degree k-2 through k+3 points
    A = mp.matrix(len(xs), k - 1)
    for i, z in enumerate(xs):
        for j in range(k - 1):
            A[i, j] = z ** j
    G = mp.matrix(k - 1, k - 1)
    b = mp.matrix(k - 1, 1)
    for p in range(k - 1):
        for q in range(k - 1):
            G[p, q] = mp.fsum(mp.conj(A[i, p]) * A[i, q] for i in range(len(xs)))
        b[p] = mp.fsum(mp.conj(A[i, p]) * vals[i] for i in range(len(xs)))
    sol = mp.lu_solve(G, b)
    holdouts = [mp.mpc("0.55", "1.1"), mp.mpc("0.25", "1.9"), mp.mpc("0.8", "1.3")]
    for z in holdouts:
        fit = mp.fsum(sol[j] * z ** j for j in range(k - 1))
        val = xi_fd(h, k, z, ctx)
        assert abs(fit - val) <= ctx.tol_fd * max(1, abs(val))


@pytest.mark.parametrize("weight", [18, 26])
def test_wk2_weight(ctx, weight):
    # at weight 26 the first terms of the completion's ray sums have
    # |x_n| <= |1 - s| + 1 = 26 and take the fraction all the same
    from periodlab import cusp_form

    reps = verify_w_k2(cusp_form(weight, 64), [mp.mpc("0.3", "1.1")], ctx)
    for r in reps:
        assert r.passed, r.summary_line()


def test_verifiers_reject_an_empty_point_list(ctx, f_delta, f_wh):
    # an identity checked at no point once passed with headroom +inf
    cases = ((verify_superm, f_delta), (verify_w_k2, f_delta), (verify_mock_es, f_delta), (verify_per_star, f_wh))
    for verify, form in cases:
        with pytest.raises(DomainError, match="no points"):
            verify(form, [], ctx)
