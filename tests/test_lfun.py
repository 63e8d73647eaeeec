"""L-value engines: Dirichlet summation, the completed series and its closed form at critical s."""

import sys
from dataclasses import replace

import mpmath as mp
import pytest

from periodlab import (
    OutOfRegion,
    PrecisionContext,
    critical_lvalues,
    cusp_form,
    delta,
    l_completed,
    l_dirichlet,
    period_polynomial,
    upper_incomplete_gamma,
)
from periodlab.lfun import _critical_lambdas, _lambda_and_tail, dirichlet_truncation_length
from periodlab.qforms import DIM_ONE_WEIGHTS


def test_dirichlet_truncation_consistency(ctx, f_delta_long):
    from periodlab import delta

    v1 = l_dirichlet(delta(300), 12, ctx, tol=mp.mpf("1e-11")).value
    v2 = l_dirichlet(f_delta_long, 12, ctx, tol=mp.mpf("1e-13")).value
    assert abs(v1 - v2) < mp.mpf("1e-11")


def test_dirichlet_zero_series(ctx, f_delta):
    z = f_delta.scale(0)
    assert l_dirichlet(z, 13, ctx).value == 0


def test_dirichlet_linearity(ctx, f_delta):
    # termwise: the partial sums agree exactly, whatever the certified tail
    g = f_delta.scale(2)
    lv_sum = l_dirichlet(f_delta.scale(3), 13, ctx, tol=mp.mpf("1e-9")).value
    lv_parts = (
        l_dirichlet(f_delta, 13, ctx, tol=mp.mpf("1e-9")).value
        + l_dirichlet(g, 13, ctx, tol=mp.mpf("1e-9")).value
    )
    assert abs(lv_sum - lv_parts) < mp.mpf("1e-50")


def test_dirichlet_out_of_region(ctx, f_delta):
    with pytest.raises(OutOfRegion):
        l_dirichlet(f_delta, 3, ctx)


def test_truncation_length_helper():
    n = dirichlet_truncation_length((2.0, 6.0), 12, mp.mpf("1e-12"))
    assert 100 < n < 1000


def test_cross_method_agreement(ctx, f_delta_long):
    for s in (12, 13, 14, 15):
        vd = l_dirichlet(f_delta_long, s, ctx, tol=mp.mpf("1e-14")).value
        vc = l_completed(f_delta_long, s, ctx).value
        assert abs(vd - vc) <= mp.mpf("1e-12") * abs(vc), s


def test_completed_functional_equation(ctx, f_delta):
    s = mp.mpf("3.7")
    lhs = _lambda_and_tail(f_delta, s, ctx)[0]
    rhs = (-1) ** 6 * _lambda_and_tail(f_delta, 12 - s, ctx)[0]
    assert abs(lhs - rhs) <= ctx.tol_tight * (1 + abs(lhs))


def test_completed_reality(ctx, f_delta):
    for s in ("1", "3.7", "6", "11"):
        v = l_completed(f_delta, mp.mpf(s), ctx).value
        assert abs(mp.im(v)) <= ctx.tol_tight * (1 + abs(v))


def test_central_value_real_finite(ctx, f_delta):
    v = l_completed(f_delta, 6, ctx).value
    assert mp.isfinite(v) and abs(mp.im(v)) < ctx.tol_tight


def test_lambda_entire_no_poles(ctx, f_delta):
    for s in (0, 1, 12):
        v = _lambda_and_tail(f_delta, s, ctx)[0]
        assert mp.isfinite(v)


@pytest.mark.parametrize("label", ["delta", "cusp16"])
def test_completed_trivial_zeros(ctx, f_delta, f_cusp16, label):
    # L(s) = (2 pi)^s Lambda(s) / Gamma(s) vanishes where Gamma has its poles,
    # and near s = 0 it is s Lambda(0), Lambda(0) = (-1)^(k/2) Lambda(k)
    f = f_delta if label == "delta" else f_cusp16
    k = f.weight
    for s in (0, -1, -3):
        assert l_completed(f, s, ctx).value == 0, s
    tiny = mp.mpf("1e-30")
    lam0 = (-1) ** (k // 2) * mp.factorial(k - 1) * l_completed(f, k, ctx).value / (2 * mp.pi) ** k
    for s in (tiny, -tiny):
        got = l_completed(f, s, ctx).value / s
        assert abs(got - lam0) <= mp.mpf("1e-25") * abs(lam0), s


def test_completed_matches_dirichlet_value(ctx, f_delta_long):
    # sanity pin: L(12) ~ 0.99454369 (agrees with the direct partial sum)
    v = l_completed(f_delta_long, 12, ctx).value
    direct = l_dirichlet(f_delta_long, 12, ctx, tol=mp.mpf("1e-14")).value
    assert abs(v - direct) < mp.mpf("1e-13")
    assert abs(v - mp.mpf("0.99454369")) < mp.mpf("1e-7")


def test_completed_functional_equation_complex_s(ctx, f_delta):
    s = mp.mpc("3.7", "0.4")
    lhs = _lambda_and_tail(f_delta, s, ctx)[0]
    rhs = (-1) ** 6 * _lambda_and_tail(f_delta, 12 - s, ctx)[0]
    assert abs(lhs - rhs) <= ctx.tol_tight * (1 + abs(lhs))


def test_completed_est_error_covers_short_window(ctx, f_delta):
    # 21 terms leave a certified tail near 1e-51, above eps = 1e-58; the
    # reported error must cover the actual deviation from the long window
    from periodlab import delta

    short = l_completed(delta(21), 6, ctx)
    want = l_completed(f_delta, 6, ctx).value
    assert abs(short.value - want) <= short.est_error
    assert l_completed(f_delta, 6, ctx).est_error >= ctx.eps()


@pytest.mark.parametrize("digits", [50, 80])
def test_completed_est_error_covers_rounding(digits):
    # each Gamma(s, 2 pi n) stops at eps relative, and for cusp26 at s = 2
    # the terms run 10^3 above L(2); the reference is the closed form 40
    # digits up, whose own error is below 10^-(digits+40)
    ctx, hi = PrecisionContext(digits=digits), PrecisionContext(digits=digits + 40)
    for k in DIM_ONE_WEIGHTS:
        f = cusp_form(k, 100)
        for want in critical_lvalues(f, hi):
            got = l_completed(f, want.s, ctx)
            with mp.workdps(hi.work_dps):
                assert abs(got.value - want.value) <= got.est_error, (k, want.s)


@pytest.mark.parametrize("digits", [50, 80])
def test_critical_lvalues_match_completed(digits):
    ctx, hi = PrecisionContext(digits=digits), PrecisionContext(digits=digits + 40)
    for f in (delta(100), cusp_form(16, 100), cusp_form(26, 100)):
        lvs = critical_lvalues(f, ctx)
        assert [int(lv.s.real) for lv in lvs] == list(range(1, f.weight))
        for lv in lvs:
            want = l_completed(f, lv.s, hi).value
            with mp.workdps(hi.work_dps):
                assert abs(lv.value - want) <= lv.est_error, (f.label, lv.s)
            assert lv.est_error >= ctx.eps()


def test_critical_functional_equation_is_exact(ctx):
    # Lambda(s) = A(s) + e A(k-s) with e = (-1)^(k/2): the two halves of the
    # pair sum the same two numbers, so the symmetry holds bit for bit
    for k in DIM_ONE_WEIGHTS:
        lams, _ = _critical_lambdas(cusp_form(k, 64), ctx)
        sign = (-1) ** (k // 2)
        with mp.workdps(ctx.work_dps):
            for s in range(1, k):
                assert lams[k - s - 1] == sign * lams[s - 1], (k, s)
    # root number -1: the central value vanishes exactly
    assert critical_lvalues(cusp_form(26, 64), ctx)[12].value == 0


def test_period_polynomial_needs_no_incomplete_gamma(ctx, monkeypatch):
    # the critical values come from the closed form alone; l_completed and
    # the incomplete gamma stay the engines for every other s
    def refuse(*args, **kwargs):
        raise AssertionError("incomplete-gamma route called")

    for name, module in list(sys.modules.items()):
        if name == "periodlab" or name.startswith("periodlab."):
            for key, value in list(vars(module).items()):
                if value is l_completed or value is upper_incomplete_gamma:
                    monkeypatch.setattr(module, key, refuse)
    f = replace(delta(64))  # a fresh memo, so r is built under the patch
    assert len(period_polynomial(f, ctx).coeffs) == 11
    assert len(critical_lvalues(f, ctx)) == 11
    with pytest.raises(AssertionError):
        l_completed(delta(64), 6, ctx)
