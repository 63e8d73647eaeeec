"""Certified truncation: every windowed sum either meets its digits or raises."""

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodlab import (
    F_f2,
    PrecisionContext,
    TailTooLarge,
    cusp_form,
    delta,
    eichler_integral,
    evaluate,
    l_completed,
    r_f2,
    verify_superm,
    verify_termwise_xi,
)
from periodlab.cli import SuiteConfig, _grid, holomorphic_form, run_suite
from periodlab.qforms import DIM_ONE_WEIGHTS

CTX100 = PrecisionContext(digits=100)


@pytest.mark.parametrize("N", [16, 40])
def test_eichler_short_window_raises(N):
    # N=16: the period polynomial's L-values already run out of terms;
    # N=40: those certify, and F's own q-sum is the one that runs out
    with pytest.raises(TailTooLarge):
        eichler_integral(delta(N), CTX100)(mp.mpc("0.3", "0.55"))


def test_completed_lvalue_short_window_raises():
    with pytest.raises(TailTooLarge):
        l_completed(delta(16), 6, CTX100)


def test_f2_termwise_short_window_raises():
    with pytest.raises(TailTooLarge):
        F_f2(delta(16), mp.mpc("0.1", "0.6"), CTX100, method="termwise")


def test_r2_termwise_short_window_raises():
    # the critical values that build r run out first: r2's own sums need
    # fewer terms, since |z|^(-k) |i - 1/z|^(-k) = |z + i|^(-k) <= 1
    with pytest.raises(TailTooLarge):
        r_f2(delta(16), mp.mpc("0.1", "0.6"), CTX100)


def test_superm_precision_ladder():
    # a silent cap on any route (a window, a quadrature, a guard) would stop
    # the residual from following the digits
    pts = _grid(3, "0.1", "0.8", "0.6", "1.8")
    worst = []
    for digits in (30, 50, 80):
        ctx = PrecisionContext(digits=digits)
        worst.append(verify_superm(holomorphic_form("delta", ctx), pts, ctx).max_residual)
    for lo, hi in zip(worst, worst[1:]):
        assert hi <= lo * mp.mpf("1e-10"), worst


def test_seed_precision_ladder():
    # each Whittaker identity and xi_descent_termwise take one difference (in
    # y, in z) at fd_step of a closed-form seed, so from digits 50 to 80 they
    # gain 2 (80 - 50)/3 = 20 digits; a difference in s under them gained 11.5
    worst = []
    for digits in (50, 80):
        ctx = PrecisionContext(digits=digits)
        reps = run_suite("special", SuiteConfig(digits=digits), ctx)
        reps.append(verify_termwise_xi(12, 1, [mp.mpc(0, 1), mp.mpc("0.3", "0.8")], ctx)[0])
        worst.append({r.identity: r.max_residual for r in reps})
    assert "xi_descent_termwise[k=12,m=1]" in worst[0] and len(worst[0]) == 9
    for name, lo in worst[0].items():
        assert worst[1][name] <= lo * mp.mpf("1e-19"), (name, lo, worst[1][name])


@pytest.mark.parametrize("digits", [80, 100])
def test_cli_window_follows_digits(digits):
    # a 64-term delta raises TailTooLarge here; the CLI's window does not
    ctx = PrecisionContext(digits=digits)
    f = holomorphic_form("delta", ctx)
    z = mp.mpc("0.5", "0.5")
    evaluate(f, z, ctx)
    eichler_integral(f, ctx)(z)


def test_cli_window_at_default_digits():
    # every window is the certified length at Im z = 0.5 for the digits, and
    # evaluate certifies on it there
    z = mp.mpc("0.3", "0.5")
    windows = {50: (50, 52, 54, 55, 56, 59), 80: (72, 75, 77, 78, 80, 83)}
    for digits, lengths in windows.items():
        ctx = PrecisionContext(digits=digits)
        for k, n in zip(DIM_ONE_WEIGHTS, lengths):
            f = holomorphic_form("delta" if k == 12 else f"cusp{k}", ctx)
            assert f.n_max == n, (digits, k, f.n_max)
            evaluate(f, z, ctx)


def _route(name, f, z, ctx):
    if name == "evaluate":
        return evaluate(f, z, ctx)
    if name == "F":
        return eichler_integral(f, ctx)(z)
    if name == "r2":
        return r_f2(f, z, ctx)
    return F_f2(f, z, ctx, method="termwise")


@pytest.mark.parametrize("route", ["evaluate", "F", "F2", "r2"])
@settings(max_examples=25)
@given(
    weight=st.sampled_from([12, 16]),
    x=st.floats(-0.5, 0.5),
    y=st.floats(0.3, 2.5),
    digits=st.sampled_from([30, 50, 80]),
)
@example(weight=16, x=0.1, y=0.3, digits=80)
def test_window_meets_claimed_digits_or_raises(route, weight, x, y, digits):
    ctx = PrecisionContext(digits=digits)
    z = mp.mpc(x, y)
    try:
        got = _route(route, cusp_form(weight, 64), z, ctx)
    except TailTooLarge:
        return
    # the reference sums a longer window at 20 more digits, so it does not
    # share the truncation point it is checking
    want = _route(route, cusp_form(weight, 300), z, PrecisionContext(digits=digits + 20))
    assert abs(got - want) <= mp.mpf(10) ** (-digits) * (1 + abs(got))
