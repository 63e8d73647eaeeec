"""Special functions: incomplete gamma, normalized Whittaker values, seeds."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import (
    DomainError,
    NonConvergent,
    PrecisionContext,
    cal_M,
    psi_seed,
    upper_incomplete_gamma,
    whittaker_derivative_identity_check,
)
from periodlab.special import _kummer_series

import oracles
from oracles import whittaker_M_integral


def test_gamma_order_one(ctx):
    assert abs(upper_incomplete_gamma(1, mp.mpf(2), ctx) - mp.exp(-2)) < mp.mpf("1e-55")


def test_gamma_order_zero_is_e1(ctx):
    got = upper_incomplete_gamma(0, mp.mpf(1), ctx)
    # the decimal value below is independent of mpmath
    assert abs(got - mp.e1(1)) < mp.mpf("1e-52")
    assert abs(got - mp.mpf("0.21938393")) < mp.mpf("1e-8")


def test_e1_matches_mpmath(ctx):
    # E1 is Gamma(0, x); the points lie on both sides of the
    # continued-fraction threshold |x| = 1
    for x in ("0.1", "0.9", "1", "3", "20"):
        assert abs(upper_incomplete_gamma(0, mp.mpf(x), ctx) - mp.e1(mp.mpf(x))) < mp.mpf("1e-55")


GAMMA_GRID_X = [mp.mpf(10) ** (mp.mpf(e) / 2) for e in range(-6, 7)] + [mp.mpf(60), mp.mpf(754)]
GAMMA_COMPLEX_CASES = (
    (mp.mpc(6, 3), 2 * mp.pi),  # complex order, as in the completed L-series
    (mp.mpc(-2, 1), mp.mpc(5, 7)),
    (-11, mp.mpc(-3, 2)),  # complex argument off the cut
    (mp.mpf("0.5"), mp.mpc(-8, -20)),
)
# orders that round to an integer as floats, which once put log2(0) into the
# continued fraction's stop test
GAMMA_NEAR_INTEGER_CASES = tuple(
    (s, x)
    for s in (6 + mp.mpf("1e-19"), 6 - mp.mpf("1e-19"), 12 + mp.mpf("1e-30"))
    for x in (mp.mpf(20), mp.mpf(60), mp.mpc(30, 5))
)


@pytest.mark.parametrize("digits", [50, 80])
def test_gamma_precision_vs_mpmath(digits):
    # Gamma(1-k, x) on a log grid, k <= 26, relative error <= 10^-(digits+5)
    # against mpmath at twice the working precision
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)
    cases = [(1 - k, x) for k in range(1, 27) for x in GAMMA_GRID_X] + list(GAMMA_COMPLEX_CASES + GAMMA_NEAR_INTEGER_CASES)
    for s, x in cases:
        got = upper_incomplete_gamma(s, x, ctx)
        with mp.workdps(2 * ctx.work_dps):
            want = mp.gammainc(s, x)
            assert abs(got - want) <= bound * abs(want), (s, x)


def gamma_oracle(s, x, dps):
    """Gamma(s, x) to dps digits, independent of the continued fraction.

    mp.gammainc for complex orders.  At a nonpositive integer order -N and
    complex x it takes seconds per call (its hypergeometric fallback), so
    there mpmath's E1 with the exact finite sum
    Gamma(-N, x) = (-1)^N/N! (E1(x) - e^(-x) sum_{j<N} (-1)^j j! x^(-j-1))
    runs instead, with the digits that sum cancels, log10(N! |x|^N), added.
    """
    if isinstance(s, mp.mpc):
        with mp.workdps(dps):
            return mp.gammainc(s, x)
    N = int(-s)
    with mp.workdps(dps + int(mp.log10(mp.factorial(N) * abs(x) ** N)) + 5):
        acc, term = mp.mpc(0), 1 / mp.mpc(x)
        for j in range(N):
            acc += term
            term *= -(j + 1) / x
        return (-1) ** N / mp.factorial(N) * (mp.e1(x) - mp.exp(-x) * acc)


@st.composite
def fraction_cases(draw):
    """(s, x): s = 1-k with k <= 26 or complex, Re x > 0 and |s| + 1 < |x| <= 1e4."""
    if draw(st.booleans()):
        s = mp.mpf(1 - draw(st.integers(1, 26)))
    else:
        im = draw(st.floats(0.25, 20)) * draw(st.sampled_from([1, -1]))
        s = mp.mpc(draw(st.floats(-20, 20)), im)
    low = (float(abs(s)) + 1) * (1 + 1e-9)
    r = low * (1e4 / low) ** draw(st.floats(0, 1))
    # the angle comes within 1e-9 of the imaginary axis on either side
    theta = draw(st.sampled_from([1, -1])) * (math.pi / 2 - draw(st.floats(1e-9, math.pi / 2)))
    return s, mp.mpc(r * math.cos(theta), r * math.sin(theta))


@pytest.mark.parametrize("digits", [50, 80, 120])
def test_legendre_fraction_property(digits):
    # the continued-fraction branch: relative error <= 10^-(digits+5) against
    # an oracle at twice the working precision, up to |x| = 1e4 and close to
    # the imaginary axis, where the fraction converges slowest
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)

    @settings(max_examples=60)
    @given(fraction_cases())
    def check(case):
        s, x = case
        got = upper_incomplete_gamma(s, x, ctx)
        want = gamma_oracle(s, x, 2 * ctx.work_dps)
        with mp.workdps(2 * ctx.work_dps):
            assert abs(got - want) <= bound * abs(want), (s, x)

    check()


def test_gamma_real_axis_complex_arg(ctx):
    # a complex x on the positive real axis runs the real branch; on the
    # negative real axis it stays complex, on the upper edge
    for x in (mp.mpf("12.6"), 6 * mp.pi, mp.mpf(60)):
        got = upper_incomplete_gamma(-11, mp.mpc(x, 0), ctx)
        assert isinstance(got, mp.mpf)
        assert got == upper_incomplete_gamma(-11, x, ctx)
    got = upper_incomplete_gamma(-11, mp.mpc(-3, 0), ctx)
    with mp.workdps(2 * ctx.work_dps):
        want = mp.gammainc(-11, mp.mpc(-3, 0))
        assert mp.im(want) != 0
        assert abs(got - want) <= mp.mpf(10) ** -(ctx.digits + 5) * abs(want)


@pytest.mark.parametrize("x", ["1", "5"])
def test_gamma_negative_order_vs_quadrature(ctx, x):
    # Gamma(-11, x) = int_x^oo t^(-12) e^(-t) dt
    x = mp.mpf(x)
    got = upper_incomplete_gamma(-11, x, ctx)
    oracle = mp.quad(lambda t: t ** mp.mpf(-12) * mp.exp(-t), [x, x + 10, mp.inf])
    assert abs(got - oracle) < mp.mpf("1e-50") * abs(oracle)


def test_gamma_recursion_consistency(ctx):
    # Gamma(s+1,x) = s Gamma(s,x) + x^s e^(-x)
    for s in list(range(-11, 0)) + list(range(1, 12)):
        for x in (mp.mpf("0.5"), mp.mpf(1), mp.mpf(5)):
            lhs = upper_incomplete_gamma(s + 1, x, ctx)
            rhs = s * upper_incomplete_gamma(s, x, ctx) + x ** s * mp.exp(-x)
            assert abs(lhs - rhs) <= ctx.tol_tight * max(1, abs(lhs)), (s, x)


def test_gamma_noninteger_negative_order(ctx):
    got = upper_incomplete_gamma(mp.mpf("-2.5"), mp.mpf(2), ctx)
    assert abs(got - mp.gammainc(mp.mpf("-2.5"), 2)) < mp.mpf("1e-50")


def test_gamma_domain_error(ctx):
    with pytest.raises(DomainError):
        upper_incomplete_gamma(1, mp.mpf(-1), ctx)


def test_gamma_negint_continued_off_cut(ctx):
    x = mp.mpc(-3, 2)
    got = upper_incomplete_gamma(-11, x, ctx)
    assert abs(got - mp.gammainc(-11, x)) < mp.mpf("1e-55") * (1 + abs(got))


def whitm_cal_M(k, s, u, dps):
    """cal_M(k, s, u) = |u|^(-k/2) M_{mu, s-1/2}(|u|), mu = sgn(u) k/2, by mpmath's whitm at dps digits."""
    with mp.workdps(dps):
        half_k, y = mp.mpf(k) / 2, abs(mp.mpf(u))
        return y ** -half_k * mp.whitm(half_k if u > 0 else -half_k, mp.mpf(s) - mp.mpf("0.5"), y)


def test_whittaker_vs_integral_representation(ctx):
    # interior of the representation's validity region Re(nu +- mu + 1/2) > 0,
    # with (mu, nu, y) = (-6, 6, 1), (-2, 2.5, 3), (1, 3, 0.5); the boundary
    # case nu + mu + 1/2 = 0 (e.g. mu=-6, nu=5.5) degenerates, which is why
    # the series is the primary route everywhere
    for (k, s, u) in ((12, 6.5, -1), (4, 3, -3), (2, 3.5, 0.5)):
        series = cal_M(k, s, u, ctx)
        with mp.workdps(ctx.work_dps):
            half_k, y = mp.mpf(k) / 2, abs(mp.mpf(u))
            integral = y ** -half_k * whittaker_M_integral(half_k if u > 0 else -half_k, s - 0.5, y, ctx)
            assert abs(series - integral) <= ctx.tol_tight * abs(series)
    with pytest.raises(DomainError):
        whittaker_M_integral(-6, 5.5, 1, ctx)
    with pytest.raises(DomainError):
        whittaker_M_integral(-2, 2.5, 0, ctx)


def test_whittaker_integral_raises_when_unconverged(ctx, monkeypatch):
    # two tanh-sinh degrees leave the error estimate far above tol_tight
    monkeypatch.setattr(oracles, "QUAD_MAXDEGREE", 2)
    with pytest.raises(NonConvergent):
        whittaker_M_integral(-2, 2.5, 3, ctx)


def test_whittaker_vs_mpmath(ctx):
    # seeded random (k, s, u) on both signs of u: error <= 10^-(digits+5) (1 + |v|)
    # against mpmath's whitm at twice the working precision
    bound = mp.mpf(10) ** -(ctx.digits + 5)
    rng = random.Random(3)
    for _ in range(20):
        k, s, u = rng.choice([-10, 2, 4, 12, 16]), mp.mpf(rng.uniform(0.6, 8)), mp.mpf(rng.uniform(-8, 8))
        got = cal_M(k, s, u, ctx)
        want = whitm_cal_M(k, s, u, 2 * ctx.work_dps)
        with mp.workdps(2 * ctx.work_dps):
            assert abs(got - want) <= bound * (1 + abs(want)), (k, s, u)


def test_whittaker_positivity(ctx):
    # positive for y = |u| > 0, 1 + 2 nu = 2 s > 0 and nonnegative first
    # parameter s - mu; (mu, nu, y) = (-2, 1.5, 3), (0, 0.25, 1), (-6, 5.5, 0.5)
    for (k, s, u) in ((4, 2, -3), (0, 0.75, 1), (12, 6, -0.5)):
        assert cal_M(k, s, u, ctx) > 0


@st.composite
def kummer_cases(draw):
    """(a, b, y): a in [-8, 20], often within 1e-12..1e-2 of an integer or one; b in [0.5, 30]; y in [1e-4, 80]."""
    if draw(st.booleans()):
        a = draw(st.floats(-8, 20))
    else:
        offset = draw(st.sampled_from([0, 1, -1])) * 10 ** draw(st.floats(-12, -2))
        a = draw(st.integers(-8, 20)) + offset
    b = draw(st.floats(0.5, 30))
    y = 10 ** draw(st.floats(-4, math.log10(80)))
    return mp.mpf(a), mp.mpf(b), mp.mpf(y)


@pytest.mark.parametrize("digits", [50, 80, 120])
def test_kummer_series_property(digits):
    # absolute-or-relative error <= 10^-(digits+5) (1 + |v|) against mpmath's
    # 1F1 at twice the working precision, across sign changes of a + j
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)

    @settings(max_examples=60)
    @given(kummer_cases())
    def check(case):
        a, b, y = case
        with mp.workdps(ctx.work_dps):
            got = _kummer_series(a, b, y, ctx)
        with mp.workdps(2 * ctx.work_dps):
            want = mp.hyp1f1(a, b, y)
            assert abs(got - want) <= bound * (1 + abs(want)), (a, b, y)

    check()


def test_cal_M_negative_u(ctx):
    # k=12, s=6, u<0 is |u|^(-6) M_{-6, 5.5}(|u|) by definition; the series
    # stops at eps (1 + |sum|), so it is about 1e-60 off, within 10^-(digits+5)
    got = cal_M(12, 6, -3, ctx)
    want = whitm_cal_M(12, 6, -3, 2 * ctx.work_dps)
    with mp.workdps(2 * ctx.work_dps):
        assert abs(got - want) <= mp.mpf(10) ** -(ctx.digits + 5) * abs(want)


def test_cal_M_terminating_positive_u(ctx):
    # k=12, s=6, u>0 collapses to e^(-u/2)
    for u in ("0.7", "2", "9"):
        u = mp.mpf(u)
        assert abs(cal_M(12, 6, u, ctx) - mp.exp(-u / 2)) < mp.mpf("1e-55")


@pytest.mark.parametrize("k,s", [(12, 6), (4, 2)])
def test_cal_M_small_u_scaling(ctx, k, s):
    # log-log slope of cal_M over u in {1e-2, 1e-3, 1e-4} is s - k/2 +- 0.01
    us = [mp.mpf("1e-2"), mp.mpf("1e-3"), mp.mpf("1e-4")]
    vals = [cal_M(k, s, u, ctx) for u in us]
    for (u1, v1), (u2, v2) in zip(zip(us, vals), zip(us[1:], vals[1:])):
        slope = (mp.log(v2) - mp.log(v1)) / (mp.log(u2) - mp.log(u1))
        assert abs(slope - (s - mp.mpf(k) / 2)) < mp.mpf("0.01")


def test_psi_seed_richardson_consistency(ctx):
    rng = random.Random(5)
    for _ in range(10):
        z = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        a = psi_seed(12, -1, z, ctx, step=ctx.fd_step)
        b = psi_seed(12, -1, z, ctx, step=ctx.fd_step / 2)
        assert abs(a - b) <= ctx.tol_fd * (1 + abs(a))


def test_psi_seed_positive_index(ctx):
    v = psi_seed(12, 1, mp.mpc(0, 1), ctx)
    w = psi_seed(12, 1, mp.mpc(0, 1), ctx, step=ctx.fd_step / 2)
    assert abs(v - w) <= ctx.tol_fd * (1 + abs(v))


def test_psi_seed_growth_linear_exponential(ctx):
    # |psi_{-1}(iy)| <= e^(4 pi y) on y in 1..5 (crude linear-exponential bound)
    for y in range(1, 6):
        v = psi_seed(12, -1, mp.mpc(0, y), ctx)
        assert abs(v) <= mp.exp(4 * mp.pi * y)


def test_psi_seed_small_y(ctx):
    # |psi_{-1}(iy)| = O(y^-eps) with eps = 0.1: the actual growth is the log
    # factor introduced by s-differentiation, so a fixed constant suffices
    # (and y = 0.1 sits near the zero of log(4 pi y), hence the headroom)
    for y in ("0.1", "0.01"):
        v = abs(psi_seed(12, -1, mp.mpc(0, y), ctx))
        assert v <= 2 * mp.mpf(y) ** mp.mpf("-0.1")


@pytest.mark.parametrize("k,y", [(12, "1"), (12, "5"), (4, "0.5"), (12, "0.5"), (4, "1"), (4, "5")])
def test_whittaker_derivative_identity(ctx, k, y):
    rep = whittaker_derivative_identity_check(k, mp.mpf(y), ctx)
    assert rep.passed, rep.summary_line()
