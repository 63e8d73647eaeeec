"""Special functions: incomplete gamma, normalized Whittaker values, seeds."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodlab import (
    DomainError,
    NonConvergent,
    PrecisionContext,
    StepTooLarge,
    cal_M,
    psi_seed,
    upper_incomplete_gamma,
    whittaker_derivative_identity_check,
)
from periodlab.eichler import GroupElement
from periodlab.fixedpoint import GUARD_BITS, fixed, gauss_taylor, log2_eps, series_order
from periodlab.special import (
    _CF_GUARD_BITS,
    _binomial_coeffs,
    _confluent,
    _dyadic,
    _exp_coeffs,
    _kummer_sums,
    _legendre_fraction,
    _log1p_coeffs,
    _negint_series,
    _on_fraction,
    _seed_order,
)

import oracles
from oracles import gamma_oracle, legendre_fraction_forward, whittaker_M_integral


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


@pytest.mark.parametrize("digits", [50, 80])
def test_gamma_order_far_below_minus_x(digits):
    # Gamma(-N, x) for N well above x: E1 with the finite sum cancels by about
    # x^(N-1) N / N!, 75 digits at N = 288, x = 62 pi, where it once raised
    # NonConvergent; the lower-gamma series at a non-integer or complex order
    # stopped in the dip of its terms (10^218 and 10^44 off in the last two
    # cases).  The continued fraction takes all of them.  x is rounded to the
    # working precision first, as an L-series hands it over; mpmath's
    # gammainc cancels much as E1 does (75 digits at N = 384), so it runs at
    # four times the working precision
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)
    cases = ((-288, "31"), (-384, "37"), (mp.mpf("-288.5"), "40"), (mp.mpc(-288, -5), mp.mpc(100, 50)))
    for s, x in cases:
        with mp.workdps(ctx.work_dps):
            x = 2 * mp.pi * mp.mpf(x) if isinstance(x, str) else x
            got = upper_incomplete_gamma(s, x, ctx)
        with mp.workdps(4 * ctx.work_dps):
            want = mp.gammainc(s, x)
            assert abs(got - want) <= bound * abs(want), (s, x)


@pytest.mark.parametrize("digits", [50, 80])
def test_gamma_fraction_within_eps(digits):
    # l_completed's est_error takes each Gamma within ctx.eps() relative.  On
    # the fraction branch, the fraction stops at 2^(mag(eps) - 3), which its
    # own bound, 4 times that, keeps below eps: real and complex orders far
    # right of and far below the argument, integer and not.  mpmath's
    # gammainc cancels at the order -288, so it runs at four times the
    # working precision
    ctx = PrecisionContext(digits=digits)
    cases = ((mp.mpf("6.5"), 6), (300, 100), (-288, 62), (mp.mpf("-330.5"), 80), (mp.mpc(10, 20), 10))
    for s, x in cases:
        with mp.workdps(ctx.work_dps):
            x = x * mp.pi
            assert _on_fraction(s, x)
            got = upper_incomplete_gamma(s, x, ctx)
        with mp.workdps(4 * ctx.work_dps):
            want = mp.gammainc(s, x)
            assert abs(got - want) <= ctx.eps() * abs(want), (s, x)


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


@st.composite
def negint_cases(draw):
    """(N, x) on the integer-order branch's domain: N in [0, 40], 0.05 <= |x| <= 60, and Re x <= 0 or |x| <= N + 1.

    On the left the angle takes |arg x| in [pi/2, pi], the negative real
    axis as the limit from above; on the right |arg x| < pi/2.
    """
    N = draw(st.integers(0, 40))
    if draw(st.booleans()):
        r = 0.05 * 1200 ** draw(st.floats(0, 1))
        theta = draw(st.floats(math.pi / 2, math.pi))
        if theta == math.pi:
            return N, mp.mpc(-r, 0)
        theta *= draw(st.sampled_from([1, -1]))
    else:
        r = 0.05 * (min(60, N + 1) / 0.05) ** draw(st.floats(0, 1))
        theta = draw(st.floats(-math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True))
    return N, mp.mpc(r * math.cos(theta), r * math.sin(theta))


@pytest.mark.parametrize("digits", [50, 80, 120])
def test_negint_series_property(digits):
    # the integer-order branch, the series DLMF 8.4.15 of x^N Gamma(-N, x)
    # on fixed-point integers, within eps relative against an oracle at
    # twice the working precision: mpmath's E1 with the exact finite sum
    # (gamma_oracle), since mp.gammainc at a negative integer order and a
    # complex x takes seconds per call at these digits.  The examples are
    # perstar's principal terms (x = 2 pi i n (w0 + a) for n = -1 and -2
    # on both rstar legs) and Gamma(-288, 2 pi), the n = 1 term of
    # `lvalue --s 300`, where the loop stops on its tail bound at k < 100
    # rather than after k > N = 288
    ctx = PrecisionContext(digits=digits)

    @settings(max_examples=60)
    @given(negint_cases())
    @example((11, mp.mpc("-13.19", "3.77")))
    @example((11, mp.mpc("-21.36", "2.51")))
    @example((11, mp.mpc("-45.2", 0)))
    @example((288, 2 * mp.pi))
    def check(case):
        N, x = case
        with mp.workdps(ctx.work_dps):
            x = mp.mpmathify(x)
            Hr, Hi, P = _negint_series(N, x, float(mp.mag(ctx.eps()) - 1))
            got = mp.mpc(mp.mpf((Hr, -P)), mp.mpf((Hi, -P))) / x ** N
        want = gamma_oracle(-N, x, 2 * ctx.work_dps)
        with mp.workdps(2 * ctx.work_dps):
            assert abs(got - want) <= ctx.eps() * abs(want), (N, x)

    check()


def fraction_ratio(fraction) -> mp.mpc:
    """B/A of a ``_legendre_fraction`` result, at the current precision."""
    Br, Bi, eB, Ar, Ai, eA, _ = fraction
    return mp.mpc(mp.mpf((Br, eB)), mp.mpf((Bi, eB))) / mp.mpc(mp.mpf((Ar, eA)), mp.mpf((Ai, eA)))


@pytest.mark.parametrize("m, steps", [(1, 0), (2, 1), (4, 3)])
def test_legendre_fraction_exact_end_steps(ctx, m, steps):
    # at a positive integer order m, a_m = 0 and the fraction ends after the
    # m - 1 steps it ran, at e^x x^(-m) Gamma(m, x) = (m-1)! sum_{j<m} x^(j-m)/j!
    P = 200
    for x in (mp.mpf("0.75"), mp.mpc("3.5", "-40")):  # exact at P bits
        got = _legendre_fraction(fixed(m, P), fixed(x, P), P, -P)
        assert got[-1] == steps
        with mp.workdps(2 * ctx.work_dps):
            want = mp.factorial(m - 1) * mp.fsum(x ** (j - m) / mp.factorial(j) for j in range(m))
            assert abs(fraction_ratio(got) - want) <= mp.mpf(2) ** -P * abs(want), x


@st.composite
def ray_fraction_cases(draw):
    """(order 1 - s, x, log2_tol) as ``regint.ray_sum`` runs the fraction: s in [-6, 26], Re x > 0, 0.5 <= |x| <= 1e4."""
    s = draw(st.integers(-6, 26))
    r = 0.5 * 2e4 ** draw(st.floats(0, 1))
    theta = draw(st.sampled_from([1, -1])) * (math.pi / 2 - draw(st.floats(1e-9, math.pi / 2)))
    return 1 - s, mp.mpc(r * math.cos(theta), r * math.sin(theta)), draw(st.floats(0, 1))


@pytest.mark.parametrize("digits", [50, 80])
def test_legendre_fraction_at_ray_sum_tolerances(digits):
    # the fraction itself, where ray_sum runs it: every Re x > 0, also
    # |x| <= |order| + 1 below upper_incomplete_gamma's threshold, and each
    # term's tolerance from eps up to 2^-20; B/A is e^x x^(-order) Gamma(order, x)
    # within 2^(log2_tol + 2) relative
    ctx = PrecisionContext(digits=digits)
    log2_eps = float(mp.mag(ctx.eps()) - 1)
    P = _CF_GUARD_BITS - int(mp.mag(ctx.eps()))

    @settings(max_examples=60)
    @given(ray_fraction_cases())
    def check(case):
        order, x, u = case
        log2_tol = log2_eps + u * (-20 - log2_eps)
        got = _legendre_fraction(fixed(order, P), fixed(x, P), P, log2_tol)
        with mp.workdps(2 * ctx.work_dps):
            want = mp.exp(x) * x ** -order * gamma_oracle(order, x, 2 * ctx.work_dps)
            assert abs(fraction_ratio(got) - want) <= mp.mpf(2) ** (log2_tol + 2) * abs(want), (order, x, log2_tol)

    check()


@st.composite
def backward_fraction_cases(draw):
    """(order, x, u): order 1 - s with s in [-6, 26] as ``regint.ray_sum`` runs it, or a non-integer real or complex order with |Re| <= 20, and Re x > 0.

    |x| is log-uniform in [0.5, 1e4], or in [1e39, 1e41] where r2 near the
    cusp sums its legs; at a non-integer order with Re order > 0 it starts
    at |order| + 1, as ``upper_incomplete_gamma`` takes the fraction.  The
    angle comes within 1e-9 of the imaginary axis on either side, and u
    places the tolerance between eps and 2^-20.
    """
    kind = draw(st.sampled_from(["integer", "real", "complex"]))
    if kind == "integer":
        order = mp.mpf(1 - draw(st.integers(-6, 26)))
    elif kind == "real":
        order = mp.mpf(draw(st.floats(-20, 20).filter(lambda v: v != round(v))))
    else:
        order = mp.mpc(draw(st.floats(-20, 20)), draw(st.floats(0.25, 20)) * draw(st.sampled_from([1, -1])))
    low = float(abs(order)) + 1 if kind != "integer" and mp.re(order) > 0 else 0.5
    if draw(st.booleans()):
        r = low * (1e4 / low) ** draw(st.floats(0, 1))
    else:
        r = 1e39 * 100 ** draw(st.floats(0, 1))
    theta = draw(st.sampled_from([1, -1])) * (math.pi / 2 - draw(st.floats(1e-9, math.pi / 2)))
    return order, mp.mpc(r * math.cos(theta), r * math.sin(theta)), draw(st.floats(0, 1))


def last_step(s, x, n):
    """|f_n - f_(n-1)| / |f_n| for the convergents of the Legendre fraction at (s, x), by backward evaluation at the current precision."""

    def convergent(n):
        t = x + 2 * n + 1 - s
        for j in range(n, 0, -1):
            t = x + 2 * j - 1 - s - j * (j - s) / t
        return t

    f = convergent(n)
    return abs(f - convergent(n - 1)) / abs(f)


@pytest.mark.parametrize("digits", [50, 80])
def test_legendre_fraction_vs_forward_wallis(digits):
    # the backward pass at the depth the float pass fixes, against the
    # Wallis forward recurrence (oracles.legendre_fraction_forward) run with
    # 64 more bits to a tolerance 2^64 tighter: B/A within 2^(log2_tol + 2)
    # relative, also at |x| near 1e40, where |f| is large and q must keep its
    # own exponent.  The depth keeps the float pass's margin: the last step
    # of the convergents, at twice the precision, is below 2^(log2_tol - 1),
    # except at a positive integer order m, where the fraction ends at m - 1
    ctx = PrecisionContext(digits=digits)
    log2_eps = float(mp.mag(ctx.eps()) - 1)
    P = _CF_GUARD_BITS - int(mp.mag(ctx.eps()))

    @settings(max_examples=60)
    @given(backward_fraction_cases())
    @example((mp.mpf(-11), mp.mpc("1e-30", "1.2566e40"), 0.1))
    def check(case):
        order, x, u = case
        log2_tol = log2_eps + u * (-20 - log2_eps)
        S, X = fixed(order, P), fixed(x, P)
        got = _legendre_fraction(S, X, P, log2_tol)
        ref = legendre_fraction_forward(fixed(order, P + 64), fixed(x, P + 64), P + 64, log2_tol - 64)
        with mp.workprec(2 * P):
            want = fraction_ratio(ref)
            assert abs(fraction_ratio(got) - want) <= mp.mpf(2) ** (log2_tol + 2) * abs(want), case
            if not (mp.isint(order) and order >= 1):
                s = mp.mpc(mp.mpf((S[0], -P)), mp.mpf((S[1], -P)))
                step = last_step(s, mp.mpc(mp.mpf((X[0], -P)), mp.mpf((X[1], -P))), got[-1])
                assert step <= mp.mpf(2) ** (log2_tol - 1) * (1 + mp.mpf(10) ** -6), case

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
    # against mpmath's whitm at twice the working precision; and |u| far
    # below 1, where y^(s - k/2) scales a relative error in y by |s - k/2|: a
    # y rounded to a grid of 2^-P (P the working precision plus 20 bits)
    # read 4.8e-52 off at 1e-20 and 4.7e-42 at 1e-30
    bound = mp.mpf(10) ** -(ctx.digits + 5)
    rng = random.Random(3)
    cases = [(rng.choice([-10, 2, 4, 12, 16]), mp.mpf(rng.uniform(0.6, 8)), mp.mpf(rng.uniform(-8, 8))) for _ in range(20)]
    for k, s, u in cases + [(12, mp.mpf(2), mp.mpf("1e-20")), (4, mp.mpf("0.5"), mp.mpf("-1e-15")), (-10, mp.mpf(3), mp.mpf("1e-30"))]:
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
def test_kummer_series_ds_property(digits):
    # the s-derivative along (a, b) = (s - mu, 2 s), against mpmath's 1F1
    # differentiated by mp.diff at twice the working precision, a = 0 included
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)

    @settings(max_examples=40)
    @given(kummer_cases())
    @example((mp.mpf(0), mp.mpf(12), mp.mpf(12)))
    @example((mp.mpf(0), mp.mpf(4), mp.mpf("0.5")))
    @example((mp.mpf(-3) + mp.mpf("1e-12"), mp.mpf("2.5"), mp.mpf(40)))
    def check(case):
        a, b, y = case
        with mp.workdps(ctx.work_dps):
            P = mp.mp.prec + GUARD_BITS
            Q, A, B = _dyadic(a, b)
            S0, _, dS0, _ = _kummer_sums(A, B, Q, mp.mpf(y).to_fixed(P), P, log2_eps(ctx), True, False)
            value, got = mp.mpf((S0, -P)), mp.mpf((dS0, -P))
        with mp.workdps(2 * ctx.work_dps):
            want = mp.diff(lambda t: mp.hyp1f1(a + t, b + 2 * t, y), 0)
            assert abs(got - want) <= bound * (1 + abs(want)), (a, b, y)
            want = mp.hyp1f1(a, b, y)
            assert abs(value - want) <= bound * (1 + abs(want)), (a, b, y)

    check()


@pytest.mark.parametrize("digits", [50, 80, 120])
def test_kummer_series_property(digits):
    # absolute-or-relative error <= 10^-(digits+5) (1 + |v|) against mpmath's
    # 1F1 at twice the working precision, across sign changes of a + j.  At
    # a = -6 + 2^-200 the terms fall to about 2^-200 at j = 7 and then grow
    # again with y^j/j!: a stop at the first small term was 3.4e-44 (y = 80)
    # and 1.4e-51 (y = 60) off at 50 digits, and a stop on the tail bound is not
    ctx = PrecisionContext(digits=digits)
    bound = mp.mpf(10) ** -(digits + 5)

    @settings(max_examples=60)
    @given(kummer_cases())
    @example((mp.mpf(-6) + mp.mpf(2) ** -200, mp.mpf("0.5"), mp.mpf(80)))
    @example((mp.mpf(-6) + mp.mpf(2) ** -200, mp.mpf(1), mp.mpf(60)))
    def check(case):
        a, b, y = case
        with mp.workdps(ctx.work_dps):
            P = mp.mp.prec + GUARD_BITS
            Q, A, B = _dyadic(a, b)
            S0, _, _, _ = _kummer_sums(A, B, Q, mp.mpf(y).to_fixed(P), P, log2_eps(ctx), False, False)
            got = mp.mpf((S0, -P))
        with mp.workdps(2 * ctx.work_dps):
            want = mp.hyp1f1(a, b, y)
            assert abs(got - want) <= bound * (1 + abs(want)), (a, b, y)

    check()


# images of xi stencils under three cosets: the clusters truncated_poincare takes
CLUSTER_MAPS = (GroupElement(1, 0, 0, 1), GroupElement(0, -1, 1, 0), GroupElement(2, 1, 5, 3))


@pytest.mark.parametrize("digits", [30, 50, 80, 100])
def test_cal_M_cluster_meets_single_calls(digits):
    # a cluster takes one confluent series at its center and a Taylor sum per
    # argument, its jet from Kummer's equation (the s-derivative's with the
    # source term K - 2K'), to the order the remainder bound sets.  Each value
    # of a stencil's cluster meets a single call (one series at that argument,
    # no Taylor sum) within eps relative: at 30 digits about 1e-12 eps, where
    # one Taylor order fewer is about 1e5 eps off.  Wide clusters, a long jet
    # at max |rho| = 1/3 and one series per argument at 5/7, meet them within
    # 10^-(digits+5)
    ctx = PrecisionContext(digits=digits)
    clusters = []
    for z in (mp.mpc(0, 2), mp.mpc("0.3", "0.8")):
        with mp.workdps(ctx.work_dps):
            h = ctx.fd_step
            points = [z + h, z - h, z + 1j * h, z - 1j * h]
            clusters += [([4 * mp.pi * mp.im(g.apply(w)) for w in points], ctx.eps()) for g in CLUSTER_MAPS]
    clusters += [([mp.mpf(u) for u in us], mp.mpf(10) ** -(digits + 5)) for us in ((1, "1.5", 2), ("0.5", 3))]
    for k, s in ((4, 2), (12, 6), (-10, 6)):
        for m in (1, -1):
            for ds in (False, True):
                for us, bound in clusters:
                    us = [m * u for u in us]
                    for u, got in zip(us, cal_M(k, s, us, ctx, ds=ds)):
                        want = cal_M(k, s, u, ctx, ds=ds)
                        assert abs(got - want) <= bound * abs(want), (k, m, ds, u)


def test_cal_M_cluster_needs_one_sign(ctx):
    with pytest.raises(DomainError):
        cal_M(12, 6, [mp.mpf(1), mp.mpf(-1)], ctx)
    with pytest.raises(DomainError):
        cal_M(12, 6, [mp.mpf(1), mp.mpf(0)], ctx)


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
    # the s-difference oracle at steps h and h/2 meets the closed form, and
    # its error falls by 4 with the step: O(h^2), about 4e-34 relative at h
    rng = random.Random(5)
    for _ in range(10):
        z = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        v = psi_seed(12, -1, z, ctx)
        e1, e2 = (abs(oracles.psi_seed_difference(12, -1, z, ctx, h) - v) for h in (ctx.fd_step, ctx.fd_step / 2))
        assert e1 <= ctx.tol_fd * (1 + abs(v))
        assert 3.9 < e1 / e2 < 4.1


def test_psi_seed_positive_index(ctx):
    # m > 0 puts s = k/2 at a = 0 of the series, where the closed form takes
    # no special case and the oracle a one-sided stencil
    z = mp.mpc(0, 1)
    v = psi_seed(12, 1, z, ctx)
    e1, e2 = (abs(oracles.psi_seed_difference(12, 1, z, ctx, h) - v) for h in (ctx.fd_step, ctx.fd_step / 2))
    assert e1 <= ctx.tol_fd * (1 + abs(v))
    assert 3.9 < e1 / e2 < 4.1


@pytest.mark.parametrize("digits", [50, 80])
def test_psi_seed_meets_fine_difference(digits):
    # the difference oracle at 4x the digits with step 10^-(digits+20) is
    # off by about 1e-(2 digits+40); z is exact in binary
    ctx, hi = PrecisionContext(digits=digits), PrecisionContext(digits=4 * digits)
    bound = mp.mpf(10) ** -(digits + 5)
    for k in (4, 12):
        for m in (-1, 1, 2):
            for y in ("0.5", "1", "2.5"):
                z = mp.mpc("0.25", y)
                got = psi_seed(k, m, z, ctx)
                want = oracles.psi_seed_difference(k, m, z, hi, mp.mpf(10) ** -(digits + 20))
                with mp.workdps(hi.work_dps):
                    assert abs(got - want) <= bound * abs(want), (k, m, y)


def test_psi_seed_needs_positive_weight(ctx):
    # 2s = k must not be a nonpositive integer
    with pytest.raises(DomainError):
        psi_seed(0, -1, mp.mpc(0, 1), ctx)


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


@pytest.mark.parametrize("y", ["1e-30", "1e-17"])
def test_whittaker_identity_stencil_stays_above_zero(ctx, y):
    # fd_step is 2.2e-17 at digits 50; a stencil through y' <= 0 flips mu,
    # and once returned a failed report (residual 1.0) on the wrong function
    with pytest.raises(StepTooLarge):
        whittaker_derivative_identity_check(4, mp.mpf(y), ctx)
    assert whittaker_derivative_identity_check(4, mp.mpf("1e-11"), ctx).passed


@pytest.mark.parametrize("digits", [50, 80])
def test_whittaker_nested_difference_oracle(digits):
    # the nested s- and y-difference, with its own step h = 10^(-digits/5),
    # meets the check's left side (closed s-derivative) within 10 h^2
    ctx = PrecisionContext(digits=digits)
    hn = mp.mpf(10) ** (-mp.mpf(digits) / 5)
    for k in (4, 12):
        for y in ("0.5", "1", "2", "5"):
            y = mp.mpf(y)
            nested = oracles.whittaker_nested_difference(k, y, ctx)
            with mp.workdps(ctx.work_dps):
                h = ctx.fd_step
                inner = lambda t: cal_M(k, mp.mpf(k) / 2, -t, ctx, ds=True) * mp.exp(-t / 2)
                lhs = (inner(y + h) - inner(y - h)) / (2 * h)
                assert abs(nested - lhs) <= 10 * hn ** 2 * abs(lhs), (k, y)


@pytest.mark.parametrize("digits", [30, 50])
def test_seed_series_meet_their_bound(digits):
    # each point of a seed cluster takes exp, (1 + x)^e and log1p series to the
    # order _seed_order sets for a remainder of 2^-(prec + 4); a cluster's
    # confluent jet (kummer: 1F1(11; 12; y) about y_c = 4 pi, the dual-weight
    # seed's) and regint's a-jet (ajet: the binomial series (1 + x)^(-12) of
    # (w + a + delta)^(-12)) take series_order at eps.  At the largest ratio a
    # stencil of step fd_step gives them (2 pi h for the exponential,
    # h / Im z with Im z = 1 for the others) each meets mpmath, taken far past
    # that bound, within it.  A ratio bound (kappa + n)/(n + 1) cannot fall
    # below 1 at rho = 1, nor at rho = 0.5, which the seed's order rounds up
    # to 1: both raise, where the order loop never ended
    ctx = PrecisionContext(digits=digits)
    rng = random.Random(digits)
    with mp.workdps(ctx.work_dps):
        prec, h = mp.mp.prec, ctx.fd_step
        _, kummer_jet = _confluent(-10, mp.mpf(6), False, False, ctx)
    P = prec + GUARD_BITS
    log2_tol, eps_tol = -prec - 4, log2_eps(ctx)
    Yc = int(mp.nint(4 * mp.pi * 2 ** P))
    with mp.workprec(2 * P):
        for rho, kind in ((2 * mp.pi * h, "exp"), (h, -12), (h, 10), (h, "log1p"), (h, "kummer"), (h, "ajet")):
            for _ in range(8):
                x = rho * (mp.expjpi(rng.uniform(-1, 1)) if kind not in ("log1p", "kummer") else rng.choice((-1, 1)))
                Xr, Xi = int(mp.nint(mp.re(x) * 2 ** P)), int(mp.nint(mp.im(x) * 2 ** P))
                x = mp.mpc(Xr, Xi) / 2 ** P
                if kind == "kummer":
                    got, want = kummer_jet(Yc, [Xr])[0][0] / mp.mpf(2) ** P, mp.hyp1f1(11, 12, Yc * (1 + x.real) / mp.mpf(2) ** P)
                    assert abs(got - want) <= mp.mpf(2) ** (eps_tol + 1) * (1 + abs(want)), (kind, x)
                    continue
                if kind == "exp":
                    c, want = _exp_coeffs(_seed_order(float(rho), None, log2_tol), P), mp.exp(x)
                elif kind == "log1p":
                    c, want = _log1p_coeffs(_seed_order(float(rho), 1, log2_tol), P), mp.log1p(x.real) / x.real
                elif kind == "ajet":
                    c, want = _binomial_coeffs(-12, 1, series_order(float(rho), 12, eps_tol), P), (1 + x) ** -12
                else:
                    c, want = _binomial_coeffs(kind, 1, _seed_order(float(rho), abs(kind), log2_tol), P), (1 + x) ** kind
                got = mp.mpc(*gauss_taylor(c, Xr, Xi, P)) / 2 ** P
                tol = eps_tol if kind == "ajet" else log2_tol
                assert abs(got - want) <= mp.mpf(2) ** tol * abs(want), (kind, x)
    for order, rho in ((_seed_order, 0.5), (series_order, 1.0)):
        for kappa in (1, 12):
            with pytest.raises(ValueError):
                order(rho, kappa, log2_tol)
