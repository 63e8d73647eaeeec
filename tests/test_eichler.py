"""Slash action, period polynomials, Eichler integrals, membership in W_k."""

import random
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import (
    DomainError,
    PolynomialC,
    PrecisionContext,
    critical_lvalues,
    eichler_integral,
    period_polynomial,
    period_polynomial_quadrature,
    quad_ray,
    residual_scale,
)
from periodlab.eichler import (
    GroupElement,
    IDENTITY,
    NonPolynomialResult,
    S,
    T,
    U,
    UTILDE,
    slash_function,
    slash_polynomial,
)

from oracles import w_relation_norms


def coboundary(k):
    return PolynomialC.from_coeffs([mp.mpc(-1)] + [mp.mpc(0)] * (k - 3) + [mp.mpc(1)], k - 2)


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(1, 1, 1, 1)
    assert UTILDE == S * (U * U) * GroupElement(0, 1, -1, 0)


def test_slash_identity():
    P = PolynomialC.from_coeffs([1, 2, 3], 4)
    assert slash_polynomial(P, -4, IDENTITY).coeffs == P.coeffs


def test_slash_monomial_under_s():
    # X^n |_{-n} S = (-1/X)^n X^n = (-1)^n
    n = 10
    P = PolynomialC.from_coeffs([0] * n + [1], n)
    out = slash_polynomial(P, -n, S)
    assert abs(out.coeffs[0] - 1) < mp.mpf("1e-60")  # (-1)^10 = 1
    assert all(abs(c) < mp.mpf("1e-60") for c in out.coeffs[1:])


def test_coboundary_annihilated_by_one_plus_s():
    k = 12
    P = coboundary(k)
    out = slash_polynomial(P, 2 - k, S)
    assert max(abs(a + b) for a, b in zip(P.coeffs, out.coeffs)) < mp.mpf("1e-60")


def test_slash_action_property(ctx):
    rng = random.Random(23)
    gens = [S, T, U, UTILDE, GroupElement(1, -1, 0, 1)]
    n = 6
    for _ in range(50):
        P = PolynomialC.from_coeffs(
            [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n + 1)], n
        )
        g1, g2 = rng.choice(gens), rng.choice(gens)
        a = slash_polynomial(slash_polynomial(P, -n, g1), -n, g2)
        b = slash_polynomial(P, -n, g1 * g2)
        diff = max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))
        assert diff < mp.mpf("1e-55") * (1 + max(abs(c) for c in P.coeffs))


def test_s_squared_acts_trivially():
    P = PolynomialC.from_coeffs([1, 5, -2, 0, 3], 4)
    out = slash_polynomial(slash_polynomial(P, -4, S), -4, S)
    assert max(abs(x - y) for x, y in zip(out.coeffs, P.coeffs)) < mp.mpf("1e-60")


def test_slash_function_wrapper(ctx, f_delta):
    F = eichler_integral(f_delta, ctx)
    z = mp.mpc("0.2", "1.4")
    sf = slash_function(F, 2 - 12, S)
    assert abs(sf(z) - F(-1 / z) * z ** 10) < mp.mpf("1e-55")


def test_period_polynomial_coefficient_structure(ctx, f_delta):
    # coefficient of z^(k-2-n) is -(k-2)!/(2 pi i)^(k-1) (2 pi i)^(k-2-n) L(n+1)/(k-2-n)!
    rp = period_polynomial(f_delta, ctx)
    k = 12
    for n in (0, 3, 10):
        j = k - 2 - n
        want = (
            -mp.factorial(k - 2)
            / (2j * mp.pi) ** (k - 1)
            * (2j * mp.pi) ** j
            * critical_lvalues(f_delta, ctx)[n].value
            / mp.factorial(j)
        )
        assert abs(rp.coeffs[j] - want) < mp.mpf("1e-55") * (1 + abs(want))


def test_period_polynomial_parity_structure(ctx, f_delta):
    # c_j i^(j+k-1) is real for real-coefficient forms
    rp = period_polynomial(f_delta, ctx)
    k = 12
    for j, c in enumerate(rp.coeffs):
        v = c * mp.mpc(0, 1) ** (j + k - 1)
        assert abs(mp.im(v)) < mp.mpf("1e-50") * (1 + abs(v))


def test_period_polynomial_vs_quadrature(ctx, f_delta):
    rp = period_polynomial(f_delta, ctx)
    for z0 in (mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc(0, 2)):
        oracle = period_polynomial_quadrature(f_delta, z0, ctx)
        assert abs(oracle - rp(z0)) <= mp.mpf("1e-18") * (1 + abs(oracle))


def test_period_zero_form(ctx, f_delta):
    z = f_delta.scale(0)
    rp = period_polynomial(z, ctx)
    assert max(abs(c) for c in rp.coeffs) < ctx.tol_tight


def test_eichler_termwise_coefficient(ctx, f_delta):
    # int_z^{i oo} e^(2 pi i n w)(w-z)^(k-2) dw = (k-2)! (-2 pi i)^(1-k) n^(1-k) q^n
    # (integration by parts oracle, done here by direct quadrature)
    F = eichler_integral(f_delta, ctx)
    k = 12
    n = 2
    z = mp.mpc("0.3", "0.9")
    val = quad_ray(
        lambda w: mp.exp(2j * mp.pi * n * (w + z)) * w ** (k - 2),
        mp.mpc(0),
        ctx,
    )
    want = mp.factorial(k - 2) * (-2j * mp.pi) ** (1 - k) * mp.mpf(n) ** (1 - k) * mp.exp(
        2j * mp.pi * n * z
    )
    assert abs(val - want) < mp.mpf("1e-50") * abs(want)
    coef = mp.factorial(k - 2) * (-2j * mp.pi) ** (1 - k) * (-24) * mp.mpf(2) ** (1 - k)
    assert abs(F.series.coeffs[2 - 1] - coef) < mp.mpf("1e-55") * abs(coef)


def test_object_caches_key_on_whole_context(ctx, f_delta):
    tight = PrecisionContext(tol_tight=mp.mpf("1e-40"))
    assert eichler_integral(f_delta, ctx).ctx == ctx
    assert eichler_integral(f_delta, tight).ctx == tight
    again = PrecisionContext(tol_tight=mp.mpf("1e-40"))
    assert eichler_integral(f_delta, again) is eichler_integral(f_delta, tight)
    assert period_polynomial(f_delta, tight) is not period_polynomial(f_delta, ctx)


def test_derived_objects_memoize_on_the_series(ctx, f_delta):
    # a repeated call returns the same object; a replace() copy is equal to
    # f but starts a fresh memo, so it builds its own (equal) objects
    copy = replace(f_delta)
    assert copy == f_delta and copy._memo == {}
    for build in (critical_lvalues, period_polynomial, eichler_integral):
        assert build(f_delta, ctx) is build(f_delta, ctx)
        assert build(copy, ctx) is build(copy, ctx) is not build(f_delta, ctx)
    assert period_polynomial(copy, ctx) == period_polynomial(f_delta, ctx)
    assert set(copy._memo) >= {(name, ctx) for name in ("critical_lvalues", "period_polynomial", "eichler_integral")}


def test_contexts_equal_across_ambient_precision(f_delta):
    # the default tolerances do not depend on the precision a context is
    # built at, so equal arguments give equal contexts and share the caches
    with mp.workdps(15):
        low = PrecisionContext(digits=60)
    high = PrecisionContext(digits=60)
    assert low == high and hash(low) == hash(high)
    assert eichler_integral(f_delta, low) is eichler_integral(f_delta, high)


def test_eichler_cocycle_relation(ctx, f_delta):
    # F|_{2-k}(1-S) = r at points where both evaluations are direct
    F = eichler_integral(f_delta, ctx)
    rp = period_polynomial(f_delta, ctx)
    rng = random.Random(31)
    for _ in range(10):
        z = mp.mpc(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.2))
        lhs = F(z) - F(-1 / z) * z ** 10
        assert abs(lhs - rp(z)) <= ctx.tol_tight * (1 + abs(lhs))


def test_eichler_t_periodicity(ctx, f_delta):
    F = eichler_integral(f_delta, ctx)
    z = mp.mpc("0.27", "1.3")
    assert abs(F(z + 1) - F(z)) < mp.mpf("1e-55")


def test_coboundary_in_W(ctx):
    with mp.workdps(ctx.work_dps):
        assert max(w_relation_norms(coboundary(12))) <= ctx.tol_tight


def test_generic_polynomial_not_in_W(ctx):
    P = PolynomialC.from_coeffs([1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 10)
    with mp.workdps(ctx.work_dps):
        assert max(w_relation_norms(P)) > mp.mpf("0.01")


def test_slash_wrong_weight_rejected():
    P = PolynomialC.from_coeffs([1, 2, 3], 4)
    with pytest.raises(NonPolynomialResult):
        slash_polynomial(P, -3, S)


def test_kernel_integral_reciprocal_power(ctx):
    # int_i^{i oo} (w + i)^(-12) dw = (2i)^(-11)/11 = i/22528
    with mp.workdps(ctx.work_dps):
        val = PolynomialC.from_coeffs([1]).kernel_integral(12, 1j, 1j)
    assert abs(val - mp.mpc(0, 1) / 22528) < mp.mpf("1e-45")


def test_kernel_integral_domain(ctx):
    with pytest.raises(DomainError):
        # degree k-1: the integral to i oo diverges logarithmically
        PolynomialC.from_coeffs([0] * 11 + [1]).kernel_integral(12, 1j, 0)
    with pytest.raises(DomainError):
        PolynomialC.from_coeffs([1, 2]).kernel_integral(12, mp.mpc("0.2", 1), mp.mpc("-0.2", -1))
    with pytest.raises(DomainError):
        PolynomialC.from_coeffs([1, 2]).kernel_integral(12, 1j, 0, -1j)


_COEFF = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


@st.composite
def _kernel_cases(draw):
    k = draw(st.sampled_from([12, 16]))
    coeffs = draw(st.lists(_COEFF, min_size=1, max_size=k - 1))
    z = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.3, 2.5)))
    a, b = (complex(draw(st.floats(-1.5, 1.5)), draw(st.floats(0, 2))) for _ in range(2))
    return k, coeffs, z, a, b


@settings(max_examples=20)
@given(_kernel_cases())
def test_kernel_integral_matches_quadrature(ctx, case):
    k, coeffs, z, a, b = case
    P = PolynomialC.from_coeffs(coeffs)
    tol = mp.mpf(10) ** (-ctx.digits)
    with mp.workdps(ctx.work_dps):
        z, a, b = mp.mpc(z), mp.mpc(a), mp.mpc(b)
        kern = lambda w: P(w) * (w + z) ** (-k)
        seg = P.kernel_integral(k, z, a, b)
        want = mp.quad(lambda t: kern(a + t * (b - a)) * (b - a), [0, 1])
        assert abs(seg - want) <= tol * residual_scale(seg, want)
        ray = P.kernel_integral(k, z, a)
        want = mp.quad(lambda t: kern(mp.mpc(mp.re(a), t)) * 1j, [mp.im(a), mp.inf])
        assert abs(ray - want) <= tol * residual_scale(ray, want)
        whole = seg + P.kernel_integral(k, z, b)
        assert abs(whole - ray) <= tol * residual_scale(whole, ray)
