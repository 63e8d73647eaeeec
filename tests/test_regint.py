"""Regularized integrals: continuation correctness, starred periods and their cocycle leg."""

import math
import random

import mpmath as mp
import pytest

from periodlab import (
    DomainError,
    NotRegularizable,
    PolynomialC,
    PrecisionContext,
    QSeries,
    S,
    TailTooLarge,
    delta,
    eichler_integral,
    f_star,
    period_polynomial,
    quad_ray,
    r_star,
    reg_integral_to_icusp,
    residual_scale,
    verify_mock_es,
    verify_per_star,
    verify_superm,
    weakly_holomorphic_m10,
    xi_fd,
)
from periodlab.eichler import period_relations
from periodlab.fixedpoint import log2_eps, series_order
from periodlab.qforms import REDUCTION_HEIGHT, _sum_q_series, certified_cusp_form
from periodlab.regint import (
    SPLIT_HEIGHT,
    _hat_stencil,
    _star_stencil,
    hat_relation_residuals,
    hat_star,
    ray_sum,
)

from oracles import r2_quadrature, ray_term


def one_term_series(n, coeff=1):
    return QSeries(-10, n_min=n, coeffs=(mp.mpc(coeff),))


def plus_terms(z, k=12):
    """(w + z)^(-k) as kernel terms (a, s, scale)."""
    return ((z, k, 1),)


def sz_terms(z, k=12):
    """(wz - 1)^(-k) = z^(-k) (w - 1/z)^(-k) as kernel terms."""
    return ((-1 / z, k, z ** (-k)),)


def poly_terms(P):
    """The polynomial P(w) as kernel terms: c_j w^j = c_j (w + 0)^(-(-j))."""
    return tuple((0, -j, c) for j, c in enumerate(P.coeffs) if c != 0)


def reg_terms(M, terms, z0, ctx):
    """R.int_{z0}^{i oo} M(w) sum scale (w + a)^(-s) dw, one regularized integral per term."""
    with mp.workdps(ctx.work_dps):
        return mp.fsum(reg_integral_to_icusp(M, z0, a, s, ctx, scale) for a, s, scale in terms)


def slant_oracle(n, w0, z, k):
    """Contour-deformation oracle: rotate the ray down-right, the module's continuation."""
    delta = mp.pi / 4
    direction = mp.exp(-1j * delta)
    decay = 2 * mp.pi * abs(n) * mp.sin(delta)
    T = (mp.mp.dps + 8) * mp.log(10) / decay
    g = lambda t: mp.exp(2j * mp.pi * n * (w0 + t * direction)) * (w0 + t * direction + z) ** (-k) * direction
    return mp.quad(g, [0, T / 64, T / 8, T])


def ibp_oracle(n, w0, z, k):
    """Independent closed form via repeated integration by parts.

    I_j = int e^(lam w)(w+z)^(-j) dw satisfies
    I_j = -(w0+z)^(1-j) e^(lam w0)/(1-j) - lam/(1-j) I_{j-1} down to
    I_1 = e^(-lam z) E1(-lam (w0+z)) (continued with arg in (0, 2 pi)).
    """
    lam = 2j * mp.pi * n
    u0 = w0 + z
    e1 = mp.e1(-lam * u0)
    if mp.im(-lam * u0) < 0:
        e1 -= 2j * mp.pi
    vals = {1: mp.exp(-lam * z) * e1}
    for j in range(2, k + 1):
        vals[j] = -((w0 + z) ** (1 - j)) * mp.exp(lam * w0) / (1 - j) - lam / (1 - j) * vals[j - 1]
    return vals[k]


def test_empty_principal_equals_plain_quad(ctx, f_delta):
    # ten decaying inputs: scaled copies of a cusp form window
    rng = random.Random(13)
    for _ in range(10):
        c = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g = f_delta.scale(c)
        assert g.n_min == 1
        z = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.5))
        w0 = -mp.conj(z)
        got = reg_integral_to_icusp(g, w0, z, 12, ctx)
        plain = quad_ray(lambda w: _sum_q_series(g, w, ctx) * (w + z) ** (-12), w0, ctx)
        assert abs(got - plain) <= ctx.tol_tight * (1 + abs(got))


@pytest.mark.parametrize("kind", ["plus", "sz", "sz_at_0", "one", "poly"])
def test_decaying_part_vs_quad_ray(ctx, f_delta, kind):
    # the termwise ray sums of every kernel shape against quadrature of the
    # summed q-series times the kernel written out
    z = mp.mpc("0.3", "1.2")
    P = PolynomialC.from_coeffs([1, mp.mpc(0, 2), 0, -3], 10)
    terms, written = {
        "plus": (plus_terms(z), lambda w: (w + z) ** (-12)),
        "sz": (sz_terms(z), lambda w: (w * z - 1) ** (-12)),
        "sz_at_0": (((0, 0, (-1) ** 12),), lambda w: (w * 0 - 1) ** (-12)),
        "one": (((0, 0, 1),), lambda w: 1),
        "poly": (poly_terms(P), P),
    }[kind]
    w0 = mp.mpc("-0.1", "0.9")
    got = reg_terms(f_delta, terms, w0, ctx)
    want = quad_ray(lambda w: _sum_q_series(f_delta, w, ctx) * written(w), w0, ctx)
    assert abs(got - want) <= ctx.tol_tight * abs(want)


FOLD_Z = mp.mpc("0.3", "1.2")
FOLD_KERNELS = {
    "plus": plus_terms(FOLD_Z),
    "sz": sz_terms(FOLD_Z),
    "s=0": ((0, 0, 1),),
    "s<0": poly_terms(PolynomialC.from_coeffs([0, mp.mpc(0, 2), 0, -3], 10)),
}
FOLD_BASES = {"i": mp.mpc(0, 1), "-conj z": -mp.conj(FOLD_Z), "S-image": -1 / mp.mpc("0.2", "1.1")}


def assert_folded_matches_unfolded(series, ctx, kernel_terms, w0):
    # ray_sum folds each term to c_n q0^n (w0+a)^(1-s) / f_n, each continued
    # fraction stopped at its share of the error budget; the unfolded sum
    # takes each term over the whole window from mpmath's incomplete gamma
    # (oracles.ray_term), which shares no code with the fraction, 10 digits
    # past the working precision.  The certified error returned covers the
    # difference, and the budget keeps it 10^5 below the digits claimed
    with mp.workdps(ctx.work_dps):
        for a, s, scale in kernel_terms:
            got, log_err = ray_sum(series, w0, a, s, ctx, scale)
            terms = [scale * series.coeff(n) * ray_term(n, w0, a, s, ctx.work_dps + 10) for n in range(1, series.n_max + 1)]
            want = mp.fsum(terms)
            assert abs(got - want) <= mp.mpf(10) ** -ctx.digits * abs(want), (w0, a, s)
            assert abs(got - want) <= mp.exp(log_err) + ctx.eps() * mp.fsum(map(abs, terms)), (w0, a, s)
            assert mp.exp(log_err) <= mp.mpf(10) ** -(ctx.digits + 5) * (1 + abs(want)), (w0, a, s)


@pytest.mark.parametrize("base", sorted(FOLD_BASES))
@pytest.mark.parametrize("kind", sorted(FOLD_KERNELS))
def test_folded_ray_sum_vs_unfolded(ctx, f_delta, kind, base):
    assert_folded_matches_unfolded(f_delta, ctx, FOLD_KERNELS[kind], FOLD_BASES[base])


@pytest.mark.parametrize("base", sorted(FOLD_BASES))
@pytest.mark.parametrize("kind", sorted(FOLD_KERNELS))
@pytest.mark.parametrize("form, digits", [("delta", 80), ("wh-10", 50), ("wh-10", 80)])
def test_folded_ray_sum_vs_unfolded_budget(f_delta, f_wh, form, digits, kind, base):
    # the budget's other cases: more digits, and wh-10, whose n >= 1
    # coefficients grow like e^(4 pi sqrt(2n)), so its largest term is far
    # from n = 1 and the terms below it span many orders of magnitude
    series = f_delta if form == "delta" else f_wh
    assert_folded_matches_unfolded(series, PrecisionContext(digits=digits), FOLD_KERNELS[kind], FOLD_BASES[base])


CUSP26_Z = mp.mpc("0.3", "0.6")
CUSP26_KERNELS = (
    plus_terms(CUSP26_Z, 26)
    + sz_terms(CUSP26_Z, 26)
    + poly_terms(PolynomialC.from_coeffs([1, 0, mp.mpc(0, 2), 0, -3, 0, mp.mpc(1, -1)], 24))
)


@pytest.mark.parametrize("base", ["-conj z", "-0.2+0.5i"])
@pytest.mark.parametrize("digits", [50, 80, 100])
def test_folded_ray_sum_vs_unfolded_order_minus_25(digits, base):
    # F(cusp26)'s series against the kernels of weight 26 (order 1 - s = -25)
    # and a polynomial of degree 6 (order 7): the first terms have
    # |x_n| <= |1 - s| + 1, where Gamma(1 - s, x) itself leaves the fraction,
    # and take it in ray_sum all the same.  Both bases keep Im w0 at the
    # reduction height or above, where the certified window holds
    ctx = PrecisionContext(digits=digits)
    series = eichler_integral(certified_cusp_form(26, ctx), ctx).series
    w0 = -mp.conj(CUSP26_Z) if base == "-conj z" else mp.mpc("-0.2", "0.5")
    assert mp.im(w0) >= REDUCTION_HEIGHT
    assert_folded_matches_unfolded(series, ctx, CUSP26_KERNELS, w0)


def test_ray_sum_takes_no_incomplete_gamma(ctx, f_delta, monkeypatch):
    # |x_1| = 2 pi |i + 0.1 + 0.6i| ~ 10.1 <= |1 - 12| + 1, so Gamma(-11, x_1)
    # is off upper_incomplete_gamma's fraction branch; ray_sum's first term
    # runs the fraction anyway and never calls upper_incomplete_gamma, under
    # any module's binding of it
    import sys

    from periodlab.special import _on_fraction, upper_incomplete_gamma

    w0, a = mp.mpc(0, 1), mp.mpc("0.1", "0.6")
    assert not _on_fraction(-11, abs(2 * mp.pi * (w0 + a)))
    with mp.workdps(ctx.work_dps):
        want = mp.fsum(f_delta.coeff(n) * ray_term(n, w0, a, 12, ctx.work_dps + 10) for n in range(1, f_delta.n_max + 1))

    def refuse(*args, **kwargs):
        raise AssertionError("ray_sum called upper_incomplete_gamma")

    for name, module in list(sys.modules.items()):
        if (name == "periodlab" or name.startswith("periodlab.")) and getattr(module, "upper_incomplete_gamma", None) is upper_incomplete_gamma:
            monkeypatch.setattr(module, "upper_incomplete_gamma", refuse)
    with mp.workdps(ctx.work_dps):
        got, _ = ray_sum(f_delta, w0, a, 12, ctx)
    assert abs(got - want) <= mp.mpf(10) ** -ctx.digits * abs(want)


@pytest.mark.parametrize("a", [mp.mpc("0.3", "1.5"), mp.mpc("0.1", "0.6")])
def test_ray_sum_work_does_not_grow_with_length(f_delta, monkeypatch, a):
    # per term, a folded ray sum runs only the continued fraction: the
    # exponentials and complex powers it takes are the same for 50 and 100
    # digits, though the longer sum runs more fractions (at a = 0.1 + 0.6i
    # the term n = 1 has |x| <= 12, and runs the fraction too)
    import periodlab.regint as regint

    counts = {"exp": 0, "pow": 0, "fraction": 0}
    exp, mpc_pow, fraction = mp.exp, mp.mpc.__pow__, regint._legendre_fraction

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mp, "exp", counted("exp", exp))
    monkeypatch.setattr(mp.mpc, "__pow__", counted("pow", mpc_pow))
    monkeypatch.setattr(regint, "_legendre_fraction", counted("fraction", fraction))
    seen = []
    for digits in (50, 100):
        ctx = PrecisionContext(digits=digits)
        counts.update(exp=0, pow=0, fraction=0)
        with mp.workdps(ctx.work_dps):
            ray_sum(f_delta, mp.mpc(0, 1), a, 12, ctx)
        seen.append(dict(counts))
    assert seen[1]["fraction"] > seen[0]["fraction"] > 0
    assert seen[0]["exp"] == seen[1]["exp"] and seen[0]["pow"] == seen[1]["pow"]


JET_POINTS = (mp.mpc("0.3", "0.6"), mp.mpc("0.15", "0.9"))


@pytest.mark.parametrize("digits", [50, 80])
@pytest.mark.parametrize("form", ["delta", "cusp16", "wh-10"])
def test_ray_sum_jet_vs_direct_stencil(form, digits):
    # hatstar's xi stencil takes each rstar leg's ray sum from one jet at z:
    # the sums at orders k..k+J in one pass, Taylor-summed to the four
    # stencil points.  A jet is holomorphic in the shift by construction, so
    # this comparison with direct sums at the stencil points is what keeps
    # wk2_xi_image and perstar_xi_holomorphy checking how the direct sums
    # move with the shift.  Each order of the jet also meets its own direct
    # sum, and the whole stencil evaluator meets hat_star at the four points,
    # each relative to max(1, |value|) as every residual is: a sum far below
    # 1 is certified to 10^-(digits+8) absolute.
    # The leg from S z0 has |x_1| < k + J, so its first term takes a fraction
    # per order while the others recur down from the top order
    from periodlab.cli import WH10_TERMS, holomorphic_form

    ctx = PrecisionContext(digits=digits)
    if form == "wh-10":
        M, cocycle = weakly_holomorphic_m10(WH10_TERMS), None
    else:
        f = holomorphic_form(form, ctx)
        M, cocycle = eichler_integral(f, ctx).series, period_polynomial(f, ctx)
    k, z0 = 2 - M.weight, mp.mpc(0, SPLIT_HEIGHT)
    bound = mp.mpf(10) ** -(digits + 5)
    with mp.workdps(ctx.work_dps):
        h = ctx.fd_step
        for z in JET_POINTS:
            points = [z + h, z - h, z + 1j * h, z - 1j * h]
            for w0, shift in ((z0, lambda w: -1 / w), (S.apply(z0), lambda w: w)):
                a = shift(z)
                deltas = [shift(w) - a for w in points]
                J = series_order(float(max(map(abs, deltas)) / abs(w0 + a)), k, log2_eps(ctx))
                jet = ray_sum(M, w0, a, k, ctx, J=J)
                assert J >= 3 and len(jet) == J + 1
                for j, (value, log_err) in enumerate(jet):
                    direct, direct_err = ray_sum(M, w0, a, k + j, ctx)
                    assert abs(value - direct) <= bound * residual_scale(direct), (z, j)
                    assert log_err <= direct_err + 1, (z, j)
                for w, d in zip(points, deltas):
                    taylor = mp.fsum((-d) ** j * mp.rf(k, j) / mp.factorial(j) * value for j, (value, _) in enumerate(jet))
                    direct = ray_sum(M, w0, shift(w), k, ctx)[0]
                    assert abs(taylor - direct) <= bound * residual_scale(direct), (z, w)
            for w, got in zip(points, _hat_stencil(M, z, ctx, cocycle)(points)):
                want = hat_star(M, w, ctx, cocycle)
                assert abs(got - want) <= bound * residual_scale(want), (z, w)


def principal_oracle(M, w0, a, s):
    """The principal and constant terms of M against (w + a)^(-s) from w0, by integration by parts from mpmath's E1 (``ibp_oracle``)."""
    total = mp.mpc(0)
    for n in range(M.n_min, 1):
        if M.coeff(n):
            term = ibp_oracle(n, w0, a, s) if n else (w0 + a) ** (1 - s) / (s - 1)
            total += mp.mpc(M.coeff(n)) * term
    return total


@pytest.mark.parametrize("digits", [50, 80])
def test_principal_jet_vs_direct_stencil(f_wh, digits):
    # each rstar leg of hatstar's xi stencil takes its principal terms, like
    # its decaying part, from one jet at z: one series per principal term
    # and stencil, and the recurrence x G_sigma = 1 - sigma G_(sigma+1) to the
    # other orders.  Each order of that jet meets the principal terms summed
    # by integration by parts from mpmath's E1, which carries the sheet's
    # monodromy on its own, and the principal-plus-decaying jet,
    # Taylor-summed to the four stencil points, meets _principal_part +
    # ray_sum at each point, each relative to max(1, |value|)
    from periodlab.regint import _principal_part

    ctx = PrecisionContext(digits=digits)
    k, z0 = 2 - f_wh.weight, mp.mpc(0, SPLIT_HEIGHT)
    bound = mp.mpf(10) ** -(digits + 5)
    with mp.workdps(ctx.work_dps):
        h = ctx.fd_step
        for z in JET_POINTS:
            points = [z + h, z - h, z + 1j * h, z - 1j * h]
            for w0, shift in ((z0, lambda w: -1 / w), (S.apply(z0), lambda w: w)):
                a = shift(z)
                deltas = [shift(w) - a for w in points]
                J = series_order(float(max(map(abs, deltas)) / abs(w0 + a)), k, log2_eps(ctx))
                principal = _principal_part(f_wh, w0, a, k, ctx, J=J)
                assert J >= 3 and len(principal) == J + 1
                for j, value in enumerate(principal):
                    with mp.workdps(2 * ctx.work_dps):
                        want = principal_oracle(f_wh, w0, a, k + j)
                    assert abs(value - want) <= bound * residual_scale(want), (z, j)
                jet = [p + v for p, (v, _) in zip(principal, ray_sum(f_wh, w0, a, k, ctx, J=J))]
                for w, d in zip(points, deltas):
                    taylor = mp.fsum((-d) ** j * mp.rf(k, j) / mp.factorial(j) * value for j, value in enumerate(jet))
                    direct = _principal_part(f_wh, w0, shift(w), k, ctx) + ray_sum(f_wh, w0, shift(w), k, ctx)[0]
                    assert abs(taylor - direct) <= bound * residual_scale(direct), (z, w)


def test_ray_sum_jet_takes_one_fraction_per_term(f_wh, monkeypatch):
    # each term of a jet takes one continued fraction, at the least order
    # sigma* >= |x_n|, and recurs to the others: the jet runs as many
    # fractions as the single sum at the same (w0, a, s), one per term.  The
    # leg from S z0 has terms with |x_n| < k + J, which once took a fraction
    # per order
    import periodlab.regint as regint

    ctx = PrecisionContext(digits=50)
    calls = [0]
    fraction = regint._legendre_fraction

    def counted(*args):
        calls[0] += 1
        return fraction(*args)

    monkeypatch.setattr(regint, "_legendre_fraction", counted)
    k, z0 = 2 - f_wh.weight, mp.mpc(0, SPLIT_HEIGHT)
    with mp.workdps(ctx.work_dps):
        for z in JET_POINTS:
            for w0, a in ((z0, -1 / z), (S.apply(z0), z)):
                counts = []
                for J in (0, 4):
                    calls[0] = 0
                    ray_sum(f_wh, w0, a, k, ctx, J=J)
                    counts.append(calls[0])
                assert counts[0] == counts[1] > 0, (z, w0)


def test_per_star_principal_terms_take_one_series_each(monkeypatch):
    # verify perstar at digits 50: 3 points, each with 10 rstar legs (four
    # for Fstar at z and S z, six for hatstar at S z, U z and U^2 z, and one
    # jet for each of the xi stencil's two legs, whose sum at z is hatstar(z))
    # and two principal terms per leg, so 60 series of Gamma(-N, x); hatstar(z)
    # once took two legs of its own, 72 in all, and the stencil once took
    # them at each of its four points, 108 in all.  No principal
    # term reaches mpmath's E1 or the upper_incomplete_gamma wrapper, under
    # any module's binding
    import sys

    from periodlab.cli import WH10_TERMS, _grid
    from periodlab.special import _negint_series, upper_incomplete_gamma

    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return _negint_series(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a principal term called E1 or upper_incomplete_gamma")

    for name, module in list(sys.modules.items()):
        if name == "periodlab" or name.startswith("periodlab."):
            for key, value in list(vars(module).items()):
                if value is _negint_series:
                    monkeypatch.setattr(module, key, counted)
                elif value is upper_incomplete_gamma:
                    monkeypatch.setattr(module, key, refuse)
    monkeypatch.setattr(mp, "e1", refuse)
    ctx = PrecisionContext(digits=50)
    reports = verify_per_star(weakly_holomorphic_m10(WH10_TERMS), _grid(3, "0.15", "0.4", "0.9", "0.5"), ctx)
    assert all(r.passed for r in reports)
    assert calls[0] == 60


@pytest.mark.parametrize("s", [0, 12])
@pytest.mark.parametrize("digits", [50, 80])
def test_ray_sum_error_covers_the_fractions(monkeypatch, digits, s):
    # each continued fraction stops within 4 2^tol relative
    # (_legendre_fraction), so the certified error must cover every 1/f_n
    # moved by 3.9 2^tol at once.  At w0 = i, a = 0 each x_n = 2 pi n is
    # real and the coefficients of F[delta] share one phase, so a sign per
    # term puts every move in phase.  The scale 10^6 lifts the sum to about
    # 1: the tail is certified to eps absolute, and on a sum of 1e-6 it would
    # hide the fractions' share.  Counting 2^tol per term, 4 times too
    # little, the moved sum left that error by 1.1 to 2 times
    import periodlab.regint as regint
    from periodlab.cli import holomorphic_form

    ctx = PrecisionContext(digits=digits)
    F = eichler_integral(holomorphic_form("delta", ctx), ctx).series
    fraction = regint._legendre_fraction

    def moved(order, X, P, log2_tol):
        Br, Bi, eB, Ar, Ai, eA, steps = fraction(order, X, P, log2_tol)
        assert X[1] == Bi == Ai == 0
        n = round(X[0] / (2 * math.pi * 2.0 ** P))
        along = F.coeff(n) * mp.conj(F.coeff(1))
        assert along.imag == 0
        sign = 1 if (along.real > 0) == ((Br > 0) == (Ar > 0)) else -1
        with mp.workprec(2 * P):
            Br += sign * int(mp.mpf(Br) * mp.mpf(3.9) * mp.mpf(2) ** log2_tol)
        return Br, Bi, eB, Ar, Ai, eA, steps

    w0, scale = mp.mpc(0, 1), 10 ** 6
    with mp.workdps(ctx.work_dps):
        want, log_err = ray_sum(F, w0, 0, s, ctx, scale)
        monkeypatch.setattr(regint, "_legendre_fraction", moved)
        got, _ = ray_sum(F, w0, 0, s, ctx, scale)
    # the moves fill more than a quarter of the error, so the old count fails
    assert mp.exp(log_err) / 4 < abs(got - want) <= mp.exp(log_err)


@pytest.mark.parametrize("digits, most", [(50, 21400), (80, 51800)])
def test_superm_ray_sums_stop_at_their_budget(monkeypatch, digits, most):
    # the 40 ray sums of `verify superm --form delta`, run once with each
    # fraction at its share of the error budget and once with every fraction
    # at the full eps: the budget saves more than 30% of the steps.  The
    # budgeted run takes 19,771 steps at digits 50 and 47,914 at 80, the
    # full-eps run 31,090 and 76,062: the depths the float pass fixes for
    # the backward pass (a fixed-point forward pass took 19,805 and 47,941)
    import sys

    import periodlab.regint as regint
    from periodlab.cli import _grid, holomorphic_form
    from periodlab.special import _legendre_fraction

    ctx = PrecisionContext(digits=digits)
    log2_eps = float(mp.mag(ctx.eps()) - 1)
    work = {"steps": 0, "sums": 0, "full_eps": False}

    def counted(s, x, P, log2_tol):
        got = _legendre_fraction(s, x, P, log2_eps if work["full_eps"] else log2_tol)
        work["steps"] += got[-1]
        return got

    def summed(*args, **kwargs):
        work["sums"] += 1
        return ray_sum(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "periodlab" or name.startswith("periodlab."):
            for key, value in list(vars(module).items()):
                if value is _legendre_fraction:
                    monkeypatch.setattr(module, key, counted)
    monkeypatch.setattr(regint, "ray_sum", summed)
    steps = []
    for full_eps in (False, True):
        work.update(steps=0, sums=0, full_eps=full_eps)
        report = verify_superm(holomorphic_form("delta", ctx), _grid(10, "0.1", "0.8", "0.6", "1.8"), ctx)
        assert report.passed and work["sums"] == 40
        steps.append(work["steps"])
    budgeted, full = steps
    assert 0 < budgeted <= most
    assert budgeted <= 0.7 * full


def test_short_window_raises(ctx):
    # wh-10's coefficients grow like e^(4 pi sqrt(2n)): 20 terms cannot
    # certify 50 digits at height 1.2
    z = mp.mpc("0.3", "1.2")
    with pytest.raises(TailTooLarge):
        reg_integral_to_icusp(weakly_holomorphic_m10(20), -mp.conj(z), z, 12, ctx)


def test_ray_sum_needs_positive_height(ctx, f_delta):
    with pytest.raises(DomainError):
        reg_integral_to_icusp(f_delta, mp.mpc(0, 1), mp.mpc("0.3", -2), 12, ctx)
    with pytest.raises(DomainError):
        ray_sum(f_delta, mp.mpc("0.3", 1), mp.mpc(0, -1), 12, ctx)


def test_principal_term_vs_slant_contour(ctx):
    for (n, w0, z) in ((-1, mp.mpc(0, 2), mp.mpc("0.3", "1.2")), (-2, mp.mpc("0.4", 1), mp.mpc("0.1", "0.9"))):
        got = reg_integral_to_icusp(one_term_series(n), w0, z, 12, ctx)
        oracle = slant_oracle(n, w0, z, 12)
        assert abs(got - oracle) <= mp.mpf("1e-40") * (1 + abs(got))


def test_principal_term_vs_ibp_closed_form(ctx):
    # the worked single-term example: e^(-2 pi i w) against 1/(w + i)^12, z0 = i
    n, w0, z, k = -1, mp.mpc(0, 1), mp.mpc(0, 1), 12
    got = reg_integral_to_icusp(one_term_series(n), w0, z, k, ctx)
    want = ibp_oracle(n, w0, z, k)
    assert abs(got - want) <= mp.mpf("1e-50") * (1 + abs(got))
    # and at a generic point
    n, w0, z = -2, mp.mpc("0.3", "1.5"), mp.mpc("0.2", "0.8")
    got = reg_integral_to_icusp(one_term_series(n), w0, z, 12, ctx)
    want = ibp_oracle(n, w0, z, 12)
    assert abs(got - want) <= mp.mpf("1e-50") * (1 + abs(got))


def test_e1_continued_branches(ctx):
    # s = 1, n = -1, a = 0: the term is Gamma(0, x) = E1(x) at x = 2 pi i w0,
    # continued with arg x in (0, 2 pi): the upper edge of the negative real
    # axis, the principal branch above it and one turn on below it
    e1 = lambda x: reg_integral_to_icusp(one_term_series(-1), x / (2j * mp.pi), 0, 1, ctx)
    with mp.workdps(ctx.work_dps):
        assert abs(e1(mp.mpc(-4, 0)) - (-mp.ei(4) - 1j * mp.pi)) < mp.mpf("1e-60")
        assert abs(e1(mp.mpc(-3, 2)) - mp.e1(mp.mpc(-3, 2))) < mp.mpf("1e-60")
        assert abs(e1(mp.mpc(-3, -2)) - (mp.e1(mp.mpc(-3, -2)) - 2j * mp.pi)) < mp.mpf("1e-60")


def test_reg_linearity(ctx):
    z = mp.mpc("0.2", "1.1")
    w0 = -mp.conj(z)
    e1 = one_term_series(-1, 2)
    e2 = one_term_series(-2, mp.mpc(0, 3))
    both = QSeries(-10, n_min=-2, coeffs=(mp.mpc(0, 3), mp.mpc(2)))
    v, v1, v2 = (reg_integral_to_icusp(M, w0, z, 12, ctx) for M in (both, e1, e2))
    assert abs(v - (v1 + v2)) <= ctx.tol_tight * (1 + abs(v))


def test_not_regularizable_poly_kernel(ctx):
    P = PolynomialC.from_coeffs([1, 2], 10)
    with pytest.raises(NotRegularizable):
        reg_terms(one_term_series(0), poly_terms(P), mp.mpc(0, 1), ctx)


def test_poly_kernel_negative_index(ctx):
    # e^(2 pi i n w) against a polynomial: entire positive-order gammas
    P = PolynomialC.from_coeffs([1, 0, 2], 10)
    got = reg_terms(one_term_series(-1), poly_terms(P), mp.mpc(0, 1), ctx)
    # slant-contour oracle
    delta = mp.pi / 4
    direc = mp.exp(-1j * delta)
    T = (mp.mp.dps + 8) * mp.log(10) / (2 * mp.pi * mp.sin(delta))
    g = lambda t: mp.exp(-2j * mp.pi * (mp.mpc(0, 1) + t * direc)) * P(mp.mpc(0, 1) + t * direc) * direc
    oracle = mp.quad(g, [0, T / 64, T / 8, T])
    assert abs(got - oracle) <= mp.mpf("1e-40") * (1 + abs(got))


def test_r_star_and_its_s_image_share_no_ray(ctx, f_wh, monkeypatch):
    # rstar(z) and rstar(S z) regularize from four different (base point,
    # shift) pairs, so the sums in rstar|(1+S) do not cancel and
    # perstar_slash_S checks them; split at i, both take the same two pairs
    import periodlab.regint as regint

    calls = []
    reg = regint.reg_integral_to_icusp

    def recording(M, z0, a, s, ctx, scale=1):
        calls.append((mp.mpc(z0), mp.mpc(a)))
        return reg(M, z0, a, s, ctx, scale)

    def pairs(z, **kwargs):
        del calls[:]
        regint.r_star(f_wh, z, ctx, **kwargs)
        assert len(calls) == 2
        return list(calls)

    monkeypatch.setattr(regint, "reg_integral_to_icusp", recording)
    close = lambda p, q: abs(p[0] - q[0]) + abs(p[1] - q[1]) <= mp.mpf("1e-10")
    for z in (mp.mpc("0.3", "1.3"), mp.mpc("0.15", "0.9"), mp.mpc("0.55", "1.4")):
        at_z, at_sz = pairs(z), pairs(S.apply(z))
        assert not any(close(p, q) for p in at_z for q in at_sz), z
        at_z, at_sz = pairs(z, z0=1j), pairs(S.apply(z), z0=1j)
        assert all(any(close(p, q) for q in at_sz) for p in at_z), z


def test_cusp_to_cusp_z0_independence(ctx, f_wh):
    # rstar = R.int_0^{i oo} M(w) (wz-1)^(-k) dw does not depend on the base
    # point z0 at which r_star splits its path
    z = mp.mpc("0.3", "1.3")
    rng = random.Random(29)
    vals = [r_star(f_wh, z, ctx)]
    for _ in range(4):
        z0 = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        vals.append(r_star(f_wh, z, ctx, z0=z0))
    for v in vals[1:]:
        assert abs(v - vals[0]) <= mp.mpf("1e-15") * (1 + abs(vals[0]))


@pytest.mark.parametrize("form", ["f_delta", "f_cusp16"])
def test_r_star_of_eichler_series_is_r2(ctx, form, request):
    # r2 = int_0^{i oo} F(w) (wz-1)^(-k) dw is rstar of F's series with its
    # cocycle F|(1-S) = r, for any base point on the imaginary axis
    f = request.getfixturevalue(form)
    b, r = eichler_integral(f, ctx).series, period_polynomial(f, ctx)
    z = mp.mpc("0.2", "0.9")
    want = r2_quadrature(f, z, ctx)
    for t in (mp.mpf("0.8"), 1, mp.mpf(5) / 4):
        got = r_star(b, z, ctx, cocycle=r, z0=mp.mpc(0, t))
        assert abs(got - want) <= ctx.tol_tight * residual_scale(want), t


@pytest.mark.parametrize("digits", [50, 80])
def test_period_relations_on_the_real_axis(f_wh, digits):
    # the split reaches the real axis: wh-10's rstar|(1+S) and
    # rstar|(1+U+U^2) vanish there, and delta's r2 meets its two mock
    # relations; at the cusp wh-10's constant term meets a constant kernel
    ctx = PrecisionContext(digits=digits)
    xs = [mp.mpf(x) for x in ("0.5", "-3", "2", "-0.25")]
    rstar = lambda w: r_star(f_wh, w, ctx)
    for x in xs:
        h = rstar(x)
        for rel in period_relations(rstar, h, 12, x):
            assert abs(rel) <= ctx.tol_tight * residual_scale(h), x
    for rep in verify_mock_es(delta(120), xs, ctx):
        assert rep.passed, rep.identity
    with pytest.raises(NotRegularizable):
        r_star(f_wh, 0, ctx)


def test_wrong_cocycle_raises(ctx, f_delta, f_wh):
    b, r = eichler_integral(f_delta, ctx).series, period_polynomial(f_delta, ctx)
    z = mp.mpc("0.3", "1.2")
    for cocycle in (None, PolynomialC.from_coeffs([2 * c for c in r.coeffs], r.degree_bound)):
        with pytest.raises(DomainError):
            r_star(b, z, ctx, cocycle=cocycle)
    with pytest.raises(DomainError):
        r_star(f_wh, z, ctx, cocycle=r)
    with pytest.raises(DomainError):
        r_star(f_wh, z, ctx, z0=mp.mpc(1, 0))


def test_starred_tildestar_with_cocycle(ctx, f_delta):
    # for the Eichler integral's series the cocycle is Q = r = F|(1-S):
    # tildestar = Q.kernel_integral(k, z, -conj z) integrates r against
    # (w+z)^(-k) exactly, checked here by quadrature on the ray w = -x + it
    # from -conj z, where w + z = i(t + y)
    Q = period_polynomial(f_delta, ctx)
    z = mp.mpc("0.3", "1.2")
    with mp.workdps(ctx.work_dps):
        tildestar = Q.kernel_integral(12, z, -mp.conj(z))
        x, y = mp.re(z), mp.im(z)
        want = mp.quad(lambda t: Q(mp.mpc(-x, t)) * mp.mpc(0, t + y) ** (-12) * 1j, [y, mp.inf])
    assert tildestar != 0
    assert abs(tildestar - want) <= ctx.tol_tight * (1 + abs(want))


def test_modularity_spot_check_runs_once_per_context(f_wh, monkeypatch):
    # a pass is memoized on the series per context and cocycle; a failure
    # raises every time
    from dataclasses import replace

    import periodlab.regint as regint
    from periodlab.regint import _cocycle_spot_check

    calls = [0]
    evaluate = regint.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(regint, "evaluate", counted)
    M = replace(f_wh)
    ctx50, ctx60 = PrecisionContext(digits=50), PrecisionContext(digits=60)
    for _ in range(3):
        _cocycle_spot_check(M, None, ctx50)
    assert calls[0] == 2
    _cocycle_spot_check(M, None, ctx60)
    _cocycle_spot_check(M, None, ctx60)
    assert calls[0] == 4
    # one principal-part coefficient off: not modular
    bad = replace(M, coeffs=(M.coeffs[0], M.coeffs[1] + 1) + M.coeffs[2:])
    for n in (1, 2):
        with pytest.raises(DomainError):
            _cocycle_spot_check(bad, None, ctx50)
        assert calls[0] == 4 + 2 * n


def test_cocycle_memo_shared_by_equal_polynomials(ctx, f_delta, monkeypatch):
    # a polynomial is hashed once, at construction: equal cocycles built
    # apart hash equal and share one memo entry, and a different one raises
    from dataclasses import replace

    import periodlab.regint as regint
    from periodlab.regint import _cocycle_spot_check

    calls = [0]
    evaluate = regint.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(regint, "evaluate", counted)
    M = replace(eichler_integral(f_delta, ctx).series)
    r = period_polynomial(f_delta, ctx)
    again = PolynomialC.from_coeffs(list(r.coeffs), r.degree_bound)
    assert again is not r and again == r and hash(again) == hash(r)
    _cocycle_spot_check(M, r, ctx)
    _cocycle_spot_check(M, again, ctx)
    assert calls[0] == 2
    with pytest.raises(DomainError):
        _cocycle_spot_check(M, PolynomialC.from_coeffs([2 * c for c in r.coeffs], r.degree_bound), ctx)


def test_starred_zero_input(ctx, f_wh):
    zero = f_wh.scale(0)
    assert f_star(zero, mp.mpc(0, 1), ctx) == 0 and r_star(zero, mp.mpc(0, 1), ctx) == 0


def test_starred_xi_holomorphy(ctx, f_wh):
    z = mp.mpc("0.25", "1.1")
    hat = lambda w: r_star(f_wh, w, ctx)  # modular input: no cocycle, so hatstar = rstar
    v = xi_fd(hat, 12, z, ctx)
    scale = max(1, abs(hat(z)))
    assert abs(v) <= ctx.tol_fd * scale


def test_elementary_third_term(ctx):
    # F(z) = int_{-conj z}^{i oo} (w+z)^(-k) dw = (2iy)^(1-k)/(k-1),
    # xi(F) = (2i)^(1-k)
    k = 12
    F = lambda z: (2j * mp.im(z)) ** (1 - k) / (k - 1)
    for z in (mp.mpc("0.3", "1.2"), mp.mpc(0, 1)):
        got = reg_integral_to_icusp(one_term_series(0), -mp.conj(z), z, k, ctx)
        assert abs(got - F(z)) <= ctx.tol_tight * (1 + abs(got))
        xv = xi_fd(F, k, z, ctx)
        assert abs(xv - (2j) ** (1 - k)) <= ctx.tol_fd


def test_per_star_verifier(ctx, f_wh):
    reps = verify_per_star(f_wh, [mp.mpc("0.3", "1.3")], ctx)
    assert len(reps) == 4
    for r in reps:
        assert r.passed, r.summary_line()


def test_per_star_takes_fstar_twice_per_point(ctx, f_wh, monkeypatch):
    # Fstar enters only perstar_eq, at z and S z; the hat relations take
    # hatstar, directly and through its xi stencil, both stubbed out here
    import periodlab.regint as regint

    calls = [0]
    f_star = regint.f_star

    def counted(*args, **kwargs):
        calls[0] += 1
        return f_star(*args, **kwargs)

    monkeypatch.setattr(regint, "f_star", counted)
    monkeypatch.setattr(regint, "hat_star", lambda *args, **kwargs: mp.mpc(0))
    monkeypatch.setattr(regint, "_hat_stencil", lambda *args: lambda points: [mp.mpc(0)] * len(points))
    verify_per_star(f_wh, [mp.mpc("0.3", "1.3"), mp.mpc("0.45", "1.1")], ctx)
    assert calls[0] == 4


def test_per_star_zero(ctx, f_wh):
    reps = verify_per_star(f_wh.scale(0), [mp.mpc(0, 1)], ctx)
    for r in reps:
        assert r.max_residual == 0


@pytest.mark.parametrize("digits", [50, 80])
def test_star_stencil_vs_separate_f_star(digits):
    # Fstar's xi stencil takes the four points' ray sums from one pass, each
    # point a base point -conj w of (-conj z, z) with the twist e^(-+2 pi i n h)
    # or e^(-+2 pi n h) and, off the real line, an a-jet; each value meets a
    # separate f_star call within that call's certified error
    ctx = PrecisionContext(digits=digits)
    f = certified_cusp_form(12, ctx)
    M = eichler_integral(f, ctx).series
    k = 2 - M.weight
    with mp.workdps(ctx.work_dps):
        h = ctx.fd_step
        for z in (mp.mpc("0.1", "0.6"), mp.mpc("0.5", "1.5"), mp.mpc("0.9", "2.4")):
            points = [z + h, z - h, z + 1j * h, z - 1j * h]
            for w, got in zip(points, _star_stencil(M, z, ctx)(points)):
                want = f_star(M, w, ctx)
                _, log_err = ray_sum(M, -mp.conj(w), w, k, ctx)
                assert abs(got - want) <= mp.exp(log_err), (z, w)


@pytest.mark.parametrize("form", ["wh-10", "delta"])
@pytest.mark.parametrize("digits", [50, 80])
def test_hat_stencil_sum_at_z_meets_hat_star(form, digits):
    # perstar takes hatstar(z) from the xi stencil's jets at delta = 0, with
    # the same cocycle integral, in place of a second sum of its two legs; on
    # wh-10, and with a cocycle on delta, it meets hat_star(M, z) within the
    # certified errors of both routes' legs: the J = 0 sums and the jets'
    # order-s entries
    ctx = PrecisionContext(digits=digits)
    if form == "wh-10":
        M, cocycle = weakly_holomorphic_m10(170), None
    else:
        f = certified_cusp_form(12, ctx)
        M, cocycle = eichler_integral(f, ctx).series, period_polynomial(f, ctx)
    k, z0 = 2 - M.weight, mp.mpc(0, SPLIT_HEIGHT)
    with mp.workdps(ctx.work_dps):
        for z in (mp.mpc("0.15", "0.9"), mp.mpc("0.35", "1.15"), mp.mpc("0.55", "1.4")):
            h, *_ = hat_relation_residuals(M, z, None, ctx, cocycle)
            want = hat_star(M, z, ctx, cocycle)
            step = ctx.fd_step
            points = [z + step, z - step, z + 1j * step, z - 1j * step]
            err = ctx.eps() * abs(want)
            for w0, a, scale, deltas in ((z0, -1 / z, z ** (-k), [(w - z) / (z * w) for w in points]),
                                         (S.apply(z0), z, 1, [w - z for w in points])):
                J = series_order(float(max(map(abs, deltas)) / abs(w0 + a)), k, log2_eps(ctx))
                err += mp.exp(ray_sum(M, w0, a, k, ctx, scale)[1]) + abs(scale) * mp.exp(ray_sum(M, w0, a, k, ctx, J=J)[0][1])
            assert abs(h - want) <= err, z
