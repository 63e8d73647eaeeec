"""q-series constructors, evaluation, Bol operator."""

import gc
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodlab import (
    DomainError,
    PrecisionContext,
    QSeries,
    TailTooLarge,
    UnsupportedWeight,
    bol,
    conjugate_form,
    cusp_form,
    delta,
    eisenstein,
    evaluate,
    reg_integral_to_icusp,
    residual_scale,
    weakly_holomorphic_m10,
)
from periodlab import qforms
from periodlab.eichler import GroupElement, S, T, eichler_integral
from periodlab.qforms import DIM_ONE_WEIGHTS, certified_cusp_form
from periodlab.qforms import _certified_length, _check_tail, _coeff_model, _sum_q_series, _to_mpc


def sigma(n, p):
    return sum(d ** p for d in range(1, n + 1) if n % d == 0)


def test_eisenstein_coefficients():
    e4 = eisenstein(4, 16)
    assert e4.coeff(0) == 1
    assert e4.coeff(1) == 240 == 240 * sigma(1, 3)
    assert e4.coeff(2) == 2160 == 240 * sigma(2, 3)
    e6 = eisenstein(6, 16)
    assert e6.coeff(1) == -504
    for k in (8, 10, 14):
        assert eisenstein(k, 16).coeff(0) == 1
    with pytest.raises(UnsupportedWeight):
        eisenstein(3, 16)


def test_delta_tau_values():
    d = delta(32)
    assert d.coeff(1) == 1
    assert d.coeff(2) == -24
    assert d.coeff(3) == 252
    assert d.cuspidal and d.modular and d.weight == 12


def test_ramanujan_congruence():
    d = delta(24)
    for n in range(1, 21):
        assert (int(d.coeff(n)) - sigma(n, 11)) % 691 == 0


def test_cusp_form_spaces():
    c12 = cusp_form(12, 24)
    assert c12.coeffs == delta(24).coeffs
    c16 = cusp_form(16, 24)
    assert c16.coeff(1) == 1
    # a(2) fixed by the convolution of delta with E4
    want = delta(24).coeff(2) + 240 * delta(24).coeff(1)
    assert c16.coeff(2) == want
    assert cusp_form(26, 24).coeff(1) == 1
    with pytest.raises(UnsupportedWeight):
        cusp_form(24, 24)
    with pytest.raises(UnsupportedWeight):
        cusp_form(14, 24)


def test_hecke_multiplicativity():
    for k in (12, 16):
        f = cusp_form(k, 24)
        assert f.coeff(2) * f.coeff(3) == f.coeff(6)


def test_weakly_holomorphic_m10():
    M = weakly_holomorphic_m10(40)
    assert M.weight == -10 and M.n_min == -2
    assert M.coeff(-2) == 1
    # principal part from exact series division
    assert M.coeff(-1) == 24
    assert M.coeff(0) == -196560


def times(a, b, n):
    """Cauchy product of two coefficient sequences from q^0, to q^n."""
    return [sum(a[i] * b[m - i] for i in range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1)) for m in range(n + 1)]


def delta_oracle(N):
    """Delta = (E4^3 - E6^2)/1728 on q^1..q^N, each division checked exact."""
    e4, e6 = eisenstein(4, N).coeffs, eisenstein(6, N).coeffs
    num = [x - y for x, y in zip(times(times(e4, e4, N), e4, N), times(e6, e6, N))]
    assert num[0] == 0 and all(c % 1728 == 0 for c in num)
    return QSeries(12, 1, tuple(c // 1728 for c in num[1:]), (2.0, 6.0), True, "delta")


def cusp_oracle(k, N):
    """Delta E_(k-12) on q^1..q^N, E_(k-12) from its Bernoulli normalisation."""
    if k == 12:
        return delta_oracle(N)
    coeffs = times((0,) + delta_oracle(N).coeffs, eisenstein(k - 12, N).coeffs, N)[1:]
    return QSeries(k, 1, tuple(coeffs), (2.0, k / 2), True, f"cusp{k}")


def wh10_oracle(N):
    """E4^2 E6 / Delta^2 on q^-2..q^N by long division, each division checked exact."""
    e4, e6 = eisenstein(4, N + 2).coeffs, eisenstein(6, N + 2).coeffs
    num = times(times(e4, e4, N + 2), e6, N + 2)
    delta = delta_oracle(N + 4).coeffs
    den = times((0,) + delta, (0,) + delta, N + 4)[2:]  # Delta^2 / q^2
    coeffs = []
    for n in range(N + 3):
        v = num[n] - sum(coeffs[i] * den[n - i] for i in range(n))
        assert v % den[0] == 0
        coeffs.append(v // den[0])
    return QSeries(-10, -2, tuple(coeffs), None, True, "e4sq_e6_over_delta_sq")


@pytest.mark.parametrize("N", [1, 2, 50, 170, 300])
def test_input_forms_match_their_constructions(N):
    # every input form comes from the one builder E4^a E6^b Delta^j; each
    # matches its own construction exactly: coefficients with their types,
    # weight, window, tail bound, modularity and label (repr covers them all)
    assert repr(weakly_holomorphic_m10(N)) == repr(wh10_oracle(N))
    if N < 2:
        return
    assert repr(delta(N)) == repr(delta_oracle(N))
    for k in qforms.DIM_ONE_WEIGHTS:
        assert repr(cusp_form(k, N)) == repr(cusp_oracle(k, N)), k
    assert cusp_form(12, N) is delta(N)


@pytest.mark.parametrize("N", [1, 2, 50, 170])
def test_weakly_holomorphic_m10_times_delta_squared(N):
    # (E4^2 E6 / Delta^2) Delta^2 = E4^2 E6 at every q^m the window reaches
    wh, d = weakly_holomorphic_m10(N), (0,) + delta(N + 4).coeffs
    e4, e6 = eisenstein(4, N + 2).coeffs, eisenstein(6, N + 2).coeffs
    assert times(wh.coeffs, times(d, d, N + 4)[2:], N + 2) == times(times(e4, e4, N + 2), e6, N + 2)


def test_conjugate_form(f_delta):
    assert conjugate_form(f_delta).coeffs == f_delta.coeffs  # real coefficients
    i_delta = f_delta.scale(mp.mpc(0, 1))
    back = conjugate_form(i_delta)
    assert all(abs(a - (-b)) == 0 for a, b in zip(back.coeffs, i_delta.coeffs))
    g = f_delta.scale(3)  # exact Fraction coefficients
    assert conjugate_form(g).coeffs == g.coeffs


@pytest.mark.parametrize("kind", ["exact", "eichler"])
def test_scale_by_fraction(ctx, kind):
    # an exact coefficient times a Fraction stays exact, an mpc coefficient is
    # multiplied by its conversion, and the tail bound's C scales by |c|; the
    # smaller bound may certify a shorter sum, so the values agree relative
    # to max(1, |value|), the scale of the certified tail
    f = delta(50) if kind == "exact" else eichler_integral(delta(50), ctx).series
    third = f.scale(Fraction(1, 3))
    assert third.tail_bound[0] == pytest.approx(f.tail_bound[0] / 3, rel=1e-15)
    assert third.tail_bound[1] == f.tail_bound[1]
    for z in (mp.mpc("0.2", "0.9"), mp.mpc("-0.4", "1.5")):
        want = evaluate(f, z, ctx) / 3
        assert abs(evaluate(third, z, ctx) - want) <= mp.mpf(10) ** -(ctx.digits + 5) * residual_scale(want)


def test_conjugate_form_of_real_series_is_itself(f_delta, f_wh):
    # the same object, so caches keyed on (f, ctx) are shared with f
    assert conjugate_form(f_delta) is f_delta
    assert conjugate_form(f_wh) is f_wh
    assert conjugate_form(f_delta.scale(mp.mpf(3))) is not f_delta
    i_delta = f_delta.scale(mp.mpc(0, 1))
    assert conjugate_form(i_delta) is not i_delta


def test_bol_operator():
    const = QSeries(weight=-10, n_min=0, coeffs=(Fraction(5),))
    assert all(c == 0 for c in bol(const).coeffs)
    q1 = QSeries(weight=-10, n_min=1, coeffs=(Fraction(1),))
    assert bol(q1).coeff(1) == 1
    q2 = QSeries(weight=-10, n_min=2, coeffs=(Fraction(1),))
    assert bol(q2).coeff(2) == 2 ** 11
    assert bol(q2).weight == 12
    with pytest.raises(DomainError):
        bol(bol(q2))  # weight bookkeeping forbids a second application


def test_evaluate_delta_truncation_consistency(ctx):
    z = mp.mpc(0, 1)
    v50 = evaluate(delta(50), z, ctx)
    v200 = evaluate(delta(200), z, ctx)
    assert abs(v50 - v200) < mp.mpf(10) ** (-(ctx.digits - 5))
    assert abs(v50 - mp.mpf("0.0017853698")) < mp.mpf("1e-10")


def test_evaluate_t_invariance(ctx, f_delta):
    z = mp.mpc("0.3", 1)
    assert abs(evaluate(f_delta, z + 1, ctx) - evaluate(f_delta, z, ctx)) < ctx.tol_tight


def test_evaluate_modularity_fallback(ctx, f_delta):
    z = mp.mpc("0.1", "0.2")  # exercises the reduction path
    lhs = evaluate(f_delta, -1 / z, ctx) * z ** mp.mpf(-12)
    assert abs(lhs - evaluate(f_delta, z, ctx)) <= ctx.tol_tight * (1 + abs(lhs))


def test_evaluate_group_invariance(ctx, f_delta):
    rng = random.Random(17)
    base = mp.mpc("0.13", "1.07")
    ref = evaluate(f_delta, base, ctx)
    count = 0
    while count < 20:
        g = GroupElement(1, 0, 0, 1)
        for _ in range(rng.randint(1, 6)):
            step = rng.choice([S, T, T * T, GroupElement(1, -1, 0, 1)])
            g = g * step
        if max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) > 30:
            continue
        count += 1
        gz = g.apply(base)
        val = evaluate(f_delta, gz, ctx) * g.jfactor(base) ** (-12)
        assert abs(val - ref) <= ctx.tol_tight * (1 + abs(ref))


def test_evaluate_wh_modularity(ctx, f_wh):
    z = mp.mpc("0.3", "1.1")
    lhs = evaluate(f_wh, -1 / z, ctx)
    rhs = z ** mp.mpf(-10) * evaluate(f_wh, z, ctx)
    assert abs(lhs - rhs) <= ctx.tol_tight * (1 + abs(lhs))


@pytest.mark.parametrize("digits", [50, 80])
def test_evaluate_meets_its_digits_near_the_cusps(digits):
    # evaluate(f, z) against the same call 30 digits higher, for the six
    # dim-1 forms, near the cusps 0, +-1 and +-1/2 (Im z down to 0.05) and
    # up to Im z = 8: off by at most 10^-digits (|f(z)| + L), L =
    # y^(-k/2) max_t t^(k/2) e^(-2 pi t) = y^(-k/2) (k / (4 pi e))^(k/2),
    # since y^(k/2) |f(z)| is invariant and its q-series at height t starts
    # at t^(k/2) e^(-2 pi t).  A stop at the absolute eps misses it where the
    # Jacobian z^(-k) of the reduction is large (cusp26 at 0.2i: off by
    # 6.6e-42 at 50 digits) and up the cusp, where f(z) is small (at 5i)
    ctx, hi = PrecisionContext(digits=digits), PrecisionContext(digits=digits + 30)
    forms = {k: certified_cusp_form(k, hi) for k in DIM_ONE_WEIGHTS}

    @settings(max_examples=80)
    @given(
        st.sampled_from(DIM_ONE_WEIGHTS),
        st.sampled_from([0, 1, -1, 0.5, -0.5]),
        st.floats(-0.1, 0.1),
        st.floats(math.log(0.05), math.log(8)),
    )
    @example(26, 0, 0.0, math.log(0.2))
    @example(26, 0, 0.0, math.log(5))
    def check(k, cusp, dx, log_y):
        z = mp.mpc(cusp + dx, math.exp(log_y))
        got, want = evaluate(forms[k], z, ctx), evaluate(forms[k], z, hi)
        with mp.workdps(hi.work_dps):
            scale = (mp.mpf(k) / (4 * mp.pi * mp.e) / z.imag) ** (mp.mpf(k) / 2)
            assert abs(got - want) <= mp.mpf(10) ** -digits * (abs(want) + scale), (k, z)

    check()


def test_evaluate_window_starting_above_one(ctx):
    # a finite series (zero tail bound) whose window starts at n = 2: no index
    # below the window may wrap around to its end
    g = QSeries(weight=12, n_min=2, coeffs=(Fraction(1), Fraction(3)), tail_bound=(0.0, 0.0))
    q = mp.exp(-2 * mp.pi)
    assert abs(evaluate(g, mp.mpc(0, 1), ctx) - (q ** 2 + 3 * q ** 3)) <= mp.mpf(10) ** (-ctx.digits) * q ** 2


# a window from n = 3 whose first six coefficients and every fourth one
# vanish, with coefficients of size 10^-40 n^3, as a scaled series has
_SPARSE = QSeries(
    weight=12,
    n_min=3,
    coeffs=tuple(Fraction((-1) ** n * n ** 3, 10 ** 40) if n > 8 and n % 4 else 0 for n in range(3, 121)),
    tail_bound=(1e-40, 3.0),
    label="sparse",
)


def _q_sum_cases(ctx):
    return {
        "F[delta]": eichler_integral(delta(64), ctx).series,
        "F[cusp16]": eichler_integral(cusp_form(16, 64), ctx).series,
        "wh-10": weakly_holomorphic_m10(170),
        "sparse": _SPARSE,
    }


@pytest.mark.parametrize("digits", [50, 80, 120])
def test_sum_q_series_property(digits):
    # the fixed-point Horner sum against the plain mpc sum of the same N
    # terms at twice the working precision: error <= 10^-(digits+5) sum
    # |c_n q^n| from the cusp's edge (Im z = 0.5) to where the whole sum is
    # below 10^-60 (Im z = 30); windows that cannot certify the digits
    # raise, and must raise exactly when the reference's tail check does
    ctx = PrecisionContext(digits=digits)
    cases = _q_sum_cases(ctx)
    bound = mp.mpf(10) ** -(digits + 5)

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(cases)),
        st.floats(-0.5, 0.5),
        st.floats(math.log(0.5), math.log(30)),
    )
    def check(name, x, log_y):
        f = cases[name]
        z = mp.mpc(x, math.exp(log_y))
        N, log_tail = _certified_length(_coeff_model(f), -2 * math.pi * float(z.imag), max(f.n_max, 0), ctx)
        with mp.workdps(2 * ctx.work_dps):
            q = mp.exp(2j * mp.pi * z)
            terms = [_to_mpc(c) * q ** n for n, c in zip(range(f.n_min, N + 1), f.coeffs)]
            want, size = mp.fsum(terms), mp.fsum(abs(t) for t in terms)
        with mp.workdps(ctx.work_dps):
            try:
                got = _sum_q_series(f, z, ctx)
            except TailTooLarge:
                with pytest.raises(TailTooLarge):
                    _check_tail(log_tail, want, ctx, name)
                return
        with mp.workdps(2 * ctx.work_dps):
            assert abs(got - want) <= bound * size, (name, z)

    check()


def _bisected_length(model, log_q, n_max, ctx, n_first=1):
    # the bisection _certified_length replaced, kept as its reference
    log_c, alpha, beta = model
    up = max(alpha, 0.0)

    def log_tail(N):
        m = N + 1
        log_r = log_q + up * math.log((m + 1) / m) + beta * (math.sqrt(m + 1) - math.sqrt(m))
        if not log_r < 0:
            return math.inf
        return log_c + alpha * math.log(m) + beta * math.sqrt(m) + m * log_q - math.log1p(-math.exp(log_r))

    if n_max < n_first - 1:
        return n_max, math.inf
    lo = max(n_first - 1, min(4, n_max))
    log_eps = -(ctx.digits + 8) * math.log(10)
    top = log_tail(n_max)
    if not top <= log_eps:
        return n_max, top
    low = log_tail(lo)
    if low <= log_eps:
        return lo, low
    hi = n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_tail(mid) <= log_eps:
            hi = mid
        else:
            lo = mid
    return hi, log_tail(hi)


@pytest.mark.parametrize("digits", [50, 80, 120])
def test_certified_length_matches_bisection(digits):
    # the closed-form estimate and its unit steps land on the length and
    # tail the bisection found, on the coefficient models of F[delta],
    # F[cusp16], wh-10 and the sparse window, the completed L-series' model
    # (from n_first > 1 on), wh-10 scaled by 10^-60, whose estimate
    # overshoots, and a zero bound, over heights from Im z = 0.05 to 50
    ctx = PrecisionContext(digits=digits)
    models = {name: _coeff_model(f) for name, f in _q_sum_cases(ctx).items()}
    log_c, alpha, beta = _coeff_model(delta(64))
    models["L[delta]"] = (log_c + math.log(2), alpha, beta)
    log_c, alpha, beta = models["wh-10"]
    models["wh-10/1e60"] = (log_c - 60 * math.log(10), alpha, beta)
    models["zero"] = (-math.inf, 0.0, 0.0)

    @settings(max_examples=300)
    @given(
        st.sampled_from(sorted(models)),
        st.floats(math.log(0.05), math.log(50)),
        st.integers(0, 250),
        st.integers(1, 4),
    )
    def check(name, log_y, n_max, n_first):
        if name == "L[delta]":
            n_first += 1
        log_q = -2 * math.pi * math.exp(log_y)
        want = _bisected_length(models[name], log_q, n_max, ctx, n_first)
        assert _certified_length(models[name], log_q, n_max, ctx, n_first) == want

    check()


def test_q_sum_work_does_not_grow_with_length(ctx, f_cusp16, monkeypatch):
    # the terms run on integers: one real exponential, one cosine/sine pair
    # and the same mpc products for a 4-term and a 28-term sum
    F = eichler_integral(f_cusp16, ctx).series
    counts = {"exp": 0, "cos_sin": 0, "mul": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qforms, "mpf_exp", counted("exp", qforms.mpf_exp))
    monkeypatch.setattr(qforms, "mpf_cos_sin_pi", counted("cos_sin", qforms.mpf_cos_sin_pi))
    monkeypatch.setattr(mp.mpc, "__mul__", counted("mul", mp.mpc.__mul__))
    seen = []
    for y in (10, 0.6):
        model = _coeff_model(F)
        N = _certified_length(model, -2 * math.pi * y, F.n_max, ctx)[0]
        counts.update(exp=0, cos_sin=0, mul=0)
        with mp.workdps(ctx.work_dps):
            _sum_q_series(F, mp.mpc("0.1", y), ctx)
        seen.append((N, dict(counts)))
    assert seen[0][0] == 4 and seen[1][0] > 20
    assert seen[0][1] == seen[1][1] and seen[0][1]["exp"] == seen[0][1]["cos_sin"] == 1


def test_check_tail_raises_for_an_infinite_tail_past_float_range(ctx):
    # log1p of |total| > 1.8e308 overflowed to inf as a float, and inf <= inf let an infinite tail pass
    with pytest.raises(TailTooLarge):
        _check_tail(math.inf, mp.mpf("1e400"), ctx, "a sum past float range")


def test_evaluate_tail_too_large(ctx):
    short = delta(16)
    with pytest.raises(TailTooLarge):
        # Im z too small for a 16-term window on a non-modular copy
        from dataclasses import replace

        evaluate(replace(short, modular=False), mp.mpc(0, "0.05"), ctx)


def test_cusp_form_remaining_weights():
    for k in (18, 20, 22):
        f = cusp_form(k, 24)
        assert f.coeff(1) == 1 and f.weight == k and f.cuspidal
        assert f.coeff(2) * f.coeff(3) == f.coeff(6)  # Hecke eigenform


def test_evaluated_series_is_not_kept_alive(ctx, f_wh):
    # a series integrated by regint: its fixed-point coefficients and growth bound
    # are memoized on it and go with it
    g = replace(f_wh, label="wh-copy")
    z = mp.mpc("0.2", "1.1")
    reg_integral_to_icusp(g, -mp.conj(z), z, 12, ctx)
    assert g._memo
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def wh_log_coeff_bound_mpmath(f):
    """log of 10 max(1, max_n |a(n)| / e^(4 pi sqrt(2 n))), every ratio taken in mpmath at the ambient precision."""
    best = mp.mpf(1)
    for n in range(max(1, f.n_min), f.n_max + 1):
        c = abs(_to_mpc(f.coeffs[n - f.n_min]))
        if c:
            best = max(best, c / mp.exp(4 * mp.pi * mp.sqrt(2 * mp.mpf(n))))
    return float(mp.log(10 * best))


def test_wh_log_coeff_bound_float_pass(f_wh):
    # the coefficient bound of a series without a tail bound is one float pass
    # over log |a(n)| - 4 pi sqrt(2 n); on wh-10 every ratio is below 1, so it
    # is ln 10 exactly, and on a copy scaled so that ratios exceed 1 it meets
    # the mpmath pass within 1e-12
    fresh = replace(f_wh)
    assert qforms._wh_log_coeff_bound(fresh) == wh_log_coeff_bound_mpmath(f_wh) == math.log(10)
    for scale in (100, Fraction(10 ** 30, 7)):
        scaled = f_wh.scale(scale)
        want = wh_log_coeff_bound_mpmath(scaled)
        assert want > math.log(10) + 1
        assert abs(qforms._wh_log_coeff_bound(scaled) - want) <= 1e-12
