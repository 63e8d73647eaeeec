"""q-series constructors, evaluation, Bol operator, file format."""

import gc
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from periodlab import (
    DomainError,
    QSeries,
    RegKernel,
    TailTooLarge,
    UnsupportedWeight,
    bol,
    conjugate_form,
    cusp_form,
    delta,
    eisenstein,
    evaluate,
    read_qexp,
    reg_integral_to_icusp,
    weakly_holomorphic_m10,
    write_qexp,
)
from periodlab.eichler import GroupElement, S, T


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


def test_conjugate_form(f_delta):
    assert conjugate_form(f_delta).coeffs == f_delta.coeffs  # real coefficients
    i_delta = f_delta.scale(mp.mpc(0, 1))
    back = conjugate_form(i_delta)
    assert all(abs(a - (-b)) == 0 for a, b in zip(back.coeffs, i_delta.coeffs))
    g = f_delta + f_delta.scale(2)
    assert conjugate_form(g).coeffs == g.coeffs


def test_conjugate_form_of_real_series_is_itself(f_delta, f_wh):
    # the same object, so caches keyed on (f, ctx) are shared with f
    assert conjugate_form(f_delta) is f_delta
    assert conjugate_form(f_wh) is f_wh
    assert conjugate_form(f_delta.scale(mp.mpf(3))) is not f_delta
    i_delta = f_delta.scale(mp.mpc(0, 1))
    assert conjugate_form(i_delta) is not i_delta


def test_bol_operator():
    const = QSeries(weight=-10, n_min=0, coeffs=(Fraction(5),))
    assert bol(const).is_zero()
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


def test_evaluate_window_starting_above_one(ctx):
    # a finite series (zero tail bound) whose window starts at n = 2: no index
    # below the window may wrap around to its end
    g = QSeries(weight=12, n_min=2, coeffs=(Fraction(1), Fraction(3)), tail_bound=(0.0, 0.0))
    q = mp.exp(-2 * mp.pi)
    assert abs(evaluate(g, mp.mpc(0, 1), ctx) - (q ** 2 + 3 * q ** 3)) <= mp.mpf(10) ** (-ctx.digits) * q ** 2


def test_evaluate_tail_too_large(ctx):
    short = delta(16)
    with pytest.raises(TailTooLarge):
        # Im z too small for a 16-term window on a non-modular copy
        from dataclasses import replace

        evaluate(replace(short, modular=False), mp.mpc(0, "0.05"), ctx)


def test_qexp_file_roundtrip(tmp_path, f_delta):
    path = str(tmp_path / "delta.qexp")
    write_qexp(f_delta, path)
    back = read_qexp(path)
    assert back.weight == 12 and back.n_min == 1
    assert back.coeffs == f_delta.coeffs
    with open(path) as fh:
        head = fh.readline().split()
    assert head[0] == "weight" and head[1] == "12"


def test_qexp_file_negative_indices(tmp_path, f_wh):
    path = str(tmp_path / "m10.qexp")
    write_qexp(f_wh, path)
    back = read_qexp(path)
    assert back.n_min == -2
    assert back.coeffs == f_wh.coeffs


def test_qexp_malformed(tmp_path):
    p = tmp_path / "bad.qexp"
    p.write_text("nonsense 1 2 3\n1\n")
    with pytest.raises(ValueError):
        read_qexp(str(p))


def test_cusp_form_remaining_weights():
    for k in (18, 20, 22):
        f = cusp_form(k, 24)
        assert f.coeff(1) == 1 and f.weight == k and f.cuspidal
        assert f.coeff(2) * f.coeff(3) == f.coeff(6)  # Hecke eigenform


def test_qexp_decimal_coefficients(tmp_path):
    p = tmp_path / "dec.qexp"
    p.write_text("weight 12 1 3\n1\n-0.5\n2.25\n")
    back = read_qexp(str(p))
    assert back.coeff(1) == 1
    assert abs(back.coeff(2) + mp.mpf("0.5")) < mp.mpf("1e-60")
    assert abs(back.coeff(3) - mp.mpf("2.25")) < mp.mpf("1e-60")


def test_evaluated_series_is_not_kept_alive(ctx, f_wh):
    # a series integrated by regint: its mpc coefficients and growth bound
    # are memoized on it and go with it
    g = replace(f_wh, label="wh-copy")
    z = mp.mpc("0.2", "1.1")
    reg_integral_to_icusp(g, RegKernel(kind="plus", k=12, z=z), -mp.conj(z), ctx)
    assert g._memo
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
