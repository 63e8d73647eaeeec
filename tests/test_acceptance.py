"""Acceptance criteria: one test per criterion, one printed line each.

All tolerances are fixed here, at the values the identities must meet at
digits = 50 (tol_tight 1e-20 scale-relative, tol_fd 1e-6).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random

import mpmath as mp

from periodlab import (
    PolynomialC,
    es_decompose,
    hat_r_f2,
    l_dirichlet,
    laplace_fd,
    noncritical_lvalue,
    period_polynomial,
    period_polynomial_quadrature,
    quad_ray,
    r_star,
    tilde_r_f2,
    verify_bol_xi_avatar,
    verify_laplace_eigenvalue,
    verify_mock_es,
    verify_per_star,
    verify_superm,
    verify_termwise_dipoincare,
    verify_termwise_xi,
    whittaker_derivative_identity_check,
    xi_fd,
)
from periodlab.eichler import S, U, eichler_integral

from oracles import tilde_quadrature


def report(num, label, max_resid, tol):
    ok = max_resid <= tol
    print(
        f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {label}: "
        f"max residual {mp.nstr(mp.mpf(max_resid), 6)} (tol {mp.nstr(mp.mpf(tol), 4)})"
    )
    assert ok, f"criterion {num} ({label}): {mp.nstr(mp.mpf(max_resid), 8)} > {tol}"


def grid(n, x0, x1, y0, y1):
    pts = []
    for i in range(n):
        t = mp.mpf(i) / max(n - 1, 1)
        pts.append(mp.mpc(mp.mpf(x0) + (mp.mpf(x1) - mp.mpf(x0)) * t,
                          mp.mpf(y0) + (mp.mpf(y1) - mp.mpf(y0)) * t))
    return pts


def test_criterion_01_eichler_relation(ctx, f_delta, f_cusp16):
    # F|_{2-k}(1-S) = r at 20 points with both evaluations in the direct
    # summation region (so the check is not circular through the cocycle rule)
    worst = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for f in (f_delta, f_cusp16):
            k = f.weight
            F = eichler_integral(f, ctx)
            r = period_polynomial(f, ctx)
            for z in grid(20, "-0.3", "0.3", "0.9", "1.1"):
                lhs = F(z) - F(-1 / z) * z ** (k - 2)
                resid = abs(lhs - r(z)) / max(1, abs(lhs), abs(r(z)))
                worst = max(worst, resid)
    report(1, "Eichler cocycle relation (k=12,16; 20 pts)", worst, mp.mpf("1e-18"))


def test_criterion_02_period_polynomial_dual(ctx, f_delta):
    rp = period_polynomial(f_delta, ctx)
    worst = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for z0 in (mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc(0, 2)):
            oracle = period_polynomial_quadrature(f_delta, z0, ctx)
            worst = max(worst, abs(oracle - rp(z0)) / max(1, abs(oracle), abs(rp(z0))))
    report(2, "period polynomial: L-values vs quadrature (3 pts)", worst, mp.mpf("1e-18"))


def test_criterion_03_noncritical_values(ctx, f_delta, f_delta_long):
    worst = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for m in range(5):
            got = noncritical_lvalue(f_delta, m, ctx).value
            want = l_dirichlet(f_delta_long, 12 + m, ctx, tol=mp.mpf("1e-13")).value
            worst = max(worst, abs(got - want) / abs(want))
    report(3, "non-critical L(12+m), m=0..4, vs Dirichlet oracle", worst, mp.mpf("1e-8"))


def test_criterion_04_correction_term(ctx, f_delta):
    worst = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for z in grid(5, "0.1", "0.9", "0.8", "2.2"):
            c = tilde_r_f2(f_delta, z, ctx)
            q = tilde_quadrature(f_delta, z, ctx)
            worst = max(worst, abs(c - q) / max(1, abs(c), abs(q)))
    report(4, "correction term: closed form vs quadrature (5 pts)", worst, mp.mpf("1e-15"))


def test_criterion_05_completion_relations(ctx, f_delta, f_cusp16):
    pts = grid(10, "0.1", "0.9", "0.6", "2.4")
    worst = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for f in (f_delta, f_cusp16):
            k = f.weight
            rep = verify_superm(f, pts, ctx)
            worst = max(worst, rep.max_residual)
            h = lambda w: hat_r_f2(f, w, ctx)
            for z in pts:
                z = mp.mpc(z)
                v0 = h(z)
                scale = max(1, abs(v0))
                vs = v0 + h(S.apply(z)) * S.jfactor(z) ** (-k)
                vu = (
                    v0
                    + h(U.apply(z)) * U.jfactor(z) ** (-k)
                    + h((U * U).apply(z)) * (U * U).jfactor(z) ** (-k)
                )
                worst = max(worst, abs(vs) / scale, abs(vu) / scale)
    report(5, "completion: F2|(S-1)=hat, hat|(1+S), hat|(1+U+U^2) (k=12,16)", worst, mp.mpf("1e-12"))


def test_criterion_06_xi_image_and_harmonicity(ctx, f_delta):
    rp = period_polynomial(f_delta, ctx)
    h = lambda w: hat_r_f2(f_delta, w, ctx)
    worst_xi = mp.mpf(0)
    worst_harm = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for z in grid(5, "0.15", "0.85", "0.8", "1.8"):
            got = xi_fd(h, 12, z, ctx)
            want = (2j) ** (-11) * rp(z)
            worst_xi = max(worst_xi, abs(got - want) / abs(want))
        z = mp.mpc("0.4", "1.2")
        lap = laplace_fd(h, 12, z, ctx, step=mp.mpf("1e-10"))
        worst_harm = abs(lap) / max(1, abs(h(z)))
    report(6, "xi(hat) = (2i)^(1-k) r (5 pts, rel)", worst_xi, mp.mpf("1e-6"))
    report(6, "harmonicity |Delta_k hat|", worst_harm, mp.mpf("1e-6"))


def test_criterion_07_mock_es_relations(ctx, f_delta):
    reps = verify_mock_es(f_delta, [mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc("-0.5", "1.5")], ctx)
    worst = max(r.max_residual for r in reps)
    report(7, "mock period relations (both displays, 3 pts)", worst, mp.mpf("1e-10"))


def test_criterion_08_whittaker_identity(ctx):
    worst = mp.mpf(0)
    for k in (4, 12):
        for y in ("0.5", "1", "2", "5"):
            rep = whittaker_derivative_identity_check(k, mp.mpf(y), ctx)
            worst = max(worst, rep.max_residual)
    report(8, "Whittaker nested-derivative identity (k=4,12)", worst, mp.mpf("1e-8"))


def test_criterion_09_poincare_descent(ctx):
    reps = []
    reps += verify_termwise_xi(12, 1, [mp.mpc(0, 1), mp.mpc("0.3", "0.8")], ctx)
    reps += verify_termwise_dipoincare(12, 1, [mp.mpc(0, 1), mp.mpc("0.25", "1.5")], ctx)
    reps.append(verify_laplace_eigenvalue(2 - 12, 1, 6, [mp.mpc(0, 1), mp.mpc(0, 2)], ctx))
    worst = max(r.max_residual for r in reps)
    report(9, "termwise + matched-truncation descent identities", worst, mp.mpf("1e-6"))


def test_criterion_10_regularized_periods(ctx, f_wh):
    with mp.workdps(ctx.work_dps):
        z = mp.mpc("0.3", "1.3")
        v1 = r_star(f_wh, z, ctx, z0=mp.mpc(0, 1))
        v2 = r_star(f_wh, z, ctx, z0=mp.mpc(1, 2))
        indep = abs(v1 - v2) / (1 + abs(v1))
    report(10, "regularized integral z0-independence", indep, mp.mpf("1e-15"))
    reps = verify_per_star(f_wh, [mp.mpc("0.3", "1.3"), mp.mpc("0.45", "1.1")], ctx)
    named = {r.identity.split("[")[0]: r for r in reps}
    worst_rel = max(
        named["perstar_eq"].max_residual,
        named["perstar_slash_S"].max_residual,
        named["perstar_slash_U"].max_residual,
    )
    report(10, "starred periods: per* equality + period relations", worst_rel, mp.mpf("1e-12"))
    report(10, "starred periods: xi-holomorphy", named["perstar_xi_holomorphy"].max_residual, mp.mpf("1e-6"))


def test_criterion_11_es_decomposition_roundtrip(ctx, f_delta):
    rng = random.Random(97)
    rp = period_polynomial(f_delta, ctx)
    cob = PolynomialC.from_coeffs([mp.mpc(-1)] + [mp.mpc(0)] * 9 + [mp.mpc(1)], 10)
    worst = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        for _ in range(20):
            a = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            c = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            P = rp.scale(a) + rp.negate_variable().scale(b) + cob.scale(c)
            ra, rb, rc, _ = es_decompose(P, 12, ctx)
            worst = max(worst, abs(ra - a), abs(rb - b), abs(rc - c))
    report(11, "Eichler-Shimura decomposition round trip (20 trials)", worst, mp.mpf("1e-10"))


def test_criterion_12_bol_xi_chain(ctx, f_delta):
    pts = grid(5, "0.15", "0.8", "0.8", "1.6")
    reps = verify_bol_xi_avatar(f_delta, pts, ctx)
    worst = max(r.max_residual for r in reps)
    report(12, "q-series avatar of D^(k-1) o xi_k chain (5 pts)", worst, mp.mpf("1e-6"))


def test_criterion_13_kernel_property_suites(ctx):
    rng = random.Random(11)
    worst_lin = mp.mpf(0)
    worst_split = mp.mpf(0)
    worst_hol = mp.mpf(0)
    with mp.workdps(ctx.work_dps):
        start = mp.mpc("0.3", "0.7")
        fa = lambda w: mp.exp(2j * mp.pi * w)
        fb = lambda w: mp.exp(2j * mp.pi * w) * (w + 2j) ** (-4)
        va = quad_ray(fa, start, ctx)
        vb = quad_ray(fb, start, ctx)
        for _ in range(5):
            a = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            combo = quad_ray(lambda w: a * fa(w) + b * fb(w), start, ctx)
            worst_lin = max(worst_lin, abs(combo - (a * va + b * vb)) / (1 + abs(combo)))
        g = lambda w: mp.exp(2j * mp.pi * w) * (w + 1j) ** (-2)
        whole = quad_ray(g, mp.mpc("0.2", "0.4"), ctx)
        for h in ("0.8", "1.7", "3.5"):
            low = mp.quad(lambda t: g(mp.mpc("0.2", t)) * 1j, [mp.mpf("0.4"), mp.mpf(h)])
            high = quad_ray(g, mp.mpc("0.2", h), ctx)
            worst_split = max(worst_split, abs(whole - (low + high)) / (1 + abs(whole)))
        for _ in range(20):
            z = mp.mpc(rng.uniform(-1, 1), rng.uniform(0.5, 2.5))
            worst_hol = max(worst_hol, abs(xi_fd(lambda w: w ** 3, 12, z, ctx)))
    report(13, "quadrature linearity", worst_lin, 2 * ctx.tol_tight)
    report(13, "path-split invariance", worst_split, ctx.tol_tight)
    report(13, "xi annihilates holomorphic functions (20 pts)", worst_hol, ctx.tol_fd)
