"""Coset sums, seed identities, matched-truncation descent checks."""

from math import gcd

import mpmath as mp
import pytest

from periodlab import (
    CosetTruncation,
    DomainError,
    PrecisionContext,
    Seed,
    phi_seed,
    seed_values,
    truncated_poincare,
    verify_bol_xi_avatar,
    verify_laplace_eigenvalue,
    verify_termwise_dipoincare,
    verify_termwise_xi,
)
from periodlab.poincare import DESCENT_BOUND
from periodlab.special import psi_seed


def test_coset_enumeration_matches_bruteforce():
    # DESCENT_BOUND is the truncation both *_matched identities sum over
    for C in (7, DESCENT_BOUND):
        trunc = CosetTruncation.build(C)
        rows = {(g.c, g.d) for g in trunc.representatives}
        want = {(0, 1)} | {
            (c, d) for c in range(1, C + 1) for d in range(-C, C + 1) if gcd(c, d) == 1
        }
        assert rows == want
        for g in trunc.representatives:
            assert g.a * g.d - g.b * g.c == 1


def test_truncation_bound_zero_is_seed(ctx):
    # phi(12, 1, 6) is the exponential seed e^(2 pi i z)
    trunc = CosetTruncation.build(0)
    seed = Seed(12, 1, 6)
    z = mp.mpc("0.3", "1.4")
    assert abs(truncated_poincare(seed, z, trunc, ctx) - phi_seed(12, 1, 6, z, ctx)) < mp.mpf("1e-60")


def test_truncation_stabilizes(ctx):
    # |P_C - P_2C| decreasing for C in {10, 20, 40} at z = 2i for the
    # dual-weight series at the harmonic parameter
    z = mp.mpc(0, 2)
    seed = Seed(2 - 12, 1, 6)
    vals = {}
    for C in (10, 20, 40, 80):
        vals[C] = truncated_poincare(seed, z, CosetTruncation.build(C), ctx)
    d1 = abs(vals[10] - vals[20])
    d2 = abs(vals[20] - vals[40])
    d3 = abs(vals[40] - vals[80])
    assert d1 > d2 > d3


def test_sum_t_reindexing(ctx):
    # Gamma_infty-coset structure: translating z by 1 re-indexes the sum over
    # the right-translated representative set gamma T, term by term.  The
    # seed takes all images in one call: a cluster far wider than a stencil
    from periodlab.eichler import T

    trunc = CosetTruncation.build(6)
    seed = Seed(2 - 12, 1, 6)
    z = mp.mpc("0.2", "1.7")
    w = 2 - 12
    with mp.workdps(ctx.work_dps):
        lhs = truncated_poincare(seed, z + 1, trunc, ctx)
        reps = [g * T for g in trunc.representatives]
        values = seed_values(seed, [g.apply(z) for g in reps], ctx)
        rhs = mp.fsum(v * g.jfactor(z) ** (-w) for g, v in zip(reps, values))
        assert abs(lhs - rhs) < mp.mpf("1e-50") * (1 + abs(lhs))


def test_growth_sanity(ctx):
    # crude divergence guard: the truncated sum stays below seed + C^2 max-term
    trunc = CosetTruncation.build(10)
    seed = Seed(2 - 12, 1, 6)
    for y in range(1, 6):
        z = mp.mpc(0, y)
        values = seed_values(seed, [g.apply(z) for g in trunc.representatives], ctx)
        terms = [v * g.jfactor(z) ** mp.mpf(-(2 - 12)) for g, v in zip(trunc.representatives, values)]
        total = mp.fsum(terms)
        bound = abs(terms[0]) + len(terms) ** 2 * max(abs(t) for t in terms)
        assert abs(total) <= bound


@pytest.mark.parametrize("k", [4, 12])
def test_terminating_seed_is_exponential(ctx, k):
    # phi(k, m, k/2) has a = s - k/2 = 0, so 1F1 = 1 and the seed is
    # e^(-2 pi m y) e(m x) = e^(2 pi i m z): the target of bol_descent
    for m in (1, 2):
        for z in (mp.mpc("0.3", "0.8"), mp.mpc("-0.45", "1.5"), mp.mpc(0, 2)):
            got = phi_seed(k, m, mp.mpf(k) / 2, z, ctx)
            with mp.workdps(ctx.work_dps):
                want = mp.exp(2j * mp.pi * m * z)
            assert abs(got - want) <= ctx.eps() * abs(want), (m, z)


@pytest.mark.parametrize("digits", [30, 50, 80, 100])
def test_matched_stencil_sums_meet_pointwise_sums(digits):
    # each matched truncation takes its xi stencil from one cal_M cluster per
    # coset, Taylor-summed to the four images; each stencil sum meets
    # truncated_poincare at that point alone (one series per coset, no
    # Taylor sum) within eps relative, at xi_descent's and bol_descent's points
    ctx = PrecisionContext(digits=digits)
    trunc = CosetTruncation.build(DESCENT_BOUND)
    for seed, z in ((Seed(12, -1, 6, True), mp.mpc(0, 2)), (Seed(2 - 12, -1, 6), mp.mpc(0, "1.5"))):
        with mp.workdps(ctx.work_dps):
            h = ctx.fd_step
            points = [z + h, z - h, z + 1j * h, z - 1j * h]
        for w, got in zip(points, truncated_poincare(seed, points, trunc, ctx)):
            want = truncated_poincare(seed, w, trunc, ctx)
            assert abs(got - want) <= ctx.eps() * abs(want), (seed, w)


def test_seed_rejects_points_off_the_half_plane(ctx):
    with pytest.raises(DomainError):
        truncated_poincare(Seed(12, 1, 6), [mp.mpc(0, 1), mp.mpc(0, -1)], CosetTruncation.build(2), ctx)
    with pytest.raises(DomainError):
        seed_values(Seed(12, 0, 6), [mp.mpc(0, 1)], ctx)


def test_phi_seed_x_periodicity(ctx):
    z = mp.mpc("0.3", "1.2")
    a = phi_seed(2 - 12, 1, 6, z + 1, ctx)
    b = phi_seed(2 - 12, 1, 6, z, ctx)
    assert abs(a - b) < mp.mpf("1e-55") * (1 + abs(a))


def test_phi_seed_terminating_case_matches_elementary(ctx):
    # weight-k seed at s = k/2 with u > 0 collapses to e^(-u/2) e(mx)
    z = mp.mpc("0.4", "0.7")
    u = 4 * mp.pi * mp.im(z)
    got = phi_seed(12, 1, 6, z, ctx)
    want = mp.exp(-u / 2) * mp.exp(2j * mp.pi * mp.re(z))
    assert abs(got - want) < mp.mpf("1e-55") * (1 + abs(got))


def test_phi_seed_rejects_zero_index(ctx):
    with pytest.raises(DomainError):
        phi_seed(12, 0, 6, mp.mpc(0, 1), ctx)


@pytest.mark.parametrize("m", [1, 2])
def test_xi_descent_termwise(ctx, m):
    reps = verify_termwise_xi(12, m, [mp.mpc(0, 1), mp.mpc("0.3", "0.8")], ctx)
    for r in reps:
        assert r.passed, r.summary_line()


@pytest.mark.parametrize("m", [1, 3])
def test_bol_descent_termwise(ctx, m):
    reps = verify_termwise_dipoincare(12, m, [mp.mpc(0, 1), mp.mpc("0.25", "1.5")], ctx)
    for r in reps:
        assert r.passed, r.summary_line()


def test_laplace_eigenvalue_seed(ctx):
    rep = verify_laplace_eigenvalue(2 - 12, 1, 6, [mp.mpc(0, 1)], ctx)
    assert rep.passed, rep.summary_line()


def test_laplace_eigenvalue_nonharmonic_parameter(ctx):
    # away from the harmonic point the eigenvalue is nonzero
    rep = verify_laplace_eigenvalue(2 - 12, 1, mp.mpf("4.5"), [mp.mpc(0, 1)], ctx)
    assert rep.passed, rep.summary_line()


def test_psi_seed_needs_nonzero_m(ctx):
    with pytest.raises(DomainError):
        psi_seed(12, 0, mp.mpc(0, 1), ctx)


def test_bol_xi_avatar(ctx, f_delta):
    pts = [mp.mpc("0.2", "0.9"), mp.mpc(0, 1), mp.mpc("0.6", "1.3")]
    reps = verify_bol_xi_avatar(f_delta, pts, ctx)
    assert len(reps) == 2
    for r in reps:
        assert r.passed, r.summary_line()


def direct_coset_term(seed, g, w):
    """(seed |_k g)(w) from mpmath alone, at the ambient precision: whitm (mp.diff of it in s for an s-derivative seed), expjpi and (c w + d)^(-k)."""
    k, m, s = seed.k, seed.m, mp.mpf(seed.s)
    gw = g.apply(w)
    y = 4 * mp.pi * abs(m) * gw.imag
    mu = mp.mpf(k) / 2 * (1 if m > 0 else -1)
    whittaker = lambda s: y ** (-mp.mpf(k) / 2) * mp.whitm(mu, s - mp.mpf(1) / 2, y)
    value = mp.diff(whittaker, s) if seed.ds else whittaker(s)
    return value * mp.expjpi(2 * m * gw.real) * g.jfactor(w) ** (-k)


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_stencil_coset_sums_meet_direct_sums(digits):
    # truncated_poincare at C = 2 takes each stencil point from the centre's
    # transcendental set by short series; each point's sum meets the sum of
    # independent per-point terms over the same cosets.  The confluent series
    # certifies eps, so the seeds and the non-terminating target meet eps; Bol's
    # target q^m is the terminating seed, whose confluent series is exact, so
    # there the series alone show, within 2^-prec relative
    ctx = PrecisionContext(digits=digits)
    trunc = CosetTruncation.build(2)
    assert len(trunc.representatives) == 8
    cases = ((Seed(12, -1, 6, True), mp.mpc(0, 2), ctx.eps()), (Seed(2 - 12, 1, 6), mp.mpc(0, 2), ctx.eps()),
             (Seed(2 - 12, -1, 6), mp.mpc(0, "1.5"), ctx.eps()), (Seed(12, 1, 6), mp.mpc(0, "1.5"), None))
    for seed, z, tol in cases:
        with mp.workdps(ctx.work_dps):
            h = ctx.fd_step
            points = [z + h, z - h, z + 1j * h, z - 1j * h]
            tol = tol or mp.mpf(2) ** -mp.mp.prec
        got = truncated_poincare(seed, points, trunc, ctx)
        with mp.workdps(2 * ctx.work_dps):
            for w, value in zip(points, got):
                want = mp.fsum(direct_coset_term(seed, g, w) for g in trunc.representatives)
                assert abs(value - want) <= tol * abs(want), (seed, w)
