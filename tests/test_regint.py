"""Regularized integrals: continuation correctness, cusp legs, starred periods."""

import random

import mpmath as mp
import pytest

from periodlab import (
    CUSP_IOO,
    CUSP_ZERO,
    DomainError,
    NotRegularizable,
    PolynomialC,
    PrecisionContext,
    QSeries,
    RegKernel,
    TailTooLarge,
    period_polynomial,
    quad_ray,
    reg_integral_cusp_to_cusp,
    reg_integral_to_icusp,
    starred_periods,
    verify_per_star,
    weakly_holomorphic_m10,
    xi_fd,
)
from periodlab.qforms import _sum_q_series
from periodlab.regint import _gamma_negint_on_branch, exp_ray_integral, ray_sum


def one_term_series(n, coeff=1):
    return QSeries(-10, n_min=n, coeffs=(mp.mpc(coeff),))


def slant_oracle(n, w0, z, k, branch="L"):
    """Contour-deformation oracle: rotate the ray down-right (L) / down-left (R)."""
    delta = mp.pi / 4
    direction = mp.exp(-1j * delta) if branch == "L" else mp.exp(1j * (mp.pi + delta))
    decay = 2 * mp.pi * abs(n) * mp.sin(delta)
    T = (mp.mp.dps + 8) * mp.log(10) / decay
    g = lambda t: mp.exp(2j * mp.pi * n * (w0 + t * direction)) * (w0 + t * direction + z) ** (-k) * direction
    return mp.quad(g, [0, T / 64, T / 8, T])


def ibp_oracle(n, w0, z, k):
    """Independent closed form via repeated integration by parts.

    I_j = int e^(lam w)(w+z)^(-j) dw satisfies
    I_j = -(w0+z)^(1-j) e^(lam w0)/(1-j) - lam/(1-j) I_{j-1} down to
    I_1 = e^(-lam z) E1(-lam (w0+z)) (branch "L": upper-edge continuation).
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
        kern = RegKernel(kind="plus", k=12, z=z)
        w0 = -mp.conj(z)
        got = reg_integral_to_icusp(g, kern, w0, ctx)
        plain = quad_ray(lambda w: _sum_q_series(g, w, ctx) * (w + z) ** (-12), w0, ctx)
        assert abs(got - plain) <= ctx.tol_tight * (1 + abs(got))


@pytest.mark.parametrize("kind", ["plus", "sz", "sz_at_0", "one", "poly"])
def test_decaying_part_vs_quad_ray(ctx, f_delta, kind):
    # the termwise ray sums of every kernel kind against quadrature of the
    # summed q-series times the kernel written out
    z = mp.mpc("0.3", "1.2")
    P = PolynomialC.from_coeffs([1, mp.mpc(0, 2), 0, -3], 10)
    kern, written = {
        "plus": (RegKernel(kind="plus", k=12, z=z), lambda w: (w + z) ** (-12)),
        "sz": (RegKernel(kind="sz", k=12, z=z), lambda w: (w * z - 1) ** (-12)),
        "sz_at_0": (RegKernel(kind="sz", k=12, z=mp.mpc(0)), lambda w: (w * 0 - 1) ** (-12)),
        "one": (RegKernel(kind="one", k=12), lambda w: 1),
        "poly": (RegKernel(kind="poly", k=12, poly=P), P),
    }[kind]
    w0 = mp.mpc("-0.1", "0.9")
    got = reg_integral_to_icusp(f_delta, kern, w0, ctx)
    want = quad_ray(lambda w: _sum_q_series(f_delta, w, ctx) * written(w), w0, ctx)
    assert abs(got - want) <= ctx.tol_tight * abs(want)


FOLD_Z = mp.mpc("0.3", "1.2")
FOLD_KERNELS = {
    "plus": RegKernel(kind="plus", k=12, z=FOLD_Z),
    "sz": RegKernel(kind="sz", k=12, z=FOLD_Z),
    "s=0": RegKernel(kind="one", k=12),
    "s<0": RegKernel(kind="poly", k=12, poly=PolynomialC.from_coeffs([0, mp.mpc(0, 2), 0, -3], 10)),
}
FOLD_BASES = {"i": mp.mpc(0, 1), "-conj z": -mp.conj(FOLD_Z), "S-image": -1 / mp.mpc("0.2", "1.1")}


@pytest.mark.parametrize("base", sorted(FOLD_BASES))
@pytest.mark.parametrize("kind", sorted(FOLD_KERNELS))
def test_folded_ray_sum_vs_unfolded(ctx, f_delta, kind, base):
    # ray_sum folds each continued-fraction term to c_n q0^n (w0+a)^(1-s) / f_n;
    # the unfolded sum takes exp_ray_integral term by term over the whole window
    w0 = FOLD_BASES[base]
    with mp.workdps(ctx.work_dps):
        for a, s, scale in FOLD_KERNELS[kind].terms():
            got = ray_sum(f_delta, w0, a, s, ctx, scale)[0]
            want = scale * mp.fsum(
                f_delta.coeff(n) * exp_ray_integral(n, w0, a, s, ctx) for n in range(1, f_delta.n_max + 1)
            )
            assert abs(got - want) <= mp.mpf(10) ** -ctx.digits * abs(want), (kind, base, s)


@pytest.mark.parametrize("a", [mp.mpc("0.3", "1.5"), mp.mpc("0.1", "0.6")])
def test_ray_sum_work_does_not_grow_with_length(f_delta, monkeypatch, a):
    # per term, a folded ray sum runs only the continued fraction: the
    # exponentials and complex powers it takes are the same for 50 and 100
    # digits, though the longer sum has more terms (at a = 0.1 + 0.6i the
    # term n = 1 lies below the fraction's threshold |x| > 12)
    import periodlab.regint as regint

    counts = {"exp": 0, "pow": 0, "fraction": 0}
    exp, mpc_pow, fraction = mp.exp, mp.mpc.__pow__, regint.scaled_upper_gamma

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mp, "exp", counted("exp", exp))
    monkeypatch.setattr(mp.mpc, "__pow__", counted("pow", mpc_pow))
    monkeypatch.setattr(regint, "scaled_upper_gamma", counted("fraction", fraction))
    seen = []
    for digits in (50, 100):
        ctx = PrecisionContext(digits=digits)
        counts.update(exp=0, pow=0, fraction=0)
        with mp.workdps(ctx.work_dps):
            ray_sum(f_delta, mp.mpc(0, 1), a, 12, ctx)
        seen.append(dict(counts))
    assert seen[1]["fraction"] > seen[0]["fraction"] > 0
    assert seen[0]["exp"] == seen[1]["exp"] and seen[0]["pow"] == seen[1]["pow"]


def test_short_window_raises(ctx):
    # wh-10's coefficients grow like e^(4 pi sqrt(2n)): 20 terms cannot
    # certify 50 digits at height 1.2
    z = mp.mpc("0.3", "1.2")
    with pytest.raises(TailTooLarge):
        reg_integral_to_icusp(weakly_holomorphic_m10(20), RegKernel(kind="plus", k=12, z=z), -mp.conj(z), ctx)


def test_ray_sum_needs_positive_height(ctx, f_delta):
    with pytest.raises(DomainError):
        reg_integral_to_icusp(f_delta, RegKernel(kind="plus", k=12, z=mp.mpc("0.3", -2)), mp.mpc(0, 1), ctx)
    with pytest.raises(DomainError):
        ray_sum(f_delta, mp.mpc("0.3", 1), mp.mpc(0, -1), 12, ctx)


def test_principal_term_vs_slant_contour(ctx):
    for (n, w0, z) in ((-1, mp.mpc(0, 2), mp.mpc("0.3", "1.2")), (-2, mp.mpc("0.4", 1), mp.mpc("0.1", "0.9"))):
        got = exp_ray_integral(n, w0, z, 12, ctx, "L")
        oracle = slant_oracle(n, w0, z, 12, "L")
        assert abs(got - oracle) <= mp.mpf("1e-40") * (1 + abs(got))
        got_r = exp_ray_integral(n, w0, z, 12, ctx, "R")
        oracle_r = slant_oracle(n, w0, z, 12, "R")
        assert abs(got_r - oracle_r) <= mp.mpf("1e-40") * (1 + abs(got_r))


def test_principal_term_vs_ibp_closed_form(ctx):
    # the worked single-term example: e^(-2 pi i w) against 1/(w + i)^12, z0 = i
    n, w0, z, k = -1, mp.mpc(0, 1), mp.mpc(0, 1), 12
    got = exp_ray_integral(n, w0, z, k, ctx, "L")
    want = ibp_oracle(n, w0, z, k)
    assert abs(got - want) <= mp.mpf("1e-50") * (1 + abs(got))
    # and at a generic point
    n, w0, z = -2, mp.mpc("0.3", "1.5"), mp.mpc("0.2", "0.8")
    got = exp_ray_integral(n, w0, z, 12, ctx, "L")
    want = ibp_oracle(n, w0, z, 12)
    assert abs(got - want) <= mp.mpf("1e-50") * (1 + abs(got))


def test_branch_monodromy_is_explicit(ctx):
    # the two continuations differ by the full monodromy of Gamma(1-k, .)
    x = mp.mpc(-5, 0)
    dl = _gamma_negint_on_branch(11, x, "L", ctx)
    dr = _gamma_negint_on_branch(11, x, "R", ctx)
    jump = (-1) ** 11 / mp.factorial(11) * (-2j * mp.pi)
    assert abs((dl - dr) - jump) < mp.mpf("1e-55")


def test_e1_continued_branches(ctx):
    x = mp.mpc(-4, 0)
    up = _gamma_negint_on_branch(0, x, "L", ctx)
    dn = _gamma_negint_on_branch(0, x, "R", ctx)
    assert abs((dn - up) - 2j * mp.pi) < mp.mpf("1e-60")
    # off the cut both agree with the principal branch on their side
    assert abs(_gamma_negint_on_branch(0, mp.mpc(-3, 2), "L", ctx) - mp.e1(mp.mpc(-3, 2))) < mp.mpf("1e-60")
    assert abs(_gamma_negint_on_branch(0, mp.mpc(-3, -2), "R", ctx) - mp.e1(mp.mpc(-3, -2))) < mp.mpf("1e-60")


def test_reg_linearity(ctx):
    z = mp.mpc("0.2", "1.1")
    kern = RegKernel(kind="plus", k=12, z=z)
    w0 = -mp.conj(z)
    e1 = one_term_series(-1, 2)
    e2 = one_term_series(-2, mp.mpc(0, 3))
    both = QSeries(-10, n_min=-2, coeffs=(mp.mpc(0, 3), mp.mpc(2)))
    v = reg_integral_to_icusp(both, kern, w0, ctx)
    v1 = reg_integral_to_icusp(e1, kern, w0, ctx)
    v2 = reg_integral_to_icusp(e2, kern, w0, ctx)
    assert abs(v - (v1 + v2)) <= ctx.tol_tight * (1 + abs(v))


def test_not_regularizable_poly_kernel(ctx):
    P = PolynomialC.from_coeffs([1, 2], 10)
    with pytest.raises(NotRegularizable):
        reg_integral_to_icusp(one_term_series(0), RegKernel(kind="poly", k=12, poly=P), mp.mpc(0, 1), ctx)


def test_poly_kernel_negative_index(ctx):
    # e^(2 pi i n w) against a polynomial: entire positive-order gammas
    P = PolynomialC.from_coeffs([1, 0, 2], 10)
    got = reg_integral_to_icusp(one_term_series(-1), RegKernel(kind="poly", k=12, poly=P), mp.mpc(0, 1), ctx)
    # slant-contour oracle
    delta = mp.pi / 4
    direc = mp.exp(-1j * delta)
    T = (mp.mp.dps + 8) * mp.log(10) / (2 * mp.pi * mp.sin(delta))
    g = lambda t: mp.exp(-2j * mp.pi * (mp.mpc(0, 1) + t * direc)) * P(mp.mpc(0, 1) + t * direc) * direc
    oracle = mp.quad(g, [0, T / 64, T / 8, T])
    assert abs(got - oracle) <= mp.mpf("1e-40") * (1 + abs(got))


def test_cusp_to_cusp_z0_independence(ctx, f_wh):
    z = mp.mpc("0.3", "1.3")
    kern = RegKernel(kind="sz", k=12, z=z)
    rng = random.Random(29)
    vals, rvals = [], []
    for i in range(5):
        z0 = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        vals.append(reg_integral_cusp_to_cusp(f_wh, kern, CUSP_ZERO, CUSP_IOO, z0, ctx))
        if i < 2:  # reversed cusp order
            rvals.append(reg_integral_cusp_to_cusp(f_wh, kern, CUSP_IOO, CUSP_ZERO, z0, ctx))
    for v in vals[1:]:
        assert abs(v - vals[0]) <= mp.mpf("1e-15") * (1 + abs(vals[0]))
    assert abs(rvals[1] - rvals[0]) <= mp.mpf("1e-15") * (1 + abs(rvals[0]))


def test_cusp_to_cusp_antisymmetry(ctx, f_wh):
    z = mp.mpc("0.2", "1.2")
    kern = RegKernel(kind="plus", k=12, z=z)
    ab = reg_integral_cusp_to_cusp(f_wh, kern, CUSP_ZERO, CUSP_IOO, mp.mpc(0, 1), ctx)
    ba = reg_integral_cusp_to_cusp(f_wh, kern, CUSP_IOO, CUSP_ZERO, mp.mpc(0, 1), ctx)
    assert abs(ab + ba) <= ctx.tol_tight * (1 + abs(ab))


def test_cusp_to_cusp_degenerate(ctx, f_wh):
    kern = RegKernel(kind="plus", k=12, z=mp.mpc(0, 1))
    assert reg_integral_cusp_to_cusp(f_wh, kern, CUSP_IOO, CUSP_IOO, mp.mpc(0, 1), ctx) == 0


def test_starred_modular_input_kills_cocycle(ctx, f_wh):
    sp = starred_periods(f_wh, mp.mpc("0.3", "1.2"), ctx)
    assert sp.tildestar == 0
    assert sp.hatstar == sp.rstar


def test_starred_tildestar_with_cocycle(ctx, f_wh, f_delta):
    # an explicit cocycle skips the modularity check; tildestar integrates
    # it against (w+z)^(-k) exactly, checked here by quadrature on the ray
    # w = -x + it from -conj z, where w + z = i(t + y)
    Q = period_polynomial(f_delta, ctx).base.scale(mp.mpc("0.7", "-1.3"))
    z = mp.mpc("0.3", "1.2")
    sp = starred_periods(f_wh, z, ctx, cocycle=Q)
    with mp.workdps(ctx.work_dps):
        x, y = mp.re(z), mp.im(z)
        want = mp.quad(lambda t: Q(mp.mpc(-x, t)) * mp.mpc(0, t + y) ** (-12) * 1j, [y, mp.inf])
        assert sp.hatstar == sp.rstar - sp.tildestar
    assert sp.tildestar != 0
    assert abs(sp.tildestar - want) <= ctx.tol_tight * (1 + abs(want))


def test_modularity_spot_check_runs_once_per_context(f_wh, monkeypatch):
    # a pass is memoized on the series per context; a failure raises every time
    from dataclasses import replace

    import periodlab.qforms as qforms
    from periodlab.regint import _modularity_spot_check

    calls = [0]
    evaluate = qforms.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(qforms, "evaluate", counted)
    M = replace(f_wh)
    ctx50, ctx60 = PrecisionContext(digits=50), PrecisionContext(digits=60)
    for _ in range(3):
        _modularity_spot_check(M, ctx50)
    assert calls[0] == 2
    _modularity_spot_check(M, ctx60)
    _modularity_spot_check(M, ctx60)
    assert calls[0] == 4
    # one principal-part coefficient off: not modular
    bad = replace(M, coeffs=(M.coeffs[0], M.coeffs[1] + 1) + M.coeffs[2:])
    for n in (1, 2):
        with pytest.raises(DomainError):
            _modularity_spot_check(bad, ctx50)
        assert calls[0] == 4 + 2 * n


def test_starred_zero_input(ctx, f_wh):
    zero = f_wh.scale(0)
    sp = starred_periods(zero, mp.mpc(0, 1), ctx)
    assert sp.Fstar == 0 and sp.hatstar == 0


def test_starred_xi_holomorphy(ctx, f_wh):
    z = mp.mpc("0.25", "1.1")
    hat = lambda w: starred_periods(f_wh, w, ctx).hatstar
    v = xi_fd(hat, 12, z, ctx)
    scale = max(1, abs(hat(z)))
    assert abs(v) <= ctx.tol_fd * scale


def test_elementary_third_term(ctx):
    # F(z) = int_{-conj z}^{i oo} (w+z)^(-k) dw = (2iy)^(1-k)/(k-1),
    # xi(F) = (2i)^(1-k)
    k = 12
    F = lambda z: (2j * mp.im(z)) ** (1 - k) / (k - 1)
    for z in (mp.mpc("0.3", "1.2"), mp.mpc(0, 1)):
        got = reg_integral_to_icusp(one_term_series(0), RegKernel(kind="plus", k=k, z=z), -mp.conj(z), ctx)
        assert abs(got - F(z)) <= ctx.tol_tight * (1 + abs(got))
        xv = xi_fd(F, k, z, ctx)
        assert abs(xv - (2j) ** (1 - k)) <= ctx.tol_fd


def test_per_star_verifier(ctx, f_wh):
    reps = verify_per_star(f_wh, [mp.mpc("0.3", "1.3")], ctx)
    assert len(reps) == 4
    for r in reps:
        assert r.passed, r.summary_line()


def test_per_star_zero(ctx, f_wh):
    reps = verify_per_star(f_wh.scale(0), [mp.mpc(0, 1)], ctx)
    for r in reps:
        assert r.max_residual == 0


def test_per_star_holds_under_other_branch(ctx, f_wh):
    # the verified identities are uniform in the continuation class; only
    # the values of individual regularized integrals depend on it
    z = mp.mpc("0.3", "1.3")
    vl = starred_periods(f_wh, z, ctx, branch="L").rstar
    vr = starred_periods(f_wh, z, ctx, branch="R").rstar
    assert abs(vl - vr) > mp.mpf("1e-6")  # genuinely different continuations
    for r in verify_per_star(f_wh, [z], ctx, branch="R"):
        assert r.passed, r.summary_line()
