"""Regularized integrals: continuation correctness, starred periods and their cocycle leg."""

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
    eichler_integral,
    f_star,
    period_polynomial,
    quad_ray,
    r_star,
    reg_integral_to_icusp,
    residual_scale,
    verify_per_star,
    weakly_holomorphic_m10,
    xi_fd,
)
from periodlab import mockcore
from periodlab.qforms import _sum_q_series
from periodlab.regint import exp_ray_integral, ray_sum


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


@pytest.mark.parametrize("base", sorted(FOLD_BASES))
@pytest.mark.parametrize("kind", sorted(FOLD_KERNELS))
def test_folded_ray_sum_vs_unfolded(ctx, f_delta, kind, base):
    # ray_sum folds each continued-fraction term to c_n q0^n (w0+a)^(1-s) / f_n;
    # the unfolded sum takes exp_ray_integral term by term over the whole window
    w0 = FOLD_BASES[base]
    with mp.workdps(ctx.work_dps):
        for a, s, scale in FOLD_KERNELS[kind]:
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
        reg_integral_to_icusp(weakly_holomorphic_m10(20), -mp.conj(z), z, 12, ctx)


def test_ray_sum_needs_positive_height(ctx, f_delta):
    with pytest.raises(DomainError):
        reg_integral_to_icusp(f_delta, mp.mpc(0, 1), mp.mpc("0.3", -2), 12, ctx)
    with pytest.raises(DomainError):
        ray_sum(f_delta, mp.mpc("0.3", 1), mp.mpc(0, -1), 12, ctx)


def test_principal_term_vs_slant_contour(ctx):
    for (n, w0, z) in ((-1, mp.mpc(0, 2), mp.mpc("0.3", "1.2")), (-2, mp.mpc("0.4", 1), mp.mpc("0.1", "0.9"))):
        got = exp_ray_integral(n, w0, z, 12, ctx)
        oracle = slant_oracle(n, w0, z, 12)
        assert abs(got - oracle) <= mp.mpf("1e-40") * (1 + abs(got))


def test_principal_term_vs_ibp_closed_form(ctx):
    # the worked single-term example: e^(-2 pi i w) against 1/(w + i)^12, z0 = i
    n, w0, z, k = -1, mp.mpc(0, 1), mp.mpc(0, 1), 12
    got = exp_ray_integral(n, w0, z, k, ctx)
    want = ibp_oracle(n, w0, z, k)
    assert abs(got - want) <= mp.mpf("1e-50") * (1 + abs(got))
    # and at a generic point
    n, w0, z = -2, mp.mpc("0.3", "1.5"), mp.mpc("0.2", "0.8")
    got = exp_ray_integral(n, w0, z, 12, ctx)
    want = ibp_oracle(n, w0, z, 12)
    assert abs(got - want) <= mp.mpf("1e-50") * (1 + abs(got))


def test_e1_continued_branches(ctx):
    # s = 1, n = -1, a = 0: the term is Gamma(0, x) = E1(x) at x = 2 pi i w0,
    # continued with arg x in (0, 2 pi): the upper edge of the negative real
    # axis, the principal branch above it and one turn on below it
    e1 = lambda x: exp_ray_integral(-1, x / (2j * mp.pi), 0, 1, ctx)
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
    want = mockcore._r2_quadrature(f, z, ctx)
    for t in (mp.mpf("0.8"), 1, mp.mpf(5) / 4):
        got = r_star(b, z, ctx, cocycle=r, z0=mp.mpc(0, t))
        assert abs(got - want) <= ctx.tol_tight * residual_scale(want), t


def test_wrong_cocycle_raises(ctx, f_delta, f_wh):
    b, r = eichler_integral(f_delta, ctx).series, period_polynomial(f_delta, ctx)
    z = mp.mpc("0.3", "1.2")
    for cocycle in (None, r.scale(2)):
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

    import periodlab.qforms as qforms
    from periodlab.regint import _cocycle_spot_check

    calls = [0]
    evaluate = qforms.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(qforms, "evaluate", counted)
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

    import periodlab.qforms as qforms
    from periodlab.regint import _cocycle_spot_check

    calls = [0]
    evaluate = qforms.evaluate

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(qforms, "evaluate", counted)
    M = replace(eichler_integral(f_delta, ctx).series)
    r = period_polynomial(f_delta, ctx)
    again = PolynomialC.from_coeffs(list(r.coeffs), r.degree_bound)
    assert again is not r and again == r and hash(again) == hash(r)
    _cocycle_spot_check(M, r, ctx)
    _cocycle_spot_check(M, again, ctx)
    assert calls[0] == 2
    with pytest.raises(DomainError):
        _cocycle_spot_check(M, r.scale(2), ctx)


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
    # Fstar enters only perstar_eq, at z and S z; the hat relations take rstar
    import periodlab.regint as regint

    calls = [0]
    f_star = regint.f_star

    def counted(*args, **kwargs):
        calls[0] += 1
        return f_star(*args, **kwargs)

    monkeypatch.setattr(regint, "f_star", counted)
    monkeypatch.setattr(regint, "r_star", lambda *args, **kwargs: mp.mpc(0))
    verify_per_star(f_wh, [mp.mpc("0.3", "1.3"), mp.mpc("0.45", "1.1")], ctx)
    assert calls[0] == 4


def test_per_star_zero(ctx, f_wh):
    reps = verify_per_star(f_wh.scale(0), [mp.mpc(0, 1)], ctx)
    for r in reps:
        assert r.max_residual == 0
