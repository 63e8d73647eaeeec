"""Whittaker seed functions and the termwise descent identities.

The s-derivative seed of the weight-k series maps under xi_k to the
dual-weight Whittaker seed, and the dual-weight seed maps under xi_{2-k} to
an exponential; both identities hold termwise and at matched truncation of
the coset sums, because xi commutes with the slash action.  The s-derivative
seed psi_seed is in closed form: Kummer's series and its s-derivative are
summed in one loop, so the only difference left is xi's stencil in z.  A
seed is a value, Seed(k, m, s, ds); a cluster of nearby arguments (a
stencil, or its images under one coset) takes one series and a Taylor sum
per argument.
"""

import mpmath as mp

from periodlab import (
    CosetTruncation,
    PrecisionContext,
    Seed,
    cal_M,
    psi_seed,
    truncated_poincare,
    verify_laplace_eigenvalue,
    verify_termwise_dipoincare,
    verify_termwise_xi,
)

ctx = PrecisionContext(digits=50)
mp.mp.dps = ctx.work_dps

k = 12
print("normalized Whittaker values cal_M(k, s, u):")
for u in ("-3", "0.5", "4"):
    print(f"  cal_M(12, 6, {u}) = {mp.nstr(cal_M(12, 6, mp.mpf(u), ctx), 20)}")

print("\ns-derivative seeds psi_m(z) = d/ds cal_M(k, s, 4 pi m y)|_(s=k/2) e(m x):")
for m in (-1, 1):
    print(f"  psi_{m}(i) = {mp.nstr(psi_seed(k, m, mp.mpc(0, 1), ctx).real, 20)}")

print("\nLaplacian eigenvalue at the harmonic parameter (weight 2-k, s = k/2):")
rep = verify_laplace_eigenvalue(2 - k, 1, k / 2, [mp.mpc(0, 1)], ctx)
print(" ", rep.summary_line())

print("\ntermwise and matched-truncation descent under xi:")
for rep in verify_termwise_xi(k, 1, [mp.mpc(0, 1), mp.mpc("0.3", "0.8")], ctx):
    print(" ", rep.summary_line())
for rep in verify_termwise_dipoincare(k, 1, [mp.mpc(0, 1)], ctx):
    print(" ", rep.summary_line())

print("\none cluster call against single calls, d/ds cal_M(12, s, u) at s = 6, u = -4 + d:")
ds = (mp.mpf("-1e-10"), mp.mpf("1e-10"), mp.mpf("3e-10"))
us = [-4 + d for d in ds]
for d, u, v in zip(ds, us, cal_M(12, 6, us, ctx, ds=True)):
    single = cal_M(12, 6, u, ctx, ds=True)
    print(f"  d = {mp.nstr(d, 1)}: value {mp.nstr(v, 20)}, |cluster - single| / |single| = {mp.nstr(abs(v - single) / abs(single), 3)}")

print("\ncoset sums stabilize as the truncation bound grows (z = 2i):")
seed = Seed(2 - k, 1, 6)
prev = None
for C in (10, 20, 40):
    val = truncated_poincare(seed, mp.mpc(0, 2), CosetTruncation.build(C), ctx)
    if prev is not None:
        print(f"  |P_{C} - P_{C // 2}| / |P_{C}| = {mp.nstr(abs(val - prev) / abs(val), 3)}")
    prev = val
