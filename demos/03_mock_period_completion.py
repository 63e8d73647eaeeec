"""The second-order period function, its completion, and non-critical values.

r2 is holomorphic but not S-invariant; subtracting the explicit
non-holomorphic correction produces a completion that satisfies both period
relations and whose xi-image is the classical period polynomial scaled by
(2i)^(1-k).  Derivatives of r2 at the cusp 0 encode L(k), L(k+1), ...
"""

import mpmath as mp

from periodlab import (
    PrecisionContext,
    delta,
    hat_r_f2,
    l_dirichlet,
    noncritical_lvalue,
    period_polynomial,
    r_f2,
    tilde_r_f2,
    verify_superm,
    xi_fd,
)

ctx = PrecisionContext(digits=50)
mp.mp.dps = ctx.work_dps

f = delta(64)
z = mp.mpc("0.3", "1.2")

r2 = r_f2(f, z, ctx)
tilde = tilde_r_f2(f, z, ctx)
print(f"at z = {z}:")
print("  r2    =", mp.nstr(r2, 20))
print("  tilde =", mp.nstr(tilde, 20))
print("  hat   =", mp.nstr(r2 - tilde, 20))

rep = verify_superm(f, [z, mp.mpc(0, 1)], ctx)
print("\ncompletion identity F2|_k(S-1) = hat:")
print(" ", rep.summary_line())

h = lambda w: hat_r_f2(f, w, ctx)
rp = period_polynomial(f, ctx)
got = xi_fd(h, 12, z, ctx)
want = (2j) ** (-11) * rp(z)
print("\nxi-image against the period polynomial:")
print(f"  xi(hat)          = {mp.nstr(got, 15)}")
print(f"  (2i)^(-11) r(z)  = {mp.nstr(want, 15)}")

print("\nnon-critical values, read off at the cusp and checked by summation:")
long = delta(700)
for m in range(5):
    got = noncritical_lvalue(f, m, ctx).value
    want = l_dirichlet(long, 12 + m, ctx, tol=mp.mpf("1e-13")).value
    print(f"  L({12 + m}) = {mp.nstr(mp.re(got), 25)}   rel err {mp.nstr(abs(got - want) / abs(want), 3)}")
