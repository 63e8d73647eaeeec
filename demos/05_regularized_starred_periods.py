"""Regularized cusp integrals and starred periods of a weight -10 input.

The synthetic input E4^2 E6 / Delta^2 grows like q^(-2) at the cusp; its
integrals against rational kernels are regularized by analytic continuation
in the damping parameter, with the principal terms continued in closed form.
rstar splits its path from the cusp 0 at a base point z0, and its value does
not depend on that choice.
The starred completion satisfies the same period relations as the cusp-form
completion, with a vanishing correction term because the input is modular.
"""

import mpmath as mp

from periodlab import (
    PrecisionContext,
    f_star,
    r_star,
    verify_per_star,
    weakly_holomorphic_m10,
)

ctx = PrecisionContext(digits=50)
mp.mp.dps = ctx.work_dps

M = weakly_holomorphic_m10(170)
print("input:", M.label, " weight:", M.weight)
print("principal part:", [int(M.coeff(n)) for n in range(-2, 1)], "+ O(q)")

z = mp.mpc("0.3", "1.3")
rstar = r_star(M, z, ctx)
print(f"\nstarred periods at z = {z}:")
print("  Fstar     =", mp.nstr(f_star(M, z, ctx), 20))
print("  rstar     =", mp.nstr(rstar, 20))
print("  tildestar = 0  (modular input: the cocycle vanishes, so hatstar = rstar)")

print("\nbase-point independence of rstar = R.int_0^{i oo} M(w) (wz-1)^(-12) dw:")
for z0 in (mp.mpc(1, 2), mp.mpc("-0.4", "0.8")):
    v = r_star(M, z, ctx, z0=z0)
    print(f"  |rstar(z0=5i/4) - rstar(z0={mp.nstr(z0, 3)})| = {mp.nstr(abs(v - rstar), 3)}")

print("\nperiod relations for the starred completion:")
for rep in verify_per_star(M, [z], ctx):
    print(" ", rep.summary_line())
