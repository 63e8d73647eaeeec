"""Regularized cusp integrals and starred periods of a weight -10 input.

The synthetic input E4^2 E6 / Delta^2 grows like q^(-2) at the cusp; its
integrals against rational kernels are regularized by analytic continuation
in the damping parameter, with the principal terms continued in closed form.
The starred completion satisfies the same period relations as the cusp-form
completion, with a vanishing correction term because the input is modular.
"""

import mpmath as mp

from periodlab import (
    CUSP_IOO,
    CUSP_ZERO,
    PrecisionContext,
    RegKernel,
    reg_integral_cusp_to_cusp,
    starred_periods,
    verify_per_star,
    weakly_holomorphic_m10,
)

ctx = PrecisionContext(digits=50)
mp.mp.dps = ctx.work_dps

M = weakly_holomorphic_m10(170)
print("input:", M.label, " weight:", M.weight)
print("principal part:", [int(M.coeff(n)) for n in range(-2, 1)], "+ O(q)")

z = mp.mpc("0.3", "1.3")
sp = starred_periods(M, z, ctx)
print(f"\nstarred periods at z = {z}:")
print("  Fstar     =", mp.nstr(sp.Fstar, 20))
print("  rstar     =", mp.nstr(sp.rstar, 20))
print("  tildestar =", mp.nstr(sp.tildestar, 10), " (modular input: cocycle vanishes)")

print("\nbase-point independence of the cusp-to-cusp integral:")
kern = RegKernel(kind="sz", k=12, z=z)
v1 = reg_integral_cusp_to_cusp(M, kern, CUSP_ZERO, CUSP_IOO, mp.mpc(0, 1), ctx)
v2 = reg_integral_cusp_to_cusp(M, kern, CUSP_ZERO, CUSP_IOO, mp.mpc(1, 2), ctx)
print(f"  |value(z0=i) - value(z0=1+2i)| = {mp.nstr(abs(v1 - v2), 3)}")

print("\nperiod relations for the starred completion:")
for rep in verify_per_star(M, [z], ctx):
    print(" ", rep.summary_line())
