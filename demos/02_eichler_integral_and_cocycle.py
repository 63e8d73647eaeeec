"""The Eichler integral and its cocycle: F|_{2-k}(1 - S) = r.

F is evaluated from its termwise closed form; below the fast-convergence
height the same cocycle rule doubles as the evaluation strategy, so the
identity is checked at points where both legs sum the series directly.
"""

import mpmath as mp

from periodlab import PrecisionContext, delta, eichler_integral, period_polynomial

ctx = PrecisionContext(digits=50)
mp.mp.dps = ctx.work_dps

f = delta(64)
F = eichler_integral(f, ctx)
r = period_polynomial(f, ctx)
k = f.weight

print("termwise coefficients of F (first three):")
for n in range(1, 4):
    print(f"  n={n}:  {mp.nstr(F.series.coeffs[n - 1], 20)}")

print("\ncocycle relation F(z) - z^(k-2) F(-1/z) = r(z):")
for z in (mp.mpc("0.2", "0.9"), mp.mpc("-0.3", "1.1"), mp.mpc("0.05", "1.0")):
    lhs = F(z) - F(-1 / z) * z ** (k - 2)
    print(f"  z={z}:  residual {mp.nstr(abs(lhs - r(z)), 3)}")

print("\nperiodicity F(z+1) = F(z):")
z = mp.mpc("0.27", "1.3")
print(f"  |F(z+1) - F(z)| = {mp.nstr(abs(F(z + 1) - F(z)), 3)}")

print("\nlow-height evaluation goes through the cocycle automatically:")
z = mp.mpc("0.1", "0.05")
print(f"  F({z}) = {mp.nstr(F(z), 20)}")
