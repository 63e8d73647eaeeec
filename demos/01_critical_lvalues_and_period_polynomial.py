"""Critical L-values and the period polynomial of the discriminant form.

The completed-series engine evaluates L(s) at every argument.  At the
critical values L(1), ..., L(k-1) its incomplete gammas have integer order
and are elementary, so ``period_polynomial`` takes all of them from one pass
of k-1 power sums; the values printed below come from the general engine and
are checked against the ones that build the polynomial.  The definitional cusp
integral then confirms the polynomial.
"""

import mpmath as mp

from periodlab import (
    PrecisionContext,
    critical_lvalues,
    delta,
    l_completed,
    l_dirichlet,
    period_polynomial,
    period_polynomial_quadrature,
)

ctx = PrecisionContext(digits=50)
mp.mp.dps = ctx.work_dps

f = delta(64)
print("form:", f.label, " weight:", f.weight, " a(1..5) =", [int(f.coeff(n)) for n in range(1, 6)])

print("\ncritical values via the completed series:")
completed = [l_completed(f, s, ctx).value for s in range(1, 12)]
for s, v in enumerate(completed, 1):
    print(f"  L({s:2d}) = {mp.nstr(mp.re(v), 30)}")

print("\ncross-check against direct summation where it converges:")
long = delta(700)
for s in (12, 14):
    vd = l_dirichlet(long, s, ctx, tol=mp.mpf('1e-13')).value
    vc = l_completed(long, s, ctx).value
    print(f"  s={s}: |completed - dirichlet| = {mp.nstr(abs(vd - vc), 3)}")

rp = period_polynomial(f, ctx)
gap = max(abs(a - lv.value) for a, lv in zip(completed, critical_lvalues(f, ctx)))
print(f"\nclosed-form critical values vs the completed series: max gap {mp.nstr(gap, 3)}")
print("\nperiod polynomial coefficients (degree 0..10):")
for j, c in enumerate(rp.coeffs):
    print(f"  z^{j:<2d}  {mp.nstr(c, 20)}")

print("\ndefinitional integral oracle at three points:")
for z0 in (mp.mpc(0, 1), mp.mpc(1, 1), mp.mpc(0, 2)):
    oracle = period_polynomial_quadrature(f, z0, ctx)
    print(f"  z0={z0}:  |quadrature - polynomial| = {mp.nstr(abs(oracle - rp(z0)), 3)}")
