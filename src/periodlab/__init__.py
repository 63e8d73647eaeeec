"""periodlab: configurable-precision lab for period objects of level-1 cusp forms.

Builds period polynomials, Eichler integrals, second-order (mock) period
functions and their completions, regularized cusp integrals and
Whittaker-seed functions, and certifies the identities relating them via
quantitative residual reports.
"""

__version__ = "0.1.0"

from .kernel import (
    BadPath,
    DomainError,
    KernelError,
    NonConvergent,
    PrecisionContext,
    StepTooLarge,
    TailTooLarge,
    laplace_fd,
    quad_ray,
    xi_fd,
)
from .reports import RelationReport, reports_to_csv, reports_to_json, residual_scale
from .special import (
    Seed,
    cal_M,
    psi_seed,
    seed_values,
    upper_incomplete_gamma,
    whittaker_derivative_identity_check,
)
from .qforms import (
    QSeries,
    UnsupportedWeight,
    bol,
    conjugate_form,
    cusp_form,
    delta,
    eisenstein,
    evaluate,
    weakly_holomorphic_m10,
)
from .lfun import LValue, OutOfRegion, critical_lvalues, l_completed, l_dirichlet
from .eichler import (
    GroupElement,
    IDENTITY,
    PolynomialC,
    S,
    T,
    U,
    UTILDE,
    eichler_integral,
    period_polynomial,
    period_polynomial_quadrature,
)
from .mockcore import (
    F_f2,
    hat_r_f2,
    noncritical_lvalue,
    r_f2,
    tilde_r_f2,
    verify_mock_es,
    verify_superm,
    verify_w_k2,
)
from .regint import (
    NotRegularizable,
    f_star,
    hat_star,
    r_star,
    reg_integral_to_icusp,
    verify_per_star,
)
from .poincare import (
    CosetTruncation,
    phi_seed,
    truncated_poincare,
    verify_bol_xi_avatar,
    verify_laplace_eigenvalue,
    verify_termwise_dipoincare,
    verify_termwise_xi,
)
