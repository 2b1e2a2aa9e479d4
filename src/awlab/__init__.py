"""awlab: exact Askey-Wilson polynomial constructions and identity checks.

Everything is computed exactly over the rational numbers: every public
value is a fractions.Fraction (Laurent polynomials keep integer numerators
over a common denominator inside); there is no floating point anywhere, and
every verified identity holds with a residual that is literally the zero
polynomial.

Layers, bottom up:

  scalars      parameter handling, genericity certification, the closed-form
               constants (lambda, mu, alpha, c, beta, kappa)
  laurent      sparse exact Laurent polynomials (integer numerators over
               one denominator) and the fused operator kernels on them
  hecke        the operators: substitutions, T0/T1, Y, D, D', and the
               unreduced fractions that hold their coefficients
  polynomials  the symmetric family P_n and nonsymmetric family E_n
  identities   per-index identity checks with residual witnesses, and the
               scalar view that injects faults
  verify       randomized relation checks, negative controls, and the
               suite runner
  cli          the `awlab` command
"""

from .hecke import (
    LaurentFraction,
    NotSymmetricError,
    apply_D,
    apply_D_prime,
    apply_T0,
    apply_T1,
    apply_t0_T0_inv,
    apply_t1_T1_inv,
    apply_Y,
    limit_at_infinity,
)
from .identities import (
    FAULT_TARGETS,
    IdentityReport,
    check_alpha_beta,
    check_E_eigen,
    check_hecke_ladder,
    check_intertwiner,
    check_leading_coefficient,
    check_lowering_via_d,
    check_projection,
    check_q_difference,
    check_raising_via_d,
    check_recurrence,
    check_symmetrization,
)
from .laurent import (
    BOTH_ZERO,
    SUB_INV,
    SUB_Q_OVER_Z,
    SUB_QZ,
    SUB_Z_OVER_Q,
    LaurentPoly,
    NotDivisibleError,
    exact_quotient,
    proportional,
)
from .polynomials import (
    EigenSolveError,
    ExtractionError,
    askey_wilson_P,
    nonsymmetric_E,
    recurrence_ratio,
    symmetrize,
)
from .scalars import (
    GenericityError,
    HorizonError,
    ParamSet,
    Scalar,
    alpha_n,
    beta_n,
    check_genericity,
    e1,
    e3,
    format_scalar,
    kappa_n,
    lambda_n,
    mu_n,
    param_set_from_json,
    parse_scalar,
    random_param_sets,
)
from .verify import (
    check_bridge_identity,
    check_factorization,
    check_hecke_relations,
    run_suite,
    suite_plan,
)

__version__ = "0.1.0"
