"""awlab: exact Askey-Wilson polynomial constructions and identity checks.

Everything is computed exactly over the rational numbers: every public
value is a fractions.Fraction (Laurent polynomials keep integer numerators
over a common denominator inside); there is no floating point anywhere, and
every verified identity holds with a residual that is literally the zero
polynomial.

Layers, bottom up:

  scalars      parameter handling, genericity certification, the closed-form
               constants (lambda, mu, alpha, c, beta, kappa)
  laurent      dense exact Laurent polynomials (a list of integer numerators
               over one denominator) and the fused operator kernels on them
  hecke        the operators: substitutions, T0/T1, Y, D and D'
  polynomials  the symmetric family P_n and nonsymmetric family E_n
  identities   per-index identity checks with residual witnesses, and the
               scalar view that injects faults
  verify       relation checks on a basis of the degree window, negative
               controls, and the suite runner
  cli          the `awlab` command

The package itself exports only what callers read from it: certifying a
point, the two families, D and lambda_n, and the suite runner with its
fault targets.  Everything else is imported from its layer, as in
`from awlab.laurent import LaurentPoly`.
"""

from .hecke import apply_D
from .identities import FAULT_TARGETS
from .polynomials import askey_wilson_P, nonsymmetric_E
from .scalars import GenericityError, check_genericity, lambda_n
from .verify import run_suite

__version__ = "0.1.0"
