"""quadfactor: primitive divisors and factor statistics of n^2 + b.

Exact factor sieving of quadratic sequence values, primitive-divisor
density counts, Chebyshev-style aggregate identities, the analytic
constants bounding the density, and the negative-Pell enumeration of n
with smooth n^2 + 1.
"""

from .arith import validate_b
from .constants import compute_all
from .errors import (CapExceededError, Error, NegativeSquareError, NonConvergenceError,
                     OutOfDomainError, PreconditionViolatedError, WindowOutOfRangeError)
from .primitive import non_primitive_census, rho
from .stats import chebyshev_report, chowla_todd_density, mertens_sum, nx_histogram
from .stormer import stormer_search

__version__ = "0.1.0"
