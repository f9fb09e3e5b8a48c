"""linpois: exact probabilities for integer linear combinations of
independent Poisson variables.

Y = A X with A a natural-number matrix and X_i ~ Poisson(lambda_i).
The solutions of A k = b are found exactly in integer arithmetic, and
P(Y = b) is summed over them in float64 log space, over a line stopping
at a certified tail bound of relative size below 2**-60.  The solution
set is read off the Smith normal form of A (a single point or a
one-parameter line, by the dimension of the kernel of A).  A larger
kernel is walked over its free coordinates, unless A has rank 1: then
A k = b is one row w k = t, and the Panjer recurrence over s = 0..t
gives P(Y = b) when its step cap and error bound allow.  The route depends
on the model and b alone; no option picks it, and each result names it
(PmfResult.route).  A seeded Monte Carlo harness cross-checks the
results.
"""

from .errors import InputError, InternalInvariantError, LinpoisError
from .intlinalg import (
    SnfDecomposition,
    format_matrix_text,
    int_identity,
    int_matrix,
    int_vector,
    parse_matrix_text,
    snf,
)
from .kernels import default_backend
from .model import PoissonModel, load_model_file, model_from_dict
from .montecarlo import SampleReport, verify
from .pmf import (
    PmfResult,
    gf_eval,
    gf_eval_series,
    logsumexp,
    pmf,
    pmf_table,
    solution_family,
)
from .solutions import PreprocessReport, SolutionFamily, preprocess

__version__ = "0.1.0"

__all__ = [
    "LinpoisError",
    "InputError",
    "InternalInvariantError",
    "int_matrix",
    "int_identity",
    "int_vector",
    "SnfDecomposition",
    "snf",
    "parse_matrix_text",
    "format_matrix_text",
    "SolutionFamily",
    "PreprocessReport",
    "preprocess",
    "PoissonModel",
    "model_from_dict",
    "load_model_file",
    "PmfResult",
    "logsumexp",
    "solution_family",
    "pmf",
    "gf_eval",
    "gf_eval_series",
    "pmf_table",
    "SampleReport",
    "verify",
    "default_backend",
    "__version__",
]
