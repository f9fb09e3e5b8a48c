"""linpois: exact probabilities for integer linear combinations of
independent Poisson variables.

Y = A X with A a natural-number matrix and X_i ~ Poisson(lambda_i).
P(Y = b) is computed exactly in integer arithmetic up to the final
log-space summation, which over a line of solutions stops at a
certified tail bound of relative size below 2**-60.  Each query takes
one route, decided by the solution lattice of A k = b alone: the
solution set is read off the Smith normal form of A (a single point or
a one-parameter line, by the dimension of the kernel of A) or, for
larger kernels, walked over the free coordinates.  A seeded Monte Carlo
harness cross-checks the results.
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
from .kernels import default_backend, poisson_cdf_table, uniform53
from .model import PoissonModel, load_model_file, model_from_dict
from .montecarlo import RngState, SampleReport, sample_many, sample_x, verify
from .pmf import (
    PmfResult,
    gf_eval,
    gf_eval_series,
    log_term,
    logsumexp,
    pmf,
    pmf_table,
    solution_family,
)
from .solutions import (
    MethodTag,
    PreprocessReport,
    SolutionFamily,
    classify,
    preprocess,
    snf_family,
)

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
    "MethodTag",
    "SolutionFamily",
    "PreprocessReport",
    "classify",
    "snf_family",
    "preprocess",
    "PoissonModel",
    "model_from_dict",
    "load_model_file",
    "PmfResult",
    "log_term",
    "logsumexp",
    "solution_family",
    "pmf",
    "gf_eval",
    "gf_eval_series",
    "pmf_table",
    "RngState",
    "SampleReport",
    "sample_x",
    "sample_many",
    "verify",
    "default_backend",
    "uniform53",
    "poisson_cdf_table",
    "__version__",
]
