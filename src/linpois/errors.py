"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and the categories coarse.
"""


class LinpoisError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LinpoisError):
    """Invalid user input: bad file, bad dimensions, bad values."""


class MethodNotApplicableError(LinpoisError):
    """A forced evaluation method does not apply to the given model."""


class InternalInvariantError(LinpoisError):
    """An internal consistency check failed; indicates a bug, not bad input."""
