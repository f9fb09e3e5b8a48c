"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (InputError and any other
LinpoisError 2, InternalInvariantError 4), so keep the hierarchy flat
and the categories coarse.
"""


class LinpoisError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LinpoisError):
    """Invalid user input: bad file, bad dimensions, bad values."""


class InternalInvariantError(LinpoisError):
    """An internal consistency check failed; indicates a bug, not bad input."""
