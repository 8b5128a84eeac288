"""Exception types shared across the package, and its memory budget.

Each class carries an ``exit_code`` used by the command line front end, so
scripted callers can distinguish failure modes without parsing messages.
check_budget refuses, with ResourceError, work arrays over
DENSE_BUDGET_BYTES before they are allocated.
"""


class RabispecError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(RabispecError):
    """Bad command line usage or malformed config file."""

    exit_code = 2


class DegenerateInput(RabispecError):
    """Input coincides with a zero set the algorithm must avoid."""

    exit_code = 3


class InsufficientNodes(RabispecError):
    """Quadrature rule too short for exact integration of the integrand."""

    exit_code = 4


class PrecisionError(RabispecError):
    """Requested combination exceeds the supported precision envelope."""

    exit_code = 5


class CoverageError(RabispecError):
    """Spectrum does not reliably cover the requested analysis window."""

    exit_code = 6


class ModelSpecError(RabispecError):
    """Model description is inconsistent or violates a family constraint."""

    exit_code = 7


class NumericError(RabispecError):
    """A numerical routine failed to meet its own accuracy contract."""

    exit_code = 8


class ResourceError(RabispecError):
    """Request needs more memory or work than the stated budget or cap
    allows."""

    exit_code = 9


# the package's memory budget: build refuses a dense matrix, or the arrays
# of an occupation-layer build, larger than this (2 GiB: a dense matrix of
# dimension 16 384), and every other work-array check uses it too
DENSE_BUDGET_BYTES = 2 * 1024 ** 3

# the Python objects (array headers, LAPACK wrappers, small lists) that a
# routine holds beside the arrays its count itemizes, a few kilobytes: a
# count that must bound the traced peak at small sizes adds them
OBJECT_BYTES = 8 * 1024


def check_budget(what, need):
    """Raise ResourceError when need bytes exceed DENSE_BUDGET_BYTES; what
    names the object and its verb, as in "dense matrix ... needs"."""
    if need > DENSE_BUDGET_BYTES:
        raise ResourceError("%s %.3g GiB, over the %.3g GiB budget"
                            % (what, need / 2 ** 30,
                               DENSE_BUDGET_BYTES / 2 ** 30))
