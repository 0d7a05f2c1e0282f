"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems exit 2, data problems
exit 3, solver breakdowns exit 4.
"""


class ConfigError(Exception):
    """Invalid configuration, hyperparameters, or refused privacy-budget reuse."""


class DataError(Exception):
    """Malformed or missing input data (CSV schema, cells, empty files)."""


class SolverFailure(Exception):
    """Step 2's barycenter failed its certificate, or the reference LP found no optimum."""


class UnknownGroupError(KeyError):
    """Prediction requested for a group that was not present at fit time.
    Its ``str`` is the message itself, not the quoted repr ``KeyError`` gives."""

    __str__ = Exception.__str__
