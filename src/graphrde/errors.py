"""Exception taxonomy shared across the package.

Exit-code mapping used by the command line front end:

* :class:`UsageError` / :class:`ConfigError`  -> exit code 1 (bad invocation)
* :class:`OSError` from writing an output     -> exit code 1 (unwritable path)
* :class:`DataError`                          -> exit code 2 (bad data)
* :class:`NumericError` and subclasses        -> exit code 3 (numeric failure)
"""

from __future__ import annotations


class GraphRDEError(Exception):
    """Base class for all package-specific errors."""


class UsageError(GraphRDEError):
    """Bad command line invocation (unknown flag, missing argument...)."""


class ConfigError(GraphRDEError):
    """Invalid run configuration (unknown key, bad enum value, missing file)."""


class DataError(GraphRDEError):
    """Malformed or insufficient input data."""


class DimensionError(GraphRDEError):
    """Tensor operands have incompatible shapes."""


class ContractError(GraphRDEError):
    """An internal precondition was violated by the caller."""


class NumericError(GraphRDEError):
    """Computation produced unusable numbers."""


class NonFiniteError(NumericError):
    """An operation produced NaN or infinity."""


class BlowupError(NumericError):
    """State diverged during integration.

    Carries the window and step index where divergence was detected.
    """

    def __init__(self, message: str, window: int | None = None, step: int | None = None):
        super().__init__(message)
        self.window = window
        self.step = step


class TrainingAbort(NumericError):
    """Training halted on a non-finite loss or diverging state.

    ``history`` holds the epochs completed before the abort and
    ``best_params`` the last checkpoint that was still healthy (may be
    ``None`` when the very first epoch diverged).
    """

    def __init__(self, message: str, history=None, best_params=None):
        super().__init__(message)
        self.history = history if history is not None else []
        self.best_params = best_params
