"""Exception types shared across the package."""


class GridClearError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(GridClearError):
    """A configuration is internally inconsistent or physically unrealizable."""


class InfeasibleDispatchError(GridClearError):
    """No dispatch satisfies the balance and generator bounds, or H cannot be
    recovered.

    The message alone carries the diagnostic: the kernel that raises it names
    the failed check and the offending figures.
    """


class FleetParseError(ConfigurationError):
    """A fleet CSV file could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number
