"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """An argument's length does not match what it feeds; the message names both."""

    def __init__(self, what: str, expected: int, actual: int):
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")


class CapabilityError(ValueError):
    """The requested operation is not available for this object's kind."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget; the message names the routine."""


class ConditionError(ValueError):
    """A well-posedness condition required by a solver path is violated."""


class ParseError(ValueError):
    """A problem file failed to parse; ``location`` names the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)

