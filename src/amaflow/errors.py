"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """An argument's length does not match the operator or function it feeds."""

    def __init__(self, what: str, expected: int, actual: int):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")


class CapabilityError(ValueError):
    """The requested operation is not available for this object's kind."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget.

    Carries the best estimate reached and whatever diagnostics the caller
    may want to inspect.
    """

    def __init__(self, message: str, best_estimate=None, diagnostics: dict | None = None):
        self.best_estimate = best_estimate
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class ConditionError(ValueError):
    """A well-posedness condition required by a solver path is violated."""


class ParseError(ValueError):
    """A problem file failed to parse; ``location`` names the offending field."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class TrajectoryError(RuntimeError):
    """An integration run aborted; ``trajectory`` holds the partial result.

    ``status`` is ``"diverged"`` when a residual stopped being finite and
    ``"error"`` when a subproblem failed, as for the discrete solvers.
    """

    def __init__(self, message: str, trajectory=None, status: str = "error"):
        self.trajectory = trajectory
        self.status = status
        super().__init__(message)
