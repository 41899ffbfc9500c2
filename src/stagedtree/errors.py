"""Exception hierarchy shared across the package."""


class StagedTreeError(Exception):
    """Base class for all errors raised by this package."""


class DataError(StagedTreeError):
    """Malformed input data: bad CSV, invalid schema, impossible split."""


class ModelError(StagedTreeError):
    """Invalid model construction or an ill-posed query."""


class ConvergenceError(ModelError):
    """An iterative routine failed to reach its tolerance."""

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation

    def __reduce__(self):
        # Both constructor arguments, so a pickled error unpickles as itself.
        return type(self), (self.args[0], self.deviation), self.__dict__
