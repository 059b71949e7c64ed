class ChipfireError(Exception):
    pass


class GraphInputError(ChipfireError):
    """Malformed or inconsistent input data (bad graph/fiber/divisor files)."""


class PreconditionError(ChipfireError):
    """An operation was called with arguments that violate its contract."""


class InternalError(ChipfireError):
    """An internal consistency check failed: a bug, not bad input."""
