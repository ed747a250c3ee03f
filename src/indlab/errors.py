"""The library's own exception types.

Each is a ValueError: the input asked for something the program cannot
give, and the CLI reports it as a usage error (exit 1).
"""


class CapacityError(ValueError):
    """A requested table or search space exceeds its configured cap."""


class ContractViolationError(ValueError):
    """A pluggable component emitted a value outside its declared contract."""
