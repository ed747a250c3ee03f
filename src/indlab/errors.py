"""Exception types shared across modules.

Each is a ValueError: the input asked for something the program cannot
give, and the CLI reports it as a usage error (exit 1).
"""


class CapacityError(ValueError):
    """A requested table or search space exceeds its configured cap."""


class CommutationError(ValueError):
    """Two observables that were required to commute do not."""

    def __init__(self, i: int, j: int, norm: float, tol: float):
        self.pair = (i, j)
        self.norm = norm
        super().__init__(
            f"observables {i} and {j} do not commute: "
            f"max|[a_{i},a_{j}]| = {norm:.3e} > {tol:.1e}"
        )


class ContractViolationError(ValueError):
    """A pluggable component emitted a value outside its declared contract."""
