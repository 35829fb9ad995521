"""Exception hierarchy shared by all stashpeel modules, and the integer
check that every entry point runs on its integer parameters."""


class StashpeelError(Exception):
    """Base class for every error raised by this package."""


class NotFoundError(StashpeelError):
    """An operation referenced a vertex or edge id that is not present."""


class ParameterError(StashpeelError):
    """A parameter is outside the range an operation supports."""


class InvalidArityError(ParameterError):
    """An operation restricted to a specific edge arity got the wrong d."""


class UnsupportedCaseError(ParameterError):
    """The (k, d) combination is excluded from an operation's domain.

    The only such case is the vertex-to-edge reduction at k=2, d=2, where
    the minimum 2-edge stash of a standard graph is computable directly by
    ``two_edge_stash_standard``.
    """


class ParseError(StashpeelError):
    """Malformed instance or stash text; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapExceededError(StashpeelError):
    """An exact search was abandoned because no solution exists within the cap.

    This is an "infeasible under the given budget" signal, not a claim that
    no stash exists (stashing everything always works).
    """

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class ContractViolationError(StashpeelError):
    """A caller-supplied certificate (stash) failed validation."""


def check_ints(**values: object) -> None:
    """Raise ParameterError, naming the parameter, unless every value's
    type is int itself, so that 2.5, 2.0, True or "2" never passes a range
    check as an integer would."""
    for name, value in values.items():
        if type(value) is not int:
            raise ParameterError(f"{name} must be an integer, got {value!r}")
