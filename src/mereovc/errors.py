"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: InputError becomes 1,
UsageError becomes 2, DomainError becomes 3.
"""


class MereovcError(Exception):
    """Base class for every error raised by this package."""


class InputError(MereovcError):
    """Malformed input data."""


class StructuralError(InputError):
    """A table row does not line up with the header."""


class SchemaError(InputError):
    """Header-level problem: duplicate names or a name collision."""


class DecisionParseError(InputError):
    """A decision cell does not parse as a real number."""


class UsageError(MereovcError):
    """Caller supplied arguments outside the documented surface."""


class PremissSyntaxError(UsageError):
    """A premiss or mood expression failed to parse."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


class UnknownMoodError(UsageError):
    """A mood name is not in the catalog of valid moods."""


class DomainError(MereovcError):
    """A precondition on the mathematical domain was violated."""


class UniverseMismatchError(DomainError):
    """Terms from different weighted universes were combined."""


class EmptyTermError(DomainError):
    """The empty term appeared where existential import is required."""


class UndefinedDegreeError(DomainError):
    """Inclusion degree with an empty left argument is undefined."""
