"""Exception hierarchy shared across the package, and the reader of integers in text specs."""


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class ContextMismatchError(AlgebraError):
    """Operands live in different fields, groups, or shapes."""


class NotInvertibleError(AlgebraError):
    """Inversion was requested for a non-unit."""


class NotNormalError(AlgebraError):
    """A construction required a normal subgroup and got a non-normal one."""


class NotSubgroupError(AlgebraError):
    """A claimed subgroup fails closure, inverse, or identity checks."""


class EnumerationCapError(AlgebraError):
    """A brute-force enumeration would exceed the configured cap."""


class ParseError(AlgebraError):
    """A textual spec (field, group, shape, element literal) failed to parse."""


class InternalConsistencyError(Exception):
    """Two code paths that must agree disagreed.  Never expected to fire."""


def parse_int(digits: str, what: str) -> int:
    """The integer that a digit string in a text spec spells.

    Past Python's limit on the digits int() reads (4300 by default) this
    raises a ParseError naming `what`, not a ValueError.
    """
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} has {len(digits)} digits, too many to read") from None
