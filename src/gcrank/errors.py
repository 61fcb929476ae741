"""Exception hierarchy shared by all gcrank modules."""


class GcrankError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is
    the CLI's exit status for it, 1 for a domain failure."""

    exit_code = 1


class UsageError(GcrankError):
    """Malformed input or an argument out of range: exit status 2."""

    exit_code = 2


# -- permutation / group errors -------------------------------------------

class InvalidDegree(GcrankError):
    pass


class DegreeMismatch(UsageError):
    pass


class GroupTooLarge(GcrankError):
    def __init__(self, cap, order):
        super().__init__(f"group order {order} exceeds cap of {cap} elements")
        self.cap = cap
        self.order = order


# -- data file errors ------------------------------------------------------

class ParseError(UsageError):
    pass


class UnknownLabel(ParseError):
    pass


class DuplicateLabel(ParseError):
    pass


class InvalidRational(ParseError):
    pass


class DualityViolation(GcrankError):
    pass


# -- symmetry errors -------------------------------------------------------

class NotAnAutomorphism(GcrankError):
    def __init__(self, name, report):
        first, *rest = report.violations
        more = f" (and {len(rest)} more; validate --sym lists them)" if rest else ""
        super().__init__(f"generator {name!r} is not a fusion-ring automorphism: "
                         f"{first.message}{more}")
        self.name = name
        self.report = report


class InconsistencyError(GcrankError):
    """Two independently computed quantities that must agree did not.

    Signals a bug in this package, never bad input data.
    """


# -- wreath / numeric range errors ----------------------------------------

class OutOfRange(UsageError):
    pass


class TooLarge(UsageError):
    pass
