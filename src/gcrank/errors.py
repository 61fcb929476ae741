"""Exception hierarchy shared by all gcrank modules: one class per exit
code, plus the errors that carry data or mark a bug."""


class GcrankError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is
    the CLI's exit status for it, 1 for a domain failure."""

    exit_code = 1


class UsageError(GcrankError):
    """An argument out of range or of the wrong degree: exit status 2."""

    exit_code = 2


class ParseError(UsageError):
    """Malformed input (a data file, a spec, options): exit status 2."""


class GroupTooLarge(GcrankError):
    def __init__(self, cap, order):
        super().__init__(f"group order {order} exceeds cap of {cap} elements")
        self.cap = cap
        self.order = order


class NotAnAutomorphism(GcrankError):
    """A generator that is not a fusion-ring automorphism.  ``build_symmetry``
    stops at its first violation, so ``report`` holds that one alone; the
    text names it and points to ``validate --sym``, which lists them all:
    ``generator 'g' is not a fusion-ring automorphism: <first message>
    (validate --sym lists every violation)``."""

    def __init__(self, name, report):
        super().__init__(f"generator {name!r} is not a fusion-ring automorphism: "
                         f"{report.violations[0].message} "
                         "(validate --sym lists every violation)")
        self.name = name
        self.report = report


class InconsistencyError(GcrankError):
    """Two independently computed quantities that must agree did not.

    Signals a bug in this package, never bad input data.
    """
