"""Structured exception types shared across the package."""


class SwlabError(Exception):
    """Base class for every structured error raised by this package."""


class NotRestricted(SwlabError):
    """A weight required to be p-restricted has a coroot pairing outside [0, p-1]."""


class NotRegular(SwlabError):
    """A Serre-weight class required to be regular has some r_i = p-1."""


class PreconditionViolation(SwlabError):
    """An operation was invoked outside its stated domain."""


class CardinalityError(SwlabError):
    """An enumerated set came out with the wrong size."""


class PresentationError(SwlabError):
    """No, or more than one, recentred presentation reproduces the weight set."""


class MultiplicityError(SwlabError):
    """A graded piece or a D0 report contains a repeated constituent class."""
