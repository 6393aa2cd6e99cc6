"""Exceptions shared across the package."""


class PtwalkError(Exception):
    """Base class for errors raised by this package."""


class GapClosedError(PtwalkError):
    """The bulk quasienergy gap is closed, so the requested quantity is undefined."""


class BracketError(PtwalkError):
    """An interval handed to a root bracket does not actually bracket the transition."""


class TrackingError(PtwalkError):
    """Eigenvalue branch tracking could not be continued unambiguously."""
