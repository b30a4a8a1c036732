"""Shared exception types.

Exit-code mapping for the CLI lives in weylinv.cli; library code raises these
and never calls sys.exit.
"""
from __future__ import annotations

__all__ = [
    "WeylinvError",
    "UnsupportedSystemError",
    "ContextMismatchError",
    "CapExceededError",
    "CacheFormatError",
    "CosetValidationError",
    "CertificateError",
    "NormalizerError",
    "UnsupportedEmbeddingError",
]


class WeylinvError(Exception):
    """Base class for all weylinv errors."""


class UnsupportedSystemError(WeylinvError, ValueError):
    """Requested (type, rank) outside the supported table."""


class ContextMismatchError(WeylinvError, ValueError):
    """Algebra elements with different coordinate labels combined."""


class CapExceededError(WeylinvError, RuntimeError):
    """An enumeration hit its configured element or frame cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class CacheFormatError(WeylinvError, ValueError):
    """A cache file has an unknown format_version or inconsistent content."""


class CosetValidationError(WeylinvError, RuntimeError):
    """The cosets of U could not be keyed or counted.

    The coset walk keys a coset Ug by g^-1(v) for a vector v whose
    stabiliser is exactly U.  Raised when no such v is found (U may be
    no vector's stabiliser), when a key lies outside the weight lattice,
    or when the order identity |orbit| * |U| = |W| fails.
    """


class CertificateError(WeylinvError, RuntimeError):
    """A fold certificate failed on some orbit (a legal outcome)."""


class NormalizerError(WeylinvError, ValueError):
    """Group element does not map the frame's root lines to themselves."""


class UnsupportedEmbeddingError(WeylinvError, ValueError):
    """A diagonalized norm has odd square-free part != 1 and cannot be
    expressed with 2-power-by-coordinate diagonal entries."""
