"""Named errors for the attack primitives.

The protocol errors subclass :class:`ValueError` so pre-existing callers
catching the generic class keep working, while new callers (and the
regression tests) can pin the precise failure mode.
"""

from __future__ import annotations


class PrimitiveProtocolError(ValueError):
    """A primitive was driven outside its measurement protocol."""


class DoubletCountError(PrimitiveProtocolError):
    """A requested doublet count exceeds what the primitive can deliver.

    Raised instead of silently truncating: a truncated read looks like a
    successful short history recovery and corrupts downstream path
    search results.
    """


class HistoryLengthError(PrimitiveProtocolError):
    """An observed-history argument has an impossible length."""


class AmbiguousDoubletError(RuntimeError):
    """``Read_PHR`` found no single top guess for a doublet, even after
    re-measuring it from fresh train streams.

    Raised instead of returning whichever guess ties first: a wrong
    doublet also corrupts every later one, whose measurement is built on
    the recovered lower doublets.
    """
