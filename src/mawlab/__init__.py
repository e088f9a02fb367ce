"""mawlab: minimal absent words, sliding-window change analysis, and bound verification.

The package root holds the names the README imports and the records they
return.  A MAW set is a plain tuple of its words in canonical order.
Everything else is imported from its submodule (``mawlab.slide``,
``mawlab.bounds``, ``mawlab.verify``, ...).
"""

from .core import Alphabet, ConsistencyError, InputError, TheoremViolationError
from .automaton import enumerate_maws_fast
from .slide import DeltaReport, SlideSummary, append_delta, slide_totals

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ConsistencyError",
    "DeltaReport",
    "InputError",
    "SlideSummary",
    "TheoremViolationError",
    "append_delta",
    "enumerate_maws_fast",
    "slide_totals",
]
