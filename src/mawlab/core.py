"""Core alphabet type, error classes and the canonical word order shared by every module.

Conventions used across the package:

* Texts, windows and words are plain ``str`` objects; every character is one
  symbol.  Indexing is 0-based and ranges are half-open.
* The alphabet is always explicit.  Length-1 minimal absent words depend on
  it, so callers must pin it (or derive it from the full text with
  :meth:`Alphabet.from_text`).
* Word lists are kept in canonical order: ascending length, then
  lexicographic by symbol code (plain ``str`` comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class InputError(ValueError):
    """Invalid user-supplied value: unknown symbol, bad parameter, bad config."""


class ConsistencyError(RuntimeError):
    """An internal contract was broken by a caller; signals a bug, not bad input."""


class TheoremViolationError(RuntimeError):
    """A structural invariant that must hold for every input failed.

    Raised with a witness description; verification campaigns catch it and
    record a falsification instead of crashing.
    """


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct single-character symbols."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise InputError("alphabet must contain at least one symbol")
        seen: set[str] = set()
        for sym in self.symbols:
            if not isinstance(sym, str) or len(sym) != 1:
                raise InputError(f"alphabet symbols must be single characters, got {sym!r}")
            if sym in seen:
                raise InputError(f"duplicate symbol {sym!r} in alphabet")
            seen.add(sym)
        object.__setattr__(self, "_members", frozenset(seen))

    @classmethod
    def of(cls, symbols: Iterable[str]) -> "Alphabet":
        return cls(tuple(symbols))

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        """Alphabet made of the distinct symbols of ``text`` in first-occurrence order."""
        if not text:
            raise InputError("cannot derive an alphabet from an empty text; pass one explicitly")
        return cls(tuple(dict.fromkeys(text)))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, sym: object) -> bool:
        return sym in self._members  # type: ignore[attr-defined]

    def as_str(self) -> str:
        return "".join(self.symbols)

    def require_symbol(self, sym: str) -> None:
        if sym not in self:
            raise InputError(f"symbol {sym!r} is not in alphabet {self.as_str()!r}")

    def require_text(self, text: str) -> None:
        if self._members.issuperset(text):  # type: ignore[attr-defined]
            return
        for ch in text:
            if ch not in self:
                raise InputError(f"symbol {ch!r} of {text!r} is not in alphabet {self.as_str()!r}")


def canonical_words(words: Iterable[str]) -> tuple[str, ...]:
    """Sort words by (length, symbol code) -- the package-wide canonical order.

    A stable sort by length of the lexicographically sorted words, both on
    one list.
    """
    words = sorted(words)
    words.sort(key=len)
    return tuple(words)
