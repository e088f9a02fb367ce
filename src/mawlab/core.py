"""Core string/alphabet types and substring primitives shared by every module.

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
        for ch in text:
            if ch not in self:
                raise InputError(f"symbol {ch!r} of {text!r} is not in alphabet {self.as_str()!r}")


@dataclass(frozen=True)
class WindowStats:
    """Repetition statistics of one window.

    ``repeating_suffix_len`` is the length of the longest proper suffix that
    occurs at least twice in the window (overlaps allowed).
    ``suffix_ext_len`` is the length of the longest suffix having an internal
    occurrence whose following character (inside the window) equals the symbol
    about to be appended.  The empty suffix qualifies exactly when that symbol
    occurs somewhere in the window, so the value is -1 when it does not occur
    at all (no suffix qualifies), and 0 when no symbol was supplied.  The
    prefix-side fields mirror these for the delete direction.
    """

    distinct_count: int
    repeating_suffix_len: int
    suffix_ext_len: int
    repeating_prefix_len: int
    prefix_ext_len: int

    def __post_init__(self) -> None:
        if not -1 <= self.suffix_ext_len <= self.repeating_suffix_len:
            raise ConsistencyError("suffix_ext_len must not exceed repeating_suffix_len")
        if not -1 <= self.prefix_ext_len <= self.repeating_prefix_len:
            raise ConsistencyError("prefix_ext_len must not exceed repeating_prefix_len")


def occurs(word: str, text: str) -> bool:
    """True iff ``word`` appears contiguously in ``text``.

    The empty-pattern convention (the empty string occurs everywhere) is the
    caller's responsibility; this predicate rejects empty patterns outright.
    """
    if not word:
        raise InputError("pattern must be non-empty")
    return word in text


def window_stats(window: str, next_sym: str | None = None, prev_sym: str | None = None) -> WindowStats:
    """Compute :class:`WindowStats` for a window, by direct scanning.

    ``next_sym`` / ``prev_sym``, when given, are the characters adjacent to the
    window in the underlying text (the one about to be appended on the right,
    and the one just deleted on the left).
    """
    d = len(window)
    if d == 0:
        raise InputError("window must be non-empty")

    rep_suf = 0
    for length in range(d - 1, 0, -1):
        if window.find(window[d - length :]) < d - length:
            rep_suf = length
            break

    suf_ext = 0
    if next_sym is not None:
        suf_ext = 0 if next_sym in window else -1
        for length in range(rep_suf, 0, -1):
            suffix = window[d - length :]
            start = 0
            found = False
            while True:
                pos = window.find(suffix, start)
                if pos < 0 or pos + length >= d:
                    break
                if window[pos + length] == next_sym:
                    found = True
                    break
                start = pos + 1
            if found:
                suf_ext = length
                break

    rep_pre = 0
    for length in range(d - 1, 0, -1):
        if window.rfind(window[:length]) > 0:
            rep_pre = length
            break

    pre_ext = 0
    if prev_sym is not None:
        pre_ext = 0 if prev_sym in window else -1
        for length in range(rep_pre, 0, -1):
            prefix = window[:length]
            start = 1
            found = False
            while True:
                pos = window.find(prefix, start)
                if pos < 0:
                    break
                if window[pos - 1] == prev_sym:
                    found = True
                    break
                start = pos + 1
            if found:
                pre_ext = length
                break

    return WindowStats(
        distinct_count=len(set(window)),
        repeating_suffix_len=rep_suf,
        suffix_ext_len=suf_ext,
        repeating_prefix_len=rep_pre,
        prefix_ext_len=pre_ext,
    )


def canonical_words(words: Iterable[str]) -> tuple[str, ...]:
    """Sort words by (length, symbol code) -- the package-wide canonical order."""
    return tuple(sorted(words, key=lambda w: (len(w), w)))
