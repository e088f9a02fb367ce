"""Reference (brute-force) minimal-absent-word predicate and enumerator.

A word w is a minimal absent word (MAW) for a subject string S over an
alphabet when

  (A) w does not occur in S,
  (B) w[1:] occurs in S,
  (C) w[:-1] occurs in S,

where the empty string is deemed to occur in every subject, so a single
symbol absent from S is always a MAW.  This module implements the definition
literally and serves as ground truth for the automaton-based enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Alphabet, InputError, canonical_words


@dataclass(frozen=True)
class MawSet:
    """Canonically ordered set of MAWs for one subject string."""

    subject_length: int
    alphabet: Alphabet
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        prev: str | None = None
        for w in self.words:
            if not w:
                raise InputError("MAW words must be non-empty")
            if prev is not None and (len(prev), prev) >= (len(w), w):
                raise InputError("MAW words must be in strict canonical order")
            prev = w

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def as_set(self) -> frozenset[str]:
        return frozenset(self.words)

    def to_payload(self) -> dict:
        return {
            "subject_length": self.subject_length,
            "alphabet": self.alphabet.as_str(),
            "count": len(self.words),
            "words": list(self.words),
        }


def is_maw(word: str, subject: str, alphabet: Alphabet) -> bool:
    """Literal three-condition membership test."""
    if not word:
        raise InputError("word must be non-empty")
    alphabet.require_text(word)
    alphabet.require_text(subject)
    if word in subject:
        return False
    if len(word) == 1:
        return True
    return word[1:] in subject and word[:-1] in subject


def _extension_maps(subject: str) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Left/right one-character extension sets for every substring (and the empty string).

    ``ext_left[u]`` holds every a with a+u a substring of the subject;
    ``ext_right[u]`` every b with u+b a substring.  Built from one pass over
    all occurrence ranges, so it is an exhaustive-by-construction oracle.
    """
    n = len(subject)
    chars = set(subject)
    ext_left: dict[str, set[str]] = {"": set(chars)}
    ext_right: dict[str, set[str]] = {"": set(chars)}
    for i in range(n):
        left = subject[i - 1] if i else None
        for j in range(i + 1, n + 1):
            u = subject[i:j]
            lefts = ext_left.get(u)
            if lefts is None:
                lefts = ext_left[u] = set()
                ext_right[u] = set()
            if left is not None:
                lefts.add(left)
            if j < n:
                ext_right[u].add(subject[j])
    return ext_left, ext_right


def enumerate_maws_naive(subject: str, alphabet: Alphabet) -> MawSet:
    """Enumerate all MAWs by testing every candidate a+u+b with a+u and u+b substrings.

    Length-1 MAWs are the alphabet symbols absent from the subject; for the
    empty subject that is the whole alphabet.
    """
    alphabet.require_text(subject)
    present = set(subject)
    words: list[str] = [a for a in alphabet if a not in present]

    ext_left, ext_right = _extension_maps(subject)
    for u, lefts in ext_left.items():
        rights = ext_right[u]
        if not rights:
            continue
        for a in lefts:
            blocked = ext_right[a + u]
            for b in rights:
                if b not in blocked:
                    words.append(a + u + b)

    return MawSet(len(subject), alphabet, canonical_words(words))
