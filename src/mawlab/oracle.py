"""Reference (brute-force) minimal-absent-word predicate and enumerator.

A word w is a minimal absent word (MAW) for a subject string S over an
alphabet when

  (A) w does not occur in S,
  (B) w[1:] occurs in S,
  (C) w[:-1] occurs in S,

where the empty string is deemed to occur in every subject, so a single
symbol absent from S is always a MAW.  This module implements the definition
literally and serves as ground truth for the automaton-based enumerator.

:func:`enumerate_maws_naive` tests factor pairs: a word a·u·b of length
l + 2 is a MAW exactly when a·u and u·b are factors and a·u·b is not.  It
builds the factor sets of S one length at a time and stops at the first
length at which no factor repeats, since the middle u of a MAW always occurs
twice in S.  A text's longest repeated factor is about 2·log_sigma(n) long on
random text, so the oracle holds three factor sets of about n words each,
not every substring of S.  :func:`is_maw` tests one word.
"""

from __future__ import annotations

from .core import Alphabet, InputError, canonical_words


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


def enumerate_maws_naive(subject: str, alphabet: Alphabet) -> tuple[str, ...]:
    """All MAWs in canonical order, found by testing factor pairs one middle length at a time.

    With F_l the set of factors of length l (F_0 = {""}), the MAWs of length
    l + 2 are the words x·b with x in F_{l+1}, x[1:]·b in F_{l+1} and x·b not
    in F_{l+2}.  Length-1 MAWs are the alphabet symbols absent from the
    subject; for the empty subject that is the whole alphabet.

    The loop stops at the first l >= 1 at which no factor of length l repeats
    (|F_l| = n - l + 1).  Lemma: the middle u of a MAW a·u·b occurs twice.
    If u occurred only at position i, then a·u would occur only at i - 1 and
    u·b only at i, so a·u·b would occur at i - 1.  A factor longer than l
    repeats only if its length-l prefix does, so no longer middle exists.
    """
    alphabet.require_text(subject)
    n = len(subject)
    middles: set[str] = {""}
    factors = set(subject)
    words: list[str] = [a for a in alphabet if a not in factors]

    for length in range(n):
        if len(middles) == n - length + 1:
            break
        longer = {subject[i : i + length + 2] for i in range(n - length - 1)}
        rights: dict[str, list[str]] = {}
        for y in factors:
            rights.setdefault(y[:-1], []).append(y[-1])
        for x in factors:
            for b in rights.get(x[1:], ()):
                word = x + b
                if word not in longer:
                    words.append(word)
        middles, factors = factors, longer

    return canonical_words(words)
