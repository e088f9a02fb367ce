"""Suffix-automaton (DAWG) index and the fast MAW enumerator built on it.

The automaton is built online in the standard way: ``extend(symbols)`` appends
symbols to the subject, and the constructor is one ``extend`` of the whole
subject onto the automaton of the empty string, so extending the automaton of
S by alpha gives the automaton of S + alpha.  Each state keeps, besides the
transition map, suffix link and maximum substring length, one sample end
position in the subject, which lets us reconstruct the shortest word of the
state in O(1) as a slice of the subject.  An extension leaves every sample
position valid, since it only adds text after them.

MAW extraction rests on the factor-equivalence structure: a word a+u+b of
length >= 2 is a MAW exactly when a+u is the *shortest* word of some state q
(otherwise u sits in the same state and extends identically), u+b is a factor
(a b-transition exists from q's suffix link) and a+u+b is not (no b-transition
from q itself).  Scanning every state against its suffix link therefore yields
every MAW of length >= 2 exactly once; ``maw_words`` returns them, with the
absent symbols, in scan order, and :func:`enumerate_maws_fast` sorts them.
"""

from __future__ import annotations

from .core import Alphabet, canonical_words
from .oracle import MawSet


class _State:
    __slots__ = ("max_len", "link", "trans", "end")

    def __init__(self, max_len: int, link: "_State | None", end: int) -> None:
        self.max_len = max_len
        self.link = link
        self.trans: dict[str, _State] = {}
        self.end = end  # sample end position: subject[end - max_len : end] is the longest word


class SuffixAutomaton:
    """Minimal automaton recognizing exactly the substrings of ``subject``."""

    def __init__(self, subject: str) -> None:
        self.subject = ""
        self.states: list[_State] = [_State(0, None, 0)]
        self.last = self.states[0]
        self.extend(subject)

    def extend(self, symbols: str) -> None:
        """Append ``symbols`` to the subject, updating the automaton online."""
        states = self.states
        root = states[0]
        last = self.last
        for i, ch in enumerate(symbols, len(self.subject) + 1):
            cur = _State(last.max_len + 1, None, i)
            states.append(cur)
            p = last
            while p is not None and ch not in p.trans:
                p.trans[ch] = cur
                p = p.link
            if p is None:
                cur.link = root
            else:
                q = p.trans[ch]
                if q.max_len == p.max_len + 1:
                    cur.link = q
                else:
                    clone = _State(p.max_len + 1, q.link, q.end)
                    clone.trans = dict(q.trans)
                    states.append(clone)
                    q.link = clone
                    cur.link = clone
                    while p is not None and p.trans.get(ch) is q:
                        p.trans[ch] = clone
                        p = p.link
            last = cur
        self.subject += symbols
        self.last = last

    @property
    def state_count(self) -> int:
        return len(self.states)

    def maw_words(self, alphabet: Alphabet) -> list[str]:
        """Every MAW of the subject over ``alphabet``, unsorted."""
        subject = self.subject
        states = self.states
        present = states[0].trans
        words: list[str] = [a for a in alphabet if a not in present]
        for state in states[1:]:
            link = state.link
            assert link is not None
            shortest_len = link.max_len + 1
            stem = subject[state.end - shortest_len : state.end]
            trans = state.trans
            for ch in link.trans:
                if ch not in trans:
                    words.append(stem + ch)
        return words


def enumerate_maws_fast(subject: str, alphabet: Alphabet) -> MawSet:
    """Same set, same canonical order as :func:`mawlab.oracle.enumerate_maws_naive`."""
    alphabet.require_text(subject)
    words = SuffixAutomaton(subject).maw_words(alphabet)
    return MawSet(len(subject), alphabet, canonical_words(words))
