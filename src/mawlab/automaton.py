"""Suffix-automaton (DAWG) index and the fast MAW enumerator built on it.

The automaton is built online in the standard way: ``extend(symbols)`` appends
symbols to the subject, and the constructor is one ``extend`` of the whole
subject onto the automaton of the empty string, so extending the automaton of
S by alpha gives the automaton of S + alpha.

States are integer ids into parallel columns, with no object per state:

* ``states[q]`` is a ``str`` of q's out-symbols, in the order they were added;
* ``targets[q]`` is a tuple of the target ids, in the same order;
* ``max_len[q]`` is the length of q's longest word, ``link[q]`` its suffix
  link (``-1`` at the root 0), and ``end[q]`` one sample end position in the
  subject, so ``subject[end[q] - m : end[q]]`` is q's word of length m.  An
  extension leaves every sample position valid, since it only adds text after
  them.

A state's string and tuple are immutable, so a clone shares its original's,
and redirecting one transition rebuilds one tuple.  The columns hold only strings,
tuples of ints and ints, none of which refers to a container, so an automaton
has no reference cycle: reference counting frees it the moment it is dropped,
without waiting for the cyclic garbage collector.

MAW extraction rests on the factor-equivalence structure: a word a+u+b of
length >= 2 is a MAW exactly when a+u is the *shortest* word of some state q
(otherwise u sits in the same state and extends identically), u+b is a factor
(a b-transition exists from q's suffix link) and a+u+b is not (no b-transition
from q itself).  Scanning every state against its suffix link therefore yields
every MAW of length >= 2 exactly once.  ``maw_words`` returns them, with the
absent symbols, in scan order.  Every out-symbol of q is one of its link's, so
a state whose link has no more out-symbols than it has contributes nothing.

The scan reads out-symbols, suffix links, lengths and end positions, never a
transition.  :func:`scan_maws` is the one enumeration path: it builds the
automaton, frees its ``targets`` column, scans, and returns the list with the
automaton already dropped.  So its peak is the larger of the automaton alone
and the automaton without transitions plus one list of words.
:func:`enumerate_maws_fast` sorts that list in place.  Only a caller that
extends an automaton after scanning it (``slide.MawEngine.words_with_prefix``)
builds and scans one itself.
"""

from __future__ import annotations

from itertools import islice

from .core import Alphabet, canonical_words


class SuffixAutomaton:
    """Minimal automaton recognizing exactly the substrings of ``subject``."""

    def __init__(self, subject: str) -> None:
        self.subject = ""
        self.states: list[str] = [""]
        self.targets: list[tuple[int, ...]] = [()]
        self.max_len: list[int] = [0]
        self.link: list[int] = [-1]
        self.end: list[int] = [0]
        self.last = 0
        self.extend(subject)

    def extend(self, symbols: str) -> None:
        """Append ``symbols`` to the subject, updating the automaton online."""
        states, targets, max_len, link, end = self.states, self.targets, self.max_len, self.link, self.end
        last = self.last
        for i, ch in enumerate(symbols, len(self.subject) + 1):
            cur = len(states)
            states.append("")
            targets.append(())
            max_len.append(i)  # cur holds the whole i-symbol prefix, which ends at i
            end.append(i)
            p = last
            while p >= 0 and ch not in states[p]:
                states[p] += ch
                targets[p] += (cur,)
                p = link[p]
            if p < 0:
                link.append(0)
            else:
                q = targets[p][states[p].index(ch)]
                if max_len[q] == max_len[p] + 1:
                    link.append(q)
                else:
                    clone = cur + 1
                    link.append(clone)
                    states.append(states[q])
                    targets.append(targets[q])
                    max_len.append(max_len[p] + 1)
                    link.append(link[q])
                    end.append(end[q])
                    link[q] = clone
                    while p >= 0:
                        out = targets[p]
                        k = states[p].index(ch)
                        if out[k] != q:
                            break
                        targets[p] = out[:k] + (clone,) + out[k + 1 :]
                        p = link[p]
            last = cur
        self.subject += symbols
        self.last = last

    def maw_words(self, alphabet: Alphabet) -> list[str]:
        """Every MAW of the subject over ``alphabet``, unsorted."""
        subject, states, max_len = self.subject, self.states, self.max_len
        present = states[0]
        words: list[str] = [a for a in alphabet if a not in present]
        append = words.append
        for out, parent, e in islice(zip(states, self.link, self.end), 1, None):
            linked = states[parent]
            if len(linked) != len(out):
                stem = subject[e - max_len[parent] - 1 : e]
                for ch in linked:
                    if ch not in out:
                        append(stem + ch)
        return words


def scan_maws(subject: str, alphabet: Alphabet) -> list[str]:
    """Every MAW of ``subject`` over ``alphabet``, unsorted, from an automaton freed on return."""
    automaton = SuffixAutomaton(subject)
    automaton.targets.clear()
    return automaton.maw_words(alphabet)


def enumerate_maws_fast(subject: str, alphabet: Alphabet) -> tuple[str, ...]:
    """Same words, same canonical order as :func:`mawlab.oracle.enumerate_maws_naive`."""
    alphabet.require_text(subject)
    return canonical_words(scan_maws(subject, alphabet))
