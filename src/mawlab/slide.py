"""Exact MAW-set change for one slide step, and totals over a whole text.

A step is either an append (window S gains a character alpha on the right) or
a delete (the leftmost character beta is removed).  A report is built from
the step's two differences, MAW(before) - MAW(after) and the reverse, alone:
only the changed words are sorted and, on a delete, reversed.  The
structural facts below are asserted on every step rather than assumed:

* an append deletes exactly one MAW;
* the added MAWs partition into three types by which maximal proper factor
  already occurred in S (neither / right only / left only);
* each Type-3 word maps injectively to the end of the leftmost occurrence of
  its long prefix in S, and that end is never the last window position (nor
  the first one when the extended window uses only two symbols).

Deletes are computed by the reversal reduction, which rests on
MAW(reverse S) = reverse(MAW(S)): the append analysis runs on the reversed
window with the reversed words of the two forward differences, and every
reported word is reversed back.  Type labels on a delete report are
therefore mirrored, with prefix and suffix roles swapped.

Where the differences come from.  ``append_delta`` and ``delete_delta`` take
literal set differences of two full MAW sets, on an engine name or on a
``MawEngine`` and its memo (every campaign).  A slide (``slide_steps`` and
``slide_totals`` alike) takes an engine name and runs one step kernel per
(d+1)-gram E, ``step(E, symbols of E, carry)``, which returns the step's
differences and the next step's carry.  On ``oracle`` it takes literal
differences and carries the next window's set, so a step enumerates E and
E[1:].  On ``automaton`` it builds no automaton and no full MAW set: it runs
``find`` tests on E and on reverse(E), nothing else of the text, and carries
its two L values (below).
For W, alpha and E = W + alpha, let L be the length of the longest suffix of
E that occurs in W (a suffix of an occurring word occurs, so the tests are
monotone in the length).  The words of E absent from W are exactly the
suffixes of E longer than L, and each of them occurs in E only at its end.

* Deleted: a MAW of W that occurs in E is such a suffix whose proper suffix
  occurs in W, so it is E[-(L+1):]; its proper prefix is a suffix of W, so
  it is a MAW of W.  Exactly one word.
* Added (A), a + u new to W: a + u = E[-k:] with k > L, which occurs in E
  only at its end, so a + u + b is absent from E for every b.  u + b must
  occur in E, and u can be followed by b only if u also occurs in W, so
  k = L + 1.  The words are E[-(L+1):] + b for each symbol b of E with
  E[-L:] + b occurring in E (E[-L:] is empty when L = 0).
* Added (B), u + b new to W: u + b = E[-k:] with k > L, so a + u + b
  occurs in E only as E's suffix and is absent exactly when a is not
  E[-(k+1)].  a + u must occur in E.  If it occurs only at E's end, E ends
  in a run of one symbol c and the word is E[-(L+1):] + c, which (A)
  already yields.  So it suffices to find a + u in W, where u is W's suffix
  of length k - 1.  As W's suffix, u is preceded by E[-(k+1)], so u must
  occur in W once more: it is a repeated suffix of W.  The loop over k stops
  at the first u that is not; no longer suffix is repeated either.
* Delete side: the same derivation on the reversed gram reverse(E), whose
  window is reverse(E[1:]) and whose appended symbol is E[0]; each word is
  reversed back once.
* Fused size: |MAW(W_i) ^ MAW(W_{i+1})| = |D_app ^ D_del| for the two
  steps' differences D, since (X ^ Y) ^ (Y ^ Z) = X ^ Z.

A derived step starts from the step before's L_i and mirror's L'_i: its L
is at most min(L_i + 1, d) and its mirror's at least max(L'_i - 1, 0).  The
first step starts from (d, 0), which bound nothing.  Write
E_i = T[i : i + d + 1] and W_i = E_i[:-1], so W_{i+1} = E_i[1:].

* L_{i+1} <= L_i + 1.  E_{i+1}'s suffix of length m = L_{i+1} occurs in
  W_{i+1} = T[i+1 : i+d+1]; drop the last symbol of that occurrence.  What
  is left is E_{i+1}'s suffix of length m without its last symbol, that is
  E_i's suffix of length m - 1, and it lies in T[i+1 : i+d], inside W_i.
  So L_i >= m - 1.  L is found by testing that bound and, if it fails,
  galloping down from it.
* L'_{i+1} >= L'_i - 1, where L'_i, the mirror's L, is the length of the
  longest prefix of E_i that occurs in E_i[1:].  That prefix occurs at some
  p >= i + 1 in T; drop its first symbol.  What is left is E_i[1 : L'_i],
  which is E_{i+1}'s prefix of length L'_i - 1, and it occurs at
  p + 1 >= i + 2, inside E_{i+1}[1:].  L' is found by galloping up from
  that bound.
* A gallop probes lengths at distance 1, 2, 4, ... from its bound, then
  binary-searches the last gap: a step whose L lies D away from its bound
  costs at most 1 + 2 log2(D + 1) tests, and never more than
  2 ceil(log2(d + 1)).  Over a slide of m = n - d steps the distances add up
  to at most n - 1 in either direction (each bound moves L by at most one
  from the step before, and L stays within 0..d), so by concavity a
  direction makes at most m + 2m log2(1 + (n - 1) / m) tests for L: O(1) per
  step when n >= 2d, O(log d) for a single step, where a fresh binary search
  made about log2(d + 1) on every step.
* r, the length of W's longest repeated suffix, is at least L - 1: E's
  suffix of length L occurs in W, so W's suffix of length L - 1 occurs
  before W's end.  The (B) loop tests every length from L up and stops at
  the first that is not repeated, so r is read off where it stops.  The
  mirror loop gives r for the reversed shrunken window.
* sigma(W_i), sigma(E_i), sigma(W_{i+1}) and E_i's symbols come from one
  count of symbols that slides with the window: O(1) per step.

A step costs O(1) amortized ``find`` calls for L when n >= 2d (never more
than 2 ceil(log2(d + 1))) plus at most sigma_E * (r - L + 2) + 1 for the added
words, each scanning at most d + 1 symbols.  On this path the one-deletion count
holds by construction, so the reports still assert it but the evidence for
it comes from the literal differences.

Both kinds of source feed the same report builders, which take r and the
sigma counts from their caller (``append_delta`` and ``delete_delta``
compute them from their window).  A builder sorts its multi-word side once
(``canonical_words``), then one pass over the sorted words judges each with
``classify_added`` and collects the judged Type-3 words in that order, and
``type3_injection`` checks those words as given, with no second sort.  On a
delete the judged words are the mirror words, so they come in the order of
their forward words.  A report is a ``NamedTuple``, as a verdict is.

The two window statistics of the prior per-step bound (Crochemore et al.,
Inf. Comput. 2020), for an append of alpha to W:

* ``ext_len`` = len(deleted word) - 2.  The one deleted MAW is x + u + alpha, with
  u the longest suffix of W that has an inner occurrence followed by alpha; an
  absent alpha deletes the word ``alpha`` itself, giving -1.
* ``repeat_len`` = the length of the longest suffix of W that also occurs in
  W[:-1], that is L of W read as a gram, so literal differences find it by
  the gallop for L; a derived step reads it off its (B) loop.  It equals
  max(0, len(w) - 2 over w in MAW(W) with W ending in w[:-1]): for each
  symbol c exactly one MAW of W is (suffix of W) + c, and its length minus 2
  is the longest suffix followed by c inside W.

A delete report keeps the values of its mirror append, which are the
prefix-side statistics of the shrunken window with the deleted symbol.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    Alphabet,
    ConsistencyError,
    InputError,
    TheoremViolationError,
    canonical_words,
)
from .automaton import SuffixAutomaton, enumerate_maws_fast
from .oracle import enumerate_maws_naive


class MawType(IntEnum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3

    @property
    def label(self) -> str:
        return f"m{self.value}"


# The members as module globals: reading a member off an enum class is slow on Python 3.11.
_TYPE1, _TYPE2, _TYPE3 = MawType

_ENUMERATORS = {
    "automaton": enumerate_maws_fast,
    "oracle": enumerate_maws_naive,
}


def _enumerator(engine: str, alphabet: Alphabet) -> Callable[[str], tuple[str, ...]]:
    """MAW words of a subject on the engine named ``engine``, with no memo."""
    if engine not in _ENUMERATORS:
        raise InputError(f"unknown engine {engine!r}; expected one of {sorted(_ENUMERATORS)}")
    enumerate_ = _ENUMERATORS[engine]
    return lambda subject: enumerate_(subject, alphabet).words


class MawEngine:
    """Memoised MAW words for one alphabet with a selectable backend.

    On the automaton backend a subject's words are kept as the automaton scan
    gives them, in no particular order; on the oracle they are canonical.
    Subjects are not checked against the alphabet: callers pass validated text.
    """

    def __init__(self, alphabet: Alphabet, engine: str = "automaton") -> None:
        self.alphabet = alphabet
        self._automaton = engine == "automaton"
        self._enumerate = self._scan if self._automaton else _enumerator(engine, alphabet)
        self._cache: dict[str, tuple[str, ...]] = {}

    def words(self, subject: str) -> tuple[str, ...]:
        got = self._cache.get(subject)
        if got is None:
            got = self._cache[subject] = self._enumerate(subject)
        return got

    def words_with_prefix(self, subject: str) -> None:
        """Memoise the words of ``subject[:-1]`` and ``subject`` (non-empty).

        On the automaton backend both come from one automaton, built for the
        prefix and extended by the last symbol, unless either is memoised.
        """
        cache, prefix = self._cache, subject[:-1]
        if not self._automaton or prefix in cache or subject in cache:
            self.words(prefix)
            self.words(subject)
            return
        automaton = SuffixAutomaton(prefix)
        cache[prefix] = tuple(automaton.maw_words(self.alphabet))
        automaton.extend(subject[-1])
        cache[subject] = tuple(automaton.maw_words(self.alphabet))

    def _scan(self, subject: str) -> tuple[str, ...]:
        return tuple(SuffixAutomaton(subject).maw_words(self.alphabet))

    def clear(self) -> None:
        self._cache.clear()


def _step_words(engine: str | MawEngine, alphabet: Alphabet) -> Callable[[str], tuple[str, ...]]:
    """MAW words of a subject for a single step: a caller's engine keeps its memo, an engine name gets none."""
    if not isinstance(engine, MawEngine):
        return _enumerator(engine, alphabet)
    if engine.alphabet.symbols != alphabet.symbols:
        raise ConsistencyError("engine alphabet does not match the requested alphabet")
    return engine.words


class DeltaReport(NamedTuple):
    """Full record of one slide step, immutable like every tuple.

    ``d`` and ``sigma_window`` always refer to the short (length-d) window of
    the step, and ``sigma_ext`` to the extended (d+1)-length string, for both
    directions; every bound formula is stated in those terms.  ``deleted`` and
    ``added`` are relative to the step's before -> after evolution, so on a
    delete the added side is the singleton.  ``added_by_type`` partitions the
    multi-word side (the added words on an append, the mirrored classification
    of the removed words on a delete).

    ``repeat_len`` (s) is the length of the longest suffix of the short window
    that occurs twice in it, and ``ext_len`` (s_alpha) that of the longest
    suffix with an inner occurrence followed by the appended symbol, -1 when
    that symbol is absent from the window.  On a delete both are the
    prefix-side mirrors on the shrunken window, with the deleted symbol
    preceding.  The module docstring sets out how both are derived.
    """

    direction: str
    before: str
    after: str
    d: int
    sigma_window: int
    sigma_ext: int
    deleted: tuple[str, ...]
    added: tuple[str, ...]
    added_by_type: Mapping[MawType, tuple[str, ...]]
    injection_witness: Mapping[str, int]
    repeat_len: int
    ext_len: int

    @property
    def delta_size(self) -> int:
        return len(self.deleted) + len(self.added)

    @property
    def type_counts(self) -> tuple[int, int, int]:
        by_type = self.added_by_type
        return len(by_type[_TYPE1]), len(by_type[_TYPE2]), len(by_type[_TYPE3])

    def to_payload(self, verdicts: Iterable = ()) -> dict:
        """The report as JSON-ready data, with the caller's ``verdicts`` on it (see ``bounds.check_step``).

        This is the reference schema of a ``slide --per-step`` report.  The CLI
        renders the same text directly from the report and its verdicts
        without building this dict; the tests hold the two to the same bytes.
        """
        return {
            "direction": self.direction,
            "before": self.before,
            "after": self.after,
            "d": self.d,
            "sigma_window": self.sigma_window,
            "sigma_ext": self.sigma_ext,
            "deleted": list(self.deleted),
            "added": list(self.added),
            "added_by_type": {t.label: list(ws) for t, ws in self.added_by_type.items()},
            "injection_witness": dict(sorted(self.injection_witness.items())),
            "delta": self.delta_size,
            "verdicts": [v.to_payload() for v in verdicts],
        }


def classify_added(word: str, pre_window: str) -> MawType:
    """Type of a MAW newly created by an append, judged against the pre-append window.

    Type 1: neither ``word[1:]`` nor ``word[:-1]`` occurs in the window;
    Type 2: only ``word[1:]`` occurs;  Type 3: only ``word[:-1]`` occurs.
    A length-1 word has both proper parts empty and is Type 1 by the run-word
    convention.  Both parts occurring means the word was already a MAW before
    the append, so it cannot be an added one.
    """
    if len(word) == 1:
        return _TYPE1
    suffix_occurs = word[1:] in pre_window
    prefix_occurs = word[:-1] in pre_window
    if suffix_occurs and prefix_occurs:
        raise ConsistencyError(
            f"{word!r} has both proper parts occurring in {pre_window!r}; it is not an added MAW"
        )
    if suffix_occurs:
        return _TYPE2
    if prefix_occurs:
        return _TYPE3
    return _TYPE1


def type3_injection(m3: list[str] | tuple[str, ...], pre_window: str) -> dict[str, int]:
    """Map each Type-3 word to the 0-based end of the leftmost occurrence of its long prefix.

    Asserts the map is injective with range within [0, d-2], and within
    [1, d-2] when the extended window uses exactly two distinct symbols.
    Violations raise :class:`TheoremViolationError` (campaign-level alarm).
    The words are checked in the order given, with no sort: a report passes
    them in the order of its sorted word list, and an error names the first
    offending word in that order.
    """
    if not m3:
        return {}
    d = len(pre_window)
    mapping: dict[str, int] = {}
    used: dict[int, str] = {}
    alpha = m3[0][-1]
    for word in m3:
        if word[-1] != alpha:
            raise ConsistencyError("Type-3 words of one step must share their final symbol")
        prefix = word[:-1]
        pos = pre_window.find(prefix)
        if pos < 0:
            raise ConsistencyError(f"{word!r} is not Type 3 for window {pre_window!r}")
        end = pos + len(prefix) - 1
        if end > d - 2:
            raise TheoremViolationError(
                f"Type-3 witness end {end} reaches the last window position: "
                f"word {word!r}, window {pre_window!r}"
            )
        clash = used.get(end)
        if clash is not None:
            raise TheoremViolationError(
                f"Type-3 injection collision at position {end}: {clash!r} vs {word!r} "
                f"in window {pre_window!r}"
            )
        used[end] = word
        mapping[word] = end

    # Only a witness at position 0 can break the two-symbol range, so count symbols only then.
    if d >= 3 and min(mapping.values()) < 1 and len(set(pre_window) | {alpha}) == 2:
        raise TheoremViolationError(
            f"Type-3 witness uses the first window position in the two-symbol regime: "
            f"window {pre_window!r}, mapping {mapping}"
        )
    return mapping


def _repeat_len(window: str) -> int:
    """Length of the longest suffix of ``window`` that also occurs in ``window[:-1]``: L of ``window`` as a gram."""
    return _longest_suffix(window, 0, len(window) - 1, True)


def _not_one_deleted(deleted: Iterable[str], window: str, alpha: str) -> TheoremViolationError:
    """The error for an append of ``alpha`` to ``window`` that did not delete exactly one MAW."""
    deleted = canonical_words(deleted)
    return TheoremViolationError(
        f"append must delete exactly one MAW, got {len(deleted)}: "
        f"window {window!r} + {alpha!r}, deleted {deleted}"
    )


def _by_type(
    words: tuple[str, ...], judged: Iterable[str], window: str
) -> tuple[dict[MawType, tuple[str, ...]], list[str]]:
    """``words`` split by the type of the parallel ``judged`` words as added to ``window``, and the judged Type-3 words.

    One pass in the order of ``words``, which every list keeps.
    """
    m1: list[str] = []
    m2: list[str] = []
    m3: list[str] = []
    judged3: list[str] = []
    for word, judged_word in zip(words, judged):
        kind = classify_added(judged_word, window)
        if kind is _TYPE3:
            m3.append(word)
            judged3.append(judged_word)
        elif kind is _TYPE2:
            m2.append(word)
        else:
            m1.append(word)
    return {_TYPE1: tuple(m1), _TYPE2: tuple(m2), _TYPE3: tuple(m3)}, judged3


def _append_report(
    window: str, alpha: str, deleted: Collection[str], added: Collection[str],
    sigma_window: int, sigma_ext: int, repeat_len: int,
) -> DeltaReport:
    """Report for appending ``alpha`` to ``window``.

    ``deleted`` is MAW(window) - MAW(window + alpha) and ``added`` the reverse
    difference; the sigma counts of ``window`` and ``window + alpha`` and the
    window's ``repeat_len`` come from the caller.
    """
    if len(deleted) != 1:
        raise _not_one_deleted(deleted, window, alpha)
    deleted = tuple(deleted)
    added = canonical_words(added)
    by_type, m3 = _by_type(added, added, window)
    return DeltaReport(  # positional, in field order: half the cost of keywords
        "append", window, window + alpha, len(window), sigma_window, sigma_ext, deleted, added, by_type,
        type3_injection(m3, window), repeat_len, len(deleted[0]) - 2,
    )


def _delete_report(
    window: str, mirror: str, gained: Collection[str], removed: Mapping[str, str],
    sigma_window: int, sigma_ext: int, repeat_len: int,
) -> DeltaReport:
    """Report for deleting ``window[0]``; ``mirror`` is ``window[::-1]``.

    ``gained`` is MAW(window[1:]) - MAW(window), and ``removed`` maps each word
    of the reverse difference to its reversal.  The report is the mirror
    append of ``window[0]`` to the reversed shrunken window ``mirror[:-1]``,
    which deletes the reversal of the gained word and adds the reversals of
    the removed ones: its checks and types are judged on those mirror words,
    and its sigma counts (of ``window[1:]`` and ``window``) and ``repeat_len``
    (of the reversed shrunken window) come from the caller.
    """
    mirror_window = mirror[:-1]
    if len(gained) != 1:
        raise _not_one_deleted((w[::-1] for w in gained), mirror_window, window[0])
    gained = tuple(gained)
    deleted = canonical_words(removed)
    by_type, mirror_m3 = _by_type(deleted, map(removed.__getitem__, deleted), mirror_window)
    mapping = type3_injection(mirror_m3, mirror_window)
    last = len(mirror_window) - 1
    witness = {w: last - mapping[m] for w, m in zip(by_type[_TYPE3], mirror_m3)}
    return DeltaReport(  # positional, in field order
        "delete", window, window[1:], len(mirror_window), sigma_window, sigma_ext, deleted, gained, by_type,
        witness, repeat_len, len(gained[0]) - 2,
    )


def append_delta(
    window: str,
    alpha: str,
    alphabet: Alphabet,
    engine: str | MawEngine = "automaton",
) -> DeltaReport:
    """Delta report for appending ``alpha`` to ``window``."""
    if not window:
        raise InputError("append step needs a non-empty window")
    alphabet.require_text(window)
    alphabet.require_symbol(alpha)
    words = _step_words(engine, alphabet)
    before, after = set(words(window)), set(words(window + alpha))
    sigma_window = len(set(window))
    return _append_report(
        window, alpha, before - after, after - before,
        sigma_window, sigma_window + (alpha not in window), _repeat_len(window),
    )


def delete_delta(
    window: str,
    alphabet: Alphabet,
    engine: str | MawEngine = "automaton",
) -> DeltaReport:
    """Delta report for deleting the leftmost character of ``window``.

    Computed by the reversal reduction on the forward MAW sets of ``window``
    and ``window[1:]``.  The reported injection witness maps each mirrored
    Type-3 word to the 0-based start of the rightmost occurrence of
    ``word[1:]`` in the shrunken window.
    """
    if len(window) < 2:
        raise InputError("delete step needs a window of length >= 2")
    alphabet.require_text(window)
    words = _step_words(engine, alphabet)
    kept, mirror = window[1:], window[::-1]
    before, after = set(words(window)), set(words(kept))
    return _delete_report(
        window, mirror, after - before, {w: w[::-1] for w in before - after},
        len(set(kept)), len(set(window)), _repeat_len(mirror[:-1]),
    )


@dataclass(frozen=True)
class SlideSummary:
    """Per-step symmetric-difference sizes for a full left-to-right slide."""

    text_length: int
    d: int
    per_step: tuple[int, ...]
    sigma_max_window: int

    @property
    def total(self) -> int:
        return sum(self.per_step)

    def to_payload(self) -> dict:
        return {
            "n": self.text_length,
            "d": self.d,
            "per_step": list(self.per_step),
            "total": self.total,
            "sigma_max_window": self.sigma_max_window,
            "tightness_ratio": {
                "numerator": self.total,
                "denominator": (self.text_length - self.d) * min(self.d, self.sigma_max_window),
            },
        }


def _slide_source(text: str, d: int, alphabet: Alphabet, engine: str) -> tuple[Callable[..., tuple], object]:
    """Check a slide's input; return its step kernel and its first step's carry (see :func:`_step_differences`)."""
    n = len(text)
    if not 1 <= d < n:
        raise InputError(f"window length must satisfy 1 <= d < n, got d={d}, n={n}")
    alphabet.require_text(text)
    if engine == "automaton":
        return _derived_step, (d, 0)
    words = _enumerator(engine, alphabet)
    return partial(_literal_step, words), set(words(text[:d]))


def _sliding_sigmas(text: str, d: int) -> Iterator[tuple[Counter[str], int, int, int]]:
    """Per step i: the symbol counts of E_i = ``text[i : i + d + 1]``, sigma(W_i), sigma(E_i) and sigma(W_{i+1}).

    One count slides with the window, so a step costs O(1).  The next step
    changes the counts in place.
    """
    counts = Counter(text[:d])
    for i in range(len(text) - d):
        alpha, beta = text[i + d], text[i]
        counts[alpha] += 1
        sigma_ext = len(counts)
        yield counts, sigma_ext - (counts[alpha] == 1), sigma_ext, sigma_ext - (counts[beta] == 1)
        if counts[beta] == 1:
            del counts[beta]
        else:
            counts[beta] -= 1


def _longest_suffix(ext: str, lo: int, hi: int, upward: bool) -> int:
    """L, the length of the longest suffix of the gram ``ext`` that occurs in ``ext[:-1]``, known to lie in [lo, hi].

    Galloping from ``lo`` when ``upward``, else from ``hi``, brackets L, and a
    binary search finds it in the bracket; the module docstring bounds the tests.
    """
    d = len(ext) - 1
    gap = 1
    if upward:
        while lo < hi:
            m = min(lo + gap, hi)
            if ext.find(ext[-m:], 0, d) < 0:
                hi = m - 1
                break
            lo = m
            gap += gap
    else:
        while lo < hi:
            m = max(hi - gap + 1, lo + 1)
            if ext.find(ext[-m:], 0, d) >= 0:
                lo = m
                break
            hi = m - 1
            gap += gap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ext.find(ext[-mid:], 0, d) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _append_change(ext: str, symbols: Iterable[str], L: int) -> tuple[str, set[str], int]:
    """The one word of MAW(W) - MAW(E), MAW(E) - MAW(W), and r, the length of W's longest repeated suffix.

    E is the gram ``ext`` and W = E[:-1]; ``symbols`` are the symbols of E and
    ``L`` is the length of E's longest suffix that occurs in W.  Every test is
    a ``find`` on E; the module docstring derives the rules.
    """
    d = len(ext) - 1
    deleted = ext[d - L :]
    stem = ext[d + 1 - L :]
    added = {deleted + b for b in symbols if ext.find(stem + b) >= 0}
    for k in range(L + 1, d + 1):
        u = ext[d + 1 - k : d]  # W's suffix of length k - 1
        if k >= 2 and ext.find(u, 0, d - 1) < 0:
            return deleted, added, k - 2  # u is not a repeated suffix of W, and no longer suffix is
        tail = ext[d + 1 - k :]
        before = ext[d - k]
        for a in symbols:
            if a != before and ext.find(a + u, 0, d) >= 0:
                added.add(a + tail)
    return deleted, added, d - 1


def _derived_step(ext: str, symbols: Iterable[str], carry: tuple[int, int]) -> tuple:
    """Both directions of the step whose (d+1)-gram is ``ext``, from ``find`` tests on the gram and its reversal.

    ``symbols`` are the symbols of ``ext`` and ``carry`` is the step before's
    (L, mirror's L), or (d, 0); L is the length of the longest suffix of
    ``ext`` that occurs in ``ext[:-1]``, the mirror's L the same for
    ``ext[::-1]``.  Returns ``ext[::-1]``, the six differences and r values
    that :func:`_step_differences` yields, and this step's (L, mirror's L).
    """
    d = len(ext) - 1
    mirror = ext[::-1]
    L, mirror_L = carry
    L = _longest_suffix(ext, 0, min(L + 1, d), False)
    gone, new, r = _append_change(ext, symbols, L)
    mirror_L = _longest_suffix(mirror, max(mirror_L - 1, 0), d, True)
    mirror_gone, mirror_new, mirror_r = _append_change(mirror, symbols, mirror_L)
    return mirror, (gone,), new, r, (mirror_gone[::-1],), {w[::-1]: w for w in mirror_new}, mirror_r, (L, mirror_L)


def _literal_step(words: Callable[[str], tuple[str, ...]], ext: str, symbols: object, before: set[str]) -> tuple:
    """:func:`_derived_step`'s output from literal differences of ``words``' sets; it carries MAW(``ext[1:]``)."""
    ext_words, after = set(words(ext)), set(words(ext[1:]))
    return (
        ext[::-1], before - ext_words, ext_words - before, _repeat_len(ext[:-1]),
        after - ext_words, {w: w[::-1] for w in ext_words - after}, _repeat_len(ext[:0:-1]), after,
    )


def _step_differences(text: str, d: int, step: Callable[..., tuple], carry: object) -> Iterator[tuple]:
    """Per step i, with E_i = ``text[i : i + d + 1]``, W_i = E_i[:-1] and W_{i+1} = E_i[1:]:

    E_i, its reversal, MAW(W_i) - MAW(E_i), MAW(E_i) - MAW(W_i), r(W_i),
    MAW(W_{i+1}) - MAW(E_i), MAW(E_i) - MAW(W_{i+1}) as a dict from each word
    to its reversal, r(reverse W_{i+1}), sigma(W_i), sigma(E_i) and
    sigma(W_{i+1}); r is the length of a window's longest repeated suffix.

    The kernel ``step`` and the first ``carry`` come from :func:`_slide_source`;
    ``step(E_i, symbols of E_i, carry)`` returns E_i's reversal, the six
    differences and r values above, and the next step's carry.
    """
    for i, (symbols, *sigma) in enumerate(_sliding_sigmas(text, d)):
        ext = text[i : i + d + 1]
        *differences, carry = step(ext, symbols, carry)
        yield ext, *differences, *sigma


def _fused_size(gone: Collection[str], new: Collection[str], gained: Collection[str], removed: Collection[str]) -> int:
    """|MAW(W_i) ^ MAW(W_{i+1})| from one step's four differences: (X ^ Y) ^ (Y ^ Z) = X ^ Z."""
    return len({*gone, *new} ^ {*gained, *removed})


def slide_totals(
    text: str,
    d: int,
    alphabet: Alphabet,
    engine: str = "automaton",
) -> SlideSummary:
    """Sizes of MAW(T[i..i+d)) symmetric-difference MAW(T[i+1..i+d+1)) for all i.

    Read off each step's differences (see :func:`_step_differences`), with
    the largest window sigma from the sliding symbol counts.
    """
    sizes = []
    sigma_max = 0
    for _, _, gone, new, _, gained, removed, _, sigma_w, _, sigma_next in _step_differences(
        text, d, *_slide_source(text, d, alphabet, engine)
    ):
        sizes.append(_fused_size(gone, new, gained, removed))
        sigma_max = max(sigma_max, sigma_w, sigma_next)
    return SlideSummary(len(text), d, tuple(sizes), sigma_max)


def slide_steps(
    text: str,
    d: int,
    alphabet: Alphabet,
    engine: str = "automaton",
) -> Iterator[tuple[int, DeltaReport, DeltaReport]]:
    """Yield ``(fused size, append report, delete report)`` for every step of a slide.

    Step i appends to W_i = ``text[i : i + d]`` and deletes the leftmost
    character of E_i = ``text[i : i + d + 1]``.  The engine name
    ``automaton`` builds no automaton and no full MAW set; ``oracle``
    enumerates each string once and holds only one step's sets.  The input is
    checked when this is called, before the first step.
    """
    return _slide_reports(text, d, *_slide_source(text, d, alphabet, engine))


def _slide_reports(
    text: str, d: int, step: Callable[..., tuple], carry: object
) -> Iterator[tuple[int, DeltaReport, DeltaReport]]:
    steps = _step_differences(text, d, step, carry)
    for ext, mirror, gone, new, r, gained, removed, mirror_r, sigma_w, sigma_e, sigma_next in steps:
        yield (
            _fused_size(gone, new, gained, removed),
            _append_report(ext[:-1], ext[-1], gone, new, sigma_w, sigma_e, r),
            _delete_report(ext, mirror, gained, removed, sigma_next, sigma_e, mirror_r),
        )
