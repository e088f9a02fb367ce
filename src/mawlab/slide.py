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
literal set differences of two full MAW sets on every engine.  A slide
(``slide_steps`` and ``slide_totals`` alike) reads every step off one source
of differences: literal ones on the oracle or on any ``MawEngine`` (every
campaign), derived ones on the engine name ``automaton``, which builds no
automaton and no full MAW set but runs ``find`` tests bounded to the
extended window.
For W, alpha and E = W + alpha, let L be the length of the longest suffix of
E that occurs in W (a suffix of an occurring word occurs, so a binary search
finds L).  The words of E absent from W are exactly the suffixes of E longer
than L, and each of them occurs in E only at its end.

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
* Delete side: the same derivation on the text reversed once per slide,
  for the window reverse(E[1:]) and the appended symbol E[0]; the words are
  reversed back.
* Fused size: |MAW(W_i) ^ MAW(W_{i+1})| = |D_app ^ D_del| for the two
  steps' differences D, since (X ^ Y) ^ (Y ^ Z) = X ^ Z.

A step costs O(log d + sigma_E * (r - L + 2)) C-level ``find`` calls, r being
the length of W's longest repeated suffix.  On this path the one-deletion
count holds by construction, so the reports still assert it but the evidence
for it comes from the literal differences.

The two window statistics of the prior per-step bound (Crochemore et al.,
Inf. Comput. 2020), for an append of alpha to W:

* ``ext_len`` = len(deleted word) - 2.  The one deleted MAW is x + u + alpha, with
  u the longest suffix of W that has an inner occurrence followed by alpha; an
  absent alpha deletes the word ``alpha`` itself, giving -1.
* ``repeat_len`` = the length of the longest suffix of W that also occurs in
  W[:-1].  A suffix of a repeated suffix is repeated too, so the length is
  found by a binary search over ``in`` tests.  It equals max(0, len(w) - 2
  over w in MAW(W) with W ending in w[:-1]): for each symbol c exactly one
  MAW of W is (suffix of W) + c, and its length minus 2 is the longest suffix
  followed by c inside W.

A delete report keeps the values of its mirror append, which are the
prefix-side statistics of the shrunken window with the deleted symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Iterator, Mapping

from .core import (
    Alphabet,
    ConsistencyError,
    InputError,
    TheoremViolationError,
    canonical_words,
)
from .automaton import enumerate_maws_fast
from .oracle import enumerate_maws_naive


class MawType(IntEnum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3

    @property
    def label(self) -> str:
        return f"m{self.value}"


_ENUMERATORS = {
    "automaton": enumerate_maws_fast,
    "oracle": enumerate_maws_naive,
}


def _enumerator(engine: str | MawEngine, alphabet: Alphabet) -> Callable[[str], tuple[str, ...]]:
    """MAW words of a subject: a caller's engine keeps its memo, an engine name gets none."""
    if isinstance(engine, MawEngine):
        if engine.alphabet.symbols != alphabet.symbols:
            raise ConsistencyError("engine alphabet does not match the requested alphabet")
        return engine.words
    if engine not in _ENUMERATORS:
        raise InputError(f"unknown engine {engine!r}; expected one of {sorted(_ENUMERATORS)}")
    enumerate_ = _ENUMERATORS[engine]
    return lambda subject: enumerate_(subject, alphabet).words


class MawEngine:
    """Cached MAW enumeration for one alphabet with a selectable backend."""

    def __init__(self, alphabet: Alphabet, engine: str = "automaton") -> None:
        self.alphabet = alphabet
        self._enumerate = _enumerator(engine, alphabet)
        self._cache: dict[str, tuple[str, ...]] = {}

    def words(self, subject: str) -> tuple[str, ...]:
        got = self._cache.get(subject)
        if got is None:
            got = self._cache[subject] = self._enumerate(subject)
        return got


@dataclass(frozen=True)
class DeltaReport:
    """Full record of one slide step.

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
        return len(by_type[MawType.TYPE1]), len(by_type[MawType.TYPE2]), len(by_type[MawType.TYPE3])

    @property
    def alpha_occurs(self) -> bool:
        """True when the step's new/removed character already occurs in the short window."""
        return self.sigma_window == self.sigma_ext

    def to_payload(self, verdicts: Iterable = ()) -> dict:
        """The report as JSON-ready data, with the caller's ``verdicts`` on it (see ``bounds.check_step``)."""
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
        return MawType.TYPE1
    suffix_occurs = word[1:] in pre_window
    prefix_occurs = word[:-1] in pre_window
    if suffix_occurs and prefix_occurs:
        raise ConsistencyError(
            f"{word!r} has both proper parts occurring in {pre_window!r}; it is not an added MAW"
        )
    if suffix_occurs:
        return MawType.TYPE2
    if prefix_occurs:
        return MawType.TYPE3
    return MawType.TYPE1


def type3_injection(m3: list[str] | tuple[str, ...], pre_window: str) -> dict[str, int]:
    """Map each Type-3 word to the 0-based end of the leftmost occurrence of its long prefix.

    Asserts the map is injective with range within [0, d-2], and within
    [1, d-2] when the extended window uses exactly two distinct symbols.
    Violations raise :class:`TheoremViolationError` (campaign-level alarm).
    """
    d = len(pre_window)
    mapping: dict[str, int] = {}
    used: dict[int, str] = {}
    alpha: str | None = None
    for word in canonical_words(m3):
        if alpha is None:
            alpha = word[-1]
        elif word[-1] != alpha:
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

    if mapping:
        sigma_ext = len(set(pre_window) | {alpha})
        if sigma_ext == 2 and d >= 3 and min(mapping.values()) < 1:
            raise TheoremViolationError(
                f"Type-3 witness uses the first window position in the two-symbol regime: "
                f"window {pre_window!r}, mapping {mapping}"
            )
    return mapping


def _repeat_len(window: str) -> int:
    """Length of the longest suffix of ``window`` that also occurs in ``window[:-1]``."""
    head = window[:-1]
    lo, hi = 0, len(head)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if window[-mid:] in head:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _append_fields(window: str, alpha: str, deleted_words: Iterable[str], added_words: Iterable[str]) -> dict:
    """Fields of the report for appending ``alpha`` to ``window``, from MAW(window) - MAW(window + alpha) and the reverse difference."""
    deleted = canonical_words(deleted_words)
    added = canonical_words(added_words)
    if len(deleted) != 1:
        raise TheoremViolationError(
            f"append must delete exactly one MAW, got {len(deleted)}: "
            f"window {window!r} + {alpha!r}, deleted {deleted}"
        )

    buckets: dict[MawType, list[str]] = {t: [] for t in MawType}
    for word in added:
        buckets[classify_added(word, window)].append(word)
    by_type = {t: tuple(ws) for t, ws in buckets.items()}

    return {
        "before": window,
        "after": window + alpha,
        "d": len(window),
        "sigma_window": len(set(window)),
        "sigma_ext": len(set(window) | {alpha}),
        "deleted": deleted,
        "added": added,
        "added_by_type": by_type,
        "injection_witness": type3_injection(by_type[MawType.TYPE3], window),
        "repeat_len": _repeat_len(window),
        "ext_len": len(deleted[0]) - 2,
    }


def _append_report(window: str, alpha: str, deleted_words: Iterable[str], added_words: Iterable[str]) -> DeltaReport:
    return DeltaReport(direction="append", **_append_fields(window, alpha, deleted_words, added_words))


def _reversed_words(words: Iterable[str]) -> tuple[str, ...]:
    return canonical_words(w[::-1] for w in words)


def _delete_report(window: str, deleted_words: Iterable[str], added_words: Iterable[str]) -> DeltaReport:
    """Report for deleting ``window[0]``, from MAW(window) - MAW(window[1:]) and the reverse difference.

    The mirror appends ``window[0]`` to the reversed shrunken window, so it
    deletes the reversed added words and adds the reversed deleted ones; its
    d, sigma counts and window statistics carry over unchanged.
    """
    beta, kept = window[0], window[1:]
    mirror = _append_fields(kept[::-1], beta, (w[::-1] for w in added_words), (w[::-1] for w in deleted_words))
    mirror.update(
        before=window,
        after=kept,
        deleted=_reversed_words(mirror["added"]),
        added=_reversed_words(mirror["deleted"]),
        added_by_type={t: _reversed_words(ws) for t, ws in mirror["added_by_type"].items()},
        injection_witness={w[::-1]: len(kept) - 1 - e for w, e in mirror["injection_witness"].items()},
    )
    return DeltaReport(direction="delete", **mirror)


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
    words = _enumerator(engine, alphabet)
    before, after = set(words(window)), set(words(window + alpha))
    return _append_report(window, alpha, before - after, after - before)


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
    words = _enumerator(engine, alphabet)
    before, after = set(words(window)), set(words(window[1:]))
    return _delete_report(window, before - after, after - before)


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


def _check_slide(text: str, d: int, alphabet: Alphabet) -> None:
    n = len(text)
    if not 1 <= d < n:
        raise InputError(f"window length must satisfy 1 <= d < n, got d={d}, n={n}")
    alphabet.require_text(text)


def _append_change(text: str, start: int, d: int, symbols: Iterable[str]) -> tuple[str, set[str]]:
    """The one word of MAW(W) - MAW(E), and MAW(E) - MAW(W).

    W is ``text[start : start + d]``, E is W + ``text[start + d]`` and
    ``symbols`` are the symbols of E.  Every test is a ``find`` bounded to E;
    the module docstring derives the rules.
    """
    end = start + d + 1
    # L: the longest suffix of E that occurs in W.
    lo, hi = 0, d
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if text.find(text[end - mid : end], start, end - 1) >= 0:
            lo = mid
        else:
            hi = mid - 1
    deleted = text[end - lo - 1 : end]
    stem = text[end - lo : end]
    added = {deleted + b for b in symbols if text.find(stem + b, start, end) >= 0}
    for k in range(lo + 1, d + 1):
        u = text[end - k : end - 1]  # W's suffix of length k - 1
        if k >= 2 and text.find(u, start, end - 2) < 0:
            break  # u is not a repeated suffix of W, and no longer suffix is
        tail = text[end - k : end]
        before = text[end - k - 1]
        for a in symbols:
            if a != before and text.find(a + u, start, end - 1) >= 0:
                added.add(a + tail)
    return deleted, added


def _step_differences(
    text: str, d: int, alphabet: Alphabet, engine: str | MawEngine
) -> Iterator[tuple[set[str], set[str], set[str], set[str]]]:
    """Per step i: MAW(W_i) - MAW(E_i), MAW(E_i) - MAW(W_i), MAW(E_i) - MAW(W_{i+1}), MAW(W_{i+1}) - MAW(E_i).

    The engine name ``automaton`` derives them with :func:`_append_change`,
    the delete side from the mirror append on the reversed text; any other
    engine takes literal differences of the sets its ``words`` enumerate.
    """
    n = len(text)
    if engine == "automaton":
        mirror = text[::-1]
        for i in range(n - d):
            symbols = set(text[i : i + d + 1])
            gone, new = _append_change(text, i, d, symbols)
            mirror_gone, mirror_new = _append_change(mirror, n - 1 - i - d, d, symbols)
            yield {gone}, new, {w[::-1] for w in mirror_new}, {mirror_gone[::-1]}
        return
    words = _enumerator(engine, alphabet)
    cur = set(words(text[:d]))
    for i in range(n - d):
        ext, nxt = set(words(text[i : i + d + 1])), set(words(text[i + 1 : i + d + 1]))
        yield cur - ext, ext - cur, ext - nxt, nxt - ext
        cur = nxt


def _fused_size(gone: set[str], new: set[str], removed: set[str], gained: set[str]) -> int:
    """|MAW(W_i) ^ MAW(W_{i+1})| from one step's four differences: (X ^ Y) ^ (Y ^ Z) = X ^ Z."""
    return len((gone | new) ^ (removed | gained))


def slide_totals(
    text: str,
    d: int,
    alphabet: Alphabet,
    engine: str | MawEngine = "automaton",
) -> SlideSummary:
    """Sizes of MAW(T[i..i+d)) symmetric-difference MAW(T[i+1..i+d+1)) for all i.

    Read off each step's four differences (see :func:`_step_differences`).
    """
    _check_slide(text, d, alphabet)
    n = len(text)
    sigma_max = max(len(set(text[i : i + d])) for i in range(n - d + 1))
    sizes = tuple(_fused_size(*diffs) for diffs in _step_differences(text, d, alphabet, engine))
    return SlideSummary(n, d, sizes, sigma_max)


def slide_steps(
    text: str,
    d: int,
    alphabet: Alphabet,
    engine: str | MawEngine = "automaton",
) -> Iterator[tuple[int, DeltaReport, DeltaReport]]:
    """Yield ``(fused size, append report, delete report)`` for every step of a slide.

    Step i appends to W_i = ``text[i : i + d]`` and deletes the leftmost
    character of E_i = ``text[i : i + d + 1]``.  The engine name
    ``automaton`` builds no automaton and no full MAW set; any other engine
    enumerates each string once and holds only one step's sets.
    """
    _check_slide(text, d, alphabet)
    for i, (gone, new, removed, gained) in enumerate(_step_differences(text, d, alphabet, engine)):
        yield (
            _fused_size(gone, new, removed, gained),
            _append_report(text[i : i + d], text[i + d], gone, new),
            _delete_report(text[i : i + d + 1], removed, gained),
        )
