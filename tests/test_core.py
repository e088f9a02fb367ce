from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mawlab.core import (
    Alphabet,
    ConsistencyError,
    InputError,
    canonical_words,
    occurs,
    window_stats,
)


def naive_occurs(word, text):
    return any(text[i : i + len(word)] == word for i in range(len(text) - len(word) + 1))


def brute_stats(window, next_sym=None, prev_sym=None):
    """Independent enumeration of all (affix, occurrence) pairs."""
    d = len(window)

    def positions(u):
        return [i for i in range(d - len(u) + 1) if window[i : i + len(u)] == u]

    rep_suf = 0
    for length in range(d - 1, 0, -1):
        if len(positions(window[d - length :])) >= 2:
            rep_suf = length
            break
    suf_ext = 0
    if next_sym is not None:
        suf_ext = 0 if next_sym in window else -1
        for length in range(d - 1, 0, -1):
            if any(
                p + length < d and window[p + length] == next_sym
                for p in positions(window[d - length :])
            ):
                suf_ext = length
                break
    rep_pre = 0
    for length in range(d - 1, 0, -1):
        if len(positions(window[:length])) >= 2:
            rep_pre = length
            break
    pre_ext = 0
    if prev_sym is not None:
        pre_ext = 0 if prev_sym in window else -1
        for length in range(d - 1, 0, -1):
            if any(p > 0 and window[p - 1] == prev_sym for p in positions(window[:length])):
                pre_ext = length
                break
    return (len(set(window)), rep_suf, suf_ext, rep_pre, pre_ext)


class TestAlphabet:
    def test_basic(self):
        a = Alphabet.of("abc")
        assert a.size == 3 and "b" in a and "z" not in a
        assert list(a) == ["a", "b", "c"]

    def test_from_text_first_occurrence_order(self):
        assert Alphabet.from_text("cbaaaa").symbols == ("c", "b", "a")

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(InputError):
            Alphabet.of("aba")
        with pytest.raises(InputError):
            Alphabet.of("")
        with pytest.raises(InputError):
            Alphabet.from_text("")
        with pytest.raises(InputError):
            Alphabet.of(("ab",))

    def test_require(self):
        a = Alphabet.of("ab")
        a.require_text("abba")
        with pytest.raises(InputError):
            a.require_text("abc")
        with pytest.raises(InputError):
            a.require_symbol("c")


class TestOccurs:
    def test_golden(self):
        assert occurs("ab", "abaab")
        assert not occurs("bb", "abaab")
        assert not occurs("aaba", "abaab")

    def test_rejects_empty_pattern(self):
        with pytest.raises(InputError):
            occurs("", "abc")

    def test_agrees_with_naive_scan_exhaustively(self):
        for n in range(0, 8):
            for text in ("".join(t) for t in product("ab", repeat=n)):
                for m in range(1, n + 2):
                    for word in ("".join(w) for w in product("ab", repeat=m)):
                        assert occurs(word, text) == naive_occurs(word, text)

    @given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", min_size=1, max_size=13))
    def test_agrees_with_naive_scan_random(self, text, word):
        assert occurs(word, text) == naive_occurs(word, text)


class TestWindowStats:
    def test_golden_append_side(self):
        s = window_stats("abcddd", next_sym="e")
        assert s.distinct_count == 4
        assert s.repeating_suffix_len == 2  # "dd" repeats
        assert s.suffix_ext_len == -1  # "e" never occurs in the window

        s = window_stats("aaaa", next_sym="a")
        assert (s.distinct_count, s.repeating_suffix_len, s.suffix_ext_len) == (1, 3, 3)

        s = window_stats("ab", next_sym="c")
        assert (s.distinct_count, s.repeating_suffix_len, s.suffix_ext_len) == (2, 0, -1)

    def test_golden_prefix_side(self):
        s = window_stats("abab", prev_sym="b")
        assert s.repeating_prefix_len == 2
        assert s.prefix_ext_len == 2  # "ab" at offset 2 is preceded by "b"

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            window_stats("")

    def test_matches_brute_force_exhaustively(self):
        for n in range(1, 11):
            for tup in product("01", repeat=n):
                w = "".join(tup)
                for nxt in (None, "0", "1"):
                    for prv in (None, "0", "1"):
                        got = window_stats(w, next_sym=nxt, prev_sym=prv)
                        assert (
                            got.distinct_count,
                            got.repeating_suffix_len,
                            got.suffix_ext_len,
                            got.repeating_prefix_len,
                            got.prefix_ext_len,
                        ) == brute_stats(w, nxt, prv), w

    @settings(max_examples=300)
    @given(st.text(alphabet="abc", min_size=1, max_size=12), st.sampled_from("abc"), st.sampled_from("abc"))
    def test_matches_brute_force_random(self, w, nxt, prv):
        got = window_stats(w, next_sym=nxt, prev_sym=prv)
        assert (
            got.distinct_count,
            got.repeating_suffix_len,
            got.suffix_ext_len,
            got.repeating_prefix_len,
            got.prefix_ext_len,
        ) == brute_stats(w, nxt, prv)

    @given(st.text(alphabet="ab", min_size=1, max_size=14))
    def test_invariants(self, w):
        s = window_stats(w, next_sym="0", prev_sym="1")
        d = len(w)
        assert 1 <= s.distinct_count <= min(d, 2 + 2)
        assert 0 <= s.repeating_suffix_len < d
        assert -1 <= s.suffix_ext_len <= s.repeating_suffix_len
        assert 0 <= s.repeating_prefix_len < d
        assert -1 <= s.prefix_ext_len <= s.repeating_prefix_len

    def test_stats_ordering_contract(self):
        with pytest.raises(ConsistencyError):
            from mawlab.core import WindowStats

            WindowStats(1, 0, 1, 0, 0)


def test_canonical_words_order():
    assert canonical_words(["ba", "b", "ab", "aa", "a"]) == ("a", "b", "aa", "ab", "ba")
