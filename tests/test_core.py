from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mawlab.core import Alphabet, InputError, canonical_words
from mawlab.slide import MawEngine, append_delta, delete_delta

BIN = Alphabet.of("01")
ABC = Alphabet.of("abc")


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


class TestWindowStats:
    """The prior bound's (repeat_len, ext_len) on append and delete reports, against brute_stats."""

    def test_golden_append_side(self):
        rep = append_delta("abcddd", "e", Alphabet.of("abcde"))
        assert rep.sigma_window == 4
        assert rep.repeat_len == 2  # "dd" repeats
        assert rep.ext_len == -1  # "e" never occurs in the window

        rep = append_delta("aaaa", "a", Alphabet.of("a"))
        assert (rep.sigma_window, rep.repeat_len, rep.ext_len) == (1, 3, 3)

        rep = append_delta("ab", "c", Alphabet.of("abc"))
        assert (rep.sigma_window, rep.repeat_len, rep.ext_len) == (2, 0, -1)

    def test_golden_prefix_side(self):
        rep = delete_delta("b" + "abab", Alphabet.of("ab"))
        assert rep.repeat_len == 2
        assert rep.ext_len == 2  # "ab" at offset 2 is preceded by "b"

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            append_delta("", "a", Alphabet.of("a"))

    def test_matches_brute_force_exhaustively(self):
        engine = MawEngine(BIN)
        for n in range(1, 11):
            for tup in product("01", repeat=n):
                w = "".join(tup)
                for sym in "01":
                    distinct, rep_suf, suf_ext, _, _ = brute_stats(w, next_sym=sym)
                    rep = append_delta(w, sym, BIN, engine)
                    assert (rep.sigma_window, rep.repeat_len, rep.ext_len) == (distinct, rep_suf, suf_ext), w + sym
                    _, _, _, rep_pre, pre_ext = brute_stats(w, prev_sym=sym)
                    rep = delete_delta(sym + w, BIN, engine)
                    assert (rep.sigma_window, rep.repeat_len, rep.ext_len) == (distinct, rep_pre, pre_ext), sym + w

    @settings(max_examples=300)
    @given(st.text(alphabet="abc", min_size=1, max_size=12), st.sampled_from("abc"), st.sampled_from("abc"))
    def test_matches_brute_force_random(self, w, nxt, prv):
        distinct, rep_suf, suf_ext, rep_pre, pre_ext = brute_stats(w, nxt, prv)
        rep = append_delta(w, nxt, ABC)
        assert (rep.sigma_window, rep.repeat_len, rep.ext_len) == (distinct, rep_suf, suf_ext)
        rep = delete_delta(prv + w, ABC)
        assert (rep.sigma_window, rep.repeat_len, rep.ext_len) == (distinct, rep_pre, pre_ext)

    @given(st.text(alphabet="ab", min_size=1, max_size=14), st.sampled_from("ab"))
    def test_invariants(self, w, sym):
        d = len(w)
        ab = Alphabet.of("ab")
        for rep in (append_delta(w, sym, ab), delete_delta(sym + w, ab)):
            assert rep.d == d
            assert 1 <= rep.sigma_window <= min(d, 2)
            assert 0 <= rep.repeat_len < d
            assert -1 <= rep.ext_len <= rep.repeat_len


def test_canonical_words_order():
    assert canonical_words(["ba", "b", "ab", "aa", "a"]) == ("a", "b", "aa", "ab", "ba")
