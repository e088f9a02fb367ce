import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mawlab.automaton import enumerate_maws_fast
from mawlab.core import Alphabet, InputError
from mawlab.oracle import enumerate_maws_naive, is_maw

ABC = Alphabet.of("abc")
ABCD = Alphabet.of("abcd")
BIN = Alphabet.of("01")


def all_words(symbols, max_len):
    for m in range(1, max_len + 1):
        for tup in product(symbols, repeat=m):
            yield "".join(tup)


class TestIsMaw:
    def test_golden(self):
        assert is_maw("bb", "abaab", ABC)
        assert is_maw("c", "abaab", ABC)
        assert not is_maw("abaab", "abaab", ABC)

    def test_requires_alphabet_membership(self):
        with pytest.raises(InputError):
            is_maw("d", "abaab", ABC)
        with pytest.raises(InputError):
            is_maw("a", "abd", ABC)
        with pytest.raises(InputError):
            is_maw("", "ab", ABC)


class TestEnumerate:
    def test_golden_sets(self):
        assert set(enumerate_maws_naive("abaab", ABC).words) == {"aaa", "aaba", "bab", "bb", "c"}
        assert set(enumerate_maws_naive("cbaaaa", ABCD).words) == {
            "cc", "bb", "aaaaa", "bc", "ab", "ca", "ac", "d",
        }
        assert set(enumerate_maws_naive("cbaaaac", ABCD).words) == {
            "cc", "bb", "aaaaa", "bc", "ab", "ca", "acb", "bac", "baac", "baaac", "d",
        }
        assert set(enumerate_maws_naive("0000", BIN).words) == {"1", "00000"}

    def test_empty_subject_yields_alphabet(self):
        assert enumerate_maws_naive("", Alphabet.of("ab")).words == ("a", "b")

    def test_canonical_order(self):
        words = enumerate_maws_naive("cbaaaa", ABCD).words
        assert words == ("d", "ab", "ac", "bb", "bc", "ca", "cc", "aaaaa")
        assert list(words) == sorted(words, key=lambda w: (len(w), w))

    @staticmethod
    def assert_matches_definition(alphabet, max_n):
        for n in range(0, max_n + 1):
            for tup in product(alphabet.symbols, repeat=n):
                s = "".join(tup)
                expected = {w for w in all_words(alphabet.symbols, n + 1) if is_maw(w, s, alphabet)}
                assert set(enumerate_maws_naive(s, alphabet).words) == expected, s

    def test_matches_definition_exhaustively_binary(self):
        self.assert_matches_definition(BIN, 8)

    def test_matches_definition_exhaustively_ternary(self):
        self.assert_matches_definition(ABC, 5)

    def test_matches_definition_exhaustively_quaternary(self):
        self.assert_matches_definition(ABCD, 4)

    def test_long_texts_match_the_automaton(self):
        # Out of reach of an oracle that walks every occurrence of every
        # substring: n = 5000 holds about 12.5 million occurrences.  Unary and
        # period-3 texts repeat factors of every length up to about n, the
        # factor-pair loop's worst case.
        letters = "abcdefghijklmnopqrstuvwxyz"
        rng = random.Random(5000)
        for sigma in (2, 4, 26):
            alphabet = Alphabet.of(letters[:sigma])
            s = "".join(rng.choice(alphabet.symbols) for _ in range(5000))
            assert enumerate_maws_naive(s, alphabet).words == enumerate_maws_fast(s, alphabet).words, sigma
        for s in ("a" * 400, "abc" * 133 + "a"):
            assert enumerate_maws_naive(s, ABC).words == enumerate_maws_fast(s, ABC).words, s[:6]

    def test_every_emitted_word_is_a_maw(self):
        for s in ("abaab", "cbaaaac", "0110100", "zyzzyva".replace("z", "a").replace("y", "b")):
            alphabet = Alphabet.from_text(s)
            for w in enumerate_maws_naive(s, alphabet):
                assert is_maw(w, s, alphabet)


class TestProperties:
    def test_reversal_duality_exhaustive(self):
        for n in range(0, 11):
            for tup in product("01", repeat=n):
                s = "".join(tup)
                fwd = set(enumerate_maws_naive(s, BIN).words)
                rev = set(enumerate_maws_naive(s[::-1], BIN).words)
                assert {w[::-1] for w in fwd} == rev, s

    @settings(max_examples=150)
    @given(st.text(alphabet="abc", max_size=30))
    def test_reversal_duality_random(self, s):
        fwd = set(enumerate_maws_naive(s, ABC).words)
        rev = set(enumerate_maws_naive(s[::-1], ABC).words)
        assert {w[::-1] for w in fwd} == rev

    @settings(max_examples=150)
    @given(st.text(alphabet="01", min_size=1, max_size=40))
    def test_size_cap_sigma_n(self, s):
        assert len(enumerate_maws_naive(s, BIN)) <= 2 * len(s)

    @settings(max_examples=150)
    @given(st.text(alphabet="abc", min_size=1, max_size=25))
    def test_max_length_cap(self, s):
        maws = enumerate_maws_naive(s, ABC)
        longest = max(len(w) for w in maws)
        assert longest <= len(s) + 1
        if longest == len(s) + 1:
            assert len(set(s)) == 1  # only a unary subject admits a (n+1)-length MAW

    def test_unary_attains_max_length(self):
        maws = set(enumerate_maws_naive("aaaa", Alphabet.of("ab")).words)
        assert "aaaaa" in maws


class TestMawSet:
    def test_payload(self):
        ms = enumerate_maws_naive("01", BIN)
        payload = ms.to_payload()
        assert payload["words"] == list(ms.words)
        assert payload["alphabet"] == "01"
        assert payload["count"] == len(ms)
