import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from mawlab.core import Alphabet
from mawlab.automaton import SuffixAutomaton, enumerate_maws_fast
from mawlab.oracle import enumerate_maws_naive

BIN = Alphabet.of("01")
ABC = Alphabet.of("abc")


def accepts(sam, word):
    """True iff ``word`` is a substring of the subject (empty word included)."""
    node = sam.states[0]
    for ch in word:
        node = node.trans.get(ch)
        if node is None:
            return False
    return True


def assert_canonical(words):
    """Non-empty words in strictly increasing (length, word) order, as ``MawSet`` promises."""
    assert all(words) and all((len(a), a) < (len(b), b) for a, b in zip(words, words[1:])), words


def both_enumerations(s, alphabet):
    """The automaton's and the oracle's MAW words of ``s``, each checked to be strictly canonical."""
    fast, slow = enumerate_maws_fast(s, alphabet).words, enumerate_maws_naive(s, alphabet).words
    assert_canonical(fast)
    assert_canonical(slow)
    return fast, slow


def transition_count(sam):
    return sum(len(st.trans) for st in sam.states)


class TestAutomaton:
    def test_tiny_examples(self):
        assert SuffixAutomaton("aa").state_count == 3
        assert SuffixAutomaton("").state_count == 1
        sam = SuffixAutomaton("abaab")
        assert accepts(sam, "aba")
        assert accepts(sam, "")
        assert not accepts(sam, "bb")
        assert not accepts(sam, "abaabx")

    def test_accepts_exactly_the_substrings(self):
        for s in ("abcbc", "bananas", "0110100", "aabbaabb"):
            sam = SuffixAutomaton(s)
            subs = {s[i:j] for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
            for m in range(1, len(s) + 2):
                for tup in product(sorted(set(s)), repeat=m):
                    w = "".join(tup)
                    assert accepts(sam, w) == (w in subs)
                if m > 3:
                    break  # exhaustive only for short candidates; spot-check the rest
            for i in range(len(s)):
                for j in range(i + 1, len(s) + 1):
                    assert accepts(sam, s[i:j])

    def test_size_bounds_exhaustive(self):
        for n in range(3, 13):
            for tup in product("01", repeat=n):
                s = "".join(tup)
                sam = SuffixAutomaton(s)
                assert sam.state_count <= 2 * n - 1, s
                assert transition_count(sam) <= 3 * n - 4, s

    def test_size_bounds_random(self):
        rng = random.Random(7)
        for sigma, count in ((2, 150), (4, 150), (26, 150)):
            symbols = "abcdefghijklmnopqrstuvwxyz"[:sigma]
            for _ in range(count):
                n = rng.randint(3, 200)
                s = "".join(rng.choices(symbols, k=n))
                sam = SuffixAutomaton(s)
                assert sam.state_count <= 2 * n - 1
                assert transition_count(sam) <= 3 * n - 4


def extension_matches_fresh_build(s, extra, alphabet):
    sam = SuffixAutomaton(s)
    sam.extend(extra)
    fresh = SuffixAutomaton(s + extra)
    assert sam.subject == s + extra
    assert sam.state_count == fresh.state_count, (s, extra)
    assert sorted(sam.maw_words(alphabet)) == sorted(fresh.maw_words(alphabet)), (s, extra)


class TestOnlineExtension:
    def test_one_symbol_matches_fresh_build_exhaustive(self):
        for alphabet, max_n in ((BIN, 10), (ABC, 6)):
            for n in range(0, max_n + 1):
                for tup in product(alphabet.symbols, repeat=n):
                    s = "".join(tup)
                    for c in alphabet:
                        extension_matches_fresh_build(s, c, alphabet)

    def test_multi_symbol_extension(self):
        abcd = Alphabet.of("abcd")
        extension_matches_fresh_build("abcab", "cabcabd", abcd)
        extension_matches_fresh_build("", "abacadbd", abcd)
        sam = SuffixAutomaton("ab")
        sam.extend("")
        assert sam.subject == "ab" and sam.state_count == SuffixAutomaton("ab").state_count

    @settings(max_examples=200)
    @given(st.text(alphabet="abc", max_size=40), st.text(alphabet="abc", max_size=20))
    def test_extension_property(self, s, extra):
        extension_matches_fresh_build(s, extra, ABC)


class TestFastEnumerator:
    def test_golden(self):
        abcd = Alphabet.of("abcd")
        assert enumerate_maws_fast("cbaaaa", abcd).words == enumerate_maws_naive("cbaaaa", abcd).words
        assert enumerate_maws_fast("a", Alphabet.of("a")).words == ("aa",)
        assert enumerate_maws_fast("", BIN).words == ("0", "1")

    def test_oracle_equivalence_exhaustive_binary(self):
        for n in range(0, 13):
            for tup in product("01", repeat=n):
                s = "".join(tup)
                fast, slow = both_enumerations(s, BIN)
                assert fast == slow, s

    def test_oracle_equivalence_exhaustive_ternary(self):
        for n in range(0, 9):
            for tup in product("abc", repeat=n):
                s = "".join(tup)
                fast, slow = both_enumerations(s, ABC)
                assert fast == slow, s

    def test_oracle_equivalence_random(self):
        rng = random.Random(42)
        for sigma in (2, 4, 26):
            symbols = "abcdefghijklmnopqrstuvwxyz"[:sigma]
            alphabet = Alphabet.of(symbols)
            for _ in range(120):
                n = rng.randint(1, 120)
                s = "".join(rng.choices(symbols, k=n))
                fast, slow = both_enumerations(s, alphabet)
                assert fast == slow, s

    @settings(max_examples=200)
    @given(st.text(alphabet="ab", max_size=60))
    def test_oracle_equivalence_property(self, s):
        ab = Alphabet.of("ab")
        assert enumerate_maws_fast(s, ab).words == enumerate_maws_naive(s, ab).words
