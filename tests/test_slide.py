import gc
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mawlab import slide
from mawlab.bounds import check_step
from mawlab.core import Alphabet, ConsistencyError, InputError, TheoremViolationError
from mawlab.oracle import enumerate_maws_naive
from mawlab.slide import (
    MawEngine,
    MawType,
    append_delta,
    classify_added,
    delete_delta,
    slide_steps,
    slide_totals,
    type3_injection,
)

BIN = Alphabet.of("01")
ABCD = Alphabet.of("abcd")


def walk_payloads(text, d, alphabet, engine):
    """Every step of a slide as (fused size, append payload, delete payload), verdicts included."""
    return [
        (size, *(r.to_payload(check_step(r, alphabet.size)) for r in (ap, de)))
        for size, ap, de in slide_steps(text, d, alphabet, engine)
    ]


class TestAppendDelta:
    def test_golden_cbaaaa(self):
        rep = append_delta("cbaaaa", "c", ABCD)
        assert rep.deleted == ("ac",)
        assert set(rep.added) == {"acb", "bac", "baac", "baaac"}
        assert rep.added_by_type[MawType.TYPE1] == ()
        assert rep.added_by_type[MawType.TYPE2] == ("acb",)
        assert rep.added_by_type[MawType.TYPE3] == ("bac", "baac", "baaac")
        assert rep.d == 6 and rep.sigma_window == 3 and rep.sigma_ext == 3
        assert rep.delta_size == 5

    def test_golden_binary_extremal_step(self):
        rep = append_delta("00111", "0", BIN)
        assert rep.deleted == ("10",)
        assert rep.added_by_type[MawType.TYPE2] == ("100", "101")
        assert rep.added_by_type[MawType.TYPE3] == ("010", "0110")
        assert rep.delta_size == 5 == rep.d

    def test_golden_unary(self):
        rep = append_delta("0000", "0", BIN)
        assert rep.deleted == ("00000",)
        assert rep.added == ("000000",)
        assert rep.delta_size == 2

    def test_deletion_uniqueness_exhaustive(self):
        for sigma, symbols, max_n in ((2, "01", 9), (3, "abc", 6)):
            alphabet = Alphabet.of(symbols)
            engine = MawEngine(alphabet)
            for n in range(1, max_n + 1):
                for tup in product(symbols, repeat=n):
                    s = "".join(tup)
                    for a in symbols:
                        rep = append_delta(s, a, alphabet, engine)
                        assert len(rep.deleted) == 1

    def test_engine_choice_equivalent(self):
        r1 = append_delta("cbaaaa", "c", ABCD, "oracle")
        r2 = append_delta("cbaaaa", "c", ABCD, "automaton")
        assert r1.deleted == r2.deleted and r1.added == r2.added

    def test_input_validation(self):
        with pytest.raises(InputError):
            append_delta("", "a", ABCD)
        with pytest.raises(InputError):
            append_delta("ab", "z", ABCD)
        with pytest.raises(InputError):
            append_delta("xy", "a", ABCD)

    def test_engine_alphabet_mismatch(self):
        engine = MawEngine(BIN)
        with pytest.raises(ConsistencyError):
            append_delta("ab", "a", Alphabet.of("ab"), engine)


class TestClassify:
    def test_golden(self):
        assert classify_added("acb", "cbaaaa") is MawType.TYPE2
        assert classify_added("baaac", "cbaaaa") is MawType.TYPE3
        assert classify_added("c", "abab") is MawType.TYPE1

    def test_both_parts_occur_is_a_bug(self):
        with pytest.raises(ConsistencyError):
            classify_added("aba", "abab")


class TestInjection:
    def test_golden_witness(self):
        rep = append_delta("cbaaaa", "c", ABCD)
        assert rep.injection_witness == {"bac": 2, "baac": 3, "baaac": 4}

    def test_empty(self):
        assert type3_injection([], "abc") == {}

    def test_collision_raises(self):
        # both prefixes have their leftmost occurrence ending at position 1
        with pytest.raises(TheoremViolationError):
            type3_injection(["abc", "bc"], "ab")

    def test_last_position_raises(self):
        with pytest.raises(TheoremViolationError):
            type3_injection(["abc"], "ab")

    def test_binary_first_position_raises(self):
        with pytest.raises(TheoremViolationError):
            type3_injection(["00"], "011")

    def test_mixed_final_symbols_rejected(self):
        with pytest.raises(ConsistencyError):
            type3_injection(["ab", "ba"], "ab")

    def test_not_type3_rejected(self):
        with pytest.raises(ConsistencyError):
            type3_injection(["aab"], "aa" * 0 + "bb")


class TestDeleteDelta:
    def test_golden_unary(self):
        rep = delete_delta("aa", Alphabet.of("a"))
        assert rep.added == ("aa",)
        assert rep.deleted == ("aaa",)
        assert rep.delta_size == 2
        assert rep.direction == "delete" and rep.d == 1

    def test_too_short(self):
        with pytest.raises(InputError):
            delete_delta("a", Alphabet.of("a"))

    def test_matches_direct_diff_exhaustive_binary(self):
        engine = MawEngine(BIN)
        for n in range(2, 11):
            for tup in product("01", repeat=n):
                s = "".join(tup)
                rep = delete_delta(s, BIN, engine)
                before = set(engine.words(s))
                after = set(engine.words(s[1:]))
                assert set(rep.deleted) == before - after, s
                assert set(rep.added) == after - before, s
                assert len(rep.added) == 1, s

    def test_delete_bound_exhaustive_binary(self):
        engine = MawEngine(BIN)
        for n in range(2, 11):
            for tup in product("01", repeat=n):
                s = "".join(tup)
                rep = delete_delta(s, BIN, engine)
                assert rep.delta_size <= rep.sigma_window + rep.d + 1

    def test_mirrors_append_on_reversal(self):
        s = "cabaaaa"
        rep = delete_delta(s, ABCD)
        mirror = append_delta(s[1:][::-1], s[0], ABCD)
        assert set(rep.deleted) == {w[::-1] for w in mirror.added}
        assert set(rep.added) == {w[::-1] for w in mirror.deleted}

    def test_witness_positions_mirror(self):
        s = "cabaaaa"
        kept = s[1:]
        rep = delete_delta(s, ABCD)
        for word, start in rep.injection_witness.items():
            # start of the rightmost occurrence of word[1:] in the kept window
            assert kept.rfind(word[1:]) == start
            assert start >= 1  # never the first position (mirror of the append range)


class TestSlideTotals:
    def test_alternating(self):
        summary = slide_totals("ab" * 20, 10, Alphabet.of("ab"))
        assert set(summary.per_step) == {2}
        assert summary.total == 2 * (40 - 10)

    def test_distinct_cycle(self):
        summary = slide_totals("abcabcabc", 2, Alphabet.of("abc"))
        assert set(summary.per_step) == {6}

    def test_constant_text(self):
        summary = slide_totals("aaaa", 2, Alphabet.of("a"))
        assert summary.total == 0

    def test_window_length_validation(self):
        with pytest.raises(InputError):
            slide_totals("aaaa", 4, Alphabet.of("a"))
        with pytest.raises(InputError):
            slide_totals("aaaa", 0, Alphabet.of("a"))

    def test_oracle_and_automaton_agree(self):
        t = "00110100101110"
        a = slide_totals(t, 5, BIN, "automaton")
        b = slide_totals(t, 5, BIN, "oracle")
        assert a.per_step == b.per_step

    @settings(max_examples=60)
    @given(st.text(alphabet="01", min_size=3, max_size=30), st.integers(1, 10))
    def test_per_step_is_direct_symmetric_difference(self, text, d):
        if d >= len(text):
            d = len(text) - 1
        summary = slide_totals(text, d, BIN)
        for i, size in enumerate(summary.per_step):
            lhs = enumerate_maws_naive(text[i : i + d], BIN).as_set()
            rhs = enumerate_maws_naive(text[i + 1 : i + d + 1], BIN).as_set()
            assert size == len(lhs ^ rhs)


class TestSlideSteps:
    def test_matches_single_step_reports_exhaustive(self):
        # Every step of every text and window length: the walk's reports equal the
        # single-step reports of the same windows, verdicts included, and its fused
        # sizes equal slide_totals.  Expected reports are memoised per extended window.
        # The walk on the engine name "automaton", which derives each step's
        # differences and which an engine object never reaches, yields equal reports
        # and sizes.
        for symbols, max_n in (("01", 10), ("abc", 6)):
            alphabet = Alphabet.of(symbols)
            sigma = alphabet.size
            engine = MawEngine(alphabet)

            def payload(rep):
                return rep.to_payload(check_step(rep, sigma))

            expected: dict[str, tuple[dict, dict]] = {}
            for n in range(2, max_n + 1):
                for tup in product(symbols, repeat=n):
                    text = "".join(tup)
                    for d in range(1, n):
                        walk = list(slide_steps(text, d, alphabet, engine))
                        for i, (_, ap, de) in enumerate(walk):
                            ext = text[i : i + d + 1]
                            if ext not in expected:
                                expected[ext] = (
                                    payload(append_delta(ext[:-1], ext[-1], alphabet, engine)),
                                    payload(delete_delta(ext, alphabet, engine)),
                                )
                            assert (payload(ap), payload(de)) == expected[ext], (text, d, i)
                        fused = tuple(size for size, _, _ in walk)
                        assert fused == slide_totals(text, d, alphabet, engine).per_step, (text, d)
                        assert list(slide_steps(text, d, alphabet, "automaton")) == walk, (text, d)
                        assert slide_totals(text, d, alphabet, "automaton").per_step == fused, (text, d)

    @pytest.mark.parametrize("sigma", [2, 4, 26])
    @pytest.mark.parametrize("d", [5, 40])
    def test_online_automaton_walk_matches_oracle_walk(self, sigma, d):
        symbols = "abcdefghijklmnopqrstuvwxyz"[:sigma]
        alphabet = Alphabet.of(symbols)
        text = "".join(random.Random(7 * sigma + d).choices(symbols, k=120))
        assert walk_payloads(text, d, alphabet, "automaton") == walk_payloads(text, d, alphabet, "oracle")

    def test_default_walk_leaves_nothing_to_the_cycle_collector(self):
        text = "".join(random.Random(3).choices("ACGT", k=200))
        d = 50
        gc.collect()
        gc.disable()
        try:
            steps = list(slide_steps(text, d, Alphabet.of("ACGT")))
            summary = slide_totals(text, d, Alphabet.of("ACGT"))
            found = gc.collect()
        finally:
            gc.enable()
        assert len(steps) == len(summary.per_step) == len(text) - d
        # The derivation builds no automaton, whose links and transitions form cycles.
        assert found == 0

    def test_derived_walk_matches_engine_walk_dna_long_window(self):
        alphabet = Alphabet.of("ACGT")
        text = "".join(random.Random(1500).choices("ACGT", k=1500))
        d = 300
        derived = list(slide_steps(text, d, alphabet))
        assert derived == list(slide_steps(text, d, alphabet, MawEngine(alphabet, "automaton")))
        assert slide_totals(text, d, alphabet).per_step == tuple(size for size, _, _ in derived)

    def test_engine_name_matches_engine_object(self):
        text = "abcabbacbcaab"
        alphabet = Alphabet.of("abc")
        by_name = list(slide_steps(text, 4, alphabet, "oracle"))
        by_engine = list(slide_steps(text, 4, alphabet, MawEngine(alphabet)))
        assert by_name == by_engine

    def test_window_length_validation(self):
        with pytest.raises(InputError):
            list(slide_steps("aaaa", 4, Alphabet.of("a")))
        with pytest.raises(InputError):
            list(slide_steps("abz", 1, Alphabet.of("ab")))


def periodic_with_break(period: str, d: int, breaker: str) -> str:
    """A periodic run longer than the window, one symbol that breaks the period, and the period again."""
    return (period * (d + 3))[: d + 3] + breaker + (period * 8)[:8]


LETTERS = "abcdefghijklmnopqrstuvwxyz"


def case(label, text, d, symbols):
    return pytest.param(text, d, symbols, id=f"{label}-n{len(text)}-d{d}")


DERIVATION_CASES = [
    # unary windows: the extended window's suffix of length d occurs in the window (L = d)
    *[case("unary", "a" * n, d, "a") for n in (2, 3, 9, 25) for d in range(1, n)],
    *[case("unary-binary-alphabet", "a" * 20, d, "ab") for d in (1, 7, 19)],
    # periodic runs across a break: long repeated suffixes, short L, deep case-B loops
    *[
        case(f"{period}-break-{breaker}", periodic_with_break(period, d, breaker), d, symbols)
        for period, breaker, symbols in (("ab", "b", "ab"), ("ab", "c", "abc"), ("abc", "a", "abc"), ("aab", "b", "ab"))
        for d in (2, 3, 7, 30, 59, 60)
    ],
    *[case("period-ab", ("ab" * 40)[:75], d, "ab") for d in (1, 2, 30, 60, 74)],
    *[case("period-abc", ("abc" * 30)[:75], d, "abc") for d in (1, 3, 31, 60, 74)],
    # every appended symbol new to its window (L = 0)
    *[case("fresh-symbols", "abcdefghij" * 3, d, "abcdefghij") for d in (4, 9)],
    # d = 1 and d = n - 1
    *[
        case(f"ternary-seed{seed}", "".join(random.Random(seed).choices("abc", k=40)), d, "abc")
        for seed in (1, 2)
        for d in (1, 39)
    ],
    # sigma = 26
    *[case("sigma26", "".join(random.Random(26).choices(LETTERS, k=150)), d, LETTERS) for d in (1, 5, 30, 149)],
]


@pytest.mark.parametrize("text, d, symbols", DERIVATION_CASES)
def test_derived_walk_matches_oracle_walk(text, d, symbols):
    alphabet = Alphabet.of(symbols)
    oracle = walk_payloads(text, d, alphabet, "oracle")
    assert walk_payloads(text, d, alphabet, "automaton") == oracle
    assert slide_totals(text, d, alphabet).per_step == tuple(size for size, _, _ in oracle)


class CountingText(str):
    """A text that counts the ``find`` calls made on it."""

    def find(self, *args):
        self.finds += 1
        return str.find(self, *args)


@pytest.mark.parametrize(
    "text, d",
    [
        ("".join(random.Random(4).choices("ACGT", k=600)), 200),
        (periodic_with_break("abc", 60, "a"), 60),
        ("a" * 50, 20),
    ],
    ids=["dna", "periodic-break", "unary"],
)
def test_derivation_find_calls_within_the_cost_bound(text, d):
    # Per step: a binary search for L, one test per symbol for (A), and for each
    # k in L + 1 .. r + 1 one repeat test and one test per symbol for (B), plus
    # the repeat test that stops the loop; r is W's longest repeated suffix.
    for i in range(len(text) - d):
        window, ext = text[i : i + d], text[i : i + d + 1]
        L = max(m for m in range(d + 1) if ext[len(ext) - m :] in window)
        r = max(m for m in range(d) if window[d - m :] in window[:-1])
        sigma = len(set(ext))
        counted = CountingText(text)
        counted.finds = 0
        slide._append_change(counted, i, d, set(ext))
        assert counted.finds <= math.ceil(math.log2(d + 1)) + sigma + max(0, r - L + 1) * (sigma + 1) + 1, i
