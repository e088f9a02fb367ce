import gc
import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mawlab import automaton, slide
from mawlab.automaton import SuffixAutomaton
from mawlab.bounds import check_step
from mawlab.core import Alphabet, ConsistencyError, InputError, TheoremViolationError, canonical_words
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
        (size, *(r.to_payload(check_step(r, len(alphabet))) for r in (ap, de)))
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


class TestReportRecords:
    def test_fields_are_those_of_the_report_schema_and_frozen(self):
        assert slide.DeltaReport._fields == (
            "direction", "before", "after", "d", "sigma_window", "sigma_ext", "deleted", "added",
            "added_by_type", "injection_witness", "repeat_len", "ext_len",
        )
        rep = append_delta("cbaaaa", "c", ABCD)
        assert isinstance(rep, tuple)
        with pytest.raises(AttributeError):
            rep.d = 7
        assert (rep.delta_size, rep.type_counts, rep.sigma_window == rep.sigma_ext) == (5, (0, 1, 3), True)
        assert rep.to_payload()["delta"] == 5

    def test_one_pass_reports_match_the_reference_definitions(self, slide_reports):
        """Types by ``classify_added`` word by word and witnesses by ``type3_injection`` on the
        canonically sorted Type-3 words, on the append and on the mirror append of a delete."""
        for rep in (rep for _, rep in slide_reports.values()):
            if rep.direction == "append":
                words, window, judged = rep.added, rep.before, {w: w for w in rep.added}
            else:
                words, window = rep.deleted, rep.after[::-1]
                judged = {w: w[::-1] for w in words}
            assert words == canonical_words(words), rep
            want = {t: tuple(w for w in words if classify_added(judged[w], window) is t) for t in MawType}
            assert rep.added_by_type == want, rep
            m3 = want[MawType.TYPE3]
            mapping = type3_injection(canonical_words(judged[w] for w in m3), window)
            if rep.direction == "append":
                assert rep.injection_witness == mapping, rep
            else:
                assert rep.injection_witness == {w: len(window) - 1 - mapping[judged[w]] for w in m3}, rep


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
            lhs = set(enumerate_maws_naive(text[i : i + d], BIN))
            rhs = set(enumerate_maws_naive(text[i + 1 : i + d + 1], BIN))
            assert size == len(lhs ^ rhs)


class TestSlideSteps:
    def test_matches_single_step_reports_exhaustive(self):
        # Every step of every text and window length: the walk, which derives each
        # step's differences, yields the literal single-step reports of the same
        # windows, verdicts included, and its fused sizes equal slide_totals.
        # Expected reports are memoised per extended window.
        for symbols, max_n in (("01", 10), ("abc", 6)):
            alphabet = Alphabet.of(symbols)
            sigma = len(alphabet)
            engine = MawEngine(alphabet)

            def payload(rep):
                return rep.to_payload(check_step(rep, sigma))

            expected: dict[str, tuple[dict, dict]] = {}
            for n in range(2, max_n + 1):
                for tup in product(symbols, repeat=n):
                    text = "".join(tup)
                    for d in range(1, n):
                        walk = list(slide_steps(text, d, alphabet))
                        for i, (_, ap, de) in enumerate(walk):
                            ext = text[i : i + d + 1]
                            if ext not in expected:
                                expected[ext] = (
                                    payload(append_delta(ext[:-1], ext[-1], alphabet, engine)),
                                    payload(delete_delta(ext, alphabet, engine)),
                                )
                            assert (payload(ap), payload(de)) == expected[ext], (text, d, i)
                        fused = tuple(size for size, _, _ in walk)
                        assert fused == slide_totals(text, d, alphabet).per_step, (text, d)

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
        engine = MawEngine(alphabet, "automaton")
        for i, (_, ap, de) in enumerate(derived):
            ext = text[i : i + d + 1]
            want = append_delta(ext[:-1], ext[-1], alphabet, engine), delete_delta(ext, alphabet, engine)
            assert (ap, de) == want, i
        assert slide_totals(text, d, alphabet).per_step == tuple(size for size, _, _ in derived)

    def test_window_length_validation(self):
        with pytest.raises(InputError):
            list(slide_steps("aaaa", 4, Alphabet.of("a")))
        with pytest.raises(InputError):
            list(slide_steps("abz", 1, Alphabet.of("ab")))

    def test_slides_take_engine_names_only(self):
        # A slide never holds a caller's memo, which grows with every window it sees.
        engine = MawEngine(BIN)
        with pytest.raises(InputError, match="unknown engine"):
            slide_steps("0110", 2, BIN, engine)
        with pytest.raises(InputError, match="unknown engine"):
            slide_totals("0110", 2, BIN, engine)

    @pytest.mark.parametrize("d", [3, 20])
    def test_oracle_slide_enumerates_two_strings_per_step(self, monkeypatch, d):
        # The literal kernel carries MAW(W_{i+1}) to the next step, so a slide
        # enumerates W_0 once and then E_i and W_{i+1} per step: 2(n - d) + 1.
        text = "".join(random.Random(d).choices("ACGT", k=80))
        alphabet = Alphabet.of("ACGT")
        real, subjects = slide._ENUMERATORS["oracle"], []

        def counted(subject, alphabet):
            subjects.append(subject)
            return real(subject, alphabet)

        monkeypatch.setitem(slide._ENUMERATORS, "oracle", counted)
        want = 2 * (len(text) - d) + 1
        assert len(list(slide_steps(text, d, alphabet, "oracle"))) == len(text) - d
        assert len(subjects) == want
        slide_totals(text, d, alphabet, "oracle")
        assert len(subjects) == 2 * want


def assert_memo_is_exact(engine, subject, alphabet):
    """The memo holds, for ``subject[:-1]`` and ``subject``, exactly the oracle's words, each once."""
    for s in (subject[:-1], subject):
        memo = engine._cache[s]
        assert len(set(memo)) == len(memo), s
        assert canonical_words(memo) == enumerate_maws_naive(s, alphabet), s


def count_builds(monkeypatch):
    """Record the subject of every automaton the engines build."""
    built = []

    class Counting(SuffixAutomaton):
        def __init__(self, subject):
            built.append(subject)
            super().__init__(subject)

    # MawEngine builds in slide (words_with_prefix) and, through scan_maws, in automaton.
    monkeypatch.setattr(slide, "SuffixAutomaton", Counting)
    monkeypatch.setattr(automaton, "SuffixAutomaton", Counting)
    return built


class TestWordsWithPrefix:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda sigma: st.tuples(st.just("abcd"[:sigma]), st.text(alphabet="abcd"[:sigma], min_size=1, max_size=60))
        )
    )
    def test_memo_matches_the_oracle(self, case):
        symbols, subject = case
        alphabet = Alphabet.of(symbols)
        for backend in ("automaton", "oracle"):
            engine = MawEngine(alphabet, backend)
            engine.words_with_prefix(subject)
            assert set(engine._cache) == {subject[:-1], subject}
            assert_memo_is_exact(engine, subject, alphabet)

    def test_memo_matches_the_oracle_exhaustive_binary(self, monkeypatch):
        built = count_builds(monkeypatch)
        subjects = ["".join(tup) for n in range(1, 11) for tup in product("01", repeat=n)]
        for subject in subjects:
            engine = MawEngine(BIN)
            engine.words_with_prefix(subject)
            assert_memo_is_exact(engine, subject, BIN)
        assert built == [s[:-1] for s in subjects]  # one automaton each, extended by the last symbol

    def test_a_memoised_string_is_not_enumerated_again(self, monkeypatch):
        built = count_builds(monkeypatch)
        engine = MawEngine(BIN)
        engine.words("0110")
        engine.words_with_prefix("01101")
        engine.words_with_prefix("1101")
        assert built == ["0110", "01101", "110"]
        engine.clear()
        engine.words_with_prefix("01101")
        assert built[3:] == ["0110"]
        assert_memo_is_exact(engine, "01101", BIN)


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


class FindLog:
    """``find`` calls per (step, direction, phase).

    The phase is "L" inside the search for L; outside it, "A" for a test on
    the whole gram (the (A) tests) and "B" for one bounded to the window (the
    repeat and (B) tests).
    """

    def __init__(self):
        self.calls = Counter()
        self.step, self.phase = -1, None


class CountingGram(str):
    """A gram that logs the ``find`` calls made on it, and on its reversal, in a :class:`FindLog`."""

    def __new__(cls, gram, log, direction="forward"):
        self = super().__new__(cls, gram)
        self.log, self.direction = log, direction
        return self

    def find(self, sub, start=None, end=None):
        phase = self.log.phase or ("A" if end is None else "B")
        self.log.calls[self.log.step, self.direction, phase] += 1
        return str.find(self, sub, start, end)

    def __getitem__(self, key):
        if key == slice(None, None, -1):
            return CountingGram(str(self)[::-1], self.log, "mirror")
        return str.__getitem__(self, key)


def longest_suffix_in(ext, window):
    """L by its definition: the longest suffix of ``ext`` that occurs in ``window``."""
    return max(m for m in range(len(window) + 1) if ext[len(ext) - m :] in window)


def repeat_len(window):
    """r by its definition: the longest suffix of ``window`` that also occurs in ``window[:-1]``."""
    return max(m for m in range(len(window)) if window[len(window) - m :] in window[:-1])


# At d = 60, L falls from 60 at step 0 to 0 at step 1, and the delete side's L
# starts at 60; in the shorter text L is 0 at once, 60 below the first step's bound.
COLLAPSE = "a" * 61 + "b" + "a" * 60
FIRST_STEP_COLLAPSE = "a" * 60 + "b" + "a" * 60


@pytest.mark.parametrize(
    "text, d",
    [
        ("".join(random.Random(4).choices("ACGT", k=600)), 200),
        (periodic_with_break("abc", 60, "a"), 60),
        ("a" * 50, 20),
        (COLLAPSE, 60),
        (FIRST_STEP_COLLAPSE, 60),
        ("".join(random.Random(5).choices("ACGT", k=300)), 299),
        (periodic_with_break("aab", 40, "b"), 40),
    ],
    ids=["dna", "periodic-break", "unary", "collapse", "first-step-collapse", "dna-n-minus-1", "aab-break"],
)
def test_derivation_find_calls_within_the_cost_bound(monkeypatch, text, d):
    # Per step and direction: at most 2 ceil(log2(d + 1)) tests for L, galloping
    # from the bound the step before left; one test per symbol for (A); and for
    # each k in L + 1 .. r + 1 one repeat test and one test per symbol for (B),
    # plus the repeat test that stops the loop.  Over the slide, L costs
    # O((n - d) + log d) tests per direction.
    log = FindLog()
    search, step = slide._longest_suffix, slide._derived_step

    def counted_search(*args):
        log.phase = "L"
        try:
            return search(*args)
        finally:
            log.phase = None

    def counted_step(ext, *args):
        log.step += 1
        return step(CountingGram(ext, log), *args)

    monkeypatch.setattr(slide, "_longest_suffix", counted_search)
    monkeypatch.setattr(slide, "_derived_step", counted_step)
    n, steps = len(text), len(text) - d
    source = slide._slide_source(text, d, Alphabet.of(sorted(set(text))), "automaton")
    assert len(list(slide._step_differences(text, d, *source))) == steps
    assert log.step == steps - 1
    per_step_l = 2 * math.ceil(math.log2(d + 1))
    totals = Counter()
    for i in range(steps):
        ext = text[i : i + d + 1]
        sigma = len(set(ext))
        for direction, e in (("forward", ext), ("mirror", ext[::-1])):
            L, r = longest_suffix_in(e, e[:-1]), repeat_len(e[:-1])
            l_tests, a_tests, b_tests = (log.calls[i, direction, phase] for phase in "LAB")
            assert l_tests >= 1 and a_tests >= 1, (direction, i)  # the counts see every step
            assert l_tests <= per_step_l, (direction, i)
            assert a_tests + b_tests <= sigma + max(0, r - L + 1) * (sigma + 1) + 1, (direction, i)
            totals[direction] += l_tests
    for direction in ("forward", "mirror"):
        # The general bound of the module docstring, and its O((n - d) + log d) form here.
        assert totals[direction] <= steps + 2 * steps * math.log2(1 + (n - 1) / steps), direction
        assert totals[direction] <= 3 * steps + 2 * math.ceil(math.log2(d + 1)), direction


def restricted_growth_grams(length):
    """Every string of ``length`` symbols from ``LETTERS`` whose new symbols appear in alphabetical order."""
    grams = [""]
    for _ in range(length):
        grams = [g + c for g in grams for c in LETTERS[: len(set(g)) + 1]]
    return grams


def test_derived_step_matches_oracle_on_every_gram_up_to_renaming():
    # Every (d+1)-gram for d <= 7 up to a renaming of its symbols (5294 grams,
    # every alphabet at once), with nothing known about L: both directions'
    # differences and r equal the oracle's single-step reports.
    alphabet = Alphabet.of(LETTERS[:8])
    grams = [g for d in range(1, 8) for g in restricted_growth_grams(d + 1)]
    assert len(grams) == 5294
    for ext in grams:
        d = len(ext) - 1
        mirror, gone, new, r, gained, removed, mirror_r, (L, mirror_L) = slide._derived_step(ext, set(ext), (d, 0))
        assert mirror == ext[::-1]
        assert (L, mirror_L) == (longest_suffix_in(ext, ext[:-1]), longest_suffix_in(mirror, mirror[:-1])), ext
        ap = append_delta(ext[:-1], ext[-1], alphabet, "oracle")
        de = delete_delta(ext, alphabet, "oracle")
        assert (set(gone), new, r) == (set(ap.deleted), set(ap.added), ap.repeat_len), ext
        assert (set(gained), set(removed), mirror_r) == (set(de.added), set(de.deleted), de.repeat_len), ext
        assert all(removed[w] == w[::-1] for w in removed), ext


def carried_cases():
    dna = "".join(random.Random(400).choices("ACGT", k=400))
    cases = [pytest.param(dna, d, "ACGT", id=f"dna-n400-d{d}") for d in (1, 2, 50, 199)]
    cases.append(pytest.param("".join(random.Random(300).choices(LETTERS, k=300)), 8, LETTERS, id="sigma26-n300-d8"))
    cases += [
        pytest.param(periodic_with_break(period, d, breaker), d, symbols, id=f"{period}-break-{breaker}-d{d}")
        for period, breaker, symbols in (("abc", "a", "abc"), ("aab", "b", "ab"))
        for d in (7, 60)
    ]
    cases.append(pytest.param(COLLAPSE, 60, "ab", id="collapse-d60"))
    cases.append(pytest.param(FIRST_STEP_COLLAPSE, 60, "ab", id="first-step-collapse-d60"))
    cases.append(pytest.param(dna[:250], 249, "ACGT", id="dna-n250-d249"))
    return cases


@pytest.mark.parametrize("text, d, symbols", carried_cases())
def test_carried_facts_match_their_definitions(text, d, symbols):
    # On every step and in both directions, what the walk carries forward (L, r
    # and the sliding symbol counts) equals its brute-force definition, and its
    # reports equal the single-step reports of an automaton MawEngine.
    alphabet = Alphabet.of(symbols)
    sigma = len(alphabet)
    steps = list(slide._step_differences(text, d, *slide._slide_source(text, d, alphabet, "automaton")))
    assert len(steps) == len(text) - d
    for i, (ext, mirror, gone, _, r, gained, _, mirror_r, sigma_w, sigma_e, sigma_next) in enumerate(steps):
        assert (ext, mirror) == (text[i : i + d + 1], text[i : i + d + 1][::-1]), i
        window, nxt = ext[:-1], ext[1:]
        # The deleted word of each direction is E's suffix of length L + 1.
        assert len(gone[0]) - 1 == longest_suffix_in(ext, window), i
        assert len(gained[0]) - 1 == longest_suffix_in(ext[::-1], nxt[::-1]), i
        assert (r, mirror_r) == (repeat_len(window), repeat_len(nxt[::-1])), i
        assert (sigma_w, sigma_e, sigma_next) == (len(set(window)), len(set(ext)), len(set(nxt))), i

    engine = MawEngine(alphabet)
    walk = list(slide_steps(text, d, alphabet))
    for i, (_, ap, de) in enumerate(walk):
        ext = text[i : i + d + 1]
        want = append_delta(ext[:-1], ext[-1], alphabet, engine), delete_delta(ext, alphabet, engine)
        assert [r.to_payload(check_step(r, sigma)) for r in (ap, de)] == [
            r.to_payload(check_step(r, sigma)) for r in want
        ], i
        assert (ap, de) == want, i  # the window statistics too, which payloads show only through verdicts
    summary = slide_totals(text, d, alphabet)
    assert summary.per_step == tuple(size for size, _, _ in walk)
    assert summary.sigma_max_window == max(len(set(text[i : i + d])) for i in range(len(text) - d + 1))


def test_single_step_repeat_len_matches_its_definition_exhaustive_binary():
    # r of every binary window up to length 12: on an append of that window,
    # and on a delete whose shrunken window is its reversal.
    engine = MawEngine(BIN)
    for n in range(1, 13):
        for tup in product("01", repeat=n):
            window = "".join(tup)
            assert append_delta(window, "1", BIN, engine).repeat_len == repeat_len(window), window
            assert delete_delta("0" + window[::-1], BIN, engine).repeat_len == repeat_len(window), window
