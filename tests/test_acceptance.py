"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  The heavyweight sweeps are shared module-scoped fixtures.

Two sub-criteria are asserted exactly as stated and are expected to FAIL,
because the stated closed forms are provably not attained by the constructions
(see the failure messages and the repository notes):

* criterion 2's tightness grid at sigma_w = 1 with d >= 2, and
* criterion 6's distinct-cycle family at window length d = 1.
"""

import time
from itertools import product

import pytest

from mawlab.core import Alphabet
from mawlab.bounds import BoundId, bound_total, total_verdicts
from mawlab.families import (
    gen_alternating,
    gen_total_distinct,
    gen_total_sigma,
    gen_Z,
    measure,
)
from mawlab.oracle import enumerate_maws_naive
from mawlab.automaton import enumerate_maws_fast
from mawlab.slide import MawEngine, MawType, append_delta, delete_delta, slide_totals
from mawlab.verify import CampaignConfig, run_exhaustive, run_random

BIN = Alphabet.of("01")
WORKERS = 2


@pytest.fixture(scope="module")
def binary_sweep():
    config = CampaignConfig(
        mode="exhaustive", sigmas=(2,), min_len=1, max_len=14, engine="both", workers=WORKERS
    )
    return run_exhaustive(config)


@pytest.fixture(scope="module")
def ternary_sweep():
    config = CampaignConfig(
        mode="exhaustive", sigmas=(3,), min_len=1, max_len=9, engine="both", workers=WORKERS
    )
    return run_exhaustive(config)


@pytest.fixture(scope="module")
def random_equivalence():
    config = CampaignConfig(
        mode="random",
        sigmas=(2, 4, 26),
        min_len=1,
        max_len=200,
        samples=10_000,
        seed=42,
        engine="both",
        checks="enum-only",
        workers=WORKERS,
    )
    return run_random(config)


def test_criterion_1_golden_examples():
    started = time.perf_counter()
    abc = Alphabet.of("abc")
    abcd = Alphabet.of("abcd")

    assert set(enumerate_maws_naive("abaab", abc).words) == {"aaa", "aaba", "bab", "bb", "c"}
    assert set(enumerate_maws_naive("cbaaaa", abcd).words) == {
        "cc", "bb", "aaaaa", "bc", "ab", "ca", "ac", "d",
    }
    assert set(enumerate_maws_naive("cbaaaac", abcd).words) == {
        "cc", "bb", "aaaaa", "bc", "ab", "ca", "acb", "bac", "baac", "baaac", "d",
    }

    delta = append_delta("cbaaaa", "c", abcd)
    assert delta.deleted == ("ac",)
    assert set(delta.added) == {"acb", "bac", "baac", "baaac"}

    assert time.perf_counter() - started < 1.0


def test_criterion_2_tightness_general():
    started = time.perf_counter()

    # The worked instance: abcddd with a fresh fifth symbol appended.
    inst = gen_Z(6, 4, 5)
    report = append_delta(inst.window, inst.append_symbol, inst.alphabet)
    assert report.delta_size == 11 == report.sigma_window + report.d + 1
    assert report.deleted == ("e",)
    assert report.added_by_type[MawType.TYPE1] == ("ee",)
    assert report.added_by_type[MawType.TYPE2] == ("ea", "eb", "ec", "ed")
    assert report.added_by_type[MawType.TYPE3] == ("ae", "be", "ce", "cde", "cdde")

    # Slack 0 across the attainable grid: every multi-symbol window plus d = 1.
    for d in range(1, 13):
        for sigma_w in range(1, d + 1):
            if sigma_w == 1 and d >= 2:
                continue  # asserted (and failing) in the companion test below
            z = gen_Z(d, sigma_w, max(3, sigma_w + 1))
            rep = append_delta(z.window, z.append_symbol, z.alphabet)
            assert rep.delta_size == sigma_w + d + 1, (d, sigma_w)

    assert time.perf_counter() - started < 10.0


def test_criterion_2_tightness_unary_window_rows():
    """Grid rows sigma_w = 1, d >= 2, asserted at the stated value sigma_w + d + 1.

    A window with a single distinct symbol cannot attain it: appending a fresh
    symbol b to a^d always changes exactly 3 words (b deleted; bb and ba
    added), independent of d.  This test states the full-grid expectation
    literally and is expected to fail; the measured value 3 is what the
    construction provably yields.
    """
    failures = []
    for d in range(2, 13):
        z = gen_Z(d, 1, 3)
        rep = append_delta(z.window, z.append_symbol, z.alphabet)
        if rep.delta_size != 1 + d + 1:
            failures.append(f"d={d}: measured {rep.delta_size}, stated {d + 2}")
    assert not failures, (
        "sigma_w = 1 rows of the tightness grid are not attainable: "
        + "; ".join(failures)
        + " (appending a fresh symbol to a unary window always changes 3 words)"
    )


def test_criterion_3_binary_exhaustive(binary_sweep):
    report = binary_sweep
    assert report.instances == sum(2**n for n in range(1, 15))
    assert report.falsifications == (), report.falsifications[:3]
    assert report.engine_mismatches == ()

    # Every binary-regime bound was exercised and satisfied with nonnegative slack.
    for bound in (
        BoundId.BINARY_APPEND,
        BoundId.BINARY_SMALL_D,
        BoundId.TYPE3_CAP_BINARY,
        BoundId.M12_BINARY_COLLIDE,
        BoundId.M123_BINARY_CAP,
        BoundId.GENERAL_APPEND,
        BoundId.OCCURRING_APPEND,
        BoundId.TYPE1_CAP,
    ):
        row = report.bounds[bound.value]
        assert row["count"] > 0 and row["min_slack"] >= 0, (bound, row)

    # Tightness: the maximum observed change equals max(3, d) for every d.
    for d in range(1, 15):
        assert report.max_delta(d) == max(3, d), d

    assert report.wall_clock < 300.0


def test_criterion_4_ternary_exhaustive(ternary_sweep):
    report = ternary_sweep
    assert report.instances == sum(3**n for n in range(1, 10))
    assert report.falsifications == (), report.falsifications[:3]
    assert report.engine_mismatches == ()

    for bound in (
        BoundId.TYPE1_CAP,
        BoundId.TYPE2_CAP,
        BoundId.TYPE3_CAP,
        BoundId.GENERAL_APPEND,
        BoundId.OCCURRING_APPEND,
        BoundId.M12_COLLIDE,
    ):
        row = report.bounds[bound.value]
        assert row["count"] > 0 and row["min_slack"] >= 0, (bound, row)

    assert report.wall_clock < 300.0


def test_criterion_5_delete_symmetry(binary_sweep, ternary_sweep):
    # The reduction must equal both the reversal image of the append analysis
    # and the direct set difference, on every binary string of length <= 12.
    engine = MawEngine(BIN)
    for n in range(2, 13):
        for tup in product("01", repeat=n):
            s = "".join(tup)
            rep = delete_delta(s, BIN, engine)
            mirror = append_delta(s[1:][::-1], s[0], BIN, engine)
            assert set(rep.deleted) == {w[::-1] for w in mirror.added}, s
            assert set(rep.added) == {w[::-1] for w in mirror.deleted}, s
            before = set(engine.words(s))
            after = set(engine.words(s[1:]))
            assert set(rep.deleted) == before - after, s
            assert set(rep.added) == after - before, s

    # Delete-direction bound held on every delete step of the two sweeps.
    for report in (binary_sweep, ternary_sweep):
        row = report.bounds[BoundId.GENERAL_DELETE.value]
        assert row["count"] > 0 and row["min_slack"] >= 0
        assert not any(f["kind"] == "delete-reduction" for f in report.falsifications)


def test_criterion_6_totals():
    started = time.perf_counter()
    summaries = []

    # Alternating family, n = 200: every step changes exactly 2 for even d.
    alt = gen_alternating(200)
    for d in range(2, 21, 2):
        summary = slide_totals(alt.text, d, alt.alphabet)
        summaries.append((summary, alt.alphabet))
        assert set(summary.per_step) == {2}, d

    # Distinct-symbol cycle: every interior step changes exactly 4d - 2 (d >= 2;
    # d = 1 is asserted, and fails, in the companion test below).
    for d in range(2, 11):
        inst = gen_total_distinct(4 * (d + 1), d, d + 1)
        summary = slide_totals(inst.text, d, inst.alphabet)
        summaries.append((summary, inst.alphabet))
        assert set(summary.per_step) == {4 * d - 2}, d

    # The sigma <= d family at (sigma=4, d=9, k=4) reproduces the worked
    # 16-element step exactly.
    inst = gen_total_sigma(36, 9, 4, tuple("bcda"))
    assert inst.params["k"] == 4
    i = inst.step_index
    w1, w2 = inst.text[i : i + 9], inst.text[i + 1 : i + 10]
    diff = set(enumerate_maws_naive(w1, inst.alphabet).words) ^ set(enumerate_maws_naive(w2, inst.alphabet).words)
    assert diff == {
        "b", "aac", "cac", "dac", "ac", "ba", "bb", "bc", "bd",
        "cb", "cab", "caab", "caaab", "db", "dab", "daab",
    }
    assert len(diff) == 16
    summary = slide_totals(inst.text, 9, inst.alphabet)
    summaries.append((summary, inst.alphabet))
    assert summary.per_step[i] == 16

    # Certified total cap on every tested text.
    for summary, alphabet in summaries:
        cap = bound_total(summary.text_length, summary.d, summary.sigma_max_window)
        assert summary.total <= cap
        verdicts = total_verdicts(
            summary.text_length, summary.d, summary.total, summary.sigma_max_window, alphabet.size
        )
        assert all(v.satisfied for v in verdicts)

    assert time.perf_counter() - started < 60.0


def test_criterion_6_distinct_family_d1():
    """Distinct-cycle family at d = 1, asserted at the stated per-step value 4d - 2 = 2.

    Adjacent one-symbol windows also exchange their single-symbol absent
    words (a and b are each absent from exactly one window), so the measured
    step size is 4.  The closed form 4d - 2 only counts the length-2 words
    and is provably short by 2 at d = 1.  Expected to fail.
    """
    inst = gen_total_distinct(12, 1, 2)
    summary = slide_totals(inst.text, 1, inst.alphabet)
    assert set(summary.per_step) == {4 * 1 - 2}, (
        f"stated per-step size 2, measured {sorted(set(summary.per_step))}; "
        "single-symbol windows add the two length-1 absences to every step"
    )


def test_criterion_7_engine_equivalence(binary_sweep, ternary_sweep, random_equivalence):
    assert binary_sweep.engine_mismatches == ()
    assert ternary_sweep.engine_mismatches == ()

    report = random_equivalence
    assert report.instances == 10_000
    assert report.engine_mismatches == ()
    assert report.wall_clock < 300.0

    # The sweeps compare enumerations on every window and extension they visit;
    # spot-check the longest extension strings explicitly.
    for s in ("0" * 15, "01" * 7 + "0", "001" * 5):
        assert enumerate_maws_fast(s, BIN).words == enumerate_maws_naive(s, BIN).words


def test_criterion_8_asymptotic_claims_substituted(binary_sweep, family_cells):
    # The growth-rate claims are covered by finite certificates: exact caps
    # that always hold, plus constructions meeting them with zero slack.
    assert len(family_cells) == 57
    for cell, inst in family_cells.items():
        result = measure(inst)
        assert result["ok"], (cell, result)
        assert result["observed_delta"] == inst.expected_delta, (cell, result)

    # Upper side: the certified cap held on the sweep's own extremal steps.
    for d in range(3, 15):
        assert binary_sweep.max_delta(d) <= max(3, d)

    # Lower side: the families keep the total within a constant factor of
    # (n - d) * min(d, sigma), witnessing the growth rate from below.
    checks = [
        (gen_alternating(200).text, Alphabet.of("ab"), 10),
        (gen_total_distinct(44, 10, 11).text, Alphabet.of("abcdefghijk"), 10),
        (gen_total_sigma(48, 9, 4).text, Alphabet.of("abcd"), 9),
    ]
    for text, alphabet, d in checks:
        summary = slide_totals(text, d, alphabet)
        floor = (summary.text_length - d) * min(d, summary.sigma_max_window)
        assert summary.total >= floor, (text[:16], summary.total, floor)
        assert summary.total <= bound_total(summary.text_length, d, summary.sigma_max_window)
