from mawlab.core import Alphabet
from mawlab.bounds import (
    BoundId,
    BoundVerdict,
    bound_binary_append,
    bound_general_append,
    bound_occurring_append,
    bound_prior_append,
    bound_total,
    check_step,
    check_totals,
)
from mawlab.slide import append_delta, delete_delta, slide_totals

BIN = Alphabet.of("01")


def by_id(verdicts):
    return {v.bound_id: v for v in verdicts}


class TestEvaluators:
    def test_prior_append_formula(self):
        assert bound_prior_append(2, 0, sigma=5) == 14
        assert bound_prior_append(3, 3, sigma=4) == 5  # zero gap -> sigma + 1
        # absent next symbol: no suffix qualifies, encoded as -1
        assert bound_prior_append(0, -1, sigma=3) == 6

    def test_prior_delete_formula(self):
        # the delete side is the same formula on the prefix-side statistics
        assert bound_prior_append(2, 1, sigma=3) == 6
        # shrunken window "abcaab": "ab" repeats, and only "a" has an occurrence preceded by "c"
        rep = delete_delta("cabcaab", Alphabet.of("abc"))
        assert (rep.repeat_len, rep.ext_len) == (2, 1)
        assert by_id(check_step(rep, 3))[BoundId.PRIOR_CROCHEMORE_DELETE].bound_value == 6

    def test_general_append(self):
        assert bound_general_append(6, 4) == 11
        assert bound_general_append(1, 1) == 3
        assert bound_general_append(5, 2) == 8  # binary plug-in is looser than max(3, d)

    def test_occurring_append(self):
        assert bound_occurring_append(5, 2) == 7
        assert bound_occurring_append(3, 3) == 6

    def test_binary_append(self):
        assert bound_binary_append(1) == 3
        assert bound_binary_append(2) == 3
        assert bound_binary_append(5) == 5

    def test_general_delete(self):
        # shrunken window "aabcab": d = 6, sigma_window = 3
        rep = delete_delta("caabcab", Alphabet.of("abc"))
        assert (rep.d, rep.sigma_window) == (6, 3)
        assert by_id(check_step(rep, 3))[BoundId.GENERAL_DELETE].bound_value == 10

    def test_total_cap(self):
        # one append plus one delete per step, each at most min(d, sigma) + d + 1
        assert bound_total(10, 3, 2) == 2 * 7 * 6
        assert bound_total(16, 3, 4) == 2 * 13 * 7

    def test_verdict_arithmetic(self):
        v = BoundVerdict(BoundId.GENERAL_APPEND, 11, 11)
        assert v.satisfied and v.slack == 0
        v = BoundVerdict(BoundId.GENERAL_APPEND, 10, 11)
        assert not v.satisfied and v.slack == -1


class TestCheckStep:
    def test_binary_extremal_step_slacks(self):
        rep = append_delta("00111", "0", BIN)
        got = by_id(check_step(rep, sigma_global=2))
        assert got[BoundId.GENERAL_APPEND].slack == 3
        assert got[BoundId.OCCURRING_APPEND].slack == 2
        assert got[BoundId.BINARY_APPEND].slack == 0
        assert got[BoundId.M12_BINARY_COLLIDE].observed == 2
        assert all(v.satisfied for v in got.values())

    def test_fresh_symbol_step_slacks(self):
        rep = append_delta("abcddd", "e", Alphabet.of("abcde"))
        got = by_id(check_step(rep, sigma_global=5))
        assert got[BoundId.GENERAL_APPEND].slack == 0  # tight
        assert got[BoundId.PRIOR_CROCHEMORE_APPEND].bound_value == 18
        assert BoundId.OCCURRING_APPEND not in got  # appended symbol is new
        assert BoundId.BINARY_APPEND not in got
        assert got[BoundId.TYPE3_CAP].slack == 0

    def test_unary_step_all_positive(self):
        rep = append_delta("000", "0", BIN)
        got = by_id(check_step(rep, sigma_global=2))
        assert rep.delta_size == 2
        assert all(v.satisfied for v in got.values())
        assert got[BoundId.BINARY_APPEND].slack == 1  # max(3, 3) vs 2

    def test_small_d_binary_gate(self):
        rep = append_delta("1", "0", BIN)
        got = by_id(check_step(rep, sigma_global=2))
        assert got[BoundId.BINARY_SMALL_D].bound_value == 3
        assert got[BoundId.BINARY_SMALL_D].observed == 3
        assert BoundId.BINARY_APPEND not in got

    def test_collide_gate_requires_occurring_and_d3(self):
        rep = append_delta("ab", "a", Alphabet.of("ab"))
        got = by_id(check_step(rep, sigma_global=2))
        assert BoundId.M12_COLLIDE not in got  # d == 2
        rep = append_delta("aba", "a", Alphabet.of("ab"))
        got = by_id(check_step(rep, sigma_global=2))
        assert BoundId.M12_COLLIDE in got

    def test_delete_step_verdicts(self):
        rep = delete_delta("cabaaaa", Alphabet.of("abcd"))
        got = by_id(check_step(rep, sigma_global=4))
        assert set(got) == {BoundId.GENERAL_DELETE, BoundId.PRIOR_CROCHEMORE_DELETE}
        assert got[BoundId.GENERAL_DELETE].bound_value == rep.sigma_window + rep.d + 1
        assert all(v.satisfied for v in got.values())


class TestCheckTotals:
    def test_certified_on_families(self):
        ab = Alphabet.of("ab")
        summary = slide_totals("ab" * 30, 6, ab)
        verdicts = by_id(check_totals(summary, sigma_global=2))
        assert verdicts[BoundId.TOTAL_D_N].satisfied
        assert verdicts[BoundId.TOTAL_SIGMA_N].satisfied

        abc = Alphabet.of("abc")
        summary = slide_totals("abcabcabcabc", 2, abc)
        verdicts = by_id(check_totals(summary, sigma_global=3))
        assert set(summary.per_step) == {6}
        assert verdicts[BoundId.TOTAL_D_N].satisfied

    def test_ratio_payload_is_exact_integers(self):
        summary = slide_totals("abcabcabcabc", 2, Alphabet.of("abc"))
        ratio = summary.to_payload()["tightness_ratio"]
        assert ratio == {"numerator": summary.total, "denominator": (12 - 2) * 2}


def test_bound_ids_are_stable_strings():
    assert [b.value for b in BoundId] == [
        "PriorCrochemoreAppend",
        "PriorCrochemoreDelete",
        "GeneralAppend",
        "OccurringAppend",
        "GeneralDelete",
        "BinaryAppend",
        "BinarySmallD",
        "Type1Cap",
        "Type2Cap",
        "Type3Cap",
        "Type3CapBinary",
        "M12Collide",
        "M12BinaryCollide",
        "M123BinaryCap",
        "TotalSigmaN",
        "TotalDN",
    ]
