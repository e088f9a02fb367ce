import pytest

from mawlab.core import Alphabet, InputError
from mawlab.cli import main
from mawlab.families import (
    default_symbols,
    gen_alternating,
    gen_binary_extremal,
    gen_binary_onezeros,
    gen_total_distinct,
    gen_total_sigma,
    gen_unary_v,
    gen_Z,
    generate,
    measure,
)
from mawlab.slide import MawType, append_delta, slide_totals


class TestZ:
    def test_golden_instance(self):
        inst = gen_Z(6, 4, 5)
        assert inst.window == "abcddd" and inst.append_symbol == "e"
        assert inst.expected_delta == 11
        assert inst.expected_types[MawType.TYPE1] == ("ee",)
        assert inst.expected_types[MawType.TYPE2] == ("ea", "eb", "ec", "ed")
        assert inst.expected_types[MawType.TYPE3] == ("ae", "be", "ce", "cde", "cdde")
        assert measure(inst)["ok"]

    def test_degenerate_prefix(self):
        inst = gen_Z(4, 4, 5)
        assert inst.window == "abcd"
        assert measure(inst)["ok"]
        assert measure(inst)["observed_delta"] == 9

    def test_single_symbol_window_length_one(self):
        inst = gen_Z(1, 1, 3)
        assert inst.window == "a" and inst.append_symbol == "b"
        assert measure(inst)["observed_delta"] == 3

    def test_attains_bound_for_all_multi_symbol_windows(self):
        for d in range(2, 13):
            for sigma_w in range(2, d + 1):
                inst = gen_Z(d, sigma_w, sigma_w + 1)
                got = measure(inst)
                assert got["ok"], (d, sigma_w, got)

    def test_validation(self):
        with pytest.raises(InputError):
            gen_Z(3, 4, 5)  # sigma_w > d
        with pytest.raises(InputError):
            gen_Z(1, 1, 2)  # alphabet too small for the hypothesis
        with pytest.raises(InputError):
            gen_Z(4, 4, 4)  # no room for the fresh symbol


class TestBinaryFamilies:
    @pytest.mark.parametrize("d", [3, 5, 10, 16])
    def test_extremal_attains_d(self, d):
        inst = gen_binary_extremal(d)
        assert inst.window == "00" + "1" * (d - 2)
        got = measure(inst)
        assert got["ok"] and got["observed_delta"] == d

    def test_extremal_exact_partition_d5(self):
        inst = gen_binary_extremal(5)
        rep = append_delta(inst.window, inst.append_symbol, inst.alphabet)
        assert rep.added_by_type[MawType.TYPE2] == ("100", "101")
        assert rep.added_by_type[MawType.TYPE3] == ("010", "0110")
        assert rep.deleted == ("10",)

    def test_extremal_small_d_empty_type3(self):
        inst = gen_binary_extremal(3)
        assert inst.expected_types[MawType.TYPE3] == ()
        assert measure(inst)["observed_delta"] == 3

    @pytest.mark.parametrize("d", [3, 4, 7])
    def test_onezeros(self, d):
        inst = gen_binary_onezeros(d)
        assert inst.window == "0" + "1" * (d - 1)
        got = measure(inst)
        assert got["ok"] and got["observed_delta"] == d

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_unary_always_three(self, d):
        got = measure(gen_unary_v(d))
        assert got["ok"] and got["observed_delta"] == 3

    def test_validation(self):
        with pytest.raises(InputError):
            gen_binary_extremal(2)
        with pytest.raises(InputError):
            gen_binary_onezeros(2)
        with pytest.raises(InputError):
            gen_unary_v(0)


class TestTotalSigma:
    def test_period_shape(self):
        inst = gen_total_sigma(20, 4, 3)
        assert inst.params["k"] == 3
        assert inst.text.startswith("accbcc")

    def test_distinguished_step_value(self):
        inst = gen_total_sigma(36, 9, 4, tuple("bcda"))
        assert inst.params["k"] == 4
        assert inst.step_index == 3
        got = measure(inst)
        assert got["ok"]
        assert got["distinguished_step"] == 16

    def test_every_pre_symbol_step_meets_the_floor(self):
        inst = gen_total_sigma(48, 9, 4)
        summary = slide_totals(inst.text, 9, inst.alphabet)
        run = inst.alphabet.symbols[-1]
        floor = inst.expected_min_step
        for i, size in enumerate(summary.per_step):
            if inst.text[i + 9] != run:
                assert size >= floor, i

    def test_validation(self):
        with pytest.raises(InputError):
            gen_total_sigma(20, 4, 2)
        with pytest.raises(InputError):
            gen_total_sigma(20, 3, 4)  # sigma > d
        with pytest.raises(InputError):
            gen_total_sigma(9, 9, 3)  # d >= n
        with pytest.raises(InputError):
            gen_total_sigma(10, 9, 4)  # cannot expose the distinguished step


class TestTotalDistinct:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_per_step_is_4d_minus_2(self, d):
        inst = gen_total_distinct(4 * (d + 1), d, d + 1)
        got = measure(inst)
        assert got["ok"]
        assert got["per_step"] == [4 * d - 2]

    def test_length_one_window_measures_high(self):
        # Adjacent one-symbol windows also swap their single-symbol absences,
        # so the observed step size is 4, above the 4d-2 closed form.
        inst = gen_total_distinct(12, 1, 2)
        got = measure(inst)
        assert not got["ok"]
        assert got["per_step"] == [4]

    def test_validation(self):
        with pytest.raises(InputError):
            gen_total_distinct(12, 3, 3)
        with pytest.raises(InputError):
            gen_total_distinct(3, 3, 4)


class TestAlternating:
    def test_even_window(self):
        inst = gen_alternating(20)
        assert inst.text == "ab" * 10
        got = measure(inst, d=6)
        assert got["ok"] and got["per_step"] == [2]

    def test_odd_window_recorded_not_asserted(self):
        got = measure(gen_alternating(20), d=5)
        assert got["ok"]  # odd d: measured only
        assert got["per_step"] == [2]

    def test_needs_d(self):
        with pytest.raises(InputError):
            measure(gen_alternating(10))

    def test_validation(self):
        with pytest.raises(InputError):
            gen_alternating(7)
        with pytest.raises(InputError):
            gen_alternating(0)


class TestGenerate:
    def test_dispatch_and_aliases(self):
        inst = generate("TotalDistinct", n=12, d=2, sigma=3)
        assert inst.family_id == "TotalDistinctFamily"
        inst = generate("ZGeneral", d=6, sigma_w=4, sigma=5)
        assert inst.window == "abcddd"

    def test_symbols_override(self):
        inst = generate("TotalSigmaFamily", n=36, d=9, sigma=4, symbols=tuple("bcda"))
        assert inst.text.startswith("baaacaaad")

    def test_unknown_family(self):
        with pytest.raises(InputError):
            generate("NoSuchFamily", d=3)

    def test_missing_params(self):
        with pytest.raises(InputError):
            generate("ZGeneral", d=3)

    def test_symbols_rejected_for_fixed_alphabet_families(self):
        with pytest.raises(InputError):
            generate("BinaryExtremal", d=4, symbols=("a", "b"))

    def test_alphabet_sizes(self):
        assert gen_binary_extremal(4).alphabet == Alphabet.of("01")
        assert gen_Z(3, 2, 4).alphabet.size == 4


# Every family that takes custom symbols, with parameters whose checks hold.
SYMBOL_FAMILIES = [
    ("ZGeneral", {"d": 6, "sigma_w": 4, "sigma": 6}),
    ("ZGeneral", {"d": 9, "sigma_w": 9, "sigma": 10}),
    ("TotalSigmaFamily", {"n": 36, "d": 9, "sigma": 4}),
    ("TotalDistinctFamily", {"n": 20, "d": 3, "sigma": 5}),
]


@pytest.mark.parametrize("family, params", SYMBOL_FAMILIES)
class TestReversedAlphabet:
    """Expectations are built in the alphabet's symbol order, reports in canonical order."""

    def test_measure_is_ok(self, family, params):
        symbols = default_symbols(params["sigma"])[::-1]
        got = measure(generate(family, symbols=symbols, **params))
        assert got["ok"], got

    def test_cli_check_exits_0(self, family, params, capsys):
        flags = [f"--{name.replace('_', '-')}={value}" for name, value in params.items()]
        alphabet = "".join(default_symbols(params["sigma"])[::-1])
        code = main(["gen-family", "--family", family, *flags, "--alphabet", alphabet, "--check", "--format", "json"])
        assert code == 0, capsys.readouterr().out
