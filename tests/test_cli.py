import csv
import io
import json
import subprocess
import sys

import pytest

from mawlab.automaton import SuffixAutomaton
from mawlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    return json.loads(out)


def parse_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


class TestMawCommand:
    def test_golden_cbaaaa(self, capsys):
        code, out, _ = run_cli(capsys, "maw", "cbaaaa", "--alphabet", "abcd")
        assert code == 0
        assert set(out.strip().split(",")) == {"cc", "bb", "aaaaa", "bc", "ab", "ca", "ac", "d"}

    def test_golden_abaab(self, capsys):
        code, out, _ = run_cli(capsys, "maw", "abaab", "--alphabet", "abc")
        assert code == 0
        assert set(out.strip().split(",")) == {"aaa", "aaba", "bab", "bb", "c"}

    def test_empty_string_gives_alphabet(self, capsys):
        code, out, _ = run_cli(capsys, "maw", "", "--alphabet", "ab")
        assert code == 0 and out.strip() == "a,b"

    def test_default_alphabet_from_text(self, capsys):
        code, out, _ = run_cli(capsys, "maw", "abaab", "--format", "json")
        env = parse_json(out)
        assert env["alphabet"] == "ab"
        assert "c" not in env["payload"]["words"]

    def test_symbol_outside_alphabet(self, capsys):
        code, _, err = run_cli(capsys, "maw", "abaab", "--alphabet", "ac")
        assert code == 2 and "not in alphabet" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run_cli(capsys, "maw", "--file", "/no/such/file")
        assert code == 2 and "cannot read" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("cbaaaa\n")
        code, out, _ = run_cli(capsys, "maw", "--file", str(path), "--alphabet", "abcd")
        assert code == 0 and "aaaaa" in out

    def test_file_with_inner_line_break(self, capsys, tmp_path):
        for content in (b"ab\nab\n", b"ab\rab"):
            path = tmp_path / "input.txt"
            path.write_bytes(content)
            code, out, err = run_cli(capsys, "maw", "--file", str(path))
            assert code == 2 and out == "" and err.startswith("error:") and "line break" in err

    def test_engines_agree(self, capsys):
        _, out1, _ = run_cli(capsys, "maw", "cbaaaa", "--alphabet", "abcd", "--engine", "oracle")
        _, out2, _ = run_cli(capsys, "maw", "cbaaaa", "--alphabet", "abcd", "--engine", "automaton")
        assert out1 == out2

    def test_csv_matches_json_table(self, capsys):
        _, csv_out, _ = run_cli(capsys, "maw", "abaab", "--alphabet", "abc", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "maw", "abaab", "--alphabet", "abc", "--format", "json")
        header, rows = parse_csv(csv_out)
        payload = parse_json(json_out)["payload"]
        assert header == payload["table_columns"]
        assert [[str(r[c]) for c in header] for r in payload["table"]] == rows

    def test_envelope_has_no_timestamps_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "maw", "ab", "--format", "json")
        env = parse_json(out)
        assert "timestamps" not in env
        _, out, _ = run_cli(capsys, "maw", "ab", "--format", "json", "--timestamps")
        assert "timestamps" in parse_json(out)


class TestSlideCommand:
    def test_alternating_steps(self, capsys):
        code, out, _ = run_cli(capsys, "slide", "abababab", "--window", "4", "--per-step")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n=8 d=4 total=8"
        assert all(line.endswith("delta=2") for line in lines[1:])

    def test_distinct_cycle_steps(self, capsys):
        code, out, _ = run_cli(capsys, "slide", "abcabcabc", "--window", "2", "--per-step")
        assert code == 0
        assert all(line.endswith("delta=6") for line in out.strip().splitlines()[1:])

    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "slide", "aaaa", "--window", "2")
        assert code == 0 and "total=0" in out

    def test_window_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "slide", "aaaa", "--window", "9")
        assert code == 2 and "window length" in err

    def test_csv_schema(self, capsys):
        _, out, _ = run_cli(capsys, "slide", "abababab", "--window", "4", "--format", "csv")
        header, rows = parse_csv(out)
        assert header[:9] == [
            "step_index", "d", "sigma_window", "sigma_ext", "deleted", "m1", "m2", "m3", "delta",
        ]
        assert "GeneralAppend" in header and "GeneralDelete" in header and "TotalDN" in header
        assert len(rows) == 4

    def test_csv_matches_json_table(self, capsys):
        _, csv_out, _ = run_cli(capsys, "slide", "aabbab", "--window", "3", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "slide", "aabbab", "--window", "3", "--format", "json")
        header, rows = parse_csv(csv_out)
        payload = parse_json(json_out)["payload"]
        assert header == payload["table_columns"]
        expected = [
            ["" if r.get(c) is None else str(r.get(c)) for c in header] for r in payload["table"]
        ]
        assert expected == rows

    def test_default_slide_builds_no_automaton(self, capsys, monkeypatch):
        builds = []
        original = SuffixAutomaton.__init__

        def counting_init(self, subject):
            builds.append(subject)
            original(self, subject)

        monkeypatch.setattr(SuffixAutomaton, "__init__", counting_init)
        text, d = "abaababaabbabaabab", 5
        code, _, _ = run_cli(capsys, "slide", text, "--window", str(d), "--per-step", "--format", "json")
        assert code == 0
        assert builds == []

    def test_totals_verdicts_in_payload(self, capsys):
        _, out, _ = run_cli(capsys, "slide", "abcabcabc", "--window", "2", "--format", "json")
        payload = parse_json(out)["payload"]
        ids = {v["bound_id"] for v in payload["totals_verdicts"]}
        assert ids == {"TotalDN", "TotalSigmaN"}
        assert all(v["satisfied"] for v in payload["totals_verdicts"])


class TestVerifyCommand:
    def test_config_run_clean(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "exhaustive", "sigmas": [2], "min_len": 1, "max_len": 6, "engine": "both"}))
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "falsifications=0" in out and "mismatches=0" in out

    def test_weakened_bound_exits_3_with_witness(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "exhaustive", "sigmas": [2], "min_len": 1, "max_len": 5,
            "engine": "automaton", "weaken": "BinaryAppend",
        }))
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 3
        assert "FALSIFIED" in out and "001+0" in out

    def test_preset_with_seed_is_deterministic(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 60, "max_len": 25}))
        _, out1, _ = run_cli(capsys, "verify", "--preset", "random", "--config", str(cfg),
                             "--seed", "7", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "--preset", "random", "--config", str(cfg),
                             "--seed", "7", "--format", "json")
        assert out1 == out2

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "malformed config" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "exhaustive", "sigma": 2}))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "unknown config keys" in err

    def test_non_integer_thread_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("MAWLAB_THREADS", "two")
        code, out, err = run_cli(capsys, "verify", "--preset", "random")
        assert code == 2 and out == "" and err.startswith("error:") and "MAWLAB_THREADS" in err

    def test_non_integer_sigma(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "exhaustive", "sigmas": ["x"]}))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and err.startswith("error:") and "sigmas" in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"max_len": 5.0}, "max_len"),
            ({"samples": 2.5}, "samples"),
            ({"samples": True}, "samples"),
            ({"mode": "random", "min_len": 0, "max_len": 0}, "max_len"),
            ({"deletes": "no"}, "deletes"),
            ({"weaken": "Nope"}, "weaken"),
            ({"sigmas": [True]}, "sigmas"),
            ({"sigmas": [2.7]}, "sigmas"),
            ({"symbols": ["a", "b"]}, "symbols"),
            ({"sigmas": [3], "symbols": "a\nb"}, "symbols"),
            ({"symbols": "aa"}, "symbols"),
        ],
        ids=["float-max-len", "float-samples", "bool-samples", "random-max-len-0",
             "string-deletes", "unknown-weaken", "bool-sigma", "float-sigma",
             "list-symbols", "line-break-symbols", "repeated-symbols"],
    )
    def test_bad_config_value(self, capsys, tmp_path, overrides, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "exhaustive", "max_len": 3, "samples": 5, **overrides}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith("error:") and key in err

    def test_random_mode_respects_budget(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "random", "samples": 10, "budget": 1}))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith("error:") and "budget" in err

    def test_needs_preset_or_config(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_csv_matches_json_table(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "exhaustive", "sigmas": [2], "min_len": 1, "max_len": 5}))
        _, csv_out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--format", "csv")
        _, json_out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--format", "json")
        header, rows = parse_csv(csv_out)
        payload = parse_json(json_out)["payload"]
        assert header == payload["table_columns"]
        assert [[str(r[c]) for c in header] for r in payload["table"]] == rows


class TestGenFamilyCommand:
    def test_z_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen-family", "--family", "ZGeneral", "--d", "6", "--sigma-w", "4",
            "--sigma", "5", "--check",
        )
        assert code == 0
        assert "text=abcddd" in out and "checked_ok=True" in out

    def test_binary_extremal_check(self, capsys):
        code, out, _ = run_cli(capsys, "gen-family", "--family", "BinaryExtremal", "--d", "5", "--check")
        assert code == 0 and "expected_delta=5" in out

    def test_total_distinct_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen-family", "--family", "TotalDistinct", "--n", "30", "--d", "3",
            "--sigma", "4", "--check",
        )
        assert code == 0 and "expected_per_step=10" in out

    def test_check_mismatch_exits_3(self, capsys):
        # Window length 1 of the distinct cycle: measured step size is 4, above
        # the 4d-2 closed form the generator expects, so --check must flag it.
        code, out, _ = run_cli(
            capsys, "gen-family", "--family", "TotalDistinct", "--n", "12", "--d", "1",
            "--sigma", "2", "--check",
        )
        assert code == 3

    def test_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "gen-family", "--family", "BinaryExtremal", "--d", "2")
        assert code == 2
        code, _, err = run_cli(capsys, "gen-family", "--family", "Nope", "--d", "3")
        assert code == 2

    def test_check_d_without_check_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "gen-family", "--family", "AlternatingBinary", "--n", "20", "--check-d", "6",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--check" in err

    def test_check_d_on_a_fixed_window_family_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "gen-family", "--family", "BinaryExtremal", "--d", "3", "--check", "--check-d", "100",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "BinaryExtremal" in err

    def test_json_payload(self, capsys):
        _, out, _ = run_cli(
            capsys, "gen-family", "--family", "TotalSigmaFamily", "--n", "36", "--d", "9",
            "--sigma", "4", "--format", "json",
        )
        payload = parse_json(out)["payload"]
        assert payload["params"]["k"] == 4
        assert payload["step_index"] == 3


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "mawlab.cli", "maw", "abaab", "--alphabet", "abc"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert set(proc.stdout.strip().split(",")) == {"aaa", "aaba", "bab", "bb", "c"}


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [("maw", "--file"), ("slide", "--window", "2", "--file"), ("verify", "--config")],
    ids=["maw", "slide", "verify"],
)
def test_non_utf8_file_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfeab")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == "" and err.startswith("error:") and "not UTF-8" in err
