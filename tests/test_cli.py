import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mawlab import __version__, bounds, cli, slide, verify
from mawlab.automaton import SuffixAutomaton
from mawlab.bounds import check_step, total_verdicts
from mawlab.cli import main
from mawlab.core import Alphabet, ConsistencyError, InputError, TheoremViolationError
from mawlab.oracle import is_maw
from mawlab.slide import SlideSummary, slide_steps


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("slide", "aaaa", "--window", "9"),
            ("slide", "aaaa", "--window", "0"),
            ("slide", "abz", "--alphabet", "ab", "--window", "1"),
            ("slide", "abab", "--window", "4", "--engine", "oracle"),
            ("gen-family", "--family", "TotalDistinct", "--n", "5", "--d", "0", "--sigma", "3"),
            ("gen-family", "--family", "TotalDistinct", "--n", "5", "--d", "-1", "--sigma", "3"),
            ("gen-family", "--family", "TotalDistinct", "--n", "5", "--d", "-3", "--sigma", "3"),
        ],
        ids=[
            "window-too-long", "window-zero", "symbol", "window-oracle",
            "distinct-d0", "distinct-d-1", "distinct-d-3",
        ],
    )
    def test_csv_input_error_prints_nothing_on_stdout(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1

    def test_csv_rows_are_written_as_steps_are_made(self, capsys, monkeypatch):
        argv = ("slide", "abaababaabba", "--window", "4", "--format", "csv")
        _, full, _ = run_cli(capsys, *argv)
        # The third report is step 1's append: by then step 0's row is out.
        plant_violation(monkeypatch, TheoremViolationError, after=2)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and err.startswith("FALSIFIED ")
        assert out == "".join(full.splitlines(keepends=True)[:2])

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_slide_memory_does_not_grow_with_n(self, fmt):
        """csv, and text without --per-step, keep nothing per step: only the text's own copies grow."""
        rng = random.Random(5)
        peaks = []
        for n in (300, 500, 2500):  # the first run warms up caches
            text = "".join(rng.choice("ACGT") for _ in range(n))
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(["slide", text, "--alphabet", "ACGT", "--window", "4", "--format", fmt]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # Keeping each fused size costs about 16 bytes per step, 32 000 here.
        assert peaks[2] - peaks[1] < 6 * 2000, peaks

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
        for value in ("two", "0", "-3"):
            monkeypatch.setenv("MAWLAB_THREADS", value)
            # Reads the count only: no campaign runs, so no process starts.
            with pytest.raises(InputError, match="MAWLAB_THREADS"):
                verify._effective_workers(verify.CampaignConfig())
            code, out, err = run_cli(capsys, "verify", "--preset", "random")
            assert code == 2 and out == "" and err.startswith("error:") and "MAWLAB_THREADS" in err, value

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
        code, out, err = run_cli(capsys, "gen-family", "--family", "BinaryExtremal", "--d", "3", "--alphabet", "")
        assert (code, out) == (2, "") and "custom alphabet" in err

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


def plant_violation(monkeypatch, error, after=0):
    """Make every ``type3_injection`` call after the first ``after`` raise ``error`` naming its window."""
    calls = []
    real = slide.type3_injection

    def planted(m3, window):
        calls.append(window)
        if len(calls) > after:
            raise error(f"planted violation in window {window!r}")
        return real(m3, window)

    monkeypatch.setattr(slide, "type3_injection", planted)


@pytest.mark.parametrize(
    "argv",
    [
        ("slide", "abaababaab", "--window", "4"),
        ("slide", "abaababaab", "--window", "4", "--per-step", "--format", "json"),
        ("gen-family", "--family", "ZGeneral", "--d", "6", "--sigma-w", "4", "--sigma", "5", "--check"),
    ],
    ids=["slide-text", "slide-json", "gen-family-check"],
)
def test_theorem_violation_exits_3_with_one_falsified_line(capsys, monkeypatch, argv):
    plant_violation(monkeypatch, TheoremViolationError)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("FALSIFIED planted violation in window ") and err.count("\n") == 1 and err.endswith("\n")


def test_consistency_error_stays_a_traceback(capsys, monkeypatch):
    plant_violation(monkeypatch, ConsistencyError)
    with pytest.raises(ConsistencyError, match="planted violation"):
        main(["slide", "abaababaab", "--window", "4"])


def test_console_script_wiring():
    # The child imports the package these tests import, also when only pytest's pythonpath found it.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "mawlab.cli", "maw", "abaab", "--alphabet", "abc"],
        capture_output=True,
        text=True,
        env=env,
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


@pytest.mark.parametrize(
    "argv, content",
    [
        (("maw", "--file"), "ACGT\n"),
        (("maw", "--alphabet", "ACGT", "--format", "json", "--file"), "ACGT\n"),
        (("slide", "--window", "3", "--file"), "ACGTTGCA"),
        (("slide", "--window", "3", "--format", "csv", "--alphabet", "ACGT", "--file"), "ACGTTGCA\n"),
        (("verify", "--format", "json", "--config"), json.dumps({"mode": "exhaustive", "sigmas": [2], "max_len": 4})),
    ],
    ids=["maw", "maw-alphabet", "slide", "slide-alphabet", "verify"],
)
def test_a_byte_order_mark_is_not_part_of_the_input(capsys, tmp_path, argv, content):
    path = tmp_path / "input"
    path.write_text(content, encoding="utf-8")
    plain = run_cli(capsys, *argv, str(path))
    path.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
    assert run_cli(capsys, *argv, str(path)) == plain
    assert plain[0] == 0


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize(
    "argv, source",
    [
        (("maw", "ab{}c"), "TEXT"),
        (("maw", "abc", "--alphabet", "abc{}"), "--alphabet"),
        (("slide", "ab{0}ab{0}ab", "--window", "2"), "TEXT"),
        (("slide", "abab", "--window", "2", "--alphabet", "a{}b"), "--alphabet"),
        (("gen-family", "--family", "ZGeneral", "--d", "3", "--sigma-w", "2", "--sigma", "3",
          "--alphabet", "ab{}", "--check"), "--alphabet"),
    ],
    ids=["maw-text", "maw-alphabet", "slide-text", "slide-alphabet", "gen-family-alphabet"],
)
def test_line_break_in_text_or_alphabet_exits_2(capsys, argv, source, brk):
    code, out, err = run_cli(capsys, *(a.format(brk) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {source} has a line break")


def slide_json_reference(text, d, symbols, per_step, argv):
    """``slide --format json`` stdout built the way the payload is defined: every step
    and row as a dict (``DeltaReport.to_payload``), the whole envelope through ``json.dumps``."""
    alphabet = Alphabet.of(symbols)
    sigma = len(alphabet)
    rows, steps, sizes, sigma_max, ok = [], [], [], 0, True
    for i, (fused, ap, de) in enumerate(slide_steps(text, d, alphabet)):
        ap_verdicts, de_verdicts = check_step(ap, sigma), check_step(de, sigma)
        sizes.append(fused)
        sigma_max = max(sigma_max, ap.sigma_window, de.sigma_window)
        row = dict.fromkeys(cli._SLIDE_COLUMNS)
        row.update(step_index=i, d=d, sigma_window=ap.sigma_window, sigma_ext=ap.sigma_ext,
                   deleted=len(ap.deleted), delta=fused)
        row.update(zip(("m1", "m2", "m3"), ap.type_counts))
        for v in ap_verdicts + de_verdicts:
            row[v.bound_id] = v.slack
            ok = ok and v.satisfied
        rows.append(row)
        steps.append({"step_index": i, "fused_delta": fused,
                      "append": ap.to_payload(ap_verdicts), "delete": de.to_payload(de_verdicts)})
    summary = SlideSummary(len(text), d, tuple(sizes), sigma_max)
    totals = total_verdicts(len(text), d, summary.total, sigma_max, sigma)
    payload = summary.to_payload()
    payload["totals_verdicts"] = [v.to_payload() for v in totals]
    payload["table_columns"] = list(cli._SLIDE_COLUMNS)
    payload["table"] = rows
    if per_step:
        payload["steps"] = steps
    envelope = {"tool": "mawlab", "version": __version__, "command": list(argv),
                "alphabet": alphabet.as_str(), "payload": payload}
    code = 0 if ok and all(v.satisfied for v in totals) else 3
    return code, json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def assert_slide_json_matches_reference(text, d, symbols, per_step):
    argv = ["slide", text, "--alphabet", symbols, "--window", str(d), "--format", "json"]
    argv += ["--per-step"] if per_step else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert err == ""
    assert (code, out) == slide_json_reference(text, d, symbols, per_step, argv)
    return code, out


# Symbols json escapes or that look like its own syntax, a tab, DEL and an
# astral symbol (escaped as a surrogate pair); none can start an option.
_SLIDE_SYMBOLS = '",\\]{é\t\x7f𝄞ab'


@st.composite
def slide_cases(draw):
    symbols = "".join(draw(st.lists(st.sampled_from(_SLIDE_SYMBOLS), min_size=1, max_size=5, unique=True)))
    text = draw(st.text(st.sampled_from(symbols), min_size=2, max_size=24))
    d = draw(st.integers(1, len(text) - 1))
    return text, d, symbols, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(slide_cases())
@example(("ab𝄞é\t\x7f𝄞ab{", 3, "ab𝄞é\t\x7f{", True))
@example(('",\\]{é\t\x7f𝄞', 8, '",\\]{é\t\x7f𝄞', True))
@example(('é"a{é"a\t{', 3, 'é"a{\t', True))
def test_slide_json_equals_the_reference_payload(case):
    text, d, symbols, per_step = case
    _, out = assert_slide_json_matches_reference(text, d, symbols, per_step)
    if "𝄞" in text:
        assert "\\ud834\\udd1e" in out


def test_slide_json_with_unsatisfied_verdicts_equals_the_reference(monkeypatch):
    monkeypatch.setattr(bounds, "bound_general_append", lambda d, sigma_window: 0)
    code, out = assert_slide_json_matches_reference("abaababaabbab", 4, "ab", True)
    assert code == 3
    assert '"satisfied": false' in out and '"slack": -' in out
    assert '"GeneralAppend": -' in out and '"GeneralDelete": -' in out


def slide_csv_reference(text, d, symbols):
    """``slide --format csv`` stdout and exit code: the rows of ``slide_json_reference``,
    which runs a fresh ``check_step`` per report, written by ``csv.writer``."""
    argv = ["slide", text, "--alphabet", symbols, "--window", str(d), "--format", "json"]
    code, out = slide_json_reference(text, d, symbols, False, argv)
    payload = json.loads(out)["payload"]
    columns = payload["table_columns"]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(["" if row[col] is None else row[col] for col in columns] for row in payload["table"])
    return code, expected.getvalue()


def run_slide(text, d, symbols, *options):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["slide", text, "--alphabet", symbols, "--window", str(d), *options])
    return code, out.getvalue(), err.getvalue()


_AZ = "abcdefghijklmnopqrstuvwxyz"
_SLIDE_CASES = [
    ("abaababaabbab", 4, "ab"),
    ("".join(random.Random(11).choices("ACGT", k=300)), 3, "ACGT"),
    ("".join(random.Random(12).choices(_AZ, k=200)), 8, _AZ),
]


@pytest.mark.parametrize("patched", [False, True], ids=["bounds", "unsatisfied"])
def test_slide_csv_equals_the_reference_rows(monkeypatch, patched):
    if patched:
        monkeypatch.setattr(bounds, "bound_general_append", lambda d, sigma_window: 0)
    for text, d, symbols in _SLIDE_CASES:
        code, out, err = run_slide(text, d, symbols, "--format", "csv")
        assert err == ""
        assert (code, out) == slide_csv_reference(text, d, symbols)
        assert code == (3 if patched else 0)
        if patched:
            assert ",-" in out


@pytest.mark.parametrize("entries", [0, 1])
@pytest.mark.parametrize("options", [("--format", "json", "--per-step"), ("--format", "csv")], ids=["json", "csv"])
def test_slide_output_does_not_depend_on_the_memo_size(monkeypatch, entries, options):
    text, d, symbols = _SLIDE_CASES[1]
    want = run_slide(text, d, symbols, *options)
    monkeypatch.setattr(cli, "_MEMO_ENTRIES", entries)
    assert run_slide(text, d, symbols, *options) == want


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name`` from now on."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_slide_sorts_twice_per_step_and_checks_each_signature_once(monkeypatch):
    text, d = "".join(random.Random(13).choices(_AZ, k=1000)), 8
    signatures = {
        (bounds.verdict_inputs(ap), bounds.verdict_inputs(de)) for _, ap, de in slide_steps(text, d, Alphabet.of(_AZ))
    }
    sorts = count_calls(monkeypatch, slide, "canonical_words")
    checks = count_calls(monkeypatch, cli, "check_step")
    assert run_slide(text, d, _AZ, "--format", "json", "--per-step")[0] == 0
    assert len(sorts) == 2 * (len(text) - d)
    assert 0 < len(checks) <= 2 * len(signatures) < len(text) - d


@pytest.mark.parametrize("symbols", ["ACGT", _SLIDE_SYMBOLS], ids=["dna", "odd"])
def test_maw_json_and_csv_equal_the_reference_rows(capsys, symbols):
    """Text, json and csv of ``maw`` on both engines, against words found by the three-condition test."""
    text = (symbols * 7)[::3] + symbols[::-1]
    alphabet = Alphabet.of(symbols)
    factors = {text[i:j] for i in range(len(text)) for j in range(i, len(text) + 1)}
    words = sorted({x + b for x in factors for b in symbols if is_maw(x + b, text, alphabet)}, key=lambda w: (len(w), w))
    csv_out = io.StringIO()
    csv.writer(csv_out, lineterminator="\n").writerows([["word", "length"], *([w, len(w)] for w in words)])
    for engine in ("auto", "automaton", "oracle"):
        argv = ["maw", text, "--alphabet", symbols, "--engine", engine, "--format"]
        payload = {
            "subject_length": len(text),
            "alphabet": symbols,
            "count": len(words),
            "words": words,
            "table_columns": ["word", "length"],
            "table": [{"word": w, "length": len(w)} for w in words],
        }
        envelope = {"tool": "mawlab", "version": __version__, "command": argv + ["json"], "alphabet": symbols, "payload": payload}
        assert run_cli(capsys, *argv, "json") == (0, json.dumps(envelope, indent=2, sort_keys=True) + "\n", ""), engine
        assert run_cli(capsys, *argv, "csv") == (0, csv_out.getvalue(), ""), engine
        assert run_cli(capsys, *argv, "text") == (0, ",".join(words) + "\n", ""), engine


# In code-point order: gen-family --check compares its expected words in symbol order.
_ODD_SYMBOLS = '",\\]{é'
_ODD_TEXT = '{],"é\\,]{é"\\'


@pytest.mark.parametrize(
    "argv",
    [
        ("slide", _ODD_TEXT, "--alphabet", _ODD_SYMBOLS, "--window", "4", "--per-step"),
        # The echoed path holds the text the writer splices the table at, escaped by json.
        ("slide", "--file", "TEXTFILE", "--alphabet", _ODD_SYMBOLS, "--window", "4", "--per-step"),
        ("maw", '{],"é\\,]{é"', "--alphabet", _ODD_SYMBOLS),
        ("verify", "--config", "CONFIG"),
        ("gen-family", "--family", "ZGeneral", "--d", "5", "--sigma-w", "4", "--sigma", "6",
         "--alphabet", _ODD_SYMBOLS, "--check"),
    ],
    ids=["slide", "slide-file", "maw", "verify", "gen-family"],
)
def test_json_output_is_json_dumps_byte_for_byte(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "random", "sigmas": [6], "symbols": _ODD_SYMBOLS, "min_len": 2, "max_len": 8,
        "samples": 6, "workers": 1,
    }))
    text_file = tmp_path / 'text\n    "table": []'
    text_file.write_text(_ODD_TEXT, encoding="utf-8")
    argv = [{"CONFIG": str(cfg), "TEXTFILE": str(text_file)}.get(a, a) for a in argv] + ["--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert "\\u00e9" in out
    if "--file" in argv:
        assert (code, out) == slide_json_reference(_ODD_TEXT, 4, _ODD_SYMBOLS, True, argv)
