"""Frozen report outputs; any change to the emitted schema shows up here."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mawlab.cli import main

DATA = Path(__file__).parent / "data"


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def assert_json_dumps_text(out):
    """JSON output is ``json.dumps(indent=2, sort_keys=True)`` byte for byte, whitespace included."""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_slide_json_payload_golden():
    code, out = capture(["slide", "abababab", "--window", "4", "--format", "json"])
    assert code == 0
    assert_json_dumps_text(out)
    payload = json.loads(out)["payload"]
    expected = json.loads((DATA / "slide_abababab_w4_payload.json").read_text())
    assert payload == expected


# Seeded 80-symbol ACGT text: a window of 40 is much longer than the alphabet.
ACGT80 = "GATTCTGGCAAGGCAGCTGCAATTATGATCTAGCCGCGGGGGGTTTGCGTCGTGAAATTTAAACTTTAGTCTCCACGGTT"


def test_slide_long_window_per_step_payload_golden():
    code, out = capture(["slide", ACGT80, "--alphabet", "ACGT", "--window", "40", "--per-step", "--format", "json"])
    assert code == 0
    assert_json_dumps_text(out)
    payload = json.loads(out)["payload"]
    expected = json.loads((DATA / "slide_acgt80_w40_payload.json").read_text())
    assert payload == expected


def test_slide_text_lines_match_the_golden_payload():
    """Text output keeps no table rows; its lines still carry every fused step size."""
    expected = json.loads((DATA / "slide_acgt80_w40_payload.json").read_text())
    code, out = capture(["slide", ACGT80, "--alphabet", "ACGT", "--window", "40", "--per-step"])
    assert code == 0
    assert out.splitlines() == [f"n=80 d=40 total={expected['total']}"] + [
        f"step {i}: delta={delta}" for i, delta in enumerate(expected["per_step"])
    ]
    _, out = capture(["slide", ACGT80, "--alphabet", "ACGT", "--window", "40"])
    assert out == f"n=80 d=40 total={expected['total']}\n"


def mutated_periodic_text() -> str:
    """The period-3 text (aab)* of length 200 with four substituted symbols."""
    text = list(("aab" * 67)[:200])
    for pos, sym in ((50, "c"), (101, "a"), (150, "c"), (151, "b")):
        text[pos] = sym
    return "".join(text)


def test_slide_mutated_periodic_per_step_payload_golden():
    text = mutated_periodic_text()
    code, out = capture(["slide", text, "--alphabet", "abc", "--window", "60", "--per-step", "--format", "json"])
    assert code == 0
    assert_json_dumps_text(out)
    payload = json.loads(out)["payload"]
    expected = json.loads((DATA / "slide_periodic200_w60_payload.json").read_text())
    assert payload == expected


def test_slide_csv_golden():
    code, out = capture(["slide", "abababab", "--window", "4", "--format", "csv"])
    assert code == 0
    assert out == (DATA / "slide_abababab_w4.csv").read_text()


def test_csv_and_json_carry_identical_table_data():
    _, json_out = capture(["slide", "abababab", "--window", "4", "--format", "json"])
    _, csv_out = capture(["slide", "abababab", "--window", "4", "--format", "csv"])
    payload = json.loads(json_out)["payload"]
    lines = csv_out.strip().splitlines()
    header = lines[0].split(",")
    assert header == payload["table_columns"]
    for line, row in zip(lines[1:], payload["table"]):
        cells = line.split(",")
        assert cells == ["" if row[c] is None else str(row[c]) for c in header]


# Seeded random campaigns, pinned as the whole ``verify --format json`` stdout.
_RANDOM = {"mode": "random", "sigmas": [2, 4, 26], "min_len": 1, "max_len": 40, "samples": 200, "seed": 13, "workers": 1}
CAMPAIGNS = {
    "verify_random_both": (dict(_RANDOM, engine="both"), 0),
    "verify_random_oracle": (dict(_RANDOM, engine="oracle"), 0),
    "verify_random_automaton_appends": (dict(_RANDOM, engine="automaton", deletes=False), 0),
    "verify_random_weakened": (
        dict(_RANDOM, sigmas=[2], max_len=12, samples=80, engine="both", weaken="BinaryAppend"),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_stdout_golden(name, tmp_path, monkeypatch):
    """The config is read from the working directory, so the echoed command is the same everywhere."""
    config, exit_code = CAMPAIGNS[name]
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    code, out = capture(["verify", "--config", "config.json", "--format", "json"])
    assert code == exit_code
    assert out == (DATA / f"{name}.json").read_text()
