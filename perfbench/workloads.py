"""Workload definitions: seeded op inputs, argv, work accounting and output checks.

An op is one ``mawlab`` CLI invocation on one seeded input.  Only the
generated argv and the files it names reach the program.  Op ``index`` of a
run draws its input from ``op_seed(seed, index)``; index -1 is the warm-up
op.  Ops cycle through a workload's fixed schedule of input shapes, and runs
measure whole rounds of it, so every seed measures the same mix of shapes.

Checks run after an op's timer stops.  ``inspect`` does the cheap ones on the
captured output and keeps a small sample; ``recheck`` re-derives that sample
with the brute-force oracle once the timed loop has ended, so the oracle's
memory never counts towards the workload's peak RSS.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SPEC_PATH = Path(__file__).with_name("workloads.json")
SIZES = ("full", "smoke")


def op_seed(seed: int, index: int) -> int:
    """Input seed of op ``index`` in a run with ``seed``.

    The warm-up op (index -1) gets the same input in every run, so set-up
    time measures the same work whatever the seed.
    """
    return 0 if index < 0 else seed * 1_000_003 + index + 1


@dataclass
class Op:
    index: int
    seed: int
    argv: list[str]
    files: dict[str, str]  # argv path -> content, written before the op runs
    steps: int
    symbols: int
    material: dict = field(default_factory=dict)  # what the checks need besides the output


def load_specs(size: str = "full") -> dict[str, dict]:
    """Workload specs from ``workloads.json``, with the smoke overrides applied if asked."""
    specs = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    for spec in specs.values():
        if size == "smoke":
            spec["params"] = {**spec["params"], **spec["smoke"]}
    return specs


def _text(rng: random.Random, symbols: str, n: int) -> str:
    return "".join(rng.choices(symbols, k=n))


def _sorted_canonically(words: list[str]) -> bool:
    return all((len(a), a) < (len(b), b) for a, b in zip(words, words[1:]))


class SlideWorkload:
    """``mawlab slide`` over i.i.d. texts; each schedule slot is a (d, n) pair."""

    def __init__(self, params: dict) -> None:
        self.symbols = params["symbols"]
        self.format = params["format"]
        self.per_step = params["per_step"]
        self.sample_rows = params["sample_rows"]
        if "windows" in params:
            self.schedule = [(d, d * params["text_per_window"]) for d in params["windows"]]
        else:
            self.schedule = [(params["window"], n) for n in params["lengths"]]
        self.trace_rounds = params["trace_rounds"]

    def make(self, seed: int, index: int, workdir: Path) -> Op:
        s = op_seed(seed, index)
        d, n = self.schedule[max(index, 0) % len(self.schedule)]
        text = _text(random.Random(s), self.symbols, n)
        path = str(workdir / "input.txt")
        argv = ["slide", "--file", path, "--alphabet", self.symbols, "--window", str(d), "--format", self.format]
        if self.per_step:
            argv.append("--per-step")
        return Op(index, s, argv, {path: text}, steps=n - d, symbols=n, material={"text": text, "d": d})

    def inspect(self, op: Op, code: int, out: str) -> tuple[list[str], list]:
        if code != 0:
            return [f"exit code {code}"], []
        text, d = op.material["text"], op.material["d"]
        if self.format == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            payload = json.loads(out)["payload"]
            rows = payload["table"]
            if self.per_step and len(payload["steps"]) != len(rows):
                return ["per-step payload and table differ in length"], []
        if [int(r["step_index"]) for r in rows] != list(range(len(text) - d)):
            return [f"expected {len(text) - d} rows in step order"], []
        picks = random.Random(op.seed).sample(range(len(rows)), min(self.sample_rows, len(rows)))
        sample = [
            (i, [int(rows[i][k]) for k in ("delta", "deleted", "m1", "m2", "m3")]) for i in sorted(picks)
        ]
        return [], sample

    def recheck(self, op: Op, sample: list) -> list[str]:
        from mawlab.core import Alphabet
        from mawlab.slide import MawEngine, append_delta

        text, d = op.material["text"], op.material["d"]
        alphabet = Alphabet.of(self.symbols)
        problems = []
        for i, got in sample:
            oracle = MawEngine(alphabet, "oracle")
            window = text[i : i + d]
            report = append_delta(window, text[i + d], alphabet, oracle)
            delta = len(set(oracle.words(window)) ^ set(oracle.words(text[i + 1 : i + d + 1])))
            want = [delta, len(report.deleted), *report.type_counts]
            if got != want:
                problems.append(f"row {i}: delta/deleted/m1-m3 {got} != oracle {want}")
        return problems


class VerifyWorkload:
    """Random-mode ``mawlab verify --config``; one campaign seed per op."""

    def __init__(self, params: dict) -> None:
        self.config = params["config"]
        self.samples = params["samples"]
        if self.config["min_len"] < 2:
            raise ValueError("min_len >= 2 makes every sample contribute a fixed number of steps")
        self.schedule = [None]
        self.trace_rounds = params["trace_rounds"]

    def make(self, seed: int, index: int, workdir: Path) -> Op:
        s = op_seed(seed, index)
        config = {**self.config, "samples": self.samples, "seed": s}
        path = str(workdir / "config.json")
        steps = self.samples * (2 if config.get("deletes", True) else 1)
        return Op(
            index, s, ["verify", "--config", path, "--format", "json"],
            {path: json.dumps(config, sort_keys=True)},
            steps=steps, symbols=_campaign_symbols(config),
        )

    def inspect(self, op: Op, code: int, out: str) -> tuple[list[str], list]:
        if code != 0:
            return [f"exit code {code}"], []
        payload = json.loads(out)["payload"]
        problems = []
        if payload["ok"] is not True:
            problems.append("campaign not ok")
        if payload["engine_mismatches"]:
            problems.append(f"{len(payload['engine_mismatches'])} engine mismatches")
        if payload["steps"] != op.steps or payload["instances"] != self.samples:
            problems.append(f"steps {payload['steps']} / instances {payload['instances']}, expected {op.steps} / {self.samples}")
        return problems, []

    def recheck(self, op: Op, sample: list) -> list[str]:
        return []


def _campaign_symbols(config: dict) -> int:
    """Total length of the subjects a random campaign draws, replaying ``run_random``'s draws.

    ``run_random`` draws a length with ``randint`` and then one ``random()``
    per symbol (``rng.choices``), so this sum needs no symbols.
    """
    rng = random.Random(config["seed"])
    total = 0
    for _ in range(config["samples"]):
        n = rng.randint(max(1, config["min_len"]), config["max_len"])
        for _ in range(n):
            rng.random()
        total += n
    return total


class MawWorkload:
    """``mawlab maw --file`` on large i.i.d. texts; each schedule slot is (n, symbols)."""

    def __init__(self, params: dict) -> None:
        self.schedule = [tuple(slot) for slot in params["texts"]]
        self.sample_words = params["sample_words"]
        self.trace_rounds = params["trace_rounds"]

    def make(self, seed: int, index: int, workdir: Path) -> Op:
        s = op_seed(seed, index)
        n, symbols = self.schedule[max(index, 0) % len(self.schedule)]
        text = _text(random.Random(s), symbols, n)
        path = str(workdir / "input.txt")
        argv = ["maw", "--file", path, "--alphabet", symbols]
        return Op(index, s, argv, {path: text}, steps=1, symbols=n, material={"text": text, "symbols": symbols})

    def inspect(self, op: Op, code: int, out: str) -> tuple[list[str], list]:
        if code != 0:
            return [f"exit code {code}"], []
        words = out.rstrip("\n").split(",")
        if not _sorted_canonically(words):
            return ["words are not in strict canonical order"], []
        return [], random.Random(op.seed).sample(words, min(self.sample_words, len(words)))

    def recheck(self, op: Op, sample: list) -> list[str]:
        from mawlab.core import Alphabet
        from mawlab.oracle import is_maw

        alphabet = Alphabet.of(op.material["symbols"])
        return [f"{w!r} is not a MAW" for w in sample if not is_maw(w, op.material["text"], alphabet)]


_KINDS = {"slide": SlideWorkload, "verify": VerifyWorkload, "maw": MawWorkload}


def build(name: str, size: str = "full"):
    spec = load_specs(size)[name]
    return _KINDS[spec["kind"]](spec["params"])
