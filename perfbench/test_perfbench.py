"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run every workload at the smoke size, so they take seconds, and check
the printed result format, the output checks and the tracer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, TARGETS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.load_specs())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(LAYER_METRICS)
    specs = workloads.load_specs()
    assert [w["why"] for w in BENCHMARK["workloads"]] == [specs[n]["why"] for n in NAMES]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_prints_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_shares_cover_the_op_time():
    proc = bench("--workload", "verify-campaign", "--seed", "4", "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    shares = [m["value"] for k, m in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["oracle.enumerate.calls"]["value"] > 0
    assert metrics["verify.steps"]["value"] == 2 * metrics["verify.tasks"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_the_seed(tmp_path):
    for name in NAMES:
        wl = workloads.build(name)
        first, again, other = (wl.make(s, 5, tmp_path) for s in (7, 7, 8))
        assert first.files == again.files and first.files != other.files


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(40)]) == (75.0, 29.0)
    assert run.tail([1.0, 3.0, 2.0]) == (100.0, 3.0)


def test_checks_catch_wrong_outputs(tmp_path):
    maw = workloads.build("maw-large", "smoke")
    op = maw.make(1, 0, tmp_path)
    assert maw.inspect(op, 0, "b,a\n")[0]
    assert maw.recheck(op, ["A" * 50])

    slide = workloads.build("slide-long-window", "smoke")
    op = slide.make(1, 0, tmp_path)
    assert slide.inspect(op, 3, "")[0]
    assert slide.recheck(op, [(0, [10**6, 1, 0, 0, 0])])

    campaign = workloads.build("verify-campaign", "smoke")
    op = campaign.make(1, 0, tmp_path)
    payload = {"ok": True, "engine_mismatches": [], "steps": op.steps - 1, "instances": campaign.samples}
    assert campaign.inspect(op, 0, json.dumps({"payload": payload}))[0]


def test_failed_ops_are_counted_and_replayable(monkeypatch):
    import os
    import worker

    runner = worker.Runner("maw-large", "smoke", 5)
    monkeypatch.setattr(runner.workload, "inspect", lambda op, code, out: (["forced"], []))
    try:
        got = worker.measure(runner, 0.01)
    finally:
        runner.close()
    failed = got["failed_ops"][0]
    assert failed["problems"] == ["forced"] and failed["seed"] == workloads.op_seed(5, 0)
    assert got["steps"] == 0 and len(got["failed_ops"]) == len(got["latencies"])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    replay = subprocess.run(
        [sys.executable, "-m", "mawlab.cli", *failed["argv"]], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert replay.returncode == 0 and replay.stdout.startswith("A")


def test_campaign_symbols_match_the_subjects_drawn(monkeypatch):
    from mawlab import verify

    drawn = []
    monkeypatch.setattr(verify, "_execute", lambda tasks, config: drawn.extend(tasks))
    config = {"mode": "random", "sigmas": [2, 4, 26], "min_len": 2, "max_len": 30, "samples": 25, "seed": 9}
    verify.run_random(verify.CampaignConfig.from_mapping(config))
    assert workloads._campaign_symbols(config) == sum(len(subject) for _, subject, _ in drawn)


def test_tracer_restores_every_target():
    import importlib

    def lookups():
        found = {}
        for _, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            found[(module_name, attr)] = vars(owner)[last]
        return found

    from mawlab import slide

    before, enumerators = lookups(), dict(slide._ENUMERATORS)
    tracer = Tracer()
    tracer.install()
    assert all(lookups()[key] is not fn for key, fn in before.items())
    assert slide._ENUMERATORS["automaton"] is not enumerators["automaton"]
    tracer.uninstall()
    assert lookups() == before and slide._ENUMERATORS == enumerators
