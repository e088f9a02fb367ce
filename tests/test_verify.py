import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from mawlab import slide, verify
from mawlab.automaton import SuffixAutomaton
from mawlab.bounds import BoundId, check_step
from mawlab.cli import main
from mawlab.core import InputError
from mawlab.families import measure
from mawlab.slide import append_delta
from mawlab.verify import (
    CampaignConfig,
    estimate_steps,
    run_exhaustive,
    run_random,
)


def small_exhaustive(**overrides):
    base = dict(mode="exhaustive", sigmas=(2,), min_len=1, max_len=7, engine="both")
    base.update(overrides)
    return CampaignConfig(**base)


class TestConfig:
    def test_from_mapping_roundtrip(self):
        cfg = CampaignConfig.from_mapping(
            {"mode": "random", "sigmas": [2, 4], "samples": 10, "seed": 3, "max_len": 20}
        )
        assert cfg.sigmas == (2, 4) and cfg.seed == 3

    @pytest.mark.parametrize(
        "data",
        [
            {"mode": "sideways"},
            {"sigmas": []},
            {"min_len": 5, "max_len": 2},
            {"engine": "quantum"},
            {"checks": "none"},
            {"bogus_key": 1},
            {"sigmas": [2, 3], "symbols": "01"},
            "not a dict",
        ],
    )
    def test_rejects_bad_configs(self, data):
        with pytest.raises(InputError):
            CampaignConfig.from_mapping(data)


class TestExhaustive:
    def test_binary_sweep_clean(self):
        report = run_exhaustive(small_exhaustive())
        assert report.ok
        assert report.instances == 2 + 4 + 8 + 16 + 32 + 64 + 128
        assert not report.falsifications and not report.engine_mismatches
        assert report.max_delta(4) == 4 and report.max_delta(2) == 3

    def test_ternary_sweep_clean(self):
        report = run_exhaustive(
            CampaignConfig(mode="exhaustive", sigmas=(3,), min_len=1, max_len=5, engine="both")
        )
        assert report.ok
        for bid, row in report.bounds.items():
            assert row["min_slack"] >= 0, (bid, row)

    def test_unary_alphabet_every_step_changes_two(self):
        report = run_exhaustive(
            CampaignConfig(mode="exhaustive", sigmas=(1,), min_len=1, max_len=10, engine="both")
        )
        assert report.ok
        for row in report.tightness:
            assert row["max_delta"] == 2, row

    def test_budget_refusal(self):
        with pytest.raises(InputError, match="budget"):
            run_exhaustive(CampaignConfig(mode="exhaustive", sigmas=(4,), min_len=1, max_len=20))

    def test_estimate(self):
        cfg = CampaignConfig(mode="exhaustive", sigmas=(2,), min_len=1, max_len=3, deletes=False)
        assert estimate_steps(cfg) == (2 + 4 + 8) * 2
        cfg = CampaignConfig(mode="exhaustive", sigmas=(2,), min_len=2, max_len=2, deletes=True)
        assert estimate_steps(cfg) == 4 * 2 + 4

    @pytest.mark.parametrize("checks", ["full", "enum-only"])
    @pytest.mark.parametrize("deletes", [True, False])
    def test_estimate_is_exact(self, deletes, checks):
        for sigmas in ((1,), (2,), (3,), (2, 3)):
            for min_len in (0, 1, 2):
                cfg = CampaignConfig(
                    mode="exhaustive", sigmas=sigmas, min_len=min_len, max_len=4,
                    engine="automaton", deletes=deletes, checks=checks, workers=1,
                )
                assert estimate_steps(cfg) == run_exhaustive(cfg).steps, (sigmas, min_len)

    def test_weakened_bound_is_caught_with_minimal_witness(self):
        report = run_exhaustive(small_exhaustive(max_len=5, weaken="BinarySmallD"))
        assert not report.ok
        first = report.falsifications[0]
        assert first["bound_id"] == "BinarySmallD"
        assert first["witness"] in ("0+1", "1+0")  # shortest extremal step comes first

    def test_weakened_binary_append_catches_extremal_family(self):
        report = run_exhaustive(small_exhaustive(max_len=5, weaken="BinaryAppend"))
        witnesses = {f["witness"] for f in report.falsifications}
        assert "001+0" in witnesses

    def test_parallel_matches_serial(self):
        serial = run_exhaustive(small_exhaustive(max_len=8, workers=1))
        parallel = run_exhaustive(small_exhaustive(max_len=8, workers=2))
        assert json.dumps(serial.to_payload(), sort_keys=True) == json.dumps(
            parallel.to_payload(), sort_keys=True
        )

    def test_mode_mismatch(self):
        with pytest.raises(InputError):
            run_exhaustive(CampaignConfig(mode="random"))
        with pytest.raises(InputError):
            run_random(CampaignConfig(mode="exhaustive"))


class TestRandom:
    def test_clean_and_deterministic(self):
        cfg = CampaignConfig(
            mode="random", sigmas=(2, 4), min_len=1, max_len=40, samples=120, seed=9, engine="both"
        )
        a = run_random(cfg)
        b = run_random(cfg)
        assert a.ok
        assert json.dumps(a.to_payload(), sort_keys=True) == json.dumps(b.to_payload(), sort_keys=True)

    def test_seed_changes_output(self):
        base = dict(mode="random", sigmas=(2,), min_len=2, max_len=30, samples=60, engine="automaton")
        a = run_random(CampaignConfig(seed=1, **base))
        b = run_random(CampaignConfig(seed=2, **base))
        assert json.dumps(a.to_payload(), sort_keys=True) != json.dumps(b.to_payload(), sort_keys=True)

    def test_enum_only_mode_runs_no_steps(self):
        cfg = CampaignConfig(
            mode="random", sigmas=(26,), min_len=1, max_len=30, samples=40, seed=5,
            engine="both", checks="enum-only",
        )
        report = run_random(cfg)
        assert report.ok and report.steps == 0 and report.instances == 40

    def test_enum_only_estimate_is_zero(self):
        for sigmas, min_len in (((2,), 1), ((2, 4, 26), 2), ((3,), 0)):
            cfg = CampaignConfig(
                mode="random", sigmas=sigmas, min_len=min_len, max_len=12, samples=300, seed=7,
                engine="automaton", checks="enum-only", budget=1,
            )
            report = run_random(cfg)  # no step, so a budget of 1 suffices
            assert estimate_steps(cfg) == report.steps == 0 and report.instances == 300

    @pytest.mark.parametrize("deletes", [True, False])
    def test_estimate_bounds_steps_and_is_exact_from_length_two(self, deletes):
        for min_len in (0, 1, 2, 3):
            cfg = CampaignConfig(
                mode="random", sigmas=(2, 3), min_len=min_len, max_len=6, samples=200, seed=11,
                engine="automaton", deletes=deletes,
            )
            steps = run_random(cfg).steps
            if min_len >= 2:
                assert estimate_steps(cfg) == steps, min_len
            else:
                assert steps < estimate_steps(cfg), min_len

    def test_timing_only_with_flag(self):
        cfg = CampaignConfig(mode="random", sigmas=(2,), samples=5, max_len=10, seed=0)
        report = run_random(cfg)
        assert "wall_clock_seconds" not in report.to_payload()
        assert "wall_clock_seconds" in report.to_payload(include_timing=True)


class TestTightnessScan:
    """The published families, one per (d, sigma_ext) cell, checked with ``families.measure``."""

    def test_all_claimed_rows_are_tight(self, family_cells):
        for (d, sigma_ext), inst in family_cells.items():
            result = measure(inst)
            assert result["ok"] and result["observed_delta"] == inst.expected_delta, result
            # The family meets the bound it witnesses with zero slack, and every other bound holds.
            report = append_delta(inst.window, inst.append_symbol, inst.alphabet)
            verdicts = {v.bound_id: v for v in check_step(report, len(inst.alphabet.symbols))}
            if sigma_ext >= 3:
                claimed = BoundId.GENERAL_APPEND
            else:
                claimed = BoundId.BINARY_APPEND if d >= 3 else BoundId.BINARY_SMALL_D
            assert verdicts[claimed].slack == 0, ((d, sigma_ext), verdicts[claimed])
            assert all(v.satisfied for v in verdicts.values()), (d, sigma_ext)

    def test_binary_rows_match_max3d(self, family_cells):
        for d in range(1, 13):
            assert measure(family_cells[d, 2])["observed_delta"] == max(3, d)

    def test_scan_matches_exhaustive_maxima(self, family_cells):
        for sigma, max_len in ((2, 7), (3, 7), (4, 6)):
            sweep = run_exhaustive(
                small_exhaustive(sigmas=(sigma,), max_len=max_len, engine="automaton", workers=1)
            )
            maxima = {(row["d"], row["sigma_ext"]): row["max_delta"] for row in sweep.tightness}
            reach = [cell for cell in family_cells if cell[0] <= max_len and cell[1] <= sigma]
            assert reach and set(reach) <= set(maxima), sigma
            for cell in reach:
                assert measure(family_cells[cell])["observed_delta"] == maxima[cell], (sigma, cell)


def corrupt_oracle(monkeypatch, target=None):
    """Make the oracle drop one word of ``target``, or of the first subject of length >= 2 it enumerates."""
    real = slide._ENUMERATORS["oracle"]
    chosen = [target]

    def fake(subject, alphabet):
        got = real(subject, alphabet)
        if chosen[0] is None and len(subject) >= 2:
            chosen[0] = subject
        return SimpleNamespace(words=got.words[1:]) if subject == chosen[0] else got

    monkeypatch.setitem(slide._ENUMERATORS, "oracle", fake)
    return chosen


RANDOM_BOTH = {"mode": "random", "sigmas": [2, 4, 26], "min_len": 2, "max_len": 30, "samples": 12, "seed": 5, "workers": 1}


@pytest.mark.parametrize("repeat", [False, True], ids=["drop-a-word", "repeat-a-word"])
def test_corrupt_automaton_words_are_engine_mismatches(monkeypatch, tmp_path, capsys, repeat):
    """A repeated word has the right set, so only a comparison of sorted lists catches it."""
    real = SuffixAutomaton.maw_words

    def corrupt(self, alphabet):
        words = real(self, alphabet)
        return words + words[:1] if repeat else words[1:]

    monkeypatch.setattr(SuffixAutomaton, "maw_words", corrupt)
    report = run_random(CampaignConfig.from_mapping(RANDOM_BOTH))
    assert [m["subject"] for m in report.engine_mismatches]
    for m in report.engine_mismatches:
        assert m["automaton"] != m["oracle"]
        assert (set(m["automaton"]) == set(m["oracle"])) == repeat

    config = tmp_path / "config.json"
    config.write_text(json.dumps(RANDOM_BOTH))
    assert main(["verify", "--config", str(config)]) == 3
    assert "MISMATCH" in capsys.readouterr().out


class TestRunner:
    def test_exhaustive_mismatch_recorded_once(self, monkeypatch):
        corrupt_oracle(monkeypatch, "0110")
        report = run_exhaustive(small_exhaustive(max_len=6, workers=1))
        assert [m["subject"] for m in report.engine_mismatches] == ["0110"]

    def test_random_mismatch_recorded_once(self, monkeypatch):
        chosen = corrupt_oracle(monkeypatch)
        report = run_random(
            CampaignConfig(mode="random", sigmas=(4,), min_len=20, max_len=30, samples=20, seed=3, workers=1)
        )
        assert [m["subject"] for m in report.engine_mismatches] == chosen

    def test_random_tasks_keep_only_their_own_maw_sets(self, monkeypatch):
        real = verify._process_task
        earlier: list[str] = []

        def spy(task):
            result = real(task)
            cached = set().union(*(eng._cache for eng in verify._WORKER["engines"].values()))
            assert task[1] in cached
            assert not cached & set(earlier)
            earlier.append(task[1])
            return result

        monkeypatch.setattr(verify, "_process_task", spy)
        run_random(CampaignConfig(mode="random", sigmas=(2, 4), min_len=20, max_len=30, samples=20, workers=1))
        assert len(earlier) == 20

    def test_worker_count_is_capped_at_cpu_count(self, monkeypatch):
        # Reads the count only: no campaign runs, so no process starts.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("MAWLAB_THREADS", "100000")
        assert verify._effective_workers(CampaignConfig()) == 3
        assert verify._effective_workers(CampaignConfig(workers=2)) == 2
        monkeypatch.delenv("MAWLAB_THREADS")
        assert verify._effective_workers(CampaignConfig(workers=100000)) == 3

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for a worker pool")
    def test_task_error_propagates_from_the_pool(self, monkeypatch):
        parent = os.getpid()
        parent_calls = []

        def broken(*args):
            if os.getpid() == parent:
                parent_calls.append(args)
            raise ValueError("task failed")

        monkeypatch.setattr(verify, "_run_append_step", broken)
        monkeypatch.delenv("MAWLAB_THREADS", raising=False)
        with pytest.raises(ValueError, match="task failed"):
            run_exhaustive(small_exhaustive(max_len=6, workers=2))  # 126 tasks, enough for a pool
        assert parent_calls == []

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for a worker pool")
    def test_task_error_from_the_pool_never_hangs(self):
        # The raising campaign above, 100 times over two child processes, each
        # under a timeout: every run ends with the task's error.
        child = (
            "from mawlab import verify\n"
            "def broken(*args):\n"
            "    raise ValueError('task failed')\n"
            "verify._run_append_step = broken\n"
            "config = verify.CampaignConfig(mode='exhaustive', sigmas=(2,), min_len=1, max_len=6, "
            "engine='both', workers=2)\n"
            "for _ in range(50):\n"
            "    try:\n"
            "        verify.run_exhaustive(config)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(verify.__file__))
        env = {k: v for k, v in os.environ.items() if k != "MAWLAB_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        procs = [
            subprocess.Popen([sys.executable, "-c", child], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for _ in range(2)
        ]
        try:
            outs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        for proc, (out, err) in zip(procs, outs):
            assert (proc.returncode, out, err) == (0, b"task failed\n" * 50, b"")

    def test_pool_failure_falls_back_to_serial_on_stderr(self, monkeypatch, capsys):
        import multiprocessing

        serial = run_exhaustive(small_exhaustive(max_len=6, workers=1))
        capsys.readouterr()

        def no_pool(workers):
            raise OSError("no more processes")

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=no_pool))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv("MAWLAB_THREADS", raising=False)
        fallback = run_exhaustive(small_exhaustive(max_len=6, workers=2))  # 126 tasks, enough for a pool
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "mawlab verify: no pool of 2 workers (no more processes); running serially\n"
        assert (fallback.instances, fallback.steps, fallback.bounds) == (serial.instances, serial.steps, serial.bounds)
