"""mawlab benchmark: end-to-end and per-layer metrics of the ``mawlab`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload slide-long-window --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20          # every workload, one table
    python3 perfbench/run.py --all --seed 1 --trace 1             # per-layer metrics instead

Workloads, their generator parameters and the layer predictions live in
``workloads.json``.  Each workload runs in fresh processes (``worker.py``)
with ``MAWLAB_THREADS`` removed from the environment, so peak RSS and the
engine caches belong to that workload alone.  Ops run in a closed loop, one
at a time.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything else a run
learns (sample counts, the tail percentile, failed and slowest ops with a
replay command) goes to ``results/<workload>-seed<seed>-trace<t>.json``.

End-to-end metrics (``--trace 0``), over the timed op time of one run:

* ``steps_per_s``: slide steps (n - d per op) on the slide workloads,
  campaign steps on verify-campaign, whole-text enumerations on maw-large.
* ``symbols_per_s``: input symbols per second: the text length on slide and
  maw workloads, the total subject length a campaign draws on verify.
* ``op_p50_s``: median op latency.
* ``op_tail_s``: the highest percentile with at least 10 ops beyond it.
* ``setup_s``: median over several fresh processes of process start,
  import, input generation and one warm-up op.
* ``peak_rss_mb``: peak RSS of the measuring process, read before the
  oracle re-checks run.

``failed_ratio`` (failed / attempted ops) is printed by ``--all``; in the
single-workload JSON it is ``failed`` over ``attempted``.

``--trace 1`` ignores ``--seconds``: it runs each workload's fixed number of
trace ops (``trace_rounds`` in ``workloads.json``), so counts repeat exactly
for a seed, and prints the per-layer metrics of ``tracer.py``.  The
``baseline_shares`` in ``workloads.json`` are each layer's share of traced op
time at seed 1, measured when the benchmark was added (2-vCPU Linux VM,
Python 3.11).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 6
TIME_LIMIT_S = 170  # a run ends within this, children included
TAIL_BEYOND = 10

END_TO_END = (
    ("steps_per_s", "steps/s"),
    ("symbols_per_s", "symbols/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MAWLAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: argparse.Namespace, workload: str, phase: str, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; return its JSON result and wall time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", phase, "--size", args.size,
    ]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {phase}: worker timed out") from None
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(f"{workload} {phase}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops above it.

    With N ops that is the (N - TAIL_BEYOND)-th smallest latency.  With too
    few ops for any such percentile, the maximum, labelled percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_workload(args: argparse.Namespace, workload: str, deadline: float) -> dict:
    if args.trace:
        got, _ = spawn(args, workload, "trace", deadline)
        failed = len(got["failed_ops"]) + len(got["digest_mismatches"])
        return {
            "correct": failed == 0,
            "attempted": got["attempted"],
            "failed": failed,
            "metrics": {name: {"value": got["layers"][name], "unit": unit} for name, unit in LAYER_METRICS},
            "detail": {k: v for k, v in got.items() if k != "layers"},
        }
    # Set-up samples are taken on both sides of the measuring process, so
    # their median spans more of the machine's slow and fast spells.
    setups = [spawn(args, workload, "setup", deadline)[1] for _ in range(SETUP_REPEATS // 2)]
    got, _ = spawn(args, workload, "measure", deadline)
    setups += [spawn(args, workload, "setup", deadline)[1] for _ in range(SETUP_REPEATS - len(setups))]
    lat = got["latencies"]
    timed = sum(lat)
    percentile, tail_s = tail(lat)
    values = {
        "steps_per_s": got["steps"] / timed,
        "symbols_per_s": got["symbols"] / timed,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": got["peak_rss_mb"],
    }
    failed = len(got["failed_ops"])
    return {
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "detail": {
            "ops": len(lat),
            "timed_s": timed,
            "latencies": lat,
            "tail_percentile": percentile,
            "setup_samples_s": setups,
            "failed_ratio": failed / len(lat),
            "failed_ops": got["failed_ops"],
            "slowest_op": got["slowest_op"],
        },
    }


def save(args: argparse.Namespace, workload: str, result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "size": args.size, **result}
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    return path


def summary_line(workload: str, result: dict) -> str:
    detail = result["detail"]
    if "tail_percentile" in detail:
        head = f"{workload}: ops={detail['ops']} tail=p{detail['tail_percentile']:.0f} failed_ratio={detail['failed_ratio']:.4f}"
    else:
        head = f"{workload}: traced ops={detail['ops']} failed={result['failed']} digest_mismatches={len(detail['digest_mismatches'])}"
    body = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
    return f"{head}\n  {body}"


def main() -> int:
    specs = workloads.load_specs()
    parser = argparse.ArgumentParser(description="mawlab benchmark; see the module docstring.")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(specs))
    which.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="smoke: tiny inputs for tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "mawlab" / "cli.py").is_file():
        print(f"error: no mawlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(specs) if args.all else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(args, name, deadline)
            path = save(args, name, results[name])
            print(summary_line(name, results[name]))
            print(f"  details: {os.path.relpath(path, ROOT)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.all:
        table = {}
        for name, res in results.items():
            metrics = dict(res["metrics"])
            if not args.trace:
                metrics["failed_ratio"] = {"value": res["detail"]["failed_ratio"], "unit": "ratio"}
            table[name] = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        print(json.dumps(table))
        return 0 if all(r["correct"] for r in results.values()) else 3
    res = results[names[0]]
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
