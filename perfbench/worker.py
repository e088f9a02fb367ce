"""One workload in a fresh process: runs ops in-process through ``mawlab.cli.main``.

Started by ``run.py``; prints one JSON object as its last stdout line.

* ``--phase setup``: import, make the warm-up input, run the warm-up op, exit.
* ``--phase measure``: after set-up, run whole rounds of the schedule until
  the op time adds up to ``--seconds``; read the peak RSS; then finish the
  output checks.
* ``--phase trace``: after set-up, run each of the workload's fixed trace
  ops untraced and then traced; compare their output digests and report the
  per-layer metrics, with the tracing overhead as traced minus untraced op
  time.  Spans are written to ``results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
LOOP_CAP_S = 120  # no new round starts after this much wall time


def run_op(op: workloads.Op) -> dict:
    """Write the op's files, run it, and time ``mawlab.cli.main`` alone.

    The previous op's garbage is collected first, so every op starts from a
    heap like a fresh ``mawlab`` process has: automata are cyclic, and left
    to the collector they would bill one op for another's memory.
    """
    from mawlab import cli

    for path, content in op.files.items():
        Path(path).write_text(content, encoding="utf-8")
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
    text = out.getvalue()
    return {
        "code": code,
        "out": text,
        "error": error or err.getvalue()[-2000:],
        "seconds": elapsed,
        "digest": hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16],
    }


class Runner:
    def __init__(self, name: str, size: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.workload = workloads.build(name, size)
        self.workdir = RESULTS / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.records: list[dict] = []
        self._pending: list[tuple] = []  # (record, op, sample) awaiting the oracle re-check

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warm_up(self) -> None:
        op = self.workload.make(self.seed, -1, self.workdir)
        result = run_op(op)
        problems, _ = self._inspect(op, result)
        if problems:
            raise RuntimeError(f"warm-up op failed: {problems}")

    def _inspect(self, op: workloads.Op, result: dict) -> tuple[list[str], list]:
        if result["code"] is None:
            return [f"exception: {result['error']}"], []
        try:
            return self.workload.inspect(op, result["code"], result["out"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable output: {exc!r}; stderr: {result['error']}"], []

    def run(self, index: int, check: bool = True) -> dict:
        """Run op ``index``; unless ``check`` is false, inspect it and keep its record."""
        op = self.workload.make(self.seed, index, self.workdir)
        result = run_op(op)
        problems, sample = self._inspect(op, result) if check else ([], [])
        record = {
            "index": index,
            "seed": op.seed,
            "seconds": result["seconds"],
            "digest": result["digest"],
            "steps": op.steps,
            "symbols": op.symbols,
            "problems": problems,
        }
        if sample:
            self._pending.append((record, op, sample))
        if check:
            self.records.append(record)
        return record

    def finish_checks(self) -> None:
        for record, op, sample in self._pending:
            record["problems"] += self.workload.recheck(op, sample)
        self._pending.clear()

    def replay(self, record: dict) -> dict:
        """Keep one op's input under results/replay so the mawlab CLI alone can rerun it."""
        target = RESULTS / "replay" / f"{self.name}-seed{self.seed}-op{record['index']}"
        target.mkdir(parents=True, exist_ok=True)
        op = self.workload.make(self.seed, record["index"], target)
        for path, content in op.files.items():
            Path(path).write_text(content, encoding="utf-8")
        argv = [os.path.relpath(a, ROOT) if a.startswith(str(target)) else a for a in op.argv]
        return {**record, "argv": argv, "replay": "PYTHONPATH=src python3 -m mawlab.cli " + " ".join(argv)}


def measure(runner: Runner, seconds: float) -> dict:
    started = time.perf_counter()
    timed, index = 0.0, 0
    per_round = len(runner.workload.schedule)
    while timed < seconds and time.perf_counter() - started < LOOP_CAP_S:
        for _ in range(per_round):
            timed += runner.run(index)["seconds"]
            index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.finish_checks()
    failed = [runner.replay(r) for r in runner.records if r["problems"]]
    slowest = max(runner.records, key=lambda r: r["seconds"])
    return {
        "latencies": [r["seconds"] for r in runner.records],
        "steps": sum(r["steps"] for r in runner.records if not r["problems"]),
        "symbols": sum(r["symbols"] for r in runner.records if not r["problems"]),
        "peak_rss_mb": peak_rss_mb,
        "failed_ops": failed,
        "slowest_op": runner.replay(slowest),
    }


def trace(runner: Runner) -> dict:
    count = runner.workload.trace_rounds * len(runner.workload.schedule)
    tracer = Tracer()
    plain, traced = [], []
    for i in range(count):  # alternating, so drift in machine speed hits both sides alike
        plain.append(runner.run(i))
        tracer.op = i
        tracer.install()
        try:
            traced.append(runner.run(i, check=False))
        finally:
            tracer.uninstall()
    runner.finish_checks()
    overhead = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain)
    mismatched = [a["index"] for a, b in zip(plain, traced) if a["digest"] != b["digest"]]
    spans_path = RESULTS / f"spans-{runner.name}-seed{runner.seed}.json"
    tracer.write(spans_path, {"workload": runner.name, "seed": runner.seed})
    return {
        "layers": tracer.metrics(overhead),
        "ops": count,
        "digest_mismatches": mismatched,
        "missing_targets": tracer.missing,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "failed_ops": [runner.replay(r) for r in runner.records if r["problems"]],
        "attempted": len(runner.records),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args()

    import mawlab

    src = (ROOT / "src").resolve()
    if src not in Path(mawlab.__file__).resolve().parents:
        print(f"mawlab imported from {mawlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.size, args.seed)
    try:
        runner.warm_up()
        if args.phase == "setup":
            result: dict = {}
        elif args.phase == "measure":
            result = measure(runner, args.seconds)
        else:
            result = trace(runner)
    finally:
        runner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
