"""Exhaustive and randomized verification campaigns.

A campaign walks a space of (window, appended-symbol) steps, evaluates every
applicable bound verdict, asserts the structural step invariants, optionally
cross-checks the two enumeration engines and the reversal identity
MAW(reverse S) = reverse(MAW(S)) that the delete reduction rests on, and
aggregates everything into a reproducible report.  Any violation becomes a
falsification record carrying a witness string; campaigns themselves never
raise on a falsification.

Reports are deterministic for a fixed config (the wall clock is kept out of
the default payload).  Instances are independent, so the runner can fan out
over forked processes; results are merged in task order, which keeps the
report schedule-independent.  Only a failure to start the pool falls back to
a serial run.  An error raised by a task propagates: a pool worker returns
it as the task's result, the parent sends no task after it arrives, and it
raises the first one in task order once the pool has finished and shut down.

MAW sets are memoised per worker, each as an unsorted tuple of words; only
the engine comparison sorts, once per compared string, so a repeated word
still shows.  An exhaustive campaign keeps the memo for the whole run, so each
distinct string is enumerated once per backend, except the strings one longer
than ``max_len``: only their own append step reads them, so it drops them
once it is done.  A random campaign clears the memo before each task, because
random subjects share almost no strings and a campaign-wide memo would grow
with ``samples``.  A random task needs five
sets, S[:-1] and S for the append, S[1:] for the delete, and rev(S[1:]) and
rev(S) for the reversal check; on the automaton it builds three automata,
since the automaton of S[:-1] extended by S's last symbol is that of S.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Callable, Iterator

from .core import Alphabet, ConsistencyError, InputError, TheoremViolationError, canonical_words
from .bounds import BoundId, check_step
from .families import default_symbols
from .slide import DeltaReport, MawEngine, MawType, append_delta, delete_delta

_ENGINES = ("oracle", "automaton", "both")
_CHECKS = ("full", "enum-only")
_INTS = ("min_len", "max_len", "samples", "seed", "budget", "workers")
_BOUND_NAMES = tuple(b.value for b in BoundId)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _default_symbols(sigma: int) -> str:
    return "01" if sigma == 2 else "".join(default_symbols(sigma))


@dataclass(frozen=True)
class CampaignConfig:
    mode: str = "exhaustive"
    sigmas: tuple[int, ...] = (2,)
    min_len: int = 1
    max_len: int = 8
    samples: int = 1000
    seed: int = 0
    engine: str = "both"
    deletes: bool = True
    checks: str = "full"
    budget: int = 10_000_000
    workers: int = 0
    symbols: str | None = None
    weaken: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise InputError(f"mode must be 'exhaustive' or 'random', got {self.mode!r}")
        for name in _INTS:
            if not _is_int(getattr(self, name)):
                raise InputError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not self.sigmas or not all(_is_int(s) and s >= 1 for s in self.sigmas):
            raise InputError(f"sigmas must be a non-empty list of positive integers, got {list(self.sigmas)!r}")
        if not 0 <= self.min_len <= self.max_len:
            raise InputError("need 0 <= min_len <= max_len")
        if self.mode == "random" and self.max_len < 1:
            raise InputError("random mode needs max_len >= 1")
        if not isinstance(self.deletes, bool):
            raise InputError(f"deletes must be true or false, got {self.deletes!r}")
        if self.weaken is not None and self.weaken not in _BOUND_NAMES:
            raise InputError(f"weaken must be null or one of {list(_BOUND_NAMES)}, got {self.weaken!r}")
        if self.engine not in _ENGINES:
            raise InputError(f"engine must be one of {_ENGINES}")
        if self.checks not in _CHECKS:
            raise InputError(f"checks must be one of {_CHECKS}")
        if self.samples < 0 or self.budget < 1 or self.workers < 0:
            raise InputError("samples/budget/workers out of range")
        if self.symbols is not None:
            s = self.symbols
            if not isinstance(s, str) or len(set(s)) != len(s) or "\n" in s or "\r" in s:
                raise InputError(f"symbols must be null or distinct characters without line breaks, got {s!r}")
            if len(self.sigmas) != 1:
                raise InputError("explicit symbols require a single sigma")
            if len(s) != self.sigmas[0]:
                raise InputError("symbols must provide exactly sigma characters")

    @property
    def backend(self) -> str:
        """Engine the steps run on; ``both`` steps on the automaton and compares the oracle's sets."""
        return "oracle" if self.engine == "oracle" else "automaton"

    @classmethod
    def from_mapping(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise InputError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "sigmas" in kwargs:
            sig = kwargs["sigmas"]
            if not isinstance(sig, (list, tuple)):
                raise InputError("sigmas must be a list")
            kwargs["sigmas"] = tuple(sig)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InputError(f"bad config: {exc}") from None

    def to_payload(self) -> dict:
        """Every field but ``workers``, which cannot change a report."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        payload["sigmas"] = list(self.sigmas)
        return payload


@dataclass
class _TaskResult:
    subjects: int = 0
    steps: int = 0
    bounds: dict = field(default_factory=dict)
    tightness: dict = field(default_factory=dict)
    falsifications: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    def add_bound(self, bid: str, count: int, slack: int, witness: str) -> None:
        """Count verdicts per bound, keeping the first witness of the smallest slack."""
        mine = self.bounds.get(bid)
        if mine is None:
            self.bounds[bid] = [count, slack, witness]
        else:
            mine[0] += count
            if slack < mine[1]:
                mine[1], mine[2] = slack, witness

    def add_tightness(self, key: tuple[int, int], delta: int, witness: str) -> None:
        """Keep the first witness of the largest step size per (d, sigma_ext)."""
        mine = self.tightness.get(key)
        if mine is None or delta > mine[0]:
            self.tightness[key] = [delta, witness]

    def merge(self, other: "_TaskResult") -> None:
        self.subjects += other.subjects
        self.steps += other.steps
        for bid, (count, slack, witness) in other.bounds.items():
            self.add_bound(bid, count, slack, witness)
        for key, (delta, witness) in other.tightness.items():
            self.add_tightness(key, delta, witness)
        self.falsifications.extend(other.falsifications)
        self.mismatches.extend(other.mismatches)


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    instances: int
    steps: int
    bounds: dict
    tightness: tuple
    falsifications: tuple
    engine_mismatches: tuple
    wall_clock: float

    @property
    def ok(self) -> bool:
        return not self.falsifications and not self.engine_mismatches

    def to_payload(self, include_timing: bool = False) -> dict:
        payload = {
            "config": self.config.to_payload(),
            "instances": self.instances,
            "steps": self.steps,
            "bounds": self.bounds,
            "tightness": list(self.tightness),
            "falsifications": list(self.falsifications),
            "engine_mismatches": list(self.engine_mismatches),
            "ok": self.ok,
        }
        if include_timing:
            payload["wall_clock_seconds"] = self.wall_clock
        return payload


# Worker-side state, set once per campaign before the pool forks: the config
# and the engines, cached per (symbols, backend).
_WORKER: dict = {}


def _init_worker(config: CampaignConfig) -> None:
    _WORKER["config"] = config
    _WORKER["engines"] = {}


def _engine_for(symbols: str, backend: str) -> MawEngine:
    engines = _WORKER["engines"]
    if (symbols, backend) not in engines:
        engines[symbols, backend] = MawEngine(Alphabet.of(symbols), backend)
    return engines[symbols, backend]


def _structure_violations(report: DeltaReport) -> list[str]:
    """Step facts not already covered by a count verdict."""
    problems: list[str] = []
    window = report.before
    alpha = report.after[-1]
    m1 = report.added_by_type[MawType.TYPE1]
    m2 = report.added_by_type[MawType.TYPE2]
    m3 = report.added_by_type[MawType.TYPE3]

    for w in m1:
        if set(w) != {alpha}:
            problems.append(f"Type-1 word {w!r} is not a run of {alpha!r}")
    last_chars = [w[-1] for w in m2]
    if len(set(last_chars)) != len(last_chars):
        problems.append(f"Type-2 words share a last character: {m2}")
    for ch in last_chars:
        if ch not in window:
            problems.append(f"Type-2 last character {ch!r} does not occur in the window")

    if report.sigma_ext == 2 and report.d >= 3 and alpha in window:
        cap2 = window[: report.d - 1].count(alpha)
        if len(m2) > cap2:
            problems.append(f"|M2|={len(m2)} exceeds the {alpha!r}-count {cap2} in the window head")
        other = next(iter(set(window) - {alpha}), None)
        if other is not None:
            cap3 = window[2:].count(other)
            if len(m3) > cap3:
                problems.append(f"|M3|={len(m3)} exceeds the {other!r}-count {cap3} in the window tail")
    return problems


def _compare_engines(subject: str, symbols: str, result: _TaskResult) -> None:
    # Sorting the automaton's words, not comparing sets, also catches a repeated word.
    fast = canonical_words(_engine_for(symbols, "automaton").words(subject))
    slow = _engine_for(symbols, "oracle").words(subject)
    if fast != slow:
        result.mismatches.append(
            {"subject": subject, "automaton": list(fast), "oracle": list(slow)}
        )


def _run_step(
    step: Callable[..., DeltaReport], args: tuple, witness: str, symbols: str, config: CampaignConfig,
    result: _TaskResult,
) -> DeltaReport | None:
    """Run ``step(*args, alphabet, engine)`` and record its verdicts, lowering the ``weaken`` bound by one.

    A violated invariant is a falsification.
    """
    eng = _engine_for(symbols, config.backend)
    try:
        report = step(*args, eng.alphabet, eng)
    except (TheoremViolationError, ConsistencyError) as exc:
        kind = "theorem" if isinstance(exc, TheoremViolationError) else "consistency"
        result.falsifications.append({"kind": kind, "witness": witness, "detail": str(exc)})
        return None
    result.steps += 1
    for v in check_step(report, len(symbols)):
        if v.bound_id == config.weaken:
            v = v._replace(bound_value=v.bound_value - 1)
        result.add_bound(v.bound_id, 1, v.slack, witness)
        if not v.satisfied:
            result.falsifications.append(
                {
                    "kind": "bound",
                    "bound_id": str(v.bound_id),
                    "witness": witness,
                    "bound": v.bound_value,
                    "observed": v.observed,
                }
            )
    return report


def _run_append_step(
    window: str, alpha: str, symbols: str, config: CampaignConfig, result: _TaskResult
) -> None:
    witness = f"{window}+{alpha}"
    report = _run_step(append_delta, (window, alpha), witness, symbols, config, result)
    if report is not None:
        for problem in _structure_violations(report):
            result.falsifications.append({"kind": "structure", "witness": witness, "detail": problem})
        result.add_tightness((report.d, report.sigma_ext), report.delta_size, witness)

    # An after-string within max_len is some task's subject, compared there.
    # A longer one is read by this step alone, so no memo keeps its words.
    if len(window) >= config.max_len:
        after = window + alpha
        if report is not None and config.engine == "both":
            _compare_engines(after, symbols, result)
        for eng in _WORKER["engines"].values():
            eng.forget(after)


def _run_delete_step(subject: str, symbols: str, config: CampaignConfig, result: _TaskResult) -> None:
    witness = f"-{subject}"
    if _run_step(delete_delta, (subject,), witness, symbols, config, result) is None:
        return

    # The report is derived from the forward sets of subject and subject[1:];
    # check the reversal identity it relies on against the reversed strings.
    eng = _engine_for(symbols, config.backend)
    for s in (subject, subject[1:]):
        if {w[::-1] for w in eng.words(s[::-1])} != set(eng.words(s)):
            result.falsifications.append(
                {
                    "kind": "delete-reduction",
                    "witness": witness,
                    "detail": f"MAW(reverse S) is not reverse(MAW(S)) for S = {s!r}",
                }
            )


def _process_task(task: tuple[str, str, bool]) -> _TaskResult:
    symbols, subject, all_alphas = task
    config = _WORKER["config"]
    if not all_alphas:
        # S[:-1] and S for the append, rev(S[1:]) and rev(S) for the delete's
        # reversal check: two automata, each extended by one symbol.
        for eng in _WORKER["engines"].values():
            eng.clear()
        if config.checks == "full" and len(subject) >= 2:
            eng = _engine_for(symbols, config.backend)
            eng.words_with_prefix(subject)
            if config.deletes:
                eng.words_with_prefix(subject[::-1])
    result = _TaskResult(subjects=1)

    if config.engine == "both":
        _compare_engines(subject, symbols, result)
    if config.checks == "enum-only":
        return result

    if all_alphas:
        if subject:
            for alpha in symbols:
                _run_append_step(subject, alpha, symbols, config, result)
    elif len(subject) >= 2:
        _run_append_step(subject[:-1], subject[-1], symbols, config, result)

    if config.deletes and len(subject) >= 2:
        _run_delete_step(subject, symbols, config, result)
    return result


def _effective_workers(config: CampaignConfig) -> int:
    """Worker processes for a campaign: at most ``MAWLAB_THREADS`` and the CPU count."""
    env = os.environ.get("MAWLAB_THREADS")
    try:
        cap = int(env) if env else None
    except ValueError:
        cap = 0
    if cap is not None and cap < 1:
        raise InputError(f"MAWLAB_THREADS must be an integer of at least 1, got {env!r}")
    workers = config.workers
    if workers == 0:
        workers = cap if cap is not None else 1
    if cap is not None:
        workers = min(workers, cap)
    return max(1, min(workers, os.cpu_count() or 1))


def _start_pool(workers: int):
    import multiprocessing  # only campaigns that fan out pay for the import

    try:
        return multiprocessing.get_context("fork").Pool(workers)
    except (OSError, ValueError) as exc:
        print(f"mawlab verify: no pool of {workers} workers ({exc}); running serially", file=sys.stderr)
        return None


def _pool_task(task: tuple[str, str, bool]) -> object:
    """:func:`_process_task` in a pool worker: a task's error is returned, with its traceback, not raised."""
    try:
        return _process_task(task)
    except Exception as exc:
        from multiprocessing.pool import ExceptionWithTraceback  # what a raising pool task would send

        return ExceptionWithTraceback(exc, exc.__traceback__)


def _execute(tasks: list[tuple[str, str, bool]], config: CampaignConfig) -> CampaignReport:
    started = time.perf_counter()
    merged = _TaskResult()
    workers = _effective_workers(config)
    _init_worker(config)
    pool = _start_pool(workers) if workers > 1 and len(tasks) > 64 else None
    error: BaseException | None = None
    if pool is not None:
        chunksize = max(16, len(tasks) // (workers * 8))
        # Tasks sent but not yet merged: two chunks per worker.  The pool's
        # feeder thread runs ``feed`` and stops once an error has arrived.
        ahead = threading.Semaphore(2 * workers * chunksize)

        def feed() -> Iterator[tuple[str, str, bool]]:
            for task in tasks:
                ahead.acquire()
                if error is not None:
                    return
                yield task

    try:
        if pool is None:
            parts = map(_process_task, tasks)
        else:
            parts = pool.imap(_pool_task, feed(), chunksize)
        for part in parts:
            if isinstance(part, Exception):
                error = error or part
            elif error is None:
                merged.merge(part)
            if pool is not None:
                ahead.release()
    except BaseException as exc:
        if pool is not None:
            error = exc  # wakes the feeder to stop, so the pool can shut down
            ahead.release()
            pool.terminate()
        raise
    finally:
        _WORKER.clear()
    if pool is not None:
        pool.close()
        pool.join()
    if error is not None:
        raise error

    tightness_rows = tuple(
        {"d": d, "sigma_ext": se, "max_delta": val[0], "witness": val[1]}
        for (d, se), val in sorted(merged.tightness.items())
    )
    bounds = {
        str(bid): {"count": row[0], "min_slack": row[1], "witness": row[2]}
        for bid, row in sorted(merged.bounds.items())
    }
    return CampaignReport(
        config=config,
        instances=merged.subjects,
        steps=merged.steps,
        bounds=bounds,
        tightness=tightness_rows,
        falsifications=tuple(merged.falsifications),
        engine_mismatches=tuple(merged.mismatches),
        wall_clock=time.perf_counter() - started,
    )


def _exhaustive_tasks(config: CampaignConfig) -> Iterator[tuple[str, str, bool]]:
    for sigma in config.sigmas:
        symbols = config.symbols or _default_symbols(sigma)
        for n in range(config.min_len, config.max_len + 1):
            for tup in product(symbols, repeat=n):
                yield (symbols, "".join(tup), True)


def estimate_steps(config: CampaignConfig) -> int:
    """Planned number of slide-step evaluations (budget accounting).

    Exact for an exhaustive campaign that raises no theorem or consistency
    error, and 0 for ``checks: "enum-only"``.  For a random campaign it is an
    upper bound, exact when ``min_len >= 2``: a subject shorter than 2 runs no
    step.
    """
    if config.checks == "enum-only":
        return 0
    if config.mode == "random":
        return config.samples * (2 if config.deletes else 1)
    total = 0
    for sigma in config.sigmas:
        for n in range(max(1, config.min_len), config.max_len + 1):
            strings = sigma**n
            total += strings * sigma
            if config.deletes and n >= 2:
                total += strings
    return total


def _check_runnable(config: CampaignConfig, mode: str) -> None:
    if config.mode != mode:
        raise InputError(f"run_{mode} needs a config with mode {mode!r}, got {config.mode!r}")
    estimate = estimate_steps(config)
    if estimate > config.budget:
        raise InputError(
            f"campaign would evaluate about {estimate} steps, over the budget of {config.budget}; "
            "narrow the ranges or raise the budget"
        )


def run_exhaustive(config: CampaignConfig) -> CampaignReport:
    """Evaluate every string in range with every appended symbol."""
    _check_runnable(config, "exhaustive")
    return _execute(list(_exhaustive_tasks(config)), config)


def run_random(config: CampaignConfig) -> CampaignReport:
    """Evaluate seeded uniform random strings; identical config implies identical report."""
    _check_runnable(config, "random")
    rng = random.Random(config.seed)
    tasks: list[tuple[str, str, bool]] = []
    for i in range(config.samples):
        sigma = config.sigmas[i % len(config.sigmas)]
        symbols = config.symbols or _default_symbols(sigma)
        n = rng.randint(max(1, config.min_len), config.max_len)
        subject = "".join(rng.choices(symbols, k=n))
        tasks.append((symbols, subject, False))
    return _execute(tasks, config)


PRESETS: dict[str, CampaignConfig] = {
    "exhaustive-binary": CampaignConfig(
        mode="exhaustive", sigmas=(2,), min_len=1, max_len=14, engine="both"
    ),
    "exhaustive-ternary": CampaignConfig(
        mode="exhaustive", sigmas=(3,), min_len=1, max_len=9, engine="both"
    ),
    "random": CampaignConfig(
        mode="random",
        sigmas=(2, 4, 26),
        min_len=1,
        max_len=100,
        samples=1000,
        seed=42,
        engine="both",
    ),
}
