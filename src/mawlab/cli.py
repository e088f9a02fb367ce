"""Command-line interface: MAW sets, slide analyses, verification campaigns, families.

Exit codes are a stable contract: 0 success, 2 usage or input error,
3 verification failure (falsification, engine mismatch, or a --check
mismatch).  JSON and CSV outputs carry the same tabular data: the JSON
payload's ``table`` key mirrors the CSV rows exactly.  Output is
deterministic; timestamps are only added with --timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .core import Alphabet, InputError
from .bounds import BoundId, check_step, check_totals
from .families import generate, measure
from .slide import _ENUMERATORS, SlideSummary, slide_steps
from .verify import PRESETS, CampaignConfig, run_exhaustive, run_random

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FALSIFIED = 3

# Every bound column of a slide row, unchecked until a verdict fills it.
_UNCHECKED_BOUNDS = dict.fromkeys(BoundId)
_SLIDE_COLUMNS = [
    "step_index",
    "d",
    "sigma_window",
    "sigma_ext",
    "deleted",
    "m1",
    "m2",
    "m3",
    "delta",
    *_UNCHECKED_BOUNDS,
]


def _read_text(args: argparse.Namespace) -> str:
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read().rstrip("\n")
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.file} is not UTF-8 text: {exc}") from None
        if "\n" in text or "\r" in text:
            raise InputError(f"{args.file} has a line break inside its text; give one line")
        return text
    if args.text is None:
        raise InputError("provide TEXT or --file")
    return args.text


def _resolve_alphabet(args: argparse.Namespace, text: str) -> Alphabet:
    if args.alphabet is not None:
        alphabet = Alphabet.of(args.alphabet)
        alphabet.require_text(text)
        return alphabet
    return Alphabet.from_text(text)


def _resolve_engine(name: str) -> str:
    return "automaton" if name == "auto" else name


def _emit(args: argparse.Namespace, payload: dict, alphabet: str | None, text_lines: list[str]) -> None:
    if args.format == "json":
        envelope = {
            "tool": "mawlab",
            "version": __version__,
            "command": args.command_echo,
            "alphabet": alphabet,
            "payload": payload,
        }
        if args.timestamps:
            envelope["timestamps"] = {"emitted": datetime.now(timezone.utc).isoformat()}
        print(json.dumps(envelope, indent=2, sort_keys=True))
    elif args.format == "csv":
        table = payload["table"]
        columns = payload["table_columns"]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in table:
            writer.writerow(["" if row.get(col) is None else row.get(col) for col in columns])
        sys.stdout.write(out.getvalue())
    else:
        for line in text_lines:
            print(line)


def _cmd_maw(args: argparse.Namespace) -> int:
    text = _read_text(args)
    alphabet = _resolve_alphabet(args, text)
    maw_set = _ENUMERATORS[_resolve_engine(args.engine)](text, alphabet)
    payload = maw_set.to_payload()
    if args.format != "text":
        payload["table_columns"] = ["word", "length"]
        payload["table"] = [{"word": w, "length": len(w)} for w in maw_set.words]
    _emit(args, payload, alphabet.as_str(), [",".join(maw_set.words)])
    return EXIT_OK


def _cmd_slide(args: argparse.Namespace) -> int:
    text = _read_text(args)
    alphabet = _resolve_alphabet(args, text)
    sigma = alphabet.size

    sigma_max = 0
    rows: list[dict] = []
    steps_payload: list[dict] = []
    all_ok = True
    steps = slide_steps(text, args.window, alphabet, _resolve_engine(args.engine))
    for i, (fused, ap, de) in enumerate(steps):
        ap_verdicts, de_verdicts = check_step(ap, sigma), check_step(de, sigma)
        sigma_max = max(sigma_max, ap.sigma_window, de.sigma_window)
        m1, m2, m3 = ap.type_counts
        row: dict = {
            "step_index": i,
            "d": args.window,
            "sigma_window": ap.sigma_window,
            "sigma_ext": ap.sigma_ext,
            "deleted": len(ap.deleted),
            "m1": m1,
            "m2": m2,
            "m3": m3,
            "delta": fused,
            **_UNCHECKED_BOUNDS,
        }
        for v in ap_verdicts + de_verdicts:
            row[v.bound_id] = v.slack
            if not v.satisfied:
                all_ok = False
        rows.append(row)
        if args.per_step:
            steps_payload.append(
                {
                    "step_index": i,
                    "fused_delta": fused,
                    "append": ap.to_payload(ap_verdicts),
                    "delete": de.to_payload(de_verdicts),
                }
            )

    summary = SlideSummary(len(text), args.window, tuple(r["delta"] for r in rows), sigma_max)
    totals_verdicts = check_totals(summary, sigma)
    payload = summary.to_payload()
    payload["totals_verdicts"] = [v.to_payload() for v in totals_verdicts]
    payload["table_columns"] = _SLIDE_COLUMNS
    payload["table"] = rows
    if args.per_step:
        payload["steps"] = steps_payload

    lines = [f"n={summary.text_length} d={summary.d} total={summary.total}"]
    if args.per_step:
        lines += [f"step {r['step_index']}: delta={r['delta']}" for r in rows]
    _emit(args, payload, alphabet.as_str(), lines)
    return EXIT_OK if all_ok and all(v.satisfied for v in totals_verdicts) else EXIT_FALSIFIED


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.preset is None and args.config is None:
        raise InputError("verify needs --preset or --config")
    data: dict = {}
    if args.preset is not None:
        data = PRESETS[args.preset].to_payload()
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.config}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.config} is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed config: {exc}") from None
        if not isinstance(overrides, dict):
            raise InputError("config must be a JSON object")
        data.update(overrides)
    if args.seed is not None:
        data["seed"] = args.seed
    config = CampaignConfig.from_mapping(data)

    report = run_exhaustive(config) if config.mode == "exhaustive" else run_random(config)
    payload = report.to_payload(include_timing=args.timestamps)
    payload["table_columns"] = ["d", "sigma_ext", "max_delta", "witness"]
    payload["table"] = [dict(row) for row in report.tightness]

    lines = [
        f"instances={report.instances} steps={report.steps} "
        f"falsifications={len(report.falsifications)} mismatches={len(report.engine_mismatches)}"
    ]
    for f in report.falsifications:
        lines.append(f"FALSIFIED {f}")
    for m in report.engine_mismatches:
        lines.append(f"MISMATCH {m['subject']}")
    _emit(args, payload, None, lines)
    return EXIT_OK if report.ok else EXIT_FALSIFIED


def _cmd_gen_family(args: argparse.Namespace) -> int:
    if args.check_d is not None and not args.check:
        raise InputError("--check-d needs --check")
    symbols = tuple(args.alphabet) if args.alphabet else None
    instance = generate(
        args.family,
        symbols=symbols,
        d=args.d,
        sigma_w=args.sigma_w,
        sigma=args.sigma,
        n=args.n,
    )
    payload = instance.to_payload()
    ok = True
    if args.check:
        checked = measure(instance, _resolve_engine(args.engine), d=args.check_d)
        payload["measured"] = checked
        ok = checked["ok"]

    row = {
        "family_id": instance.family_id,
        "text": instance.text,
        "window": instance.window,
        "append_symbol": instance.append_symbol,
        "step_index": instance.step_index,
        "expected_delta": instance.expected_delta,
        "expected_per_step": instance.expected_per_step,
        "expected_min_step": instance.expected_min_step,
        "checked_ok": ok if args.check else None,
    }
    payload["table_columns"] = list(row)
    payload["table"] = [row]

    lines = [f"{k}={v}" for k, v in row.items() if v is not None]
    _emit(args, payload, instance.alphabet.as_str(), lines)
    return EXIT_OK if ok else EXIT_FALSIFIED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mawlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mawlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_engine: bool = True) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--timestamps", action="store_true", help="include wall-clock metadata")
        if with_engine:
            p.add_argument("--engine", choices=("auto", "oracle", "automaton"), default="auto")

    p_maw = sub.add_parser("maw", help="enumerate the minimal absent words of a string")
    p_maw.add_argument("text", nargs="?", default=None)
    p_maw.add_argument("--file", help="read the input string from a file")
    p_maw.add_argument("--alphabet", help="allowed symbols (default: distinct symbols of the input)")
    common(p_maw)
    p_maw.set_defaults(func=_cmd_maw)

    p_slide = sub.add_parser("slide", help="per-step MAW changes for a sliding window")
    p_slide.add_argument("text", nargs="?", default=None)
    p_slide.add_argument("--file")
    p_slide.add_argument("--alphabet")
    p_slide.add_argument("--window", type=int, required=True, metavar="D")
    p_slide.add_argument("--per-step", action="store_true", dest="per_step")
    common(p_slide)
    p_slide.set_defaults(func=_cmd_slide)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("--preset", choices=sorted(PRESETS))
    p_verify.add_argument("--config", help="JSON campaign config (overrides preset fields)")
    p_verify.add_argument("--seed", type=int)
    common(p_verify, with_engine=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen-family", help="generate an extremal string family instance")
    p_gen.add_argument("--family", required=True)
    p_gen.add_argument("--d", type=int)
    p_gen.add_argument("--sigma-w", type=int, dest="sigma_w")
    p_gen.add_argument("--sigma", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--alphabet")
    p_gen.add_argument("--check", action="store_true", help="measure and compare against expectations")
    p_gen.add_argument("--check-d", type=int, dest="check_d", help="window length for whole-text checks")
    common(p_gen)
    p_gen.set_defaults(func=_cmd_gen_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize --version/help to 0
        return int(exc.code or 0)
    args.command_echo = argv
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
