"""Command-line interface: MAW sets, slide analyses, verification campaigns, families.

Exit codes are a stable contract: 0 success, 2 usage or input error,
3 verification failure (falsification, engine mismatch, or a --check
mismatch; a structural theorem violation met outside a campaign prints one
``FALSIFIED <detail>`` line on stderr).  JSON and CSV outputs carry the
same tabular data: the JSON payload's ``table`` key mirrors the CSV rows
exactly.  Output is deterministic; timestamps are only added with
--timestamps.

JSON output is ``json.dumps(envelope, indent=2, sort_keys=True)`` byte for
byte, and it is made by that call, except for the payload's large lists.

``slide`` and ``maw`` build no dict per step or per row.  Each JSON table row,
each ``--per-step`` step and ``maw``'s word list is rendered to text as it is
made, straight from the step's two ``DeltaReport``s and their
``BoundVerdict`` tuples or from the words: their nesting depths are fixed
(rows and steps at 3, a step's reports at 4), so a word list is its encoded
words joined by that depth's separator, a verdict is one % template, and each
dict's keys are put in sorted order once, when its template is made.  The
rendered items sit in an ``_Items`` list, which goes into ``json.dumps`` as
``[]``; the writer splices the items in at that text and writes the pieces
to stdout unjoined.  ``DeltaReport.to_payload`` remains the schema of a
step's report: the tests compare the rendered text with ``json.dumps`` of the
payloads built from it.

A step's verdicts depend on its two reports only through
``bounds.verdict_inputs``, and few pairs of those occur: the 992 steps of a
seeded 1000-symbol a-z text at d = 8 have 113 distinct pairs (their 1984
reports have 88 distinct inputs).  So ``slide`` keeps, for one slide, a
memo from the pair to the step's all-satisfied flag, its row with the step
index and fused delta left open, and for ``--per-step`` json its two
rendered verdict lists, which every step with that pair shares as pieces.
``check_step`` runs twice per distinct pair.  The memo stops growing at
``_MEMO_ENTRIES`` pairs; a step past that gets fresh verdicts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .core import Alphabet, InputError, TheoremViolationError
from .bounds import BoundId, BoundVerdict, check_step, total_verdicts, verdict_inputs
from .families import generate, measure
from .slide import _ENUMERATORS, _TYPE1, _TYPE2, _TYPE3, DeltaReport, MawType, SlideSummary, slide_steps
from .verify import PRESETS, CampaignConfig, run_exhaustive, run_random

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FALSIFIED = 3

# A slide row: the step's counts, then one slack column per bound, empty (None
# in json) when the step does not meet the bound's hypotheses.
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
    *BoundId,
]
_BOUND_CELL = {bound: _SLIDE_COLUMNS.index(bound) for bound in BoundId}
_STEP_CELL, _DELTA_CELL = _SLIDE_COLUMNS.index("step_index"), _SLIDE_COLUMNS.index("delta")
# Most distinct step signatures one slide's verdict memo keeps; a step past it gets fresh verdicts.
_MEMO_ENTRIES = 4096


def _indents(depth: int) -> tuple[str, str, str]:
    """The texts before the first item of a container at ``depth``, between its items, and before its close."""
    inner = "\n" + "  " * (depth + 1)
    return inner, "," + inner, "\n" + "  " * depth


class _Items(list):
    """A payload list's items as text pieces, each item preceded by the item separator of depth 2."""


def _json_pieces(envelope: dict) -> list[str]:
    """The text of ``json.dumps(envelope, indent=2, sort_keys=True)``, byte for byte, in pieces.

    Each non-empty ``_Items`` value of the payload is dumped as ``[]`` and its
    pieces are spliced in at that text.  The match is exact: ``indent=2``
    writes a raw newline only before an item or a close, and json escapes a
    newline inside a string, so ``'\n    "<key>": []'`` is only the payload's key.
    """
    payload = envelope["payload"]
    items = {key: value for key, value in payload.items() if type(value) is _Items and value}
    if items:
        envelope = dict(envelope, payload=dict(payload, **dict.fromkeys(items, [])))
    rest = json.dumps(envelope, indent=2, sort_keys=True)
    close = _indents(2)[2] + "]"
    pieces: list[str] = []
    for key in sorted(items):
        marker = f"\n    {encode_basestring_ascii(key)}: ["
        head, rest = rest.split(marker + "]", 1)
        pieces += (head, marker, items[key][0][1:])  # the first item's separator has no comma
        pieces += islice(items[key], 1, None)
        pieces.append(close)
    pieces.append(rest)
    return pieces


# Renderers for the per-step objects and table rows of ``slide`` and ``maw``.
# Their depths are fixed by the envelope: payload at 1, its lists at 2, so a
# table row or a --per-step step sits at 3 and a step's reports at 4.


def _dict_template(keys: list[str], depth: int) -> str:
    """A % template for a dict at ``depth`` with one ``%s`` per key.

    ``keys`` come in sorted order, the order ``sort_keys`` writes them, and
    the template's values are given in the same order.
    """
    if keys != sorted(keys):
        raise ValueError(f"keys are not in sorted order: {keys}")
    first, sep, close = _indents(depth)
    fields = sep.join(f"{encode_basestring_ascii(key)}: %s" for key in keys)
    return f"{{{first}{fields}{close}}}"


_ITEM_SEP = _indents(2)[1]  # before each table row and each step
_D5, _D6 = _indents(5), _indents(6)
_BOOL = ("false", "true")
_BOUND_TEXT = {bound: encode_basestring_ascii(bound) for bound in BoundId}
_VERDICT = _dict_template(["bound", "bound_id", "observed", "satisfied", "slack"], 6)
_BY_TYPE = _dict_template([t.label for t in MawType], 5)
# A report's values but its verdicts go into one template; its rendered verdict list follows as one piece.
_REPORT_HEAD, _REPORT_CLOSE = _dict_template(
    [
        "added", "added_by_type", "after", "before", "d", "deleted", "delta", "direction",
        "injection_witness", "sigma_ext", "sigma_window", "verdicts",
    ],
    4,
).rsplit("%s", 1)
# A step: _STEP_OPEN, its append report, _STEP_MID, its delete report, _STEP_TAIL % (fused_delta, step_index).
_STEP_OPEN, _STEP_MID, _STEP_TAIL = _dict_template(["append", "delete", "fused_delta", "step_index"], 3).split("%s", 2)
# A JSON slide row takes a row's cells in sorted column order.
_SLIDE_ROW = _dict_template(sorted(_SLIDE_COLUMNS), 3)
_SORTED_CELLS = itemgetter(*sorted(range(len(_SLIDE_COLUMNS)), key=_SLIDE_COLUMNS.__getitem__))
_MAW_ROW = _dict_template(["length", "word"], 3)


def _strings_text(words: tuple[str, ...], level: tuple[str, str, str]) -> str:
    """A list of strings at the depth of ``level`` (see ``_indents``)."""
    if not words:
        return "[]"
    first, sep, close = level
    return f"[{first}{sep.join(map(encode_basestring_ascii, words))}{close}]"


def _verdicts_text(verdicts: tuple[BoundVerdict, ...]) -> str:
    """The text of ``[v.to_payload() for v in verdicts]`` at depth 5."""
    if not verdicts:
        return "[]"
    first, sep, close = _D5
    items = sep.join(
        [
            _VERDICT % (bound, _BOUND_TEXT[bound_id], observed, _BOOL[observed <= bound], bound - observed)
            for bound_id, bound, observed in verdicts
        ]
    )
    return f"[{first}{items}{close}]"


def _render_report(report: DeltaReport, verdicts_text: str, out: list[str]) -> None:
    """Append the text of ``report.to_payload(verdicts)`` at depth 4, given ``_verdicts_text(verdicts)``:
    one piece for every value but the verdicts, then ``verdicts_text`` as given, then the close."""
    by_type = report.added_by_type
    witness = report.injection_witness
    if witness:
        first, sep, close = _D5
        pairs = sep.join([f"{encode_basestring_ascii(w)}: {pos}" for w, pos in sorted(witness.items())])
        witness_text = f"{{{first}{pairs}{close}}}"
    else:
        witness_text = "{}"
    out += (
        _REPORT_HEAD
        % (
            _strings_text(report.added, _D5),
            _BY_TYPE
            % (
                _strings_text(by_type[_TYPE1], _D6),
                _strings_text(by_type[_TYPE2], _D6),
                _strings_text(by_type[_TYPE3], _D6),
            ),
            encode_basestring_ascii(report.after),
            encode_basestring_ascii(report.before),
            report.d,
            _strings_text(report.deleted, _D5),
            len(report.deleted) + len(report.added),
            encode_basestring_ascii(report.direction),
            witness_text,
            report.sigma_ext,
            report.sigma_window,
        ),
        verdicts_text,
        _REPORT_CLOSE,
    )


def _one_line(value: str | None, source: str) -> str | None:
    """``value`` as given; a line break in any text or symbol set from the user is an input error."""
    if value is not None and ("\n" in value or "\r" in value):
        raise InputError(f"{source} has a line break; give one line")
    return value


def _read_text(args: argparse.Namespace) -> str:
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read().rstrip("\n")
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.file} is not UTF-8 text: {exc}") from None
        return _one_line(text, args.file)
    if args.text is None:
        raise InputError("provide TEXT or --file")
    return _one_line(args.text, "TEXT")


def _resolve_alphabet(args: argparse.Namespace, text: str) -> Alphabet:
    if _one_line(args.alphabet, "--alphabet") is not None:
        alphabet = Alphabet.of(args.alphabet)
        alphabet.require_text(text)
        return alphabet
    return Alphabet.from_text(text)


def _resolve_engine(name: str) -> str:
    return "automaton" if name == "auto" else name


def _emit(args: argparse.Namespace, payload: dict | None, alphabet: str | None, text_lines: list[str]) -> None:
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
        pieces = _json_pieces(envelope)
        pieces.append("\n")
        sys.stdout.writelines(pieces)
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
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("word", "length"))
        writer.writerows((w, len(w)) for w in maw_set.words)
        return EXIT_OK
    payload = None
    if args.format == "json":
        payload = maw_set.to_payload()
        # One piece: a MAW set is never empty (some power of a symbol is absent).
        payload["words"] = _Items([_ITEM_SEP + _ITEM_SEP.join(map(encode_basestring_ascii, maw_set.words))])
        payload["table_columns"] = ["word", "length"]
        payload["table"] = _Items(
            chain.from_iterable((_ITEM_SEP, _MAW_ROW % (len(w), encode_basestring_ascii(w))) for w in maw_set.words)
        )
    _emit(args, payload, alphabet.as_str(), [",".join(maw_set.words)])
    return EXIT_OK


def _step_entry(ap: DeltaReport, de: DeltaReport, sigma: int, fmt: str, per_step: bool) -> tuple:
    """A step's value in the per-slide verdict memo, from one ``check_step`` per report.

    The step's all-satisfied flag; its row with the step index and the fused
    delta left open, as csv cells to fill or, in json, as a template that
    takes them in sorted column order (delta first); and, for --per-step
    json, the two reports' rendered verdict lists.  All of it follows from
    the two reports' ``verdict_inputs`` (an append deletes exactly one word).
    """
    ap_verdicts, de_verdicts = check_step(ap, sigma), check_step(de, sigma)
    verdicts = ap_verdicts + de_verdicts
    row = None
    if fmt != "text":
        cells = ["%s", ap.d, ap.sigma_window, ap.sigma_ext, len(ap.deleted), *ap.type_counts, "%s"]
        cells += ["null" if fmt == "json" else ""] * len(BoundId)
        for v in verdicts:
            cells[_BOUND_CELL[v.bound_id]] = v.slack
        row = _SLIDE_ROW % _SORTED_CELLS(cells) if fmt == "json" else cells
    texts = (_verdicts_text(ap_verdicts), _verdicts_text(de_verdicts)) if fmt == "json" and per_step else (None, None)
    return all(v.satisfied for v in verdicts), row, *texts


def _cmd_slide(args: argparse.Namespace) -> int:
    text = _read_text(args)
    alphabet = _resolve_alphabet(args, text)
    sigma = alphabet.size
    steps = slide_steps(text, args.window, alphabet, _resolve_engine(args.engine))

    # CSV writes each row as its step is made, and json renders each row (and
    # each --per-step step) to text pieces as it is made; text keeps no rows.
    # Only json and the text --per-step lines keep the fused sizes.
    as_json = args.format == "json"
    writer = csv.writer(sys.stdout, lineterminator="\n") if args.format == "csv" else None
    if writer is not None:
        writer.writerow(_SLIDE_COLUMNS)
    sizes: list[int] | None = [] if as_json or (args.per_step and writer is None) else None
    rows = _Items()
    step_items = _Items() if as_json and args.per_step else None
    # _step_entry of each distinct pair of verdict_inputs, for this slide only.
    memo: dict[tuple, tuple] = {}
    total = sigma_max = 0
    all_ok = True
    for i, (fused, ap, de) in enumerate(steps):
        key = verdict_inputs(ap), verdict_inputs(de)
        entry = memo.get(key)
        if entry is None:
            entry = _step_entry(ap, de, sigma, args.format, args.per_step)
            if len(memo) < _MEMO_ENTRIES:
                memo[key] = entry
        ok, row, ap_text, de_text = entry
        all_ok = all_ok and ok
        sigma_max = max(sigma_max, ap.sigma_window, de.sigma_window)
        total += fused
        if sizes is not None:
            sizes.append(fused)
        if writer is not None:
            row[_STEP_CELL], row[_DELTA_CELL] = i, fused
            writer.writerow(row)
        elif as_json:
            rows += (_ITEM_SEP, row % (fused, i))
        if step_items is not None:
            step_items += (_ITEM_SEP, _STEP_OPEN)
            _render_report(ap, ap_text, step_items)
            step_items.append(_STEP_MID)
            _render_report(de, de_text, step_items)
            step_items.append(_STEP_TAIL % (fused, i))

    totals_verdicts = total_verdicts(len(text), args.window, total, sigma_max, sigma)
    if writer is None:
        payload = None
        if as_json:
            payload = SlideSummary(len(text), args.window, tuple(sizes), sigma_max).to_payload()
            payload["totals_verdicts"] = [v.to_payload() for v in totals_verdicts]
            payload["table_columns"] = _SLIDE_COLUMNS
            payload["table"] = rows
            if step_items is not None:
                payload["steps"] = step_items
        lines = [f"n={len(text)} d={args.window} total={total}"]
        if args.per_step:
            lines += [f"step {i}: delta={delta}" for i, delta in enumerate(sizes)]
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
    symbols = tuple(args.alphabet) if _one_line(args.alphabet, "--alphabet") is not None else None
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
    except TheoremViolationError as exc:
        print(f"FALSIFIED {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


def entry() -> None:  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
