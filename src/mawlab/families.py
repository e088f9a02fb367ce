"""Constructive generators for the extremal string families.

Each generator returns a :class:`FamilyInstance` carrying the generated
string, the exact step at which the relevant bound is attained (so tests need
no searching), and the expected values.  ``measure`` re-derives the observed
values with a chosen engine and compares them against the expectations.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Callable, Mapping

from .core import Alphabet, InputError, canonical_words
from .slide import DeltaReport, MawType, append_delta, slide_totals

_DISPLAY = string.ascii_lowercase + string.ascii_uppercase + string.digits


def default_symbols(count: int) -> tuple[str, ...]:
    if not 1 <= count <= len(_DISPLAY):
        raise InputError(f"can only auto-generate alphabets of 1..{len(_DISPLAY)} symbols")
    return tuple(_DISPLAY[:count])


@dataclass(frozen=True)
class FamilyInstance:
    """One generated extremal instance plus its expected measurements.

    Per-step families set ``window``/``append_symbol`` and expect
    ``expected_delta`` for that single append.  Whole-text families set
    ``text`` (with ``step_index`` pointing at the distinguished slide step
    where applicable) and expect ``expected_per_step`` exactly, or
    ``expected_min_step`` as a lower bound.
    """

    family_id: str
    params: Mapping[str, int]
    alphabet: Alphabet
    text: str
    window: str | None = None
    append_symbol: str | None = None
    step_index: int | None = None
    expected_delta: int | None = None
    expected_per_step: int | None = None
    expected_min_step: int | None = None
    expected_deleted: tuple[str, ...] | None = None
    expected_types: Mapping[MawType, tuple[str, ...]] | None = None

    def to_payload(self) -> dict:
        payload: dict = {
            "family_id": self.family_id,
            "params": dict(self.params),
            "alphabet": self.alphabet.as_str(),
            "text": self.text,
        }
        if self.window is not None:
            payload["window"] = self.window
            payload["append_symbol"] = self.append_symbol
        if self.step_index is not None:
            payload["step_index"] = self.step_index
        for key in ("expected_delta", "expected_per_step", "expected_min_step"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.expected_deleted is not None:
            payload["expected_deleted"] = list(self.expected_deleted)
        if self.expected_types is not None:
            payload["expected_types"] = {t.label: list(ws) for t, ws in self.expected_types.items()}
        return payload


def gen_Z(d: int, sigma_w: int, sigma_total: int, symbols: tuple[str, ...] | None = None) -> FamilyInstance:
    """Window a1..a_{sw-1} a_sw^(d-sw+1) with a fresh appended symbol.

    Attains the general append bound sigma_w + d + 1 with equality for
    sigma_w >= 2 (and for the single-symbol window of length 1).
    """
    if not 1 <= sigma_w <= d:
        raise InputError(f"need 1 <= sigma_w <= d, got sigma_w={sigma_w}, d={d}")
    if sigma_total < 3:
        raise InputError(f"need sigma_total >= 3, got {sigma_total}")
    if sigma_w + 1 > sigma_total:
        raise InputError(f"need sigma_w + 1 <= sigma_total, got {sigma_w + 1} > {sigma_total}")
    syms = tuple(symbols) if symbols is not None else default_symbols(sigma_total)
    if len(syms) != sigma_total:
        raise InputError("symbols must provide exactly sigma_total characters")

    window = "".join(syms[: sigma_w - 1]) + syms[sigma_w - 1] * (d - sigma_w + 1)
    alpha = syms[sigma_w]

    expected_types = None
    if sigma_w >= 2:
        run = syms[sigma_w - 1]
        m3 = [s + alpha for s in syms[: sigma_w - 1]]
        m3 += [syms[sigma_w - 2] + run * e + alpha for e in range(1, d - sigma_w + 1)]
        expected_types = {
            MawType.TYPE1: (alpha + alpha,),
            MawType.TYPE2: tuple(alpha + s for s in syms[:sigma_w]),
            MawType.TYPE3: tuple(m3),
        }

    return FamilyInstance(
        family_id="ZGeneral",
        params={"d": d, "sigma_w": sigma_w, "sigma": sigma_total},
        alphabet=Alphabet.of(syms),
        text=window,
        window=window,
        append_symbol=alpha,
        expected_delta=sigma_w + d + 1,
        expected_deleted=(alpha,),
        expected_types=expected_types,
    )


def gen_binary_extremal(d: int) -> FamilyInstance:
    """00 1^(d-2) with 0 appended; the unique binary window attaining delta = d (d >= 3)."""
    if d < 3:
        raise InputError(f"binary extremal family needs d >= 3, got {d}")
    window = "00" + "1" * (d - 2)
    return FamilyInstance(
        family_id="BinaryExtremal",
        params={"d": d},
        alphabet=Alphabet.of("01"),
        text=window,
        window=window,
        append_symbol="0",
        expected_delta=d,
        expected_deleted=("10",),
        expected_types={
            MawType.TYPE1: (),
            MawType.TYPE2: ("100", "101"),
            MawType.TYPE3: tuple("0" + "1" * k + "0" for k in range(1, d - 2)),
        },
    )


def gen_binary_onezeros(d: int) -> FamilyInstance:
    """0 1^(d-1) with 0 appended; delta = d, saturating the binary Type-3 cap d - 2."""
    if d < 3:
        raise InputError(f"one-zeros family needs d >= 3, got {d}")
    window = "0" + "1" * (d - 1)
    return FamilyInstance(
        family_id="BinaryOneZeros",
        params={"d": d},
        alphabet=Alphabet.of("01"),
        text=window,
        window=window,
        append_symbol="0",
        expected_delta=d,
        expected_deleted=("10",),
        expected_types={
            MawType.TYPE1: (),
            MawType.TYPE2: ("101",),
            MawType.TYPE3: tuple("0" + "1" * k + "0" for k in range(1, d - 1)),
        },
    )


def gen_unary_v(d: int) -> FamilyInstance:
    """1^d with 0 appended; delta = 3 for every d, the binary maximum for d <= 2."""
    if d < 1:
        raise InputError(f"unary family needs d >= 1, got {d}")
    window = "1" * d
    return FamilyInstance(
        family_id="UnaryV",
        params={"d": d},
        alphabet=Alphabet.of("01"),
        text=window,
        window=window,
        append_symbol="0",
        expected_delta=3,
        expected_deleted=("0",),
        expected_types={
            MawType.TYPE1: ("00",),
            MawType.TYPE2: ("01",),
            MawType.TYPE3: (),
        },
    )


def gen_total_sigma(
    n: int, d: int, sigma: int, symbols: tuple[str, ...] | None = None
) -> FamilyInstance:
    """Periodic text over sigma <= d symbols whose slide changes grow like sigma * n.

    The period is a1 r^(k-1) a2 r^(k-1) ... a_{sigma-1} r^(k-1) with r the last
    symbol and k the unique integer with (k-1)(sigma-1) <= d < k(sigma-1); any
    symbol other than r has consecutive occurrences more than d apart, so each
    step ending just before such a symbol changes at least
    floor((sigma-1)/2) * k words.  ``step_index`` points at the first such
    step, whose window is r^(d mod k) followed by whole period groups.
    """
    if sigma < 3:
        raise InputError(f"need sigma >= 3, got {sigma}")
    if sigma > d:
        raise InputError(f"need sigma <= d, got sigma={sigma} > d={d}")
    if d >= n:
        raise InputError(f"need d < n, got d={d}, n={n}")
    syms = tuple(symbols) if symbols is not None else default_symbols(sigma)
    if len(syms) != sigma:
        raise InputError("symbols must provide exactly sigma characters")

    k = next(kk for kk in range(1, d + 2) if (kk - 1) * (sigma - 1) <= d < kk * (sigma - 1))
    run = syms[-1]
    period = "".join(s + run * (k - 1) for s in syms[:-1])
    period_len = k * (sigma - 1)
    reps = -(-n // period_len)
    text = (period * reps)[:n]

    r = d % k
    step_index = k - r
    if step_index + d + 1 > n:
        raise InputError(
            f"n={n} is too small to expose the distinguished step; need n >= {step_index + d + 1}"
        )

    return FamilyInstance(
        family_id="TotalSigmaFamily",
        params={"n": n, "d": d, "sigma": sigma, "k": k},
        alphabet=Alphabet.of(syms),
        text=text,
        step_index=step_index,
        expected_min_step=((sigma - 1) // 2) * k,
    )


def gen_total_distinct(
    n: int, d: int, sigma: int, symbols: tuple[str, ...] | None = None
) -> FamilyInstance:
    """Cycle of d+1 pairwise distinct symbols; every slide step changes 4d - 2 words."""
    if d < 1:
        raise InputError(f"need d >= 1, got d={d}")
    if sigma < d + 1:
        raise InputError(f"need sigma >= d + 1, got sigma={sigma}, d={d}")
    if d >= n:
        raise InputError(f"need d < n, got d={d}, n={n}")
    syms = tuple(symbols) if symbols is not None else default_symbols(sigma)
    if len(syms) != sigma:
        raise InputError("symbols must provide exactly sigma characters")

    period = "".join(syms[: d + 1])
    reps = -(-n // (d + 1))
    text = (period * reps)[:n]
    return FamilyInstance(
        family_id="TotalDistinctFamily",
        params={"n": n, "d": d, "sigma": sigma},
        alphabet=Alphabet.of(syms),
        text=text,
        step_index=0,
        expected_per_step=4 * d - 2,
    )


def gen_alternating(n: int) -> FamilyInstance:
    """(ab)^(n/2); for even window lengths every slide step changes exactly 2 words."""
    if n < 2 or n % 2:
        raise InputError(f"alternating family needs an even n >= 2, got {n}")
    return FamilyInstance(
        family_id="AlternatingBinary",
        params={"n": n},
        alphabet=Alphabet.of("ab"),
        text="ab" * (n // 2),
        expected_per_step=2,
    )


# Family id -> (generator, its parameters in positional order, whether it takes a custom alphabet).
_FAMILIES: dict[str, tuple[Callable[..., FamilyInstance], tuple[str, ...], bool]] = {
    "ZGeneral": (gen_Z, ("d", "sigma_w", "sigma"), True),
    "BinaryExtremal": (gen_binary_extremal, ("d",), False),
    "BinaryOneZeros": (gen_binary_onezeros, ("d",), False),
    "UnaryV": (gen_unary_v, ("d",), False),
    "TotalSigmaFamily": (gen_total_sigma, ("n", "d", "sigma"), True),
    "TotalDistinctFamily": (gen_total_distinct, ("n", "d", "sigma"), True),
    "AlternatingBinary": (gen_alternating, ("n",), False),
}

_ALIASES = {
    "TotalSigma": "TotalSigmaFamily",
    "TotalDistinct": "TotalDistinctFamily",
    "Alternating": "AlternatingBinary",
}


def generate(
    family_id: str, symbols: tuple[str, ...] | None = None, **params: int
) -> FamilyInstance:
    """Dispatch by family identifier (CLI entry point)."""
    canon = _ALIASES.get(family_id, family_id)
    if canon not in _FAMILIES:
        raise InputError(f"unknown family {family_id!r}; expected one of {sorted(_FAMILIES)}")
    generator, wanted, takes_symbols = _FAMILIES[canon]
    missing = [name for name in wanted if params.get(name) is None]
    if missing:
        raise InputError(f"family {canon} needs parameters: {', '.join(missing)}")
    args = [params[name] for name in wanted]
    if symbols is None:
        return generator(*args)
    if not takes_symbols:
        raise InputError(f"family {canon} does not take a custom alphabet")
    return generator(*args, symbols=tuple(symbols))


def measure(
    instance: FamilyInstance,
    engine: str = "automaton",
    d: int | None = None,
) -> dict:
    """Measure the instance and compare against its expected values.

    Returns a payload with observed values and an ``ok`` flag.  For
    :class:`AlternatingBinary` a window length ``d`` must be supplied; the
    exact per-step value is only asserted for even ``d``.  Every other family
    fixes its own window, and a ``d`` given for it is an input error.
    """
    if d is not None and instance.family_id != "AlternatingBinary":
        raise InputError(f"only AlternatingBinary takes a window length; {instance.family_id} fixes its own")
    result: dict = {"family_id": instance.family_id, "ok": True}

    def fail(key: str, expected, got) -> None:
        result["ok"] = False
        result.setdefault("mismatches", []).append({"field": key, "expected": expected, "got": got})

    if instance.window is not None:
        report: DeltaReport = append_delta(
            instance.window, instance.append_symbol, instance.alphabet, engine
        )
        result["observed_delta"] = report.delta_size
        result["deleted"] = list(report.deleted)
        result["added"] = list(report.added)
        if instance.expected_delta is not None and report.delta_size != instance.expected_delta:
            fail("delta", instance.expected_delta, report.delta_size)
        # Expectations are built in the alphabet's symbol order; reports are canonical.
        if instance.expected_deleted is not None:
            expected = canonical_words(instance.expected_deleted)
            if report.deleted != expected:
                fail("deleted", list(expected), list(report.deleted))
        if instance.expected_types is not None:
            for t, expected_words in instance.expected_types.items():
                expected, got = canonical_words(expected_words), report.added_by_type[t]
                if got != expected:
                    fail(t.label, list(expected), list(got))
        return result

    if instance.family_id == "AlternatingBinary":
        if d is None:
            raise InputError("measuring the alternating family needs a window length d")
        summary = slide_totals(instance.text, d, instance.alphabet, engine)
        result["d"] = d
        result["per_step"] = sorted(set(summary.per_step))
        result["total"] = summary.total
        if d % 2 == 0 and instance.expected_per_step is not None:
            if set(summary.per_step) != {instance.expected_per_step}:
                fail("per_step", instance.expected_per_step, sorted(set(summary.per_step)))
        return result

    d_eff = instance.params["d"]
    summary = slide_totals(instance.text, d_eff, instance.alphabet, engine)
    result["total"] = summary.total
    result["per_step"] = sorted(set(summary.per_step))
    if instance.expected_per_step is not None:
        if set(summary.per_step) != {instance.expected_per_step}:
            fail("per_step", instance.expected_per_step, sorted(set(summary.per_step)))
    if instance.expected_min_step is not None:
        observed = summary.per_step[instance.step_index]
        result["distinguished_step"] = observed
        if observed < instance.expected_min_step:
            fail("min_step", instance.expected_min_step, observed)
    return result
