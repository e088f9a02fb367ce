"""Closed-form bound evaluators and verdict generation for slide steps.

Every bound is an upper bound on an observed count; a verdict is satisfied
when observed <= bound.  ``check_step`` emits a verdict for each bound whose
hypotheses a step meets; an unsatisfied verdict is data for the verification
harness, never an exception.  It reads a report only through
``verdict_inputs``, so reports with equal inputs get equal verdicts.

Identifiers are a stable API and appear verbatim in JSON/CSV reports.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .slide import DeltaReport


class BoundId(str, Enum):
    PRIOR_CROCHEMORE_APPEND = "PriorCrochemoreAppend"
    PRIOR_CROCHEMORE_DELETE = "PriorCrochemoreDelete"
    GENERAL_APPEND = "GeneralAppend"
    OCCURRING_APPEND = "OccurringAppend"
    GENERAL_DELETE = "GeneralDelete"
    BINARY_APPEND = "BinaryAppend"
    BINARY_SMALL_D = "BinarySmallD"
    TYPE1_CAP = "Type1Cap"
    TYPE2_CAP = "Type2Cap"
    TYPE3_CAP = "Type3Cap"
    TYPE3_CAP_BINARY = "Type3CapBinary"
    M12_COLLIDE = "M12Collide"
    M12_BINARY_COLLIDE = "M12BinaryCollide"
    M123_BINARY_CAP = "M123BinaryCap"
    TOTAL_SIGMA_N = "TotalSigmaN"
    TOTAL_D_N = "TotalDN"

    def __str__(self) -> str:
        return self.value


class BoundVerdict(NamedTuple):
    bound_id: BoundId
    bound_value: int
    observed: int

    @property
    def slack(self) -> int:
        return self.bound_value - self.observed

    @property
    def satisfied(self) -> bool:
        return self.observed <= self.bound_value

    def to_payload(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "bound": self.bound_value,
            "observed": self.observed,
            "satisfied": self.satisfied,
            "slack": self.slack,
        }


def bound_prior_append(repeat_len: int, ext_len: int, sigma: int) -> int:
    """Repeating-suffix bound (s - s_alpha)(sigma - 1) + sigma + 1, sigma the full alphabet size.

    ``repeat_len`` is s and ``ext_len`` is s_alpha (see :class:`DeltaReport`).
    """
    return (repeat_len - ext_len) * (sigma - 1) + sigma + 1


def bound_general_append(d: int, sigma_window: int) -> int:
    """sigma_window + d + 1; holds for every append step, tight for >= 3 window symbols."""
    return sigma_window + d + 1


def bound_occurring_append(d: int, sigma_ext: int) -> int:
    """sigma_ext + d; applies when the appended character already occurs in the window."""
    return sigma_ext + d


def bound_binary_append(d: int) -> int:
    """max(3, d); applies when the extended window uses at most two distinct symbols."""
    return max(3, d)


def bound_total(n: int, d: int, sigma: int) -> int:
    """Certified cap on the total sliding change S(T, d).

    A slide step is one append plus one leftmost delete, each changing at most
    min(d, sigma) + d + 1 words, hence the factor 2.  The cap grows like
    O(d * n), so it does not witness the O(min(d, sigma) * n) growth claim.
    """
    return 2 * (n - d) * (min(d, sigma) + d + 1)


def verdict_inputs(report: DeltaReport) -> tuple[str, int, int, int, int, int, int, tuple[int, int, int]]:
    """Everything :func:`check_step` reads of ``report``.

    ``(direction, d, delta, sigma_window, sigma_ext, repeat_len, ext_len,
    (m1, m2, m3))``, with delta = |deleted| + |added| and the type counts.
    Reports with equal inputs get equal verdicts for one global sigma, so a
    caller may key verdicts on this tuple.
    """
    return (
        report.direction,
        report.d,
        report.delta_size,
        report.sigma_window,
        report.sigma_ext,
        report.repeat_len,
        report.ext_len,
        report.type_counts,
    )


def check_step(report: DeltaReport, sigma_global: int) -> tuple[BoundVerdict, ...]:
    """Verdicts for every bound whose hypotheses ``report`` satisfies; reads only :func:`verdict_inputs`.

    Gating: OccurringAppend and M12Collide need the appended character to
    occur in the window (and d >= 3 for the latter); the binary-regime bounds
    need the extended window to use at most two distinct symbols, the sharper
    ones exactly two and d >= 3.
    """
    direction, d, delta, sigma_window, sigma_ext, repeat_len, ext_len, (m1, m2, m3) = verdict_inputs(report)
    # A delete takes the append formulas, every input measured on its mirror append.
    general = bound_general_append(d, sigma_window)
    prior = bound_prior_append(repeat_len, ext_len, sigma_global)
    if direction == "delete":
        return (
            BoundVerdict(BoundId.GENERAL_DELETE, general, delta),
            BoundVerdict(BoundId.PRIOR_CROCHEMORE_DELETE, prior, delta),
        )

    alpha_occurs = sigma_window == sigma_ext  # the appended or deleted symbol occurs in the short window
    verdicts = [
        BoundVerdict(BoundId.GENERAL_APPEND, general, delta),
        BoundVerdict(BoundId.PRIOR_CROCHEMORE_APPEND, prior, delta),
    ]
    if alpha_occurs:
        verdicts.append(BoundVerdict(BoundId.OCCURRING_APPEND, bound_occurring_append(d, sigma_ext), delta))
    verdicts.append(BoundVerdict(BoundId.TYPE1_CAP, 1, m1))
    verdicts.append(BoundVerdict(BoundId.TYPE2_CAP, sigma_window, m2))
    verdicts.append(BoundVerdict(BoundId.TYPE3_CAP, d - 1, m3))
    if alpha_occurs and d >= 3:
        verdicts.append(BoundVerdict(BoundId.M12_COLLIDE, sigma_window, m1 + m2))
    if sigma_ext <= 2:
        if d >= 3:
            verdicts.append(BoundVerdict(BoundId.BINARY_APPEND, bound_binary_append(d), delta))
        else:
            verdicts.append(BoundVerdict(BoundId.BINARY_SMALL_D, 3, delta))
    if sigma_ext == 2 and d >= 3:
        verdicts.append(BoundVerdict(BoundId.TYPE3_CAP_BINARY, d - 2, m3))
        verdicts.append(BoundVerdict(BoundId.M123_BINARY_CAP, d - 1, m1 + m2 + m3))
        if alpha_occurs:
            verdicts.append(BoundVerdict(BoundId.M12_BINARY_COLLIDE, 2, m1 + m2))
    return tuple(verdicts)


def total_verdicts(n: int, d: int, total: int, sigma_max_window: int, sigma_global: int) -> tuple[BoundVerdict, ...]:
    """Totals-level verdicts for a slide of ``n`` symbols with window ``d`` whose steps change ``total`` words."""
    return (
        BoundVerdict(BoundId.TOTAL_D_N, bound_total(n, d, sigma_max_window), total),
        BoundVerdict(BoundId.TOTAL_SIGMA_N, 2 * (n - d) * (sigma_global + d + 1), total),
    )
