"""Fixtures shared by several test modules."""

import random
from itertools import product

import pytest

from mawlab.core import Alphabet
from mawlab.families import gen_binary_extremal, gen_unary_v, gen_Z
from mawlab.slide import slide_steps


@pytest.fixture(scope="session")
def family_cells():
    """The published extremal family for each (d, sigma_ext), d 1-12 and sigma_ext 2-7.

    sigma_ext is the alphabet size of the extended window.  Two-symbol cells
    take the unary-window family for d <= 2 and the binary family beyond;
    a cell with 2 <= sigma_ext - 1 <= d takes the fresh-symbol window family.
    Every other cell has no family and no entry.
    """
    cells = {}
    for d in range(1, 13):
        for sigma_ext in range(2, 8):
            sigma_w = sigma_ext - 1
            if sigma_ext == 2:
                cells[d, sigma_ext] = gen_unary_v(d) if d <= 2 else gen_binary_extremal(d)
            elif 2 <= sigma_w <= d:
                cells[d, sigma_ext] = gen_Z(d, sigma_w, sigma_ext)
    return cells


@pytest.fixture(scope="session")
def slide_reports():
    """Every report of every step of a set of slides, as {(direction, before, after): (sigma, report)}.

    The slides: every binary text up to length 10 and every ternary text up
    to length 6, each at every window length, and a seeded 1000-symbol a-z
    text at d = 8.  A report is a function of its step, so each step's
    report is held to be equal to the first one made for that step, and
    checking the distinct reports checks the reports of every step.
    """
    def slides():
        for symbols, max_n in (("01", 10), ("abc", 6)):
            for n in range(2, max_n + 1):
                for tup in product(symbols, repeat=n):
                    for d in range(1, n):
                        yield "".join(tup), d, symbols
        az = "abcdefghijklmnopqrstuvwxyz"
        yield "".join(random.Random(8).choices(az, k=1000)), 8, az

    reports = {}
    for text, d, symbols in slides():
        for _, *step in slide_steps(text, d, Alphabet.of(symbols)):
            for rep in step:
                sigma, first = reports.setdefault((rep.direction, rep.before, rep.after), (len(symbols), rep))
                assert rep == first, (text, d, rep.direction, rep.before)
    return reports
