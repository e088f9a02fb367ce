"""Fixtures shared by several test modules."""

import pytest

from mawlab.families import gen_binary_extremal, gen_unary_v, gen_Z


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
