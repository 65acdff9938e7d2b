"""Count vectors of k exchangeable seats over m cells, the one listing that
count classes, the dynamic chain's multinomial tables and simplex grids share."""

from __future__ import annotations

import math

import numpy as np


def compositions(k: int, m: int) -> np.ndarray:
    """Every count vector of k seats over m >= 1 cells, (n_compositions(k, m), m),
    lexicographic with the first cell slowest. Cell by cell, each row repeats
    once per count 0..left its next cell can take; the last cell takes the rest."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([k], dtype=np.int64)
    for _ in range(m - 1):
        kids = left + 1
        nxt = np.arange(kids.sum()) - np.repeat(np.cumsum(kids) - kids, kids)
        rows = np.column_stack([np.repeat(rows, kids, axis=0), nxt])
        left = np.repeat(left, kids) - nxt
    return np.column_stack([rows, left])


def n_compositions(k: int, m: int) -> int:
    """How many count vectors of k seats over m cells there are: C(k + m - 1, k)."""
    return math.comb(k + m - 1, k)


def arrangements(counts) -> int:
    """Seat orders with the given counts per cell: k! / prod(c!)."""
    counts = [int(c) for c in counts]
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)
