"""Count vectors of k exchangeable seats over m cells, the one listing that
count classes, the dynamic chain's multinomial tables and simplex grids
share, and the one walk over multisets of seats on cells that both exact
best-response engines use."""

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


def multiset_step(last: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One level of the multiset walk over m cells: node i, whose newest
    seat is on cell last[i], gets a child per cell last[i]..m-1, so every
    multiset is met once. Returns each child's parent and cell, in order."""
    kids = m - last
    par = np.repeat(np.arange(len(last)), kids)
    return par, np.arange(len(par)) - np.repeat(np.cumsum(kids) - kids, kids) + last[par]


def multisets(n: int, m: int) -> np.ndarray:
    """Every multiset of n seats on m cells as its cells in ascending order,
    (n_compositions(n, m), n), in lexicographic order, as itertools lists
    combinations with replacement: the walk of multiset_step, one column
    per level. A node's descendants are a block of consecutive rows, one
    per multiset of the seats left on the cells from its newest seat's on."""
    rows, last = np.empty((n_compositions(n, m), n), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for j in range(n):
        last = multiset_step(last, m)[1]
        below = np.array([n_compositions(n - j - 1, m - c) for c in range(m)])
        rows[:, j] = np.repeat(last, below[last])
    return rows


def n_compositions(k: int, m: int) -> int:
    """How many count vectors of k seats over m cells there are: C(k + m - 1, k)."""
    return math.comb(k + m - 1, k)


def arrangements(counts) -> int:
    """Seat orders with the given counts per cell: k! / prod(c!)."""
    counts = [int(c) for c in counts]
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)
