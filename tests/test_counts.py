import itertools
import math

import pytest

from teamfield.core.counts import arrangements, compositions, multisets, n_compositions
from teamfield.dynamic import _multisets_by_sizes
from tests._oracles import multisets_by_sizes, stars_and_bars


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("k", range(0, 7))
def test_compositions_match_stars_and_bars(k, m):
    rows = compositions(k, m)
    assert rows.shape == (n_compositions(k, m), m)
    assert rows.tolist() == stars_and_bars(k, m)


def test_arrangements_count_distinct_seat_orders():
    for counts in ([0], [3], [2, 1], [1, 1, 1], [2, 0, 2], [3, 1, 2]):
        word = [c for c, n in enumerate(counts) for _ in range(n)]
        assert arrangements(counts) == len(set(itertools.permutations(word)))
    assert arrangements([6, 6]) == math.comb(12, 6)


@pytest.mark.parametrize("m, n", [(1, 3), (4, 9), (16, 5), (81, 3), (3, 0), (5, 1)])
def test_multisets_list_combinations_with_replacement_in_order(m, n):
    rows = multisets(n, m)
    assert rows.shape == (n_compositions(n, m), n)
    assert rows.tolist() == [list(c) for c in itertools.combinations_with_replacement(range(m), n)]


@pytest.mark.parametrize("m, n", [(1, 3), (4, 9), (16, 5), (81, 3)])
def test_multisets_by_sizes_match_the_itertools_grouping(m, n):
    got, want = dict(_multisets_by_sizes(m, n)), multisets_by_sizes(m, n)
    assert list(got) == list(want)  # the same size groups, in the same order
    for seats, rows in want.items():
        assert got[seats].dtype == rows.dtype
        assert got[seats].tolist() == rows.tolist()
