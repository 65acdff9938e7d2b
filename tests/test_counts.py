import itertools
import math

import pytest

from teamfield.core.counts import arrangements, compositions, n_compositions
from tests._oracles import stars_and_bars


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
