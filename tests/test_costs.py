import numpy as np
import pytest

from teamfield.core.costs import (
    DYNAMIC_COST_FAMILIES,
    STATIC_COST_FAMILIES,
    TRANSITION_FAMILIES,
    make_stage_cost,
    make_static_cost,
    make_transition,
    scalar_view,
)
from teamfield.core.errors import ModelError
from teamfield.core.spaces import ProbVec


def test_scalar_view_reduces_measures_to_index_mean():
    assert scalar_view(0.4) == 0.4
    assert scalar_view(ProbVec(np.array([0.25, 0.75]))) == pytest.approx(0.75)
    assert scalar_view(np.array([0.0, 0.5, 0.5])) == pytest.approx(1.5)


def test_static_family_values():
    track = make_static_cost({"family": "track-opponent-mean"}, 0)
    assert track.value(0, 1, 0.2, 0.6) == pytest.approx((1 - 0.6) ** 2)
    track_b = make_static_cost({"family": "track-opponent-mean"}, 1)
    assert track_b.value(0, 1, 0.2, 0.6) == pytest.approx((1 - 0.2) ** 2)

    coord = make_static_cost({"family": "team-coordination"}, 0)
    assert coord.value(0, 0, 0.5, 0.9) == pytest.approx(0.25)

    evade = make_static_cost({"family": "evade-opponent-mean", "params": {"offset": 2.0}}, 0)
    assert evade.value(0, 1, 0.0, 0.25) == pytest.approx(2.0 - 0.75**2)

    spread = make_static_cost({"family": "spread", "params": {"offset": 1.0}}, 1)
    assert spread.value(0, 1, 0.3, 0.25) == pytest.approx(1.0 - 0.75)

    const = make_static_cost({"family": "constant", "params": {"value": 0.3}}, 0)
    assert const.value(2, 1, 0.1, 0.9) == 0.3


def test_mismatch_family_is_pursuit_and_evasion():
    chase = make_static_cost({"family": "mf-mismatch-zero-sum"}, 0)
    run = make_static_cost({"family": "mf-mismatch-zero-sum", "params": {"offset": 1.0}}, 1)
    # chasing team is charged for missing the evader's mean
    assert chase.value(0, 0, 0.9, 0.4) == pytest.approx(0.16)
    # evading team gains (loses cost) by distance from the chaser's mean
    assert run.value(0, 0, 0.9, 0.4) == pytest.approx(1.0 - 0.81)


def test_static_cost_roundtrip_and_unknown_family():
    d = {"family": "spread", "params": {"offset": 2.0}}
    c = make_static_cost(d, 0)
    assert c.to_dict() == d
    with pytest.raises(ModelError):
        make_static_cost({"family": "no-such-cost"}, 0)


def test_table_cost_interpolates_and_clamps():
    table = {
        "grid1": [0.0, 1.0],
        "grid2": [0.0, 1.0],
        "values": [[[[0.0, 1.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]]]],
    }
    c = make_static_cost({"table": table}, 0)
    assert c.value(0, 0, 0.0, 0.0) == 0.0
    assert c.value(0, 0, 1.0, 1.0) == 3.0
    assert c.value(0, 0, 0.5, 0.5) == pytest.approx(1.5)
    # clamped outside the hull
    assert c.value(0, 0, -5.0, 2.0) == pytest.approx(1.0)
    assert c.value(0, 1, 0.25, 0.75) == 1.0


def test_table_cost_requires_increasing_grids():
    bad = {
        "grid1": [0.0, 0.0],
        "grid2": [0.0, 1.0],
        "values": [[[[0.0, 1.0], [2.0, 3.0]]]],
    }
    with pytest.raises(ModelError):
        make_static_cost({"table": bad}, 0)


def test_stage_cost_families():
    ind = make_stage_cost({"family": "state-indicator", "params": {"state": 1}}, 0)
    assert ind.value(0, 1, 0, None, None, None, None) == 1.0
    assert ind.value(0, 0, 0, None, None, None, None) == 0.0

    cong = make_stage_cost({"family": "congestion"}, 0)
    mu = np.array([0.7, 0.3])
    assert cong.value(0, 0, 1, mu, None, None, None) == pytest.approx(0.7)
    assert cong.needs_identity_state_stat()

    acong = make_stage_cost({"family": "action-congestion"}, 1)
    nu = np.array([0.2, 0.8])
    assert acong.value(0, 0, 1, None, None, None, nu) == pytest.approx(0.8)

    with pytest.raises(ModelError):
        make_stage_cost({"family": "nope"}, 0)


def test_static_action_stage_cost_wraps_static_family():
    wrap = make_stage_cost(
        {"family": "static-action", "params": {"family": "track-opponent-mean"}}, 0
    )
    inner = make_static_cost({"family": "track-opponent-mean"}, 0)
    # the wrapped family ignores the state coordinate entirely
    assert wrap.value(0, 1, 1, None, None, 0.2, 0.6) == inner.value(0, 1, 0.2, 0.6)
    assert wrap.value(0, 0, 1, None, None, 0.2, 0.6) == inner.value(0, 1, 0.2, 0.6)
    again = make_stage_cost(wrap.to_dict(), 0)
    assert again.value(0, 0, 1, None, None, 0.1, 0.4) == inner.value(0, 1, 0.1, 0.4)


def test_fixed_transition_shared_and_per_stage():
    rows = [[[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.3, 0.7]]]
    tr = make_transition({"family": "fixed", "params": {"rows": rows}}, 0, 2, 2)
    assert tr.rows_at(0, 1, 1, None, None, None, None).tolist() == [0.3, 0.7]
    assert tr.rows_at(5, 1, 1, None, None, None, None).tolist() == [0.3, 0.7]

    per_stage = [rows, [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]]
    tr2 = make_transition({"family": "fixed", "params": {"rows": per_stage}}, 0, 2, 2)
    assert tr2.rows_at(0, 0, 0, None, None, None, None).tolist() == [0.5, 0.5]
    assert tr2.rows_at(1, 0, 0, None, None, None, None).tolist() == [1.0, 0.0]
    # stages past the table reuse the last entry
    assert tr2.rows_at(9, 0, 0, None, None, None, None).tolist() == [1.0, 0.0]


def test_state_copies_action_transition():
    tr = make_transition({"family": "state-copies-action"}, 0, 2, 2)
    assert tr.rows_at(0, 0, 1, None, None, None, None).tolist() == [0.0, 1.0]
    with pytest.raises(ModelError):
        make_transition({"family": "state-copies-action"}, 0, 3, 2)


def test_mean_field_mixture_transition_tilts_toward_flow():
    base = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
    tr = make_transition(
        {"family": "mean-field-mixture", "params": {"base": base, "weight": 0.5}}, 0, 2, 2
    )
    mu = np.array([0.2, 0.8])
    row = tr.rows_at(0, 0, 0, mu, None, None, None)
    assert row.tolist() == pytest.approx([0.6, 0.4])
    with pytest.raises(ModelError):
        make_transition(
            {"family": "mean-field-mixture", "params": {"base": base, "weight": 1.5}}, 0, 2, 2
        )


def test_registries_expose_expected_families():
    assert set(STATIC_COST_FAMILIES) >= {
        "constant",
        "track-opponent-mean",
        "team-coordination",
        "evade-opponent-mean",
        "mf-mismatch-zero-sum",
        "spread",
    }
    assert set(DYNAMIC_COST_FAMILIES) >= {
        "constant",
        "state-indicator",
        "congestion",
        "action-congestion",
        "static-action",
    }
    assert set(TRANSITION_FAMILIES) == {"fixed", "state-copies-action", "mean-field-mixture"}


TABLE_COST = {"grid1": [0.0, 0.4, 1.0], "grid2": [0.0, 1.0], "values": np.arange(24.0).reshape(2, 2, 3, 2).tolist()}


@pytest.mark.parametrize("keys", [(5,), (3, 4)])
@pytest.mark.parametrize("kind", ["identity", "mean-embedding"])
def test_tables_match_scalar_reads_bit_for_bit(keys, kind):
    from teamfield.core.spaces import StatisticMap

    rng = np.random.default_rng(len(keys) + 7 * (kind == "identity"))
    n_x, n_u = 3, 2

    def laws(n):
        w = rng.random(keys + (n,))
        return w / w.sum(axis=-1, keepdims=True)

    stat_x = StatisticMap("identity")
    stat_u = StatisticMap(kind, np.sort(rng.random(n_u)) if kind == "mean-embedding" else None)
    mu, nu = [laws(n_x), laws(n_x)], [laws(n_u), laws(n_u)]
    batch = [stat_x.apply_raw(m) for m in mu] + [stat_u.apply_raw(n) for n in nu]

    def lone(idx):
        return [stat_x.apply_raw(m[idx]) for m in mu] + [stat_u.apply_raw(n[idx]) for n in nu]

    docs = [
        {"family": "constant", "params": {"value": 0.3}},
        {"family": "state-indicator", "params": {"state": 1}},
        {"family": "congestion"},
        {"family": "static-action", "params": {"family": "track-opponent-mean"}},
        {"family": "static-action", "params": {"family": "spread", "params": {"offset": 2.0}}},
        {"family": "static-action", "params": {"table": TABLE_COST}},
    ]
    if kind == "identity":
        docs.append({"family": "action-congestion"})
    base = rng.random((n_x, n_u, n_x))
    transitions = [
        make_transition({"family": "fixed", "params": {"rows": rng.random((2, n_x, n_u, n_x)).tolist()}}, 1, n_x, n_u),
        make_transition({"family": "mean-field-mixture", "params": {"base": base.tolist(), "weight": 0.3}}, 1, n_x, n_u),
        make_transition({"family": "mean-field-mixture", "params": {"base": base.tolist(), "weight": 0.7}}, 0, n_x, n_u),
    ]
    if kind == "identity":
        transitions.append(make_transition({"family": "state-copies-action"}, 0, n_u, n_u))
    for team in range(2):
        for doc in docs:
            cost = make_stage_cost(doc, team)
            table = cost.table(1, keys + (n_x, n_u), *batch)
            assert table.shape == keys + (n_x, n_u)
            for idx in np.ndindex(keys):
                stats = lone(idx)
                for x, u in np.ndindex(n_x, n_u):
                    assert table[idx + (x, u)] == cost.value(1, x, u, *stats), (doc, team, idx, x, u)
                    if doc["family"] == "static-action":
                        # the static family's own scalar path
                        inner = make_static_cost(doc["params"], team)
                        assert table[idx + (x, u)] == inner.value(1, u, stats[2], stats[3])
    for tr in transitions:
        for t in range(3):
            table = tr.table(t, *batch)
            assert table.shape == ((tr.n_states, tr.n_actions, tr.n_states) if tr.statistic_free else keys + (n_x, n_u, n_x))
            table = np.broadcast_to(table, keys + table.shape[-3:])
            for idx in np.ndindex(keys):
                stats = lone(idx)
                for x, u in np.ndindex(tr.n_states, tr.n_actions):
                    np.testing.assert_array_equal(table[idx + (x, u)], tr.rows_at(t, x, u, *stats))
