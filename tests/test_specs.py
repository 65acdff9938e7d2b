import copy

import numpy as np
import pytest

from teamfield.core.errors import ModelError
from teamfield.core.specs import (
    DynamicGameSpec,
    StaticGameSpec,
    cost_eval_static,
    validate_dynamic_spec,
    validate_static_spec,
)
from teamfield.io import load_json
from tests._paths import GAMES

STATIC_DOC = {
    "kind": "static",
    "world": 2,
    "prior": [0.4, 0.6],
    "teams": [
        {
            "actions": 2,
            "observations": 2,
            "obs_kernel": [[1.0, 0.0], [0.0, 1.0]],
            "statistic": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
            "cost": {"family": "track-opponent-mean"},
        },
        {
            "actions": 3,
            "observations": 1,
            "obs_kernel": [[1.0], [1.0]],
            "statistic": {"kind": "mean-embedding", "embedding": [0.0, 0.5, 1.0]},
            "cost": {"family": "evade-opponent-mean", "params": {"offset": 5.0}},
        },
    ],
}

DYNAMIC_DOC = {
    "kind": "dynamic",
    "horizon": 2,
    "world": 1,
    "prior": [1.0],
    "teams": [
        {
            "states": 2,
            "actions": 2,
            "observations": 2,
            "init_kernel": [[0.7, 0.3]],
            "obs_model": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "transition": {"family": "state-copies-action"},
            "stat_x": {"kind": "identity"},
            "stat_u": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
            "cost": {"family": "state-indicator", "params": {"state": 1}},
        }
    ]
    * 2,
}


def test_static_round_trip_is_stable():
    # to_dict normalizes (omitted cost params become {}), and the normalized
    # form must be a fixed point of load/dump
    first = StaticGameSpec.from_dict(STATIC_DOC).to_dict()
    assert StaticGameSpec.from_dict(first).to_dict() == first
    assert first["prior"] == STATIC_DOC["prior"]
    assert first["teams"][0]["obs_kernel"] == STATIC_DOC["teams"][0]["obs_kernel"]


def test_static_spec_valid():
    assert validate_static_spec(StaticGameSpec.from_dict(STATIC_DOC)).ok


def test_static_validation_names_the_bad_prior():
    doc = copy.deepcopy(STATIC_DOC)
    doc["prior"] = [0.6, 0.6]
    report = validate_static_spec(StaticGameSpec.from_dict(doc))
    assert not report.ok
    assert any("prior" in e for e in report.entries)


def test_static_validation_names_the_bad_obs_kernel():
    doc = copy.deepcopy(STATIC_DOC)
    doc["teams"][0]["obs_kernel"] = [[0.9, 0.0], [0.0, 1.0]]
    report = validate_static_spec(StaticGameSpec.from_dict(doc))
    assert any("team 0 obs kernel" in e for e in report.entries)


def test_static_validation_catches_embedding_length():
    doc = copy.deepcopy(STATIC_DOC)
    doc["teams"][1]["statistic"] = {"kind": "mean-embedding", "embedding": [0.0, 1.0]}
    report = validate_static_spec(StaticGameSpec.from_dict(doc))
    assert any("team 1 statistic" in e for e in report.entries)


def test_static_validation_probes_negative_costs():
    doc = copy.deepcopy(STATIC_DOC)
    doc["teams"][1]["cost"] = {"family": "evade-opponent-mean", "params": {"offset": 0.0}}
    report = validate_static_spec(StaticGameSpec.from_dict(doc))
    assert any("negative cost" in e for e in report.entries)


def test_cost_eval_static_checks_indices():
    spec = StaticGameSpec.from_dict(STATIC_DOC)
    half = np.array([0.5, 0.5])
    third = np.array([1 / 3, 1 / 3, 1 / 3])
    v = cost_eval_static(spec, 0, 0, 1, half, third)
    assert v == pytest.approx((1 - 0.5) ** 2)
    with pytest.raises(ModelError):
        cost_eval_static(spec, 2, 0, 0, half, third)
    with pytest.raises(ModelError):
        cost_eval_static(spec, 0, 5, 0, half, third)
    with pytest.raises(ModelError):
        cost_eval_static(spec, 0, 0, 9, half, third)


def test_dynamic_round_trip_and_valid():
    spec = DynamicGameSpec.from_dict(DYNAMIC_DOC)
    first = spec.to_dict()
    assert DynamicGameSpec.from_dict(first).to_dict() == first
    assert validate_dynamic_spec(spec).ok


def test_dynamic_validation_obs_model_stage_count():
    doc = copy.deepcopy(DYNAMIC_DOC)
    doc["teams"][0]["obs_model"] = [[[1.0, 0.0], [0.0, 1.0]]]
    report = validate_dynamic_spec(DynamicGameSpec.from_dict(doc))
    assert any("covers 1 stages" in e for e in report.entries)


def test_dynamic_validation_horizon_positive():
    doc = copy.deepcopy(DYNAMIC_DOC)
    doc["horizon"] = 0
    report = validate_dynamic_spec(DynamicGameSpec.from_dict(doc))
    assert any("horizon" in e for e in report.entries)


def test_congestion_cost_requires_identity_state_statistic():
    doc = copy.deepcopy(DYNAMIC_DOC)
    doc["teams"][0]["cost"] = {"family": "congestion"}
    doc["teams"][0]["stat_x"] = {"kind": "mean-embedding", "embedding": [0.0, 1.0]}
    report = validate_dynamic_spec(DynamicGameSpec.from_dict(doc))
    assert any("identity state statistic" in e for e in report.entries)


def test_action_congestion_cost_requires_identity_action_statistic():
    doc = _dynamic_doc()
    for team in doc["teams"]:
        team["cost"] = {"family": "action-congestion"}
        team["stat_u"] = {"kind": "mean-embedding", "embedding": [0.0, 1.0]}
    report = validate_dynamic_spec(DynamicGameSpec.from_dict(doc))
    assert "team 0 stage cost needs the identity action statistic" in report.entries
    assert "team 1 stage cost needs the identity action statistic" in report.entries


def test_mean_field_mixture_requires_identity_state_statistic():
    doc = copy.deepcopy(DYNAMIC_DOC)
    base = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]
    doc["teams"][1]["transition"] = {
        "family": "mean-field-mixture",
        "params": {"base": base, "weight": 0.5},
    }
    doc["teams"][1]["stat_x"] = {"kind": "mean-embedding", "embedding": [0.0, 1.0]}
    report = validate_dynamic_spec(DynamicGameSpec.from_dict(doc))
    assert any("mean-field-mixture" in e for e in report.entries)


def test_unknown_kind_rejected_at_dispatch():
    from teamfield.io import spec_from_dict

    with pytest.raises(ModelError):
        spec_from_dict({**STATIC_DOC, "kind": "mystery"})


def _dynamic_doc():
    # DYNAMIC_DOC's two teams are one dict; give each team its own copy
    doc = copy.deepcopy(DYNAMIC_DOC)
    doc["teams"] = [copy.deepcopy(t) for t in doc["teams"]]
    return doc


def _probe_entries(doc):
    return [e for e in validate_dynamic_spec(DynamicGameSpec.from_dict(doc)).entries if "probe" in e or "row at" in e]


def test_dynamic_validation_probes_stage_costs():
    # offset 0 makes evasion a negative cost wherever the action misses the
    # opponent's mean: first at state 0, action 1 against the vertex probe
    doc = _dynamic_doc()
    doc["teams"][0]["cost"] = {
        "family": "static-action",
        "params": {"family": "evade-opponent-mean", "params": {"offset": 0.0}},
    }
    assert _probe_entries(doc) == ["team 0 stage cost invalid (-1) at a probe point"]


def test_dynamic_validation_reports_the_first_probe_violation():
    doc = _dynamic_doc()
    base = [[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.4], [1.0, 0.0]]]
    doc["teams"][1]["transition"] = {"family": "mean-field-mixture", "params": {"base": base, "weight": 0.5}}
    assert _probe_entries(doc) == ["team 1 transition row at (t=0, x=1, u=0) is not a distribution"]
    # a bad cost at an earlier (state, action) cell comes first
    doc["teams"][1]["cost"] = {
        "family": "static-action",
        "params": {"family": "evade-opponent-mean", "params": {"offset": 0.0}},
    }
    assert _probe_entries(doc) == ["team 1 stage cost invalid (-1) at a probe point"]


def _two_world_crowd(values):
    # crowd avoidance on two world points, team 0 charged by a static cost table
    doc = load_json(GAMES / "crowd_avoidance.json")
    doc.update(world=2, prior=[0.5, 0.5])
    for t in doc["teams"]:
        t["init_kernel"] = t["init_kernel"] * 2
    doc["teams"][0]["cost"] = {
        "family": "static-action",
        "params": {"table": {"grid1": [0.0, 1.0], "grid2": [0.0, 1.0], "values": values}},
    }
    return DynamicGameSpec.from_dict(doc)


def test_dynamic_validation_probes_every_world_point():
    values = np.ones((2, 2, 2, 2))
    values[1] = -5.0
    report = validate_dynamic_spec(_two_world_crowd(values.tolist()))
    assert report.entries == ("team 0 stage cost invalid (-5) at a probe point",)


def test_dynamic_validation_reports_a_failed_evaluation():
    # a one-world table cannot be read at the second world point
    report = validate_dynamic_spec(_two_world_crowd(np.ones((1, 2, 2, 2)).tolist()))
    assert len(report.entries) == 1
    assert report.entries[0].startswith("team 0 cost or transition evaluation failed: ")
