"""Seeded random instance and policy generators for the property tests."""

from __future__ import annotations

import numpy as np

from teamfield import BehavioralPolicy, DetPolicy, TeamPolicy
from teamfield.core.specs import StaticGameSpec

FAMILIES = (
    ("constant", {"value": 0.7}),
    ("track-opponent-mean", {}),
    ("team-coordination", {}),
    ("evade-opponent-mean", {"offset": 2.0}),
    ("mf-mismatch-zero-sum", {"offset": 1.5}),
    ("spread", {"offset": 1.0}),
)


def _rows(rng, n_rows, n_cols):
    raw = rng.random((n_rows, n_cols)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


def _statistic(rng, n_actions):
    if rng.random() < 0.5:
        return {"kind": "identity"}
    return {"kind": "mean-embedding", "embedding": [float(v) for v in rng.random(n_actions)]}


def random_static_spec(rng: np.random.Generator, max_size: int = 3) -> StaticGameSpec:
    n_w = int(rng.integers(1, max_size + 1))
    prior = _rows(rng, 1, n_w)[0]
    teams = []
    for _ in range(2):
        n_y = int(rng.integers(1, max_size + 1))
        n_u = int(rng.integers(2, max_size + 1))
        fam, params = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
        teams.append(
            {
                "actions": n_u,
                "observations": n_y,
                "obs_kernel": _rows(rng, n_w, n_y).tolist(),
                "statistic": _statistic(rng, n_u),
                "cost": {"family": fam, "params": dict(params)},
            }
        )
    return StaticGameSpec.from_dict(
        {"kind": "static", "world": n_w, "prior": prior.tolist(), "teams": teams}
    )


def tracking_spec(rng: np.random.Generator, n_world: int, n_obs: int, n_actions: int) -> StaticGameSpec:
    """Team 0 tracks the opponent's mean action, team 1 coordinates on its own.

    Observation kernels and the prior are random; each team's statistic is
    an increasing mean embedding from 0 to n_actions - 1, random inside.
    """
    teams = []
    for family in ("track-opponent-mean", "team-coordination"):
        inner = np.sort(rng.random(n_actions - 2)) * (n_actions - 1)
        teams.append(
            {
                "actions": n_actions,
                "observations": n_obs,
                "obs_kernel": _rows(rng, n_world, n_obs).tolist(),
                "statistic": {"kind": "mean-embedding", "embedding": [0.0, *inner.tolist(), float(n_actions - 1)]},
                "cost": {"family": family},
            }
        )
    prior = _rows(rng, 1, n_world)[0]
    return StaticGameSpec.from_dict({"kind": "static", "world": n_world, "prior": prior.tolist(), "teams": teams})


def noisy_spec(seed: int) -> StaticGameSpec:
    """A tracking game with 2 world points, 2 observations and 2 actions."""
    return tracking_spec(np.random.default_rng(seed), 2, 2, 2)


def tri_spec(seed: int) -> StaticGameSpec:
    """A tracking game with 1 world point, 1 observation and 3 actions."""
    return tracking_spec(np.random.default_rng(seed), 1, 1, 3)


THREE_SIGNAL_DOC = {
    "kind": "static",
    "world": 1,
    "prior": [1.0],
    "teams": [
        {
            "actions": 2,
            "observations": 3,
            "obs_kernel": [[0.5, 0.3, 0.2]],
            "statistic": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
            "cost": {"family": "team-coordination"},
        }
    ]
    * 2,
}


def three_signal_spec() -> StaticGameSpec:
    """Fixed game with 3 observations and 2 actions, so 8 seat maps.

    Its joint best response is searched over C(N+7, 7) multisets of maps,
    which outgrows the exact budgets well before N=40, so sweeps at that
    size take the Monte Carlo path.
    """
    return StaticGameSpec.from_dict(THREE_SIGNAL_DOC)


def random_behavioral(rng, n_obs, n_actions) -> BehavioralPolicy:
    return BehavioralPolicy.from_rows(_rows(rng, n_obs, n_actions))


def random_det_profile(rng, n_obs, n_actions, n_dms):
    return [
        DetPolicy(tuple(int(a) for a in rng.integers(0, n_actions, size=n_obs)))
        for _ in range(n_dms)
    ]


def random_team_policy(rng, n_obs, n_actions, n_dms, kind=None) -> TeamPolicy:
    """A random team policy of the given kind, or of a random kind."""
    if kind is None:
        kind = ("symmetric-iid", "product", "mixture")[int(rng.integers(0, 3))]
    if kind == "symmetric-iid":
        return TeamPolicy.symmetric_iid(random_behavioral(rng, n_obs, n_actions))
    if kind == "product":
        return TeamPolicy.product([random_behavioral(rng, n_obs, n_actions) for _ in range(n_dms)])
    k = int(rng.integers(1, 4))
    raw = rng.random(k) + 0.1
    weights = raw / raw.sum()
    comps = [(float(w), random_det_profile(rng, n_obs, n_actions, n_dms)) for w in weights]
    return TeamPolicy.mixture(comps)


def random_exchangeable_policy(rng, n_obs, n_actions, n_dms) -> TeamPolicy:
    """Symmetric-iid, or a mixture symmetrized over seat permutations."""
    from teamfield import symmetrize

    if rng.random() < 0.5:
        return TeamPolicy.symmetric_iid(random_behavioral(rng, n_obs, n_actions))
    k = int(rng.integers(1, 3))
    raw = rng.random(k) + 0.1
    weights = raw / raw.sum()
    comps = [(float(w), random_det_profile(rng, n_obs, n_actions, n_dms)) for w in weights]
    return symmetrize(TeamPolicy.mixture(comps))


def random_dynamic_spec(rng, n_states: int, n_actions: int, n_obs: int, n_world: int, transition: str, horizon=2):
    """Coupled two-team chain with random kernels.

    transition is "fixed" (a random dense table per stage) or
    "mean-field-mixture" (a random base tilted towards the own state
    flow). The stage cost reads the statistics whenever its family can:
    congestion, action congestion, or a static cost of the action means.
    """
    from teamfield.core.specs import DynamicGameSpec

    teams = []
    for _ in range(2):
        stat_u = _statistic(rng, n_actions)
        costs = [("congestion", {}), ("state-indicator", {"state": int(rng.integers(0, n_states))})]
        costs.append(("static-action", {"family": "track-opponent-mean"}))
        if stat_u["kind"] == "identity":
            costs.append(("action-congestion", {}))
        fam, params = costs[int(rng.integers(0, len(costs)))]
        def table():
            return _rows(rng, n_states * n_actions, n_states).reshape(n_states, n_actions, n_states).tolist()

        if transition == "fixed":
            tr = {"family": "fixed", "params": {"rows": [table() for _ in range(horizon)]}}
        else:
            tr = {"family": "mean-field-mixture", "params": {"weight": float(rng.uniform(0.2, 0.8)), "base": table()}}
        teams.append(
            {
                "states": n_states,
                "actions": n_actions,
                "observations": n_obs,
                "init_kernel": _rows(rng, n_world, n_states).tolist(),
                "obs_model": _rows(rng, n_states, n_obs).tolist(),
                "transition": tr,
                "cost": {"family": fam, "params": params},
                "stat_x": {"kind": "identity"},
                "stat_u": stat_u,
            }
        )
    prior = _rows(rng, 1, n_world)[0].tolist()
    doc = {"kind": "dynamic", "world": n_world, "prior": prior, "horizon": horizon, "teams": teams}
    return DynamicGameSpec.from_dict(doc)


def bench_dynamic_spec(seed: int, k: int, horizon: int):
    """The generated game of the dynamic benchmark workloads: the game
    perfbench/workloads.py builds from np.random.default_rng([seed, k]).

    3 states, 3 actions, 2 observations, 2 world points; seats pay for
    occupying state 2, and each team's transition leans towards its own
    state flow (mean-field mixture, weight 0.3).
    """
    from teamfield.core.specs import DynamicGameSpec

    g = np.random.default_rng([seed, k])

    def rows(n, m, floor):
        raw = g.random((n, m)) + floor
        return raw / raw.sum(axis=1, keepdims=True)

    teams = []
    for _ in range(2):
        teams.append(
            {
                "states": 3,
                "actions": 3,
                "observations": 2,
                "init_kernel": rows(2, 3, 0.3).tolist(),
                "obs_model": rows(3, 2, 0.2).tolist(),
                "transition": {
                    "family": "mean-field-mixture",
                    "params": {"weight": 0.3, "base": [rows(3, 3, 0.2).tolist() for _ in range(3)]},
                },
                "cost": {"family": "state-indicator", "params": {"state": 2}},
                "stat_x": {"kind": "identity"},
                "stat_u": {"kind": "identity"},
            }
        )
    prior = rows(1, 2, 0.5)[0].tolist()
    return DynamicGameSpec.from_dict({"kind": "dynamic", "world": 2, "prior": prior, "horizon": horizon, "teams": teams})


def _world_table(team: int) -> dict:
    """A static-action stage cost over a table whose values differ by world
    point: the squared gap between the action and half the opponent's
    statistic, shifted by 0.3 at world point 1, which also charges action 1
    an extra 0.2 there."""
    grid = [0.0, 0.5, 1.0]

    def value(w, u, s1, s2):
        return (u - 0.5 * (s2 if team == 0 else s1) - 0.3 * w) ** 2 + 0.2 * w * u

    values = [[[[value(w, u, a, b) for b in grid] for a in grid] for u in range(2)] for w in range(2)]
    return {"table": {"grid1": grid, "grid2": grid, "values": values}}


WORLD_TABLE_DOC = {
    "kind": "dynamic",
    "world": 2,
    "prior": [0.4, 0.6],
    "horizon": 3,
    "teams": [
        {
            "states": 2,
            "actions": 2,
            "observations": 2,
            "init_kernel": [[0.8, 0.2], [0.3, 0.7]],
            "obs_model": [[0.9, 0.1], [0.2, 0.8]],
            "transition": {
                "family": "mean-field-mixture",
                "params": {"weight": 0.4, "base": [[[0.7, 0.3], [0.2, 0.8]], [[0.6, 0.4], [0.1, 0.9]]]},
            },
            "cost": {"family": "static-action", "params": _world_table(0)},
            "stat_x": {"kind": "identity"},
            "stat_u": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
        },
        {
            "states": 2,
            "actions": 2,
            "observations": 2,
            "init_kernel": [[0.5, 0.5], [0.9, 0.1]],
            "obs_model": [[0.75, 0.25], [0.35, 0.65]],
            "transition": {"family": "fixed", "params": {"rows": [[[0.9, 0.1], [0.4, 0.6]], [[0.5, 0.5], [0.2, 0.8]]]}},
            "cost": {"family": "static-action", "params": _world_table(1)},
            "stat_x": {"kind": "identity"},
            "stat_u": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
        },
    ],
}


def world_table_spec():
    """Hand-built W=2 game whose stage costs read the world point: both
    teams pay a static-action table cost with different values per world
    point, one team moving by a mean-field mixture, the other by a fixed
    table."""
    from teamfield.core.specs import DynamicGameSpec

    return DynamicGameSpec.from_dict(WORLD_TABLE_DOC)


def random_stage_policy(rng, spec, team: int, deterministic: bool = False):
    """A stage policy for one seat: random rows, or a random deterministic map per stage."""
    from teamfield.dynamic import StagePolicy

    t = spec.teams[team]
    if deterministic:
        picks = rng.integers(0, t.actions.size, size=(spec.horizon, t.observations.size))
        return StagePolicy.from_rows([np.eye(t.actions.size)[p] for p in picks])
    return StagePolicy.from_rows([_rows(rng, t.observations.size, t.actions.size) for _ in range(spec.horizon)])
