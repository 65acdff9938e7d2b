"""Game descriptions and their validators.

A static game couples two teams through the statistics of their empirical
action measures. A dynamic game adds per-team controlled state dynamics,
memoryless per-stage observations of the own state, and stage costs that
see the statistics of both teams' state and action measures.

Validators return a report listing every violation found instead of
raising on the first one, so a broken file can be diagnosed in one pass.
Construction from JSON therefore never enforces numeric invariants; the
operations assume a spec that validated cleanly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .costs import make_stage_cost, make_static_cost, make_transition, scalar_view
from .errors import ModelError
from .spaces import FiniteSpace, ProbVec, StatisticMap, _freeze

KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"- {e}" for e in self.entries)


def _space_from(d) -> FiniteSpace:
    if isinstance(d, int):
        return FiniteSpace(d)
    return FiniteSpace(int(d["size"]), tuple(d["labels"]) if d.get("labels") else None)


def _space_to(s: FiniteSpace):
    if s.labels is None:
        return s.size
    return {"size": s.size, "labels": list(s.labels)}


@dataclass(frozen=True)
class StaticTeamSpec:
    actions: FiniteSpace
    observations: FiniteSpace
    obs_kernel: np.ndarray  # world -> observation, row per world point
    statistic: StatisticMap
    cost: object

    def __post_init__(self):
        object.__setattr__(self, "obs_kernel", _freeze(self.obs_kernel))


@dataclass(frozen=True)
class StaticGameSpec:
    world: FiniteSpace
    prior: np.ndarray
    teams: tuple[StaticTeamSpec, StaticTeamSpec]

    def __post_init__(self):
        object.__setattr__(self, "prior", _freeze(self.prior))
        object.__setattr__(self, "teams", tuple(self.teams))
        if len(self.teams) != 2:
            raise ModelError("exactly two teams are supported")

    @property
    def n_world(self) -> int:
        return self.world.size

    @classmethod
    def from_dict(cls, d: dict) -> "StaticGameSpec":
        teams = []
        raw_teams = d["teams"]
        if len(raw_teams) != 2:
            raise ModelError("exactly two teams are supported")
        for i, td in enumerate(raw_teams):
            stat = StatisticMap(
                td["statistic"]["kind"],
                np.asarray(td["statistic"]["embedding"], dtype=float)
                if "embedding" in td["statistic"]
                else None,
            )
            teams.append(
                StaticTeamSpec(
                    actions=_space_from(td["actions"]),
                    observations=_space_from(td["observations"]),
                    obs_kernel=np.asarray(td["obs_kernel"], dtype=np.float64),
                    statistic=stat,
                    cost=make_static_cost(td["cost"], i),
                )
            )
        return cls(
            world=_space_from(d["world"]),
            prior=np.asarray(d["prior"], dtype=np.float64),
            teams=(teams[0], teams[1]),
        )

    def to_dict(self) -> dict:
        return {
            "kind": "static",
            "world": _space_to(self.world),
            "prior": [float(v) for v in self.prior],
            "teams": [
                {
                    "actions": _space_to(t.actions),
                    "observations": _space_to(t.observations),
                    "obs_kernel": self_rows(t.obs_kernel),
                    "statistic": t.statistic.to_dict(),
                    "cost": t.cost.to_dict(),
                }
                for t in self.teams
            ],
        }


def self_rows(a: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(a)]


def _check_rows(entries: list[str], rows: np.ndarray, shape, what: str) -> None:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != shape:
        entries.append(f"{what} has shape {rows.shape}, expected {shape}")
        return
    if not np.all(np.isfinite(rows)):
        entries.append(f"{what} has a nonfinite entry")
        return
    if np.any(rows < 0.0):
        entries.append(f"{what} has a negative entry")
    gaps = np.abs(rows.sum(axis=-1) - 1.0)
    if gaps.size and float(gaps.max()) > KERNEL_TOL:
        entries.append(f"{what} rows are off stochastic by {float(gaps.max()):g}")


def _statistic_probes(stat: StatisticMap, size: int, entries: list[str], what: str) -> list:
    """Statistic values at simplex vertices, the uniform point, and midpoints."""
    if stat.kind == "mean-embedding" and (stat.embedding is None or stat.embedding.shape != (size,)):
        entries.append(f"{what} embedding length does not match the action space")
        return [0.0]
    measures = [np.eye(size)[i] for i in range(size)]
    measures.append(np.full(size, 1.0 / size))
    for i, j in itertools.combinations(range(size), 2):
        m = np.zeros(size)
        m[i] = m[j] = 0.5
        measures.append(m)
    return [stat.apply_raw(m) for m in measures]


def _probe_static_costs(spec: StaticGameSpec, entries: list[str]) -> None:
    probes = []
    for j, t in enumerate(spec.teams):
        probes.append(_statistic_probes(t.statistic, t.actions.size, entries, f"team {j} statistic"))
    for i, t in enumerate(spec.teams):
        cost = t.cost
        if getattr(cost, "name", "") == "table":
            if not (spec.teams[0].statistic.scalar and spec.teams[1].statistic.scalar):
                entries.append(f"team {i} table cost requires mean-embedding statistics for both teams")
            if not np.all(np.isfinite(cost.values)):
                entries.append(f"team {i} cost table has a nonfinite entry")
                continue
            if np.any(cost.values < 0.0):
                entries.append(f"team {i} cost table has a negative cost")
            if cost.values.shape[:2] != (spec.n_world, t.actions.size):
                entries.append(f"team {i} cost table leading shape mismatch")
            continue
        s1, s2 = (np.array([scalar_view(s) for s in p]) for p in probes)
        worst = 0.0
        for w0 in range(spec.n_world):
            try:
                v = cost.table(w0, s1[:, None], s2[None, :], t.actions.size)
            except Exception as e:  # malformed family params
                entries.append(f"team {i} cost evaluation failed: {e}")
                return
            if not np.all(np.isfinite(v)):
                entries.append(f"team {i} cost is nonfinite at a probe point")
                return
            worst = min(worst, float(v.min()))
        if worst < 0.0:
            entries.append(f"team {i} has a negative cost ({worst:g}) at a probe point")


def validate_static_spec(spec: StaticGameSpec) -> ValidationReport:
    entries: list[str] = []
    prior = ProbVec.unchecked(spec.prior)
    if spec.prior.shape != (spec.n_world,):
        entries.append(f"prior has length {spec.prior.shape}, expected {spec.n_world}")
    else:
        entries.extend("prior: " + v for v in prior.violations())
    for i, t in enumerate(spec.teams):
        _check_rows(entries, t.obs_kernel, (spec.n_world, t.observations.size), f"team {i} obs kernel")
    _probe_static_costs(spec, entries)
    return ValidationReport(tuple(entries))


def cost_eval_static(spec: StaticGameSpec, team: int, omega0: int, u: int, m1, m2) -> float:
    """One decision maker's cost at given empirical action measures."""
    if not 0 <= team < 2:
        raise ModelError(f"team index {team} out of range")
    if not 0 <= omega0 < spec.n_world:
        raise ModelError(f"world index {omega0} out of range")
    if not 0 <= u < spec.teams[team].actions.size:
        raise ModelError(f"action index {u} out of range")
    s1 = spec.teams[0].statistic.apply(m1)
    s2 = spec.teams[1].statistic.apply(m2)
    return float(spec.teams[team].cost.value(omega0, u, s1, s2))


@dataclass(frozen=True)
class DynamicTeamSpec:
    states: FiniteSpace
    actions: FiniteSpace
    observations: FiniteSpace
    init_kernel: np.ndarray  # world -> initial state
    transition: object
    obs_kernels: tuple[np.ndarray, ...]  # one per stage, state -> observation
    stage_cost: object
    stat_x: StatisticMap
    stat_u: StatisticMap

    def __post_init__(self):
        object.__setattr__(self, "init_kernel", _freeze(self.init_kernel))
        object.__setattr__(self, "obs_kernels", tuple(_freeze(k) for k in self.obs_kernels))


@dataclass(frozen=True)
class DynamicGameSpec:
    world: FiniteSpace
    prior: np.ndarray
    horizon: int
    teams: tuple[DynamicTeamSpec, DynamicTeamSpec]

    def __post_init__(self):
        object.__setattr__(self, "prior", _freeze(self.prior))
        object.__setattr__(self, "teams", tuple(self.teams))
        if len(self.teams) != 2:
            raise ModelError("exactly two teams are supported")

    @property
    def n_world(self) -> int:
        return self.world.size

    @classmethod
    def from_dict(cls, d: dict) -> "DynamicGameSpec":
        horizon = int(d["horizon"])
        teams = []
        raw_teams = d["teams"]
        if len(raw_teams) != 2:
            raise ModelError("exactly two teams are supported")
        for i, td in enumerate(raw_teams):
            states = _space_from(td["states"])
            actions = _space_from(td["actions"])
            obs = np.asarray(td["obs_model"], dtype=np.float64)
            if obs.ndim == 2:
                obs_kernels = tuple(obs for _ in range(max(horizon, 1)))
            elif obs.ndim == 3:
                obs_kernels = tuple(obs[t] for t in range(obs.shape[0]))
            else:
                raise ModelError("obs_model must be a matrix or a list of per-stage matrices")

            def stat_of(key):
                sd = td[key]
                emb = np.asarray(sd["embedding"], dtype=float) if "embedding" in sd else None
                return StatisticMap(sd["kind"], emb)

            teams.append(
                DynamicTeamSpec(
                    states=states,
                    actions=actions,
                    observations=_space_from(td["observations"]),
                    init_kernel=np.asarray(td["init_kernel"], dtype=np.float64),
                    transition=make_transition(td["transition"], i, states.size, actions.size),
                    obs_kernels=obs_kernels,
                    stage_cost=make_stage_cost(td["cost"], i),
                    stat_x=stat_of("stat_x"),
                    stat_u=stat_of("stat_u"),
                )
            )
        return cls(
            world=_space_from(d["world"]),
            prior=np.asarray(d["prior"], dtype=np.float64),
            horizon=horizon,
            teams=(teams[0], teams[1]),
        )

    def to_dict(self) -> dict:
        out_teams = []
        for t in self.teams:
            first = t.obs_kernels[0]
            shared = all(np.array_equal(first, k) for k in t.obs_kernels)
            obs = self_rows(first) if shared else [self_rows(k) for k in t.obs_kernels]
            out_teams.append(
                {
                    "states": _space_to(t.states),
                    "actions": _space_to(t.actions),
                    "observations": _space_to(t.observations),
                    "init_kernel": self_rows(t.init_kernel),
                    "transition": t.transition.to_dict(),
                    "obs_model": obs,
                    "cost": t.stage_cost.to_dict(),
                    "stat_x": t.stat_x.to_dict(),
                    "stat_u": t.stat_u.to_dict(),
                }
            )
        return {
            "kind": "dynamic",
            "world": _space_to(self.world),
            "prior": [float(v) for v in self.prior],
            "horizon": self.horizon,
            "teams": out_teams,
        }


def validate_dynamic_spec(spec: DynamicGameSpec) -> ValidationReport:
    entries: list[str] = []
    if spec.horizon < 1:
        entries.append(f"horizon must be >= 1, got {spec.horizon}")
    if spec.prior.shape != (spec.n_world,):
        entries.append(f"prior has length {spec.prior.shape}, expected {spec.n_world}")
    else:
        entries.extend("prior: " + v for v in ProbVec.unchecked(spec.prior).violations())

    x_probes, u_probes = [], []
    for i, t in enumerate(spec.teams):
        _check_rows(entries, t.init_kernel, (spec.n_world, t.states.size), f"team {i} init kernel")
        if len(t.obs_kernels) < spec.horizon:
            entries.append(f"team {i} obs model covers {len(t.obs_kernels)} stages, horizon is {spec.horizon}")
        for s, k in enumerate(t.obs_kernels):
            _check_rows(entries, k, (t.states.size, t.observations.size), f"team {i} stage {s} obs kernel")
        x_probes.append(_statistic_probes(t.stat_x, t.states.size, entries, f"team {i} state statistic"))
        u_probes.append(_statistic_probes(t.stat_u, t.actions.size, entries, f"team {i} action statistic"))
        if t.stage_cost.needs_identity_state_stat() and t.stat_x.kind != "identity":
            entries.append(f"team {i} stage cost needs the identity state statistic")
        if t.stage_cost.needs_identity_action_stat() and t.stat_u.kind != "identity":
            entries.append(f"team {i} stage cost needs the identity action statistic")
        if getattr(t.transition, "name", "") == "mean-field-mixture" and t.stat_x.kind != "identity":
            entries.append(f"team {i} mean-field-mixture transition needs the identity state statistic")

    if entries:
        return ValidationReport(tuple(entries))

    for i, t in enumerate(spec.teams):
        raw = t.transition.raw_rows()
        _check_rows(entries, raw, raw.shape, f"team {i} transition table")
        probe_sets = [
            x_probes[0][:2] + x_probes[0][-1:],
            x_probes[1][:2] + x_probes[1][-1:],
            u_probes[0][:1],
            u_probes[1][:1],
        ]
        try:
            msg = _probe_dynamic_team(spec, i, t, probe_sets)
        except Exception as e:  # malformed family params or tables
            msg = f"team {i} cost or transition evaluation failed: {e}"
        if msg:
            entries.append(msg)
    return ValidationReport(tuple(entries))


def _probe_dynamic_team(spec, i, t, probe_sets) -> str:
    """First violation found while probing one team's transition and cost,
    in (stage, state, action, probe) order, the cost at every world point.
    Each stage reads one table over every combination of probe statistics."""
    combos = list(itertools.product(*probe_sets))
    stats = [np.stack(s) for s in zip(*combos)]
    n_x, n_u = t.states.size, t.actions.size
    for stage in range(spec.horizon):
        rows = np.asarray(t.transition.table(stage, *stats), float)
        if rows.shape[-3:] != (n_x, n_u, n_x):
            return f"team {i} transition row has the wrong length"
        rows = np.broadcast_to(rows, (len(combos), n_x, n_u, n_x))
        costs = np.asarray([t.stage_cost.table(w, (len(combos), n_x, n_u), *stats) for w in range(spec.n_world)], float)
        bad_row = np.any(rows < -1e-12, axis=-1) | (np.abs(rows.sum(axis=-1) - 1.0) > KERNEL_TOL)
        bad_cost = ~np.isfinite(costs) | (costs < 0.0)
        found = np.argwhere(np.moveaxis(bad_row | bad_cost.any(axis=0), 0, -1))
        if len(found):
            x, u, k = found[0]
            if bad_row[k, x, u]:
                return f"team {i} transition row at (t={stage}, x={x}, u={u}) is not a distribution"
            w = np.argmax(bad_cost[:, k, x, u])
            return f"team {i} stage cost invalid ({costs[w, k, x, u]:g}) at a probe point"
    return ""
