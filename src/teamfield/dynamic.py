"""Finite-horizon dynamics with mean-field coupled transitions and costs.

Each team's seats carry a private controlled state, observe it through a
memoryless per-stage channel, and act by stage-indexed behavioral rules.
In the mean-field limit the empirical state and action measures of both
teams are replaced by deterministic flows; transitions and stage costs
read those flows through the teams' statistic maps. A dynamic fixed point
is a pair of stage policies whose induced flows make each policy optimal
against the frozen flow pair.

The forward flow recursion, the representative-seat cost, the smoothed
fixed-point iteration, and the coupled finite-team simulator all live
here. The simulator feeds every seat the realized empirical measures
(deviators included), which is exactly what the finite-team epsilon
estimates need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core.errors import BudgetError, ModelError
from .core.spaces import Kernel, tv_distance, _freeze
from .core.specs import DynamicGameSpec
from .finite_n import (
    MC_DEVIATION_BUDGET,
    MIN_MC_REPS,
    EpsilonReport,
    _draw,
    _mc_epsilon,
    _philox,
    _seed_of,
    sample_mean_ci,
)
from .mf_static import SolverConfig, damped_fixed_point, kernel_grid

DYN_BR_BUDGET = 1_000_000
DYN_EXACT_CANDIDATE_BUDGET = 1_000_000
DYN_EXACT_PATH_BUDGET = 5_000_000


@dataclass(frozen=True)
class StagePolicy:
    """One behavioral rule per stage for a single seat (or a whole
    symmetric team)."""

    kernels: tuple[Kernel, ...]

    def __post_init__(self):
        if not self.kernels:
            raise ModelError("stage policy needs at least one stage")
        object.__setattr__(self, "kernels", tuple(self.kernels))

    @classmethod
    def from_rows(cls, rows_per_stage) -> "StagePolicy":
        return cls(tuple(Kernel(r) for r in rows_per_stage))

    @classmethod
    def uniform(cls, spec: DynamicGameSpec, team: int) -> "StagePolicy":
        t = spec.teams[team]
        row = np.full((t.observations.size, t.actions.size), 1.0 / t.actions.size)
        return cls.from_rows([row] * spec.horizon)

    @property
    def horizon(self) -> int:
        return len(self.kernels)


TeamStagePolicies = Union[StagePolicy, Sequence[StagePolicy]]


@dataclass(frozen=True)
class FlowProfile:
    """Per-team, per-stage, per-world-point joint (state, action) laws."""

    joints: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "joints", tuple(tuple(_freeze(j) for j in team) for team in self.joints)
        )

    @property
    def horizon(self) -> int:
        return len(self.joints[0])

    @property
    def n_world(self) -> int:
        return self.joints[0][0].shape[0]

    def joint(self, team: int, t: int, w: int) -> np.ndarray:
        return self.joints[team][t][w]

    def state_marginal(self, team: int, t: int, w: int) -> np.ndarray:
        return self.joints[team][t][w].sum(axis=1)

    def action_marginal(self, team: int, t: int, w: int) -> np.ndarray:
        return self.joints[team][t][w].sum(axis=0)

    def max_tv(self, other: "FlowProfile") -> float:
        worst = 0.0
        for i in range(2):
            for t in range(self.horizon):
                for w in range(self.n_world):
                    worst = max(
                        worst,
                        tv_distance(self.joints[i][t][w].ravel(), other.joints[i][t][w].ravel()),
                    )
        return worst

    def team_tv(self, other: "FlowProfile", team: int) -> float:
        worst = 0.0
        for t in range(self.horizon):
            for w in range(self.n_world):
                worst = max(
                    worst,
                    tv_distance(self.joints[team][t][w].ravel(), other.joints[team][t][w].ravel()),
                )
        return worst


@dataclass
class DynamicMFEquilibrium:
    policies: tuple[StagePolicy, StagePolicy]
    flows: FlowProfile
    br_residual: tuple[float, float]
    consistency_residual: tuple[float, float]
    iterations: int
    converged: bool
    br_exhaustive: bool


def _check_stage_policy(spec: DynamicGameSpec, team: int, pol: StagePolicy) -> None:
    t = spec.teams[team]
    if pol.horizon < spec.horizon:
        raise ModelError(f"team {team} stage policy covers {pol.horizon} stages, horizon is {spec.horizon}")
    for k in pol.kernels:
        if k.rows.shape != (t.observations.size, t.actions.size):
            raise ModelError(f"team {team} stage policy kernel shape mismatch")


def _action_given_state(spec: DynamicGameSpec, team: int, pol: StagePolicy, t: int) -> np.ndarray:
    """P(u | x) at stage t: observation channel composed with the rule."""
    return spec.teams[team].obs_kernels[t] @ pol.kernels[t].rows


def _flow_stats(spec: DynamicGameSpec, joints_t: Sequence[np.ndarray], w: int) -> tuple:
    sx = []
    su = []
    for i in range(2):
        j = joints_t[i][w]
        sx.append(spec.teams[i].stat_x.apply_raw(j.sum(axis=1)))
        su.append(spec.teams[i].stat_u.apply_raw(j.sum(axis=0)))
    return sx[0], sx[1], su[0], su[1]


def propagate_mf_flow(
    spec: DynamicGameSpec, pols: tuple[StagePolicy, StagePolicy]
) -> FlowProfile:
    """Forward recursion for the mean-field flows of both teams.

    Stage t records each team's joint (state, action) law conditional on
    the world point; the statistics of those joints then drive every
    seat's transition into stage t+1. Both teams advance simultaneously
    since each team's transition may read the other's flow.
    """
    for i in range(2):
        _check_stage_policy(spec, i, pols[i])
    n_w = spec.n_world
    mu = [spec.teams[i].init_kernel.copy() for i in range(2)]  # (w, X)
    out: list[list[np.ndarray]] = [[], []]
    for t in range(spec.horizon):
        joints_t = []
        for i in range(2):
            pu = _action_given_state(spec, i, pols[i], t)
            joints_t.append(mu[i][:, :, None] * pu[None, :, :])
        for i in range(2):
            out[i].append(joints_t[i])
        if t + 1 == spec.horizon:
            break
        nxt = [np.zeros_like(mu[0]), np.zeros_like(mu[1])]
        for w in range(n_w):
            sx1, sx2, su1, su2 = _flow_stats(spec, joints_t, w)
            for i in range(2):
                t_i = spec.teams[i]
                acc = np.zeros(t_i.states.size)
                joint = joints_t[i][w]
                for x in range(t_i.states.size):
                    for u in range(t_i.actions.size):
                        m = joint[x, u]
                        if m > 0.0:
                            acc += m * np.asarray(
                                t_i.transition.rows_at(t, x, u, sx1, sx2, su1, su2), dtype=float
                            )
                nxt[i][w] = acc
        mu = nxt
    return FlowProfile(joints=(tuple(out[0]), tuple(out[1])))


def _flow_tables(spec: DynamicGameSpec, team: int, flows: FlowProfile):
    """Stage cost and transition tables at frozen flows.

    cost[t][w] has shape (X, U); trans[t][w] has shape (X, U, X). The last
    stage carries no transition table.
    """
    t_i = spec.teams[team]
    cost = []
    trans = []
    for t in range(spec.horizon):
        ct = np.empty((spec.n_world, t_i.states.size, t_i.actions.size))
        pt = (
            np.empty((spec.n_world, t_i.states.size, t_i.actions.size, t_i.states.size))
            if t + 1 < spec.horizon
            else None
        )
        for w in range(spec.n_world):
            joints_t = [flows.joints[0][t], flows.joints[1][t]]
            sx1, sx2, su1, su2 = _flow_stats(spec, joints_t, w)
            for x in range(t_i.states.size):
                for u in range(t_i.actions.size):
                    ct[w, x, u] = t_i.stage_cost.value(w, x, u, sx1, sx2, su1, su2)
                    if pt is not None:
                        pt[w, x, u] = t_i.transition.rows_at(t, x, u, sx1, sx2, su1, su2)
        cost.append(ct)
        trans.append(pt)
    return cost, trans


def mf_dynamic_cost(
    spec: DynamicGameSpec, team: int, pol: StagePolicy, flows: FlowProfile
) -> float:
    """Total expected cost of one representative seat at frozen flows.

    The seat's own state law evolves under its own rule, but every
    statistic inside costs and transitions comes from the frozen flows.
    """
    _check_stage_policy(spec, team, pol)
    cost, trans = _flow_tables(spec, team, flows)
    per_world = []
    for w in range(spec.n_world):
        rho = spec.teams[team].init_kernel[w].copy()
        total = 0.0
        for t in range(spec.horizon):
            pu = _action_given_state(spec, team, pol, t)
            joint = rho[:, None] * pu
            total += float((joint * cost[t][w]).sum())
            if t + 1 < spec.horizon:
                rho = np.einsum("xu,xuz->z", joint, trans[t][w])
        per_world.append(float(spec.prior[w]) * total)
    return math.fsum(per_world)


def _det_rows(choice: tuple[int, ...], n_actions: int) -> np.ndarray:
    rows = np.zeros((len(choice), n_actions))
    rows[np.arange(len(choice)), list(choice)] = 1.0
    return rows


def _det_stage_value(spec, team, picks, maps, cost, trans) -> float:
    """Evaluate one deterministic stage profile by backward induction."""
    t_i = spec.teams[team]
    n_x = t_i.states.size
    total = 0.0
    for w in range(spec.n_world):
        V = np.zeros(n_x)
        for t in range(spec.horizon - 1, -1, -1):
            rows = _det_rows(maps[picks[t]], t_i.actions.size)
            pu = spec.teams[team].obs_kernels[t] @ rows
            stage = (pu * cost[t][w]).sum(axis=1)
            if trans[t] is not None:
                cont = np.einsum("xu,xuz,z->x", pu, trans[t][w], V)
            else:
                cont = 0.0
            V = stage + cont
        total += float(spec.prior[w]) * float(spec.teams[team].init_kernel[w] @ V)
    return total


@dataclass
class DynBrResult:
    policy: StagePolicy
    value: float
    exhaustive: bool


def dynamic_best_response_fixed_flow(
    spec: DynamicGameSpec,
    team: int,
    flows: FlowProfile,
    budget: int = DYN_BR_BUDGET,
) -> DynBrResult:
    """Best deterministic stage policy against frozen flows.

    Exhaustive over all per-stage observation-to-action maps when the
    candidate count fits the budget (ties resolve to the lexicographically
    first profile). Otherwise stage-wise coordinate descent from the
    uniform-tie start; its output is only a local optimum and is flagged
    by exhaustive=False.
    """
    t_i = spec.teams[team]
    maps = list(itertools.product(range(t_i.actions.size), repeat=t_i.observations.size))
    cost, trans = _flow_tables(spec, team, flows)
    n_cand = len(maps) ** spec.horizon
    if n_cand <= budget:
        best = None
        best_picks = None
        for picks in itertools.product(range(len(maps)), repeat=spec.horizon):
            v = _det_stage_value(spec, team, picks, maps, cost, trans)
            if best is None or v < best:
                best, best_picks = v, picks
        rows = [_det_rows(maps[m], t_i.actions.size) for m in best_picks]
        return DynBrResult(StagePolicy.from_rows(rows), float(best), True)

    picks = [0] * spec.horizon
    value = _det_stage_value(spec, team, picks, maps, cost, trans)
    improved = True
    while improved:
        improved = False
        for t in range(spec.horizon):
            for m in range(len(maps)):
                if m == picks[t]:
                    continue
                trial = list(picks)
                trial[t] = m
                v = _det_stage_value(spec, team, trial, maps, cost, trans)
                if v < value - 1e-15:
                    picks, value = trial, v
                    improved = True
    rows = [_det_rows(maps[m], t_i.actions.size) for m in picks]
    return DynBrResult(StagePolicy.from_rows(rows), float(value), False)


def _soft_stage_rows(spec, team, rows, flows, tau):
    """One-stage-deviation softmax update for every (stage, observation).

    Scores are posterior-weighted: the seat's state law comes from a
    forward pass under the current rule, continuation values from a
    backward pass, both with flow-frozen tables.
    """
    cost, trans = _flow_tables(spec, team, flows)
    t_i = spec.teams[team]
    n_x, n_u = t_i.states.size, t_i.actions.size
    T = spec.horizon

    rho = np.empty((T, spec.n_world, n_x))
    for w in range(spec.n_world):
        rho[0, w] = t_i.init_kernel[w]
    for t in range(T - 1):
        pu = t_i.obs_kernels[t] @ rows[t]
        for w in range(spec.n_world):
            joint = rho[t, w][:, None] * pu
            rho[t + 1, w] = np.einsum("xu,xuz->z", joint, trans[t][w])

    V = np.zeros((T + 1, spec.n_world, n_x))
    for t in range(T - 1, -1, -1):
        pu = t_i.obs_kernels[t] @ rows[t]
        for w in range(spec.n_world):
            q = cost[t][w] + (
                np.einsum("xuz,z->xu", trans[t][w], V[t + 1, w]) if trans[t] is not None else 0.0
            )
            V[t, w] = (pu * q).sum(axis=1)

    out = []
    for t in range(T):
        obs = t_i.obs_kernels[t]
        score = np.zeros((t_i.observations.size, n_u))
        norm = np.zeros(t_i.observations.size)
        for w in range(spec.n_world):
            q = cost[t][w] + (
                np.einsum("xuz,z->xu", trans[t][w], V[t + 1, w]) if trans[t] is not None else 0.0
            )
            weight = float(spec.prior[w]) * rho[t, w]
            score += obs.T @ (weight[:, None] * q)
            norm += obs.T @ weight
        resp = np.empty_like(score)
        for y in range(score.shape[0]):
            if tau <= 0.0:
                resp[y] = 0.0
                resp[y, int(np.argmin(score[y]))] = 1.0
            elif norm[y] <= 0.0:
                resp[y] = 1.0 / n_u
            else:
                z = -(score[y] / norm[y]) / tau
                z -= z.max()
                e = np.exp(z)
                resp[y] = e / e.sum()
        out.append(resp)
    return out


def solve_dynamic_mf_fixed_point(
    spec: DynamicGameSpec, cfg: Optional[SolverConfig] = None
) -> DynamicMFEquilibrium:
    """Damped smoothed best-response iteration on stage policies.

    Same scheme as the static solver: respond (softly) to the flows of
    the current pair, damp, anneal the temperature after each inner
    convergence. The reported best-response residual is always measured
    against the exhaustive deterministic search when it fits the budget.
    """
    if cfg is None:
        cfg = SolverConfig()
    cfg.check()
    pols = [StagePolicy.uniform(spec, i) for i in range(2)]
    if cfg.init_rows is not None:
        pols = [StagePolicy.from_rows(cfg.init_rows[i]) for i in range(2)]
        for i in range(2):
            _check_stage_policy(spec, i, pols[i])
    rows, flows, iterations, settled = damped_fixed_point(
        [[k.rows for k in p.kernels] for p in pols],
        lambda rs: propagate_mf_flow(spec, (StagePolicy.from_rows(rs[0]), StagePolicy.from_rows(rs[1]))),
        lambda i, rows_i, flows, tau: _soft_stage_rows(spec, i, rows_i, flows, tau),
        cfg,
    )
    policies = (StagePolicy.from_rows(rows[0]), StagePolicy.from_rows(rows[1]))
    induced = propagate_mf_flow(spec, policies)
    consistency = tuple(flows.team_tv(induced, i) for i in range(2))
    br = []
    exhaustive = True
    for i in range(2):
        cur = mf_dynamic_cost(spec, i, policies[i], flows)
        res = dynamic_best_response_fixed_flow(spec, i, flows)
        br.append(cur - res.value)
        exhaustive = exhaustive and res.exhaustive
    converged = settled and max(consistency) < cfg.tol
    return DynamicMFEquilibrium(
        policies=policies,
        flows=flows,
        br_residual=(br[0], br[1]),
        consistency_residual=consistency,
        iterations=iterations,
        converged=converged,
        br_exhaustive=exhaustive,
    )


def _seat_policies(spec, team, pols, n) -> list[StagePolicy]:
    if isinstance(pols, StagePolicy):
        _check_stage_policy(spec, team, pols)
        return [pols] * n
    pols = list(pols)
    if len(pols) != n:
        raise ModelError(f"team {team} needs {n} seat policies, got {len(pols)}")
    for p in pols:
        _check_stage_policy(spec, team, p)
    return pols


@dataclass
class SimulationReport:
    costs: tuple[float, float]
    ci_halfwidth: tuple[float, float]
    flows: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    world_counts: np.ndarray


def _simulate_episode(spec, sizes, seat_pols, seed, episode):
    """One coupled episode; returns per-team costs and empirical joints."""
    g = _philox(seed, episode)
    w0 = int(_draw(np.cumsum(spec.prior), g.random()))
    xs = []
    for i in range(2):
        t = spec.teams[i]
        xs.append(_draw(np.cumsum(t.init_kernel[w0]), g.random(sizes[i])))
    costs = [0.0, 0.0]
    emp_joints = [
        np.zeros((spec.horizon, spec.teams[i].states.size, spec.teams[i].actions.size))
        for i in range(2)
    ]
    for t in range(spec.horizon):
        us = []
        for i in range(2):
            ti = spec.teams[i]
            obs_cum = np.cumsum(ti.obs_kernels[t], axis=1)
            y = (obs_cum[xs[i]] <= g.random(sizes[i])[:, None]).sum(axis=1)
            y = np.minimum(y, ti.observations.size - 1)
            rows = np.stack([p.kernels[t].rows for p in seat_pols[i]])
            cum = np.cumsum(rows, axis=2)
            sel = cum[np.arange(sizes[i]), y]
            u = (sel <= g.random(sizes[i])[:, None]).sum(axis=1)
            us.append(np.minimum(u, ti.actions.size - 1))
        stats = []
        for i in range(2):
            ti = spec.teams[i]
            joint = np.zeros((ti.states.size, ti.actions.size))
            np.add.at(joint, (xs[i], us[i]), 1.0)
            joint /= sizes[i]
            emp_joints[i][t] = joint
            stats.append((ti.stat_x.apply_raw(joint.sum(axis=1)), ti.stat_u.apply_raw(joint.sum(axis=0))))
        sx1, su1 = stats[0]
        sx2, su2 = stats[1]
        for i in range(2):
            ti = spec.teams[i]
            joint = emp_joints[i][t]
            for x, u in zip(*np.nonzero(joint)):
                costs[i] += joint[x, u] * ti.stage_cost.value(w0, int(x), int(u), sx1, sx2, su1, su2)
        if t + 1 == spec.horizon:
            break
        for i in range(2):
            ti = spec.teams[i]
            nxt = np.empty(sizes[i], dtype=np.int64)
            pair_ids = xs[i] * ti.actions.size + us[i]
            draws = g.random(sizes[i])
            for pid in np.unique(pair_ids):
                x, u = divmod(int(pid), ti.actions.size)
                row = np.asarray(ti.transition.rows_at(t, x, u, sx1, sx2, su1, su2), dtype=float)
                mask = pair_ids == pid
                nxt[mask] = _draw(np.cumsum(row), draws[mask])
            xs[i] = nxt
    return w0, costs[0], costs[1], emp_joints


def simulate_finite_n(
    spec: DynamicGameSpec,
    team_sizes: tuple[int, int],
    pols: tuple[TeamStagePolicies, TeamStagePolicies],
    reps: int,
    rng,
) -> SimulationReport:
    """Monte Carlo rollout of the coupled finite-team system.

    Every seat sees the realized empirical measures of both teams at each
    stage, so deviating seats perturb what everyone else is charged for.
    Empirical flows are averaged per (stage, world point); world points
    that never occur keep zero flow and a zero count.
    """
    if reps < MIN_MC_REPS:
        raise ModelError(f"reps must be >= {MIN_MC_REPS}")
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    if min(sizes) < 1:
        raise ModelError("team sizes must be >= 1")
    seat_pols = [_seat_policies(spec, i, pols[i], sizes[i]) for i in range(2)]
    seed = _seed_of(rng)
    results = [_simulate_episode(spec, sizes, seat_pols, seed, e) for e in range(reps)]
    counts = np.zeros(spec.n_world)
    flow_acc = [
        np.zeros((spec.n_world, spec.horizon, spec.teams[i].states.size, spec.teams[i].actions.size))
        for i in range(2)
    ]
    vals = [[], []]
    for w0, c1, c2, emp in results:
        counts[w0] += 1
        for i, c in enumerate((c1, c2)):
            vals[i].append(c)
            flow_acc[i][w0] += emp[i]
    stats = [sample_mean_ci(v) for v in vals]
    flows = []
    for i in range(2):
        per_stage = []
        for t in range(spec.horizon):
            avg = np.zeros((spec.n_world,) + flow_acc[i].shape[2:])
            for w in range(spec.n_world):
                if counts[w] > 0:
                    avg[w] = flow_acc[i][w, t] / counts[w]
            per_stage.append(avg)
        flows.append(tuple(per_stage))
    return SimulationReport(
        costs=(stats[0][0], stats[1][0]),
        ci_halfwidth=(stats[0][1], stats[1][1]),
        flows=(flows[0], flows[1]),
        world_counts=counts,
    )


def _behavioral_action_kernels(spec, team, pol: StagePolicy) -> list[np.ndarray]:
    """Per-stage P(u | x) with the observation integrated out."""
    return [_action_given_state(spec, team, pol, t) for t in range(spec.horizon)]


def _exact_path_count(spec: DynamicGameSpec, sizes: tuple[int, int]) -> int:
    """Work of the exact enumeration: joint (state, action) branches per stage and world point."""
    branch = math.prod((t.states.size * t.actions.size) ** n for t, n in zip(spec.teams, sizes))
    return branch * spec.horizon * spec.n_world


def exact_dynamic_cost(
    spec: DynamicGameSpec,
    team_sizes: tuple[int, int],
    seat_pols: tuple[Sequence[StagePolicy], Sequence[StagePolicy]],
    team: int,
    path_budget: int = DYN_EXACT_PATH_BUDGET,
) -> float:
    """Exact expected team cost of the coupled finite system.

    Enumerates the joint state configuration of every seat on both teams
    and, per stage, every joint action combination; observations are
    integrated out seat by seat. Exponential in the seat counts, so this
    is a certification oracle for small instances only.
    """
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    pols = [_seat_policies(spec, i, list(seat_pols[i]), sizes[i]) for i in range(2)]
    n_tot = sizes[0] + sizes[1]
    est = _exact_path_count(spec, sizes)
    if est > path_budget:
        raise BudgetError("exact dynamic enumeration", est, path_budget)

    pu = [
        [_behavioral_action_kernels(spec, i, p) for p in pols[i]]
        for i in range(2)
    ]
    seat_team = [0] * sizes[0] + [1] * sizes[1]
    per_world = []
    for w in range(spec.n_world):
        dist: dict[tuple[int, ...], float] = {}
        for combo in itertools.product(*[range(spec.teams[seat_team[k]].states.size) for k in range(n_tot)]):
            p = 1.0
            for k, x in enumerate(combo):
                p *= spec.teams[seat_team[k]].init_kernel[w, x]
                if p == 0.0:
                    break
            if p > 0.0:
                dist[combo] = dist.get(combo, 0.0) + p
        total = 0.0
        for t in range(spec.horizon):
            nxt: dict[tuple[int, ...], float] = {}
            for config, p_cfg in dist.items():
                act_branches = []
                for k, x in enumerate(config):
                    i = seat_team[k]
                    seat = k - (0 if i == 0 else sizes[0])
                    row = pu[i][seat][t][x]
                    act_branches.append([(u, row[u]) for u in np.flatnonzero(row)])
                for joint_u in itertools.product(*act_branches):
                    p_act = p_cfg
                    for _, pr in joint_u:
                        p_act *= pr
                    if p_act == 0.0:
                        continue
                    us = [int(b[0]) for b in joint_u]
                    stats = []
                    for i in range(2):
                        lo = 0 if i == 0 else sizes[0]
                        hi = lo + sizes[i]
                        ti = spec.teams[i]
                        ex = np.bincount(config[lo:hi], minlength=ti.states.size) / sizes[i]
                        eu = np.bincount(us[lo:hi], minlength=ti.actions.size) / sizes[i]
                        stats.append((ti.stat_x.apply_raw(ex), ti.stat_u.apply_raw(eu)))
                    sx1, su1 = stats[0]
                    sx2, su2 = stats[1]
                    lo = 0 if team == 0 else sizes[0]
                    hi = lo + sizes[team]
                    ti = spec.teams[team]
                    stage = sum(
                        ti.stage_cost.value(w, config[k], us[k], sx1, sx2, su1, su2)
                        for k in range(lo, hi)
                    ) / sizes[team]
                    total += p_act * stage
                    if t + 1 == spec.horizon:
                        continue
                    nxt_branches = []
                    for k, x in enumerate(config):
                        i = seat_team[k]
                        row = np.asarray(
                            spec.teams[i].transition.rows_at(t, x, us[k], sx1, sx2, su1, su2),
                            dtype=float,
                        )
                        nxt_branches.append([(z, row[z]) for z in np.flatnonzero(row)])
                    for joint_x in itertools.product(*nxt_branches):
                        q = p_act
                        for _, pr in joint_x:
                            q *= pr
                        if q > 0.0:
                            key = tuple(int(b[0]) for b in joint_x)
                            nxt[key] = nxt.get(key, 0.0) + q
            dist = nxt
        per_world.append(float(spec.prior[w]) * total)
    return math.fsum(per_world)


def _det_stage_policies(spec: DynamicGameSpec, team: int) -> list[StagePolicy]:
    """Every deterministic stage policy for one seat, lexicographic."""
    t_i = spec.teams[team]
    maps = list(itertools.product(range(t_i.actions.size), repeat=t_i.observations.size))
    out = []
    for picks in itertools.product(maps, repeat=spec.horizon):
        out.append(StagePolicy.from_rows([_det_rows(m, t_i.actions.size) for m in picks]))
    return out


def dynamic_epsilon_estimate(
    spec: DynamicGameSpec,
    team_sizes: tuple[int, int],
    pols: tuple[StagePolicy, StagePolicy],
    reps: int = 400,
    rng=None,
    mode: str = "auto",
    deviation_resolution: float = 0.5,
    candidate_budget: int = DYN_EXACT_CANDIDATE_BUDGET,
) -> EpsilonReport:
    """Epsilon certificate for symmetric stage policies at finite sizes.

    Exact mode enumerates every joint deterministic seat deviation of the
    deviating team inside the coupled system. Monte Carlo mode is a lower
    bound over symmetric stage-kernel grids plus single-seat deterministic
    deviations, reported with a combined CI halfwidth.
    """
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    base = (pols[0], pols[1])
    for i in range(2):
        _check_stage_policy(spec, i, base[i])
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ModelError(f"unknown mode {mode!r}")
    n_joint = [
        (t.actions.size ** t.observations.size) ** (spec.horizon * n) for t, n in zip(spec.teams, sizes)
    ]
    if mode == "auto":
        fits = max(n_joint) <= candidate_budget and _exact_path_count(spec, sizes) <= DYN_EXACT_PATH_BUDGET
        mode = "exact" if fits else "monte-carlo"

    if mode == "exact":
        for i in range(2):
            if n_joint[i] > candidate_budget:
                raise BudgetError(f"team {i} joint deviation candidates", n_joint[i], candidate_budget)
        eps = []
        for i in range(2):
            cur = exact_dynamic_cost(spec, sizes, ([base[0]] * sizes[0], [base[1]] * sizes[1]), i)
            dets = _det_stage_policies(spec, i)
            best = None
            for combo in itertools.product(dets, repeat=sizes[i]):
                seats = [list(combo), [base[1]] * sizes[1]] if i == 0 else [[base[0]] * sizes[0], list(combo)]
                v = exact_dynamic_cost(spec, sizes, (seats[0], seats[1]), i)
                if best is None or v < best:
                    best = v
            eps.append(cur - best)
        return EpsilonReport(eps=(eps[0], eps[1]), best_deviations=(None, None), method="exact", ci_halfwidth=0.0)

    if rng is None:
        raise ModelError("Monte Carlo epsilon estimates need a seed")
    seed = _seed_of(rng)
    steps = round(1.0 / deviation_resolution)
    cands = []
    for i, t_i in enumerate(spec.teams):
        grid = kernel_grid(
            spec.horizon * t_i.observations.size,
            t_i.actions.size,
            steps,
            MC_DEVIATION_BUDGET,
            "dynamic deviation kernels",
        )
        devs: list[TeamStagePolicies] = [
            StagePolicy.from_rows(rows.reshape(spec.horizon, t_i.observations.size, -1)) for rows in grid
        ]
        if sizes[i] > 1:
            devs += [[det] + [base[i]] * (sizes[i] - 1) for det in _det_stage_policies(spec, i)]
        cands.append(devs)

    def cost(pair, team, r, s):
        rep = simulate_finite_n(spec, sizes, pair, r, s)
        return rep.costs[team], rep.ci_halfwidth[team]

    eps, ci = _mc_epsilon(cost, base, cands, reps, seed)
    return EpsilonReport(eps=eps, best_deviations=(None, None), method="monte-carlo", ci_halfwidth=ci)
