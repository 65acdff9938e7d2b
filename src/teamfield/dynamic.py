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
estimates need. It runs chunks of episodes as arrays, episodes on the
leading axis, each episode on its own (seed, episode) stream (one Philox
generator per call, re-keyed per episode, as the static Monte Carlo
path does), so the chunk size never changes a result.

One backward induction, _policy_values, scores stage policies at frozen
flows: the representative-seat cost, the exhaustive best response, the
coordinate-descent fallback and the soft update all call it, batched
over candidate rules per stage and over world points. The soft update
reads the seat's state law from the flows themselves.

Every path reads stage costs and transitions as tables over (state,
action), filled by one helper, _stage_tables, for a batch of both
teams' state and action laws: the flows at a stage and world point,
the empirical measures of a simulated stage, or the distinct count
totals of a chain stage.

The exact finite-team engine is a forward Markov chain on count
configurations: seats with equal stage kernels form a class, and a
chain row holds the seat count per (class, state). Costs and
transitions read only the teams' count totals, so each stage fills its
tables once per distinct totals, and seats of one class move
independently given them. Exact epsilon scores many candidate multisets
in one chain, and candidates whose classes play the same rules up to
stage t share their rows through stage t: rows belong to stage
prefixes, which fan out as the stages go, in an order that keeps every
candidate's sums those of a chain run for it alone.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core.counts import arrangements, compositions, n_compositions
from .core.errors import BudgetError, ModelError
from .core.spaces import Kernel, tv_distance, _freeze
from .core.specs import DynamicGameSpec
from .finite_n import (
    MC_DEVIATION_BUDGET,
    MIN_MC_REPS,
    EpsilonReport,
    SIM_CHUNK_UNIFORMS,
    _episode_streams,
    _mc_epsilon,
    _seed_of,
    sample_mean_ci,
)
from .mf_static import SolverConfig, damped_fixed_point, kernel_grid, softmin_rows
from .policies import _inverse_cdf

DYN_BR_BUDGET = 1_000_000
DYN_EXACT_CANDIDATE_BUDGET = 1_000_000
DYN_EXACT_PATH_BUDGET = 2_500_000
CHAIN_CHUNK_ROWS = 1 << 16


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
        return max(self.team_tv(other, i) for i in range(2))

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


def _stage_tables(spec: DynamicGameSpec, w: int, t: int, laws):
    """Both teams' stage-cost and transition tables at stage t and world
    point w, given laws = ((mu_0, nu_0), (mu_1, nu_1)), each team's state
    and action laws with the same leading key axes.

    Returns the cost tables (keys..., X, U) and the transition tables
    (keys..., X, U, X), or (X, U, X) for a statistic-free transition; the
    transitions are None at the last stage.
    """
    (sx1, su1), (sx2, su2) = ((ti.stat_x.apply_raw(mu), ti.stat_u.apply_raw(nu)) for ti, (mu, nu) in zip(spec.teams, laws))
    keys = laws[0][0].shape[:-1]
    costs = [ti.stage_cost.table(w, keys + (ti.states.size, ti.actions.size), sx1, sx2, su1, su2) for ti in spec.teams]
    if t + 1 == spec.horizon:
        return costs, None
    return costs, [ti.transition.table(t, sx1, sx2, su1, su2) for ti in spec.teams]


def _marginals(joint: np.ndarray):
    """State and action laws of joint (state, action) laws (..., X, U)."""
    return joint.sum(axis=-1), joint.sum(axis=-2)


def _propagate(spec: DynamicGameSpec, pols: tuple[StagePolicy, StagePolicy]):
    """Mean-field flows of both teams, with the stage tables they induce:
    tables[t][w] is _stage_tables at stage t and world point w, the last
    stage's costs included. See propagate_mf_flow."""
    for i in range(2):
        _check_stage_policy(spec, i, pols[i])
    mu = [spec.teams[i].init_kernel.copy() for i in range(2)]  # (w, X)
    out: list[list[np.ndarray]] = [[], []]
    tables = []
    for t in range(spec.horizon):
        joints_t = [mu[i][:, :, None] * _action_given_state(spec, i, pols[i], t)[None, :, :] for i in range(2)]
        for i in range(2):
            out[i].append(joints_t[i])
        tables.append([_stage_tables(spec, w, t, [_marginals(j[w]) for j in joints_t]) for w in range(spec.n_world)])
        if t + 1 == spec.horizon:
            break
        nxt = [np.zeros_like(mu[0]), np.zeros_like(mu[1])]
        for w, (_, trans) in enumerate(tables[t]):
            for i in range(2):
                # a running sum over the (state, action) cells in order fixes the rounding
                flow = joints_t[i][w][:, :, None] * trans[i]
                nxt[i][w] = functools.reduce(np.add, flow.reshape(-1, flow.shape[-1]))
        mu = nxt
    return FlowProfile(joints=(tuple(out[0]), tuple(out[1]))), tables


def propagate_mf_flow(
    spec: DynamicGameSpec, pols: tuple[StagePolicy, StagePolicy]
) -> FlowProfile:
    """Forward recursion for the mean-field flows of both teams.

    Stage t records each team's joint (state, action) law conditional on
    the world point; the statistics of those joints then drive every
    seat's transition into stage t+1. Both teams advance simultaneously
    since each team's transition may read the other's flow.
    """
    return _propagate(spec, pols)[0]


def _team_tables(team: int, tables):
    """One team's stage cost and transition tables, stacked over world
    points from the per-(stage, world point) tables of _propagate.

    cost[t][w] has shape (X, U); trans[t][w] has shape (X, U, X). The last
    stage carries no transition table.
    """
    cost = [np.stack([c[team] for c, _ in stage]) for stage in tables]
    trans = [None if stage[0][1] is None else np.stack([p[team] for _, p in stage]) for stage in tables]
    return cost, trans


def _flow_tables(spec: DynamicGameSpec, team: int, flows: FlowProfile):
    """Stage cost and transition tables at frozen flows (see _team_tables)."""
    tables = [
        [_stage_tables(spec, w, t, [_marginals(j[t][w]) for j in flows.joints]) for w in range(spec.n_world)]
        for t in range(spec.horizon)
    ]
    return _team_tables(team, tables)


def _stage_map_rows(spec: DynamicGameSpec, team: int) -> np.ndarray:
    """Rule rows of every observation-to-action map, lexicographic: (U^Y, Y, U)."""
    ti = spec.teams[team]
    maps = list(itertools.product(range(ti.actions.size), repeat=ti.observations.size))
    return np.eye(ti.actions.size)[maps]


def _stage_map_laws(spec: DynamicGameSpec, team: int, t: int) -> np.ndarray:
    """P(u | x) at stage t of every observation-to-action map, lexicographic: (U^Y, X, U)."""
    return spec.teams[team].obs_kernels[t] @ _stage_map_rows(spec, team)


def _policy_values(spec, team, laws, cost, trans, q=None) -> np.ndarray:
    """Value at frozen-flow tables of every stage policy built from the
    candidate rules laws[t], shaped (K_t, X, U) as P(u | x), in
    itertools.product order of the stages.

    Backward induction over tails: the values of all tails from stage t
    on are one batch (tails, W, X), and each stage-t rule extends every
    tail in one numpy pass. When q is a list, q[t] receives the stage-t
    action values (tails, W, X, U) of the tails from t+1 on.
    """
    t_i = spec.teams[team]
    V = np.zeros((1, spec.n_world, t_i.states.size))
    for t in range(spec.horizon - 1, -1, -1):
        q_t = cost[t][None] if trans[t] is None else cost[t][None] + np.einsum("wxuz,kwz->kwxu", trans[t], V)
        if q is not None:
            q[t] = q_t
        V = np.einsum("mxu,kwxu->mkwx", laws[t], q_t).reshape(-1, spec.n_world, t_i.states.size)
    return np.einsum("pwx,wx->pw", V, t_i.init_kernel) @ spec.prior


def mf_dynamic_cost(
    spec: DynamicGameSpec, team: int, pol: StagePolicy, flows: FlowProfile
) -> float:
    """Total expected cost of one representative seat at frozen flows.

    The seat's own state law evolves under its own rule, but every
    statistic inside costs and transitions comes from the frozen flows.
    """
    _check_stage_policy(spec, team, pol)
    laws = [_action_given_state(spec, team, pol, t)[None] for t in range(spec.horizon)]
    return float(_policy_values(spec, team, laws, *_flow_tables(spec, team, flows))[0])


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
    uniform-tie start, scoring every map of one stage per pass and taking
    the first improvement in map order; its output is only a local optimum
    and is flagged by exhaustive=False.
    """
    rows = _stage_map_rows(spec, team)
    stages = [_stage_map_laws(spec, team, t) for t in range(spec.horizon)]
    cost, trans = _flow_tables(spec, team, flows)
    if len(rows) ** spec.horizon <= budget:
        values = _policy_values(spec, team, stages, cost, trans)
        best = int(np.argmin(values))
        picks = np.unravel_index(best, (len(rows),) * spec.horizon)
        return DynBrResult(StagePolicy.from_rows(rows[list(picks)]), float(values[best]), True)

    picks = [0] * spec.horizon
    value = float(_policy_values(spec, team, [law[:1] for law in stages], cost, trans)[0])
    improved = True
    while improved:
        improved = False
        for t in range(spec.horizon):
            laws = [law[[m]] for law, m in zip(stages, picks)]
            laws[t] = stages[t]
            for m, v in enumerate(_policy_values(spec, team, laws, cost, trans)):
                if m != picks[t] and v < value - 1e-15:
                    picks[t], value = m, float(v)
                    improved = True
    return DynBrResult(StagePolicy.from_rows(rows[picks]), value, False)


def _soft_stage_rows(spec, team, rows, flows, tables, tau):
    """One-stage-deviation softmax update for every (stage, observation).

    Scores are posterior-weighted: continuation values come from one
    backward pass under the current rule with flow-frozen tables, and the
    seat's state law is the team's own state flow. That flow is the law
    under the current rule because damped_fixed_point always answers the
    flows induced by the very rows it passes in. tables are the stage
    tables _propagate filled at those flows, so nothing is refilled.
    """
    t_i = spec.teams[team]
    q = [None] * spec.horizon
    laws = [(t_i.obs_kernels[t] @ rows[t])[None] for t in range(spec.horizon)]
    _policy_values(spec, team, laws, *_team_tables(team, tables), q)
    out = []
    for t, obs in enumerate(t_i.obs_kernels[: spec.horizon]):
        weight = spec.prior[:, None] * flows.joints[team][t].sum(axis=-1)  # (W, X)
        score = obs.T @ (weight[..., None] * q[t][0]).sum(axis=0)
        out.append(softmin_rows(score, obs.T @ weight.sum(axis=0), tau))
    return out


def solve_dynamic_mf_fixed_point(
    spec: DynamicGameSpec, cfg: Optional[SolverConfig] = None
) -> DynamicMFEquilibrium:
    """Damped smoothed best-response iteration on stage policies.

    Same scheme as the static solver: respond (softly) to the flows of
    the current pair, damp, anneal the temperature after each inner
    convergence. Each sweep fills the stage tables once, while it
    propagates the flows, and both responses read them. The reported
    best-response residual is always measured against the exhaustive
    deterministic search when it fits the budget.
    """
    if cfg is None:
        cfg = SolverConfig()
    cfg.check()
    pols = [StagePolicy.uniform(spec, i) for i in range(2)]
    if cfg.init_rows is not None:
        pols = [StagePolicy.from_rows(cfg.init_rows[i]) for i in range(2)]
        for i in range(2):
            _check_stage_policy(spec, i, pols[i])
    rows, (flows, _), iterations, settled = damped_fixed_point(
        [[k.rows for k in p.kernels] for p in pols],
        lambda rs: _propagate(spec, (StagePolicy.from_rows(rs[0]), StagePolicy.from_rows(rs[1]))),
        lambda i, rows_i, field, tau: _soft_stage_rows(spec, i, rows_i, *field, tau),
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


def _episode_uniforms(spec: DynamicGameSpec, sizes) -> list[int]:
    """Widths of the column blocks an episode reads from its stream, in
    order: the world point, each team's initial states, then per stage
    each team's observations and actions, and each team's next states
    before the last stage."""
    n1, n2 = sizes
    stage = [n1, n1, n2, n2]
    return [1, n1, n2] + (stage + [n1, n2]) * (spec.horizon - 1) + stage


def _simulate_episodes(spec, sizes, rules, stream, episodes):
    """One chunk of coupled episodes, episodes on the leading axis.

    rules[i][t] holds the running sums of team i's seat rules at stage t,
    shaped (seats, Y, U). Each episode draws its whole block of uniforms
    from stream(e), its (seed, episode) stream, in one call and reads the
    columns in the order of _episode_uniforms, so an episode gets the same
    draws alone or in any chunk. Stage tables are filled once per world
    point that occurs, with the chunk's episodes there as keys. Returns
    the world points (E,), each team's costs (E,) and empirical joints
    (E, H, X, U).
    """
    widths = _episode_uniforms(spec, sizes)
    r = np.stack([stream(e).random(sum(widths)) for e in episodes])
    cols = iter(np.split(r, np.cumsum(widths)[:-1], axis=1))
    n_ep = len(r)
    w0 = _inverse_cdf(np.cumsum(spec.prior), next(cols)[:, 0])
    worlds = [(int(w), w0 == w) for w in np.unique(w0)]
    xs = [_inverse_cdf(np.cumsum(ti.init_kernel, axis=1)[w0][:, None], next(cols)) for ti in spec.teams]
    costs = [np.zeros(n_ep), np.zeros(n_ep)]
    emp = [np.zeros((n_ep, spec.horizon, ti.states.size, ti.actions.size)) for ti in spec.teams]
    for t in range(spec.horizon):
        us = []
        for i, ti in enumerate(spec.teams):
            y = _inverse_cdf(np.cumsum(ti.obs_kernels[t], axis=1)[xs[i]], next(cols))
            us.append(_inverse_cdf(rules[i][t][np.arange(sizes[i]), y], next(cols)))
            cell = np.arange(n_ep)[:, None] * ti.states.size + xs[i]
            counts = np.bincount((cell * ti.actions.size + us[i]).ravel(), minlength=emp[i][:, t].size)
            emp[i][:, t] = counts.reshape(n_ep, ti.states.size, ti.actions.size) / sizes[i]
        cost = [np.empty((n_ep, ti.states.size, ti.actions.size)) for ti in spec.teams]
        trans = [np.empty((n_ep, ti.states.size, ti.actions.size, ti.states.size)) for ti in spec.teams]
        for w, at in worlds:
            c, p = _stage_tables(spec, w, t, [_marginals(e[at, t]) for e in emp])
            for i in range(2):
                cost[i][at] = c[i]
                if p is not None:
                    trans[i][at] = p[i]  # a statistic-free table is shared by every episode
        for i in range(2):
            joint = emp[i][:, t].reshape(n_ep, -1)
            charge = joint * cost[i].reshape(n_ep, -1)
            # a running sum over the occupied cells in order fixes the rounding
            for c in range(joint.shape[1]):
                costs[i] = np.where(joint[:, c] != 0, costs[i] + charge[:, c], costs[i])
        if t + 1 == spec.horizon:
            break
        for i in range(2):
            cum = np.cumsum(trans[i], axis=-1)[np.arange(n_ep)[:, None], xs[i], us[i]]
            xs[i] = _inverse_cdf(cum, next(cols))
    return w0, costs, emp


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
    that never occur keep zero flow and a zero count. Episodes run in
    chunks of at most SIM_CHUNK_UNIFORMS uniforms (one episode when a
    single one needs more), which bounds memory; costs and flows are
    combined in episode order, so any chunk size gives the same report.
    """
    if reps < MIN_MC_REPS:
        raise ModelError(f"reps must be >= {MIN_MC_REPS}")
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    if min(sizes) < 1:
        raise ModelError("team sizes must be >= 1")
    seat_pols = [_seat_policies(spec, i, pols[i], sizes[i]) for i in range(2)]
    rules = [
        [np.cumsum(np.stack([p.kernels[t].rows for p in seat_pols[i]]), axis=2) for t in range(spec.horizon)]
        for i in range(2)
    ]
    stream = _episode_streams(_seed_of(rng))
    per_chunk = max(1, SIM_CHUNK_UNIFORMS // sum(_episode_uniforms(spec, sizes)))
    counts = np.zeros(spec.n_world)
    flow_acc = [
        np.zeros((spec.n_world, spec.horizon, spec.teams[i].states.size, spec.teams[i].actions.size))
        for i in range(2)
    ]
    vals = [[], []]
    for lo in range(0, reps, per_chunk):
        w0, costs, emp = _simulate_episodes(spec, sizes, rules, stream, range(lo, min(reps, lo + per_chunk)))
        np.add.at(counts, w0, 1.0)
        for i in range(2):
            vals[i] += costs[i].tolist()
            np.add.at(flow_acc[i], w0, emp[i])  # in episode order, as one episode at a time would
    stats = [sample_mean_ci(v) for v in vals]
    # world points never drawn have zero sums, so they keep zero flow
    flows = [tuple(np.moveaxis(acc / np.maximum(counts, 1.0)[:, None, None, None], 1, 0)) for acc in flow_acc]
    return SimulationReport(
        costs=(stats[0][0], stats[1][0]),
        ci_halfwidth=(stats[0][1], stats[1][1]),
        flows=(flows[0], flows[1]),
        world_counts=counts,
    )


@functools.lru_cache(maxsize=4096)
def _outcomes(k: int, mask: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Every split of k seats over the cells set in `mask`, as counts over
    `width` cells, with the multinomial coefficients k! / prod(a!)."""
    live = [c for c in range(width) if mask >> c & 1] or [0]
    counts = np.zeros((n_compositions(k, len(live)), width), dtype=np.int64)
    counts[:, live] = compositions(k, len(live))
    out = (counts, np.array([float(arrangements(row)) for row in counts.tolist()]))
    for arr in out:
        arr.flags.writeable = False
    return out


def _split(seats: np.ndarray, probs: np.ndarray, which: np.ndarray):
    """Multinomial outcomes of seats[r] seats spread over the cells of the
    law probs[which[r]].

    A table of one law is read without `which`. Cells of zero probability
    get no seats, so a deterministic row has one outcome. The outcomes and
    their weights k!/prod(a!) * prod(p^a), a product of powers rather than
    the exponential of a sum of logs, are tabled once per distinct (seats,
    law). Returns each outcome's parent row, its cell counts (cells,
    outcomes) and its weight.
    """
    n_laws, width = probs.shape
    code = seats.astype(np.int64) * n_laws + (which if n_laws > 1 else 0)
    present = np.bincount(code, minlength=1) > 0
    kinds = np.flatnonzero(present)
    kind = (np.cumsum(present) - 1)[code]
    k_of, law_of = np.divmod(kinds, n_laws)
    masks = (probs > 0.0) @ (1 << np.arange(width))
    shape_id = k_of * (1 << width) + masks[law_of]
    shapes, shape_of = np.unique(shape_id, return_inverse=True)
    blocks = [_outcomes(int(s) >> width, int(s) & ((1 << width) - 1), width) for s in shapes]
    per_kind = np.array([len(coef) for _, coef in blocks])[shape_of]
    start = np.cumsum(per_kind) - per_kind
    table = np.empty((int(per_kind.sum()), width), dtype=np.int32)
    weights = np.empty(len(table))
    for s, (counts, coef) in enumerate(blocks):
        ks = np.flatnonzero(shape_of == s)
        pos = (start[ks, None] + np.arange(len(coef))).ravel()
        table[pos] = np.tile(counts, (len(ks), 1))
        weights[pos] = (coef * np.prod(probs[law_of[ks], None, :] ** counts, axis=2)).ravel()
    kids = per_kind[kind]
    parent = np.repeat(np.arange(len(seats)), kids)
    j = np.arange(len(parent)) + np.repeat(start[kind] - (np.cumsum(kids) - kids), kids)
    return parent, np.take(table.T, j, axis=1), weights[j]


def _branch(n_rows: int, splits):
    """Apply a sequence of splits; every row branches into all outcomes.

    Each split is (seats, probs, which): a callable mapping the source row
    of every current row to the seats to split, the law table, and the
    law row of every source row (None for a table of one law). Returns
    the source row of each final outcome, its probability factor, and the
    counts (cells, outcomes) each split put in its cells, aligned with the
    outcomes.
    """
    src, weight, made = np.arange(n_rows), np.ones(n_rows), []
    for seats, probs, which in splits:
        parent, counts, w = _split(seats(src), probs, None if which is None else which[src])
        src, weight = src[parent], weight[parent] * w
        made.append((parent, counts))
    back, out = None, []
    for parent, counts in reversed(made):
        out.append(counts if back is None else np.take(counts, back, axis=1))
        back = parent if back is None else parent[back]
    return src, weight, out[::-1]


def _group(columns, radices):
    """Group equal rows: (a representative row of each group, group index of every row).

    Rows are coded in mixed radix; when the code would overflow, the code
    so far is replaced by its dense rank first. Groups come in code order.
    """
    code, span = np.zeros(len(columns[0]), dtype=np.int64), 1
    for col, r in zip(columns, radices):
        if r <= 1:
            continue
        if span * int(r) >= 1 << 62:
            code = _group([code], [span])[1]
            span = int(code.max()) + 1
        code *= int(r)
        code += col
        span *= int(r)
    order = np.argsort(code)
    ranked = code[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    inv = np.empty(len(code), dtype=np.int64)
    inv[order] = np.cumsum(np.concatenate([[False], ranked[1:] != ranked[:-1]]))
    return order[starts], inv


def _keyed_tables(spec: DynamicGameSpec, w: int, t: int, totals, n_team):
    """Stage tables of every chain row, filled once per distinct pair of
    team totals.

    totals[i] holds team i's seat count per (state, action) cell, one
    column per row: (X*U, rows). Every statistic a cost or transition
    reads is a function of the teams' state and action totals, which key
    the tables. Returns each row's key, both teams' cost tables (keys, X,
    U), and both teams' transition tables (keys or 1, X, U, X), None at
    the last stage.
    """
    margins, radices = [], []
    for ti, n, cells in zip(spec.teams, n_team, totals):
        cells = cells.reshape(ti.states.size, ti.actions.size, -1)
        margins.append((cells.sum(axis=1, dtype=cells.dtype), cells.sum(axis=0, dtype=cells.dtype)))
        # radix 1 skips a team's last state and last action totals, which follow from the others
        radices += [n + 1] * (ti.states.size - 1) + [1] + [n + 1] * (ti.actions.size - 1) + [1]
    keep, key = _group([col for m in margins for law in m for col in law], radices)
    laws = [tuple(law[:, keep].T / n for law in m) for n, m in zip(n_team, margins)]
    cost, trans = _stage_tables(spec, w, t, laws)
    if trans is not None:
        trans = [p if p.ndim == 4 else p[None] for p in trans]
    return key, cost, trans


def _move_sure(probs: np.ndarray, which: np.ndarray, seats: np.ndarray, dest: np.ndarray):
    """Move, in place, the seats of every row whose law probs[which] has
    one live cell into that cell's row of dest; such a move has
    probability one. Returns the seats left to branch, or None when none
    are. A table of one law is read without `which`.
    """
    live = probs > 0.0
    sure, cell = live.sum(axis=1) == 1, live.argmax(axis=1)
    if (probs == probs[0]).all():
        if not sure[0]:
            return seats
        dest[cell[0]] += seats
        return None
    hit, to = sure[which], cell[which]
    for c in range(len(dest)):
        dest[c] += seats * (hit & (to == c))
    return seats * ~hit


def _prefixes(classes, horizon: int):
    """Stage prefixes of the candidates of `classes`: per stage t, each
    candidate's prefix id and each prefix's representative candidate.

    Candidates whose every class plays the same rules at stages 0..t share
    one prefix at stage t; their rules are compared as raw bytes. Ids come
    in order of first candidate, and that candidate represents the prefix.
    """
    n_cand = max(len(law) for _, _, law in classes)
    rules = np.concatenate([law.reshape(n_cand, horizon, -1) for _, _, law in classes if len(law) == n_cand], axis=2)
    out = []
    for t in range(horizon):
        flat = np.ascontiguousarray(rules[:, : t + 1]).reshape(n_cand, -1)
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        ids = np.empty_like(order)
        ids[order] = np.arange(len(order))
        out.append((ids[inv], first[order]))
    return out


def _chain_costs(spec: DynamicGameSpec, team: int, classes) -> np.ndarray:
    """Expected total cost of `team` for each candidate, by a forward
    Markov chain on count configurations.

    Each class is (team, seats, law), law of shape (K or 1, H, X, U): the
    class's P(u | x) per stage for each of K candidates, or shared by all.
    A chain row is one stage prefix (_prefixes) with its seat count per
    (class, state): candidates that play the same rules up to stage t
    share their rows through stage t. Arrays hold one row of counts per
    (class, state) cell, one column per chain row. Rows start on the
    stage-0 prefixes; at the start of stage t > 0 each row fans out to
    the stage-t prefixes that extend its prefix, and each prefix's rows
    keep its parent's order, so every sum runs in the order a chain of
    that candidate alone would use. Per stage every (class, state) cell
    splits its seats over actions, the team totals key the cost and
    transition tables, and every (class, state, action) cell moves its
    seats to next states. Cells whose law puts all mass on one outcome
    move in bulk; the others branch into every multinomial outcome, and
    rows with equal configurations merge after each branching move and
    at the end of the stage. Stage costs accumulate per prefix, and a
    candidate's cost sums its prefixes' stage costs in stage order.
    """
    n_cand = max(len(law) for _, _, law in classes)
    n_team = [sum(k for j, k, _ in classes if j == i) for i in range(2)]
    count = np.int16 if max(n_team) < 1 << 15 else np.int32  # holds every seat count and team total
    dims = [(t.states.size, t.actions.size) for t in spec.teams]
    n_x = [dims[j][0] for j, _, _ in classes]
    n_xu = [dims[j][0] * dims[j][1] for j, _, _ in classes]
    state_at, act_at = np.cumsum([0] + n_x), np.cumsum([0] + n_xu)
    state_radix = np.repeat([k + 1 for _, k, _ in classes], n_x)
    act_radix = np.repeat([k + 1 for _, k, _ in classes], n_xu)
    cells = [(ci, j, x, u) for ci, (j, _, _) in enumerate(classes) for x in range(dims[j][0]) for u in range(dims[j][1])]
    stages = _prefixes(classes, spec.horizon)

    def team_totals(act, i):
        """Team i's seat count per (x, u) cell: its classes' act rows summed."""
        blocks = [act[act_at[ci] : act_at[ci + 1]] for ci, (j, _, _) in enumerate(classes) if j == i]
        return functools.reduce(np.add, blocks)

    out = np.zeros(n_cand)
    for w in range(spec.n_world):
        init = [(lambda src, k=k: np.full(len(src), k), spec.teams[j].init_kernel[w][None], None) for j, k, _ in classes]
        _, p, made = _branch(1, init)
        n_pre = len(stages[0][1])
        state = np.tile(np.concatenate(made).astype(count), (1, n_pre))
        pre, p = np.repeat(np.arange(n_pre), len(p)), np.tile(p, n_pre)
        acc = np.zeros(n_cand)
        for t in range(spec.horizon):
            of_cand, rep = stages[t]
            if t:
                # fan out: rows come sorted by prefix, and each stage-t prefix copies its parent's block
                parent = stages[t - 1][0][rep]
                size = np.bincount(pre, minlength=len(stages[t - 1][1]))[parent]
                idx = np.repeat(np.searchsorted(pre, parent) - np.cumsum(size) + size, size) + np.arange(size.sum())
                pre, p, state = np.repeat(np.arange(len(rep)), size), p[idx], np.take(state, idx, axis=1)
            which = rep[pre]
            # actions: every (class, state) cell splits its seats by P(u | x)
            act = np.zeros((len(cells), len(p)), dtype=count)
            splits = []
            for ci, (j, _, law) in enumerate(classes):
                for x in range(dims[j][0]):
                    lo = act_at[ci] + x * dims[j][1]
                    rest = _move_sure(law[:, t, x], which, state[state_at[ci] + x], act[lo : lo + dims[j][1]])
                    if rest is not None and rest.any():
                        splits.append((lo, rest, law[:, t, x]))
            if splits:
                src, w_act, made = _branch(len(p), [(lambda src, r=rest: r[src], law, which) for _, rest, law in splits])
                p, pre, act = p[src] * w_act, pre[src], np.take(act, src, axis=1)
                for (lo, _, _), counts in zip(splits, made):
                    act[lo : lo + len(counts)] += counts
            # costs and transitions: one table entry per distinct pair of team totals
            totals = [team_totals(act, i) for i in range(2)]
            inv, cost, trans = _keyed_tables(spec, w, t, totals, n_team)
            cost = cost[team].reshape(len(cost[team]), -1)
            stage = functools.reduce(np.add, (n * cost[inv, c] for c, n in enumerate(totals[team])))
            acc += np.bincount(pre, weights=p * stage / n_team[team], minlength=len(rep))[of_cand]
            if trans is None:
                break
            # moves: every (class, state, action) cell spreads its seats over next states
            nxt = np.zeros((state_at[-1], len(p)), dtype=count)
            for a, (ci, j, x, u) in enumerate(cells):
                if act[a].any():
                    dest = nxt[state_at[ci] : state_at[ci + 1]]
                    rest = _move_sure(trans[j][:, x, u], inv, act[a], dest)
                    act[a] = 0 if rest is None else rest
            todo = [a for a in range(len(cells)) if act[a].any()]
            rest, rest_radix = act[todo], act_radix[todo]
            for a in todo:
                ci, j, x, u = cells[a]
                parent, counts, w_mv = _split(rest[0], trans[j][:, x, u], inv)
                rest, rest_radix = np.take(rest[1:], parent, axis=1), rest_radix[1:]
                p, nxt, pre, inv = p[parent] * w_mv, np.take(nxt, parent, axis=1), pre[parent], inv[parent]
                nxt[state_at[ci] : state_at[ci + 1]] += counts
                if len(rest):
                    keep, g = _group([pre, inv, *rest, *nxt], [len(rep), len(cost), *rest_radix, *state_radix])
                    rest, nxt, pre, inv = np.take(rest, keep, axis=1), np.take(nxt, keep, axis=1), pre[keep], inv[keep]
                    p = np.bincount(g, weights=p)
            keep, g = _group([pre, *nxt], [len(rep), *state_radix])
            p, state, pre = np.bincount(g, weights=p), np.take(nxt, keep, axis=1), pre[keep]
        out += float(spec.prior[w]) * acc
    return out


def _team_classes(spec: DynamicGameSpec, team: int, pols: Sequence[StagePolicy]):
    """Group a team's seats by their stage kernels P(u | x): (team, seats, law) per class, in order of first seat."""
    groups: dict[bytes, list] = {}
    for p in pols:
        law = np.stack([_action_given_state(spec, team, p, t) for t in range(spec.horizon)])
        groups.setdefault(law.tobytes(), [law, 0])[1] += 1
    return [(team, k, law[None]) for law, k in groups.values()]


def _moves_branch(spec: DynamicGameSpec, team: int) -> bool:
    """Whether a seat of the team can move to more than one next state:
    a transition row with several next states, or one that reads the
    statistics."""
    tr = spec.teams[team].transition
    return not (tr.statistic_free and ((tr.raw_rows() > 0.0).sum(axis=1) == 1).all())


def _class_rows(spec: DynamicGameSpec, team: int, k: int, cells: int, t: int) -> int:
    """Chain rows one class of k seats with `cells` live (state, action)
    cells multiplies in at stage t: its count vectors over those cells,
    times its next-state count vectors when its moves branch."""
    rows = n_compositions(k, cells)
    if t + 1 < spec.horizon and _moves_branch(spec, team):
        rows *= n_compositions(k, spec.teams[team].states.size)
    return rows


def _stage_passes(spec: DynamicGameSpec, t: int) -> int:
    """Passes over the rows of stage t: branching moves split the (state,
    action) cells one at a time, each pass over rows that already carry
    the earlier cells' next states."""
    if t + 1 < spec.horizon and any(_moves_branch(spec, j) for j in range(2)):
        return max(ti.states.size * ti.actions.size for ti in spec.teams)
    return 1


def _poly_mul(a: list[int], b: list[int], n: int) -> list[int]:
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(n + 1)]


def _multiset_rows(n: int, factors: dict[int, tuple[list[int], int]]) -> int:
    """Sum over multisets of n seats on policies of the product, over the
    policies used, of each one's factor at its seat count. `factors`
    holds (f, count): count policies whose factor at k seats is f[k],
    f[0] = 1. A generating function, raised to each count by squaring."""
    total = [1] + [0] * n
    for f, count in factors.values():
        while count:
            if count & 1:
                total = _poly_mul(total, f, n)
            f, count = _poly_mul(f, f, n), count >> 1
    return total[n]


def _live_cells(law: np.ndarray) -> np.ndarray:
    """(state, action) cells of positive probability per stage: (..., H, X, U) -> (..., H)."""
    return (law > 0.0).sum(axis=(-2, -1))


def _chain_work(spec: DynamicGameSpec, classes) -> int:
    """Rows the chain builds for fixed classes, bounded from arithmetic:
    per world point and stage, the product over classes of _class_rows,
    times _stage_passes. The action step builds at most the count vectors
    over live cells, and the moves at most that many times the next-state
    vectors."""
    per_stage = [
        _stage_passes(spec, t)
        * math.prod(_class_rows(spec, j, k, int(_live_cells(law[0])[t]), t) for j, k, law in classes)
        for t in range(spec.horizon)
    ]
    return spec.n_world * sum(per_stage)


def _exact_work(spec: DynamicGameSpec, sizes, base, candidate_budget: int) -> list[tuple[str, int, int]]:
    """What exact dynamic epsilon needs, as (what, required, budget) rows.

    Per team: the multisets of n deterministic stage policies,
    C(n + M - 1, n) with M = (U^Y)^H; then, when those fit, the chain rows
    of scoring the base pair and every multiset against the opponent's
    base policy (see _chain_work). A policy's live cells at stage t depend
    only on its stage-t map, so the sum over multisets is a generating
    function over the stage maps. The rows count every multiset on its
    own at every stage; the chain shares the rows of multisets with a
    common stage prefix, so it builds at most this many. Pure arithmetic:
    nothing of the chain is built and no cost or transition is evaluated.
    """
    rows = []
    base_classes = [(j, sizes[j], _team_classes(spec, j, [base[j]])[0][2]) for j in range(2)]
    for i, ti in enumerate(spec.teams):
        n = sizes[i]
        n_maps = ti.actions.size**ti.observations.size
        multisets = n_compositions(n, n_maps**spec.horizon)
        rows.append((f"team {i} deviation multisets", multisets, candidate_budget))
        if multisets > candidate_budget:
            continue
        opp, _, opp_law = base_classes[1 - i]
        work = 0
        for t in range(spec.horizon):
            cells = collections.Counter(_live_cells(_stage_map_laws(spec, i, t)).tolist())
            factors = {
                s: ([1] + [_class_rows(spec, i, k, s, t) for k in range(1, n + 1)], c * n_maps ** (spec.horizon - 1))
                for s, c in cells.items()
            }
            opp_rows = _class_rows(spec, opp, sizes[opp], int(_live_cells(opp_law[0])[t]), t)
            work += _stage_passes(spec, t) * opp_rows * _multiset_rows(n, factors)
        required = _chain_work(spec, base_classes) + spec.n_world * work
        rows.append((f"team {i} exact chain rows", required, DYN_EXACT_PATH_BUDGET))
    return rows


def exact_dynamic_cost(
    spec: DynamicGameSpec,
    team_sizes: tuple[int, int],
    seat_pols: tuple[Sequence[StagePolicy], Sequence[StagePolicy]],
    team: int,
    path_budget: int = DYN_EXACT_PATH_BUDGET,
) -> float:
    """Exact expected team cost of the coupled finite system.

    Seats with equal stage kernels form a class, and the chain runs on the
    seat counts per (class, state): see _chain_costs. Its size grows with
    the count vectors of each class, polynomially in the class sizes;
    path_budget caps the rows it may build (_chain_work), checked before
    anything is built.
    """
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    pols = [_seat_policies(spec, i, list(seat_pols[i]), sizes[i]) for i in range(2)]
    classes = _team_classes(spec, 0, pols[0]) + _team_classes(spec, 1, pols[1])
    required = _chain_work(spec, classes)
    if required > path_budget:
        raise BudgetError("exact dynamic chain rows", required, path_budget)
    return float(_chain_costs(spec, team, classes)[0])


def _det_stage_policies(spec: DynamicGameSpec, team: int) -> list[StagePolicy]:
    """Every deterministic stage policy for one seat, lexicographic."""
    rows = _stage_map_rows(spec, team)
    return [StagePolicy.from_rows(rows[list(picks)]) for picks in itertools.product(range(len(rows)), repeat=spec.horizon)]


def _det_policy_laws(spec: DynamicGameSpec, team: int) -> np.ndarray:
    """P(u | x) per stage of every deterministic stage policy, in the order of _det_stage_policies: (M, H, X, U)."""
    stages = [_stage_map_laws(spec, team, t) for t in range(spec.horizon)]
    picks = np.array(list(itertools.product(range(len(stages[0])), repeat=spec.horizon)), dtype=np.int64)
    return np.stack([law[picks[:, t]] for t, law in enumerate(stages)], axis=1)


def _multisets_by_sizes(n_pol: int, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Multisets of n seats on n_pol policies, grouped by their class sizes.

    Keys are the seat counts of the policies used, largest first; each
    row lists a multiset's policies in that order, ties by index.
    """
    groups: dict[tuple[int, ...], list] = {}
    for combo in itertools.combinations_with_replacement(range(n_pol), n):
        runs = sorted((-len(list(g)), m) for m, g in itertools.groupby(combo))
        groups.setdefault(tuple(-c for c, _ in runs), []).append([m for _, m in runs])
    return {k: np.array(v, dtype=np.int64) for k, v in groups.items()}


def _held_rows(spec: DynamicGameSpec, classes) -> int:
    """Most chain rows _chain_costs holds at once for one candidate of
    `classes`, each class at its most live cells over the candidates.

    Pure arithmetic, the largest over stages. After the action split and
    after every merge, a candidate's rows differ in their count vectors:
    at most the product over classes of _class_rows. A branching move
    splits one (class, state, action) cell at a time. Its s seats, of a
    class of k, make at most n_compositions(s, X) outcomes per row before
    the merge, on rows whose earlier cells' next states hold at most
    k - s seats of that class. So a split's rows before their merge are
    that product with the class's next-state factor n_compositions(k, X)
    replaced by the largest n_compositions(k - s, X) * n_compositions(s,
    X). The passes that _stage_passes counts run one after another on
    merged rows, so they add nothing to the rows held at once.
    """
    most = 0
    for t in range(spec.horizon):
        sized = [(j, k, int(_live_cells(law).max(axis=0)[t])) for j, k, law in classes]
        rows = math.prod(_class_rows(spec, j, k, cells, t) for j, k, cells in sized)
        most = max(most, rows)
        if t + 1 < spec.horizon:
            for j, k, _ in sized:
                if _moves_branch(spec, j):
                    n_x = spec.teams[j].states.size
                    split = max(n_compositions(k - s, n_x) * n_compositions(s, n_x) for s in range(k + 1))
                    most = max(most, rows // n_compositions(k, n_x) * split)
    return most


def _best_deviation_cost(spec, team, sizes, opp_classes) -> float:
    """Least exact cost of `team` over the multisets of its deterministic
    stage policies.

    Each group of multisets with the same class sizes runs in chunks of
    as many candidates as fit CHAIN_CHUNK_ROWS at _held_rows each.
    Candidates of a chunk share their stage prefixes in the chain, so a
    chunk holds at most that many rows at once.
    """
    det = _det_policy_laws(spec, team)
    best = math.inf
    for seats, pols in _multisets_by_sizes(len(det), sizes[team]).items():
        step = max(1, CHAIN_CHUNK_ROWS // _held_rows(spec, [(team, k, det) for k in seats] + opp_classes))
        for lo in range(0, len(pols), step):
            chunk = pols[lo : lo + step]
            classes = [(team, k, det[chunk[:, c]]) for c, k in enumerate(seats)] + opp_classes
            best = min(best, float(_chain_costs(spec, team, classes).min()))
    return best


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

    Exact mode scores every joint deterministic seat deviation of the
    deviating team inside the coupled system. A joint deviation matters
    only through the multiset of deterministic stage policies it uses, so
    it scores the C(N + M - 1, M - 1) multisets of the M = (U^Y)^H
    policies on the count chain, batched by their class sizes, where
    multisets that agree up to a stage share their rows up to it;
    best_deviations stays (None, None). candidate_budget caps the
    multisets and DYN_EXACT_PATH_BUDGET the chain rows per team
    (_exact_work), both checked before anything is built; auto mode is
    exact when both fit. Monte Carlo mode is a lower bound over symmetric
    stage-kernel grids plus single-seat deterministic deviations, reported
    with a combined CI halfwidth.
    """
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    base = (pols[0], pols[1])
    for i in range(2):
        _check_stage_policy(spec, i, base[i])
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ModelError(f"unknown mode {mode!r}")
    if mode != "monte-carlo":
        work = _exact_work(spec, sizes, base, candidate_budget)
        over = [row for row in work if row[1] > row[2]]
        if mode == "auto":
            mode = "monte-carlo" if over else "exact"
        elif over:
            raise BudgetError(*over[0])

    if mode == "exact":
        eps = []
        for i in range(2):
            opp = [(1 - i, sizes[1 - i], law) for _, _, law in _team_classes(spec, 1 - i, [base[1 - i]])]
            own = [(i, sizes[i], law) for _, _, law in _team_classes(spec, i, [base[i]])]
            cur = float(_chain_costs(spec, i, own + opp)[0])
            eps.append(cur - _best_deviation_cost(spec, i, sizes, opp))
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
