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

The flow and simulation paths read stage costs and transitions as
tables over (state, action), filled by one helper, _stage_tables, for
both teams' state and action laws: a stage's flows at every world point,
or a simulated stage's empirical measures.

The exact finite-team engine runs a forward Markov chain on one team's
count configurations: seats with equal stage kernels form a class, and
a row holds the seat count per (class, state). No transition reads the
other team, so given the world point the teams' chains are independent;
they meet only in the stage cost, E f(A_t, B_t) = sum_a sum_b P(A_t =
a) P(B_t = b) f(a, b) over their keys (the state and action totals that
statistics read). Exact epsilon scores many candidate multisets in one
chain; candidates whose classes play the same rules up to stage t share
their rows through stage t, in an order that keeps every candidate's
sums those of a chain run for it alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import finite_n
from .core.counts import arrangements, compositions, multisets, n_compositions
from .core.errors import BudgetError, ModelError, check_team
from .core.spaces import MASS_TOL, Kernel, tv_distance, _freeze
from .core.specs import DynamicGameSpec
from .finite_n import EpsilonReport, _episode_streams, _mc_epsilon, _seed_of, sample_mean_ci
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
    def n_world(self) -> int:
        return self.joints[0][0].shape[0]

    def action_marginal(self, team: int, t: int, w: int) -> np.ndarray:
        return self.joints[team][t][w].sum(axis=0)

    def team_tv(self, other: "FlowProfile", team: int) -> float:
        pairs = zip(self.joints[team], other.joints[team])  # stage by stage
        return max(tv_distance(a[w].ravel(), b[w].ravel()) for a, b in pairs for w in range(self.n_world))


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


def _policy_rows(spec: DynamicGameSpec, team: int, pol: StagePolicy) -> np.ndarray:
    """A checked stage policy's rules over the horizon as one array (H, Y, U)."""
    _check_stage_policy(spec, team, pol)
    return np.stack([k.rows for k in pol.kernels[: spec.horizon]])


def _checked_rows(spec: DynamicGameSpec, team: int, rows: np.ndarray) -> np.ndarray:
    """Team's stage rules (stages, Y, U) checked in one array pass, as
    Kernel and _check_stage_policy check them one stage at a time and with
    their messages: entries first, then the stage count and the shape.
    Returns the first H stages."""
    if not (np.abs(rows.sum(axis=2) - 1.0).max(initial=0.0) <= MASS_TOL and rows.min(initial=0.0) >= 0.0):
        for r in rows:  # NaN fails both tests above; Kernel names the first bad stage's fault
            Kernel(r)
    if len(rows) < spec.horizon:
        covers = f"team {team} stage policy covers {len(rows)} stages, horizon is {spec.horizon}"
        raise ModelError(covers if len(rows) else "stage policy needs at least one stage")
    if rows.shape[1:] != (spec.teams[team].observations.size, spec.teams[team].actions.size):
        raise ModelError(f"team {team} stage policy kernel shape mismatch")
    return rows[: spec.horizon]


def _rule_laws(spec: DynamicGameSpec, team: int, rows: np.ndarray) -> np.ndarray:
    """P(u | x) per stage of stage rules (H, Y, U): (H, X, U)."""
    return np.stack(spec.teams[team].obs_kernels[: spec.horizon]) @ rows


def _stage_tables(spec: DynamicGameSpec, w, t: int, laws):
    """Both teams' stage-cost and transition tables at stage t and world
    point w, given laws = ((mu_0, nu_0), (mu_1, nu_1)), each team's state
    and action laws with the same leading key axes. w is one index or an
    index array broadcast against the keys.

    Returns the cost tables (keys..., X, U) and the transition tables
    (keys..., X, U, X), or (X, U, X) for a statistic-free transition; the
    transitions are None at the last stage. A transition reads only its
    own team's statistics.
    """
    stats = [(ti.stat_x.apply_raw(mu), ti.stat_u.apply_raw(nu)) for ti, (mu, nu) in zip(spec.teams, laws)]
    (sx1, su1), (sx2, su2) = stats
    keys = laws[0][0].shape[:-1]
    costs = [ti.stage_cost.table(w, keys + (ti.states.size, ti.actions.size), sx1, sx2, su1, su2) for ti in spec.teams]
    if t + 1 == spec.horizon:
        return costs, None
    return costs, [ti.transition.table(t, *st) for ti, st in zip(spec.teams, stats)]


def _marginals(joint: np.ndarray):
    """State and action laws of joint (state, action) laws (..., X, U)."""
    return joint.sum(axis=-1), joint.sum(axis=-2)


def _world_tables(spec: DynamicGameSpec, t: int, joints):
    """_stage_tables at stage t at every world point at once, from both
    teams' joint laws (W, X, U): each team's contiguous cost (W, X, U) and
    transition (W, X, U, X) tables, the transitions None at the last stage."""
    cost, trans = _stage_tables(spec, np.arange(spec.n_world), t, [_marginals(j) for j in joints])
    cost = [np.ascontiguousarray(c) for c in cost]
    if trans is not None:
        trans = [p if p.ndim == 4 else np.repeat(p[None], spec.n_world, axis=0) for p in trans]
    return cost, trans


def _propagate(spec: DynamicGameSpec, rows):
    """Mean-field flows of both teams from their stage rules (stages, Y, U),
    checked by _checked_rows, with the stage tables they induce: per team
    and stage, the joints and costs (W, X, U) and the transitions (W, X, U,
    X), None at the last stage. See propagate_mf_flow."""
    laws = [_rule_laws(spec, i, _checked_rows(spec, i, r)) for i, r in enumerate(rows)]  # (H, X, U)
    mu = [ti.init_kernel for ti in spec.teams]  # (W, X)
    stages = []  # (joints, costs, transitions) of both teams
    for t in range(spec.horizon):
        joint = [m[:, :, None] * law[t][None] for m, law in zip(mu, laws)]
        c, p = _world_tables(spec, t, joint)
        stages.append((joint, c, p or (None, None)))
        if p is None:
            break
        # a running sum over the (state, action) cells in order fixes the rounding
        flows = [(j[..., None] * p_i).reshape(spec.n_world, -1, p_i.shape[-1]) for j, p_i in zip(joint, p)]
        mu = [np.add.accumulate(f, axis=1)[:, -1] for f in flows]
    return [[[stage[k][i] for stage in stages] for i in range(2)] for k in range(3)]


def propagate_mf_flow(
    spec: DynamicGameSpec, pols: tuple[StagePolicy, StagePolicy]
) -> FlowProfile:
    """Forward recursion for the mean-field flows of both teams.

    Stage t records each team's joint (state, action) law conditional on
    the world point; the statistics of those joints then drive every
    seat's transition into stage t+1. Both teams advance together, since
    each team's stage cost may read the other's flow.
    """
    return FlowProfile(joints=_propagate(spec, [_policy_rows(spec, i, pols[i]) for i in range(2)])[0])


def _flow_tables(spec: DynamicGameSpec, team: int, flows: FlowProfile):
    """One team's stage cost and transition tables at frozen flows, per
    stage as _propagate fills them (_world_tables)."""
    tables = [_world_tables(spec, t, [j[t] for j in flows.joints]) for t in range(spec.horizon)]
    return [c[team] for c, _ in tables], [None if p is None else p[team] for _, p in tables]


def _stage_map_rows(spec: DynamicGameSpec, team: int) -> np.ndarray:
    """Rule rows of every observation-to-action map, lexicographic: (U^Y, Y, U)."""
    ti = spec.teams[team]
    maps = list(itertools.product(range(ti.actions.size), repeat=ti.observations.size))
    return np.eye(ti.actions.size)[maps]


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
    check_team(team)
    return _rules_value(spec, team, _policy_rows(spec, team, pol), *_flow_tables(spec, team, flows))


def _rules_value(spec, team, rows, cost, trans) -> float:
    """Value of stage rules (H, Y, U) at frozen-flow tables."""
    return float(_policy_values(spec, team, _rule_laws(spec, team, rows)[:, None], cost, trans)[0])


@dataclass
class DynBrResult:
    policy: StagePolicy
    value: float
    exhaustive: bool


def dynamic_best_response_fixed_flow(spec: DynamicGameSpec, team: int, flows: FlowProfile) -> DynBrResult:
    """Best deterministic stage policy against frozen flows.

    Exhaustive over all per-stage observation-to-action maps when the
    candidate count fits DYN_BR_BUDGET (ties resolve to the
    lexicographically first profile). Otherwise stage-wise coordinate
    descent from the uniform-tie start, scoring every map of one stage per
    pass and taking the first improvement in map order; its output is only
    a local optimum and is flagged by exhaustive=False.
    """
    check_team(team)
    return _best_response(spec, team, *_flow_tables(spec, team, flows), DYN_BR_BUDGET)


def _best_response(spec, team, cost, trans, budget) -> DynBrResult:
    """dynamic_best_response_fixed_flow at frozen-flow tables, exhaustive
    when the candidates fit `budget`."""
    rows = _stage_map_rows(spec, team)
    stages = [spec.teams[team].obs_kernels[t] @ rows for t in range(spec.horizon)]  # P(u | x) of every map
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


def _soft_stage_rows(spec, team, rows, joints, cost, trans, tau):
    """One-stage-deviation softmax update for every (stage, observation): (H, Y, U).

    Scores are posterior-weighted: continuation values come from one
    backward pass under the current rule with flow-frozen tables, and the
    seat's state law is the team's own state flow. That flow is the law
    under the current rule because damped_fixed_point always answers the
    flows induced by the very rows it passes in. joints, cost and trans
    are the team's flows and the stage tables _propagate filled at them,
    so nothing is refilled.
    """
    obs = np.stack(spec.teams[team].obs_kernels[: spec.horizon])  # (H, X, Y)
    q = [None] * spec.horizon
    _policy_values(spec, team, (obs @ rows)[:, None], cost, trans, q)  # the laws of _rule_laws
    weight = spec.prior[:, None] * np.stack(joints).sum(axis=-1)  # (H, W, X)
    score = obs.swapaxes(1, 2) @ (weight[..., None] * np.concatenate(q)).sum(axis=1)
    mass = (obs.swapaxes(1, 2) @ weight.sum(axis=1)[..., None])[..., 0]
    return softmin_rows(score, mass, tau)


def solve_dynamic_mf_fixed_point(
    spec: DynamicGameSpec, cfg: Optional[SolverConfig] = None
) -> DynamicMFEquilibrium:
    """Damped smoothed best-response iteration on stage policies.

    Same scheme as the static solver: respond (softly) to the flows of
    the current pair, damp, anneal the temperature after each inner
    convergence. Each sweep fills the stage tables once, while it
    propagates the flows, and both responses read them; so do the final
    residuals, at the flows of the last sweep. The reported best-response
    residual is always measured against the exhaustive deterministic
    search when it fits DYN_BR_BUDGET.
    """
    if cfg is None:
        cfg = SolverConfig()
    cfg.check()
    init = cfg.init_rows
    pols = [StagePolicy.uniform(spec, i) if init is None else StagePolicy.from_rows(init[i]) for i in range(2)]
    rows, (joints, cost, trans), iterations, settled = damped_fixed_point(
        [_policy_rows(spec, i, pols[i]) for i in range(2)],
        lambda rs: _propagate(spec, rs),
        lambda i, rows_i, field, tau: _soft_stage_rows(spec, i, rows_i, *(f[i] for f in field), tau),
        cfg,
    )
    policies = (StagePolicy.from_rows(rows[0]), StagePolicy.from_rows(rows[1]))
    flows = FlowProfile(joints=joints)
    induced = propagate_mf_flow(spec, policies)
    consistency = tuple(flows.team_tv(induced, i) for i in range(2))
    best = [_best_response(spec, i, cost[i], trans[i], DYN_BR_BUDGET) for i in range(2)]
    return DynamicMFEquilibrium(
        policies=policies,
        flows=flows,
        br_residual=tuple(_rules_value(spec, i, rows[i], cost[i], trans[i]) - best[i].value for i in range(2)),
        consistency_residual=consistency,
        iterations=iterations,
        converged=settled and max(consistency) < cfg.tol,
        br_exhaustive=all(b.exhaustive for b in best),
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
    draws alone or in any chunk. Stage tables are filled once per stage,
    the chunk's episodes as keys, each at its own world point. Returns
    the world points (E,), each team's costs (E,) and empirical joints
    (E, H, X, U).
    """
    widths = _episode_uniforms(spec, sizes)
    r = np.stack([stream(e).random(sum(widths)) for e in episodes])
    cols = iter(np.split(r, np.cumsum(widths)[:-1], axis=1))
    n_ep = len(r)
    w0 = _inverse_cdf(np.cumsum(spec.prior), next(cols)[:, 0])
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
        cost, trans = _stage_tables(spec, w0, t, [_marginals(e[:, t]) for e in emp])
        for i in range(2):
            joint = emp[i][:, t].reshape(n_ep, -1)
            charge = joint * cost[i].reshape(n_ep, -1)
            # a running sum over the occupied cells in order fixes the rounding
            for c in range(joint.shape[1]):
                costs[i] = np.where(joint[:, c] != 0, costs[i] + charge[:, c], costs[i])
        if t + 1 == spec.horizon:
            break
        for i in range(2):
            # a statistic-free table is shared by every episode
            cum = np.cumsum(np.broadcast_to(trans[i], cost[i].shape + cost[i].shape[-2:-1]), axis=-1)
            cum = cum[np.arange(n_ep)[:, None], xs[i], us[i]]
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
    chunks of at most finite_n.SIM_CHUNK_UNIFORMS uniforms (one episode
    when a single one needs more), which bounds memory; costs and flows
    are combined in episode order, so any chunk size gives the same report.
    """
    if reps < finite_n.MIN_MC_REPS:
        raise ModelError(f"reps must be >= {finite_n.MIN_MC_REPS}")
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    if min(sizes) < 1:
        raise ModelError("team sizes must be >= 1")
    seat_pols = [_seat_policies(spec, i, pols[i], sizes[i]) for i in range(2)]
    rules = [
        [np.cumsum(np.stack([p.kernels[t].rows for p in seat_pols[i]]), axis=2) for t in range(spec.horizon)]
        for i in range(2)
    ]
    stream = _episode_streams(_seed_of(rng))
    per_chunk = max(1, finite_n.SIM_CHUNK_UNIFORMS // sum(_episode_uniforms(spec, sizes)))
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
    n_cand = max(len(law) for _, law in classes)
    rules = np.concatenate([law.reshape(n_cand, horizon, -1) for _, law in classes if len(law) == n_cand], axis=2)
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


def _chain(spec: DynamicGameSpec, team: int, classes, stages):
    """A forward Markov chain on one team's count configurations.

    Each class is (seats, law), law (K or 1, H, X, U): its P(u | x) per
    stage for each of K candidates, or shared; stages are their prefixes
    (_prefixes). A row is one stage prefix with its seat count per (class,
    state), one column per row. At the start of stage t > 0 each row fans
    out to the prefixes that extend its own, in its parent's order, so
    every sum runs as in a chain of that candidate alone. Per stage every
    (class, state) cell splits its seats over actions, the rows' keys
    (state and action totals) key the transition tables, and every (class,
    state, action) cell moves its seats to next states. Sure moves go in
    bulk; the rest branch into every multinomial outcome, and equal rows
    merge after each branching move and at the end of the stage.

    Yields per world point w and stage t, after the action split, (w, t,
    laws, key, totals, p, pre): the state and action laws of the stage's
    keys, and each row's key, (state, action) totals (X*U, rows),
    probability and prefix.
    """
    ti = spec.teams[team]
    n_x, n_u = ti.states.size, ti.actions.size
    n = sum(k for k, _ in classes)
    count = np.int16 if n < 1 << 15 else np.int32  # holds every seat count and team total
    state_radix = np.repeat([k + 1 for k, _ in classes], n_x)
    act_radix = np.repeat([k + 1 for k, _ in classes], n_x * n_u)
    # radix 1 skips the last state and last action totals, which follow from the others
    key_radix = [n + 1] * (n_x - 1) + [1] + [n + 1] * (n_u - 1) + [1]
    cells = [(c, x, u) for c in range(len(classes)) for x in range(n_x) for u in range(n_u)]
    for w in range(spec.n_world):
        init = [(lambda src, k=k: np.full(len(src), k), ti.init_kernel[w][None], None) for k, _ in classes]
        _, p, made = _branch(1, init)
        n_pre = len(stages[0][1])
        state = np.tile(np.concatenate(made).astype(count), (1, n_pre))
        pre, p = np.repeat(np.arange(n_pre), len(p)), np.tile(p, n_pre)
        for t in range(spec.horizon):
            rep = stages[t][1]
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
            for c, (_, law) in enumerate(classes):
                for x in range(n_x):
                    lo = (c * n_x + x) * n_u
                    rest = _move_sure(law[:, t, x], which, state[c * n_x + x], act[lo : lo + n_u])
                    if rest is not None and rest.any():
                        splits.append((lo, rest, law[:, t, x]))
            if splits:
                src, w_act, made = _branch(len(p), [(lambda src, r=rest: r[src], law, which) for _, rest, law in splits])
                p, pre, act = p[src] * w_act, pre[src], np.take(act, src, axis=1)
                for (lo, _, _), counts in zip(splits, made):
                    act[lo : lo + n_u] += counts
            totals = act.reshape(len(classes), n_x * n_u, -1).sum(axis=0, dtype=count)
            cube = totals.reshape(n_x, n_u, -1)
            margins = (cube.sum(axis=1, dtype=count), cube.sum(axis=0, dtype=count))
            keep, key = _group([*margins[0], *margins[1]], key_radix)
            laws = tuple(m[:, keep].T / n for m in margins)
            yield w, t, laws, key, totals, p, pre
            if t + 1 == spec.horizon:
                break
            trans = ti.transition.table(t, ti.stat_x.apply_raw(laws[0]), ti.stat_u.apply_raw(laws[1])).reshape(-1, n_x, n_u, n_x)
            # moves: every (class, state, action) cell spreads its seats over next states
            nxt = np.zeros((len(classes) * n_x, len(p)), dtype=count)
            for a, (c, x, u) in enumerate(cells):
                if act[a].any():
                    rest = _move_sure(trans[:, x, u], key, act[a], nxt[c * n_x : (c + 1) * n_x])
                    act[a] = 0 if rest is None else rest
            todo = [a for a in range(len(cells)) if act[a].any()]
            rest, rest_radix = act[todo], act_radix[todo]
            for a in todo:
                c, x, u = cells[a]
                parent, counts, w_mv = _split(rest[0], trans[:, x, u], key)
                rest, rest_radix = np.take(rest[1:], parent, axis=1), rest_radix[1:]
                p, nxt, pre, key = p[parent] * w_mv, np.take(nxt, parent, axis=1), pre[parent], key[parent]
                nxt[c * n_x : (c + 1) * n_x] += counts
                if len(rest):
                    keep, g = _group([pre, key, *rest, *nxt], [len(rep), len(laws[0]), *rest_radix, *state_radix])
                    rest, nxt, pre, key = np.take(rest, keep, axis=1), np.take(nxt, keep, axis=1), pre[keep], key[keep]
                    p = np.bincount(g, weights=p)
            keep, g = _group([pre, *nxt], [len(rep), *state_radix])
            p, state, pre = np.bincount(g, weights=p), np.take(nxt, keep, axis=1), pre[keep]


def _chain_costs(spec: DynamicGameSpec, team: int, classes, value, records=None) -> np.ndarray:
    """Expected total cost of `team` for each candidate of `classes`, from
    the records of its chain (_chain), run here unless given. value(w, t,
    laws) gives each key's stage cost per (state, action) cell, (keys,
    X*U); a row's stage cost is its totals times its key's, over the team
    size. Per world point a candidate sums its prefixes' stage costs in
    stage order."""
    stages, n = _prefixes(classes, spec.horizon), sum(k for k, _ in classes)
    acc = {}
    for w, t, laws, key, totals, p, pre in records or _chain(spec, team, classes, stages):
        of_cand, rep = stages[t]
        cell = value(w, t, laws)[key]
        stage = functools.reduce(np.add, (a * c for a, c in zip(totals, cell.T))) / n
        acc[w] = acc.get(w, 0.0) + np.bincount(pre, weights=p * stage, minlength=len(rep))[of_cand]
    return sum(float(spec.prior[w]) * a for w, a in acc.items())


def _stage_value(spec: DynamicGameSpec, team: int, opp_records):
    """value(w, t, laws) of _chain_costs for `team` against the other
    team's chain of one candidate, given by its records: a key's stage
    costs averaged over the other team's law of keys at (w, t), sum_b P(b)
    cost(a, b). Each key is contracted once, the first time a chain
    reaches it, in blocks of at most CHAIN_CHUNK_ROWS pairs of keys (one
    own key at least)."""
    ti = spec.teams[team]
    opp = {(w, t): (laws, np.bincount(key, weights=p, minlength=len(laws[0]))) for w, t, laws, key, _, p, _ in opp_records}
    done = {}

    def value(w, t, laws):
        seen, ((mu, nu), prob) = done.setdefault((w, t), {}), opp[w, t]
        codes = [row.tobytes() for row in np.concatenate(laws, axis=1)]
        new = [k for k, code in enumerate(codes) if code not in seen]
        step = max(1, CHAIN_CHUNK_ROWS // len(prob))
        for block in (new[lo : lo + step] for lo in range(0, len(new), step)):
            pair = [None, None]
            pair[team], pair[1 - team] = [law[block, None] for law in laws], [mu[None], nu[None]]
            (sx1, su1), (sx2, su2) = ((tj.stat_x.apply_raw(m), tj.stat_u.apply_raw(v)) for tj, (m, v) in zip(spec.teams, pair))
            cost = ti.stage_cost.table(w, (len(block), len(prob), ti.states.size, ti.actions.size), sx1, sx2, su1, su2)
            # a contiguous row per (key, cell), summed pairwise: no key's costs depend on its block
            cost = np.ascontiguousarray(cost.reshape(len(block), len(prob), -1).transpose(0, 2, 1))
            seen.update(zip([codes[k] for k in block], (cost * prob).sum(axis=-1)))
        return np.array([seen[code] for code in codes])

    return value


def _team_classes(spec: DynamicGameSpec, team: int, pols: Sequence[StagePolicy]):
    """Group a team's seats by their stage kernels P(u | x): (seats, law) per class, in order of first seat."""
    groups: dict[bytes, list] = {}
    for p in pols:
        law = _rule_laws(spec, team, _policy_rows(spec, team, p))
        groups.setdefault(law.tobytes(), [law, 0])[1] += 1
    return [(k, law[None]) for law, k in groups.values()]


def _pair_costs(spec: DynamicGameSpec, classes):
    """Each team's exact cost on its classes against the other team's,
    and the value (_stage_value) that scored it. Each team's chain runs
    once, and its records serve both teams."""
    records = [list(_chain(spec, i, c, _prefixes(c, spec.horizon))) for i, c in enumerate(classes)]
    values = [_stage_value(spec, i, records[1 - i]) for i in range(2)]
    return [float(_chain_costs(spec, i, classes[i], values[i], records[i])[0]) for i in range(2)], values


def _moves_branch(spec: DynamicGameSpec) -> tuple[bool, bool]:
    """Per team, whether a seat can move to more than one next state: a
    transition row with several next states, or one that reads the
    statistics."""
    trs = [t.transition for t in spec.teams]
    return tuple(not (tr.statistic_free and ((tr.raw_rows() > 0.0).sum(axis=1) == 1).all()) for tr in trs)


def _class_rows(spec: DynamicGameSpec, team: int, k: int, cells: int, t: int, branch) -> int:
    """Chain rows one class of k seats with `cells` live (state, action)
    cells multiplies in at stage t: its count vectors over those cells,
    times its next-state count vectors when branch (_moves_branch) says."""
    rows = n_compositions(k, cells)
    if t + 1 < spec.horizon and branch[team]:
        rows *= n_compositions(k, spec.teams[team].states.size)
    return rows


def _live_cells(law: np.ndarray) -> np.ndarray:
    """(state, action) cells of positive probability per stage: (..., H, X, U) -> (..., H)."""
    return (law > 0.0).sum(axis=(-2, -1))


def _chain_work(spec: DynamicGameSpec, team: int, classes, branch) -> list[int]:
    """Rows _chain builds for `team`'s classes per stage at one world
    point, from arithmetic: per stage prefix (_prefixes), the product over
    classes of _class_rows at its representative, times the passes. Before
    the last stage branching moves split the (class, state, action) cells
    one at a time, each pass over the rows the last one merged."""
    ti = spec.teams[team]
    passes = len(classes) * ti.states.size * ti.actions.size if branch[team] else 1
    live = [_live_cells(law) for _, law in classes]
    work = []
    for t, (_, rep) in enumerate(_prefixes(classes, spec.horizon)):
        rows = 1
        for (k, _), cells in zip(classes, live):
            cells = cells[rep if len(cells) > 1 else [0], t]
            table = [_class_rows(spec, team, k, c, t, branch) for c in range(int(cells.max()) + 1)]
            rows = rows * np.array(table, dtype=object)[cells]  # Python ints: exact at any size
        work.append((passes if t + 1 < spec.horizon else 1) * int(rows.sum()))
    return work


def _path_work(spec: DynamicGameSpec, team: int, sizes, rows, opp_rows) -> int:
    """Chain rows plus pairs of keys contracted for `team` over every world
    point, from its and the other team's rows per stage (_chain_work): a
    stage has no more keys than rows, nor than state times action totals."""
    keys = [n_compositions(n, t.states.size) * n_compositions(n, t.actions.size) for n, t in zip(sizes, spec.teams)]
    pairs = sum(min(r, keys[team]) * min(o, keys[1 - team]) for r, o in zip(rows, opp_rows))
    return spec.n_world * (sum(rows) + pairs)


def _exact_work(spec: DynamicGameSpec, sizes, base) -> list[tuple[str, int, int]]:
    """What exact dynamic epsilon needs, as (what, required, budget) rows.

    Per team: the multisets of n deterministic stage policies, C(n + M -
    1, n) with M = (U^Y)^H, against DYN_EXACT_CANDIDATE_BUDGET; when those
    fit, the rows of the team's own chains (its base policy's and each
    deviation chunk's) plus the pairs of keys contracted with the other
    team's base chain (_path_work), against DYN_EXACT_PATH_BUDGET.
    Counting stops past it, one size group listed at a time, so a figure
    over it is a lower bound. Nothing is evaluated."""
    rows = []
    branch = _moves_branch(spec)
    base_rows = [_chain_work(spec, i, _team_classes(spec, i, [base[i]] * sizes[i]), branch) for i in range(2)]
    for i, ti in enumerate(spec.teams):
        n_pol = (ti.actions.size**ti.observations.size) ** spec.horizon
        n_sets = n_compositions(sizes[i], n_pol)
        rows.append((f"team {i} deviation multisets", n_sets, DYN_EXACT_CANDIDATE_BUDGET))
        if n_sets > DYN_EXACT_CANDIDATE_BUDGET:
            continue
        built, chunks = base_rows[i], _deviation_chunks(spec, i, sizes, branch)
        while (required := _path_work(spec, i, sizes, built, base_rows[1 - i])) <= DYN_EXACT_PATH_BUDGET and (
            classes := next(chunks, None)
        ) is not None:
            built = [a + b for a, b in zip(built, _chain_work(spec, i, classes, branch))]
        rows.append((f"team {i} exact chain rows", required, DYN_EXACT_PATH_BUDGET))
    return rows


def exact_dynamic_cost(
    spec: DynamicGameSpec,
    team_sizes: tuple[int, int],
    seat_pols: tuple[Sequence[StagePolicy], Sequence[StagePolicy]],
    team: int,
) -> float:
    """Exact expected team cost of the coupled finite system.

    Seats with equal stage kernels form a class; each team's chain runs
    alone on its seat counts per (class, state) (_chain), and the stage
    costs contract the two teams' laws of keys. DYN_EXACT_PATH_BUDGET caps
    both teams' chain rows plus the pairs of keys contracted (_path_work),
    checked before anything is built."""
    check_team(team)
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    pols = [_seat_policies(spec, i, list(seat_pols[i]), sizes[i]) for i in range(2)]
    classes = [_team_classes(spec, i, pols[i]) for i in range(2)]
    rows = [_chain_work(spec, i, classes[i], _moves_branch(spec)) for i in range(2)]
    required = sum(_path_work(spec, i, sizes, rows[i], rows[1 - i]) for i in range(2))
    if required > DYN_EXACT_PATH_BUDGET:
        raise BudgetError("exact dynamic chain rows", required, DYN_EXACT_PATH_BUDGET)
    return _pair_costs(spec, classes)[0][team]


def _det_policy_rows(spec: DynamicGameSpec, team: int) -> np.ndarray:
    """Rule rows of every deterministic stage policy for one seat, lexicographic in its stage maps: (M, H, Y, U)."""
    rows = _stage_map_rows(spec, team)
    return rows[np.array(list(itertools.product(range(len(rows)), repeat=spec.horizon)), dtype=np.int64)]


def _partitions(n: int, parts: int, cap: int):
    """Every sum of at most `parts` positive terms of at most cap each that
    makes n, largest term first, in descending lexicographic order."""
    if n == 0:
        yield ()
    for first in range(min(n, cap), 0, -1):
        if first * parts < n:
            return
        yield from ((first,) + rest for rest in _partitions(n - first, parts - 1, first))


def _multisets_by_sizes(n_pol: int, n: int):
    """The rows of core.counts.multisets(n, n_pol) one group of equal class
    sizes at a time, in order of first multiset: (sizes, rows), sizes the
    policies' seat counts, largest first, and rows each multiset's
    policies in that order, ties by index, in multiset order."""
    for sizes in _partitions(n, n_pol, n):
        k = len(sizes)
        chosen = multisets(k, n_pol - k + 1) + np.arange(k)  # the k policies used, ascending
        # every distinct order of the sizes over them, built one place at a time
        vals, left = np.unique(sizes, return_counts=True)
        orders, left = np.zeros((1, 0), dtype=np.int64), left[None]
        for _ in range(k):
            par, v = np.nonzero(left > 0)
            orders, left = np.column_stack([orders[par], vals[v]]), left[par]
            left[np.arange(len(par)), v] -= 1
        seats = chosen[:, np.stack([np.repeat(np.arange(k), o) for o in orders])].reshape(-1, n)
        rows = chosen[:, np.stack([np.lexsort((np.arange(k), -o)) for o in orders])].reshape(-1, k)
        yield sizes, rows[np.lexsort(seats.T[::-1])]


def _held_rows(spec: DynamicGameSpec, team: int, classes, branch) -> int:
    """Most chain rows _chain holds at once for one candidate of `team`'s
    `classes`, each class at its most live cells over the candidates, the
    largest over stages, from arithmetic. After the action split and every
    merge, rows differ in their count vectors: at most the product over
    classes of _class_rows. A branching move splits one (class, state,
    action) cell at a time; its s seats of a class of k make at most
    n_compositions(s, X) outcomes a row, on rows whose earlier cells hold
    at most k - s of that class's next states, so before the merge the
    class's factor n_compositions(k, X) grows to at most the largest
    n_compositions(k - s, X) * n_compositions(s, X). The passes run one
    after another on merged rows and add nothing held at once.
    """
    n_x = spec.teams[team].states.size
    most = 0
    for t in range(spec.horizon):
        sized = [(k, int(_live_cells(law).max(axis=0)[t])) for k, law in classes]
        rows = math.prod(_class_rows(spec, team, k, cells, t, branch) for k, cells in sized)
        most = max(most, rows)
        if t + 1 < spec.horizon and branch[team]:
            for k, _ in sized:
                split = max(n_compositions(k - s, n_x) * n_compositions(s, n_x) for s in range(k + 1))
                most = max(most, rows // n_compositions(k, n_x) * split)
    return most


def _deviation_chunks(spec: DynamicGameSpec, team: int, sizes, branch):
    """The classes of every chain call that scores `team`'s deviations:
    each group of _multisets_by_sizes in chunks of as many candidates as
    fit CHAIN_CHUNK_ROWS at _held_rows each (they share stage prefixes)."""
    det = _rule_laws(spec, team, _det_policy_rows(spec, team))
    for seats, pols in _multisets_by_sizes(len(det), sizes[team]):
        step = max(1, CHAIN_CHUNK_ROWS // _held_rows(spec, team, [(k, det) for k in seats], branch))
        for lo in range(0, len(pols), step):
            chunk = pols[lo : lo + step]
            yield [(k, det[chunk[:, c]]) for c, k in enumerate(seats)]


def dynamic_epsilon_estimate(
    spec: DynamicGameSpec,
    team_sizes: tuple[int, int],
    pols: tuple[StagePolicy, StagePolicy],
    reps: int = 400,
    rng=None,
    mode: str = "auto",
    deviation_resolution: float = 0.5,
) -> EpsilonReport:
    """Epsilon certificate for symmetric stage policies at finite sizes.

    Exact mode scores every joint deterministic seat deviation of the
    deviating team. One matters only through the multiset of the M =
    (U^Y)^H deterministic stage policies it uses, so the team's own count
    chain scores the C(N + M - 1, N) multisets, batched by class sizes
    (multisets that agree up to a stage share their rows up to it),
    against the other team's base chain, run once; best_deviations stays
    (None, None). DYN_EXACT_CANDIDATE_BUDGET caps the multisets and
    DYN_EXACT_PATH_BUDGET each team's chain rows plus pairs of keys
    contracted (_exact_work), both checked before any row is built or
    cost evaluated; auto mode is exact when both fit. Monte Carlo mode is
    a lower bound over symmetric stage-kernel grids plus single-seat
    deterministic deviations, reported with a combined CI halfwidth.
    """
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    base = (pols[0], pols[1])
    for i in range(2):
        _check_stage_policy(spec, i, base[i])
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ModelError(f"unknown mode {mode!r}")
    if mode != "monte-carlo":
        work = _exact_work(spec, sizes, base)
        over = [row for row in work if row[1] > row[2]]
        if mode == "auto":
            mode = "monte-carlo" if over else "exact"
        elif over:
            raise BudgetError(*over[0])

    if mode == "exact":
        cur, values = _pair_costs(spec, [_team_classes(spec, i, [base[i]] * sizes[i]) for i in range(2)])
        eps = []
        for i in range(2):
            chunks = _deviation_chunks(spec, i, sizes, _moves_branch(spec))
            eps.append(cur[i] - min(float(_chain_costs(spec, i, c, values[i]).min()) for c in chunks))
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
            finite_n.MC_DEVIATION_BUDGET,
            "dynamic deviation kernels",
        )
        devs: list[TeamStagePolicies] = [
            StagePolicy.from_rows(rows.reshape(spec.horizon, t_i.observations.size, -1)) for rows in grid
        ]
        if sizes[i] > 1:
            devs += [[StagePolicy.from_rows(det)] + [base[i]] * (sizes[i] - 1) for det in _det_policy_rows(spec, i)]
        cands.append(devs)

    def cost(pair, team, r, s):
        rep = simulate_finite_n(spec, sizes, pair, r, s)
        return rep.costs[team], rep.ci_halfwidth[team]

    eps, ci = _mc_epsilon(cost, base, cands, reps, seed)
    return EpsilonReport(eps=eps, best_deviations=(None, None), method="monte-carlo", ci_halfwidth=ci)
