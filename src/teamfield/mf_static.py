"""Mean-field fixed points of the static two-team game.

The representative decision maker of team i sees an observation drawn from
its team's channel, acts through a behavioral rule b_i, and pays a cost in
which both teams' action measures are replaced by their mean-field limits.
Mean fields are kept conditional on the world point: the law of the
representative action given omega0 is what large-team empirical measures
converge to, since actions are iid only conditionally on omega0.

A pair (b_1, b_2) together with mean fields (Lambda_1, Lambda_2) is a
fixed point when each Lambda_i is the action law induced by b_i
(consistency) and each b_i is cost-minimizing against the frozen pair of
mean fields (best response). The solver below runs damped best-response
iteration, optionally softened by a softmax with annealed temperature so
mixed fixed points are reachable; the grid search provides an independent
certificate at a chosen resolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core.errors import BudgetError, ModelError
from .core.spaces import Kernel, ProbVec, tv_distance, _freeze
from .core.specs import StaticGameSpec
from .policies import BehavioralPolicy

GRID_CANDIDATE_BUDGET = 10_000_000
DEVIATION_KERNEL_BUDGET = 1_000_000


@dataclass(frozen=True)
class MeanFieldProfile:
    """Per-team action laws conditional on the world point."""

    laws: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(_freeze(l) for l in self.laws))
        for l in self.laws:
            if l.ndim != 2:
                raise ModelError("mean field must be (world, action) shaped")
            for row in l:
                bad = ProbVec.unchecked(row).violations()
                if bad:
                    raise ModelError("mean field row: " + "; ".join(bad))

    @property
    def n_world(self) -> int:
        return self.laws[0].shape[0]

    def team_tv(self, other: "MeanFieldProfile", team: int) -> float:
        return max(
            tv_distance(self.laws[team][w], other.laws[team][w]) for w in range(self.n_world)
        )

    def max_tv(self, other: "MeanFieldProfile") -> float:
        return max(self.team_tv(other, i) for i in range(2))


@dataclass
class MFEquilibrium:
    policies: tuple[BehavioralPolicy, BehavioralPolicy]
    mean_fields: MeanFieldProfile
    br_residual: tuple[float, float]
    consistency_residual: tuple[float, float]
    iterations: int
    converged: bool


def mean_field_action_law(spec: StaticGameSpec, team: int, b: BehavioralPolicy) -> np.ndarray:
    """Action law of the representative seat, one row per world point."""
    t = spec.teams[team]
    rows = b.kernel.rows
    if rows.shape != (t.observations.size, t.actions.size):
        raise ModelError(
            f"team {team} policy has shape {rows.shape}, expected "
            f"({t.observations.size}, {t.actions.size})"
        )
    return t.obs_kernel @ rows


def _statistic_values(spec: StaticGameSpec, mf: MeanFieldProfile) -> list[list]:
    """s_j(omega0) for both teams, ready to hand to the cost."""
    out = []
    for j in range(2):
        stat = spec.teams[j].statistic
        out.append([stat.apply_raw(mf.laws[j][w]) for w in range(mf.n_world)])
    return out


def _cost_matrix(spec: StaticGameSpec, team: int, mf: MeanFieldProfile) -> np.ndarray:
    """C[omega0, u] at frozen mean fields."""
    s = _statistic_values(spec, mf)
    t = spec.teams[team]
    C = np.empty((spec.n_world, t.actions.size))
    for w in range(spec.n_world):
        for u in range(t.actions.size):
            C[w, u] = t.cost.value(w, u, s[0][w], s[1][w])
    return C


def mf_cost(spec: StaticGameSpec, team: int, b: BehavioralPolicy, mf: MeanFieldProfile) -> float:
    """Expected cost of the representative seat at frozen mean fields."""
    law = mean_field_action_law(spec, team, b)
    C = _cost_matrix(spec, team, mf)
    return float(spec.prior @ np.einsum("wu,wu->w", law, C))


def _score_matrix(spec: StaticGameSpec, team: int, mf: MeanFieldProfile) -> np.ndarray:
    """W[y, u]: contribution of playing u at observation y, prior-weighted."""
    C = _cost_matrix(spec, team, mf)
    Q = spec.teams[team].obs_kernel
    return Q.T @ (spec.prior[:, None] * C)


def best_response_fixed_mf(
    spec: StaticGameSpec, team: int, mf: MeanFieldProfile
) -> tuple[BehavioralPolicy, float]:
    """Deterministic best response against frozen mean fields.

    Per-observation argmin with ties broken toward the lowest action
    index. A deterministic rule is always optimal because the objective is
    linear in each observation's action distribution.
    """
    W = _score_matrix(spec, team, mf)
    picks = np.argmin(W, axis=1)
    value = float(W[np.arange(W.shape[0]), picks].sum())
    rows = np.zeros_like(W)
    rows[np.arange(W.shape[0]), picks] = 1.0
    return BehavioralPolicy(Kernel(rows)), value


def _soft_response_rows(spec: StaticGameSpec, team: int, mf: MeanFieldProfile, tau: float) -> np.ndarray:
    W = _score_matrix(spec, team, mf)
    if tau <= 0.0:
        picks = np.argmin(W, axis=1)
        rows = np.zeros_like(W)
        rows[np.arange(W.shape[0]), picks] = 1.0
        return rows
    p_obs = spec.prior @ spec.teams[team].obs_kernel
    rows = np.empty_like(W)
    for y in range(W.shape[0]):
        if p_obs[y] <= 0.0:
            rows[y] = 1.0 / W.shape[1]
            continue
        z = -(W[y] / p_obs[y]) / tau
        z -= z.max()
        e = np.exp(z)
        rows[y] = e / e.sum()
    return rows


@dataclass
class SolverConfig:
    damping: float = 0.5
    tol: float = 1e-6
    max_iters: int = 10_000
    smooth_init: float = 0.0
    smooth_anneal: float = 0.5
    smooth_floor: float = 1e-3
    init_rows: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)

    def check(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ModelError("damping must lie in (0, 1]")
        if self.tol <= 0.0:
            raise ModelError("tol must be positive")
        if self.max_iters < 1:
            raise ModelError("max_iters must be >= 1")
        if self.smooth_init < 0.0:
            raise ModelError("smoothing temperature must be >= 0")
        if not 0.0 < self.smooth_anneal < 1.0:
            raise ModelError("smooth_anneal must lie in (0, 1)")
        if self.smooth_floor <= 0.0:
            raise ModelError("smooth_floor must be positive")


def damped_fixed_point(rows, induce, respond, cfg: SolverConfig):
    """Damped, annealed best-response iteration shared by both solvers.

    rows[i] lists team i's row matrices: one for a static rule, one per
    stage for a dynamic rule. Each sweep computes the field induce(rows),
    replaces every matrix by its damped mix with respond(i, rows[i],
    field, tau), and anneals tau geometrically down to smooth_floor once
    the largest per-row TV update drops below tol. Returns the last rows,
    the field they were answered against, the sweep count, and whether
    the iteration settled at the floor temperature.
    """
    tau = cfg.smooth_init
    alpha = cfg.damping
    iterations = 0
    settled = False
    while iterations < cfg.max_iters:
        frozen = induce(rows)
        new_rows = []
        update_tv = 0.0
        for i in range(2):
            team = []
            for old, r in zip(rows[i], respond(i, rows[i], frozen, tau)):
                nr = (1.0 - alpha) * old + alpha * r
                update_tv = max(update_tv, max(tv_distance(a, b) for a, b in zip(nr, old)))
                team.append(nr)
            new_rows.append(team)
        rows = new_rows
        iterations += 1
        if update_tv < cfg.tol:
            if tau <= cfg.smooth_floor:
                settled = True
                break
            tau = max(tau * cfg.smooth_anneal, cfg.smooth_floor)
    return rows, frozen, iterations, settled


def solve_mf_fixed_point(spec: StaticGameSpec, cfg: Optional[SolverConfig] = None) -> MFEquilibrium:
    """Damped (optionally softmax-smoothed) best-response iteration.

    Each sweep recomputes both teams' mean fields from the current rules,
    responds against them, and damps the update. With smooth_init > 0 the
    response is a softmax in the per-observation conditional costs and the
    temperature is annealed geometrically after each inner convergence,
    down to smooth_floor. Nonconvergence is an honest outcome: the last
    iterate is returned with converged False.
    """
    if cfg is None:
        cfg = SolverConfig()
    cfg.check()
    rows = []
    for i, t in enumerate(spec.teams):
        if cfg.init_rows is not None:
            r = np.asarray(cfg.init_rows[i], dtype=float)
            if r.shape != (t.observations.size, t.actions.size):
                raise ModelError(f"init rows for team {i} have the wrong shape")
            rows.append([r.copy()])
        else:
            rows.append([np.full((t.observations.size, t.actions.size), 1.0 / t.actions.size)])

    rows, mf, iterations, settled = damped_fixed_point(
        rows,
        lambda rs: _profile_from_rows(spec, [rs[0][0], rs[1][0]]),
        lambda i, _rows, mf, tau: [_soft_response_rows(spec, i, mf, tau)],
        cfg,
    )
    eq = _equilibrium(spec, [rows[0][0], rows[1][0]], mf, iterations)
    eq.converged = settled and max(eq.consistency_residual) < cfg.tol
    return eq


def _profile_from_rows(spec: StaticGameSpec, rows) -> MeanFieldProfile:
    laws = tuple(spec.teams[i].obs_kernel @ rows[i] for i in range(2))
    return MeanFieldProfile(laws=laws)


def simplex_grid(n_points: int, steps: int) -> np.ndarray:
    """All measures on n_points atoms with coordinates j/steps."""
    out = []
    for cuts in itertools.combinations(range(steps + n_points - 1), n_points - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + n_points - 2 - prev)
        out.append(parts)
    return np.asarray(out, dtype=np.float64) / steps


def kernel_grid(n_rows: int, n_actions: int, steps: int, budget: int, what: str):
    """Every (n_rows, n_actions) kernel whose rows lie on simplex_grid.

    Kernels come lazily, lexicographic in the rows' grid indices with the
    last row varying fastest. Their count is checked against the budget
    before the first one is built.
    """
    grid = simplex_grid(n_actions, steps)
    count = len(grid) ** n_rows
    if count > budget:
        raise BudgetError(what, count, budget)
    return (grid[list(picks)] for picks in itertools.product(range(len(grid)), repeat=n_rows))


def _grid_candidate_hit(
    spec: StaticGameSpec,
    candidate: MeanFieldProfile,
    resolution: float,
    tie_tol: float,
):
    """Check one mean-field candidate, returning rules per team or None.

    A team passes when some mixture over its per-observation argmin sets
    induces an action law within (strictly below) the resolution of the
    candidate. Without ties the induced law is forced and checked
    directly; with ties feasibility is a small linear program.
    """
    from scipy.optimize import linprog

    rules = []
    for i in range(2):
        t = spec.teams[i]
        W = _score_matrix(spec, i, candidate)
        n_y, n_u = W.shape
        tie_sets = []
        any_tie = False
        for y in range(n_y):
            lo = W[y].min()
            s = np.flatnonzero(W[y] <= lo + tie_tol)
            tie_sets.append(s)
            any_tie = any_tie or len(s) > 1
        Q = t.obs_kernel
        target = candidate.laws[i]
        if not any_tie:
            rows = np.zeros((n_y, n_u))
            rows[np.arange(n_y), [s[0] for s in tie_sets]] = 1.0
            induced = Q @ rows
            tv = max(tv_distance(induced[w], target[w]) for w in range(spec.n_world))
            if not tv < resolution:
                return None
            rules.append(rows)
            continue
        # variables: b(y,u) over allowed actions, e(w,u) slack, t objective
        var_index = {}
        for y in range(n_y):
            for u in tie_sets[y]:
                var_index[(y, u)] = len(var_index)
        nb = len(var_index)
        ne = spec.n_world * n_u
        nv = nb + ne + 1
        c = np.zeros(nv)
        c[-1] = 1.0
        A_eq = np.zeros((n_y, nv))
        b_eq = np.ones(n_y)
        for (y, u), j in var_index.items():
            A_eq[y, j] = 1.0
        A_ub, b_ub = [], []
        for w in range(spec.n_world):
            for u in range(n_u):
                e_j = nb + w * n_u + u
                for sgn in (1.0, -1.0):
                    row = np.zeros(nv)
                    for (y, uu), j in var_index.items():
                        if uu == u:
                            row[j] = sgn * Q[w, y]
                    row[e_j] = -1.0
                    A_ub.append(row)
                    b_ub.append(sgn * target[w, u])
            row = np.zeros(nv)
            row[nb + w * n_u : nb + (w + 1) * n_u] = 0.5
            row[-1] = -1.0
            A_ub.append(row)
            b_ub.append(0.0)
        res = linprog(
            c,
            A_ub=np.asarray(A_ub),
            b_ub=np.asarray(b_ub),
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=[(0, None)] * nv,
            method="highs",
        )
        if not res.success or not res.x[-1] < resolution:
            return None
        rows = np.zeros((n_y, n_u))
        for (y, u), j in var_index.items():
            rows[y, u] = max(res.x[j], 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
        rules.append(rows)
    return rules


def _equilibrium(spec, rules, mf, iterations: int) -> MFEquilibrium:
    """Residuals of rules at the declared mean fields, reported as converged."""
    policies = tuple(BehavioralPolicy(Kernel(r)) for r in rules)
    induced = _profile_from_rows(spec, rules)
    consistency = tuple(mf.team_tv(induced, i) for i in range(2))
    br = []
    for i in range(2):
        cur = mf_cost(spec, i, policies[i], mf)
        _, best = best_response_fixed_mf(spec, i, mf)
        br.append(cur - best)
    return MFEquilibrium(
        policies=policies,
        mean_fields=mf,
        br_residual=(br[0], br[1]),
        consistency_residual=consistency,
        iterations=iterations,
        converged=True,
    )


def grid_fixed_point_search(
    spec: StaticGameSpec,
    resolution: float,
    tie_tol: float = 1e-9,
    max_candidates: int = GRID_CANDIDATE_BUDGET,
) -> list[MFEquilibrium]:
    """Exhaustive scan for approximate mean-field fixed points.

    Every product of per-team, per-world-point action laws on the
    resolution grid is tested with _grid_candidate_hit. Binary action
    spaces with a single world point take a vectorized shortcut; the
    general path enumerates lazily and is meant for coarse grids.
    """
    if not 0.0 < resolution <= 0.5:
        raise ModelError("resolution must lie in (0, 0.5]")
    steps = round(1.0 / resolution)
    binary = all(t.actions.size == 2 for t in spec.teams)
    batched = all(hasattr(t.cost, "value_batch") for t in spec.teams)
    if binary and batched and spec.n_world == 1:
        return _grid_search_binary_one_world(spec, resolution, steps, tie_tol)

    axes = []
    for i in range(2):
        g = simplex_grid(spec.teams[i].actions.size, steps)
        for _ in range(spec.n_world):
            axes.append(g)
    total = math.prod(len(a) for a in axes)
    if total > max_candidates:
        raise BudgetError("grid candidates", total, max_candidates)
    hits = []
    n_u1 = spec.teams[0].actions.size
    for combo in itertools.product(*axes):
        law1 = np.asarray(combo[: spec.n_world])
        law2 = np.asarray(combo[spec.n_world :])
        candidate = MeanFieldProfile(laws=(law1.reshape(-1, n_u1), law2.reshape(-1, spec.teams[1].actions.size)))
        rules = _grid_candidate_hit(spec, candidate, resolution, tie_tol)
        if rules is not None:
            hits.append(_equilibrium(spec, rules, candidate, 0))
    return hits


def _grid_search_binary_one_world(spec, resolution, steps, tie_tol) -> list[MFEquilibrium]:
    m = np.arange(steps + 1) / steps
    stats = []
    for j in range(2):
        stat = spec.teams[j].statistic
        if stat.kind == "mean-embedding":
            e = stat.embedding
            stats.append(e[0] * (1.0 - m) + e[1] * m)
        else:
            stats.append(m.copy())
    S1 = stats[0][:, None]
    S2 = stats[1][None, :]
    ok = []
    tie = []
    pick = []
    shape = (m.size, m.size)
    for i in range(2):
        c0 = np.broadcast_to(np.asarray(spec.teams[i].cost.value_batch(0, 0, S1, S2), dtype=float), shape)
        c1 = np.broadcast_to(np.asarray(spec.teams[i].cost.value_batch(0, 1, S1, S2), dtype=float), shape)
        tie_i = np.abs(c0 - c1) <= tie_tol
        pick_i = (c1 < c0).astype(float)
        target = m[:, None] if i == 0 else m[None, :]
        ok_i = tie_i | (np.abs(target - pick_i) < resolution)
        ok.append(ok_i)
        tie.append(tie_i)
        pick.append(pick_i)
    mask = ok[0] & ok[1]
    hits = []
    for a, b in np.argwhere(mask):
        laws = (np.array([[1.0 - m[a], m[a]]]), np.array([[1.0 - m[b], m[b]]]))
        candidate = MeanFieldProfile(laws=laws)
        rules = []
        for i, (ti, pi) in enumerate(zip(tie, pick)):
            t = spec.teams[i]
            q = m[a] if i == 0 else m[b]
            if not ti[a, b]:
                q = pi[a, b]
            rules.append(np.tile([1.0 - q, q], (t.observations.size, 1)))
        hits.append(_equilibrium(spec, rules, candidate, 0))
    return hits


@dataclass
class MfExploitability:
    eps: tuple[float, float]
    deviations: tuple[BehavioralPolicy, BehavioralPolicy]


def mf_exploitability(
    spec: StaticGameSpec,
    b1: BehavioralPolicy,
    b2: BehavioralPolicy,
    resolution: float = 0.05,
    max_candidates: int = DEVIATION_KERNEL_BUDGET,
) -> MfExploitability:
    """Best self-consistent deviation gain over a kernel grid.

    The deviating team drags its own mean field along (its law re-enters
    its own cost), while the opponent's mean field stays frozen. The grid
    makes this a certificate at the chosen resolution, not an exact
    exploitability.
    """
    if not 0.0 < resolution <= 0.05:
        raise ModelError("resolution must lie in (0, 0.05]")
    steps = round(1.0 / resolution)
    base = [b1, b2]
    laws = [mean_field_action_law(spec, i, base[i]) for i in range(2)]
    eps = []
    devs = []
    for i in range(2):
        t = spec.teams[i]
        grid = kernel_grid(t.observations.size, t.actions.size, steps, max_candidates, "deviation kernels")
        cur = mf_cost(spec, i, base[i], _pair_profile(laws, i, laws[i]))
        best = None
        best_rows = None
        for rows in grid:
            own_law = t.obs_kernel @ rows
            J = mf_cost(spec, i, BehavioralPolicy(Kernel(rows)), _pair_profile(laws, i, own_law))
            if best is None or J < best:
                best = J
                best_rows = rows
        eps.append(cur - best)
        devs.append(BehavioralPolicy(Kernel(best_rows)))
    return MfExploitability(eps=(eps[0], eps[1]), deviations=(devs[0], devs[1]))


def _pair_profile(laws, i, own_law) -> MeanFieldProfile:
    pair = [laws[0], laws[1]]
    pair[i] = own_law
    return MeanFieldProfile(laws=(pair[0], pair[1]))
