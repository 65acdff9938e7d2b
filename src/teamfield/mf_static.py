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

Every cost goes through one batched path: the scalar statistics of both
teams' laws, shaped (..., W), feed the cost family's table, and the
resulting C[..., w, u] is contracted with the prior and the observation
kernel into per-observation scores. A single candidate, a block of grid
candidates and a stack of deviation kernels run the same code, and a
batch agrees with its members bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core.counts import compositions, n_compositions
from .core.errors import BudgetError, ModelError, check_team
from .core.spaces import MASS_TOL, Kernel, ProbVec, tv_distance, _freeze
from .core.specs import StaticGameSpec
from .policies import BehavioralPolicy

GRID_CANDIDATE_BUDGET = 10_000_000
DEVIATION_KERNEL_BUDGET = 1_000_000
GRID_BLOCK = 2**20  # grid candidates scored in one array pass
TIE_SCREEN_SIZE = 4096  # most (weights, event) pairs the tie screen enumerates
TIE_SCREEN_MARGIN = 1e-6  # above HiGHS's default primal feasibility tolerance, 1e-7
# the HiGHS options that scipy's linprog(method="highs") sets; simplex strategy 1 is dual
TIE_LP_OPTIONS = (
    ("presolve", "on"),
    ("highs_debug_level", 0),
    ("simplex_strategy", 1),
    ("output_flag", False),
    ("log_to_console", False),
)


@dataclass(frozen=True)
class MeanFieldProfile:
    """Per-team action laws conditional on the world point."""

    laws: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(_freeze(l) for l in self.laws))
        for l in self.laws:
            if l.ndim != 2:
                raise ModelError("mean field must be (world, action) shaped")
            # one array pass finds the bad rows, each summed as a lone row would be;
            # the first bad row explains itself
            with np.errstate(invalid="ignore"):
                mass_off = np.abs(np.ascontiguousarray(l).sum(axis=1) - 1.0) > MASS_TOL
            bad = ~np.isfinite(l).all(axis=1) | (l < 0.0).any(axis=1) | mass_off
            if bad.any():
                raise ModelError("mean field row: " + "; ".join(ProbVec.unchecked(l[bad.argmax()]).violations()))

    @property
    def n_world(self) -> int:
        return self.laws[0].shape[0]

    def team_tv(self, other: "MeanFieldProfile", team: int) -> float:
        return max(
            tv_distance(self.laws[team][w], other.laws[team][w]) for w in range(self.n_world)
        )


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
    check_team(team)
    t = spec.teams[team]
    rows = b.kernel.rows
    if rows.shape != (t.observations.size, t.actions.size):
        raise ModelError(
            f"team {team} policy has shape {rows.shape}, expected "
            f"({t.observations.size}, {t.actions.size})"
        )
    return t.obs_kernel @ rows


def _statistics(spec: StaticGameSpec, laws) -> tuple[np.ndarray, np.ndarray]:
    """Both teams' scalar statistics of action laws shaped (..., W, U_j).

    One dot product per law row, as a lone row would get, so a batch
    matches its members bit for bit.
    """
    return tuple(
        (law[..., None, :] @ t.statistic.scalar_weights(t.actions.size)[:, None])[..., 0, 0]
        for law, t in zip(laws, spec.teams)
    )


def _cost_matrix(spec: StaticGameSpec, team: int, s1, s2) -> np.ndarray:
    """C[..., w, u]: the team's cost at scalar statistics s1, s2 shaped (..., W)."""
    s1, s2 = np.broadcast_arrays(s1, s2)
    cost = spec.teams[team].cost
    C = np.empty(s1.shape + (spec.teams[team].actions.size,))
    for w in range(spec.n_world):
        T = cost.table(w, s1[..., w], s2[..., w], C.shape[-1])
        for u in range(C.shape[-1]):  # column by column: numpy copies a short trailing axis slowly
            C[..., w, u] = T[..., u]
    return C


def _score_matrix(spec: StaticGameSpec, team: int, s1, s2) -> np.ndarray:
    """S[..., y, u]: prior-weighted cost of playing u at observation y."""
    C = _cost_matrix(spec, team, s1, s2)
    return spec.teams[team].obs_kernel.T @ (spec.prior[:, None] * C)


def _expected_cost(spec: StaticGameSpec, law: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Prior-weighted expected cost of action laws (..., W, U) under C, one dot per law."""
    per_world = np.einsum("...wu,...wu->...w", law, C)
    return (per_world[..., None, :] @ spec.prior[:, None])[..., 0, 0]


def mf_cost(spec: StaticGameSpec, team: int, b: BehavioralPolicy, mf: MeanFieldProfile) -> float:
    """Expected cost of the representative seat at frozen mean fields."""
    law = mean_field_action_law(spec, team, b)
    return float(_expected_cost(spec, law, _cost_matrix(spec, team, *_statistics(spec, mf.laws))))


def best_response_fixed_mf(
    spec: StaticGameSpec, team: int, mf: MeanFieldProfile
) -> tuple[BehavioralPolicy, float]:
    """Deterministic best response against frozen mean fields.

    Per-observation argmin with ties broken toward the lowest action
    index. A deterministic rule is always optimal because the objective is
    linear in each observation's action distribution.
    """
    check_team(team)
    W = _score_matrix(spec, team, *_statistics(spec, mf.laws))
    picks = np.argmin(W, axis=1)
    value = float(W[np.arange(W.shape[0]), picks].sum())
    return BehavioralPolicy(Kernel(np.eye(W.shape[1])[picks])), value


def _soft_response_rows(spec: StaticGameSpec, team: int, mf: MeanFieldProfile, tau: float) -> np.ndarray:
    W = _score_matrix(spec, team, *_statistics(spec, mf.laws))
    return softmin_rows(W, spec.prior @ spec.teams[team].obs_kernel, tau)


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

    rows[i] holds team i's row matrices as one array (S, Y, U): S = 1 for
    a static rule, one per stage for a dynamic rule. Each sweep computes
    the field induce(rows), replaces team i's rows by their damped mix
    with respond(i, rows[i], field, tau), an array of the same shape, and
    anneals tau geometrically down to smooth_floor once the largest
    per-row TV update, over both teams in one array pass each, drops below
    tol. Returns the last rows, the field they were answered against, the
    sweep count, and whether the iteration settled at the floor
    temperature.
    """
    tau = cfg.smooth_init
    alpha = cfg.damping
    iterations = 0
    settled = False
    while iterations < cfg.max_iters:
        frozen = induce(rows)
        new_rows = [(1.0 - alpha) * rows[i] + alpha * respond(i, rows[i], frozen, tau) for i in range(2)]
        update_tv = max(float((0.5 * np.abs(new - old).sum(axis=-1)).max()) for new, old in zip(new_rows, rows))
        rows = new_rows
        iterations += 1
        if update_tv < cfg.tol:
            if tau <= cfg.smooth_floor:
                settled = True
                break
            tau = max(tau * cfg.smooth_anneal, cfg.smooth_floor)
    return rows, frozen, iterations, settled


def softmin_rows(score: np.ndarray, mass: np.ndarray, tau: float) -> np.ndarray:
    """Smoothed response rows to observation scores (..., Y, U) with
    observation masses (..., Y): the argmin row at tau <= 0, the uniform
    row where the mass is 0, and otherwise the softmax of -score / mass at
    temperature tau.
    """
    n_u = score.shape[-1]
    if tau <= 0.0:
        return np.eye(n_u)[np.argmin(score, axis=-1)]
    rows = np.full(score.shape, 1.0 / n_u)
    live = mass > 0.0
    z = -(score[live] / mass[live, None]) / tau
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    rows[live] = e / e.sum(axis=1, keepdims=True)
    return rows


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
        shape = (t.observations.size, t.actions.size)
        r = np.full(shape, 1.0 / t.actions.size) if cfg.init_rows is None else np.asarray(cfg.init_rows[i], dtype=float)
        if r.shape != shape:
            raise ModelError(f"init rows for team {i} have the wrong shape")
        rows.append(r[None].copy())

    rows, mf, iterations, settled = damped_fixed_point(
        rows,
        lambda rs: _profile_from_rows(spec, [rs[0][0], rs[1][0]]),
        lambda i, _rows, mf, tau: _soft_response_rows(spec, i, mf, tau)[None],
        cfg,
    )
    (eq,) = _equilibria(spec, rows, [l[None] for l in mf.laws], iterations)
    eq.converged = settled and max(eq.consistency_residual) < cfg.tol
    return eq


def _profile_from_rows(spec: StaticGameSpec, rows) -> MeanFieldProfile:
    laws = tuple(spec.teams[i].obs_kernel @ rows[i] for i in range(2))
    return MeanFieldProfile(laws=laws)


def simplex_grid(n_points: int, steps: int) -> np.ndarray:
    """All measures on n_points atoms with coordinates j/steps, lexicographic in the counts j."""
    return compositions(steps, n_points) / steps


def kernel_grid(n_rows: int, n_actions: int, steps: int, budget: int, what: str) -> np.ndarray:
    """Every (n_rows, n_actions) kernel whose rows lie on simplex_grid, stacked.

    Kernels are lexicographic in the rows' grid indices, the last row
    varying fastest. Their count is checked against the budget before
    anything is built.
    """
    count = n_compositions(steps, n_actions) ** n_rows
    if count > budget:
        raise BudgetError(what, count, budget)
    grid = simplex_grid(n_actions, steps)
    return grid[np.indices((len(grid),) * n_rows).reshape(n_rows, -1).T]


def _grid_verdicts(spec: StaticGameSpec, team: int, stats, target, resolution: float, tie_tol: float):
    """One team's verdicts on a block of candidates: (passes, tied, argmin sets).

    The argmin sets mark, per observation, the actions whose score is
    within tie_tol of the minimum. Without a tie they are the one-hot best
    response, and the team passes when the law it induces is within total
    variation strictly below the resolution of the target at every world
    point. A tied candidate passes here; _tie_rule settles it.
    """
    S = _score_matrix(spec, team, *stats)
    n_u = S.shape[-1]
    # reductions over the short action axis go slice by slice, left to right
    allowed = S <= functools.reduce(np.minimum, (S[..., u] for u in range(n_u)))[..., None] + tie_tol
    tied = (functools.reduce(np.add, (allowed[..., u] for u in range(n_u)), 0) > 1).any(axis=-1)
    induced = spec.teams[team].obs_kernel @ allowed.astype(np.float64)
    tv = 0.5 * functools.reduce(np.add, (np.abs(induced[..., u] - target[..., u]) for u in range(n_u)))
    return tied | (tv.max(axis=-1) < resolution), tied, allowed


def _tie_screen(n_world: int, n_u: int) -> Optional[np.ndarray]:
    """The weak-duality screen's family of coefficients lam_w g[w, u], (K, W, U).

    lam runs over simplex_grid(W, 2), weights on the world points, and g
    over the events {0, 1}^(W x U). None when the family would hold more
    than TIE_SCREEN_SIZE members.
    """
    lam = simplex_grid(n_world, 2)
    cells = n_world * n_u
    if len(lam) * 2**cells > TIE_SCREEN_SIZE:
        return None
    events = (np.arange(2**cells)[:, None] >> np.arange(cells)) & 1
    return (lam[:, None, :, None] * events.reshape(1, -1, n_world, n_u)).reshape(-1, n_world, n_u)


def _tie_bound(Q: np.ndarray, allowed: np.ndarray, target: np.ndarray, screen: np.ndarray) -> float:
    """A lower bound on the tie LP's optimum min_b max_w TV((Q b)[w], target[w]).

    For weights lam and events g, sum_w lam_w TV_w >= sum_w lam_w sum_u
    g[w, u] ((Q b)[w, u] - target[w, u]) for every rule b, and the right
    side's minimum over rules splits per observation into the cheapest
    allowed action. The bound is the best member of the screen family.
    """
    per_obs = np.where(allowed, Q.T @ screen, np.inf).min(axis=-1).sum(axis=-1)
    return float((per_obs - (screen * target).sum(axis=(-2, -1))).max())


def _tie_lp(Q: np.ndarray, ys: np.ndarray, us: np.ndarray, target: np.ndarray):
    """The tie LP's (c, A_ub, b_ub, A_eq, b_eq) over the allowed cells (ys, us).

    Variables are b(y, u) on the allowed cells, a slack e(w, u) per world
    point and action, and the objective t. Per world point the inequality
    rows are +-(Q b)[w, u] - e(w, u) <= +-target[w, u] for each action,
    then 0.5 sum_u e(w, u) - t <= 0; each observation's b sums to 1.
    """
    (n_w, n_y), n_u, nb = Q.shape, target.shape[1], len(ys)
    nv = nb + n_w * n_u + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    A_eq = np.zeros((n_y, nv))
    A_eq[ys, np.arange(nb)] = 1.0
    dev = np.zeros((n_w, n_u, 2, nv))
    match = us == np.arange(n_u)[:, None]  # (U, nb): cells playing action u
    dev[:, :, 0, :nb] = np.where(match, Q[:, None, ys], 0.0)
    dev[:, :, 1, :nb] = np.where(match, -Q[:, None, ys], 0.0)
    dev.reshape(n_w * n_u, 2, nv)[np.arange(n_w * n_u), :, nb + np.arange(n_w * n_u)] = -1.0
    tv = np.zeros((n_w, 1, nv))
    tv[:, 0, nb:-1] = np.kron(np.eye(n_w), np.full(n_u, 0.5))
    tv[:, 0, -1] = -1.0
    A_ub = np.concatenate([dev.reshape(n_w, 2 * n_u, nv), tv], axis=1).reshape(-1, nv)
    b_ub = np.concatenate([np.stack([target, -target], axis=-1).reshape(n_w, -1), np.zeros((n_w, 1))], axis=1).ravel()
    return c, A_ub, b_ub, A_eq, np.ones(n_y)


def _solve_tie_lp(c, A_ub, b_ub, A_eq, b_eq) -> np.ndarray:
    """x >= 0 minimizing c @ x subject to A_ub x <= b_ub and A_eq x = b_eq.

    HiGHS's dual simplex with presolve, given the model and options that
    scipy's linprog(method="highs") gives it: the CSC matrix of the stacked
    rows without explicit zeros, row bounds (-inf, b_ub] and [b_eq, b_eq],
    column bounds [0, inf). A fresh solver per program, so no basis carries
    over. Raises ModelError unless HiGHS reports an optimum, or when the
    optimum fails linprog's feasibility check (the bounds and every row
    within 10 sqrt(1e-9), no NaN).
    """
    from scipy.optimize._highspy import _core as highs

    A = np.vstack((A_ub, A_eq))
    m_ub, (m, n) = len(b_ub), A.shape
    cols, rows = np.nonzero(A.T)  # column-major order, zeros dropped
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
    lp.a_matrix_.index_ = rows.astype(np.int32)
    lp.a_matrix_.value_ = A.T[cols, rows]
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, highs.kHighsInf)
    lp.row_lower_ = np.concatenate((np.full(m_ub, -highs.kHighsInf), b_eq))
    upper = lp.row_upper_ = np.concatenate((b_ub, b_eq))
    solver, error = highs._Highs(), highs.HighsStatus.kError
    ran = all(solver.setOptionValue(*option) != error for option in TIE_LP_OPTIONS)
    ran = ran and solver.passModel(lp) != error and solver.run() != error
    status = solver.getModelStatus()
    if not ran or status != highs.HighsModelStatus.kOptimal:
        raise ModelError(f"tie linear program failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = upper - solution.row_value
    tol = 10 * math.sqrt(1e-9)
    # every comparison below fails on NaN
    rows_hold = (slack[:m_ub] >= -tol).all() and (np.abs(slack[m_ub:]) <= tol).all()
    if not ((x >= -tol).all() and rows_hold) or math.isnan(solver.getObjectiveValue()):
        raise ModelError(f"tie linear program failed: the optimum misses a constraint by more than {tol:.2E}")
    return x


def _tie_rule(
    spec: StaticGameSpec,
    team: int,
    allowed: np.ndarray,
    target: np.ndarray,
    resolution: float,
    screen: Optional[np.ndarray],
):
    """Rows mixing over the argmin sets `allowed` whose induced law is
    closest in total variation to `target`, or None if that distance is not
    strictly below the resolution. A small linear program.

    When the screen family (from _tie_screen, or None for no screen)
    already bounds the distance below by resolution + TIE_SCREEN_MARGIN,
    the candidate is rejected without the linear program; every rule
    returned still comes from HiGHS. The program goes to HiGHS's dual
    simplex with presolve, with the model and options of scipy's
    linprog(method="highs") (see _solve_tie_lp). It is always feasible and
    bounded, so a result that is not optimal, or an optimum that fails
    linprog's feasibility check, raises ModelError.
    """
    Q = spec.teams[team].obs_kernel
    if screen is not None and _tie_bound(Q, allowed, target, screen) >= resolution + TIE_SCREEN_MARGIN:
        return None
    ys, us = np.nonzero(allowed)
    x = _solve_tie_lp(*_tie_lp(Q, ys, us, target))
    if not x[-1] < resolution:
        return None
    rows = np.zeros(allowed.shape)
    rows[ys, us] = np.where(x[: len(ys)] < 0.0, 0.0, x[: len(ys)])
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _equilibria(spec, rules, laws, iterations: int) -> list[MFEquilibrium]:
    """Residuals of stacked rules at stacked declared mean fields, reported as converged.

    rules[i] is (n, Y_i, U_i) and laws[i] is (n, W, U_i); member k pairs
    both teams' k-th rules with their k-th laws. The residuals come from
    one array pass of the batched statistics, scores and expected costs,
    which match a lone member bit for bit.
    """
    stats = _statistics(spec, laws)
    consistency, br = [], []
    for i, t in enumerate(spec.teams):
        induced = t.obs_kernel @ rules[i]
        consistency.append((0.5 * np.abs(laws[i] - induced).sum(axis=-1)).max(axis=-1))
        cur = _expected_cost(spec, induced, _cost_matrix(spec, i, *stats))
        br.append(cur - _score_matrix(spec, i, *stats).min(axis=-1).sum(axis=-1))
    return [
        MFEquilibrium(
            policies=(BehavioralPolicy(Kernel(rules[0][k])), BehavioralPolicy(Kernel(rules[1][k]))),
            mean_fields=MeanFieldProfile(laws=(laws[0][k], laws[1][k])),
            br_residual=(float(br[0][k]), float(br[1][k])),
            consistency_residual=(float(consistency[0][k]), float(consistency[1][k])),
            iterations=iterations,
            converged=True,
        )
        for k in range(len(rules[0]))
    ]


def grid_fixed_point_search(
    spec: StaticGameSpec,
    resolution: float,
    tie_tol: float = 1e-9,
) -> list[MFEquilibrium]:
    """Exhaustive scan for approximate mean-field fixed points.

    A candidate is a pair of per-team action laws whose rows, one per
    world point, lie on the resolution grid. It is a hit when each team
    has a rule, mixing only over its per-observation argmin sets (actions
    within tie_tol of the best score), whose induced law is within total
    variation strictly below the resolution of the candidate at every
    world point. Without ties the rule is the argmin pick; with ties a
    small linear program finds it. Hits come in kernel_grid order of team
    0's laws, and of team 1's within each. Their count is checked against
    GRID_CANDIDATE_BUDGET first; they are scored in array passes of up to
    GRID_BLOCK at a time.

    Ties with the same team, argmin sets and target share one linear
    program within a call, and a tie whose weak-duality bound already
    reaches the resolution is rejected without one (see _tie_rule); the
    hits are the same either way. The residuals of all hits come from one
    batched pass.
    """
    if not 0.0 < resolution <= 0.5:
        raise ModelError("resolution must lie in (0, 0.5]")
    if not (math.isfinite(tie_tol) and tie_tol >= 0.0):
        raise ModelError("tie_tol must be finite and >= 0")
    steps = round(1.0 / resolution)
    total = math.prod(n_compositions(steps, t.actions.size) ** spec.n_world for t in spec.teams)
    if total > GRID_CANDIDATE_BUDGET:
        raise BudgetError("grid candidates", total, GRID_CANDIDATE_BUDGET)
    laws = [kernel_grid(spec.n_world, t.actions.size, steps, total, "grid candidates") for t in spec.teams]
    stats = _statistics(spec, laws)
    screens = [_tie_screen(spec.n_world, t.actions.size) for t in spec.teams]
    ties = {}  # one tie LP per distinct (team, argmin sets, target) in this call
    block = max(1, GRID_BLOCK // len(laws[1]))
    found = []
    for start in range(0, len(laws[0]), block):
        cut = slice(start, start + block)
        verdicts = [
            _grid_verdicts(spec, i, (stats[0][cut, None], stats[1][None]), target, resolution, tie_tol)
            for i, target in enumerate((laws[0][cut, None], laws[1][None]))
        ]
        for a, b in np.argwhere(verdicts[0][0] & verdicts[1][0]):
            pair = (start + a, b)
            rules = []
            for i, (_, tied, allowed) in enumerate(verdicts):
                if tied[a, b]:
                    target = laws[i][pair[i]]
                    key = (i, allowed[a, b].tobytes(), target.tobytes())
                    if key not in ties:
                        ties[key] = _tie_rule(spec, i, allowed[a, b], target, resolution, screens[i])
                    rows = ties[key]
                else:
                    rows = allowed[a, b].astype(np.float64)
                if rows is None:
                    break
                rules.append(rows)
            else:
                found.append((*pair, *rules))
    if not found:
        return []
    at0, at1, rules0, rules1 = zip(*found)
    return _equilibria(spec, [np.stack(rules0), np.stack(rules1)], [laws[0][list(at0)], laws[1][list(at1)]], 0)


@dataclass
class MfExploitability:
    eps: tuple[float, float]
    deviations: tuple[BehavioralPolicy, BehavioralPolicy]


def mf_exploitability(
    spec: StaticGameSpec,
    b1: BehavioralPolicy,
    b2: BehavioralPolicy,
    resolution: float = 0.05,
) -> MfExploitability:
    """Best self-consistent deviation gain over a kernel grid.

    The deviating team drags its own mean field along (its law re-enters
    its own cost), while the opponent's mean field stays frozen. The grid
    makes this a certificate at the chosen resolution, not an exact
    exploitability. Both teams' kernel counts are checked against
    DEVIATION_KERNEL_BUDGET before any cost is evaluated.
    """
    if not 0.0 < resolution <= 0.05:
        raise ModelError("resolution must lie in (0, 0.05]")
    steps = round(1.0 / resolution)
    base = [b1, b2]
    laws = [mean_field_action_law(spec, i, base[i]) for i in range(2)]
    grids = [
        kernel_grid(t.observations.size, t.actions.size, steps, DEVIATION_KERNEL_BUDGET, "deviation kernels")
        for t in spec.teams
    ]
    eps = []
    devs = []
    for i, (t, kernels) in enumerate(zip(spec.teams, grids)):
        cur = mf_cost(spec, i, base[i], MeanFieldProfile(laws=(laws[0], laws[1])))
        pair = list(laws)
        pair[i] = t.obs_kernel @ kernels
        J = _expected_cost(spec, pair[i], _cost_matrix(spec, i, *_statistics(spec, pair)))
        best = int(np.argmin(J))
        eps.append(cur - float(J[best]))
        devs.append(BehavioralPolicy(Kernel(kernels[best])))
    return MfExploitability(eps=(eps[0], eps[1]), deviations=(devs[0], devs[1]))
