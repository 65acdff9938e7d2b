"""Independent reference computations the tests compare against.

Everything here is written the slow, obvious way: direct enumeration
over joint profiles with exact rational probabilities, seat-by-seat
enumeration of joint action profiles and joint deterministic deviations,
statically and over a finite horizon, plain loops for chain propagation
and frozen-flow best responses, a candidate-by-candidate mean-field
grid search on scalar cost evaluations, Monte Carlo episodes one at
a time with a seat-by-seat profile sampler, stars-and-bars count vectors,
and symmetrization and exchangeability by looping over all n! seat
permutations. None of it shares code with the package's count-class,
count-chain, multiset, batched cost and batched sampling paths, which is
the point. The exceptions are engines the package replaced and keeps
pinned: the row-by-row tie LP builder, the row-by-row mean-field profile
check, the joint two-team count chain that ran every candidate on rows
of its own (candidate_chain_costs, pinned to 1e-12, the rest bit for
bit), which still calls the chain's split and grouping helpers, and the
solver sweeps that damped one matrix at a time with one TV call per row
(damped_fixed_point_loops) and, in the dynamic solver, built StagePolicy
objects and filled the stage tables one (stage, world point) at a time
(dynamic_solver_sweeps), which still call the package's table, backward
induction and best-response helpers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np


def _seat_action_laws_rational(spec, team, policy, n, w):
    """Per-seat action laws as Fractions, observations integrated out."""
    t = spec.teams[team]
    if policy.kind == "symmetric-iid":
        bases = [policy.base] * n
    elif policy.kind == "product":
        bases = list(policy.members)
    else:
        raise ValueError("mixture handled separately")
    laws = []
    for b in bases:
        law = [Fraction(0)] * t.actions.size
        for y in range(t.observations.size):
            qy = Fraction(float(t.obs_kernel[w][y]))
            for u in range(t.actions.size):
                law[u] += qy * Fraction(float(b.kernel.rows[y][u]))
        laws.append(law)
    return laws


def joint_action_law_rational(spec, team, policy, n, w):
    """Joint law of the team's action profile given the world point.

    Returns a dict mapping action tuples to exact Fractions. Floats are
    promoted to their exact binary values, so the only approximation in
    the oracle is whatever the inputs already carried.
    """
    t = spec.teams[team]
    if policy.kind == "mixture":
        out = defaultdict(Fraction)
        for weight, profile in policy.components:
            laws = []
            for d in profile:
                law = [Fraction(0)] * t.actions.size
                for y in range(t.observations.size):
                    law[d.act(y)] += Fraction(float(t.obs_kernel[w][y]))
                laws.append(law)
            for prof in itertools.product(range(t.actions.size), repeat=n):
                q = Fraction(float(weight))
                for k, u in enumerate(prof):
                    q *= laws[k][u]
                    if q == 0:
                        break
                if q != 0:
                    out[prof] += q
        return dict(out)
    laws = _seat_action_laws_rational(spec, team, policy, n, w)
    out = {}
    for prof in itertools.product(range(t.actions.size), repeat=n):
        q = Fraction(1)
        for k, u in enumerate(prof):
            q *= laws[k][u]
            if q == 0:
                break
        if q != 0:
            out[prof] = q
    return out


def _profile_team_cost(spec, team, w, profiles):
    """Average per-seat cost of one joint profile pair at world point w."""
    stats = []
    for j in range(2):
        t = spec.teams[j]
        counts = np.bincount(np.asarray(profiles[j]), minlength=t.actions.size)
        emp = counts / len(profiles[j])
        stats.append(t.statistic.apply_raw(emp))
    cost = spec.teams[team].cost
    return math.fsum(
        cost.value(w, int(u), stats[0], stats[1]) for u in profiles[team]
    ) / len(profiles[team])


def oracle_exact_cost(spec, p1, p2, team_sizes, team):
    """Expected team cost by full enumeration with rational probabilities."""
    terms = []
    for w in range(spec.n_world):
        pw = Fraction(float(spec.prior[w]))
        if pw == 0:
            continue
        law1 = joint_action_law_rational(spec, 0, p1, team_sizes[0], w)
        law2 = joint_action_law_rational(spec, 1, p2, team_sizes[1], w)
        for prof1, q1 in law1.items():
            for prof2, q2 in law2.items():
                c = _profile_team_cost(spec, team, w, (prof1, prof2))
                terms.append(float(pw * q1 * q2) * c)
    return math.fsum(terms)


def _profile_table(spec, team, n):
    """Per-profile action frequencies, count-class ids and per-class statistics.

    Profiles are action tuples with seat 0 most significant.
    """
    n_u = spec.teams[team].actions.size
    P = n_u**n
    digits = np.empty((P, n), dtype=np.int64)
    idx = np.arange(P)
    for k in range(n - 1, -1, -1):
        digits[:, k] = idx % n_u
        idx //= n_u
    counts = np.zeros((P, n_u), dtype=np.int64)
    for k in range(n):
        np.add.at(counts, (np.arange(P), digits[:, k]), 1)
    classes, cid = np.unique(counts, axis=0, return_inverse=True)
    stat = spec.teams[team].statistic
    svals = [stat.apply_raw(c.astype(np.float64) / n) for c in classes]
    return counts.astype(np.float64) / n, cid.reshape(-1), svals


def profile_cost_tensor(spec, team_sizes, team):
    """C[w, p1, p2]: average seat cost of `team` at every joint action profile pair."""
    (f1, cid1, sv1), (f2, cid2, sv2) = (_profile_table(spec, i, team_sizes[i]) for i in range(2))
    n_u = spec.teams[team].actions.size
    cost = spec.teams[team].cost
    cval = np.empty((spec.n_world, n_u, len(sv1), len(sv2)))
    for w in range(spec.n_world):
        for u in range(n_u):
            for a, s1 in enumerate(sv1):
                for b, s2 in enumerate(sv2):
                    cval[w, u, a, b] = cost.value(w, u, s1, s2)
    gathered = cval[:, :, cid1, :][:, :, :, cid2]
    if team == 0:
        return np.einsum("pu,wupq->wpq", f1, gathered)
    return np.einsum("qu,wupq->wpq", f2, gathered)


def _law_product(seat_laws):
    """Profile law of independent seats, seat 0 most significant."""
    law = np.ones((seat_laws[0].shape[0], 1))
    for a in seat_laws:
        law = (law[:, :, None] * a[:, None, :]).reshape(law.shape[0], -1)
    return law


def profile_law(spec, policy, n, team):
    """Law over the team's joint action profiles, one row per world point."""
    t = spec.teams[team]
    if policy.kind == "mixture":
        terms = [(w, [d.as_kernel(t.actions.size).rows for d in prof]) for w, prof in policy.components]
    elif policy.kind == "product":
        terms = [(1.0, [m.kernel.rows for m in policy.members])]
    else:
        terms = [(1.0, [policy.base.kernel.rows] * n)]
    return sum(w * _law_product([t.obs_kernel @ rows for rows in seats]) for w, seats in terms)


def profile_exact_cost(spec, p1, p2, team_sizes, team):
    """Expected team cost by summing over every joint action profile pair."""
    L1 = profile_law(spec, p1, team_sizes[0], 0)
    L2 = profile_law(spec, p2, team_sizes[1], 1)
    C = profile_cost_tensor(spec, team_sizes, team)
    return math.fsum(float(spec.prior[w]) * float(L1[w] @ C[w] @ L2[w]) for w in range(spec.n_world))


def candidate_values(spec, opponent, team_sizes, team):
    """Exact team cost of every joint deterministic profile, and the seat maps.

    Candidates are ordered lexicographically: seat 0 varies slowest and
    each seat's maps are ordered as action tuples.
    """
    t = spec.teams[team]
    n = team_sizes[team]
    maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
    A = np.stack([t.obs_kernel @ np.eye(t.actions.size)[list(m)] for m in maps])
    L_opp = profile_law(spec, opponent, team_sizes[1 - team], 1 - team)
    C = profile_cost_tensor(spec, team_sizes, team)
    D = np.einsum("wpq,wq->wp", C, L_opp) if team == 0 else np.einsum("wpq,wp->wq", C, L_opp)
    D = spec.prior[:, None] * D
    T = np.ones((1, spec.n_world, 1))
    for _ in range(n):
        T = np.einsum("cwi,mwu->cmwiu", T, A).reshape(T.shape[0] * len(maps), spec.n_world, -1)
    return np.einsum("cwp,wp->c", T, D), maps


def check_exchangeable_br_value(inst, opponent, team):
    """Best joint deterministic value vs best symmetrized deterministic value.

    The second minimum runs over seat-permutation averages of the same
    candidates, so agreement says restricting the team to exchangeable
    policies costs nothing against an exchangeable opponent.
    """
    values, maps = candidate_values(inst.spec, opponent, inst.team_sizes, team)
    v_all = float(values.min())
    n = inst.team_sizes[team]
    M = len(maps)
    n_cand = len(values)
    digits = np.empty((n_cand, n), dtype=np.int64)
    idx = np.arange(n_cand)
    for k in range(n - 1, -1, -1):
        digits[:, k] = idx % M
        idx //= M
    weights = M ** np.arange(n - 1, -1, -1)
    orbit_sum = np.zeros(n_cand)
    perms = list(itertools.permutations(range(n)))
    for sigma in perms:
        orbit_sum += values[digits[:, list(sigma)] @ weights]
    v_exch = float(orbit_sum.min() / len(perms))
    return v_all, v_exch


def stars_and_bars(k, m):
    """Count vectors of k seats over m cells, from the sorted k-tuples of
    cells. Those run in the reverse of the count vectors' lexicographic
    order (first cell slowest), so the list is reversed."""
    rows = [[combo.count(c) for c in range(m)] for combo in itertools.combinations_with_replacement(range(m), k)]
    return rows[::-1]


def _permuted_laws(p):
    """The profile law and its reindexing by every seat permutation."""
    from teamfield.policies import _as_profile_law

    law = _as_profile_law(p, max_support=1 << 30)
    for sigma in itertools.permutations(range(p.n_dms)):
        moved = defaultdict(float)
        for profile, w in law.items():
            moved[tuple(profile[j] for j in sigma)] += w
        yield law, moved


def permutation_symmetrize(p, max_support=4096):
    """Average of the policy over all n! seat permutations, components
    sorted by their seat maps, weights renormalized."""
    from teamfield.core.errors import BudgetError
    from teamfield.policies import TeamPolicy

    if p.kind == "symmetric-iid":
        return p
    out = defaultdict(float)
    scale = 1.0 / math.factorial(p.n_dms)
    for _, moved in _permuted_laws(p):
        for profile, w in moved.items():
            out[profile] += w * scale
    if len(out) > max_support:
        raise BudgetError("mixture support", len(out), max_support)
    comps = sorted(out.items(), key=lambda item: tuple(d.actions for d in item[0]))
    total = sum(w for _, w in comps)
    return TeamPolicy.mixture([(w / total, profile) for profile, w in comps])


def max_permutation_tv(p):
    """Largest total variation between the profile law and a seat permutation of it."""
    if p.kind == "symmetric-iid":
        return 0.0
    worst = 0.0
    for law, moved in _permuted_laws(p):
        support = set(law) | set(moved)
        worst = max(worst, 0.5 * sum(abs(law.get(k, 0.0) - moved.get(k, 0.0)) for k in support))
    return worst


def permutation_is_exchangeable(p, tol=1e-9):
    """Whether no seat permutation moves the profile law by more than tol."""
    return max_permutation_tv(p) <= tol


def oracle_chain_cost(init, action_given_state, stage_cost, next_rows, horizon):
    """Total expected cost of a single agent walking a Markov chain.

    init: initial state weights; action_given_state[t]: matrix P(u | x);
    stage_cost(t, x, u): float; next_rows(t, x, u): next-state weights.
    No mean-field reading, so this is only valid for decoupled dynamics.
    """
    mu = [float(v) for v in init]
    n_x = len(mu)
    total = 0.0
    for t in range(horizon):
        pu = action_given_state[t]
        n_u = len(pu[0])
        for x in range(n_x):
            for u in range(n_u):
                total += mu[x] * float(pu[x][u]) * stage_cost(t, x, u)
        if t + 1 == horizon:
            break
        nxt = [0.0] * n_x
        for x in range(n_x):
            for u in range(n_u):
                m = mu[x] * float(pu[x][u])
                if m != 0.0:
                    row = next_rows(t, x, u)
                    for z in range(n_x):
                        nxt[z] += m * float(row[z])
        mu = nxt
    return total


def oracle_mismatch_maps(m1, m2, tau):
    """Smoothed response means of the pursuit/evasion fixture.

    Team 1 tracks m2, team 2 evades m1; with softmax smoothing at
    temperature tau the response means have closed forms.
    """

    def sigmoid(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    return sigmoid((2.0 * m2 - 1.0) / tau), sigmoid((1.0 - 2.0 * m1) / tau)


def _scalar_cost_matrix(spec, team, laws):
    """C[w, u] at mean fields `laws`, one scalar cost.value call per entry."""
    s = [[spec.teams[j].statistic.apply_raw(laws[j][w]) for w in range(spec.n_world)] for j in range(2)]
    t = spec.teams[team]
    C = np.empty((spec.n_world, t.actions.size))
    for w in range(spec.n_world):
        for u in range(t.actions.size):
            C[w, u] = t.cost.value(w, u, s[0][w], s[1][w])
    return C


def _scalar_scores(spec, team, laws):
    C = _scalar_cost_matrix(spec, team, laws)
    return spec.teams[team].obs_kernel.T @ (spec.prior[:, None] * C)


def _tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def tie_lp_loops(Q, allowed, target):
    """The grid certificate's tie LP built row by row: (c, A_ub, b_ub, A_eq,
    b_eq) and the variable index of each allowed (observation, action) cell.

    Variables are b(y, u) on the allowed cells, slacks e(w, u) with
    e >= +-((Q b)[w, u] - target[w, u]), and t >= 0.5 sum_u e(w, u) for
    every world point; each observation's b sums to 1.
    """
    n_y, n_u = allowed.shape
    var_index = {(int(y), int(u)): j for j, (y, u) in enumerate(np.argwhere(allowed))}
    nb = len(var_index)
    nv = nb + Q.shape[0] * n_u + 1
    c = np.zeros(nv)
    c[-1] = 1.0
    A_eq = np.zeros((n_y, nv))
    for (y, u), j in var_index.items():
        A_eq[y, j] = 1.0
    A_ub, b_ub = [], []
    for w in range(Q.shape[0]):
        for u in range(n_u):
            for sgn in (1.0, -1.0):
                row = np.zeros(nv)
                for (y, uu), j in var_index.items():
                    if uu == u:
                        row[j] = sgn * Q[w, y]
                row[nb + w * n_u + u] = -1.0
                A_ub.append(row)
                b_ub.append(sgn * target[w, u])
        row = np.zeros(nv)
        row[nb + w * n_u : nb + (w + 1) * n_u] = 0.5
        row[-1] = -1.0
        A_ub.append(row)
        b_ub.append(0.0)
    return c, np.asarray(A_ub), np.asarray(b_ub), A_eq, np.ones(n_y), var_index


def row_loop_profile_init(profile):
    """MeanFieldProfile.__post_init__ validating one row at a time, the
    check the array pass replaced."""
    from teamfield.core.errors import ModelError
    from teamfield.core.spaces import ProbVec, _freeze

    object.__setattr__(profile, "laws", tuple(_freeze(l) for l in profile.laws))
    for l in profile.laws:
        if l.ndim != 2:
            raise ModelError("mean field must be (world, action) shaped")
        for row in l:
            bad = ProbVec.unchecked(row).violations()
            if bad:
                raise ModelError("mean field row: " + "; ".join(bad))


def tie_lp_linprog(c, A_ub, b_ub, A_eq, b_eq):
    """scipy's linprog(method="highs") on a tie LP, x >= 0: the reference
    that mf_static._solve_tie_lp hands the same model and options to HiGHS
    without the wrapper."""
    from scipy.optimize import linprog

    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * len(c), method="highs")


def _grid_candidate_rules(spec, laws, resolution, tie_tol):
    """Rules per team for one mean-field candidate, or None.

    Without ties the induced law is forced and checked directly; with
    ties feasibility is a small linear program over the argmin sets.
    """
    rules = []
    for i in range(2):
        Q = spec.teams[i].obs_kernel
        W = _scalar_scores(spec, i, laws)
        n_y, n_u = W.shape
        tie_sets = [np.flatnonzero(W[y] <= W[y].min() + tie_tol) for y in range(n_y)]
        target = laws[i]
        if all(len(s) == 1 for s in tie_sets):
            rows = np.zeros((n_y, n_u))
            rows[np.arange(n_y), [s[0] for s in tie_sets]] = 1.0
            induced = Q @ rows
            if not max(_tv(induced[w], target[w]) for w in range(spec.n_world)) < resolution:
                return None
            rules.append(rows)
            continue
        allowed = np.zeros((n_y, n_u), dtype=bool)
        for y in range(n_y):
            allowed[y, tie_sets[y]] = True
        c, A_ub, b_ub, A_eq, b_eq, var_index = tie_lp_loops(Q, allowed, target)
        res = tie_lp_linprog(c, A_ub, b_ub, A_eq, b_eq)
        if not res.success or not res.x[-1] < resolution:
            return None
        rows = np.zeros((n_y, n_u))
        for (y, u), j in var_index.items():
            rows[y, u] = max(res.x[j], 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
        rules.append(rows)
    return rules


def grid_search_oracle(spec, resolution, tie_tol=1e-9):
    """The mean-field grid certificate, one candidate at a time.

    Walks the lazy product of per-team, per-world-point simplex grid rows
    (team 0's rows first, the last row varying fastest) and returns one
    (laws, rules, br_residual, consistency_residual) tuple per hit, with
    residuals computed from scalar cost evaluations.
    """
    from teamfield.mf_static import simplex_grid

    steps = round(1.0 / resolution)
    axes = []
    for t in spec.teams:
        g = simplex_grid(t.actions.size, steps)
        axes += [g] * spec.n_world
    hits = []
    for combo in itertools.product(*axes):
        laws = (np.asarray(combo[: spec.n_world]), np.asarray(combo[spec.n_world :]))
        rules = _grid_candidate_rules(spec, laws, resolution, tie_tol)
        if rules is None:
            continue
        br, consistency = [], []
        for i in range(2):
            Q = spec.teams[i].obs_kernel
            induced = Q @ rules[i]
            consistency.append(max(_tv(laws[i][w], induced[w]) for w in range(spec.n_world)))
            cur = float(spec.prior @ np.einsum("wu,wu->w", induced, _scalar_cost_matrix(spec, i, laws)))
            W = _scalar_scores(spec, i, laws)
            picks = np.argmin(W, axis=1)
            br.append(cur - float(W[np.arange(W.shape[0]), picks].sum()))
        hits.append((laws, rules, tuple(br), tuple(consistency)))
    return hits



def exploitability_oracle(spec, b1, b2, resolution):
    """Best self-consistent deviation gain per team, one grid kernel at a time.

    Returns per-team gains and the first kernel reaching the lowest cost,
    scanning kernels in the order of the product of simplex grid rows.
    """
    from teamfield.mf_static import simplex_grid

    steps = round(1.0 / resolution)
    laws = [spec.teams[i].obs_kernel @ b.kernel.rows for i, b in enumerate((b1, b2))]
    eps, devs = [], []
    for i in range(2):
        t = spec.teams[i]

        def cost(own):
            pair = list(laws)
            pair[i] = own
            return float(spec.prior @ np.einsum("wu,wu->w", own, _scalar_cost_matrix(spec, i, pair)))

        grid = simplex_grid(t.actions.size, steps)
        best, best_rows = None, None
        for picks in itertools.product(range(len(grid)), repeat=t.observations.size):
            rows = grid[list(picks)]
            J = cost(t.obs_kernel @ rows)
            if best is None or J < best:
                best, best_rows = J, rows
        eps.append(cost(laws[i]) - best)
        devs.append(best_rows)
    return eps, devs


def _stage_action_kernels(spec, team, pol):
    """P(u | x) per stage for one seat: observation channel composed with the rule."""
    return [spec.teams[team].obs_kernels[t] @ pol.kernels[t].rows for t in range(spec.horizon)]


def seat_exact_dynamic_cost(spec, team_sizes, seat_pols, team):
    """Exact expected team cost of the coupled finite system, seat by seat.

    Keeps a dict over every seat's joint state, branches over every joint
    action and every joint next state, and reads the statistics from the
    empirical measures of each joint configuration. Exponential in the
    seat counts; this is the engine the count-vector chain replaced.
    """
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    pu = [[_stage_action_kernels(spec, i, p) for p in seat_pols[i]] for i in range(2)]
    n_tot = sizes[0] + sizes[1]
    seat_team = [0] * sizes[0] + [1] * sizes[1]
    per_world = []
    for w in range(spec.n_world):
        dist = {}
        for combo in itertools.product(*[range(spec.teams[seat_team[k]].states.size) for k in range(n_tot)]):
            p = 1.0
            for k, x in enumerate(combo):
                p *= spec.teams[seat_team[k]].init_kernel[w, x]
            if p > 0.0:
                dist[combo] = dist.get(combo, 0.0) + p
        total = 0.0
        for t in range(spec.horizon):
            nxt = {}
            for config, p_cfg in dist.items():
                act_branches = []
                for k, x in enumerate(config):
                    i = seat_team[k]
                    row = pu[i][k - (0 if i == 0 else sizes[0])][t][x]
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
                        ti = spec.teams[i]
                        ex = np.bincount(config[lo : lo + sizes[i]], minlength=ti.states.size) / sizes[i]
                        eu = np.bincount(us[lo : lo + sizes[i]], minlength=ti.actions.size) / sizes[i]
                        stats.append((ti.stat_x.apply_raw(ex), ti.stat_u.apply_raw(eu)))
                    (sx1, su1), (sx2, su2) = stats
                    lo = 0 if team == 0 else sizes[0]
                    ti = spec.teams[team]
                    stage = sum(
                        ti.stage_cost.value(w, config[k], us[k], sx1, sx2, su1, su2) for k in range(lo, lo + sizes[team])
                    ) / sizes[team]
                    total += p_act * stage
                    if t + 1 == spec.horizon:
                        continue
                    nxt_branches = []
                    for k, x in enumerate(config):
                        row = np.asarray(
                            spec.teams[seat_team[k]].transition.rows_at(t, x, us[k], *stats[seat_team[k]]), dtype=float
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


def _keyed_tables(spec, w, t, totals, n_team):
    """Stage tables of every joint chain row, filled once per distinct pair
    of team totals: the two-team keying the joint chain used.

    totals[i] holds team i's seat count per (state, action) cell, one
    column per row: (X*U, rows). Every statistic a cost or transition
    reads is a function of the teams' state and action totals, which key
    the tables. Returns each row's key, both teams' cost tables (keys, X,
    U), and both teams' transition tables (keys or 1, X, U, X), None at
    the last stage.
    """
    from teamfield.dynamic import _group, _stage_tables

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


def candidate_chain_costs(spec, team, classes):
    """Expected total cost of `team` for each candidate, by a forward
    Markov chain on count configurations, every candidate on rows of its
    own from stage 0.

    The count chain before candidates shared their stage prefixes and
    before each team ran a chain of its own: a row holds both teams'
    classes, and the tables are keyed on both teams' totals
    (_keyed_tables). It reuses the package's split, branch, grouping and
    table helpers. The one-team chains must reproduce it to 1e-12.

    Each class is (team, seats, law), law of shape (K or 1, H, X, U): the
    class's P(u | x) per stage for each of K candidates, or shared by all.
    A chain row is one candidate with its seat count per (class, state);
    arrays hold one row of counts per (class, state) cell, one column per
    chain row. Per stage every (class, state) cell splits its seats over
    actions, the team totals key the cost and transition tables, and
    every (class, state, action) cell moves its seats to next states.
    Cells whose law puts all mass on one outcome move in bulk; the others
    branch into every multinomial outcome, and rows with equal
    configurations merge after each branching move and at the end of the
    stage.
    """
    from teamfield.dynamic import _branch, _group, _move_sure, _split

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

    def team_totals(act, i):
        """Team i's seat count per (x, u) cell: its classes' act rows summed."""
        blocks = [act[act_at[ci] : act_at[ci + 1]] for ci, (j, _, _) in enumerate(classes) if j == i]
        return functools.reduce(np.add, blocks)

    out = np.zeros(n_cand)
    for w in range(spec.n_world):
        init = [(lambda src, k=k: np.full(len(src), k), spec.teams[j].init_kernel[w][None], None) for j, k, _ in classes]
        _, p, made = _branch(1, init)
        state = np.tile(np.concatenate(made).astype(count), (1, n_cand))
        cand, p = np.repeat(np.arange(n_cand), len(p)), np.tile(p, n_cand)
        acc = np.zeros(n_cand)
        for t in range(spec.horizon):
            # actions: every (class, state) cell splits its seats by P(u | x)
            act = np.zeros((len(cells), len(p)), dtype=count)
            splits = []
            for ci, (j, _, law) in enumerate(classes):
                for x in range(dims[j][0]):
                    lo = act_at[ci] + x * dims[j][1]
                    rest = _move_sure(law[:, t, x], cand, state[state_at[ci] + x], act[lo : lo + dims[j][1]])
                    if rest is not None and rest.any():
                        splits.append((lo, rest, law[:, t, x]))
            if splits:
                src, w_act, made = _branch(len(p), [(lambda src, r=rest: r[src], law, cand) for _, rest, law in splits])
                p, cand, act = p[src] * w_act, cand[src], np.take(act, src, axis=1)
                for (lo, _, _), counts in zip(splits, made):
                    act[lo : lo + len(counts)] += counts
            # costs and transitions: one table entry per distinct pair of team totals
            totals = [team_totals(act, i) for i in range(2)]
            inv, cost, trans = _keyed_tables(spec, w, t, totals, n_team)
            cost = cost[team].reshape(len(cost[team]), -1)
            stage = functools.reduce(np.add, (n * cost[inv, c] for c, n in enumerate(totals[team])))
            acc += np.bincount(cand, weights=p * stage / n_team[team], minlength=n_cand)
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
                p, nxt, cand, inv = p[parent] * w_mv, np.take(nxt, parent, axis=1), cand[parent], inv[parent]
                nxt[state_at[ci] : state_at[ci + 1]] += counts
                if len(rest):
                    keep, g = _group([cand, inv, *rest, *nxt], [n_cand, len(cost), *rest_radix, *state_radix])
                    rest, nxt, cand, inv = np.take(rest, keep, axis=1), np.take(nxt, keep, axis=1), cand[keep], inv[keep]
                    p = np.bincount(g, weights=p)
            keep, g = _group([cand, *nxt], [n_cand, *state_radix])
            p, state, cand = np.bincount(g, weights=p), np.take(nxt, keep, axis=1), cand[keep]
        out += float(spec.prior[w]) * acc
    return out


def multisets_by_sizes(n_pol, n):
    """Multisets of n seats on n_pol policies from
    itertools.combinations_with_replacement, grouped by their class sizes
    in order of first multiset: keys are the seat counts of the policies
    used, largest first, and each row lists its policies in that order,
    ties by index."""
    groups = {}
    for combo in itertools.combinations_with_replacement(range(n_pol), n):
        runs = sorted((-len(list(g)), m) for m, g in itertools.groupby(combo))
        groups.setdefault(tuple(-c for c, _ in runs), []).append([m for _, m in runs])
    return {k: np.array(v, dtype=np.int64) for k, v in groups.items()}


def candidate_dynamic_epsilon(spec, team_sizes, pols):
    """Exact dynamic epsilon over multisets of deterministic stage
    policies, every multiset of a size group scored in one call of
    candidate_chain_costs."""
    from teamfield.dynamic import _det_policy_rows, _rule_laws, _team_classes

    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    eps = []
    for i in range(2):
        opp = [(1 - i, sizes[1 - i], law) for _, law in _team_classes(spec, 1 - i, [pols[1 - i]])]
        own = [(i, sizes[i], law) for _, law in _team_classes(spec, i, [pols[i]])]
        cur = float(candidate_chain_costs(spec, i, own + opp)[0])
        det = _rule_laws(spec, i, _det_policy_rows(spec, i))
        best = min(
            float(candidate_chain_costs(spec, i, [(i, k, det[picks[:, c]]) for c, k in enumerate(seats)] + opp).min())
            for seats, picks in multisets_by_sizes(len(det), sizes[i]).items()
        )
        eps.append(cur - best)
    return tuple(eps)


def det_stage_policies(spec, team):
    """Every deterministic stage policy of one seat, lexicographic in the stage maps."""
    from teamfield.dynamic import StagePolicy

    t = spec.teams[team]
    maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
    return [
        StagePolicy.from_rows([np.eye(t.actions.size)[list(m)] for m in picks])
        for picks in itertools.product(maps, repeat=spec.horizon)
    ]


def seat_dynamic_epsilon(spec, team_sizes, pols):
    """Exact dynamic epsilon by brute force over seat-indexed joint deviations."""
    sizes = (int(team_sizes[0]), int(team_sizes[1]))
    eps = []
    for i in range(2):
        base = [[pols[0]] * sizes[0], [pols[1]] * sizes[1]]
        cur = seat_exact_dynamic_cost(spec, sizes, base, i)
        best = None
        for combo in itertools.product(det_stage_policies(spec, i), repeat=sizes[i]):
            seats = list(base)
            seats[i] = list(combo)
            v = seat_exact_dynamic_cost(spec, sizes, seats, i)
            best = v if best is None or v < best else best
        eps.append(cur - best)
    return tuple(eps)


def loop_best_response(spec, team, cost, trans):
    """Exhaustive frozen-flow best response, one deterministic stage policy at a time.

    cost[t][w] is (X, U), trans[t][w] is (X, U, X) or trans[t] is None at
    the last stage. Returns (value, picks) of the first minimum in
    itertools.product order of the stage maps.
    """
    t_i = spec.teams[team]
    maps = list(itertools.product(range(t_i.actions.size), repeat=t_i.observations.size))
    best = None
    for picks in itertools.product(range(len(maps)), repeat=spec.horizon):
        total = 0.0
        for w in range(spec.n_world):
            V = np.zeros(t_i.states.size)
            for t in range(spec.horizon - 1, -1, -1):
                pu = t_i.obs_kernels[t] @ np.eye(t_i.actions.size)[list(maps[picks[t]])]
                stage = (pu * cost[t][w]).sum(axis=1)
                cont = np.einsum("xu,xuz,z->x", pu, trans[t][w], V) if trans[t] is not None else 0.0
                V = stage + cont
            total += float(spec.prior[w]) * float(t_i.init_kernel[w] @ V)
        if best is None or total < best[0]:
            best = (total, picks)
    return best


def _loop_stage_value(spec, team, rules, cost, trans):
    """Frozen-flow value of one stage policy given as P(u | x) per stage,
    by a backward pass of plain loops over world points, states and actions."""
    t_i = spec.teams[team]
    n_x, n_u = t_i.states.size, t_i.actions.size
    total = 0.0
    for w in range(spec.n_world):
        V = [0.0] * n_x
        for t in range(spec.horizon - 1, -1, -1):
            nxt = []
            for x in range(n_x):
                v = 0.0
                for u in range(n_u):
                    q = float(cost[t][w][x, u])
                    if trans[t] is not None:
                        q += sum(float(trans[t][w][x, u, z]) * V[z] for z in range(n_x))
                    v += float(rules[t][x, u]) * q
                nxt.append(v)
            V = nxt
        total += float(spec.prior[w]) * sum(float(t_i.init_kernel[w, x]) * V[x] for x in range(n_x))
    return total


def forward_flow_cost(spec, team, rules, cost, trans):
    """Frozen-flow value of one stage policy given as P(u | x) per stage, by
    a forward pass of the seat's own state law in plain loops.

    cost[t][w] is (X, U), trans[t][w] is (X, U, X) or trans[t] is None at
    the last stage.
    """
    t_i = spec.teams[team]
    n_x, n_u = t_i.states.size, t_i.actions.size
    per_world = []
    for w in range(spec.n_world):
        rho = [float(v) for v in t_i.init_kernel[w]]
        total = 0.0
        for t in range(spec.horizon):
            nxt = [0.0] * n_x
            for x in range(n_x):
                for u in range(n_u):
                    m = rho[x] * float(rules[t][x, u])
                    total += m * float(cost[t][w][x, u])
                    if trans[t] is not None:
                        for z in range(n_x):
                            nxt[z] += m * float(trans[t][w][x, u, z])
            rho = nxt
        per_world.append(float(spec.prior[w]) * total)
    return math.fsum(per_world)


def loop_coordinate_descent(spec, team, cost, trans):
    """Stage-wise coordinate descent over deterministic stage maps, one
    trial policy at a time.

    Starts from map 0 at every stage; sweeps the stages in order and, per
    stage, the maps in itertools.product order, taking every trial that
    lowers the value by more than 1e-15, until a full sweep changes
    nothing. Returns (value, picks).
    """
    t_i = spec.teams[team]
    maps = list(itertools.product(range(t_i.actions.size), repeat=t_i.observations.size))

    def value(picks):
        rules = [t_i.obs_kernels[t] @ np.eye(t_i.actions.size)[list(maps[m])] for t, m in enumerate(picks)]
        return _loop_stage_value(spec, team, rules, cost, trans)

    picks = [0] * spec.horizon
    best = value(picks)
    improved = True
    while improved:
        improved = False
        for t in range(spec.horizon):
            for m in range(len(maps)):
                if m == picks[t]:
                    continue
                trial = list(picks)
                trial[t] = m
                v = value(trial)
                if v < best - 1e-15:
                    picks, best = trial, v
                    improved = True
    return best, tuple(picks)


def _philox_stream(seed, episode):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, episode], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pick(weights, r):
    """Index drawn by inverse CDF, weights accumulated in input order."""
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    return min(int(np.searchsorted(cum, r, side="right")), len(cum) - 1)


def summed_inverse_cdf(cum, r):
    """Index drawn by inverse CDF per uniform in r, all comparisons at once:
    how many running sums in cum (..., K) lie at or below it, capped at
    K - 1."""
    return np.minimum((cum <= np.asarray(r)[..., None]).sum(axis=-1), cum.shape[-1] - 1)


def _mean_ci(values):
    """Mean and 99 percent CI halfwidth, both sums exactly rounded."""
    n = len(values)
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, 2.58 * std / math.sqrt(n)


def seat_sample_profile(policy, n, rng):
    """One deterministic profile as n tuples of actions, seat by seat.

    A mixture draws one uniform for its component. Behavioral rules draw
    one block of Y uniforms per seat and pick each observation's action
    from its own row.
    """
    if policy.kind == "mixture":
        comp = _pick([w for w, _ in policy.components], float(rng.random()))
        return [d.actions for d in policy.components[comp][1]]
    bases = list(policy.members) if policy.kind == "product" else [policy.base] * n
    out = []
    for b in bases:
        rows = b.kernel.rows
        draws = rng.random(len(rows))
        out.append(tuple(_pick(rows[y], float(draws[y])) for y in range(len(rows))))
    return out


def episode_mc_cost(spec, team_sizes, p1, p2, team, reps, seed):
    """Monte Carlo team cost one episode at a time: (mean, CI halfwidth).

    Episode e reads the Philox stream keyed by (seed, e): the world point,
    then per team its profile (seat_sample_profile) and its seats'
    observations.
    """
    values = []
    for e in range(reps):
        g = _philox_stream(seed, e)
        w0 = _pick(spec.prior, float(g.random()))
        emps, own = [], None
        for i, policy in enumerate((p1, p2)):
            t, n = spec.teams[i], team_sizes[i]
            profile = seat_sample_profile(policy, n, g)
            ys = g.random(n)
            acts = [profile[s][_pick(t.obs_kernel[w0], float(ys[s]))] for s in range(n)]
            emps.append(np.bincount(acts, minlength=t.actions.size).astype(np.float64) / n)
            if i == team:
                own = acts
        s1 = spec.teams[0].statistic.apply_raw(emps[0])
        s2 = spec.teams[1].statistic.apply_raw(emps[1])
        t = spec.teams[team]
        freq = np.bincount(own, minlength=t.actions.size) / team_sizes[team]
        total = 0.0
        for u in np.flatnonzero(freq):
            total += freq[u] * t.cost.value(w0, int(u), s1, s2)
        values.append(total)
    return _mean_ci(values)


def episode_simulation(spec, team_sizes, seat_pols, reps, seed):
    """Coupled finite-team rollout, one episode and one seat at a time.

    seat_pols[i] lists team i's stage policy per seat. Episode e reads the
    Philox stream keyed by (seed, e) in blocks: the world point, each
    team's initial states, then per stage each team's observations and
    actions, and each team's next states. Costs run over the occupied
    (state, action) cells in order, scalar stage costs times empirical
    masses; flows average the empirical joints per world point in episode
    order. Returns (costs, CI halfwidths, flows[i][t] of shape (W, X, U),
    world counts).
    """
    n_w, horizon = spec.n_world, spec.horizon
    vals = [[], []]
    counts = np.zeros(n_w)
    acc = [np.zeros((n_w, horizon, t.states.size, t.actions.size)) for t in spec.teams]
    for e in range(reps):
        g = _philox_stream(seed, e)
        w0 = _pick(spec.prior, float(g.random()))
        xs = []
        for i, t in enumerate(spec.teams):
            r = g.random(team_sizes[i])
            xs.append([_pick(t.init_kernel[w0], float(v)) for v in r])
        costs = [0.0, 0.0]
        for stage in range(horizon):
            us = []
            for i, t in enumerate(spec.teams):
                ry, ru = g.random(team_sizes[i]), g.random(team_sizes[i])
                acts = []
                for s, x in enumerate(xs[i]):
                    y = _pick(t.obs_kernels[stage][x], float(ry[s]))
                    acts.append(_pick(seat_pols[i][s].kernels[stage].rows[y], float(ru[s])))
                us.append(acts)
            joints = []
            for i, t in enumerate(spec.teams):
                joint = np.zeros((t.states.size, t.actions.size))
                for x, u in zip(xs[i], us[i]):
                    joint[x, u] += 1.0
                joints.append(joint / team_sizes[i])
            stats = [(t.stat_x.apply_raw(j.sum(axis=1)), t.stat_u.apply_raw(j.sum(axis=0))) for t, j in zip(spec.teams, joints)]
            (sx1, su1), (sx2, su2) = stats
            for i, t in enumerate(spec.teams):
                acc[i][w0, stage] += joints[i]
                for x in range(t.states.size):
                    for u in range(t.actions.size):
                        if joints[i][x, u] != 0:
                            costs[i] += joints[i][x, u] * t.stage_cost.value(w0, x, u, sx1, sx2, su1, su2)
            if stage + 1 == horizon:
                break
            for i, t in enumerate(spec.teams):
                r = g.random(team_sizes[i])
                rows = [t.transition.rows_at(stage, x, u, *stats[i]) for x, u in zip(xs[i], us[i])]
                xs[i] = [_pick(row, float(v)) for row, v in zip(rows, r)]
        counts[w0] += 1
        for i in range(2):
            vals[i].append(costs[i])
    stats = [_mean_ci(v) for v in vals]
    flows = [[acc[i][:, stage] / np.maximum(counts, 1.0)[:, None, None] for stage in range(horizon)] for i in range(2)]
    return (stats[0][0], stats[1][0]), (stats[0][1], stats[1][1]), flows, counts


def damped_fixed_point_loops(rows, induce, respond, cfg):
    """damped_fixed_point as it was before it ran on arrays: rows[i] lists
    team i's row matrices, each matrix is damped on its own, and the update
    TV is one tv_distance call per row."""
    from teamfield.core.spaces import tv_distance

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


def static_solver_sweeps(spec, cfg):
    """solve_mf_fixed_point on damped_fixed_point_loops, one matrix per team."""
    from teamfield.mf_static import _equilibria, _profile_from_rows, _soft_response_rows

    rows = []
    for i, t in enumerate(spec.teams):
        if cfg.init_rows is not None:
            rows.append([np.asarray(cfg.init_rows[i], dtype=float).copy()])
        else:
            rows.append([np.full((t.observations.size, t.actions.size), 1.0 / t.actions.size)])
    rows, mf, iterations, settled = damped_fixed_point_loops(
        rows,
        lambda rs: _profile_from_rows(spec, [rs[0][0], rs[1][0]]),
        lambda i, _rows, mf, tau: [_soft_response_rows(spec, i, mf, tau)],
        cfg,
    )
    (eq,) = _equilibria(spec, [rows[0][0][None], rows[1][0][None]], [l[None] for l in mf.laws], iterations)
    eq.converged = settled and max(eq.consistency_residual) < cfg.tol
    return eq


def _world_point_stage_tables(spec, t, joints_t):
    """_stage_tables at stage t one world point at a time, from both teams'
    joints (W, X, U) at that stage."""
    from teamfield.dynamic import _marginals, _stage_tables

    return [_stage_tables(spec, w, t, [_marginals(j[w]) for j in joints_t]) for w in range(spec.n_world)]


def _stacked_team_tables(team, tables):
    """One team's tables stacked over world points from tables[t][w]."""
    cost = [np.stack([c[team] for c, _ in stage]) for stage in tables]
    trans = [None if stage[0][1] is None else np.stack([p[team] for _, p in stage]) for stage in tables]
    return cost, trans


def world_point_tables(spec, team, joints):
    """One team's stage tables filled one (stage, world point) at a time
    from both teams' joints[i][t] of shape (W, X, U), stacked over world
    points: cost[t] (W, X, U) and trans[t] (W, X, U, X), None at the last
    stage."""
    tables = [_world_point_stage_tables(spec, t, [j[t] for j in joints]) for t in range(spec.horizon)]
    return _stacked_team_tables(team, tables)


def _kernel_propagate(spec, pols):
    """Flows of a StagePolicy pair, the stage tables filled one (stage,
    world point) at a time and the flow advanced per world point by a
    running sum over the (state, action) cells; returns flows[i][t] (W, X,
    U) and each team's tables stacked over world points."""
    import functools

    from teamfield.dynamic import _check_stage_policy

    for i in range(2):
        _check_stage_policy(spec, i, pols[i])
    mu = [spec.teams[i].init_kernel.copy() for i in range(2)]
    out = [[], []]
    tables = []
    for t in range(spec.horizon):
        joints_t = [mu[i][:, :, None] * (spec.teams[i].obs_kernels[t] @ pols[i].kernels[t].rows)[None] for i in range(2)]
        for i in range(2):
            out[i].append(joints_t[i])
        tables.append(_world_point_stage_tables(spec, t, joints_t))
        if t + 1 == spec.horizon:
            break
        nxt = [np.zeros_like(mu[0]), np.zeros_like(mu[1])]
        for w, (_, trans) in enumerate(tables[t]):
            for i in range(2):
                flow = joints_t[i][w][:, :, None] * trans[i]
                nxt[i][w] = functools.reduce(np.add, flow.reshape(-1, flow.shape[-1]))
        mu = nxt
    return out, [_stacked_team_tables(i, tables) for i in range(2)]


def dynamic_solver_sweeps(spec, cfg):
    """solve_dynamic_mf_fixed_point as it was before its sweeps ran on
    arrays: every sweep builds per-Kernel StagePolicy objects, fills the
    stage tables one (stage, world point) at a time and answers stage by
    stage on damped_fixed_point_loops; the final residuals refill the
    tables at the flows. Returns (rows, flows, br residuals, consistency
    residuals, iterations, converged, br_exhaustive), rows[i] a list of
    stage matrices and flows[i][t] of shape (W, X, U)."""
    from teamfield.core.spaces import tv_distance
    from teamfield.dynamic import (
        DYN_BR_BUDGET,
        StagePolicy,
        _best_response,
        _check_stage_policy,
        _policy_values,
    )
    from teamfield.mf_static import softmin_rows

    def respond(i, rows_i, field, tau):
        flows, tables = field
        t_i = spec.teams[i]
        q = [None] * spec.horizon
        laws = [(t_i.obs_kernels[t] @ rows_i[t])[None] for t in range(spec.horizon)]
        _policy_values(spec, i, laws, *tables[i], q)
        out = []
        for t, obs in enumerate(t_i.obs_kernels[: spec.horizon]):
            weight = spec.prior[:, None] * flows[i][t].sum(axis=-1)
            score = obs.T @ (weight[..., None] * q[t][0]).sum(axis=0)
            out.append(softmin_rows(score, obs.T @ weight.sum(axis=0), tau))
        return out

    def team_tv(a, b, i):
        return max(tv_distance(x[w].ravel(), y[w].ravel()) for x, y in zip(a[i], b[i]) for w in range(spec.n_world))

    pols = [StagePolicy.uniform(spec, i) for i in range(2)]
    if cfg.init_rows is not None:
        pols = [StagePolicy.from_rows(cfg.init_rows[i]) for i in range(2)]
        for i in range(2):
            _check_stage_policy(spec, i, pols[i])
    rows, (flows, _), iterations, settled = damped_fixed_point_loops(
        [[k.rows for k in p.kernels] for p in pols],
        lambda rs: _kernel_propagate(spec, (StagePolicy.from_rows(rs[0]), StagePolicy.from_rows(rs[1]))),
        respond,
        cfg,
    )
    induced, _ = _kernel_propagate(spec, (StagePolicy.from_rows(rows[0]), StagePolicy.from_rows(rows[1])))
    consistency = tuple(team_tv(flows, induced, i) for i in range(2))
    br, exhaustive = [], True
    for i in range(2):
        t_i = spec.teams[i]
        laws = [(t_i.obs_kernels[t] @ rows[i][t])[None] for t in range(spec.horizon)]
        cur = float(_policy_values(spec, i, laws, *world_point_tables(spec, i, flows))[0])
        res = _best_response(spec, i, *world_point_tables(spec, i, flows), DYN_BR_BUDGET)
        br.append(cur - res.value)
        exhaustive = exhaustive and res.exhaustive
    converged = settled and max(consistency) < cfg.tol
    return rows, flows, tuple(br), consistency, iterations, converged, exhaustive
