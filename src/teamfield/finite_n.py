"""Exact and Monte Carlo evaluation of finite teams, and epsilon certificates.

The exact path works on action profiles. Given the world point, each
seat's observation integrates out in closed form, leaving a per-seat
action law; a team's profile law is the product (or mixture of products)
of those. Costs depend on a profile only through one seat's action and
the empirical count vector, so cost evaluations are deduplicated by count
class before being expanded to the full profile-indexed tensor. The
resulting sums equal the full observation-by-observation enumeration
exactly, and the test suite pins that against a rational-arithmetic
oracle on small instances.

Certification is against the strongest deviation the theory allows: the
whole team re-optimizes jointly, so the best response is a search over
joint deterministic profiles, not per-seat improvements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core.errors import BudgetError, ModelError
from .core.spaces import Kernel
from .core.specs import StaticGameSpec
from .mf_static import kernel_grid
from .policies import BehavioralPolicy, DetPolicy, TeamPolicy, sample_profile

EXACT_ENUMERATION_BUDGET = 100_000_000
BR_CANDIDATE_BUDGET = 10_000_000
MIN_MC_REPS = 100
MC_DEVIATION_BUDGET = 20_000
CI_SCALE = 2.58  # normal two-sided 99 percent


def _philox(seed: int, episode: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, episode], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _seed_of(rng_or_seed) -> int:
    if isinstance(rng_or_seed, (int, np.integer)):
        return int(rng_or_seed)
    if isinstance(rng_or_seed, np.random.Generator):
        return int(rng_or_seed.integers(0, 2**63 - 1))
    raise ModelError("expected an integer seed or a numpy Generator")


def _draw(cum: np.ndarray, r) -> np.ndarray:
    """Vectorized inverse-CDF draw; cum is the running sum of the weights."""
    idx = np.searchsorted(cum, r, side="right")
    return np.minimum(idx, len(cum) - 1)


class FiniteGameInstance:
    """A static game together with the two team sizes.

    Profile tables and cost tensors are cached on first use; everything
    stored here is immutable after construction.
    """

    def __init__(self, spec: StaticGameSpec, team_sizes: tuple[int, int]):
        n1, n2 = int(team_sizes[0]), int(team_sizes[1])
        if n1 < 1 or n2 < 1:
            raise ModelError("team sizes must be >= 1")
        self.spec = spec
        self.team_sizes = (n1, n2)
        self._tables: dict[int, dict] = {}
        self._cost_tensors: dict[int, np.ndarray] = {}

    def n_profiles(self, team: int) -> int:
        return self.spec.teams[team].actions.size ** self.team_sizes[team]

    def enumeration_count(self) -> int:
        return self.spec.n_world * self.n_profiles(0) * self.n_profiles(1)

    def check_exact_budget(self, budget: int = EXACT_ENUMERATION_BUDGET) -> None:
        count = self.enumeration_count()
        if count > budget:
            raise BudgetError("exact enumeration", count, budget)

    def profile_table(self, team: int) -> dict:
        if team not in self._tables:
            n_u = self.spec.teams[team].actions.size
            n = self.team_sizes[team]
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
            stat = self.spec.teams[team].statistic
            svals = [stat.apply_raw(c.astype(np.float64) / n) for c in classes]
            self._tables[team] = {
                "digits": digits,
                "freq": counts.astype(np.float64) / n,
                "cid": cid,
                "svals": svals,
            }
        return self._tables[team]

    def cost_tensor(self, team: int) -> np.ndarray:
        """C[w, p1, p2]: average seat cost of `team` at every profile pair."""
        if team not in self._cost_tensors:
            self.check_exact_budget()
            spec = self.spec
            tab1, tab2 = self.profile_table(0), self.profile_table(1)
            sv1, sv2 = tab1["svals"], tab2["svals"]
            n_u = spec.teams[team].actions.size
            cost = spec.teams[team].cost
            cval = np.empty((spec.n_world, n_u, len(sv1), len(sv2)))
            for w in range(spec.n_world):
                for u in range(n_u):
                    for a, s1 in enumerate(sv1):
                        for b, s2 in enumerate(sv2):
                            cval[w, u, a, b] = cost.value(w, u, s1, s2)
            gathered = cval[:, :, tab1["cid"], :][:, :, :, tab2["cid"]]
            freq = tab1["freq"] if team == 0 else tab2["freq"]
            sub = "pu,wupq->wpq" if team == 0 else "qu,wupq->wpq"
            C = np.einsum(sub, freq, gathered)
            C.flags.writeable = False
            self._cost_tensors[team] = C
        return self._cost_tensors[team]


def _seat_action_laws(inst: FiniteGameInstance, p: TeamPolicy, team: int) -> Optional[list[np.ndarray]]:
    """Per-seat action laws given the world point, or None for mixtures."""
    spec = inst.spec
    t = spec.teams[team]
    n = inst.team_sizes[team]

    def law_of(kernel_rows) -> np.ndarray:
        if kernel_rows.shape != (t.observations.size, t.actions.size):
            raise ModelError(f"team {team} policy shape mismatch")
        return t.obs_kernel @ kernel_rows

    if p.kind == "symmetric-iid":
        a = law_of(p.base.kernel.rows)
        return [a] * n
    if p.kind == "product":
        if len(p.members) != n:
            raise ModelError(f"team {team} product policy has {len(p.members)} seats, expected {n}")
        return [law_of(m.kernel.rows) for m in p.members]
    return None


def _law_product(seat_laws: Sequence[np.ndarray]) -> np.ndarray:
    """Profile law from independent seats, seat 0 most significant."""
    n_world = seat_laws[0].shape[0]
    law = np.ones((n_world, 1))
    for a in seat_laws:
        law = (law[:, :, None] * a[:, None, :]).reshape(n_world, -1)
    return law


def team_profile_law(inst: FiniteGameInstance, p: TeamPolicy, team: int) -> np.ndarray:
    """Law over the team's joint action profiles, one row per world point."""
    spec = inst.spec
    t = spec.teams[team]
    n = inst.team_sizes[team]
    seat_laws = _seat_action_laws(inst, p, team)
    if seat_laws is not None:
        return _law_product(seat_laws)
    if p.n_dms != n:
        raise ModelError(f"team {team} mixture policy has {p.n_dms} seats, expected {n}")
    law = np.zeros((spec.n_world, inst.n_profiles(team)))
    for w_c, profile in p.components:
        per_seat = [t.obs_kernel @ d.as_kernel(t.actions.size).rows for d in profile]
        law += w_c * _law_product(per_seat)
    return law


def exact_cost(inst: FiniteGameInstance, p1: TeamPolicy, p2: TeamPolicy, team: int) -> float:
    """Exact expected average seat cost of one team.

    Equals the full sum over the world point, every observation tuple,
    every mixture component, and every action tuple; observations are
    integrated seat by seat before profiles are enumerated. World points
    accumulate through an exactly rounded sum.
    """
    if team not in (0, 1):
        raise ModelError(f"team index {team} out of range")
    inst.check_exact_budget()
    L1 = team_profile_law(inst, p1, 0)
    L2 = team_profile_law(inst, p2, 1)
    C = inst.cost_tensor(team)
    return math.fsum(
        float(inst.spec.prior[w]) * float(L1[w] @ C[w] @ L2[w]) for w in range(inst.spec.n_world)
    )


def _episode_cost(inst: FiniteGameInstance, p1, p2, team: int, seed: int, episode: int) -> float:
    spec = inst.spec
    g = _philox(seed, episode)
    w0 = int(_draw(np.cumsum(spec.prior), g.random()))
    teams = (p1, p2)
    emps = []
    own_actions = None
    for i in (0, 1):
        t = spec.teams[i]
        n = inst.team_sizes[i]
        profile = sample_profile(teams[i], n, g)
        y = _draw(np.cumsum(t.obs_kernel[w0]), g.random(n))
        amat = np.asarray([d.actions for d in profile], dtype=np.int64)
        u = amat[np.arange(n), y]
        emps.append(np.bincount(u, minlength=t.actions.size).astype(np.float64) / n)
        if i == team:
            own_actions = u
    s1 = spec.teams[0].statistic.apply_raw(emps[0])
    s2 = spec.teams[1].statistic.apply_raw(emps[1])
    t = spec.teams[team]
    freq = np.bincount(own_actions, minlength=t.actions.size) / inst.team_sizes[team]
    total = 0.0
    for u in np.flatnonzero(freq):
        total += freq[u] * t.cost.value(w0, int(u), s1, s2)
    return total


def sample_mean_ci(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and the 99 percent CI halfwidth of that mean.

    Both sums are exactly rounded (math.fsum), so a long run of small
    episode costs is not swallowed by a few large ones.
    """
    n = len(values)
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return mean, CI_SCALE * std / math.sqrt(n)


def mc_cost(
    inst: FiniteGameInstance,
    p1: TeamPolicy,
    p2: TeamPolicy,
    team: int,
    reps: int,
    rng,
) -> tuple[float, float]:
    """Monte Carlo estimate of one team's cost with a 99 percent CI halfwidth.

    Episode randomness is a counter-based stream keyed by (seed, episode),
    so every episode can be replayed on its own.
    """
    if reps < MIN_MC_REPS:
        raise ModelError(f"reps must be >= {MIN_MC_REPS}")
    if team not in (0, 1):
        raise ModelError(f"team index {team} out of range")
    seed = _seed_of(rng)
    return sample_mean_ci([_episode_cost(inst, p1, p2, team, seed, e) for e in range(reps)])


def _det_map_laws(inst: FiniteGameInstance, team: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All deterministic maps for one seat with their induced action laws."""
    t = inst.spec.teams[team]
    maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
    A = np.empty((len(maps), inst.spec.n_world, t.actions.size))
    for m, choice in enumerate(maps):
        A[m] = t.obs_kernel @ DetPolicy(choice).as_kernel(t.actions.size).rows
    return maps, A


def _candidate_values(inst: FiniteGameInstance, opponent: TeamPolicy, team: int) -> tuple[np.ndarray, list]:
    """Exact team cost for every joint deterministic profile of `team`.

    Candidates are ordered lexicographically: seat 0 varies slowest and
    each seat's maps are ordered as action tuples.
    """
    n = inst.team_sizes[team]
    opp = 1 - team
    maps, A = _det_map_laws(inst, team)
    n_cand = len(maps) ** n
    if n_cand > BR_CANDIDATE_BUDGET:
        raise BudgetError("best-response candidates", n_cand, BR_CANDIDATE_BUDGET)
    L_opp = team_profile_law(inst, opponent, opp)
    C = inst.cost_tensor(team)
    if team == 0:
        D = np.einsum("wpq,wq->wp", C, L_opp)
    else:
        D = np.einsum("wpq,wp->wq", C, L_opp)
    D = inst.spec.prior[:, None] * D
    T = np.ones((1, inst.spec.n_world, 1))
    for _ in range(n):
        T = np.einsum("cwi,mwu->cmwiu", T, A).reshape(T.shape[0] * len(maps), inst.spec.n_world, -1)
    values = np.einsum("cwp,wp->c", T, D)
    return values, maps


def team_best_response_exact(
    inst: FiniteGameInstance, opponent: TeamPolicy, team: int
) -> tuple[list[DetPolicy], float]:
    """Globally optimal joint deterministic profile against a fixed opponent."""
    values, maps = _candidate_values(inst, opponent, team)
    best = int(np.argmin(values))
    n = inst.team_sizes[team]
    M = len(maps)
    picks = []
    rem = best
    for _ in range(n):
        picks.append(rem % M)
        rem //= M
    picks.reverse()
    profile = [DetPolicy(maps[m]) for m in picks]
    return profile, float(values[best])


@dataclass
class EpsilonReport:
    eps: tuple[float, float]
    best_deviations: tuple[Optional[list[DetPolicy]], Optional[list[DetPolicy]]]
    method: str
    ci_halfwidth: float


def epsilon_ne_certify(inst: FiniteGameInstance, p1: TeamPolicy, p2: TeamPolicy) -> EpsilonReport:
    """Exact epsilon certificate: current cost minus joint best response, per team."""
    eps = []
    devs = []
    for i, opp in ((0, p2), (1, p1)):
        cur = exact_cost(inst, p1, p2, i)
        profile, val = team_best_response_exact(inst, opp, i)
        eps.append(cur - val)
        devs.append(profile)
    return EpsilonReport(eps=(eps[0], eps[1]), best_deviations=(devs[0], devs[1]), method="exact", ci_halfwidth=0.0)


@dataclass
class SweepRow:
    n1: int
    n2: int
    eps: tuple[float, float]
    method: str
    ci_halfwidth: float


def _mc_epsilon(cost, base, candidates, reps: int, seed: int) -> tuple[tuple[float, float], float]:
    """Monte Carlo epsilon lower bound over given deviation candidates.

    cost(pair, team, reps, seed) estimates one team's cost under a policy
    pair as (mean, CI halfwidth). Team i's current cost is sampled on seed
    seed + 17*i and its k-th candidate in candidates[i] on seed
    seed + 1_000_000*(i+1) + k; eps_i is the current mean minus the best
    candidate mean. The reported halfwidth combines those two halfwidths
    in quadrature and takes the worse team.
    """
    eps = []
    worst_ci = 0.0
    for i in range(2):
        cur, ci_cur = cost(base, i, reps, seed + 17 * i)
        best = None
        best_ci = 0.0
        for k, cand in enumerate(candidates[i]):
            pair = (cand, base[1]) if i == 0 else (base[0], cand)
            v, ci = cost(pair, i, reps, seed + 1_000_000 * (i + 1) + k)
            if best is None or v < best:
                best, best_ci = v, ci
        eps.append(cur - best)
        worst_ci = max(worst_ci, math.sqrt(ci_cur**2 + best_ci**2))
    return (eps[0], eps[1]), worst_ci


def _static_deviations(
    inst: FiniteGameInstance, base: tuple[TeamPolicy, TeamPolicy], deviation_resolution: float
) -> list[list[TeamPolicy]]:
    """Monte Carlo deviation candidates for both teams.

    Symmetric behavioral rules on a simplex grid, and one seat switching
    to a deterministic map while the rest keep the base rule. Both leave
    the true joint optimum out of reach, which is why the exact path is
    preferred whenever the budget allows.
    """
    steps = round(1.0 / deviation_resolution)
    out = []
    for i, t in enumerate(inst.spec.teams):
        grid = kernel_grid(
            t.observations.size, t.actions.size, steps, MC_DEVIATION_BUDGET, "sweep deviation kernels"
        )
        cands = [TeamPolicy.symmetric_iid(BehavioralPolicy(Kernel(rows))) for rows in grid]
        n = inst.team_sizes[i]
        if base[i].kind == "symmetric-iid" and n > 1:
            for choice in itertools.product(range(t.actions.size), repeat=t.observations.size):
                det = BehavioralPolicy.deterministic(DetPolicy(choice), t.actions.size)
                cands.append(TeamPolicy.product([det] + [base[i].base] * (n - 1)))
        out.append(cands)
    return out


def _as_team_policy(p) -> TeamPolicy:
    if isinstance(p, BehavioralPolicy):
        return TeamPolicy.symmetric_iid(p)
    if isinstance(p, TeamPolicy):
        return p
    raise ModelError(f"expected a team or behavioral policy, got {type(p).__name__}")


def epsilon_sweep(
    spec: StaticGameSpec,
    policies,
    sizes: Sequence[tuple[int, int]],
    reps: int = 400,
    seed: Optional[int] = None,
    deviation_resolution: float = 0.25,
) -> list[SweepRow]:
    """Certify a pair of candidates at a list of team sizes.

    Bare behavioral rules are promoted to symmetric-iid team policies, so
    the same candidate can be instantiated at every size; size-bound
    policies (product, mixture) only fit rows matching their seat count.
    Each row certifies exactly when the budgets allow, else falls back to
    the Monte Carlo lower bound (which then needs a seed).
    """
    base = (_as_team_policy(policies[0]), _as_team_policy(policies[1]))
    rows = []
    for n1, n2 in sizes:
        inst = FiniteGameInstance(spec, (n1, n2))
        for i, n in enumerate((n1, n2)):
            if base[i].n_dms is not None and base[i].n_dms != n:
                raise ModelError(
                    f"team {i} policy is bound to {base[i].n_dms} seats, row asks for {n}"
                )
        exact_ok = inst.enumeration_count() <= EXACT_ENUMERATION_BUDGET
        for i in range(2):
            t = spec.teams[i]
            n_cand = (t.actions.size ** t.observations.size) ** inst.team_sizes[i]
            exact_ok = exact_ok and n_cand <= BR_CANDIDATE_BUDGET
        if exact_ok:
            rep = epsilon_ne_certify(inst, base[0], base[1])
            rows.append(SweepRow(n1, n2, rep.eps, "exact", 0.0))
        else:
            if seed is None:
                raise ModelError("Monte Carlo sweep rows need a seed")
            eps, ci = _mc_epsilon(
                lambda pair, team, r, s: mc_cost(inst, pair[0], pair[1], team, r, s),
                base,
                _static_deviations(inst, base, deviation_resolution),
                reps,
                seed + 31 * (n1 + 7 * n2),
            )
            rows.append(SweepRow(n1, n2, eps, "monte-carlo", ci))
    return rows


def size_pairs(ns: Sequence[int], ratio: float = 1.0) -> list[tuple[int, int]]:
    """Team size pairs (n, round(ratio * n)) for a sweep."""
    if ratio <= 0:
        raise ModelError("ratio must be positive")
    out = []
    for n in ns:
        n1 = int(n)
        if n1 < 1:
            raise ModelError("team sizes must be >= 1")
        out.append((n1, max(1, int(round(n1 * ratio)))))
    return out


def check_exchangeable_br_value(
    inst: FiniteGameInstance, opponent: TeamPolicy, team: int
) -> tuple[float, float]:
    """Best joint deterministic value vs best symmetrized deterministic value.

    The second minimum runs over seat-permutation averages of the same
    candidates, so agreement says restricting the team to exchangeable
    policies costs nothing against an exchangeable opponent.
    """
    values, maps = _candidate_values(inst, opponent, team)
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


def sample_team_actions(
    spec: StaticGameSpec, team: int, b: BehavioralPolicy, n: int, omega0: int, rng
) -> np.ndarray:
    """Actions of n iid seats at a fixed world point, for law-of-large-number checks."""
    seed = _seed_of(rng)
    g = _philox(seed, 0)
    t = spec.teams[team]
    y = _draw(np.cumsum(t.obs_kernel[omega0]), g.random(n))
    cum = np.cumsum(b.kernel.rows, axis=1)
    ru = g.random(n)
    u = (cum[y] <= ru[:, None]).sum(axis=1)
    return np.minimum(u, b.kernel.rows.shape[1] - 1)
