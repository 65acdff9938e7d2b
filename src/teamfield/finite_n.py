"""Exact and Monte Carlo evaluation of finite teams, and epsilon certificates.

The exact path works on count classes: a team's cost reads a joint action
profile only through one seat's own action and the team's count vector.
The cost matrix holds the average seat cost at every pair of count
classes. A team's count law is the convolution of its seats' action laws
(observations integrated out), one seat at a time; a mixture is the
weighted sum of its components' convolutions. A deterministic joint
deviation matters only through the multiset of seat maps it uses, so the
joint best response walks those multisets, each extending its parent's
convolution by one seat. Laws live on a dense grid of the first U-1
counts. The test suite pins all of it against a rational-arithmetic
oracle and a profile-by-profile enumerator on small instances.

Certification is against the strongest deviation the theory allows: the
whole team re-optimizes jointly, not seat by seat.

The Monte Carlo path runs chunks of episodes as arrays, episodes on the
leading axis, each episode on its own (seed, episode) stream: one Philox
generator per call, re-keyed per episode. Each team's profile sampler is
built once per call and realizes a chunk's seat maps as one (episodes,
seats, Y) array, so no per-seat objects are made, and the chunk size
never changes a result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core.costs import _scalar_views
from .core.counts import compositions, multiset_step, n_compositions
from .core.errors import BudgetError, ModelError, check_team
from .core.spaces import Kernel
from .core.specs import StaticGameSpec
from .mf_static import kernel_grid
from .policies import BehavioralPolicy, DetPolicy, TeamPolicy, _inverse_cdf, _profile_sampler

EXACT_ENUMERATION_BUDGET = 10_000_000
BR_CANDIDATE_BUDGET = 10_000_000
MIN_MC_REPS = 100
MC_DEVIATION_BUDGET = 20_000
CI_SCALE = 2.58  # normal two-sided 99 percent
SIM_CHUNK_UNIFORMS = 1 << 16  # uniforms per chunk of Monte Carlo episodes


def _episode_streams(seed: int):
    """The (seed, episode) streams of one Monte Carlo call from one generator.

    Returns stream(e), which re-keys the call's Philox generator to
    (seed, e) with counter 0, an empty buffer and no pending 32-bit half,
    the state a Philox generator newly keyed (seed, e) starts in, and
    returns it. Seeded draws outside Monte Carlo read stream(0). A counter-based
    stream is keyed, not seeded, so this gives the same draws without
    building a bit generator, and numpy's entropy draw, per episode. The
    previous episode's generator is reset, so draw from one at a time.
    """
    bits = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    fresh = bits.state
    g = np.random.Generator(bits)

    def stream(episode: int) -> np.random.Generator:
        fresh["state"]["key"][1] = episode
        bits.state = fresh
        return g

    return stream


def _seed_of(rng_or_seed) -> int:
    if isinstance(rng_or_seed, (int, np.integer)):
        return int(rng_or_seed)
    if isinstance(rng_or_seed, np.random.Generator):
        return int(rng_or_seed.integers(0, 2**63 - 1))
    raise ModelError("expected an integer seed or a numpy Generator")


class FiniteGameInstance:
    """A static game together with the two team sizes.

    Count classes and cost matrices are cached on first use; everything
    stored here is immutable after construction.
    """

    def __init__(self, spec: StaticGameSpec, team_sizes: tuple[int, int]):
        n1, n2 = int(team_sizes[0]), int(team_sizes[1])
        if n1 < 1 or n2 < 1:
            raise ModelError("team sizes must be >= 1")
        self.spec = spec
        self.team_sizes = (n1, n2)
        self._classes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cost_tensors: dict[int, np.ndarray] = {}

    def exact_work(self) -> list[tuple[str, int, int]]:
        """What the exact path needs, as (what, required, budget) rows.

        Row 0 is the cost matrix: W * C1 * C2 entries over count classes,
        or W times a team's dense count grid (N+1)^(U-1) if that is larger,
        which takes four or more actions against a much smaller team. Row
        1 + i is team i's best response: multisets of seat maps times its
        count grid times W. Pure arithmetic, nothing is allocated.
        """
        n_w = self.spec.n_world
        classes, grids, multisets = [], [], []
        for t, n in zip(self.spec.teams, self.team_sizes):
            classes.append(n_compositions(n, t.actions.size))
            grids.append((n + 1) ** (t.actions.size - 1))
            multisets.append(n_compositions(n, t.actions.size**t.observations.size))
        rows = [("exact cost matrix entries", n_w * max(classes[0] * classes[1], *grids), EXACT_ENUMERATION_BUDGET)]
        return rows + [(f"team {i} best-response work", multisets[i] * grids[i] * n_w, BR_CANDIDATE_BUDGET) for i in range(2)]

    def check_exact_budget(self, teams: Sequence[int] = ()) -> None:
        """Raise BudgetError if the cost matrix, or a listed team's best response, is over budget."""
        rows = self.exact_work()
        for what, required, budget in [rows[0]] + [rows[1 + i] for i in teams]:
            if required > budget:
                raise BudgetError(what, required, budget)

    def count_classes(self, team: int) -> tuple[np.ndarray, np.ndarray]:
        """The team's count vectors (C, U) and their flat grid positions, the first U-1 counts read base N+1."""
        if team not in self._classes:
            n = self.team_sizes[team]
            counts = compositions(n, self.spec.teams[team].actions.size)
            pos = counts[:, :-1] @ (n + 1) ** np.arange(counts.shape[1] - 2, -1, -1)
            self._classes[team] = (counts, pos)
        return self._classes[team]

    def cost_tensor(self, team: int) -> np.ndarray:
        """C[w, c1, c2]: average seat cost of `team` at every pair of count classes."""
        if team not in self._cost_tensors:
            self.check_exact_budget()
            spec = self.spec
            stats = []
            for i, t in enumerate(spec.teams):
                stats.append(self.count_classes(i)[0] / self.team_sizes[i] @ t.statistic.scalar_weights(t.actions.size))
            s1, s2 = stats[0][:, None], stats[1][None, :]
            own = self.count_classes(team)[0].T / self.team_sizes[team]
            own = own[:, :, None] if team == 0 else own[:, None, :]
            cost = spec.teams[team].cost
            C = np.zeros((spec.n_world, len(stats[0]), len(stats[1])))
            for w in range(spec.n_world):
                values = cost.table(w, s1, s2, len(own))
                for u, f in enumerate(own):  # summed in action order, which fixes the rounding
                    C[w] += f * values[..., u]
            C.flags.writeable = False
            self._cost_tensors[team] = C
        return self._cost_tensors[team]


def _add_seat(law: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Count law after one more independent seat with action law a.

    law ends in k = U-1 grid axes of length g, the counts of actions 0 to
    U-2; a ends in the U actions and matches law's leading axes. Action
    u < U-1 moves mass one step along axis u, the last action leaves the
    grid coordinates as they are.
    """
    k = a.shape[-1] - 1
    g = law.shape[-1] if k else 0
    out = np.zeros(law.shape[: law.ndim - k] + (g + 1,) * k)
    axes = (None,) * k
    out[(Ellipsis,) + (slice(0, g),) * k] = law * a[(Ellipsis, k) + axes]
    for u in range(k):
        box = tuple(slice(1, g + 1) if v == u else slice(0, g) for v in range(k))
        out[(Ellipsis,) + box] += law * a[(Ellipsis, u) + axes]
    return out


def _seat_laws(inst: FiniteGameInstance, p: TeamPolicy, team: int) -> list[tuple[float, list[np.ndarray]]]:
    """The policy as (weight, per-seat action laws given the world point) terms of independent seats."""
    t = inst.spec.teams[team]
    n = inst.team_sizes[team]

    def law_of(kernel_rows) -> np.ndarray:
        if kernel_rows.shape != (t.observations.size, t.actions.size):
            raise ModelError(f"team {team} policy shape mismatch")
        return t.obs_kernel @ kernel_rows

    if p.kind == "symmetric-iid":
        return [(1.0, [law_of(p.base.kernel.rows)] * n)]
    if p.kind == "product":
        if len(p.members) != n:
            raise ModelError(f"team {team} product policy has {len(p.members)} seats, expected {n}")
        return [(1.0, [law_of(m.kernel.rows) for m in p.members])]
    if p.n_dms != n:
        raise ModelError(f"team {team} mixture policy has {p.n_dms} seats, expected {n}")
    return [(w, [law_of(d.as_kernel(t.actions.size).rows) for d in profile]) for w, profile in p.components]


def _count_law(inst: FiniteGameInstance, team: int, seat_laws: Sequence[np.ndarray]) -> np.ndarray:
    """Count law of independent seats on the team's count classes, one row per world point."""
    law = np.ones((inst.spec.n_world,) + (1,) * (inst.spec.teams[team].actions.size - 1))
    for a in seat_laws:
        law = _add_seat(law, a)
    return law.reshape(inst.spec.n_world, -1)[:, inst.count_classes(team)[1]]


def team_profile_law(inst: FiniteGameInstance, p: TeamPolicy, team: int) -> np.ndarray:
    """Law over the team's count classes (columns as in count_classes), one row per world point."""
    return sum(w * _count_law(inst, team, laws) for w, laws in _seat_laws(inst, p, team))


def _class_values(inst: FiniteGameInstance, opponent: TeamPolicy, team: int) -> np.ndarray:
    """D[w, c] = prior_w * C[w] @ L_opp[w]: the team's prior-weighted cost at own class c."""
    L_opp = team_profile_law(inst, opponent, 1 - team)
    sub = "wpq,wq->wp" if team == 0 else "wpq,wp->wq"
    return inst.spec.prior[:, None] * np.einsum(sub, inst.cost_tensor(team), L_opp)


def _contract(law: np.ndarray, values: np.ndarray) -> float:
    """Expected cost of a count law: one dot product per world point, summed exactly."""
    return math.fsum(float(law[w] @ values[w]) for w in range(len(values)))


def exact_cost(inst: FiniteGameInstance, p1: TeamPolicy, p2: TeamPolicy, team: int) -> float:
    """Exact expected average seat cost of one team.

    fsum over world points of prior_w * L1[w] @ C[w] @ L2[w], with L the
    teams' count laws and C the class cost matrix. Equals the full sum
    over the world point, every observation tuple, every mixture
    component and every action tuple.
    """
    check_team(team)
    inst.check_exact_budget()
    own, opp = (p1, p2) if team == 0 else (p2, p1)
    return _contract(team_profile_law(inst, own, team), _class_values(inst, opp, team))


def _team_sampler(inst: FiniteGameInstance, p: TeamPolicy, team: int):
    """The team's profile sampler (see policies._profile_sampler), built once per mc_cost call."""
    t = inst.spec.teams[team]
    try:
        return _profile_sampler(p, inst.team_sizes[team], t.observations.size, t.actions.size)
    except ModelError as e:
        raise ModelError(f"team {team} {e}") from None


def _static_uniforms(inst: FiniteGameInstance, samplers) -> list[int]:
    """Widths of the column blocks a static episode reads from its stream,
    in order: the world point, then per team its profile (samplers holds
    both teams' (width, draw) profile samplers) and its seats' observations."""
    return [1] + [k for (width, _), n in zip(samplers, inst.team_sizes) for k in (width, n)]


def _static_episodes(inst: FiniteGameInstance, samplers, team: int, stream, episodes) -> np.ndarray:
    """Average seat costs of `team` in one chunk of episodes, episodes on the leading axis.

    Each episode draws its whole block of uniforms from stream(e), its
    (seed, episode) stream, in one call and reads the columns in the order
    of _static_uniforms, so an episode gets the same draws alone or in any
    chunk. Costs are read once per world point that occurs; an episode's
    cost is a running sum over the actions its team plays, in action
    order, which fixes the rounding.
    """
    spec = inst.spec
    widths = _static_uniforms(inst, samplers)
    r = np.stack([stream(e).random(sum(widths)) for e in episodes])
    cols = iter(np.split(r, np.cumsum(widths)[:-1], axis=1))
    n_ep = len(r)
    w0 = _inverse_cdf(np.cumsum(spec.prior), next(cols)[:, 0])
    emps = []
    for (_, draw), t, n in zip(samplers, spec.teams, inst.team_sizes):
        maps = draw(next(cols))
        y = _inverse_cdf(np.cumsum(t.obs_kernel, axis=1)[w0][:, None], next(cols))
        u = np.take_along_axis(maps, y[..., None], axis=2)[..., 0]
        cell = np.arange(n_ep)[:, None] * t.actions.size + u
        emps.append(np.bincount(cell.ravel(), minlength=n_ep * t.actions.size).reshape(n_ep, -1) / n)
    s1, s2 = (_scalar_views(t.statistic.apply_raw(e), 1) for t, e in zip(spec.teams, emps))
    cost = spec.teams[team].cost
    freq = emps[team]
    values = np.empty_like(freq)
    for w in np.unique(w0):
        at = w0 == w
        values[at] = cost.table(int(w), s1[at], s2[at], freq.shape[1])
    total = np.zeros(n_ep)
    for u in range(freq.shape[1]):
        total = np.where(freq[:, u] != 0, total + freq[:, u] * values[:, u], total)
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
    so every episode can be replayed on its own; one Philox generator per
    call is re-keyed for each episode. Each team's profiles come from one
    sampler built per call, which checks the policy against the team's
    seats, observations and actions first. Episodes run in chunks of at
    most SIM_CHUNK_UNIFORMS uniforms (one episode when a single one needs
    more), which bounds memory; any chunk size gives the same estimate.
    """
    if reps < MIN_MC_REPS:
        raise ModelError(f"reps must be >= {MIN_MC_REPS}")
    check_team(team)
    stream = _episode_streams(_seed_of(rng))
    samplers = (_team_sampler(inst, p1, 0), _team_sampler(inst, p2, 1))
    per_chunk = max(1, SIM_CHUNK_UNIFORMS // sum(_static_uniforms(inst, samplers)))
    values = []
    for lo in range(0, reps, per_chunk):
        values += _static_episodes(inst, samplers, team, stream, range(lo, min(reps, lo + per_chunk))).tolist()
    return sample_mean_ci(values)


def _det_map_laws(inst: FiniteGameInstance, team: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All deterministic maps for one seat with their induced action laws."""
    t = inst.spec.teams[team]
    maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
    return maps, np.stack([t.obs_kernel @ np.eye(t.actions.size)[list(m)] for m in maps])


def _best_multiset(A: np.ndarray, values: np.ndarray, n: int) -> list[int]:
    """Seats per map of the best multiset of n deterministic seat maps.

    A[m] holds map m's action law per world point, values[w, x] the
    prior-weighted cost at count-grid point x. The last map takes the
    seats the others leave. It plays the last action at every signal, so
    its seats leave the grid point where it is, and a node of j seats on
    the other maps is scored on the grid box [0, j]^(U-1). A node of level
    j + 1 is a node of level j plus one seat on a map no lower than its
    last one (multiset_step), so every multiset is met once and each law
    extends its parent's. Levels stay sorted by seat counts, most seats
    on map 0 first, so equal values go to the lexicographically smallest
    profile in map order.
    """
    M, n_w, n_u = A.shape
    if M == 1:
        return [n]
    k = n_u - 1
    values = values.reshape((n_w,) + (n + 1,) * k)
    law = np.ones((1, n_w) + (1,) * k)
    last = np.zeros(1, dtype=np.int64)
    counts = np.zeros((1, M - 1), dtype=np.int64)
    best = (math.inf, ())
    for j in range(n + 1):
        v = (law * values[(Ellipsis,) + (slice(0, j + 1),) * k]).reshape(len(law), -1).sum(axis=1)
        pick = int(np.argmin(v))
        best = min(best, (float(v[pick]), tuple(-counts[pick])))
        if j == n:
            break
        par, last = multiset_step(last, M - 1)
        law = _add_seat(law[par], A[last])
        counts = counts[par]
        counts[np.arange(len(par)), last] += 1
    head = [-c for c in best[1]]
    return head + [n - sum(head)]


def team_best_response_exact(
    inst: FiniteGameInstance, opponent: TeamPolicy, team: int
) -> tuple[list[DetPolicy], float]:
    """Globally optimal joint deterministic profile against a fixed opponent.

    Searches the multisets of deterministic seat maps over the count
    classes and returns the winner as a profile in map order. Its value
    goes through the same contraction as exact_cost, so a current policy
    with the winner's count law certifies exactly zero.
    """
    check_team(team)
    inst.check_exact_budget((team,))
    values = _class_values(inst, opponent, team)
    maps, A = _det_map_laws(inst, team)
    grid = np.zeros((inst.spec.n_world, (inst.team_sizes[team] + 1) ** (A.shape[2] - 1)))
    grid[:, inst.count_classes(team)[1]] = values
    counts = _best_multiset(A, grid, inst.team_sizes[team])
    picks = [m for m, c in enumerate(counts) for _ in range(c)]
    law = _count_law(inst, team, [A[m] for m in picks])
    return [DetPolicy(maps[m]) for m in picks], _contract(law, values)


@dataclass
class EpsilonReport:
    eps: tuple[float, float]
    best_deviations: tuple[Optional[list[DetPolicy]], Optional[list[DetPolicy]]]
    method: str
    ci_halfwidth: float


def epsilon_ne_certify(inst: FiniteGameInstance, p1: TeamPolicy, p2: TeamPolicy) -> EpsilonReport:
    """Exact epsilon certificate: current cost minus joint best response, per team."""
    eps, devs = [], []
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
            if base[i].n_dms not in (None, n):
                raise ModelError(f"team {i} policy is bound to {base[i].n_dms} seats, row asks for {n}")
        if all(required <= budget for _, required, budget in inst.exact_work()):
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


def sample_team_actions(
    spec: StaticGameSpec, team: int, b: BehavioralPolicy, n: int, omega0: int, rng
) -> np.ndarray:
    """Actions of n iid seats at a fixed world point, for law-of-large-number checks."""
    seed = _seed_of(rng)
    g = _episode_streams(seed)(0)
    t = spec.teams[team]
    y = _inverse_cdf(np.cumsum(t.obs_kernel[omega0]), g.random(n))
    return _inverse_cdf(np.cumsum(b.kernel.rows, axis=1)[y], g.random(n))
