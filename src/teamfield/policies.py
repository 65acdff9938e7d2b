"""Team policy classes and exchangeability tools.

A team of N decision makers can play
  * one behavioral rule shared by everyone, drawn independently
    ("symmetric-iid"),
  * a separate behavioral rule per seat ("product"), or
  * a finite mixture over joint deterministic profiles ("mixture"),
    which is how common randomness is represented.

Mixtures are the closure that symmetrization lives in: spreading each
multiset of seat maps' weight evenly over its n!/prod(c!) seat orders
(Diaconis & Freedman 1980) gives an exchangeable mixture with the same
team cost against any exchangeable opponent. The anticorrelated two-seat
mixture built by ``anticorrelated_pair`` is the standard witness that
exchangeable is strictly weaker than conditionally iid.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core.counts import arrangements
from .core.errors import BudgetError, ModelError
from .core.spaces import Kernel

SUPPORT_CAP = 4096  # most profiles a mixture's joint law may hold


@dataclass(frozen=True, order=True)
class DetPolicy:
    """Deterministic map from observation index to action index, ordered by its actions."""

    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))

    @property
    def n_obs(self) -> int:
        return len(self.actions)

    def act(self, y: int) -> int:
        return self.actions[y]

    def as_kernel(self, n_actions: int) -> Kernel:
        return Kernel.deterministic(self.actions, n_actions)


@dataclass(frozen=True)
class BehavioralPolicy:
    """Stochastic observation-to-action rule."""

    kernel: Kernel

    @classmethod
    def from_rows(cls, rows) -> "BehavioralPolicy":
        return cls(Kernel(rows))

    @classmethod
    def deterministic(cls, det: DetPolicy, n_actions: int) -> "BehavioralPolicy":
        return cls(det.as_kernel(n_actions))

    @property
    def n_obs(self) -> int:
        return self.kernel.n_src

    @property
    def n_actions(self) -> int:
        return self.kernel.n_tgt


@dataclass(frozen=True)
class TeamPolicy:
    kind: str
    base: Optional[BehavioralPolicy] = None
    members: Optional[tuple[BehavioralPolicy, ...]] = None
    components: Optional[tuple[tuple[float, tuple[DetPolicy, ...]], ...]] = None

    @classmethod
    def symmetric_iid(cls, base: BehavioralPolicy) -> "TeamPolicy":
        return cls(kind="symmetric-iid", base=base)

    @classmethod
    def product(cls, members: Sequence[BehavioralPolicy]) -> "TeamPolicy":
        members = tuple(members)
        if not members:
            raise ModelError("product policy needs at least one member")
        for m in members:
            if not isinstance(m, BehavioralPolicy):
                raise ModelError(f"product members must be behavioral rules, got {type(m).__name__}")
        return cls(kind="product", members=members)

    @classmethod
    def mixture(cls, components: Sequence[tuple[float, Sequence[DetPolicy]]]) -> "TeamPolicy":
        comps = tuple((float(w), tuple(profile)) for w, profile in components)
        if not comps:
            raise ModelError("mixture policy needs at least one component")
        n = len(comps[0][1])
        for w, profile in comps:
            if w < -1e-15:
                raise ModelError("mixture weights must be nonnegative")
            if len(profile) != n:
                raise ModelError("mixture profiles must all have the same team size")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ModelError(f"mixture weights sum to {total!r}, not 1")
        return cls(kind="mixture", components=comps)

    @property
    def n_dms(self) -> Optional[int]:
        if self.kind == "product":
            return len(self.members)
        if self.kind == "mixture":
            return len(self.components[0][1])
        return None


def anticorrelated_pair() -> TeamPolicy:
    """Two blind seats forced onto opposite binary actions, fair coin."""
    a = DetPolicy((0,))
    b = DetPolicy((1,))
    return TeamPolicy.mixture([(0.5, (a, b)), (0.5, (b, a))])


def _det_maps_of(b: BehavioralPolicy) -> list[tuple[float, DetPolicy]]:
    """Kuhn decomposition of one behavioral rule into deterministic maps."""
    rows = b.kernel.rows
    out = []
    for choice in itertools.product(range(b.n_actions), repeat=b.n_obs):
        w = 1.0
        for y, u in enumerate(choice):
            w *= rows[y, u]
            if w == 0.0:
                break
        if w > 0.0:
            out.append((w, DetPolicy(choice)))
    return out


def behavioral_to_mixture(b: BehavioralPolicy, n_dms: int) -> TeamPolicy:
    """Expand an iid behavioral team into an equivalent deterministic mixture."""
    if n_dms < 1:
        raise ModelError("team size must be >= 1")
    law = _as_profile_law(TeamPolicy.product([b] * n_dms), SUPPORT_CAP)
    return TeamPolicy.mixture([(w, profile) for profile, w in law.items()])


def _as_profile_law(p: TeamPolicy, max_support: int) -> dict[tuple[DetPolicy, ...], float]:
    """Joint law over deterministic profiles, merging duplicate support points."""
    if p.kind == "mixture":
        pairs = p.components
    elif p.kind == "product":
        per_dm = [_det_maps_of(m) for m in p.members]
        size = math.prod(len(d) for d in per_dm)
        if size > max_support:
            raise BudgetError("mixture support", size, max_support)
        pairs = ((math.prod(pk[0] for pk in picks), tuple(pk[1] for pk in picks)) for picks in itertools.product(*per_dm))
    else:
        raise ModelError("symmetric-iid policies have no finite profile law without a team size")
    law: dict[tuple[DetPolicy, ...], float] = {}
    for w, profile in pairs:
        law[profile] = law.get(profile, 0.0) + w
    return law


def permute_profile(p: TeamPolicy, sigma: Sequence[int]) -> TeamPolicy:
    """Reindex seats so that seat j plays what seat sigma[j] played."""
    if p.kind == "symmetric-iid":
        return p
    n = p.n_dms
    sig = tuple(int(s) for s in sigma)
    if sorted(sig) != list(range(n)):
        raise ModelError(f"not a permutation of {n} seats: {sigma!r}")
    if p.kind == "product":
        return TeamPolicy.product(tuple(p.members[j] for j in sig))
    comps = [(w, tuple(profile[j] for j in sig)) for w, profile in p.components]
    return TeamPolicy.mixture(comps)


def _multisets(law: dict[tuple[DetPolicy, ...], float]) -> list[tuple[dict[DetPolicy, int], int, list[float]]]:
    """Per multiset of seat maps in the profile law: its seats per map in map
    order, its number of seat orders, and the weights of the orders the law carries."""
    groups: dict[tuple[tuple[DetPolicy, int], ...], list[float]] = {}
    for profile, w in law.items():
        groups.setdefault(tuple(sorted(collections.Counter(profile).items())), []).append(w)
    return [(dict(key), arrangements(c for _, c in key), weights) for key, weights in groups.items()]


def _orders(seats: dict[DetPolicy, int]):
    """Each distinct seat order of a multiset given as map -> seats."""
    if not any(seats.values()):
        yield ()
    for d, c in seats.items():
        if c:
            seats[d] -= 1
            yield from ((d,) + rest for rest in _orders(seats))
            seats[d] += 1


def symmetrize(p: TeamPolicy) -> TeamPolicy:
    """Average a team policy over all seat permutations: each multiset's
    weight spread evenly over its seat orders, components sorted.

    The result costs the same as p against any exchangeable opponent, so
    the team optimum can be searched over exchangeable policies only. Its
    support is checked against SUPPORT_CAP before any order is built.
    """
    if p.kind == "symmetric-iid":
        return p
    groups = _multisets(_as_profile_law(p, SUPPORT_CAP))
    support = sum(n for _, n, _ in groups)
    if support > SUPPORT_CAP:
        raise BudgetError("mixture support", support, SUPPORT_CAP)
    comps = []
    for seats, n, ws in groups:
        share = sum(ws) / n
        comps += [(share, order) for order in _orders(seats)]
    comps.sort(key=lambda c: c[1])
    total = sum(w for w, _ in comps)
    return TeamPolicy.mixture([(w / total, profile) for w, profile in comps])


def is_exchangeable(p: TeamPolicy, tol: float = 1e-9) -> bool:
    """Whether the profile law lies within total variation tol of symmetrize(p).

    Each of a multiset's n seat orders gets W/n there, so the distance sums
    |w - W/n| over the orders the law carries and W/n over the rest. It lies
    between half and all of the largest distance from the law to a seat
    permutation of it, and is 0 exactly when that one is.
    """
    if p.kind == "symmetric-iid":
        return True
    tv = 0.0
    for _, n, ws in _multisets(_as_profile_law(p, SUPPORT_CAP)):
        share = sum(ws) / n
        tv += sum(abs(w - share) for w in ws) + (n - len(ws)) * share
    return 0.5 * tv <= tol


def _inverse_cdf(cum: np.ndarray, r) -> np.ndarray:
    """Index drawn by inverse CDF per uniform in r: how many running sums
    in cum (..., K) lie at or below it, capped at K - 1. The leading axes
    of cum broadcast against those of r.

    It compares r with the first K - 1 running sums only, one slice at a
    time, which is the cap: running sums of nonnegative rows do not
    decrease, so the count reaches K - 1 exactly where a count over all K
    would reach K - 1 or K.
    """
    r = np.asarray(r)
    zero = np.zeros(np.broadcast_shapes(cum.shape[:-1], r.shape), dtype=np.int64)
    return functools.reduce(np.add, (cum[..., j] <= r for j in range(cum.shape[-1] - 1)), zero)


def _profile_sampler(p: TeamPolicy, n_dms: int, n_obs: int, n_actions: int):
    """Sampler of the policy's deterministic profiles for n_dms seats with
    n_obs observations and n_actions actions.

    Returns (width, draw): draw(r) realizes one profile per row of
    uniforms r (..., width) as seat maps (..., n_dms, n_obs). A mixture
    reads one uniform and picks a component by inverse CDF over its
    weights in order, which is the randomness its seats share. Behavioral
    rules read n_dms * n_obs uniforms, seat by seat and observation by
    observation, and draw each action by inverse CDF over its row.
    Realizing the whole map up front agrees in law with acting at the one
    observation a seat gets. Raises ModelError when the policy has
    another seat count or shape.
    """
    if n_dms < 1:
        raise ModelError("team size must be >= 1")
    if p.kind in ("product", "mixture") and p.n_dms != n_dms:
        raise ModelError(f"policy describes {p.n_dms} seats, asked for {n_dms}")
    if p.kind == "mixture":
        maps = [[d.actions for d in profile] for _, profile in p.components]
        if any(len(a) != n_obs or not all(0 <= u < n_actions for u in a) for m in maps for a in m):
            raise ModelError("policy shape mismatch")
        maps = np.array(maps, dtype=np.int64).reshape(len(maps), n_dms, n_obs)
        maps.flags.writeable = False
        cum = np.cumsum(np.asarray([w for w, _ in p.components], dtype=np.float64))
        return 1, lambda r: maps[_inverse_cdf(cum, r[..., 0])]
    rules = p.members if p.kind == "product" else (p.base,)
    if any(b.kernel.rows.shape != (n_obs, n_actions) for b in rules):
        raise ModelError("policy shape mismatch")
    cum = np.cumsum(np.stack([b.kernel.rows for b in rules]), axis=-1)  # (seats or 1, Y, U)
    return n_dms * n_obs, lambda r: _inverse_cdf(cum, r.reshape(r.shape[:-1] + (n_dms, n_obs)))


def sample_profile(p: TeamPolicy, n_dms: int, rng: np.random.Generator) -> list[DetPolicy]:
    """Realize one deterministic profile for a team of n_dms seats.

    A thin wrapper over the sampler mc_cost draws its episodes with, so it
    reads the same uniforms: one for a mixture, which picks a component
    with shared randomness, and n_dms * Y for behavioral rules, seat by
    seat, one per observation. The observation and action counts come
    from the policy.
    """
    if p.kind == "mixture":
        maps = [d.actions for _, profile in p.components for d in profile]
        n_obs, n_actions = len(maps[0]), 1 + max(max(a) for a in maps)
    else:
        n_obs, n_actions = (p.members[0] if p.kind == "product" else p.base).kernel.rows.shape
    width, draw = _profile_sampler(p, n_dms, n_obs, n_actions)
    return [DetPolicy(row) for row in draw(rng.random(width))]


def induced_seat_kernel(p: TeamPolicy, seat: int, n_actions: int) -> Kernel:
    """Marginal behavioral rule of one seat under the policy's profile law."""
    if p.kind == "symmetric-iid":
        return p.base.kernel
    if p.kind == "product":
        return p.members[seat].kernel
    law = _as_profile_law(p, SUPPORT_CAP)
    n_obs = next(iter(law))[seat].n_obs
    rows = np.zeros((n_obs, n_actions))
    for profile, w in law.items():
        for y in range(n_obs):
            rows[y, profile[seat].act(y)] += w
    return Kernel(rows)
