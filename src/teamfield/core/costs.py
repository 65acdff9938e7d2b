"""Cost and transition families.

Costs take the world point, one decision maker's action, and the statistic
values of both teams' measures. Static families depend only on a scalar
view of the statistics and are evaluated a table at a time: ``table``
takes arrays of scalar statistics and returns every action's cost on a
trailing action axis, which the mean-field costs, the finite-team cost
tensors, the Monte Carlo episodes and the validator all read. For an
identity statistic the scalar view is the index mean of the measure, which
coincides with the mean-embedding value under the embedding
(0, 1, ..., n-1).

Stage costs and transitions are evaluated a table at a time: ``table``
takes statistics with leading key axes (one key per row of statistics)
and returns the stage costs over every (state, action), or the rows of
the controlled kernel over every (state, action, next state). A
transition may read the same statistics, which is how the mean-field
coupling enters the dynamics. The scalar ``value`` and ``rows_at`` of
every family read one entry of a table.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

__all__ = [
    "scalar_view",
    "make_static_cost",
    "make_stage_cost",
    "make_transition",
    "TableCost",
    "STATIC_COST_FAMILIES",
    "DYNAMIC_COST_FAMILIES",
    "TRANSITION_FAMILIES",
]


def scalar_view(s) -> float:
    """Collapse a statistic value to a scalar.

    Scalars pass through. A measure is reduced to its index mean, so a
    Bernoulli action law (1-m, m) becomes m.
    """
    return float(_scalar_views(s, 0))


def _vector_view(s, n_keys=None) -> np.ndarray:
    """Measure-valued statistics, with n_keys leading key axes if given."""
    w = np.asarray(getattr(s, "weights", s), dtype=np.float64)
    if w.ndim == 0 or n_keys is not None and w.ndim != n_keys + 1:
        raise ModelError("expected a measure-valued statistic")
    return w


def _scalar_views(s, n_keys: int) -> np.ndarray:
    """scalar_view of every statistic in a batch with n_keys leading key
    axes: one dot product per measure, so a batch matches its members bit
    for bit."""
    w = np.asarray(getattr(s, "weights", s), dtype=np.float64)
    if w.ndim == n_keys:
        return w
    w = np.ascontiguousarray(w)
    return (w[..., None, :] @ np.arange(w.shape[-1], dtype=np.float64)[:, None])[..., 0, 0]


def _actions_last(a: np.ndarray) -> np.ndarray:
    """A view of a with its leading action axis moved last. Tables are built
    action-major, so elementwise work on them runs along the statistics."""
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def _action_gaps(s, n_actions: int) -> np.ndarray:
    """u - s for every action u, on a trailing action axis."""
    s = np.asarray(s, dtype=float)
    return _actions_last(np.arange(n_actions).reshape((-1,) + (1,) * s.ndim) - s)


class _StaticCost:
    """Base for static cost families."""

    name = ""

    def __init__(self, team: int, params: dict):
        self.team = int(team)
        self.params = dict(params)

    def value(self, omega0: int, u: int, s1, s2) -> float:
        return float(self.table(omega0, scalar_view(s1), scalar_view(s2), u + 1)[u])

    def table(self, omega0: int, s1, s2, n_actions: int) -> np.ndarray:
        """Costs of shape (..., n_actions) of the first n_actions actions at
        world point omega0, at scalar statistics s1, s2 broadcast to (...)."""
        raise NotImplementedError

    def _own(self, s1, s2):
        return s1 if self.team == 0 else s2

    def _opponent(self, s1, s2):
        return s2 if self.team == 0 else s1

    def to_dict(self) -> dict:
        return {"family": self.name, "params": dict(self.params)}


class ConstantCost(_StaticCost):
    name = "constant"

    def __init__(self, team, params):
        super().__init__(team, params)
        self.c = float(params.get("value", 0.0))

    def table(self, omega0, s1, s2, n_actions):
        return np.full(np.broadcast_shapes(np.shape(s1), np.shape(s2)) + (n_actions,), self.c)


class TrackOpponentMean(_StaticCost):
    """Quadratic penalty for missing the other team's mean action."""

    name = "track-opponent-mean"

    def table(self, omega0, s1, s2, n_actions):
        return _action_gaps(self._opponent(s1, s2), n_actions) ** 2


class TeamCoordination(_StaticCost):
    """Quadratic penalty for straying from the own team's mean action."""

    name = "team-coordination"

    def table(self, omega0, s1, s2, n_actions):
        return _action_gaps(self._own(s1, s2), n_actions) ** 2


class EvadeOpponentMean(_StaticCost):
    """Reward (as a shifted cost) for moving away from the opponent mean."""

    name = "evade-opponent-mean"

    def __init__(self, team, params):
        super().__init__(team, params)
        self.offset = float(params.get("offset", 1.0))

    def table(self, omega0, s1, s2, n_actions):
        return self.offset - _action_gaps(self._opponent(s1, s2), n_actions) ** 2


class MfMismatchZeroSum(_StaticCost):
    """Pursuit and evasion of the opponent mean in one family.

    Attached to the first team it tracks the second team's mean, attached
    to the second team it runs from the first team's, shifted to stay
    nonnegative on binary actions.
    """

    name = "mf-mismatch-zero-sum"

    def __init__(self, team, params):
        super().__init__(team, params)
        self.offset = float(params.get("offset", 1.0))

    def table(self, omega0, s1, s2, n_actions):
        gap = _action_gaps(self._opponent(s1, s2), n_actions) ** 2
        return gap if self.team == 0 else self.offset - gap


class SpreadCost(_StaticCost):
    """Penalty for sitting at the own team's mean, rewarding dispersion."""

    name = "spread"

    def __init__(self, team, params):
        super().__init__(team, params)
        self.offset = float(params.get("offset", 1.0))

    def table(self, omega0, s1, s2, n_actions):
        return self.offset - np.abs(_action_gaps(self._own(s1, s2), n_actions))


class TableCost(_StaticCost):
    """Dense cost table over a scalar statistic grid, bilinearly interpolated.

    values[omega0][u] is a matrix indexed by the two grids. Queries outside
    the grid hull clamp to the boundary. Both teams must use scalar
    statistics for a table cost to make sense; the validator enforces that.
    """

    name = "table"

    def __init__(self, team: int, grid1, grid2, values):
        super().__init__(team, {})
        self.grid1 = np.asarray(grid1, dtype=np.float64)
        self.grid2 = np.asarray(grid2, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        for g in (self.grid1, self.grid2):
            if g.ndim != 1 or g.size < 1:
                raise ModelError("cost table grids must be nonempty vectors")
            if g.size > 1 and np.any(np.diff(g) <= 0):
                raise ModelError("cost table grids must be strictly increasing")
        if self.values.ndim != 4:
            raise ModelError("cost table values must have shape (world, action, grid1, grid2)")
        if self.values.shape[2:] != (self.grid1.size, self.grid2.size):
            raise ModelError("cost table grid shape mismatch")

    @staticmethod
    def _locate(grid: np.ndarray, x):
        x = np.clip(np.asarray(x, dtype=float), grid[0], grid[-1])
        if grid.size == 1:
            z = np.zeros_like(x, dtype=np.int64)
            return z, z, np.zeros_like(x, dtype=float)
        hi = np.clip(np.searchsorted(grid, x, side="right"), 1, grid.size - 1)
        lo = hi - 1
        t = (x - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, t

    def table(self, omega0, s1, s2, n_actions):
        s1, s2 = np.broadcast_arrays(np.asarray(s1, dtype=float), np.asarray(s2, dtype=float))
        lo1, hi1, t1 = self._locate(self.grid1, s1)
        lo2, hi2, t2 = self._locate(self.grid2, s2)
        v = self.values[omega0]
        u = np.arange(n_actions).reshape((-1,) + (1,) * s1.ndim)
        c00 = v[u, lo1, lo2]
        c01 = v[u, lo1, hi2]
        c10 = v[u, hi1, lo2]
        c11 = v[u, hi1, hi2]
        return _actions_last((1 - t1) * ((1 - t2) * c00 + t2 * c01) + t1 * ((1 - t2) * c10 + t2 * c11))

    def to_dict(self) -> dict:
        return {
            "table": {
                "grid1": [float(v) for v in self.grid1],
                "grid2": [float(v) for v in self.grid2],
                "values": self.values.tolist(),
            }
        }


STATIC_COST_FAMILIES = {
    cls.name: cls
    for cls in (
        ConstantCost,
        TrackOpponentMean,
        TeamCoordination,
        EvadeOpponentMean,
        MfMismatchZeroSum,
        SpreadCost,
    )
}


def make_static_cost(d: dict, team: int):
    """Build a static cost from its JSON form."""
    if "table" in d:
        t = d["table"]
        return TableCost(team, t["grid1"], t["grid2"], t["values"])
    fam = d.get("family")
    if fam not in STATIC_COST_FAMILIES:
        raise ModelError(f"unknown cost family {fam!r}")
    return STATIC_COST_FAMILIES[fam](team, d.get("params", {}))


class _StageCost:
    name = ""

    def __init__(self, team: int, params: dict):
        self.team = int(team)
        self.params = dict(params)

    def value(self, omega0, x, u, sx1, sx2, su1, su2) -> float:
        return float(self.table(omega0, (x + 1, u + 1), sx1, sx2, su1, su2)[x, u])

    def table(self, omega0, shape, sx1, sx2, su1, su2) -> np.ndarray:
        """Stage costs of shape (keys..., X, U) = shape over the first X states
        and U actions, at statistics with the leading key axes keys."""
        raise NotImplementedError

    def needs_identity_state_stat(self) -> bool:
        return False

    def needs_identity_action_stat(self) -> bool:
        return False

    def to_dict(self) -> dict:
        return {"family": self.name, "params": dict(self.params)}


class DynConstantCost(_StageCost):
    name = "constant"

    def __init__(self, team, params):
        super().__init__(team, params)
        self.c = float(params.get("value", 0.0))

    def table(self, omega0, shape, sx1, sx2, su1, su2):
        return np.full(shape, self.c)


class StateIndicatorCost(_StageCost):
    """Unit cost for occupying one designated state."""

    name = "state-indicator"

    def __init__(self, team, params):
        super().__init__(team, params)
        self.state = int(params.get("state", 0))

    def table(self, omega0, shape, sx1, sx2, su1, su2):
        return np.broadcast_to((np.arange(shape[-2]) == self.state)[:, None] * 1.0, shape)


class StateCongestionCost(_StageCost):
    """Own-team state density at the decision maker's current state."""

    name = "congestion"

    def needs_identity_state_stat(self) -> bool:
        return True

    def table(self, omega0, shape, sx1, sx2, su1, su2):
        own = _vector_view(sx1 if self.team == 0 else sx2, len(shape) - 2)
        return np.broadcast_to(own[..., : shape[-2], None], shape)


class ActionCongestionCost(_StageCost):
    """Own-team action density at the chosen action."""

    name = "action-congestion"

    def needs_identity_action_stat(self) -> bool:
        return True

    def table(self, omega0, shape, sx1, sx2, su1, su2):
        own = _vector_view(su1 if self.team == 0 else su2, len(shape) - 2)
        return np.broadcast_to(own[..., None, : shape[-1]], shape)


class StaticActionStageCost(_StageCost):
    """A static cost family read as a stage cost.

    The inner cost sees the world point, the action, and both teams'
    action statistics; the private state plays no role. A horizon-1 game
    built from this family charges exactly what its static counterpart
    does, which is how the two models are cross-checked.
    """

    name = "static-action"

    def __init__(self, team, params):
        super().__init__(team, params)
        self._inner = make_static_cost(dict(params), team)

    def table(self, omega0, shape, sx1, sx2, su1, su2):
        s1, s2 = (_scalar_views(s, len(shape) - 2)[..., None] for s in (su1, su2))
        return np.broadcast_to(self._inner.table(omega0, s1, s2, shape[-1]), shape)


DYNAMIC_COST_FAMILIES = {
    cls.name: cls
    for cls in (
        DynConstantCost,
        StateIndicatorCost,
        StateCongestionCost,
        ActionCongestionCost,
        StaticActionStageCost,
    )
}


def make_stage_cost(d: dict, team: int):
    fam = d.get("family")
    if fam not in DYNAMIC_COST_FAMILIES:
        raise ModelError(f"unknown stage cost family {fam!r}")
    return DYNAMIC_COST_FAMILIES[fam](team, d.get("params", {}))


class _Transition:
    """Base for transition families.

    Each family holds tables of shape (stages, X, U, X): one per stage, or
    one shared by every stage. A statistic-free family's kernel is its
    table; the others read the statistics on top of it.
    """

    name = ""
    statistic_free = True

    def __init__(self, team: int, params: dict, n_states: int, n_actions: int):
        self.team = int(team)
        self.params = dict(params)
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)

    def rows_at(self, t, x, u, sx1, sx2, su1, su2) -> np.ndarray:
        return self.table(t, sx1, sx2, su1, su2)[..., x, u, :]

    def table(self, t, sx1, sx2, su1, su2) -> np.ndarray:
        """Next-state rows of shape (keys..., X, U, X) at stage t, at
        statistics with leading key axes; (X, U, X) when statistic-free.
        Stages past the tables reuse the last one."""
        return self._tables[min(t, len(self._tables) - 1)]

    def raw_rows(self) -> np.ndarray:
        """Underlying tables, one row per (stage, state, action)."""
        return self._tables.reshape(-1, self.n_states)

    def to_dict(self) -> dict:
        return {"family": self.name, "params": dict(self.params)}


class FixedTransition(_Transition):
    """Statistic-free controlled kernel given as a dense table.

    params["rows"] is either one table of shape (states, actions, states)
    shared by every stage or a list of such tables, one per stage.
    """

    name = "fixed"

    def __init__(self, team, params, n_states, n_actions):
        super().__init__(team, params, n_states, n_actions)
        rows = np.asarray(params["rows"], dtype=np.float64)
        if rows.ndim == 3:
            rows = rows[None]
        if rows.ndim != 4 or rows.shape[1:] != (n_states, n_actions, n_states):
            raise ModelError("fixed transition table has the wrong shape")
        self._tables = rows


class StateCopiesAction(_Transition):
    """The next state is exactly the action just taken."""

    name = "state-copies-action"

    def __init__(self, team, params, n_states, n_actions):
        super().__init__(team, params, n_states, n_actions)
        if n_states != n_actions:
            raise ModelError("state-copies-action needs matching state and action counts")
        self._tables = np.tile(np.eye(n_states), (1, n_states, 1, 1))


class MeanFieldMixtureTransition(_Transition):
    """Base kernel tilted toward the own team's current state distribution.

    The next-state row is (1 - weight) * base[x, u] + weight * mu, with mu
    the own-team state flow. Requires the identity state statistic so the
    full flow is visible.
    """

    name = "mean-field-mixture"
    statistic_free = False

    def __init__(self, team, params, n_states, n_actions):
        super().__init__(team, params, n_states, n_actions)
        self.weight = float(params.get("weight", 0.5))
        if not 0.0 <= self.weight <= 1.0:
            raise ModelError("mean-field-mixture weight must lie in [0, 1]")
        base = np.asarray(params["base"], dtype=np.float64)
        if base.shape != (n_states, n_actions, n_states):
            raise ModelError("mean-field-mixture base table has the wrong shape")
        self._tables = base[None]

    def table(self, t, sx1, sx2, su1, su2):
        mu = _vector_view(sx1 if self.team == 0 else sx2)
        return (1.0 - self.weight) * self._tables[0] + self.weight * mu[..., None, None, :]


TRANSITION_FAMILIES = {
    cls.name: cls for cls in (FixedTransition, StateCopiesAction, MeanFieldMixtureTransition)
}


def make_transition(d: dict, team: int, n_states: int, n_actions: int):
    fam = d.get("family")
    if fam not in TRANSITION_FAMILIES:
        raise ModelError(f"unknown transition family {fam!r}")
    return TRANSITION_FAMILIES[fam](team, d.get("params", {}), n_states, n_actions)
