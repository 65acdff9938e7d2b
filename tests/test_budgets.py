"""Work limits: one module constant each, read when the call runs.

Every limit is set by assigning the attribute on the module that defines
it, and no public callable takes a budget argument. The tests check both,
then lower each limit with monkeypatch alone and check that every public
function it bounds honours it: the call raises BudgetError before any
costly work, runs in smaller chunks with the same result, reports a
non-exhaustive search or falls back to Monte Carlo, or, for the
MIN_MC_REPS floor, accepts fewer episodes.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import teamfield
from teamfield import cli, dynamic, finite_n, mf_static, policies
from teamfield.core.errors import BudgetError
from teamfield.dynamic import (
    StagePolicy,
    dynamic_best_response_fixed_flow,
    dynamic_epsilon_estimate,
    exact_dynamic_cost,
    propagate_mf_flow,
    simulate_finite_n,
    solve_dynamic_mf_fixed_point,
)
from teamfield.finite_n import (
    FiniteGameInstance,
    epsilon_ne_certify,
    epsilon_sweep,
    exact_cost,
    mc_cost,
    team_best_response_exact,
)
from teamfield.io import dumps_stable, load_spec, mf_equilibrium_doc
from teamfield.mf_static import SolverConfig, grid_fixed_point_search, mf_exploitability
from teamfield.policies import BehavioralPolicy, TeamPolicy, behavioral_to_mixture, is_exchangeable, symmetrize
from tests._gen import three_signal_spec
from tests._paths import GAMES

LIMITS = {
    "EXACT_ENUMERATION_BUDGET": finite_n,
    "BR_CANDIDATE_BUDGET": finite_n,
    "MIN_MC_REPS": finite_n,
    "MC_DEVIATION_BUDGET": finite_n,
    "SIM_CHUNK_UNIFORMS": finite_n,
    "GRID_CANDIDATE_BUDGET": mf_static,
    "DEVIATION_KERNEL_BUDGET": mf_static,
    "GRID_BLOCK": mf_static,
    "TIE_SCREEN_SIZE": mf_static,
    "DYN_BR_BUDGET": dynamic,
    "DYN_EXACT_CANDIDATE_BUDGET": dynamic,
    "DYN_EXACT_PATH_BUDGET": dynamic,
    "CHAIN_CHUNK_ROWS": dynamic,
    "SUPPORT_CAP": policies,
}

HALF = BehavioralPolicy.from_rows([[0.5, 0.5]])
THREE_SIGNAL_RULE = BehavioralPolicy.from_rows(np.full((3, 2), 0.5))
SPREAD = GAMES / "spread.json"
CROWD = GAMES / "crowd_avoidance.json"


def _teamfield_modules():
    mods = [teamfield]
    for info in pkgutil.walk_packages(teamfield.__path__, "teamfield."):
        if not info.name.endswith("__main__"):
            mods.append(importlib.import_module(info.name))
    return mods


def _is_budget_name(name: str) -> bool:
    return name == "budget" or name.endswith("_budget") or name in ("max_candidates", "max_support")


def test_no_public_callable_takes_a_budget_parameter():
    offenders = []
    for name in teamfield.__all__:
        obj = getattr(teamfield, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue  # BudgetError reports the budget it met; it sets none
        calls = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            methods = [k for k in vars(obj) if not k.startswith("_") and callable(getattr(obj, k))]
            calls += [(f"{name}.{k}", getattr(obj, k)) for k in methods]
        for label, call in calls:
            try:
                params = inspect.signature(call).parameters
            except (TypeError, ValueError):
                continue
            offenders += [f"{label}({p})" for p in params if _is_budget_name(p)]
    assert offenders == []


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_each_limit_constant_lives_in_one_module(name):
    holders = [m.__name__ for m in _teamfield_modules() if hasattr(m, name)]
    assert holders == [LIMITS[name].__name__]


# -- every public function a limit bounds honours the lowered limit -----------


def _raises(what: str, call) -> None:
    with pytest.raises(BudgetError) as info:
        call()
    assert info.value.what == what


def _calls(monkeypatch, module, name: str) -> list:
    """Record each call of module.name and pass it through."""
    seen = []
    inner = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: seen.append(a) or inner(*a, **k))
    return seen


def _half_team() -> TeamPolicy:
    return TeamPolicy.symmetric_iid(HALF)


def _crowd_pair(spec):
    return StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1)


def _static_exact(limit, value, what):
    def check(monkeypatch, capsys):
        spec = load_spec(SPREAD)
        inst = FiniteGameInstance(spec, (2, 2))
        before = epsilon_sweep(spec, (HALF, HALF), [(2, 2)])
        monkeypatch.setattr(finite_n, limit, value)
        _raises(what, lambda: team_best_response_exact(inst, _half_team(), 0))
        _raises(what, lambda: epsilon_ne_certify(inst, _half_team(), _half_team()))
        if limit == "EXACT_ENUMERATION_BUDGET":
            _raises(what, lambda: exact_cost(inst, _half_team(), _half_team(), 0))
            _raises(what, lambda: inst.cost_tensor(0))
        after = epsilon_sweep(spec, (HALF, HALF), [(2, 2)], reps=100, seed=1, deviation_resolution=1.0)
        assert (before[0].method, after[0].method) == ("exact", "monte-carlo")

    return check


def _min_mc_reps(monkeypatch, capsys):
    spec, crowd = load_spec(SPREAD), load_spec(CROWD)
    monkeypatch.setattr(finite_n, "MIN_MC_REPS", 50)
    mc_cost(FiniteGameInstance(spec, (2, 2)), _half_team(), _half_team(), 0, 50, 1)
    rows = epsilon_sweep(three_signal_spec(), (THREE_SIGNAL_RULE,) * 2, [(40, 40)], 50, 5, 1.0)
    assert rows[0].method == "monte-carlo"
    assert len(simulate_finite_n(crowd, (2, 2), _crowd_pair(crowd), 50, 1).costs) == 2
    assert dynamic_epsilon_estimate(crowd, (2, 2), _crowd_pair(crowd), 50, 1, "monte-carlo").method == "monte-carlo"
    assert cli.main(["simulate", "--spec", str(CROWD), "--n", "2", "--reps", "50", "--seed", "1"]) == 0
    assert '"reps": 50,' in capsys.readouterr().out
    assert cli.main(["simulate", "--spec", str(CROWD), "--n", "2", "--reps", "49", "--seed", "1"]) == 1
    assert "--reps must be >= 50" in capsys.readouterr().err


def _sim_chunk_uniforms(monkeypatch, capsys):
    inst, crowd = FiniteGameInstance(load_spec(SPREAD), (4, 4)), load_spec(CROWD)
    pols = _crowd_pair(crowd)
    static_runs = _calls(monkeypatch, finite_n, "_static_episodes")
    dynamic_runs = _calls(monkeypatch, dynamic, "_simulate_episodes")
    whole = (mc_cost(inst, _half_team(), _half_team(), 0, 100, 2), simulate_finite_n(crowd, (3, 3), pols, 100, 2))
    assert (len(static_runs), len(dynamic_runs)) == (1, 1)
    monkeypatch.setattr(finite_n, "SIM_CHUNK_UNIFORMS", 1)  # one episode per chunk
    part = (mc_cost(inst, _half_team(), _half_team(), 0, 100, 2), simulate_finite_n(crowd, (3, 3), pols, 100, 2))
    assert (len(static_runs), len(dynamic_runs)) == (101, 101)
    assert part[0] == whole[0]
    assert (part[1].costs, part[1].ci_halfwidth) == (whole[1].costs, whole[1].ci_halfwidth)


def _grid_candidate_budget(monkeypatch, capsys):
    monkeypatch.setattr(mf_static, "GRID_CANDIDATE_BUDGET", 1)
    _raises("grid candidates", lambda: grid_fixed_point_search(load_spec(SPREAD), 0.5))


def _hit_docs(hits) -> list:
    return [dumps_stable(mf_equilibrium_doc(h)) for h in hits]


def _grid_block(monkeypatch, capsys):
    spec = load_spec(GAMES / "coordination.json")
    blocks = _calls(monkeypatch, mf_static, "_grid_verdicts")
    whole = grid_fixed_point_search(spec, 0.25)
    assert len(blocks) == 2  # one block, both teams
    monkeypatch.setattr(mf_static, "GRID_BLOCK", 1)  # one of team 0's 5 laws per block
    part = grid_fixed_point_search(spec, 0.25)
    assert len(blocks) == 2 + 2 * 5
    assert _hit_docs(part) == _hit_docs(whole)


def _tie_screen_size(monkeypatch, capsys):
    spec = load_spec(GAMES / "coordination.json")
    screens = []
    inner = mf_static._tie_screen
    monkeypatch.setattr(mf_static, "_tie_screen", lambda *a: screens.append(inner(*a)) or screens[-1])
    whole = grid_fixed_point_search(spec, 0.25)
    monkeypatch.setattr(mf_static, "TIE_SCREEN_SIZE", 0)
    part = grid_fixed_point_search(spec, 0.25)
    assert [s is None for s in screens] == [False, False, True, True]
    assert _hit_docs(part) == _hit_docs(whole)


def _dyn_br_budget(monkeypatch, capsys):
    spec = load_spec(CROWD)
    flows = propagate_mf_flow(spec, _crowd_pair(spec))
    cfg = SolverConfig(max_iters=3)
    assert dynamic_best_response_fixed_flow(spec, 0, flows).exhaustive
    assert solve_dynamic_mf_fixed_point(spec, cfg).br_exhaustive
    monkeypatch.setattr(dynamic, "DYN_BR_BUDGET", 1)
    assert not dynamic_best_response_fixed_flow(spec, 0, flows).exhaustive
    assert not solve_dynamic_mf_fixed_point(spec, cfg).br_exhaustive


def _dyn_exact_candidate_budget(monkeypatch, capsys):
    spec = load_spec(CROWD)
    monkeypatch.setattr(dynamic, "DYN_EXACT_CANDIDATE_BUDGET", 1)
    _raises("team 0 deviation multisets", lambda: dynamic_epsilon_estimate(spec, (2, 2), _crowd_pair(spec), mode="exact"))


def _dyn_exact_path_budget(monkeypatch, capsys):
    spec = load_spec(CROWD)
    pols = _crowd_pair(spec)
    monkeypatch.setattr(dynamic, "DYN_EXACT_PATH_BUDGET", 10)
    _raises("exact dynamic chain rows", lambda: exact_dynamic_cost(spec, (2, 2), ([pols[0]] * 2, [pols[1]] * 2), 0))
    _raises("team 0 exact chain rows", lambda: dynamic_epsilon_estimate(spec, (2, 2), pols, mode="exact"))


def _chain_chunk_rows(monkeypatch, capsys):
    spec = load_spec(CROWD)
    chains = _calls(monkeypatch, dynamic, "_chain")
    whole = dynamic_epsilon_estimate(spec, (2, 2), _crowd_pair(spec), mode="exact")
    calls = len(chains)
    monkeypatch.setattr(dynamic, "CHAIN_CHUNK_ROWS", 1)  # one candidate per chain call, one key per contraction
    part = dynamic_epsilon_estimate(spec, (2, 2), _crowd_pair(spec), mode="exact")
    assert len(chains) - calls == 2 + 2 * 10  # each team's base policy once, then 10 multisets per team
    assert calls < 2 + 2 * 10
    assert part.eps == whole.eps


def _support_cap(monkeypatch, capsys):
    product = TeamPolicy.product([HALF, HALF])  # 2 maps a seat, 4 profiles
    assert is_exchangeable(product)
    monkeypatch.setattr(policies, "SUPPORT_CAP", 3)
    _raises("mixture support", lambda: behavioral_to_mixture(HALF, 2))
    _raises("mixture support", lambda: symmetrize(product))
    _raises("mixture support", lambda: is_exchangeable(product))


def _deviation_budget(*whats):
    """The deviation-kernel budgets, by BudgetError `what`: with the limit
    behind each lowered to 1, its call raises before any cost table call
    or simulated episode."""

    def check(monkeypatch, capsys):
        static, crowd = three_signal_spec(), load_spec(CROWD)
        rule = THREE_SIGNAL_RULE
        cases = {
            "sweep deviation kernels": (
                finite_n, "MC_DEVIATION_BUDGET", lambda: epsilon_sweep(static, (rule, rule), [(40, 40)], 100, 5)
            ),
            "dynamic deviation kernels": (
                finite_n,
                "MC_DEVIATION_BUDGET",
                lambda: dynamic_epsilon_estimate(crowd, (16, 16), _crowd_pair(crowd), 100, 3, "monte-carlo"),
            ),
            "deviation kernels": (mf_static, "DEVIATION_KERNEL_BUDGET", lambda: mf_exploitability(static, rule, rule)),
        }
        tables = []
        for team in static.teams + crowd.teams:
            cost = getattr(team, "cost", None) or team.stage_cost
            inner = cost.table
            monkeypatch.setattr(cost, "table", lambda *a, _f=inner, **k: tables.append(1) or _f(*a, **k))
        static_runs = _calls(monkeypatch, finite_n, "_static_episodes")
        dynamic_runs = _calls(monkeypatch, dynamic, "_simulate_episodes")
        for what in whats:
            module, limit, call = cases[what]
            monkeypatch.setattr(module, limit, 1)
            _raises(what, call)
        assert tables == static_runs == dynamic_runs == []

    return check


CHECKS = {
    "EXACT_ENUMERATION_BUDGET": _static_exact("EXACT_ENUMERATION_BUDGET", 1, "exact cost matrix entries"),
    "BR_CANDIDATE_BUDGET": _static_exact("BR_CANDIDATE_BUDGET", 1, "team 0 best-response work"),
    "MIN_MC_REPS": _min_mc_reps,
    "MC_DEVIATION_BUDGET": _deviation_budget("sweep deviation kernels", "dynamic deviation kernels"),
    "SIM_CHUNK_UNIFORMS": _sim_chunk_uniforms,
    "GRID_CANDIDATE_BUDGET": _grid_candidate_budget,
    "DEVIATION_KERNEL_BUDGET": _deviation_budget("deviation kernels"),
    "GRID_BLOCK": _grid_block,
    "TIE_SCREEN_SIZE": _tie_screen_size,
    "DYN_BR_BUDGET": _dyn_br_budget,
    "DYN_EXACT_CANDIDATE_BUDGET": _dyn_exact_candidate_budget,
    "DYN_EXACT_PATH_BUDGET": _dyn_exact_path_budget,
    "CHAIN_CHUNK_ROWS": _chain_chunk_rows,
    "SUPPORT_CAP": _support_cap,
}


def test_every_limit_has_a_check():
    assert sorted(CHECKS) == sorted(LIMITS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_lowering_a_limit_on_its_module_reaches_every_entry_point(monkeypatch, capsys, name):
    CHECKS[name](monkeypatch, capsys)

