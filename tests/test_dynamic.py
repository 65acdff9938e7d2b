import itertools
import math

import numpy as np
import pytest

from teamfield.core.errors import BudgetError, ModelError
from teamfield.core.specs import DynamicGameSpec, StaticGameSpec, validate_dynamic_spec
from teamfield.dynamic import (
    DYN_EXACT_CANDIDATE_BUDGET,
    DYN_EXACT_PATH_BUDGET,
    DynamicMFEquilibrium,
    StagePolicy,
    dynamic_best_response_fixed_flow,
    dynamic_epsilon_estimate,
    exact_dynamic_cost,
    mf_dynamic_cost,
    propagate_mf_flow,
    simulate_finite_n,
    solve_dynamic_mf_fixed_point,
)
from teamfield.io import load_spec
from teamfield.mf_static import SolverConfig
from tests._gen import bench_dynamic_spec, random_dynamic_spec, random_stage_policy
from tests._oracles import (
    candidate_chain_costs,
    candidate_dynamic_epsilon,
    episode_simulation,
    forward_flow_cost,
    loop_best_response,
    loop_coordinate_descent,
    oracle_chain_cost,
    seat_dynamic_epsilon,
    seat_exact_dynamic_cost,
)
from tests._paths import GAMES

CHAIN = GAMES / "state_copies_action.json"
CROWD = GAMES / "crowd_avoidance.json"


def _chain_policy(spec: DynamicGameSpec, rows) -> StagePolicy:
    return StagePolicy.from_rows([rows] * spec.horizon)


def test_flow_propagation_matches_single_agent_chain():
    # noiseless observations and a cost that reads only the seat's own
    # state make the team flow identical to one agent's chain law
    spec = load_spec(CHAIN)
    rows = [[0.7, 0.3], [0.2, 0.8]]
    pol = _chain_policy(spec, rows)
    flows = propagate_mf_flow(spec, (pol, pol))
    mu = np.array(spec.teams[0].init_kernel[0])
    for t in range(spec.horizon):
        joint = flows.joints[0][t][0]
        want = mu[:, None] * np.array(rows)
        np.testing.assert_allclose(joint, want, atol=1e-15)
        mu = np.array([joint[:, 0].sum(), joint[:, 1].sum()])  # action copies into state


def test_mf_dynamic_cost_matches_chain_oracle():
    spec = load_spec(CHAIN)
    rng = np.random.default_rng(31)
    for _ in range(10):
        raw = rng.random((spec.horizon, 2, 2)) + 0.1
        raw /= raw.sum(axis=2, keepdims=True)
        # observation is the state, so kernel rows are per-state rows
        pol = StagePolicy.from_rows([raw[t] for t in range(spec.horizon)])
        flows = propagate_mf_flow(spec, (pol, pol))
        got = mf_dynamic_cost(spec, 0, pol, flows)
        want = oracle_chain_cost(
            init=spec.teams[0].init_kernel[0],
            action_given_state=[raw[t] for t in range(spec.horizon)],
            stage_cost=lambda t, x, u: 1.0 if x == 1 else 0.0,
            next_rows=lambda t, x, u: [1.0 - u, float(u)],
            horizon=spec.horizon,
        )
        assert got == pytest.approx(want, abs=1e-13)


def test_exact_dynamic_cost_equals_chain_value_when_decoupled():
    # with no mean-field term in cost or transition, the coupled
    # finite-team expectation collapses to the single-seat chain value
    spec = load_spec(CHAIN)
    rows = [[0.7, 0.3], [0.7, 0.3]]
    pol = _chain_policy(spec, rows)
    want = oracle_chain_cost(
        init=spec.teams[0].init_kernel[0],
        action_given_state=[rows, rows],
        stage_cost=lambda t, x, u: 1.0 if x == 1 else 0.0,
        next_rows=lambda t, x, u: [1.0 - u, float(u)],
        horizon=2,
    )
    got = exact_dynamic_cost(spec, (2, 2), ([pol, pol], [pol, pol]), 0)
    assert got == pytest.approx(want, abs=1e-13)
    assert got == pytest.approx(0.6, abs=1e-12)


def test_best_response_at_frozen_flows_is_exhaustive_and_right():
    spec = load_spec(CHAIN)
    pol = _chain_policy(spec, [[0.7, 0.3], [0.7, 0.3]])
    flows = propagate_mf_flow(spec, (pol, pol))
    br = dynamic_best_response_fixed_flow(spec, 0, flows)
    assert br.exhaustive
    # staying in state 0 forever costs only the initial mass at state 1
    assert br.value == pytest.approx(0.3, abs=1e-12)
    for t in range(spec.horizon):
        np.testing.assert_allclose(br.policy.kernels[t].rows, [[1.0, 0.0], [1.0, 0.0]])


def test_coordinate_descent_fallback_is_flagged(monkeypatch):
    import teamfield.dynamic as dynamic

    spec = load_spec(CHAIN)
    pol = _chain_policy(spec, [[0.7, 0.3], [0.7, 0.3]])
    flows = propagate_mf_flow(spec, (pol, pol))
    monkeypatch.setattr(dynamic, "DYN_BR_BUDGET", 3)
    br = dynamic_best_response_fixed_flow(spec, 0, flows)
    assert not br.exhaustive
    # on this instance the greedy pass still finds the optimum
    assert br.value == pytest.approx(0.3, abs=1e-12)


def test_crowd_solver_finds_the_balanced_split():
    spec = load_spec(CROWD)
    eq = solve_dynamic_mf_fixed_point(spec, SolverConfig(smooth_init=1.0))
    assert eq.converged
    assert eq.br_exhaustive
    assert max(eq.br_residual) < 1e-6
    assert max(eq.consistency_residual) < 1e-6
    for i in range(2):
        for t in range(spec.horizon):
            action_law = eq.flows.action_marginal(i, t, 0)
            np.testing.assert_allclose(action_law, [0.5, 0.5], atol=1e-6)


def test_crowd_value_matches_closed_form():
    # one team, blind observations: J(q; m) = const + (1-q)(1-m) + q m per
    # stage, so against the balanced flow every q is a best response
    spec = load_spec(CROWD)

    def sym(q):
        return StagePolicy.from_rows([[[1 - q, q]], [[1 - q, q]]])

    eq = solve_dynamic_mf_fixed_point(spec, SolverConfig(smooth_init=1.0))
    for q in (0.0, 0.25, 0.5, 1.0):
        got = mf_dynamic_cost(spec, 0, sym(q), eq.flows)
        # stage 0 occupancy is pinned at 0.7^2 + 0.3^2 = 0.58; stage 1 costs
        # (1-q)(1-m) + q m = 1/2 at the balanced flow, independent of q
        assert got == pytest.approx(1.08, abs=1e-9)


def test_crowd_grid_cross_check_unique_fixed_point():
    # the one-parameter response map has slope sign(2m - 1); scanning the
    # grid confirms m = 1/2 is the only self-consistent split
    def gain(q, m):
        return (1 - q) * (1 - m) + q * m

    hits = []
    for m in np.arange(0.0, 1.0 + 1e-9, 0.01):
        best = min(gain(q, m) for q in np.arange(0.0, 1.0 + 1e-9, 0.01))
        # m is consistent if playing q = m is a best response
        if gain(m, m) <= best + 1e-12:
            hits.append(round(float(m), 3))
    assert hits == [0.5]


def test_dynamic_solver_honest_on_nonconvergence():
    spec = load_spec(CROWD)
    eq = solve_dynamic_mf_fixed_point(
        spec, SolverConfig(damping=1.0, smooth_init=0.0, max_iters=10)
    )
    assert isinstance(eq, DynamicMFEquilibrium)
    assert not eq.converged


def test_simulation_is_deterministic_and_covers_exact():
    spec = load_spec(CHAIN)
    pol = _chain_policy(spec, [[0.7, 0.3], [0.7, 0.3]])
    a = simulate_finite_n(spec, (2, 2), (pol, pol), reps=300, rng=11)
    b = simulate_finite_n(spec, (2, 2), (pol, pol), reps=300, rng=11)
    assert a.costs == b.costs
    np.testing.assert_array_equal(a.flows[0][0], b.flows[0][0])
    exact = exact_dynamic_cost(spec, (2, 2), ([pol, pol], [pol, pol]), 0)
    assert abs(a.costs[0] - exact) <= a.ci_halfwidth[0]
    with pytest.raises(ModelError):
        simulate_finite_n(spec, (2, 2), (pol, pol), reps=10, rng=11)


def test_simulation_follows_each_seats_stage_rules():
    # blind seats with deterministic rules: every episode's action law is
    # fixed by which seat plays which rule at which stage
    spec = load_spec(CROWD)
    first = StagePolicy.from_rows([[[1.0, 0.0]], [[0.0, 1.0]]])
    second = StagePolicy.from_rows([[[0.0, 1.0]], [[0.0, 1.0]]])
    rep = simulate_finite_n(spec, (2, 3), ([first, second], first), reps=100, rng=4)
    actions = [[rep.flows[i][t][0].sum(axis=0).tolist() for t in range(2)] for i in range(2)]
    assert actions == [[[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]


def _simulation_case(case):
    """A game, team sizes and one stage policy per seat: the bundled games,
    or random chains over W = 1, 2, both transition families and both
    kinds of action statistic."""
    rng = np.random.default_rng(2000 + (case if isinstance(case, int) else len(case)))
    if case in ("crowd", "copies"):
        spec = load_spec(CROWD if case == "crowd" else CHAIN)
    else:
        dims = (2 + case % 2, 2 + (case // 2) % 2, 1 + (case // 3) % 2, 1 + case % 2)
        spec = random_dynamic_spec(rng, *dims, ("fixed", "mean-field-mixture")[(case // 2) % 2], horizon=2 + case % 3)
    sizes = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    seats = [
        [random_stage_policy(rng, spec, i, deterministic=bool(rng.random() < 0.3)) for _ in range(sizes[i])]
        for i in range(2)
    ]
    return spec, sizes, seats


SIMULATION_CASES = ["crowd", "copies", *range(10)]


def test_simulation_cases_cover_worlds_transitions_and_statistics():
    specs = [_simulation_case(case)[0] for case in SIMULATION_CASES]
    assert {s.n_world for s in specs} == {1, 2}
    assert {t.transition.statistic_free for s in specs for t in s.teams} == {True, False}
    assert {t.stat_u.kind for s in specs for t in s.teams} == {"identity", "mean-embedding"}


@pytest.mark.parametrize("case", SIMULATION_CASES)
def test_simulation_matches_the_episode_oracle_bit_for_bit(case):
    spec, sizes, seats = _simulation_case(case)
    rep = simulate_finite_n(spec, sizes, (seats[0], seats[1]), 110, 31)
    costs, ci, flows, counts = episode_simulation(spec, sizes, seats, 110, 31)
    assert rep.costs == costs
    assert rep.ci_halfwidth == ci
    np.testing.assert_array_equal(rep.world_counts, counts)
    for i in range(2):
        for t in range(spec.horizon):
            np.testing.assert_array_equal(rep.flows[i][t], flows[i][t])


@pytest.mark.parametrize("case", ["crowd", 3])
def test_simulation_chunks_change_nothing(monkeypatch, case):
    import teamfield.dynamic as dynamic
    import teamfield.finite_n as finite_n

    spec, sizes, seats = _simulation_case(case)
    whole = simulate_finite_n(spec, sizes, (seats[0], seats[1]), 103, 8)
    per_episode = sum(dynamic._episode_uniforms(spec, sizes))
    assert 103 * per_episode <= finite_n.SIM_CHUNK_UNIFORMS  # the default run is one chunk
    for uniforms in (3 * per_episode + 1, 5):  # 3 episodes per chunk, then 1
        calls = []
        run = dynamic._simulate_episodes
        monkeypatch.setattr(finite_n, "SIM_CHUNK_UNIFORMS", uniforms)
        monkeypatch.setattr(dynamic, "_simulate_episodes", lambda *a: calls.append(len(a[-1])) or run(*a))
        part = simulate_finite_n(spec, sizes, (seats[0], seats[1]), 103, 8)
        monkeypatch.setattr(dynamic, "_simulate_episodes", run)
        assert calls == ([3] * 34 + [1] if uniforms > per_episode else [1] * 103)
        assert (part.costs, part.ci_halfwidth) == (whole.costs, whole.ci_halfwidth)
        np.testing.assert_array_equal(part.world_counts, whole.world_counts)
        for i in range(2):
            np.testing.assert_array_equal(np.stack(part.flows[i]), np.stack(whole.flows[i]))


def test_simulation_builds_one_bit_generator_per_call(monkeypatch):
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or philox(*a, **k))
    spec = load_spec(CROWD)
    pol = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    simulate_finite_n(spec, (4, 4), (pol, pol), 200, 5)
    assert built == [1]


def test_simulated_flows_match_propagated_flows_in_the_large_team_limit():
    spec = load_spec(CROWD)
    pol = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    rep = simulate_finite_n(spec, (200, 200), (pol, pol), reps=100, rng=3)
    flows = propagate_mf_flow(spec, (pol, pol))
    for t in range(spec.horizon):
        got = rep.flows[0][t][0]
        want = flows.joints[0][t][0]
        assert np.abs(got - want).max() < 0.02


def test_dynamic_epsilon_exact_zero_at_the_balanced_split():
    spec = load_spec(CROWD)
    pol = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    rep = dynamic_epsilon_estimate(spec, (2, 2), (pol, pol), mode="exact")
    assert rep.method == "exact"
    assert rep.ci_halfwidth == 0.0
    assert rep.eps[0] >= -1e-12
    assert rep.eps[1] >= -1e-12


def test_dynamic_epsilon_exact_matches_brute_force_on_chain():
    spec = load_spec(CHAIN)
    pol = _chain_policy(spec, [[0.7, 0.3], [0.7, 0.3]])
    rep = dynamic_epsilon_estimate(spec, (2, 2), (pol, pol), mode="exact")
    # each seat saves its own 0.3 expected stage-1 occupancy of state 1
    # plus 0.3 at stage 0 it cannot avoid; best deviation pins action 0
    cur = exact_dynamic_cost(spec, (2, 2), ([pol, pol], [pol, pol]), 0)
    assert cur == pytest.approx(0.6, abs=1e-12)
    assert rep.eps[0] == pytest.approx(0.3, abs=1e-12)


def test_dynamic_epsilon_exact_budget_guard(monkeypatch):
    import teamfield.dynamic as dynamic

    spec = load_spec(CHAIN)
    pol = _chain_policy(spec, [[0.7, 0.3], [0.7, 0.3]])
    monkeypatch.setattr(dynamic, "DYN_EXACT_CANDIDATE_BUDGET", 3)
    with pytest.raises(BudgetError):
        dynamic_epsilon_estimate(spec, (2, 2), (pol, pol), mode="exact")


def test_dynamic_epsilon_mc_needs_seed_and_is_deterministic():
    spec = load_spec(CROWD)
    pol = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    with pytest.raises(ModelError):
        dynamic_epsilon_estimate(spec, (16, 16), (pol, pol), mode="monte-carlo", reps=100)
    a = dynamic_epsilon_estimate(
        spec, (16, 16), (pol, pol), mode="monte-carlo", reps=100, rng=21
    )
    b = dynamic_epsilon_estimate(
        spec, (16, 16), (pol, pol), mode="monte-carlo", reps=100, rng=21
    )
    assert a.eps == b.eps
    assert a.method == "monte-carlo"
    assert a.ci_halfwidth > 0.0


def test_dynamic_epsilon_mc_checks_deviation_budget_before_sampling(monkeypatch):
    import teamfield.dynamic as dynamic

    calls = []
    monkeypatch.setattr(dynamic, "simulate_finite_n", lambda *args: calls.append(args))
    spec = load_spec(CROWD)
    pol = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    with pytest.raises(BudgetError) as info:
        dynamic_epsilon_estimate(
            spec, (16, 16), (pol, pol), mode="monte-carlo", reps=100, rng=3, deviation_resolution=0.005
        )
    assert info.value.required == 201**2
    assert calls == []


def test_stage_policy_shape_validation():
    spec = load_spec(CHAIN)
    with pytest.raises(ModelError):
        propagate_mf_flow(spec, (StagePolicy.from_rows([[[0.5, 0.5]]]),) * 2)  # horizon 1 != 2
    bad = StagePolicy.from_rows([[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0]]])
    with pytest.raises(ModelError):
        propagate_mf_flow(spec, (bad, bad))


def _static_lift(static: StaticGameSpec) -> DynamicGameSpec:
    """Embed a one-shot game as a horizon-1 chain: states mirror the world."""
    doc = static.to_dict()
    teams = []
    for t in doc["teams"]:
        teams.append(
            {
                "states": doc["world"],
                "actions": t["actions"],
                "observations": t["observations"],
                "init_kernel": np.eye(
                    doc["world"] if isinstance(doc["world"], int) else doc["world"]["size"]
                ).tolist(),
                "obs_model": [t["obs_kernel"]],
                "transition": {
                    "family": "fixed",
                    "params": {
                        "rows": [
                            [
                                [
                                    1.0
                                    / (
                                        doc["world"]
                                        if isinstance(doc["world"], int)
                                        else doc["world"]["size"]
                                    )
                                ]
                                * (
                                    doc["world"]
                                    if isinstance(doc["world"], int)
                                    else doc["world"]["size"]
                                )
                                for _ in range(t["actions"])
                            ]
                            for _ in range(
                                doc["world"]
                                if isinstance(doc["world"], int)
                                else doc["world"]["size"]
                            )
                        ]
                    },
                },
                "stat_x": {"kind": "identity"},
                "stat_u": t["statistic"],
                "cost": {"family": "static-action", "params": t["cost"]},
            }
        )
    return DynamicGameSpec.from_dict(
        {
            "kind": "dynamic",
            "horizon": 1,
            "world": doc["world"],
            "prior": doc["prior"],
            "teams": teams,
        }
    )


def test_horizon_one_reproduces_the_one_shot_game():
    from teamfield.finite_n import FiniteGameInstance, epsilon_ne_certify, exact_cost
    from teamfield.mf_static import MeanFieldProfile, mf_cost
    from teamfield.policies import BehavioralPolicy, TeamPolicy

    static = load_spec(GAMES / "mf_mismatch.json")
    dyn = _static_lift(static)

    rows = [[0.35, 0.65]]
    b = BehavioralPolicy.from_rows(rows)
    pol = StagePolicy.from_rows([rows])

    # representative-seat values agree at the matching mean fields
    flows = propagate_mf_flow(dyn, (pol, pol))
    law = np.array([[0.35, 0.65]])
    mf = MeanFieldProfile(laws=(law, law))
    for team in range(2):
        assert mf_dynamic_cost(dyn, team, pol, flows) == pytest.approx(
            mf_cost(static, team, b, mf), abs=1e-12
        )

    # coupled finite teams agree too
    team = TeamPolicy.symmetric_iid(b)
    inst = FiniteGameInstance(static, (2, 2))
    for i in range(2):
        got = exact_dynamic_cost(dyn, (2, 2), ([pol, pol], [pol, pol]), i)
        assert got == pytest.approx(exact_cost(inst, team, team, i), abs=1e-12)

    # and the epsilon certificates coincide
    dyn_rep = dynamic_epsilon_estimate(dyn, (2, 2), (pol, pol), mode="exact")
    stat_rep = epsilon_ne_certify(inst, team, team)
    for i in range(2):
        assert dyn_rep.eps[i] == pytest.approx(stat_rep.eps[i], abs=1e-12)


# -- count-vector chain against the seat-indexed oracle ----------------------


def _seat_mix(rng, spec, team, n):
    """n seat policies: two share a random rule, the rest deterministic or random."""
    shared = random_stage_policy(rng, spec, team)
    pols = [shared, shared][:n]
    while len(pols) < n:
        pols.append(random_stage_policy(rng, spec, team, deterministic=len(pols) % 2 == 0))
    return pols


@pytest.mark.parametrize("game", [CROWD, CHAIN])
@pytest.mark.parametrize("sizes", [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)])
def test_count_chain_matches_seat_oracle_on_bundled_games(game, sizes):
    spec = load_spec(game)
    rng = np.random.default_rng(sum(sizes) + 7 * (game == CHAIN))
    for seats in (
        ([StagePolicy.uniform(spec, 0)] * sizes[0], [StagePolicy.uniform(spec, 1)] * sizes[1]),
        (_seat_mix(rng, spec, 0, sizes[0]), _seat_mix(rng, spec, 1, sizes[1])),
    ):
        for team in range(2):
            got = exact_dynamic_cost(spec, sizes, seats, team)
            assert got == pytest.approx(seat_exact_dynamic_cost(spec, sizes, seats, team), abs=1e-12)


@pytest.mark.parametrize("seed", range(16))
def test_count_chain_matches_seat_oracle_on_random_chains(seed):
    rng = np.random.default_rng(1000 + seed)
    n_x, n_u = 2 + seed % 2, 2 + (seed // 2) % 2
    n_y, n_w = 1 + (seed // 4) % 2, 1 + (seed // 8) % 2
    spec = random_dynamic_spec(rng, n_x, n_u, n_y, n_w, ("fixed", "mean-field-mixture")[seed % 2 ^ (seed // 8) % 2])
    assert validate_dynamic_spec(spec).ok
    sizes = (3, 1) if n_x * n_u == 4 else (2, 1)
    seats = (_seat_mix(rng, spec, 0, sizes[0]), _seat_mix(rng, spec, 1, sizes[1]))
    for team in range(2):
        got = exact_dynamic_cost(spec, sizes, seats, team)
        assert got == pytest.approx(seat_exact_dynamic_cost(spec, sizes, seats, team), abs=1e-12)


@pytest.mark.parametrize(
    "case",
    [
        ("crowd", (2, 2)),
        ("chain", (2, 1)),
        ("random", 3),
        ("random", 4),
        ("random", 5),
    ],
)
def test_exact_epsilon_matches_seat_brute_force(case):
    kind, arg = case
    if kind == "random":
        rng = np.random.default_rng(arg)
        spec = random_dynamic_spec(rng, 2, 2, 1 + arg % 2, 1 + (arg // 4), ("fixed", "mean-field-mixture")[arg % 2])
        sizes = (2, 1)
        pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    else:
        spec = load_spec(CROWD if kind == "crowd" else CHAIN)
        sizes = arg
        pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    rep = dynamic_epsilon_estimate(spec, sizes, pols, mode="exact")
    assert rep.method == "exact"
    assert rep.best_deviations == (None, None)
    want = seat_dynamic_epsilon(spec, sizes, pols)
    for i in range(2):
        assert rep.eps[i] == pytest.approx(want[i], abs=1e-12)


def test_crowd_epsilon_closed_form():
    # the best joint deviation splits the team evenly over the two stage-1
    # states, so eps = floor(N/2)/N^2 for the uniform pair
    spec = load_spec(CROWD)
    pol = StagePolicy.uniform(spec, 0)
    for n in range(2, 13):
        rep = dynamic_epsilon_estimate(spec, (n, n), (pol, pol), mode="exact")
        assert rep.method == "exact"
        for e in rep.eps:
            assert e == pytest.approx((n // 2) / n**2, abs=1e-12)


# -- one-team prefix chains against the joint per-candidate chain they replaced


def _assert_team_chains_match_the_joint_chain(monkeypatch, spec, sizes, pols):
    """Every chain scoring of exact epsilon, the base policy's and each
    deviation chunk's, is within 1e-12 of what the joint per-candidate
    chain returns on the same classes next to the other team's base
    class, and so is the epsilon against the joint chain without chunks.
    Returns the class sizes of the candidate blocks scored."""
    import teamfield.dynamic as dynamic

    costs, groups = dynamic._chain_costs, set()

    def both(spec, team, classes, value, records=None):
        got = costs(spec, team, classes, value, records)
        opp = [(1 - team, sizes[1 - team], law) for _, law in dynamic._team_classes(spec, 1 - team, [pols[1 - team]])]
        want = candidate_chain_costs(spec, team, [(team, k, law) for k, law in classes] + opp)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        groups.add(tuple(k for k, law in classes if len(law) > 1))
        return got

    monkeypatch.setattr(dynamic, "_chain_costs", both)
    eps = dynamic_epsilon_estimate(spec, sizes, pols, mode="exact").eps
    np.testing.assert_allclose(eps, candidate_dynamic_epsilon(spec, sizes, pols), rtol=0, atol=1e-12)
    return groups


# The two tests below keep the names they had when the prefix chain was
# pinned bit for bit to the joint chain; the one-team chains sum in another
# order, so they are pinned to 1e-12.
@pytest.mark.parametrize("game", [CROWD, CHAIN])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prefix_chain_is_bit_identical_to_the_candidate_chain_on_bundled_games(monkeypatch, game, n):
    spec = load_spec(game)
    pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    groups = _assert_team_chains_match_the_joint_chain(monkeypatch, spec, (n, n), pols)
    if n == 3:
        assert {(3,), (2, 1), (1, 1, 1)} <= groups


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_team_chains_match_the_joint_chain_on_crowd(monkeypatch, n):
    spec = load_spec(CROWD)
    pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    _assert_team_chains_match_the_joint_chain(monkeypatch, spec, (n, n), pols)


# (states, observations, world points, horizon, transition, team sizes); two
# actions each. Horizon 3, where prefixes fan out twice, comes first.
PREFIX_CASES = [
    (2, 1, 1, 3, "fixed", (3, 1)),
    (2, 1, 2, 3, "mean-field-mixture", (2, 1)),
    (3, 1, 1, 3, "mean-field-mixture", (1, 1)),
    (2, 2, 1, 3, "fixed", (1, 1)),
    (2, 1, 1, 2, "mean-field-mixture", (3, 2)),
    (2, 1, 2, 2, "fixed", (3, 1)),
    (3, 1, 1, 2, "mean-field-mixture", (2, 1)),
    (3, 1, 2, 2, "fixed", (1, 2)),
    (2, 2, 1, 2, "mean-field-mixture", (2, 1)),
    (2, 2, 2, 2, "fixed", (1, 2)),
    (3, 2, 1, 2, "fixed", (1, 1)),
    (3, 2, 2, 2, "mean-field-mixture", (1, 1)),
]


@pytest.mark.parametrize("case", range(len(PREFIX_CASES)))
def test_prefix_chain_is_bit_identical_to_the_candidate_chain_on_random_games(monkeypatch, case):
    n_x, n_y, n_w, horizon, transition, sizes = PREFIX_CASES[case]
    rng = np.random.default_rng(4000 + case)
    spec = random_dynamic_spec(rng, n_x, 2, n_y, n_w, transition, horizon=horizon)
    assert validate_dynamic_spec(spec).ok
    pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    groups = _assert_team_chains_match_the_joint_chain(monkeypatch, spec, sizes, pols)
    assert (1,) * max(sizes) in groups


# Both transition families, one and two world points and observations,
# two states and actions, horizon 2: each (family, W, Y) at two size pairs,
# so every family meets each of (1, 1), (2, 2), (3, 2) and (2, 3) twice.
_SIZES = [(1, 1), (2, 2), (3, 2), (2, 3)]
TEAM_CHAIN_CASES = [
    (transition, n_w, n_y, _SIZES[(c + d) % 4])
    for c, (transition, n_w, n_y) in enumerate(itertools.product(("fixed", "mean-field-mixture"), (1, 2), (1, 2)))
    for d in range(2)
]


@pytest.mark.parametrize("case", range(len(TEAM_CHAIN_CASES)))
def test_team_chains_match_the_joint_chain_over_families_and_sizes(monkeypatch, case):
    transition, n_w, n_y, sizes = TEAM_CHAIN_CASES[case]
    rng = np.random.default_rng(4100 + case)
    spec = random_dynamic_spec(rng, 2, 2, n_y, n_w, transition)
    pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    _assert_team_chains_match_the_joint_chain(monkeypatch, spec, sizes, pols)


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_team_chains_match_the_joint_chain_on_the_bench_game(monkeypatch, seed):
    # the dynamic benchmark's dyn2 at one seat a team: 81 deviations each
    spec = bench_dynamic_spec(seed, 6, 2)
    pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    groups = _assert_team_chains_match_the_joint_chain(monkeypatch, spec, (1, 1), pols)
    assert groups == {(), (1,)}


# -- batched frozen-flow best response against the policy-by-policy loop ------


@pytest.mark.parametrize("seed", range(6))
def test_frozen_flow_best_response_matches_loop(seed):
    from teamfield.dynamic import _flow_tables

    rng = np.random.default_rng(seed)
    if seed < 2:
        spec = load_spec((CROWD, CHAIN)[seed])
    else:
        spec = random_dynamic_spec(rng, 3, 3, 2, 2, ("fixed", "mean-field-mixture")[seed % 2], horizon=2 + seed % 3)
    pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    flows = propagate_mf_flow(spec, pols)
    for team in range(2):
        br = dynamic_best_response_fixed_flow(spec, team, flows)
        value, picks = loop_best_response(spec, team, *_flow_tables(spec, team, flows))
        assert br.exhaustive
        assert br.value == pytest.approx(value, abs=1e-12)
        t = spec.teams[team]
        maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
        for k, m in zip(br.policy.kernels, picks):
            np.testing.assert_array_equal(k.rows, np.eye(t.actions.size)[list(maps[m])])


def test_frozen_flow_best_response_keeps_the_first_minimum():
    from teamfield.dynamic import _flow_tables

    # blind seats whose stage-1 action is free: every stage-1 map ties, so
    # the lexicographically first one (action 0) must win
    spec = load_spec(CROWD)
    pol = StagePolicy.uniform(spec, 0)
    flows = propagate_mf_flow(spec, (pol, pol))
    br = dynamic_best_response_fixed_flow(spec, 0, flows)
    value, picks = loop_best_response(spec, 0, *_flow_tables(spec, 0, flows))
    assert br.value == pytest.approx(value, abs=1e-12)
    np.testing.assert_array_equal(br.policy.kernels[1].rows, [[1.0, 0.0]])
    assert picks[1] == 0


def _random_frozen_flows(seed):
    """A random coupled spec (1-3 world points, both transition families,
    horizon 2-4) with the flows of a random policy pair."""
    rng = np.random.default_rng(seed)
    spec = random_dynamic_spec(
        rng,
        2 + seed % 2,
        2 + seed // 3 % 2,
        1 + seed // 2 % 2,
        1 + seed % 3,
        ("fixed", "mean-field-mixture")[seed // 6 % 2],
        horizon=2 + seed // 4 % 3,
    )
    pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    return rng, spec, propagate_mf_flow(spec, pols)


@pytest.mark.parametrize("seed", range(12))
def test_mf_dynamic_cost_matches_forward_pass(seed):
    from teamfield.dynamic import _flow_tables

    rng, spec, flows = _random_frozen_flows(seed)
    for team in range(2):
        # a rule other than the one the flows came from
        pol = random_stage_policy(rng, spec, team)
        rules = [spec.teams[team].obs_kernels[t] @ k.rows for t, k in enumerate(pol.kernels)]
        want = forward_flow_cost(spec, team, rules, *_flow_tables(spec, team, flows))
        assert mf_dynamic_cost(spec, team, pol, flows) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_coordinate_descent_matches_loop(monkeypatch, seed):
    import teamfield.dynamic as dynamic
    from teamfield.dynamic import _flow_tables

    _, spec, flows = _random_frozen_flows(seed)
    exhaustive = [dynamic_best_response_fixed_flow(spec, team, flows) for team in range(2)]
    monkeypatch.setattr(dynamic, "DYN_BR_BUDGET", 3)
    for team in range(2):
        br = dynamic_best_response_fixed_flow(spec, team, flows)
        value, picks = loop_coordinate_descent(spec, team, *_flow_tables(spec, team, flows))
        assert not br.exhaustive
        assert br.value == pytest.approx(value, abs=1e-12)
        t = spec.teams[team]
        maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
        for k, m in zip(br.policy.kernels, picks):
            np.testing.assert_array_equal(k.rows, np.eye(t.actions.size)[list(maps[m])])
        assert br.value >= exhaustive[team].value - 1e-12


# -- budgets ------------------------------------------------------------------


def _count_evaluations(monkeypatch, spec):
    calls = []
    for t in spec.teams:
        for obj, name in ((t.stage_cost, "value"), (t.transition, "rows_at"), (t.stage_cost, "table"), (t.transition, "table")):
            inner = getattr(obj, name)
            monkeypatch.setattr(obj, name, lambda *a, _f=inner, **k: calls.append(1) or _f(*a, **k))
    return calls


def test_exact_budgets_raise_before_any_cost_or_transition_call(monkeypatch):
    import teamfield.dynamic as dynamic

    spec = load_spec(CROWD)
    pol = StagePolicy.uniform(spec, 0)
    calls = _count_evaluations(monkeypatch, spec)
    with pytest.raises(BudgetError) as info:
        dynamic_epsilon_estimate(spec, (40, 40), (pol, pol), mode="exact")
    assert info.value.what == "team 0 exact chain rows"
    assert info.value.required > DYN_EXACT_PATH_BUDGET
    # at N=22 the base pair fits, and the deviation chunks' rows and pairs pass the budget
    with pytest.raises(BudgetError) as info:
        dynamic_epsilon_estimate(spec, (22, 22), (pol, pol), mode="exact")
    assert info.value.what == "team 0 exact chain rows"
    with monkeypatch.context() as m, pytest.raises(BudgetError) as info:
        m.setattr(dynamic, "DYN_EXACT_CANDIDATE_BUDGET", 19)
        dynamic_epsilon_estimate(spec, (3, 3), (pol, pol), mode="exact")
    assert (info.value.what, info.value.required) == ("team 0 deviation multisets", 20)
    with monkeypatch.context() as m, pytest.raises(BudgetError):
        m.setattr(dynamic, "DYN_EXACT_PATH_BUDGET", 10)
        exact_dynamic_cost(spec, (3, 3), ([pol] * 3, [pol] * 3), 0)
    assert calls == []
    # the same call inside the budgets does evaluate costs
    exact_dynamic_cost(spec, (3, 3), ([pol] * 3, [pol] * 3), 0)
    assert calls


def test_over_budget_verdict_lists_one_size_group_at_a_time():
    import tracemalloc

    # a deterministic base pair keeps every chain small, so only the
    # deviations pass the budget; listing all C(103, 3) multisets of 100
    # seats at once held 197 MB
    spec = load_spec(CROWD)
    pol = StagePolicy.from_rows([[[1.0, 0.0]], [[1.0, 0.0]]])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            dynamic_epsilon_estimate(spec, (100, 100), (pol, pol), mode="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.what == "team 0 exact chain rows"
    assert peak < 20 * 2**20


def test_chain_work_counts_multisets_and_rows():
    from teamfield.dynamic import _exact_work

    spec = load_spec(CROWD)
    pol = StagePolicy.uniform(spec, 0)
    # 4 deterministic stage policies, 2 stage maps a stage; blind seats put
    # one action per state (2 live cells), the uniform base both actions
    # (4 live cells), and the copy rule never branches, so one pass a
    # stage. Team 0's own chains, per stage:
    # - the base policy: C(5, 3) = 10 configurations;
    # - at N=2 the 10 multisets run in two chunks, one per size group, and
    #   C(k + 1, k) = k + 1 configurations per class. (2,): policies 0-3
    #   share 2 stage-0 prefixes, 3 rows each, and are 4 prefixes of 3
    #   rows at stage 1: 6 + 12. (1, 1): the 6 pairs share 3 stage-0
    #   prefixes (both on map 0, one on each, both on map 1), 2 * 2 rows
    #   each, and are 6 prefixes of 4 rows at stage 1: 12 + 24.
    # So 10 + 18 = 28 stage-0 and 10 + 36 = 46 stage-1 rows, 74 in all.
    # A key is a pair of state and action totals, C(3, 1) * C(3, 1) = 9 of
    # them a team, fewer than the rows of either team's chain at each
    # stage: 2 stages of 9 * 9 pairs contracted. 74 + 162 = 236, where the
    # joint chain counted 740 rows.
    work = _exact_work(spec, (2, 2), (pol, pol))
    assert work[0] == ("team 0 deviation multisets", 10, DYN_EXACT_CANDIDATE_BUDGET)
    assert work[1] == ("team 0 exact chain rows", (28 + 46) + 2 * 9 * 9, DYN_EXACT_PATH_BUDGET)


def test_auto_mode_uses_the_shared_work_helper(monkeypatch):
    import teamfield.dynamic as dynamic

    spec = load_spec(CROWD)
    pol = StagePolicy.uniform(spec, 0)
    assert dynamic_epsilon_estimate(spec, (3, 3), (pol, pol), rng=1, reps=100).method == "exact"
    # crowd fits the row budget up to N=21 (1,994,652 at N=21, 2,535,052 at N=22)
    assert dynamic_epsilon_estimate(spec, (22, 22), (pol, pol), rng=1, reps=100).method == "monte-carlo"
    seen = []
    helper = dynamic._exact_work
    monkeypatch.setattr(dynamic, "_exact_work", lambda *a: seen.append(a) or helper(*a))
    monkeypatch.setattr(dynamic, "DYN_EXACT_PATH_BUDGET", 100)
    rep = dynamic_epsilon_estimate(spec, (3, 3), (pol, pol), rng=1, reps=100)
    assert rep.method == "monte-carlo"
    assert len(seen) == 1


def _dyn2_shaped():
    """3 states, 3 actions, 2 observations and 2 world points with
    mean-field-mixture transitions, at one seat a team: its moves branch."""
    return random_dynamic_spec(np.random.default_rng(6), 3, 3, 2, 2, "mean-field-mixture"), (1, 1)


# random specs with mean-field-mixture transitions, whose moves branch:
# (states, actions, observations, world points), team sizes, horizon
_MIXTURE_CASES = [
    ((2, 2, 1, 1), (2, 2), 2),
    ((2, 2, 2, 1), (2, 1), 2),
    ((3, 2, 1, 2), (1, 2), 2),
    ((2, 3, 1, 1), (2, 2), 2),
    ((3, 2, 1, 1), (3, 1), 2),
    ((2, 2, 1, 2), (2, 2), 3),
    ((2, 2, 2, 2), (1, 1), 3),
    ((3, 3, 1, 1), (1, 2), 2),
]


@pytest.mark.parametrize("case", ["crowd", "chain", "copies", "mixture", "dyn2", *range(len(_MIXTURE_CASES))])
def test_chain_builds_no_more_rows_than_its_budget_counts(monkeypatch, case):
    # per team, the rows whose totals its chains group into keys plus the
    # pairs of keys contracted, and the rows its moves merge together,
    # each stay within the count the budget checks for that team
    import teamfield.dynamic as dynamic

    if case == "mixture":
        rng = np.random.default_rng(8)
        spec, sizes = random_dynamic_spec(rng, 3, 2, 1, 2, "mean-field-mixture"), (2, 1)
    elif case == "dyn2":
        spec, sizes = _dyn2_shaped()
    elif case == "copies":
        spec, sizes = load_spec(CHAIN), (4, 4)
    elif isinstance(case, int):
        shape, sizes, horizon = _MIXTURE_CASES[case]
        spec = random_dynamic_spec(np.random.default_rng(400 + case), *shape, "mean-field-mixture", horizon=horizon)
    else:
        spec, sizes = load_spec(CROWD if case == "crowd" else CHAIN), (4, 3)
    pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    if isinstance(case, int):
        rng = np.random.default_rng(500 + case)
        pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    running, keyed, pairs, grouped = [], [0, 0], [0, 0], [0, 0]
    chain, group = dynamic._chain, dynamic._group

    def tracked_chain(spec, team, classes, stages):
        # chains run one at a time: every row a record carries was keyed
        running.append(team)
        for record in chain(spec, team, classes, stages):
            keyed[team] += len(record[3])
            yield record

    def tracked_group(cols, radices):
        grouped[running[-1]] += len(cols[0])
        return group(cols, radices)

    def counted(i, table):
        def tracked_table(w, shape, *stats):
            pairs[i] += math.prod(shape[:-2])
            return table(w, shape, *stats)

        return tracked_table

    for i, t in enumerate(spec.teams):
        # the exact engine fills cost tables only to contract pairs of keys
        monkeypatch.setattr(t.stage_cost, "table", counted(i, t.stage_cost.table))
    monkeypatch.setattr(dynamic, "_chain", tracked_chain)
    monkeypatch.setattr(dynamic, "_group", tracked_group)
    work = dynamic._exact_work(spec, sizes, pols)
    required = [r for what, r, _ in work if "rows" in what]
    # counted in full: counting stops only past the budget
    assert len(required) == 2 and max(required) <= DYN_EXACT_PATH_BUDGET
    dynamic_epsilon_estimate(spec, sizes, pols, mode="exact")
    for i in range(2):
        assert keyed[i] and pairs[i]
        assert keyed[i] + pairs[i] <= required[i]
        # every keying groups its rows once; the rest are the moves' merges
        assert grouped[i] - keyed[i] <= required[i]


def _sure_opponent_spec():
    """3 states, 2 actions: team 0 moves over a dense fixed table, so
    every one of its (state, action) cells splits; team 1's moves are
    sure."""
    rng = np.random.default_rng(0)
    teams = []
    for i in range(2):
        table = rng.dirichlet(np.ones(3), size=6).reshape(3, 2, 3) if i == 0 else np.eye(3)[np.zeros((3, 2), dtype=int)]
        teams.append(
            {
                "states": 3,
                "actions": 2,
                "observations": 1,
                "init_kernel": rng.dirichlet(np.ones(3), size=1).tolist(),
                "obs_model": [[1.0]] * 3,
                "transition": {"family": "fixed", "params": {"rows": [table.tolist()] * 2}},
                "cost": {"family": "congestion", "params": {}},
                "stat_x": {"kind": "identity"},
                "stat_u": {"kind": "identity"},
            }
        )
    return DynamicGameSpec.from_dict({"kind": "dynamic", "world": 1, "prior": [1.0], "horizon": 2, "teams": teams})


@pytest.mark.parametrize("case", ["dyn2", 0, 1, 2, "sure opponent"])
def test_chain_holds_no_more_rows_at_once_than_its_chunk_bound(monkeypatch, case):
    # every _group input of a chain call, the largest set of rows it holds,
    # stays within its candidates times _held_rows, the bound deviation
    # chunks are sized by
    import teamfield.dynamic as dynamic

    if case == "dyn2":
        spec, sizes = _dyn2_shaped()
        pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    elif case == "sure opponent":
        spec, sizes = _sure_opponent_spec(), (2, 1)
        pols = (StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1))
    else:
        rng = np.random.default_rng(300 + case)
        shape, sizes = [
            ((2, 2, 1, 2, "mean-field-mixture"), (3, 2)),
            ((3, 2, 1, 1, "fixed"), (2, 2)),
            ((2, 2, 2, 1, "mean-field-mixture"), (2, 1)),
        ][case]
        spec = random_dynamic_spec(rng, *shape)
        pols = (random_stage_policy(rng, spec, 0), random_stage_policy(rng, spec, 1))
    assert any(dynamic._moves_branch(spec))
    calls, held = [], []
    chain, group = dynamic._chain, dynamic._group

    def tracked_chain(spec, team, classes, stages):
        held.clear()
        yield from chain(spec, team, classes, stages)
        n = len(stages[0][0])
        calls.append((team, n, max(held), n * dynamic._held_rows(spec, team, classes, dynamic._moves_branch(spec))))

    monkeypatch.setattr(dynamic, "_chain", tracked_chain)
    monkeypatch.setattr(dynamic, "_group", lambda cols, radices: held.append(len(cols[0])) or group(cols, radices))
    dynamic_epsilon_estimate(spec, sizes, pols, mode="exact")
    assert calls
    for _, _, largest, bound in calls:
        assert largest <= bound
    if case == "dyn2":
        # each team's 81 deviations fit one chunk (six at a bound that multiplied by the move passes)
        assert [(team, n) for team, n, _, _ in calls if n > 1] == [(0, 81), (1, 81)]
    if case == "sure opponent":
        # a split's rows before their merge outgrow the product of _class_rows
        # (126 at team 0's base policy: C(7, 5) = 21 count vectors of 2 seats
        # over 6 live cells, times C(4, 2) = 6 over next states), which is
        # why _held_rows counts them
        team, n, largest, _ = calls[0]
        assert (team, n) == (0, 1) and largest > 126
