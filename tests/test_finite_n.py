import itertools

import numpy as np
import pytest

from teamfield.core.errors import BudgetError, ModelError
from teamfield.core.specs import StaticGameSpec
from teamfield.finite_n import (
    FiniteGameInstance,
    epsilon_ne_certify,
    epsilon_sweep,
    exact_cost,
    mc_cost,
    sample_team_actions,
    size_pairs,
    team_best_response_exact,
    team_profile_law,
)
from teamfield.io import load_spec
from teamfield.mf_static import mean_field_action_law
from teamfield.policies import (
    BehavioralPolicy,
    DetPolicy,
    TeamPolicy,
    permute_profile,
)
from tests._gen import random_behavioral, random_static_spec, random_team_policy, three_signal_spec
from tests._oracles import check_exchangeable_br_value, episode_mc_cost, oracle_exact_cost
from tests._paths import GAMES


def _uniform_rule(n_obs: int, n_actions: int) -> BehavioralPolicy:
    return BehavioralPolicy.from_rows(np.full((n_obs, n_actions), 1.0 / n_actions))


def _consensus(spec: StaticGameSpec, team: int, action: int) -> TeamPolicy:
    t = spec.teams[team]
    rows = np.zeros((t.observations.size, t.actions.size))
    rows[:, action] = 1.0
    return TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows(rows))


def test_exact_cost_matches_rational_enumeration_oracle():
    rng = np.random.default_rng(101)
    for _ in range(40):
        spec = random_static_spec(rng)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p1 = random_team_policy(
            rng, spec.teams[0].observations.size, spec.teams[0].actions.size, n1
        )
        p2 = random_team_policy(
            rng, spec.teams[1].observations.size, spec.teams[1].actions.size, n2
        )
        inst = FiniteGameInstance(spec, (n1, n2))
        for team in range(2):
            got = exact_cost(inst, p1, p2, team)
            want = oracle_exact_cost(spec, p1, p2, (n1, n2), team)
            assert got == pytest.approx(want, abs=1e-11), f"team {team}"


def test_exact_cost_invariant_under_seat_permutation():
    rng = np.random.default_rng(55)
    for _ in range(15):
        spec = random_static_spec(rng)
        n = 3
        p1 = random_team_policy(
            rng, spec.teams[0].observations.size, spec.teams[0].actions.size, n
        )
        p2 = random_team_policy(
            rng, spec.teams[1].observations.size, spec.teams[1].actions.size, n
        )
        inst = FiniteGameInstance(spec, (n, n))
        base = [exact_cost(inst, p1, p2, t) for t in range(2)]
        for sigma in itertools.permutations(range(n)):
            q1 = permute_profile(p1, sigma) if p1.kind != "symmetric-iid" else p1
            q2 = permute_profile(p2, sigma) if p2.kind != "symmetric-iid" else p2
            for t in range(2):
                assert exact_cost(inst, q1, q2, t) == pytest.approx(base[t], abs=1e-12)


def test_profile_law_sums_to_one():
    rng = np.random.default_rng(77)
    spec = random_static_spec(rng)
    p = random_team_policy(rng, spec.teams[0].observations.size, spec.teams[0].actions.size, 2)
    inst = FiniteGameInstance(spec, (2, 2))
    L = team_profile_law(inst, p, 0)
    np.testing.assert_allclose(L.sum(axis=1), 1.0, atol=1e-12)


def test_count_law_mass_at_400_seats_and_3_actions():
    rng = np.random.default_rng(78)
    team = {
        "actions": 3,
        "observations": 2,
        "obs_kernel": [[0.7, 0.3], [0.2, 0.8]],
        "statistic": {"kind": "identity"},
        "cost": {"family": "constant", "params": {"value": 1.0}},
    }
    spec = StaticGameSpec.from_dict({"kind": "static", "world": 2, "prior": [0.4, 0.6], "teams": [team, team]})
    inst = FiniteGameInstance(spec, (400, 1))
    counts, _ = inst.count_classes(0)
    assert counts.shape == (80_601, 3)  # C(402, 2) classes
    assert (counts.sum(axis=1) == 400).all()
    L = team_profile_law(inst, TeamPolicy.symmetric_iid(random_behavioral(rng, 2, 3)), 0)
    assert L.shape == (2, 80_601)
    assert (L >= 0.0).all()
    assert np.abs(L.sum(axis=1) - 1.0).max() <= 1e-12


def test_budget_error_comes_before_the_cost_matrix(monkeypatch):
    spec = load_spec(GAMES / "spread.json")
    inst = FiniteGameInstance(spec, (4000, 4000))  # 4001^2 class pairs
    calls = []
    monkeypatch.setattr(FiniteGameInstance, "count_classes", lambda *args: calls.append(args))
    half = _as_team(_uniform_rule(1, 2))
    with pytest.raises(BudgetError) as info:
        exact_cost(inst, half, half, 0)
    assert info.value.required == 4001**2
    with pytest.raises(BudgetError):
        team_best_response_exact(inst, half, 1)
    with pytest.raises(BudgetError):
        inst.cost_tensor(0)
    assert calls == []
    assert inst._cost_tensors == {}


def test_enumeration_budget_guards_exact_path():
    doc = {
        "kind": "static",
        "world": 1,
        "prior": [1.0],
        "teams": [
            {
                "actions": 3,
                "observations": 1,
                "obs_kernel": [[1.0]],
                "statistic": {"kind": "mean-embedding", "embedding": [0.0, 0.5, 1.0]},
                "cost": {"family": "constant", "params": {"value": 1.0}},
            }
        ]
        * 2,
    }
    spec = StaticGameSpec.from_dict(doc)
    inst = FiniteGameInstance(spec, (100, 100))  # 5151^2 count-class pairs
    rule = _uniform_rule(1, 3)
    with pytest.raises(BudgetError):
        exact_cost(inst, TeamPolicy.symmetric_iid(rule), TeamPolicy.symmetric_iid(rule), 0)
    # Monte Carlo has no such ceiling
    mean, ci = mc_cost(
        inst, TeamPolicy.symmetric_iid(rule), TeamPolicy.symmetric_iid(rule), 0, 100, 9
    )
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_best_response_candidate_budget():
    spec = three_signal_spec()
    inst = FiniteGameInstance(spec, (40, 1))  # C(47, 7) multisets of 8 seat maps
    with pytest.raises(BudgetError):
        team_best_response_exact(inst, _as_team(_uniform_rule(3, 2)), 0)


def _as_team(b: BehavioralPolicy) -> TeamPolicy:
    return TeamPolicy.symmetric_iid(b)


def test_best_response_matches_oracle_brute_force():
    rng = np.random.default_rng(303)
    for _ in range(8):
        spec = random_static_spec(rng)
        n = 2
        opp = random_team_policy(
            rng, spec.teams[1].observations.size, spec.teams[1].actions.size, n
        )
        inst = FiniteGameInstance(spec, (n, n))
        profile, value = team_best_response_exact(inst, opp, 0)
        t = spec.teams[0]
        maps = list(itertools.product(range(t.actions.size), repeat=t.observations.size))
        brute = min(
            oracle_exact_cost(
                spec,
                TeamPolicy.mixture([(1.0, tuple(DetPolicy(c) for c in combo))]),
                opp,
                (n, n),
                0,
            )
            for combo in itertools.product(maps, repeat=n)
        )
        assert value == pytest.approx(brute, abs=1e-11)
        # the returned profile achieves the reported value
        achieved = exact_cost(
            inst, TeamPolicy.mixture([(1.0, tuple(profile))]), opp, 0
        )
        assert achieved == pytest.approx(value, abs=1e-12)


def test_best_response_ties_go_to_the_first_profile_in_map_order():
    # the second signal never arrives, so maps agreeing on the first one tie
    # exactly; the search must return the same profile as a seat-by-seat scan
    team = {
        "actions": 2,
        "observations": 2,
        "obs_kernel": [[1.0, 0.0]],
        "statistic": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
        "cost": {"family": "team-coordination"},
    }
    spec = StaticGameSpec.from_dict({"kind": "static", "world": 1, "prior": [1.0], "teams": [team, team]})
    inst = FiniteGameInstance(spec, (3, 3))
    profile, value = team_best_response_exact(inst, _consensus(spec, 1, 0), 0)
    assert value == 0.0
    assert profile == [DetPolicy((0, 0))] * 3


def test_mismatch_equilibrium_certifies_zero_at_small_and_large_n():
    spec = load_spec(GAMES / "mf_mismatch.json")
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    for n in (2, 8):
        rep = epsilon_ne_certify(FiniteGameInstance(spec, (n, n)), half, half)
        assert rep.method == "exact"
        assert rep.eps[0] == 0.0
        assert rep.eps[1] == 0.0


def test_spread_epsilon_decays_harmonically():
    # one fewer than the full-support count of own-team mass at the seat's
    # action is lost to the seat itself, giving eps = 0.5 / N exactly
    spec = load_spec(GAMES / "spread.json")
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    for n, want in ((2, 0.25), (4, 0.125), (8, 0.0625), (40, 0.0125), (400, 0.00125)):
        rep = epsilon_ne_certify(FiniteGameInstance(spec, (n, n)), half, half)
        assert rep.eps[0] == pytest.approx(want, abs=1e-12)
        assert rep.eps[1] == pytest.approx(want, abs=1e-12)


def test_consensus_is_exactly_optimal_in_coordination():
    spec = load_spec(GAMES / "coordination.json")
    for n in (2, 3, 4):
        inst = FiniteGameInstance(spec, (n, n))
        rep = epsilon_ne_certify(inst, _consensus(spec, 0, 0), _consensus(spec, 1, 0))
        assert rep.eps == (0.0, 0.0)


def test_mixed_center_is_not_a_finite_team_equilibrium():
    spec = load_spec(GAMES / "coordination.json")
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    rep = epsilon_ne_certify(FiniteGameInstance(spec, (2, 2)), half, half)
    assert rep.eps[0] == pytest.approx(0.125, abs=1e-12)
    assert rep.eps[1] == pytest.approx(0.125, abs=1e-12)


def test_epsilon_report_nonnegative_on_random_instances():
    rng = np.random.default_rng(909)
    for _ in range(10):
        spec = random_static_spec(rng)
        n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        p1 = random_team_policy(
            rng, spec.teams[0].observations.size, spec.teams[0].actions.size, n1
        )
        p2 = random_team_policy(
            rng, spec.teams[1].observations.size, spec.teams[1].actions.size, n2
        )
        rep = epsilon_ne_certify(FiniteGameInstance(spec, (n1, n2)), p1, p2)
        assert rep.eps[0] >= -1e-12
        assert rep.eps[1] >= -1e-12


def test_mc_cost_is_deterministic_and_consistent():
    spec = load_spec(GAMES / "mf_mismatch.json")
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    inst = FiniteGameInstance(spec, (3, 3))
    a = mc_cost(inst, half, half, 0, 200, 42)
    b = mc_cost(inst, half, half, 0, 200, 42)
    assert a == b
    exact = exact_cost(inst, half, half, 0)
    mean, ci = a
    assert abs(mean - exact) <= ci
    with pytest.raises(ModelError):
        mc_cost(inst, half, half, 0, 50, 42)


def test_mc_ci_covers_exact_on_random_instances():
    rng = np.random.default_rng(4242)
    misses = 0
    total = 0
    for k in range(12):
        spec = random_static_spec(rng)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p1 = random_team_policy(
            rng, spec.teams[0].observations.size, spec.teams[0].actions.size, n1
        )
        p2 = random_team_policy(
            rng, spec.teams[1].observations.size, spec.teams[1].actions.size, n2
        )
        inst = FiniteGameInstance(spec, (n1, n2))
        for team in range(2):
            exact = exact_cost(inst, p1, p2, team)
            mean, ci = mc_cost(inst, p1, p2, team, 400, 1000 + k)
            total += 1
            if abs(mean - exact) > max(ci, 1e-12):
                misses += 1
    assert misses <= 1, f"{misses} of {total} intervals missed"


@pytest.mark.parametrize("seed", range(9))
def test_mc_cost_matches_the_episode_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(9100 + seed)
    spec = random_static_spec(rng)
    sizes = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    inst = FiniteGameInstance(spec, sizes)
    kinds = ("symmetric-iid", "product", "mixture")
    pols = [
        random_team_policy(rng, t.observations.size, t.actions.size, n, kinds[(seed + 2 * i) % 3])
        for i, (t, n) in enumerate(zip(spec.teams, sizes))
    ]
    for team in (0, 1):
        got = mc_cost(inst, pols[0], pols[1], team, 120, 77 + seed)
        assert got == episode_mc_cost(spec, sizes, pols[0], pols[1], team, 120, 77 + seed)


def test_mc_cost_rejects_mis_shaped_policies_like_exact_cost():
    spec = three_signal_spec()  # 3 observations, 2 actions
    inst = FiniteGameInstance(spec, (40, 40))
    good = TeamPolicy.symmetric_iid(_uniform_rule(3, 2))
    for bad in (_uniform_rule(1, 2), _uniform_rule(3, 3)):
        for team in (0, 1):
            pair = (TeamPolicy.symmetric_iid(bad), good) if team == 0 else (good, TeamPolicy.symmetric_iid(bad))
            with pytest.raises(ModelError, match=f"team {team} policy shape mismatch"):
                mc_cost(inst, pair[0], pair[1], 0, 100, 1)
            with pytest.raises(ModelError, match=f"team {team} policy shape mismatch"):
                exact_cost(FiniteGameInstance(spec, (2, 2)), pair[0], pair[1], 0)
    short = TeamPolicy.mixture([(1.0, [DetPolicy((0, 1))] * 40)])
    with pytest.raises(ModelError, match="team 0 policy shape mismatch"):
        mc_cost(inst, short, good, 0, 100, 1)


def test_mc_cost_builds_no_seat_objects(monkeypatch):
    # the static sampler works on seat-map arrays; a DetPolicy per seat per
    # episode is what made it slow
    built = []
    post_init = DetPolicy.__post_init__
    monkeypatch.setattr(DetPolicy, "__post_init__", lambda self: built.append(1) or post_init(self))
    spec = load_spec(GAMES / "spread.json")
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    DetPolicy((0,))
    assert built == [1]  # the counter sees constructions
    mc_cost(FiniteGameInstance(spec, (400, 400)), half, half, 0, 100, 3)
    assert built == [1]


@pytest.mark.parametrize("case", range(3))
def test_mc_cost_chunks_change_nothing(monkeypatch, case):
    import teamfield.finite_n as finite_n

    rng = np.random.default_rng(4400 + case)
    kinds = ("symmetric-iid", "product", "mixture", "symmetric-iid")[case : case + 2]
    spec = random_static_spec(rng)
    sizes = (5, 4)
    inst = FiniteGameInstance(spec, sizes)
    pols = [
        random_team_policy(rng, t.observations.size, t.actions.size, n, k) for t, n, k in zip(spec.teams, sizes, kinds)
    ]
    whole = [mc_cost(inst, pols[0], pols[1], team, 103, 8) for team in (0, 1)]
    samplers = [finite_n._team_sampler(inst, p, i) for i, p in enumerate(pols)]
    per_episode = sum(finite_n._static_uniforms(inst, samplers))
    assert 103 * per_episode <= finite_n.SIM_CHUNK_UNIFORMS  # the default run is one chunk
    for uniforms in (3 * per_episode + 1, 5):  # 3 episodes per chunk, then 1
        calls = []
        run = finite_n._static_episodes
        monkeypatch.setattr(finite_n, "SIM_CHUNK_UNIFORMS", uniforms)
        monkeypatch.setattr(finite_n, "_static_episodes", lambda *a: calls.append(len(a[-1])) or run(*a))
        part = [mc_cost(inst, pols[0], pols[1], team, 103, 8) for team in (0, 1)]
        monkeypatch.setattr(finite_n, "_static_episodes", run)
        assert calls == ([3] * 34 + [1] if uniforms > per_episode else [1] * 103) * 2
        for team in (0, 1):
            assert part[team] == whole[team] == episode_mc_cost(spec, sizes, pols[0], pols[1], team, 103, 8)


def test_mc_cost_on_a_large_team_takes_several_chunks(monkeypatch):
    import teamfield.finite_n as finite_n

    calls = []
    run = finite_n._static_episodes
    monkeypatch.setattr(finite_n, "_static_episodes", lambda *a: calls.append(len(a[-1])) or run(*a))
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    mc_cost(FiniteGameInstance(load_spec(GAMES / "spread.json"), (400, 400)), half, half, 0, 400, 3)
    assert len(calls) > 1 and sum(calls) == 400
    assert max(calls) * (1 + 2 * 2 * 400) <= finite_n.SIM_CHUNK_UNIFORMS


def test_episode_streams_match_fresh_philox_streams():
    from teamfield.finite_n import _episode_streams

    for seed in (0, 9, 2**64 + 5, -3):
        stream = _episode_streams(seed)
        for e in range(6):
            g = stream(e)
            fresh = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, e], dtype=np.uint64)))
            np.testing.assert_array_equal(g.random(2 * e + 1), fresh.random(2 * e + 1))
            # the uint32 draw reads a pending half the previous episode left
            # behind if the re-keying kept it
            assert g.integers(0, 2**32, dtype=np.uint32) == fresh.integers(0, 2**32, dtype=np.uint32)
            np.testing.assert_array_equal(g.random(3), fresh.random(3))
            # every episode ends mid-buffer (an odd number of 64-bit words
            # drawn); even ones also leave the pending 32-bit half of the
            # uint32 draw above, odd ones use it up
            if e % 2:
                g.integers(0, 9, dtype=np.uint32)


def test_mc_cost_builds_one_bit_generator_per_call(monkeypatch):
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or philox(*a, **k))
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    inst = FiniteGameInstance(load_spec(GAMES / "spread.json"), (400, 400))
    mc_cost(inst, half, half, 0, 400, 3)
    assert built == [1]


def test_exchangeable_br_restriction_costs_nothing():
    rng = np.random.default_rng(606)
    spec = load_spec(GAMES / "mf_mismatch.json")
    for n in (2, 3):
        inst = FiniteGameInstance(spec, (n, n))
        opp = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
        v_all, v_exch = check_exchangeable_br_value(inst, opp, 0)
        assert abs(v_all - v_exch) <= 1e-9
        assert v_exch >= v_all - 1e-12


def test_sample_team_actions_deterministic_and_law_abiding():
    spec = load_spec(GAMES / "mf_mismatch.json")
    b = BehavioralPolicy.from_rows([[0.3, 0.7]])
    u1 = sample_team_actions(spec, 0, b, 10_000, 0, 7)
    u2 = sample_team_actions(spec, 0, b, 10_000, 0, 7)
    np.testing.assert_array_equal(u1, u2)
    emp = np.bincount(u1, minlength=2) / len(u1)
    law = mean_field_action_law(spec, 0, b)[0]
    assert abs(emp - law).max() < 0.02


def test_epsilon_sweep_exact_rows_and_size_binding():
    spec = load_spec(GAMES / "spread.json")
    half = BehavioralPolicy.from_rows([[0.5, 0.5]])
    rows = epsilon_sweep(spec, (half, half), [(2, 2), (4, 4), (40, 40), (400, 400)])
    assert [r.method for r in rows] == ["exact"] * 4
    assert rows[0].eps == pytest.approx((0.25, 0.25))
    assert rows[1].eps == pytest.approx((0.125, 0.125))
    assert rows[2].eps == pytest.approx((0.0125, 0.0125), abs=1e-12)
    assert rows[3].eps == pytest.approx((0.00125, 0.00125), abs=1e-12)
    # a size-bound policy cannot be swept at a different size
    bound = TeamPolicy.product([half, half])
    with pytest.raises(ModelError):
        epsilon_sweep(spec, (bound, half), [(3, 3)])


def test_epsilon_sweep_mc_fallback_needs_seed():
    spec = three_signal_spec()
    half = _uniform_rule(3, 2)
    with pytest.raises(ModelError):
        epsilon_sweep(spec, (half, half), [(40, 40)], reps=100, deviation_resolution=1.0)
    rows = epsilon_sweep(spec, (half, half), [(40, 40)], reps=100, seed=5, deviation_resolution=1.0)
    assert rows[0].method == "monte-carlo"
    assert rows[0].ci_halfwidth > 0.0
    again = epsilon_sweep(spec, (half, half), [(40, 40)], reps=100, seed=5, deviation_resolution=1.0)
    assert rows[0].eps == again[0].eps


def test_epsilon_sweep_checks_deviation_budget_before_sampling(monkeypatch):
    import teamfield.finite_n as finite_n

    calls = []
    monkeypatch.setattr(finite_n, "mc_cost", lambda *args: calls.append(args))
    spec = load_spec(GAMES / "spread.json")
    half = BehavioralPolicy.from_rows([[0.5, 0.5]])
    with pytest.raises(BudgetError) as info:
        epsilon_sweep(spec, (half, half), [(4000, 4000)], reps=400, seed=1, deviation_resolution=0.00004)
    assert info.value.required == 25_001
    assert calls == []


def test_size_pairs():
    assert size_pairs([2, 4], 1.0) == [(2, 2), (4, 4)]
    assert size_pairs([4], 0.5) == [(4, 2)]
    assert size_pairs([3], 0.1) == [(3, 1)]
    with pytest.raises(ModelError):
        size_pairs([0])
    with pytest.raises(ModelError):
        size_pairs([2], ratio=0.0)


def _team_entry_points():
    """Every public call that takes a team index, each as team -> call."""
    from teamfield.dynamic import (
        StagePolicy,
        dynamic_best_response_fixed_flow,
        exact_dynamic_cost,
        mf_dynamic_cost,
        propagate_mf_flow,
    )
    from teamfield.mf_static import MeanFieldProfile, best_response_fixed_mf, mf_cost

    spec = load_spec(GAMES / "spread.json")
    rule = _uniform_rule(spec.teams[0].observations.size, spec.teams[0].actions.size)
    pol = TeamPolicy.symmetric_iid(rule)
    inst = FiniteGameInstance(spec, (2, 2))
    mf = MeanFieldProfile(laws=tuple(mean_field_action_law(spec, i, rule) for i in range(2)))
    dyn = load_spec(GAMES / "crowd_avoidance.json")
    stage = StagePolicy.uniform(dyn, 0)
    flows = propagate_mf_flow(dyn, (stage, stage))
    return {
        "mean_field_action_law": lambda team: mean_field_action_law(spec, team, rule),
        "mf_cost": lambda team: mf_cost(spec, team, rule, mf),
        "best_response_fixed_mf": lambda team: best_response_fixed_mf(spec, team, mf),
        "exact_cost": lambda team: exact_cost(inst, pol, pol, team),
        "mc_cost": lambda team: mc_cost(inst, pol, pol, team, 100, 1),
        "team_best_response_exact": lambda team: team_best_response_exact(inst, pol, team),
        "mf_dynamic_cost": lambda team: mf_dynamic_cost(dyn, team, stage, flows),
        "dynamic_best_response_fixed_flow": lambda team: dynamic_best_response_fixed_flow(dyn, team, flows),
        "exact_dynamic_cost": lambda team: exact_dynamic_cost(dyn, (2, 3), ([stage] * 2, [stage] * 3), team),
    }


@pytest.mark.parametrize("team", [-1, 2])
@pytest.mark.parametrize("entry", sorted(_team_entry_points()))
def test_team_index_out_of_range_is_a_model_error(entry, team):
    call = _team_entry_points()[entry]
    with pytest.raises(ModelError, match=f"team index {team} out of range"):
        call(team)
    call(1)  # the same call at a valid index runs
