"""End-to-end acceptance checks.

One test per acceptance criterion, each with its stated tolerance and a
wall-clock budget asserted inside the test. Run with `pytest -v
tests/test_acceptance.py` to get one pass/fail line per criterion.
"""

import os
import subprocess
import sys
import time

import numpy as np

from teamfield.core.spaces import tv_distance
from teamfield.core.specs import StaticGameSpec
from teamfield.dynamic import (
    StagePolicy,
    dynamic_epsilon_estimate,
    mf_dynamic_cost,
    propagate_mf_flow,
    solve_dynamic_mf_fixed_point,
)
from teamfield.finite_n import (
    FiniteGameInstance,
    epsilon_sweep,
    exact_cost,
    mc_cost,
    sample_team_actions,
    team_best_response_exact,
)
from teamfield.io import (
    load_spec,
    policy_pair_doc,
    write_json,
)
from teamfield.mf_static import (
    SolverConfig,
    grid_fixed_point_search,
    mean_field_action_law,
    solve_mf_fixed_point,
)
from teamfield.policies import (
    BehavioralPolicy,
    TeamPolicy,
    anticorrelated_pair,
    permute_profile,
)
from tests._gen import (
    random_exchangeable_policy,
    random_static_spec,
    random_team_policy,
)
from tests._oracles import check_exchangeable_br_value, oracle_chain_cost, profile_exact_cost
from tests._paths import GAMES, REPO
from tests.test_dynamic import _static_lift


class _Clock:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"took {elapsed:.1f}s, budget {self.budget:.0f}s"


def test_criterion_01_exact_cost_permutation_invariant():
    clock = _Clock(10.0)
    rng = np.random.default_rng(1001)
    for _ in range(100):
        spec = random_static_spec(rng, max_size=3)
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = [
            random_team_policy(
                rng, spec.teams[i].observations.size, spec.teams[i].actions.size, n
            )
            for i, n in ((0, n1), (1, n2))
        ]
        inst = FiniteGameInstance(spec, (n1, n2))
        base = [exact_cost(inst, p[0], p[1], t) for t in range(2)]
        for t in range(2):  # count classes agree with the profile-by-profile enumerator
            assert abs(base[t] - profile_exact_cost(spec, p[0], p[1], (n1, n2), t)) <= 1e-12
        sig1 = tuple(rng.permutation(n1))
        sig2 = tuple(rng.permutation(n2))
        q1 = p[0] if p[0].kind == "symmetric-iid" else permute_profile(p[0], sig1)
        q2 = p[1] if p[1].kind == "symmetric-iid" else permute_profile(p[1], sig2)
        for t in range(2):
            assert abs(exact_cost(inst, q1, q2, t) - base[t]) <= 1e-12
    clock.check()


def test_criterion_02_exchangeable_best_response_loses_nothing():
    clock = _Clock(60.0)
    rng = np.random.default_rng(2002)
    done = 0
    while done < 50:
        spec = random_static_spec(rng, max_size=3)
        n = int(rng.integers(2, 4))
        team = int(rng.integers(0, 2))
        opp = 1 - team
        opp_policy = random_exchangeable_policy(
            rng, spec.teams[opp].observations.size, spec.teams[opp].actions.size, n
        )
        inst = FiniteGameInstance(spec, (n, n))
        v_all, v_exch = check_exchangeable_br_value(inst, opp_policy, team)
        assert abs(v_all - v_exch) <= 1e-9
        # the multiset search reaches the best seat-indexed joint profile
        assert abs(team_best_response_exact(inst, opp_policy, team)[1] - v_all) <= 1e-12
        done += 1
    clock.check()


def test_criterion_03_correlated_team_escapes_every_iid_law():
    clock = _Clock(5.0)
    from teamfield.policies import is_exchangeable
    from tests._oracles import joint_action_law_rational

    team_doc = {
        "actions": 2,
        "observations": 1,
        "obs_kernel": [[1.0]],
        "statistic": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
        "cost": {"family": "constant", "params": {"value": 0.0}},
    }
    spec = StaticGameSpec.from_dict(
        {"kind": "static", "world": 1, "prior": [1.0], "teams": [team_doc, dict(team_doc)]}
    )

    def pair_pmf(p):
        out = np.zeros(4)
        for (a1, a2), w in joint_action_law_rational(spec, 0, p, 2, 0).items():
            out[2 * a1 + a2] = float(w)
        return out

    anti = anticorrelated_pair()
    assert is_exchangeable(anti)
    target = pair_pmf(anti)
    worst = np.inf
    for q in np.arange(0.0, 1.0 + 1e-12, 1e-2):
        iid = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[1.0 - q, q]]))
        worst = min(worst, tv_distance(target, pair_pmf(iid)))
    assert worst > 0.1
    clock.check()


def test_criterion_04_mismatch_solver_agrees_with_grid_certificate():
    clock = _Clock(30.0)
    spec = load_spec(GAMES / "mf_mismatch.json")
    eq = solve_mf_fixed_point(spec, SolverConfig(smooth_init=1.0))
    assert eq.converged
    assert max(eq.br_residual) < 1e-6
    assert max(eq.consistency_residual) < 1e-6
    hits = grid_fixed_point_search(spec, resolution=1e-3)
    assert hits, "grid certificate found no fixed point"
    gaps = []
    for h in hits:
        gaps.append(
            max(
                tv_distance(eq.mean_fields.laws[i][0], h.mean_fields.laws[i][0])
                for i in range(2)
            )
        )
    assert min(gaps) <= 1e-3
    clock.check()


def test_criterion_05_large_teams_concentrate_on_the_mean_field():
    clock = _Clock(30.0)
    doc = {
        "kind": "static",
        "world": 2,
        "prior": [0.5, 0.5],
        "teams": [
            {
                "actions": 3,
                "observations": 2,
                "obs_kernel": [[0.9, 0.1], [0.2, 0.8]],
                "statistic": {"kind": "mean-embedding", "embedding": [0.0, 0.5, 1.0]},
                "cost": {"family": "constant", "params": {"value": 0.0}},
            }
        ]
        * 2,
    }
    spec = StaticGameSpec.from_dict(doc)
    b = BehavioralPolicy.from_rows([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    law = mean_field_action_law(spec, 0, b)
    good_trials = 0
    for trial in range(20):
        ok = True
        for w in range(spec.n_world):
            u = sample_team_actions(spec, 0, b, 10_000, w, 500 + trial)
            emp = np.bincount(u, minlength=3) / len(u)
            if tv_distance(emp, law[w]) >= 0.05:
                ok = False
        good_trials += ok
    assert good_trials >= 19, f"only {good_trials}/20 trials inside TV 0.05"
    clock.check()


def test_criterion_06_epsilon_shrinks_with_size_and_consensus_is_exact():
    clock = _Clock(300.0)
    mismatch = load_spec(GAMES / "mf_mismatch.json")
    half = BehavioralPolicy.from_rows([[0.5, 0.5]])
    rows = epsilon_sweep(mismatch, (half, half), [(2, 2), (8, 8)])
    assert all(r.method == "exact" for r in rows)
    for team in range(2):
        assert rows[1].eps[team] <= rows[0].eps[team] + 1e-15

    coordination = load_spec(GAMES / "coordination.json")
    consensus = BehavioralPolicy.from_rows([[1.0, 0.0]])
    for n in (2, 3, 4):
        rows = epsilon_sweep(coordination, (consensus, consensus), [(n, n)])
        assert rows[0].method == "exact"
        assert rows[0].eps == (0.0, 0.0), f"N={n}: {rows[0].eps}"
    clock.check()


def test_criterion_07_dynamic_engine_cross_validates():
    clock = _Clock(600.0)

    # (a) a horizon-1 chain reproduces its one-shot counterpart exactly
    static = load_spec(GAMES / "mf_mismatch.json")
    dyn = _static_lift(static)
    rows = [[0.35, 0.65]]
    b = BehavioralPolicy.from_rows(rows)
    pol = StagePolicy.from_rows([rows])
    from teamfield.finite_n import epsilon_ne_certify
    from teamfield.dynamic import exact_dynamic_cost
    from teamfield.mf_static import MeanFieldProfile, mf_cost

    flows = propagate_mf_flow(dyn, (pol, pol))
    mf = MeanFieldProfile(laws=(np.array([rows[0]]), np.array([rows[0]])))
    for team in range(2):
        lhs = mf_dynamic_cost(dyn, team, pol, flows)
        rhs = mf_cost(static, team, b, mf)
        assert abs(lhs - rhs) <= 1e-12
    team_pol = TeamPolicy.symmetric_iid(b)
    inst = FiniteGameInstance(static, (2, 2))
    for team in range(2):
        lhs = exact_dynamic_cost(dyn, (2, 2), ([pol, pol], [pol, pol]), team)
        rhs = exact_cost(inst, team_pol, team_pol, team)
        assert abs(lhs - rhs) <= 1e-12
    dyn_rep = dynamic_epsilon_estimate(dyn, (2, 2), (pol, pol), mode="exact")
    stat_rep = epsilon_ne_certify(inst, team_pol, team_pol)
    for team in range(2):
        assert abs(dyn_rep.eps[team] - stat_rep.eps[team]) <= 1e-12

    # (b) decoupled dynamics match plain chain propagation
    chain_spec = load_spec(GAMES / "state_copies_action.json")
    chain_rows = [[0.7, 0.3], [0.7, 0.3]]
    chain_pol = StagePolicy.from_rows([chain_rows] * 2)
    chain_flows = propagate_mf_flow(chain_spec, (chain_pol, chain_pol))
    got = mf_dynamic_cost(chain_spec, 0, chain_pol, chain_flows)
    want = oracle_chain_cost(
        init=chain_spec.teams[0].init_kernel[0],
        action_given_state=[chain_rows, chain_rows],
        stage_cost=lambda t, x, u: 1.0 if x == 1 else 0.0,
        next_rows=lambda t, x, u: [1.0 - u, float(u)],
        horizon=2,
    )
    assert abs(got - want) <= 1e-12

    # (c) the crowd-avoidance solver lands on the grid-certified split
    crowd = load_spec(GAMES / "crowd_avoidance.json")
    eq = solve_dynamic_mf_fixed_point(crowd, SolverConfig(smooth_init=1.0))
    assert eq.converged
    assert max(eq.br_residual) < 1e-6
    assert max(eq.consistency_residual) < 1e-6

    def stage1_gain(q, m):
        return (1.0 - q) * (1.0 - m) + q * m

    consistent = []
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-2)
    for m in grid:
        best = min(stage1_gain(q, m) for q in grid)
        if stage1_gain(m, m) <= best + 1e-12:
            consistent.append(m)
    assert len(consistent) == 1
    for i in range(2):
        split = eq.flows.action_marginal(i, 0, 0)[1]
        assert abs(split - consistent[0]) <= 1e-2

    # (d) the exact small-team certificate dominates the sampled lower bound
    pol_half = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    exact_rep = dynamic_epsilon_estimate(crowd, (2, 2), (pol_half, pol_half), mode="exact")
    mc_rep = dynamic_epsilon_estimate(
        crowd, (16, 16), (pol_half, pol_half), mode="monte-carlo", reps=200, rng=77
    )
    assert mc_rep.method == "monte-carlo"
    for team in range(2):
        assert exact_rep.eps[team] >= mc_rep.eps[team] - mc_rep.ci_halfwidth
    clock.check()


def test_criterion_08_mc_intervals_cover_exact_values():
    clock = _Clock(60.0)
    base = 20260817
    rng = np.random.default_rng(base)
    trials = 0
    covered = 0
    for k in range(50):
        spec = random_static_spec(rng, max_size=3)
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
            mean, ci = mc_cost(inst, p1, p2, team, 400, base + 1000 + 2 * k + team)
            trials += 1
            covered += abs(mean - exact) <= max(ci, 1e-12)
    assert trials == 100
    assert covered >= 99, f"{covered}/100 intervals covered the exact value"
    clock.check()


def test_criterion_09_cli_outputs_identical_across_worker_counts(tmp_path):
    half_pair = policy_pair_doc(
        (
            TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]])),
            TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]])),
        )
    )
    pair_path = tmp_path / "pair.json"
    write_json(pair_path, half_pair)

    mismatch = GAMES / "mf_mismatch.json"
    spread = GAMES / "spread.json"
    crowd = GAMES / "crowd_avoidance.json"
    commands = {
        "validate": ["validate", "--spec", mismatch],
        "solve-mf": ["solve-mf", "--spec", mismatch],
        "solve-mf-dyn": ["solve-mf-dyn", "--spec", crowd],
        "grid-search": ["grid-search", "--spec", mismatch, "--resolution", "0.05"],
        "certify": [
            "certify", "--spec", spread, "--policy", pair_path,
            "--n", "2", "2", "--seed", "3",
        ],
        "sweep-n": [
            "sweep-n", "--spec", spread, "--policy", pair_path,
            "--ns", "2,20", "--reps", "100", "--seed", "7",
        ],
        "simulate": [
            "simulate", "--spec", crowd, "--n", "4", "--reps", "200", "--seed", "5",
        ],
        "eps-dyn": [
            "eps-dyn", "--spec", crowd, "--n", "16", "--reps", "100", "--seed", "9",
        ],
    }
    for name, args in commands.items():
        blobs = []
        for workers in ("1", "2", "8"):
            out = tmp_path / f"{name}_{workers}.out"
            env = dict(os.environ)
            env["TEAMFIELD_THREADS"] = workers
            r = subprocess.run(
                [sys.executable, "-m", "teamfield", *[str(a) for a in args], "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(REPO),
            )
            assert r.returncode == 0, f"{name} workers={workers}: {r.stderr}"
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], f"{name} output varies with workers"
