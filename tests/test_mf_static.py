import itertools

import numpy as np
import pytest

from teamfield.core.errors import ModelError
from teamfield.core.spaces import tv_distance
from teamfield.core.specs import StaticGameSpec
from teamfield.io import load_spec
from teamfield.mf_static import (
    MeanFieldProfile,
    SolverConfig,
    best_response_fixed_mf,
    grid_fixed_point_search,
    mean_field_action_law,
    mf_cost,
    mf_exploitability,
    solve_mf_fixed_point,
)
from teamfield.policies import BehavioralPolicy
from tests._gen import random_static_spec
from tests._oracles import oracle_mismatch_maps
from tests._paths import GAMES

MISMATCH = GAMES / "mf_mismatch.json"
COORDINATION = GAMES / "coordination.json"


def _half() -> BehavioralPolicy:
    return BehavioralPolicy.from_rows([[0.5, 0.5]])


def test_action_law_marginalizes_observations():
    doc = {
        "kind": "static",
        "world": 2,
        "prior": [0.5, 0.5],
        "teams": [
            {
                "actions": 2,
                "observations": 2,
                "obs_kernel": [[0.8, 0.2], [0.3, 0.7]],
                "statistic": {"kind": "mean-embedding", "embedding": [0.0, 1.0]},
                "cost": {"family": "team-coordination"},
            }
        ]
        * 2,
    }
    spec = StaticGameSpec.from_dict(doc)
    b = BehavioralPolicy.from_rows([[1.0, 0.0], [0.0, 1.0]])
    law = mean_field_action_law(spec, 0, b)
    np.testing.assert_allclose(law, [[0.8, 0.2], [0.3, 0.7]])
    with pytest.raises(ModelError):
        mean_field_action_law(spec, 0, BehavioralPolicy.from_rows([[1.0, 0.0]]))


def test_mf_cost_hand_value_on_mismatch():
    spec = load_spec(MISMATCH)
    # fields: chasers at mean 0.25, evaders at mean 0.75
    mf = MeanFieldProfile(laws=(np.array([[0.75, 0.25]]), np.array([[0.25, 0.75]])))
    b = BehavioralPolicy.from_rows([[1.0, 0.0]])
    # chaser plays 0 against evader mean 0.75: (0 - 0.75)^2
    assert mf_cost(spec, 0, b, mf) == pytest.approx(0.75**2)
    # evader plays 0 against chaser mean 0.25: 1 - (0 - 0.25)^2
    assert mf_cost(spec, 1, b, mf) == pytest.approx(1.0 - 0.25**2)


def test_best_response_matches_brute_force_on_random_specs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        spec = random_static_spec(rng)
        laws = []
        for i in range(2):
            t = spec.teams[i]
            raw = rng.random((spec.n_world, t.actions.size)) + 0.05
            laws.append(raw / raw.sum(axis=1, keepdims=True))
        mf = MeanFieldProfile(laws=(laws[0], laws[1]))
        for i in range(2):
            t = spec.teams[i]
            _, value = best_response_fixed_mf(spec, i, mf)
            # exhaustive deterministic competitor
            best = min(
                mf_cost(
                    spec,
                    i,
                    BehavioralPolicy.from_rows(np.eye(t.actions.size)[list(picks)]),
                    mf,
                )
                for picks in itertools.product(range(t.actions.size), repeat=t.observations.size)
            )
            assert value == pytest.approx(best, abs=1e-12)


def test_mismatch_solver_lands_on_the_known_fixed_point():
    spec = load_spec(MISMATCH)
    eq = solve_mf_fixed_point(spec, SolverConfig(smooth_init=1.0))
    assert eq.converged
    assert max(eq.br_residual) < 1e-6
    assert max(eq.consistency_residual) < 1e-6
    for i in range(2):
        assert eq.mean_fields.laws[i][0] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_mismatch_fixed_point_agrees_with_sigmoid_oracle():
    # the smoothed response maps have a closed form; the balanced point is
    # their fixed point at every temperature, so annealing cannot move it
    for tau in (1.0, 0.5, 0.1, 1e-3):
        assert oracle_mismatch_maps(0.5, 0.5, tau) == (0.5, 0.5)
    # and damped iteration at moderate temperature actually reaches it
    m1, m2 = 0.2, 0.9
    for _ in range(200):
        r1, r2 = oracle_mismatch_maps(m1, m2, 1.0)
        m1, m2 = 0.5 * m1 + 0.5 * r1, 0.5 * m2 + 0.5 * r2
    assert m1 == pytest.approx(0.5, abs=1e-9)
    assert m2 == pytest.approx(0.5, abs=1e-9)


def test_solver_reports_failure_honestly():
    spec = load_spec(MISMATCH)
    # undamped argmin responses on a zero-sum game cycle forever
    eq = solve_mf_fixed_point(
        spec, SolverConfig(damping=1.0, smooth_init=0.0, max_iters=50)
    )
    assert not eq.converged
    assert eq.iterations == 50


def test_solver_rejects_bad_config():
    spec = load_spec(MISMATCH)
    with pytest.raises(ModelError):
        solve_mf_fixed_point(spec, SolverConfig(damping=0.0))
    with pytest.raises(ModelError):
        solve_mf_fixed_point(spec, SolverConfig(tol=-1.0))
    with pytest.raises(ModelError):
        solve_mf_fixed_point(spec, SolverConfig(smooth_anneal=1.0))
    for floor in (0.0, -1e-3):
        with pytest.raises(ModelError, match="smooth_floor"):
            solve_mf_fixed_point(spec, SolverConfig(smooth_init=1.0, smooth_floor=floor))


def test_grid_search_mismatch_unique_interior_hit():
    spec = load_spec(MISMATCH)
    hits = grid_fixed_point_search(spec, resolution=0.25)
    assert len(hits) == 1
    np.testing.assert_allclose(hits[0].mean_fields.laws[0][0], [0.5, 0.5])
    np.testing.assert_allclose(hits[0].mean_fields.laws[1][0], [0.5, 0.5])


def test_grid_search_coordination_finds_all_three_per_team():
    spec = load_spec(COORDINATION)
    hits = grid_fixed_point_search(spec, resolution=0.5)
    per_team = [set(), set()]
    for h in hits:
        for i in range(2):
            per_team[i].add(round(float(h.mean_fields.laws[i][0][1]), 6))
    # consensus at either end plus the unstable mixed point
    assert per_team[0] == {0.0, 0.5, 1.0}
    assert per_team[1] == {0.0, 0.5, 1.0}


def test_grid_hits_carry_zero_residuals():
    spec = load_spec(COORDINATION)
    for h in grid_fixed_point_search(spec, resolution=0.5):
        assert h.converged
        assert max(h.br_residual) <= 1e-9
        assert max(h.consistency_residual) <= 0.5


def test_exploitability_zero_at_the_mismatch_fixed_point():
    spec = load_spec(MISMATCH)
    rep = mf_exploitability(spec, _half(), _half(), resolution=0.05)
    assert rep.eps[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.eps[1] == pytest.approx(0.0, abs=1e-12)


def test_exploitability_positive_off_equilibrium():
    spec = load_spec(COORDINATION)
    # uniform play on the coordination game: either pure consensus saves 0.25
    rep = mf_exploitability(spec, _half(), _half(), resolution=0.05)
    assert rep.eps[0] == pytest.approx(0.25, abs=1e-12)
    assert rep.eps[1] == pytest.approx(0.25, abs=1e-12)


def test_consistency_residual_measures_declared_vs_induced():
    spec = load_spec(MISMATCH)
    eq = solve_mf_fixed_point(spec, SolverConfig(smooth_init=1.0))
    induced = [mean_field_action_law(spec, i, eq.policies[i]) for i in range(2)]
    for i in range(2):
        gap = max(
            tv_distance(eq.mean_fields.laws[i][w], induced[i][w])
            for w in range(spec.n_world)
        )
        assert eq.consistency_residual[i] == pytest.approx(gap, abs=1e-15)
