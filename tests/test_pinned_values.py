"""Seeded values pinned across refactors of the sampling and solver paths.

The static Monte Carlo figures and the solver iterates were recorded from
the implementation that still had separate static and dynamic loops, a
thread pool and compensated (Kahan) sums; the merged code must reproduce
them to 1e-12. The Monte Carlo sweep row on the 8-map game was recorded
from the Monte Carlo path as it stood before the count-class exact engine,
which left that path untouched. The dynamic Monte Carlo epsilon is pinned at the value of
the shared seed scheme (base cost on seed + 17*i). The seeded solver start
rows and the iid action draw were recorded while each still built its own
Philox generator.
"""

import numpy as np
import pytest

from teamfield import cli
from teamfield import (
    BehavioralPolicy,
    FiniteGameInstance,
    SolverConfig,
    StagePolicy,
    TeamPolicy,
    dynamic_epsilon_estimate,
    epsilon_sweep,
    load_spec,
    mc_cost,
    sample_team_actions,
    simulate_finite_n,
    solve_dynamic_mf_fixed_point,
    solve_mf_fixed_point,
)
from tests._gen import three_signal_spec
from tests._paths import GAMES

TOL = 1e-12
HALF = BehavioralPolicy.from_rows([[0.5, 0.5]])


def _uniform(spec):
    return StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1)


def test_mc_cost_pinned():
    spec = load_spec(GAMES / "spread.json")
    team = TeamPolicy.symmetric_iid(HALF)
    mean, ci = mc_cost(FiniteGameInstance(spec, (40, 40)), team, team, 0, 200, 11)
    assert mean == pytest.approx(0.51229375, abs=TOL)
    assert ci == pytest.approx(0.003130326648117808, abs=TOL)


def test_simulate_finite_n_pinned():
    spec = load_spec(GAMES / "crowd_avoidance.json")
    rep = simulate_finite_n(spec, (16, 16), _uniform(spec), 200, 13)
    assert rep.costs == pytest.approx((1.1364453125, 1.1405859375), abs=TOL)
    assert rep.ci_halfwidth == pytest.approx((0.019906998444590734, 0.01940986627348546), abs=TOL)


def test_monte_carlo_sweep_row_pinned():
    # spread at 40 seats is exact now; the 8-map game still samples there
    uniform = BehavioralPolicy.from_rows([[0.5, 0.5]] * 3)
    rows = epsilon_sweep(three_signal_spec(), (uniform, uniform), [(40, 40)], reps=100, seed=5, deviation_resolution=1.0)
    row = rows[0]
    assert row.method == "monte-carlo"
    assert row.eps == pytest.approx((0.243175, 0.24314375000000002), abs=TOL)
    assert row.ci_halfwidth == pytest.approx(0.0026478681548795058, abs=TOL)


def test_dynamic_monte_carlo_epsilon_pinned():
    spec = load_spec(GAMES / "crowd_avoidance.json")
    rep = dynamic_epsilon_estimate(spec, (16, 16), _uniform(spec), reps=100, rng=21, mode="monte-carlo")
    assert rep.eps == pytest.approx((0.020390624999999885, 0.02742187499999993), abs=TOL)
    assert rep.ci_halfwidth == pytest.approx(0.03852454468390143, abs=TOL)


@pytest.mark.parametrize(
    "game, solve, iterations, br, consistency",
    [
        ("spread", solve_mf_fixed_point, 11, 0.0, 0.0),
        ("coordination", solve_mf_fixed_point, 11, 0.0, 0.0),
        ("mf_mismatch", solve_mf_fixed_point, 11, 0.0, 0.0),
        ("crowd_avoidance", solve_dynamic_mf_fixed_point, 11, 0.0, 0.0),
        ("state_copies_action", solve_dynamic_mf_fixed_point, 83, 1.2005440974682813e-08, 1.2005441029624023e-08),
    ],
)
def test_solver_iterates_pinned(game, solve, iterations, br, consistency):
    eq = solve(load_spec(GAMES / f"{game}.json"), SolverConfig(smooth_init=1.0))
    assert eq.converged
    assert eq.iterations == iterations
    assert eq.br_residual == pytest.approx((br, br), abs=TOL)
    assert eq.consistency_residual == pytest.approx((consistency, consistency), abs=TOL)


@pytest.mark.parametrize(
    "game, command, rows",
    [
        ("mf_mismatch", "solve-mf", [[[0.9210576658474618, 0.0789423341525381]], [[0.32423581193583, 0.67576418806417]]]),
        (
            "crowd_avoidance",
            "solve-mf-dyn",
            [
                [[[0.9210576658474618, 0.0789423341525381]], [[0.32423581193583, 0.67576418806417]]],
                [[[0.688284621639426, 0.31171537836057395]], [[0.06583198035340043, 0.9341680196465996]]],
            ],
        ),
    ],
)
def test_seeded_solver_start_rows_pinned(game, command, rows):
    path = GAMES / f"{game}.json"
    args = cli._build_parser().parse_args([command, "--spec", str(path), "--seed", "3"])
    start = cli._solver_cfg(args, load_spec(path)).init_rows
    np.testing.assert_allclose(np.asarray(start, dtype=float), rows, rtol=0, atol=TOL)


def test_sample_team_actions_pinned():
    u = sample_team_actions(load_spec(GAMES / "spread.json"), 0, HALF, 16, 0, 7)
    assert u.tolist() == [0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0]
