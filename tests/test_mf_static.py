import itertools
import math

import numpy as np
import pytest

from teamfield import mf_static
from teamfield.core.errors import BudgetError, ModelError
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
from tests._gen import FAMILIES, noisy_spec, random_behavioral, random_static_spec, tri_spec
from tests._oracles import (
    exploitability_oracle,
    grid_search_oracle,
    oracle_mismatch_maps,
    row_loop_profile_init,
    tie_lp_loops,
)
from tests._paths import GAMES

MISMATCH = GAMES / "mf_mismatch.json"
COORDINATION = GAMES / "coordination.json"


@pytest.fixture(autouse=True)
def tie_lps(monkeypatch):
    """Check every tie LP a test builds against the row-by-row builder: the
    same (c, A_ub, b_ub, A_eq, b_eq), byte for byte. Lists the LPs built."""
    real, built = mf_static._tie_lp, []

    def checked(Q, ys, us, target):
        lp = real(Q, ys, us, target)
        allowed = np.zeros((Q.shape[1], target.shape[1]), dtype=bool)
        allowed[ys, us] = True
        for got, want in zip(lp, tie_lp_loops(Q, allowed, target)):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        built.append(lp)
        return lp

    monkeypatch.setattr(mf_static, "_tie_lp", checked)
    return built


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


def _assert_same_hits(hits, ref):
    """Hits equal, bit for bit and in order, to (laws, rules, br, consistency) tuples."""
    assert len(hits) == len(ref)
    for h, (laws, rules, br, consistency) in zip(hits, ref):
        for i in range(2):
            assert np.array_equal(h.mean_fields.laws[i], laws[i])
            assert np.array_equal(h.policies[i].kernel.rows, rules[i])
        assert h.br_residual == br
        assert h.consistency_residual == consistency


@pytest.mark.parametrize("name", ["spread", "coordination", "mf_mismatch"])
def test_grid_search_matches_the_candidate_oracle_on_bundled_games(name):
    spec = load_spec(GAMES / f"{name}.json")
    for resolution in (0.5, 0.25, 0.1, 0.05):
        _assert_same_hits(grid_fixed_point_search(spec, resolution), grid_search_oracle(spec, resolution))


def test_grid_search_matches_the_candidate_oracle_on_generated_games(tie_lps):
    _assert_same_hits(grid_fixed_point_search(noisy_spec(1), 0.25), grid_search_oracle(noisy_spec(1), 0.25))
    _assert_same_hits(grid_fixed_point_search(tri_spec(1), 0.1), grid_search_oracle(tri_spec(1), 0.1))
    rng = np.random.default_rng(7)
    checked, mixed = 0, 0
    while checked < 8:
        spec = random_static_spec(rng)
        size = math.prod(math.comb(t.actions.size + 1, 2) ** spec.n_world for t in spec.teams)
        if spec.n_world < 2 or size > 800:
            continue
        ref = grid_search_oracle(spec, 0.5)
        _assert_same_hits(grid_fixed_point_search(spec, 0.5), ref)
        mixed += sum(any(not np.isin(r, (0.0, 1.0)).all() for r in rules) for _, rules, _, _ in ref)
        checked += 1
    assert mixed > 0  # some hits needed the tie linear program
    assert tie_lps


def test_grid_search_blocks_do_not_change_the_hits(monkeypatch):
    spec = noisy_spec(2)
    whole = grid_fixed_point_search(spec, 0.25)
    monkeypatch.setattr(mf_static, "GRID_BLOCK", 60)  # two of team 0's 25 laws per block
    ref = [(h.mean_fields.laws, [p.kernel.rows for p in h.policies], h.br_residual, h.consistency_residual) for h in whole]
    _assert_same_hits(grid_fixed_point_search(spec, 0.25), ref)


def _profile_error(init, laws):
    """The ModelError message `init` raises on a profile of `laws`, or None."""
    profile = object.__new__(MeanFieldProfile)
    object.__setattr__(profile, "laws", laws)
    try:
        init(profile)
    except ModelError as err:
        return str(err)
    return None


def test_profile_validation_names_the_first_bad_row_as_the_row_loop_did():
    ok = [0.25, 0.75]
    cases = [
        ([ok, [np.nan, 1.0]], "mean field row: nonfinite probability entry"),
        ([ok, [-0.25, 1.25], [np.nan, 1.0]], "mean field row: negative probability entry -0.25"),
        ([[0.5, 0.6], ok], "mean field row: total mass off by 0.1"),
        ([ok, [-0.5, 0.5], [np.inf, 0.0]], "mean field row: negative probability entry -0.5; total mass off by 1"),
    ]
    for rows, message in cases:
        for laws in ((np.array([ok]), np.array(rows)), (np.array(rows), np.array([ok]))):
            assert _profile_error(row_loop_profile_init, laws) == message
            with pytest.raises(ModelError) as info:
                MeanFieldProfile(laws=laws)
            assert str(info.value) == message
    MeanFieldProfile(laws=(np.array([ok]), np.array([ok, [1.0, 0.0]])))


def test_profile_validation_agrees_with_the_row_loop_at_the_mass_tolerance():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(600):
        n_w, n_u = int(rng.integers(1, 5)), int(rng.integers(1, 24))
        law = rng.dirichlet(np.ones(n_u), size=n_w)
        w = int(rng.integers(0, n_w))
        kind = int(rng.integers(0, 4))
        if kind == 1:
            law[w] *= 1.0 + float(rng.choice([-2e-12, -1e-12, -5e-13, 5e-13, 1e-12, 2e-12]))
        elif kind == 2:
            law[w, int(rng.integers(0, n_u))] = -float(rng.choice([1e-300, 1e-13, 0.5]))
        elif kind == 3:
            law[w, int(rng.integers(0, n_u))] = float(rng.choice([np.nan, np.inf, -np.inf]))
        laws = (law, np.asfortranarray(law)[::-1]) if rng.random() < 0.5 else (np.asfortranarray(law), law[:1])
        want = _profile_error(row_loop_profile_init, laws)
        assert _profile_error(MeanFieldProfile.__post_init__, laws) == want
        seen.add(want.split(":")[1].split()[0] if want else None)
    assert seen == {None, "nonfinite", "negative", "total"}


@pytest.mark.parametrize("game", ["spread", "coordination", "mf_mismatch", "noisy", "tri"])
def test_grid_hits_are_the_same_under_the_row_loop_check(monkeypatch, game):
    generated = {"noisy": noisy_spec, "tri": tri_spec}
    spec = generated[game](3) if game in generated else load_spec(GAMES / f"{game}.json")
    resolution = 0.1 if game in generated else 0.05
    hits = grid_fixed_point_search(spec, resolution)
    assert hits
    ref = [(h.mean_fields.laws, [p.kernel.rows for p in h.policies], h.br_residual, h.consistency_residual) for h in hits]
    monkeypatch.setattr(MeanFieldProfile, "__post_init__", row_loop_profile_init)
    _assert_same_hits(grid_fixed_point_search(spec, resolution), ref)


def test_grid_budget_is_checked_before_any_cost_evaluation(monkeypatch):
    spec = load_spec(COORDINATION)
    calls = []
    monkeypatch.setattr(type(spec.teams[0].cost), "table", lambda *args: calls.append(args))
    with pytest.raises(BudgetError) as info:
        grid_fixed_point_search(spec, 0.01, max_candidates=100)
    assert info.value.required == 101**2
    assert calls == []


def test_grid_search_rejects_a_negative_or_nonfinite_tie_tol():
    spec = load_spec(COORDINATION)
    for tol in (-1.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ModelError, match="tie_tol"):
            grid_fixed_point_search(spec, 0.1, tie_tol=tol)


def _counting_linprog(monkeypatch):
    """Wrap scipy's linprog; returns the list of results it gave, one per call."""
    import scipy.optimize

    real, results = scipy.optimize.linprog, []

    def counted(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    return results


def test_a_failed_tie_lp_is_an_error_not_a_lost_hit(monkeypatch, capsys):
    import scipy.optimize

    from teamfield import cli

    failed = scipy.optimize.OptimizeResult(x=None, fun=None, success=False, status=4, message="numerical trouble")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(ModelError, match="tie linear program failed: numerical trouble"):
        grid_fixed_point_search(load_spec(COORDINATION), 0.5)
    assert cli.main(["grid-search", "--spec", str(COORDINATION), "--resolution", "0.1"]) == 1
    assert "tie linear program failed: numerical trouble" in capsys.readouterr().err


def test_tie_screen_bounds_the_lp_optimum_from_below(monkeypatch):
    results = _counting_linprog(monkeypatch)
    rng = np.random.default_rng(17)
    skipped = 0
    for _ in range(40):
        spec = random_static_spec(rng)
        for team, t in enumerate(spec.teams):
            n_y, n_u = t.observations.size, t.actions.size
            allowed = rng.random((n_y, n_u)) < 0.6
            allowed[np.arange(n_y), rng.integers(0, n_u, n_y)] = True
            grid = mf_static.simplex_grid(n_u, int(rng.choice([2, 4, 10])))
            target = grid[rng.integers(0, len(grid), spec.n_world)]
            screen = mf_static._tie_screen(spec.n_world, n_u)
            bound = mf_static._tie_bound(t.obs_kernel, allowed, target, screen)
            mf_static._tie_rule(spec, team, allowed, target, 1.0, None)
            optimum = results[-1].x[-1]
            assert bound <= optimum + 1e-9
            for resolution in (0.1, 0.25, 0.5):
                if bound >= resolution + mf_static.TIE_SCREEN_MARGIN:
                    skipped += 1
                    assert optimum >= resolution
                    calls = len(results)
                    assert mf_static._tie_rule(spec, team, allowed, target, resolution, screen) is None
                    assert len(results) == calls
    assert skipped > 0


def test_bench_like_ties_match_the_oracle_with_fewer_lps(monkeypatch):
    spec = noisy_spec(1)
    ref = grid_search_oracle(spec, 0.1)
    verdicts = []
    real = mf_static._grid_verdicts
    monkeypatch.setattr(mf_static, "_grid_verdicts", lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    results = _counting_linprog(monkeypatch)
    _assert_same_hits(grid_fixed_point_search(spec, 0.1), ref)
    # at most the visited tied (candidate, team) pairs: every passing candidate
    # visits team 0's tie, and team 1's at least where team 0 is untied
    (pass0, tied0, _), (pass1, tied1, _) = verdicts
    visited = int((pass0 & pass1 & (tied0 | tied1)).sum())
    assert 0 < len(results) < visited


def test_exploitability_matches_the_kernel_by_kernel_oracle():
    rng = np.random.default_rng(31)
    specs = [noisy_spec(3), tri_spec(3), load_spec(COORDINATION)] + [random_static_spec(rng, max_size=2) for _ in range(6)]
    for spec in specs:
        pair = [random_behavioral(rng, t.observations.size, t.actions.size) for t in spec.teams]
        rep = mf_exploitability(spec, *pair, resolution=0.05)
        eps, devs = exploitability_oracle(spec, *pair, 0.05)
        assert rep.eps == tuple(eps)
        for i in range(2):
            assert np.array_equal(rep.deviations[i].kernel.rows, devs[i])


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


def _lone_batch_spec(cost: dict) -> StaticGameSpec:
    team = {
        "actions": 3,
        "observations": 1,
        "obs_kernel": [[1.0], [1.0]],
        "statistic": {"kind": "mean-embedding", "embedding": [0.0, 1.0, 2.0]},
        "cost": cost,
    }
    return StaticGameSpec.from_dict({"kind": "static", "world": 2, "prior": [0.5, 0.5], "teams": [team, team]})


_TABLE = {
    "grid1": [0.0, 0.7, 2.0],
    "grid2": [0.0, 1.3, 2.0],
    "values": np.random.default_rng(3).random((2, 3, 3, 3)).tolist(),
}


@pytest.mark.parametrize(
    "cost",
    [{"family": name, "params": params} for name, params in FAMILIES] + [{"table": _TABLE}],
    ids=[name for name, _ in FAMILIES] + ["table"],
)
def test_lone_statistics_cost_what_a_batch_charges_them(cost):
    spec = _lone_batch_spec(cost)
    rng = np.random.default_rng(11)
    s1, s2 = 2.0 * rng.random((2, 3000, 2))
    for team in range(2):
        batch = mf_static._cost_matrix(spec, team, s1, s2)
        lone = np.stack([mf_static._cost_matrix(spec, team, a, b) for a, b in zip(s1, s2)])
        assert lone.tobytes() == batch.tobytes(), (team, int((lone != batch).any(axis=(1, 2)).sum()))
