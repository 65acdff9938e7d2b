import itertools
import math

import numpy as np
import pytest

from teamfield.core.errors import BudgetError, ModelError
from teamfield.core.spaces import tv_distance
from teamfield.core.specs import StaticGameSpec
from teamfield.policies import (
    BehavioralPolicy,
    DetPolicy,
    TeamPolicy,
    anticorrelated_pair,
    behavioral_to_mixture,
    induced_seat_kernel,
    _inverse_cdf,
    is_exchangeable,
    permute_profile,
    sample_profile,
    symmetrize,
)
from tests._gen import random_behavioral, random_team_policy
from tests._oracles import (
    _pick,
    joint_action_law_rational,
    max_permutation_tv,
    permutation_is_exchangeable,
    permutation_symmetrize,
    seat_sample_profile,
    summed_inverse_cdf,
)


def _unit_spec(n_obs: int, n_actions: int) -> StaticGameSpec:
    """One world point, uniform observations, both teams alike."""
    team = {
        "actions": n_actions,
        "observations": n_obs,
        "obs_kernel": [[1.0 / n_obs] * n_obs],
        "statistic": {"kind": "mean-embedding", "embedding": list(range(n_actions))},
        "cost": {"family": "constant", "params": {"value": 0.0}},
    }
    return StaticGameSpec.from_dict(
        {"kind": "static", "world": 1, "prior": [1.0], "teams": [team, dict(team)]}
    )


def _law(policy: TeamPolicy, n: int, n_obs: int, n_actions: int) -> dict:
    return joint_action_law_rational(_unit_spec(n_obs, n_actions), 0, policy, n, 0)


def test_det_policy_acts_and_lifts_to_kernel():
    d = DetPolicy((1, 0, 1))
    assert d.act(0) == 1
    assert d.act(2) == 1
    k = d.as_kernel(2)
    assert k.rows.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_behavioral_rows_validated():
    with pytest.raises(ModelError):
        BehavioralPolicy.from_rows([[0.5, 0.6]])
    b = BehavioralPolicy.from_rows([[0.25, 0.75], [1.0, 0.0]])
    assert b.n_obs == 2 and b.n_actions == 2


def test_product_rejects_non_behavioral_members():
    b = BehavioralPolicy.from_rows([[0.5, 0.5]])
    with pytest.raises(ModelError):
        TeamPolicy.product([b, TeamPolicy.symmetric_iid(b)])


def test_mixture_weights_must_sum_to_one():
    d0 = DetPolicy((0,))
    d1 = DetPolicy((1,))
    with pytest.raises(ModelError):
        TeamPolicy.mixture([(0.4, (d0, d0)), (0.4, (d1, d1))])


def test_kuhn_direction_behavioral_to_mixture_matches_seat_kernels():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_obs = int(rng.integers(1, 3))
        n_act = int(rng.integers(2, 4))
        b = random_behavioral(rng, n_obs, n_act)
        n = int(rng.integers(1, 4))
        mix = behavioral_to_mixture(b, n)
        assert mix.kind == "mixture"
        for seat in range(n):
            k = induced_seat_kernel(mix, seat, n_act)
            np.testing.assert_allclose(k.rows, b.kernel.rows, atol=1e-12)


def test_mixture_from_behavioral_is_iid_across_seats():
    # the lift must make seats independent, matching the product law exactly
    b = BehavioralPolicy.from_rows([[0.25, 0.75], [0.5, 0.5]])
    mix = behavioral_to_mixture(b, 2)
    law_mix = _law(mix, 2, n_obs=2, n_actions=2)
    law_iid = _law(TeamPolicy.symmetric_iid(b), 2, n_obs=2, n_actions=2)
    for key in set(law_mix) | set(law_iid):
        assert abs(float(law_mix.get(key, 0) - law_iid.get(key, 0))) < 1e-12


def test_anticorrelated_pair_is_exchangeable_but_not_iid():
    p = anticorrelated_pair()
    assert p.kind == "mixture"
    assert p.n_dms == 2
    assert is_exchangeable(p)
    # joint law puts no mass on agreeing actions; no iid law can do that
    law = _law(p, 2, n_obs=1, n_actions=2)
    assert float(law.get((0, 1), 0)) == pytest.approx(0.5)
    assert float(law.get((1, 0), 0)) == pytest.approx(0.5)
    assert float(law.get((0, 0), 0)) == 0.0
    assert float(law.get((1, 1), 0)) == 0.0


def _pair_joint(p: TeamPolicy) -> np.ndarray:
    """Joint action pmf over (u1, u2) for a 2-seat team on one observation."""
    out = np.zeros((2, 2))
    for (a1, a2), w in _law(p, 2, n_obs=1, n_actions=2).items():
        out[a1, a2] = float(w)
    return out


def test_anticorrelated_pair_far_from_every_iid_law():
    target = _pair_joint(anticorrelated_pair()).ravel()
    worst = np.inf
    for q in np.arange(0.0, 1.0 + 1e-12, 1e-2):
        base = BehavioralPolicy.from_rows([[1 - q, q]])
        cand = _pair_joint(TeamPolicy.symmetric_iid(base)).ravel()
        worst = min(worst, tv_distance(target, cand))
    assert worst > 0.1


def test_symmetrize_produces_exchangeable_team():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_team_policy(rng, n_obs=2, n_actions=2, n_dms=2)
        s = symmetrize(p)
        assert is_exchangeable(s)


def test_permute_profile_relabels_seats():
    d0 = DetPolicy((0,))
    d1 = DetPolicy((1,))
    p = TeamPolicy.mixture([(1.0, (d0, d1))])
    q = permute_profile(p, [1, 0])
    law = _law(q, 2, n_obs=1, n_actions=2)
    assert float(law[(1, 0)]) == 1.0


def test_permutation_invariance_characterizes_exchangeability():
    d0 = DetPolicy((0,))
    d1 = DetPolicy((1,))
    lopsided = TeamPolicy.mixture([(1.0, (d0, d1))])
    assert not is_exchangeable(lopsided)
    even = TeamPolicy.mixture([(0.5, (d0, d1)), (0.5, (d1, d0))])
    assert is_exchangeable(even)


def test_sample_profile_is_deterministic_in_the_seed():
    p = random_team_policy(np.random.default_rng(3), n_obs=2, n_actions=3, n_dms=3)
    a = [d.actions for d in sample_profile(p, 3, np.random.default_rng(42))]
    b = [d.actions for d in sample_profile(p, 3, np.random.default_rng(42))]
    assert a == b


@pytest.mark.parametrize("seed", range(6))
def test_sample_profile_matches_the_seat_oracle(seed):
    rng = np.random.default_rng(600 + seed)
    n_obs, n_actions, n = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 6))
    for _ in range(5):
        p = random_team_policy(rng, n_obs, n_actions, n)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert [d.actions for d in sample_profile(p, n, a)] == seat_sample_profile(p, n, b)
        assert a.random() == b.random()  # both read the same number of uniforms


def _check_inverse_cdf(weights, r):
    cum = np.cumsum(weights, axis=-1)
    got = _inverse_cdf(cum, r)
    want = summed_inverse_cdf(cum, r)
    assert got.dtype == np.int64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    w, u = np.broadcast_arrays(weights, np.asarray(r)[..., None])
    picks = [_pick(row, float(x)) for row, x in zip(w.reshape(-1, w.shape[-1]), u.reshape(-1, u.shape[-1])[:, 0])]
    np.testing.assert_array_equal(got, np.reshape(picks, got.shape))


def test_inverse_cdf_matches_the_summed_and_searchsorted_oracles():
    # one cell: every uniform picks it, in the broadcast shape of the leading axes
    _check_inverse_cdf(np.ones((2, 1)), np.array([0.0, 0.5, 1.0]).reshape(3, 1, 1))
    _check_inverse_cdf(np.ones(1), 0.3)
    # a uniform equal to a running sum counts that sum
    _check_inverse_cdf(np.array([0.25, 0.25, 0.5]), np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    # running sums that end below 1: a uniform at or above the last picks the last cell
    short = np.array([0.3, 0.3, 0.3999999])
    _check_inverse_cdf(short, np.array([np.cumsum(short)[-1], 0.99999995, 0.9999999999]))
    # zero-probability cells are never picked, not even at their running sum
    _check_inverse_cdf(np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([[0.0], [0.5], [0.7]]))
    _check_inverse_cdf(np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.0, 0.49, 0.5, 0.51, 0.999]))
    # leading axes broadcast on both sides
    rng = np.random.default_rng(44)
    for k in (1, 2, 3, 4):
        weights = rng.random((2, 1, 3, k)) * (rng.random((2, 1, 3, k)) < 0.7)
        weights /= np.maximum(weights.sum(axis=-1, keepdims=True), 1e-300)
        r = rng.random((4, 1))
        r[0, 0] = np.cumsum(weights, axis=-1)[0, 0, 0, 0]
        _check_inverse_cdf(weights, r)


def test_sample_profile_respects_mixture_support():
    p = anticorrelated_pair()
    rng = np.random.default_rng(5)
    for _ in range(2000):
        prof = sample_profile(p, 2, rng)
        assert prof[0].actions != prof[1].actions


def test_support_cap_guards_blowup(monkeypatch):
    import teamfield.policies as policies

    # 8 observations x 2 actions -> 256 deterministic maps per seat,
    # 256^2 profiles blows past a tiny cap
    monkeypatch.setattr(policies, "SUPPORT_CAP", 100)
    rows = np.full((8, 2), 0.5)
    b = BehavioralPolicy.from_rows(rows)
    with pytest.raises(BudgetError):
        behavioral_to_mixture(b, 2)
    with pytest.raises(BudgetError):
        symmetrize(TeamPolicy.product([b, b]))


def test_induced_seat_kernel_of_product():
    b0 = BehavioralPolicy.from_rows([[1.0, 0.0]])
    b1 = BehavioralPolicy.from_rows([[0.25, 0.75]])
    p = TeamPolicy.product([b0, b1])
    np.testing.assert_allclose(induced_seat_kernel(p, 0, 2).rows, [[1.0, 0.0]])
    np.testing.assert_allclose(induced_seat_kernel(p, 1, 2).rows, [[0.25, 0.75]])


def test_exchangeability_invariant_under_all_permutations():
    rng = np.random.default_rng(19)
    for _ in range(5):
        p = random_team_policy(rng, n_obs=1, n_actions=2, n_dms=3)
        s = symmetrize(p)
        base = _law(s, 3, n_obs=1, n_actions=2)
        for sigma in itertools.permutations(range(3)):
            permuted = _law(permute_profile(s, sigma), 3, n_obs=1, n_actions=2)
            for key in set(base) | set(permuted):
                assert abs(float(base.get(key, 0) - permuted.get(key, 0))) < 1e-12


def _random_small_policy(rng):
    """A random mixture or product policy on at most 6 seats whose
    symmetrization has few enough seat orders, times n!, for the
    permutation oracle to stay quick."""
    while True:
        n = int(rng.integers(1, 7))
        n_obs, n_act = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        kind = "mixture" if (n_act**n_obs) ** n > 64 else ("mixture", "product")[int(rng.integers(0, 2))]
        p = random_team_policy(rng, n_obs, n_act, n, kind=kind)
        if len(symmetrize(p).components) * math.factorial(n) <= 20_000:
            return p


def test_symmetrize_matches_the_permutation_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = _random_small_policy(rng)
        got, want = symmetrize(p), permutation_symmetrize(p)
        assert [prof for _, prof in got.components] == [prof for _, prof in want.components]
        np.testing.assert_allclose([w for w, _ in got.components], [w for w, _ in want.components], rtol=0, atol=1e-12)


def test_is_exchangeable_matches_the_permutation_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = _random_small_policy(rng)
        for q in (p, symmetrize(p)):
            assert is_exchangeable(q) == permutation_is_exchangeable(q)


def test_symmetry_gap_lies_within_a_factor_two_of_the_permutation_distance():
    # d_sym <= max_sigma TV(law, law o sigma) <= 2 d_sym
    rng = np.random.default_rng(31)
    seen = 0
    for _ in range(100):
        p = _random_small_policy(rng)
        worst = max_permutation_tv(p)
        if worst < 1e-6:
            continue
        seen += 1
        assert is_exchangeable(p, tol=worst * (1 + 1e-9))
        assert not is_exchangeable(p, tol=0.5 * worst * (1 - 1e-9))
    assert seen > 50


def test_symmetrize_and_is_exchangeable_at_twelve_seats():
    d0, d1 = DetPolicy((0,)), DetPolicy((1,))
    p = TeamPolicy.mixture([(0.25, (d0,) * 6 + (d1,) * 6), (0.75, (d1,) * 3 + (d0,) * 9)])
    s = symmetrize(p)
    assert not is_exchangeable(p)
    assert is_exchangeable(s)
    assert len(s.components) == math.comb(12, 6) + math.comb(12, 3)
    weights = {}
    for w, profile in s.components:
        weights.setdefault(sum(d is d1 or d == d1 for d in profile), set()).add(w)
    assert set(weights) == {6, 3}
    assert max(weights[6]) == pytest.approx(0.25 / math.comb(12, 6), rel=1e-12)
    assert max(weights[3]) == pytest.approx(0.75 / math.comb(12, 3), rel=1e-12)
    assert max(weights[6]) - min(weights[6]) < 1e-18 and max(weights[3]) - min(weights[3]) < 1e-18


def test_symmetrize_checks_its_support_before_building_orders(monkeypatch):
    from teamfield import policies

    maps = [DetPolicy(tuple((j >> y) & 1 for y in range(4))) for j in range(12)]
    p = TeamPolicy.mixture([(1.0, tuple(maps))])
    monkeypatch.setattr(policies, "_orders", lambda seats: pytest.fail("built a seat order"))
    with pytest.raises(BudgetError) as err:
        symmetrize(p)
    assert (err.value.what, err.value.required, err.value.budget) == ("mixture support", 479001600, 4096)
