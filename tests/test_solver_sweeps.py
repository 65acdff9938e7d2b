"""The solvers' array sweeps, pinned byte for byte to the sweeps they replaced.

The dynamic solver keeps each team's stage rules as one (H, Y, U) array,
fills its stage tables once per stage over every world point and answers
from them; tests._oracles.dynamic_solver_sweeps is the sweep that built
per-Kernel StagePolicy objects and filled the tables one (stage, world
point) at a time. Both solvers share damped_fixed_point, which takes each
team's update TV in one array pass; tests._oracles.damped_fixed_point_loops
is the iteration that called tv_distance once per row.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from teamfield import cli
from teamfield.core.errors import ModelError
from teamfield.core.specs import validate_dynamic_spec
from teamfield.dynamic import (
    DYN_BR_BUDGET,
    _best_response,
    _policy_values,
    _propagate,
    dynamic_best_response_fixed_flow,
    mf_dynamic_cost,
    propagate_mf_flow,
    solve_dynamic_mf_fixed_point,
)
from teamfield.io import load_spec
from teamfield.mf_static import SolverConfig, solve_mf_fixed_point
from tests._gen import (
    bench_dynamic_spec,
    noisy_spec,
    random_dynamic_spec,
    random_stage_policy,
    random_static_spec,
    tri_spec,
    world_table_spec,
)
from tests._oracles import (
    _kernel_propagate,
    dynamic_solver_sweeps,
    loop_best_response,
    static_solver_sweeps,
    world_point_tables,
)
from tests._paths import GAMES, REPO

SMOOTH = SolverConfig(smooth_init=1.0)
CAPPED = SolverConfig(smooth_init=1.0, max_iters=300)
BENCH = {"dyn2": (6, 2), "dyn3": (3, 3), "dyn4": (5, 4)}
RANDOM_DYNAMIC = [  # (seed, transition, W, horizon)
    (1, "fixed", 1, 2),
    (2, "fixed", 2, 2),
    (3, "fixed", 1, 3),
    (4, "fixed", 2, 3),
    (5, "mean-field-mixture", 1, 2),
    (6, "mean-field-mixture", 2, 2),
    (7, "mean-field-mixture", 1, 3),
    (8, "mean-field-mixture", 2, 3),
]


def _bundled(name):
    return lambda: (load_spec(GAMES / f"{name}.json"), SMOOTH)


def _bench(label, seed):
    return lambda: (bench_dynamic_spec(seed, *BENCH[label]), SMOOTH)


def _random(seed, transition, n_world, horizon):
    def make():
        rng = np.random.default_rng(seed)
        return random_dynamic_spec(rng, 2 + seed % 2, 2, 2, n_world, transition, horizon), CAPPED

    return make


def _cli_start(name, seed):
    def make():
        path = GAMES / f"{name}.json"
        args = cli._build_parser().parse_args(["solve-mf-dyn", "--spec", str(path), "--seed", str(seed), "--max-iters", "300"])
        spec = load_spec(path)
        return spec, cli._solver_cfg(args, spec)

    return make


DYNAMIC_CASES = {
    "crowd": _bundled("crowd_avoidance"),
    "copies": _bundled("state_copies_action"),
    "world_table": lambda: (world_table_spec(), SMOOTH),
    **{f"{label}-seed{seed}": _bench(label, seed) for label in BENCH for seed in (1, 3, 7)},
    **{f"random-{seed}-{tr}-W{w}-H{h}": _random(seed, tr, w, h) for seed, tr, w, h in RANDOM_DYNAMIC},
    **{f"cli-{name}-seed{seed}": _cli_start(name, seed) for name in ("crowd_avoidance", "state_copies_action") for seed in range(1, 5)},
}


def _assert_matches_sweeps(spec, cfg):
    eq = solve_dynamic_mf_fixed_point(spec, cfg)
    rows, flows, br, consistency, iterations, converged, exhaustive = dynamic_solver_sweeps(spec, cfg)
    for i in range(2):
        assert len(eq.policies[i].kernels) == len(rows[i]) == spec.horizon
        for k, r in zip(eq.policies[i].kernels, rows[i]):
            assert k.rows.tobytes() == r.tobytes()
        for got, want in zip(eq.flows.joints[i], flows[i], strict=True):
            assert got.tobytes() == want.tobytes()
    assert eq.br_residual == br
    assert eq.consistency_residual == consistency
    assert (eq.iterations, eq.converged, eq.br_exhaustive) == (iterations, converged, exhaustive)
    return eq


@pytest.mark.parametrize("case", list(DYNAMIC_CASES))
def test_dynamic_solver_matches_the_kernel_sweeps(case):
    spec, cfg = DYNAMIC_CASES[case]()
    assert validate_dynamic_spec(spec).ok
    _assert_matches_sweeps(spec, cfg)


STATIC_CASES = {
    **{name: (lambda name=name: load_spec(GAMES / f"{name}.json")) for name in ("spread", "coordination", "mf_mismatch")},
    **{f"noisy-{s}": (lambda s=s: noisy_spec(s)) for s in (1, 3, 7)},
    **{f"tri-{s}": (lambda s=s: tri_spec(s)) for s in (1, 3, 7)},
    **{f"random-{s}": (lambda s=s: random_static_spec(np.random.default_rng(100 + s))) for s in range(10)},
}


@pytest.mark.parametrize("case", list(STATIC_CASES))
def test_static_solver_matches_the_row_loop_iteration(case):
    spec = STATIC_CASES[case]()
    cfg = SolverConfig(smooth_init=1.0, max_iters=2000)
    eq = solve_mf_fixed_point(spec, cfg)
    want = static_solver_sweeps(spec, cfg)
    for i in range(2):
        assert eq.policies[i].kernel.rows.tobytes() == want.policies[i].kernel.rows.tobytes()
        assert eq.mean_fields.laws[i].tobytes() == want.mean_fields.laws[i].tobytes()
    assert (eq.br_residual, eq.consistency_residual) == (want.br_residual, want.consistency_residual)
    assert (eq.iterations, eq.converged) == (want.iterations, want.converged)


def test_a_stage_cost_that_reads_the_world_point():
    spec = world_table_spec()
    cost = spec.teams[0].stage_cost
    s1, s2 = np.array([0.25, 0.75]), np.array([0.5, 0.1])
    at = [cost.table(w, (2, 2, 2), None, None, s1, s2) for w in range(2)]
    assert not np.array_equal(at[0], at[1])  # the world point matters
    # an index array per key reads each key's world point
    mixed = cost.table(np.array([0, 1]), (2, 2, 2), None, None, s1, s2)
    assert mixed.tobytes() == np.stack([at[0][0], at[1][1]]).tobytes()

    eq = _assert_matches_sweeps(spec, SMOOTH)
    assert eq.converged

    rng = np.random.default_rng(4)
    for _ in range(3):
        pols = tuple(random_stage_policy(rng, spec, i) for i in range(2))
        flows = propagate_mf_flow(spec, pols)
        want_flows, _ = _kernel_propagate(spec, pols)
        for i in range(2):
            for got, want in zip(flows.joints[i], want_flows[i], strict=True):
                assert got.tobytes() == want.tobytes()
        for i in range(2):
            tables = world_point_tables(spec, i, flows.joints)
            laws = [(spec.teams[i].obs_kernels[t] @ pols[i].kernels[t].rows)[None] for t in range(spec.horizon)]
            assert mf_dynamic_cost(spec, i, pols[i], flows) == float(_policy_values(spec, i, laws, *tables)[0])
            br = dynamic_best_response_fixed_flow(spec, i, flows)
            value, picks = loop_best_response(spec, i, *tables)
            assert br.value == pytest.approx(value, abs=1e-12)
            assert br.exhaustive
            ref = _best_response(spec, i, *tables, DYN_BR_BUDGET)
            assert br.value == ref.value
            for k, r in zip(br.policy.kernels, ref.policy.kernels, strict=True):
                assert k.rows.tobytes() == r.rows.tobytes()


def _ok_rows(spec):
    t = spec.teams[0]
    return [np.full((t.observations.size, t.actions.size), 1.0 / t.actions.size)] * spec.horizon


def _with_row(spec, row):
    rows = [r.copy() for r in _ok_rows(spec)]
    rows[1][0] = row
    return rows


# the messages solve_dynamic_mf_fixed_point raised before its sweeps ran on arrays
BAD_STARTS = {
    "nan": (lambda spec: _with_row(spec, [np.nan, 0.5]), "nonfinite kernel entry"),
    "inf": (lambda spec: _with_row(spec, [np.inf, 0.5]), "nonfinite kernel entry"),
    "negative": (lambda spec: _with_row(spec, [1.5, -0.5]), "negative kernel entry"),
    "negative-and-mass": (lambda spec: _with_row(spec, [-0.5, 1.0]), "negative kernel entry; kernel row mass off by 0.5"),
    "mass": (lambda spec: _with_row(spec, [0.5, 0.5 + 1e-9]), "kernel row mass off by 1e-09"),
    "shape": (lambda spec: [np.full((2, 3), 1.0 / 3)] * spec.horizon, "team 0 stage policy kernel shape mismatch"),
    "few-stages": (lambda spec: _ok_rows(spec)[:1], "team 0 stage policy covers 1 stages, horizon is 2"),
    "no-stages": (lambda spec: [], "stage policy needs at least one stage"),
}


@pytest.mark.parametrize("case", list(BAD_STARTS))
def test_bad_start_rows_fail_as_before(case):
    spec = load_spec(GAMES / "state_copies_action.json")
    make, message = BAD_STARTS[case]
    rows = make(spec)
    with pytest.raises(ModelError) as err:
        solve_dynamic_mf_fixed_point(spec, SolverConfig(smooth_init=1.0, init_rows=(rows, _ok_rows(spec))))
    assert str(err.value) == message
    # the one-pass array check of every sweep says the same
    stacked = np.asarray(rows, dtype=float) if rows else np.zeros((0, 2, 2))
    with pytest.raises(ModelError) as err:
        _propagate(spec, [stacked, np.stack(_ok_rows(spec))])
    assert str(err.value) == message


def test_a_ragged_start_fails_as_before():
    spec = load_spec(GAMES / "state_copies_action.json")
    rows = [_ok_rows(spec)[0], np.full((2, 3), 1.0 / 3)]
    with pytest.raises(ModelError, match="^team 0 stage policy kernel shape mismatch$"):
        solve_dynamic_mf_fixed_point(spec, SolverConfig(init_rows=(rows, _ok_rows(spec))))


def test_start_rows_past_the_horizon_solve_as_before():
    spec = load_spec(GAMES / "state_copies_action.json")
    extra = np.array([[0.9, 0.1], [0.3, 0.7]])
    cfg = SolverConfig(smooth_init=1.0, init_rows=(_ok_rows(spec) + [extra], _ok_rows(spec) + [extra, extra]))
    eq = _assert_matches_sweeps(spec, cfg)
    assert eq.iterations == solve_dynamic_mf_fixed_point(spec, SMOOTH).iterations


# md5 of the copies solve at --seed 2 --max-iters 200, taken before the
# sweeps ran on arrays; stdout without --out is the --out document
SEEDED_COPIES_MD5 = "dfb1c6127ea0022e843748a6e4ee0f73"


def test_seeded_cli_solve_mf_dyn_output_is_pinned(tmp_path):
    args = ["solve-mf-dyn", "--spec", str(GAMES / "state_copies_action.json"), "--seed", "2", "--max-iters", "200"]
    out = tmp_path / "copies.json"
    runs = [
        subprocess.run([sys.executable, "-m", "teamfield", *extra], capture_output=True, env=dict(os.environ), cwd=str(REPO))
        for extra in (args, args + ["--out", str(out)])
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert hashlib.md5(runs[0].stdout).hexdigest() == SEEDED_COPIES_MD5
    assert hashlib.md5(out.read_bytes()).hexdigest() == SEEDED_COPIES_MD5
    summary = f"solve-mf-dyn: converged=True iterations=84 br=(1.2e-08,1.2e-08) -> {out}\n"
    assert runs[1].stdout.decode() == summary
