"""Inputs, jobs and correctness checks of the three benchmark workloads.

Every input is a bundled game from ``games/`` or is generated from the
benchmark seed, so one seed gives the same inputs on every run. A job is
one call into teamfield (one operation); it returns the list of checks
its result failed, and a job that raises counts as failed too.

Generated games use cost families on which the solvers converge with the
CLI's default solver settings; ``SOLVER`` below is those settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import teamfield as tf

ROOT = Path(__file__).resolve().parent.parent
GAMES = ROOT / "games"

SOLVER = tf.SolverConfig(smooth_init=1.0)
TOL = 1e-12
BUNDLED_STATIC = ("spread", "coordination", "mf_mismatch")
WIDE_SIZES = (2, 4, 8, 12)
NOISY_SIZES = (2, 4, 6, 8)
REPS = 400


@dataclass
class Job:
    group: str
    name: str
    fn: Callable[[], list]
    episodes: int = 0


@dataclass
class Workload:
    jobs: list
    # Frontier ladder: (metric name, game, probe function of N returning (eps, checks)).
    ladder: tuple
    # Job groups whose time is the workload's time to certificate.
    cert_groups: tuple
    # Per-group figures printed beside the metrics: (name, unit, group);
    # a unit of 1/s means episodes per second, s the group's time per pass.
    report: tuple


def _rows(g: np.random.Generator, n: int, m: int, floor: float) -> np.ndarray:
    """A random stochastic matrix whose entries stay away from zero."""
    raw = g.random((n, m)) + floor
    return raw / raw.sum(axis=1, keepdims=True)


def _embedding(g: np.random.Generator, n_actions: int) -> list:
    """Increasing embedding spanning [0, n_actions - 1], random inside."""
    inner = np.sort(g.random(n_actions - 2)) * (n_actions - 1)
    return [0.0, *inner.tolist(), float(n_actions - 1)]


def _static_game(g, n_world: int, n_obs: int, n_actions: int) -> tf.StaticGameSpec:
    """Team 0 tracks the opponent's mean, team 1 coordinates on its own."""
    teams = []
    for family in ("track-opponent-mean", "team-coordination"):
        teams.append(
            {
                "actions": n_actions,
                "observations": n_obs,
                "obs_kernel": _rows(g, n_world, n_obs, 0.2).tolist(),
                "statistic": {"kind": "mean-embedding", "embedding": _embedding(g, n_actions)},
                "cost": {"family": family},
            }
        )
    doc = {"kind": "static", "world": n_world, "prior": _rows(g, 1, n_world, 0.5)[0].tolist(), "teams": teams}
    return tf.StaticGameSpec.from_dict(doc)


def _dynamic_game(g, horizon: int) -> tf.DynamicGameSpec:
    """3 states, 3 actions, 2 observations, 2 world points.

    Seats pay for occupying state 2, and each team's transitions lean
    towards its own state flow, so the coupling runs through the dynamics.
    """
    teams = []
    for _ in range(2):
        teams.append(
            {
                "states": 3,
                "actions": 3,
                "observations": 2,
                "init_kernel": _rows(g, 2, 3, 0.3).tolist(),
                "obs_model": _rows(g, 3, 2, 0.2).tolist(),
                "transition": {
                    "family": "mean-field-mixture",
                    "params": {"weight": 0.3, "base": [_rows(g, 3, 3, 0.2).tolist() for _ in range(3)]},
                },
                "cost": {"family": "state-indicator", "params": {"state": 2}},
                "stat_x": {"kind": "identity"},
                "stat_u": {"kind": "identity"},
            }
        )
    doc = {
        "kind": "dynamic",
        "world": 2,
        "prior": _rows(g, 1, 2, 0.5)[0].tolist(),
        "horizon": horizon,
        "teams": teams,
    }
    return tf.DynamicGameSpec.from_dict(doc)


def _validated(spec):
    report = tf.validate_static_spec(spec) if isinstance(spec, tf.StaticGameSpec) else tf.validate_dynamic_spec(spec)
    if not report.ok:
        raise tf.SpecValidationError(list(report.entries))
    return spec


def _stream(seed: int, k: int) -> np.random.Generator:
    """Independent generator for the k-th generated input of a seed."""
    return np.random.default_rng([seed, k])


def _sym(rows) -> tf.TeamPolicy:
    return tf.TeamPolicy.symmetric_iid(tf.BehavioralPolicy.from_rows(rows))


def _noisy(seed: int):
    """The generated `noisy` game (2 world points, 2 observations, 2 actions)
    with its symmetric candidate pair."""
    spec = _validated(_static_game(_stream(seed, 0), 2, 2, 2))
    g = _stream(seed, 1)
    return spec, (_sym(_rows(g, 2, 2, 0.2)), _sym(_rows(g, 2, 2, 0.2)))


def _uniform(spec) -> tuple:
    return tf.StagePolicy.uniform(spec, 0), tf.StagePolicy.uniform(spec, 1)


def _mc_seed(seed: int, k: int) -> int:
    return int(_stream(seed, 100 + k).integers(0, 2**31 - 1))


# -- checks ---------------------------------------------------------------


def _close(label: str, got: float, want: float) -> list:
    if not abs(got - want) <= TOL:
        return [f"{label}: got {got!r}, want {want!r} to {TOL:g}"]
    return []


def _eps_checks(label: str, eps) -> list:
    out = []
    for i, e in enumerate(eps):
        if not (math.isfinite(e) and e >= -TOL):
            out.append(f"{label} team {i}: eps {e!r} is not >= -{TOL:g}")
    return out


def _sweep_checks(label: str, rows, closed_form) -> list:
    out = []
    for r in rows:
        tag = f"{label} N={r.n1}"
        if r.method != "exact":
            out.append(f"{tag}: row is {r.method}, want exact")
        out += _eps_checks(tag, r.eps)
        if closed_form is not None and r.n1 % 2 == 0:
            for i, e in enumerate(r.eps):
                out += _close(f"{tag} team {i} eps", e, closed_form(r.n1))
    return out


def _solve_checks(label: str, eq) -> list:
    if eq.converged:
        return []
    return [
        f"{label}: not converged after {eq.iterations} iterations, "
        f"br_residual={tuple(eq.br_residual)}, consistency_residual={tuple(eq.consistency_residual)}"
    ]


def _spread_eps(n: int) -> float:
    """Exact epsilon of the half/half pair on spread at even N."""
    return 1.0 / (2 * n)


def _mc_checks(label: str, mean: float, ci: float) -> list:
    if not (math.isfinite(mean) and ci > 0.0):
        return [f"{label}: mean {mean!r}, ci {ci!r}; want a finite mean and ci > 0"]
    return []


def _sim_checks(label: str, rep, reps: int) -> list:
    out = []
    if int(rep.world_counts.sum()) != reps:
        out.append(f"{label}: world_counts sum to {rep.world_counts.sum()}, want {reps}")
    for i in range(2):
        out += _mc_checks(f"{label} team {i}", rep.costs[i], rep.ci_halfwidth[i])
    return out


# -- workloads ------------------------------------------------------------


def static_exact(seed: int) -> Workload:
    """Small-team static certification: exact sweeps, mean-field solves and
    grid certificates, no sampling."""
    games = {name: tf.load_spec(GAMES / f"{name}.json") for name in BUNDLED_STATIC}
    noisy, noisy_pair = _noisy(seed)
    tri = _validated(_static_game(_stream(seed, 2), 1, 1, 3))
    half = _sym([[0.5, 0.5]])
    jobs = []

    def sweep(name, spec, pair, sizes, closed_form):
        def run():
            rows = tf.epsilon_sweep(spec, pair, [(n, n) for n in sizes])
            return _sweep_checks(name, rows, closed_form)

        return run

    for name, spec in games.items():
        closed = _spread_eps if name == "spread" else None
        jobs.append(Job("cert_wide", f"sweep_{name}", sweep(name, spec, (half, half), WIDE_SIZES, closed)))

    def spread_cost():
        out = []
        for n in WIDE_SIZES:
            inst = tf.FiniteGameInstance(games["spread"], (n, n))
            out += _close(f"spread N={n} exact cost", tf.exact_cost(inst, half, half, 0), 0.5 + 1.0 / (2 * n))
        return out

    def consensus():
        spec = games["coordination"]
        rep = tf.epsilon_ne_certify(tf.FiniteGameInstance(spec, (4, 4)), _sym([[1.0, 0.0]]), _sym([[1.0, 0.0]]))
        return [] if rep.eps == (0.0, 0.0) else [f"coordination consensus eps {rep.eps!r}, want exactly (0, 0)"]

    jobs.append(Job("cert_wide", "exact_cost_spread", spread_cost))
    jobs.append(Job("cert_wide", "consensus_coordination", consensus))
    jobs.append(Job("cert_noisy", "sweep_noisy", sweep("noisy", noisy, noisy_pair, NOISY_SIZES, None)))

    def solve(name, spec):
        return lambda: _solve_checks(f"solve_mf {name}", tf.solve_mf_fixed_point(spec, SOLVER))

    def grid(name, spec, resolution):
        def run():
            out = []
            for k, eq in enumerate(tf.grid_fixed_point_search(spec, resolution)):
                if not max(eq.consistency_residual) < resolution:
                    out.append(f"grid {name} hit {k}: consistency {eq.consistency_residual!r} >= {resolution}")
            return out

        return run

    statics = dict(games, noisy=noisy, tri=tri)
    for name, spec in statics.items():
        jobs.append(Job("grid", f"solve_mf_{name}", solve(name, spec)))
    for name, spec in statics.items():
        resolution = 0.01 if name in games else 0.1
        jobs.append(Job("grid", f"grid_{name}", grid(name, spec, resolution)))

    def probe(n):
        rep = tf.epsilon_ne_certify(tf.FiniteGameInstance(games["spread"], (n, n)), half, half)
        checks = _eps_checks(f"spread N={n}", rep.eps)
        if n % 2 == 0:
            checks += [c for i, e in enumerate(rep.eps) for c in _close(f"spread N={n} team {i} eps", e, _spread_eps(n))]
        return rep.eps, checks

    return Workload(
        jobs,
        ("frontier_static_n", "spread", probe),
        ("cert_wide", "cert_noisy"),
        (("cert_wide_s", "s", "cert_wide"), ("cert_noisy_s", "s", "cert_noisy"), ("grid_s", "s", "grid")),
    )


def monte_carlo(seed: int) -> Workload:
    """Large-team sampling in explicit Monte Carlo calls, no exact enumeration."""
    spread = tf.load_spec(GAMES / "spread.json")
    crowd = tf.load_spec(GAMES / "crowd_avoidance.json")
    noisy, noisy_pair = _noisy(seed)
    dyn3 = _validated(_dynamic_game(_stream(seed, 3), 3))
    half = _sym([[0.5, 0.5]])
    n_noisy = 100
    g = _stream(seed, 4)
    comps = []
    for w in _rows(g, 1, 3, 0.2)[0]:
        profile = [tf.DetPolicy(tuple(int(a) for a in g.integers(0, 2, size=2))) for _ in range(n_noisy)]
        comps.append((float(w), profile))
    mixture = tf.TeamPolicy.mixture(comps)
    product = tf.TeamPolicy.product([tf.BehavioralPolicy.from_rows(_rows(g, 2, 2, 0.2)) for _ in range(n_noisy)])
    jobs = []

    def mc_spread():
        n = 400
        inst = tf.FiniteGameInstance(spread, (n, n))
        mean, ci = tf.mc_cost(inst, half, half, 0, REPS, _mc_seed(seed, 0))
        out = _mc_checks("mc_cost spread", mean, ci)
        exact = 0.5 + 1.0 / (2 * n)
        if not abs(mean - exact) <= 2 * ci:
            out.append(f"mc_cost spread N={n}: {mean!r} is not within 2 x {ci!r} of {exact!r}")
        return out

    def mc_noisy(label, policy, k):
        def run():
            inst = tf.FiniteGameInstance(noisy, (n_noisy, n_noisy))
            mean, ci = tf.mc_cost(inst, policy, noisy_pair[1], 0, REPS, _mc_seed(seed, k))
            return _mc_checks(f"mc_cost noisy {label}", mean, ci)

        return run

    def simulate(label, spec, n, k):
        def run():
            rep = tf.simulate_finite_n(spec, (n, n), _uniform(spec), REPS, _mc_seed(seed, k))
            return _sim_checks(f"simulate {label} N={n}", rep, REPS)

        return run

    def eps_dyn_mc():
        rep = tf.dynamic_epsilon_estimate(
            crowd, (16, 16), _uniform(crowd), reps=REPS, rng=_mc_seed(seed, 5), mode="monte-carlo"
        )
        out = [] if rep.method == "monte-carlo" else [f"eps_dyn crowd N=16: method {rep.method}"]
        if not (rep.ci_halfwidth > 0.0 and all(math.isfinite(e) for e in rep.eps)):
            out.append(f"eps_dyn crowd N=16: eps {rep.eps!r}, ci {rep.ci_halfwidth!r}")
        return out

    jobs.append(Job("static_mc", "mc_cost_spread_400", mc_spread, REPS))
    jobs.append(Job("static_mc", "mc_cost_noisy_mixture_100", mc_noisy("mixture", mixture, 1), REPS))
    jobs.append(Job("static_mc", "mc_cost_noisy_product_100", mc_noisy("product", product, 2), REPS))
    jobs.append(Job("dyn_sim", "simulate_crowd_1000", simulate("crowd", crowd, 1000, 3), REPS))
    jobs.append(Job("dyn_sim", "simulate_dyn3_200", simulate("dyn3", dyn3, 200, 4), REPS))
    jobs.append(Job("eps_dyn_mc", "eps_dyn_mc_crowd_16", eps_dyn_mc))

    def probe(n):
        rep = tf.epsilon_ne_certify(tf.FiniteGameInstance(noisy, (n, n)), *noisy_pair)
        return rep.eps, _eps_checks(f"noisy N={n}", rep.eps)

    return Workload(
        jobs,
        ("frontier_noisy_n", "noisy", probe),
        ("eps_dyn_mc",),
        (
            ("static_episodes_per_s", "1/s", "static_mc"),
            ("dyn_episodes_per_s", "1/s", "dyn_sim"),
            ("eps_dyn_mc_s", "s", "eps_dyn_mc"),
        ),
    )


# Exact dynamic epsilon of the uniform pair where it is known in closed form.
CROWD_EPS = {2: 1.0 / 4, 3: 1.0 / 9}
COPIES_EPS = {2: 1.0 / 2}


def dynamic_exact(seed: int) -> Workload:
    """Finite-horizon exact certification and dynamic mean-field solves."""
    crowd = tf.load_spec(GAMES / "crowd_avoidance.json")
    copies = tf.load_spec(GAMES / "state_copies_action.json")
    dyn2 = _validated(_dynamic_game(_stream(seed, 6), 2))
    dyn4 = _validated(_dynamic_game(_stream(seed, 5), 4))
    jobs = []

    def exact_eps(label, spec, n, known):
        rep = tf.dynamic_epsilon_estimate(spec, (n, n), _uniform(spec), mode="exact")
        out = [] if rep.method == "exact" else [f"eps_dyn {label} N={n}: method {rep.method}"]
        out += _eps_checks(f"eps_dyn {label} N={n}", rep.eps)
        if n in known:
            out += [c for i, e in enumerate(rep.eps) for c in _close(f"eps_dyn {label} N={n} team {i}", e, known[n])]
        return rep.eps, out

    def cert(label, spec, n, known):
        return lambda: exact_eps(label, spec, n, known)[1]

    jobs.append(Job("cert_dyn", "eps_dyn_crowd_2", cert("crowd", crowd, 2, CROWD_EPS)))
    jobs.append(Job("cert_dyn", "eps_dyn_crowd_3", cert("crowd", crowd, 3, CROWD_EPS)))
    jobs.append(Job("cert_dyn", "eps_dyn_copies_2", cert("state_copies_action", copies, 2, COPIES_EPS)))
    jobs.append(Job("cert_dyn", "eps_dyn_dyn2_1", cert("dyn2", dyn2, 1, {})))

    def solve(label, spec):
        return lambda: _solve_checks(f"solve_mf_dyn {label}", tf.solve_dynamic_mf_fixed_point(spec, SOLVER))

    jobs.append(Job("solve_dyn", "solve_dyn_crowd", solve("crowd", crowd)))
    jobs.append(Job("solve_dyn", "solve_dyn_copies", solve("state_copies_action", copies)))
    jobs.append(Job("solve_dyn", "solve_dyn_dyn4", solve("dyn4", dyn4)))

    return Workload(
        jobs,
        ("frontier_dynamic_n", "crowd_avoidance", lambda n: exact_eps("crowd", crowd, n, CROWD_EPS)),
        ("cert_dyn",),
        (("cert_dyn_s", "s", "cert_dyn"), ("solve_dyn_s", "s", "solve_dyn")),
    )


WORKLOADS = {"static_exact": static_exact, "monte_carlo": monte_carlo, "dynamic_exact": dynamic_exact}


def set_up(name: str, seed: int) -> Workload:
    """Load, validate and generate every input, and finish lazy imports."""
    import scipy.optimize  # noqa: F401  (grid certificates import it on first use)

    return WORKLOADS[name](seed)
