"""Command-line harness.

Eight subcommands cover validation, the two fixed-point solvers, grid
certification, finite-team epsilon certificates, size sweeps, and the
coupled simulator. Exit codes: 0 success, 1 bad input (parse errors,
validation failures, missing or out-of-range flags), 2 budget or
convergence failures. Diagnostics are still written on exit 2 so a
failed run leaves something to inspect.

Stochastic commands refuse to run without --seed; there is no
wall-clock fallback, outputs must be replayable. Episodes run in order
in one thread, each on its own counter-based random stream, so a fixed
seed gives byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import io as tfio
from .core.errors import BudgetError, ModelError, SpecValidationError
from .core.specs import DynamicGameSpec, StaticGameSpec
from .dynamic import (
    StagePolicy,
    dynamic_epsilon_estimate,
    simulate_finite_n,
    solve_dynamic_mf_fixed_point,
)
from .finite_n import _episode_streams, epsilon_sweep, size_pairs
from .mf_static import (
    SolverConfig,
    grid_fixed_point_search,
    solve_mf_fixed_point,
)

MAX_CLI_RESOLUTION = 0.1


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2; here 2 means a budget or
    convergence failure, so flag problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--smooth-init", type=float, default=1.0)
    p.add_argument("--smooth-anneal", type=float, default=0.5)
    p.add_argument("--smooth-floor", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=None, help="randomize the initial rules")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="teamfield")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against the schema rules")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve-mf", help="static mean-field fixed point")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    _solver_flags(p)

    p = sub.add_parser("solve-mf-dyn", help="dynamic mean-field fixed point")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", default=None)
    _solver_flags(p)

    p = sub.add_parser("grid-search", help="certify fixed points on a simplex grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--resolution", type=float, required=True)
    p.add_argument("--tie-tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)

    p = sub.add_parser("certify", help="epsilon certificate at one pair of team sizes")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--policy", required=True)
    p.add_argument("--n", type=int, nargs=2, required=True, metavar=("N1", "N2"))
    p.add_argument("--reps", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deviation-step", type=float, default=0.25, help="deviation grid step for Monte Carlo")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep-n", help="epsilon certificates over a list of team sizes")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--mfeq", default=None, help="equilibrium JSON whose policies are swept")
    p.add_argument("--policy", default=None, help="policy-pair JSON to sweep")
    p.add_argument("--ns", required=True, help="comma-separated sizes for team 1")
    p.add_argument("--ratio", type=float, default=1.0, help="team 2 size = ratio * team 1 size")
    p.add_argument("--reps", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deviation-step", type=float, default=0.25)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="roll out the coupled finite-team system")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--policy", default=None, help="dynamic policy pair; uniform rules if omitted")
    p.add_argument("--n", type=int, nargs="+", required=True, metavar="N")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eps-dyn", help="dynamic epsilon certificate at finite sizes")
    p.add_argument("--spec", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--policy", default=None, help="dynamic policy pair; uniform rules if omitted")
    p.add_argument("--n", type=int, nargs="+", required=True, metavar="N")
    p.add_argument("--exact", action="store_true", help="require exact enumeration")
    p.add_argument("--reps", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deviation-step", type=float, default=0.5, help="deviation grid step for Monte Carlo")
    p.add_argument("--out", default=None)

    return top


def _emit(doc: dict, out, summary: str) -> None:
    if out is None:
        sys.stdout.write(tfio.dumps_stable(doc))
    else:
        tfio.write_json(out, doc)
        print(f"{summary} -> {out}")


def _emit_csv(rows, out, summary: str) -> None:
    if out is None:
        sys.stdout.write(tfio.sweep_csv_text(rows))
    else:
        tfio.write_sweep_csv(out, rows)
        print(f"{summary} -> {out}")


def _need_static(spec) -> StaticGameSpec:
    if not isinstance(spec, StaticGameSpec):
        raise ModelError("this command needs a static game file")
    return spec


def _need_dynamic(spec) -> DynamicGameSpec:
    if not isinstance(spec, DynamicGameSpec):
        raise ModelError("this command needs a dynamic game file")
    return spec


def _sizes(values) -> tuple[int, int]:
    if len(values) == 1:
        return int(values[0]), int(values[0])
    if len(values) == 2:
        return int(values[0]), int(values[1])
    raise ModelError("--n takes one shared size or two per-team sizes")


def _check_resolution(r: float) -> float:
    if not 0.0 < r <= MAX_CLI_RESOLUTION + 1e-15:
        raise ModelError(f"resolution must lie in (0, {MAX_CLI_RESOLUTION}]")
    return r


def _solver_cfg(args, spec) -> SolverConfig:
    init_rows = None
    if args.seed is not None:
        g = _episode_streams(args.seed)(0)
        static = isinstance(spec, StaticGameSpec)
        init_rows = []
        for t in spec.teams:  # team by team, then stage by stage
            raws = [g.random((t.observations.size, t.actions.size)) + 1e-3 for _ in range(1 if static else spec.horizon)]
            stages = [raw / raw.sum(axis=1, keepdims=True) for raw in raws]
            init_rows.append(stages[0] if static else stages)
        init_rows = tuple(init_rows)
    return SolverConfig(
        damping=args.damping,
        tol=args.tol,
        max_iters=args.max_iters,
        smooth_init=args.smooth_init,
        smooth_anneal=args.smooth_anneal,
        smooth_floor=args.smooth_floor,
        init_rows=init_rows,
    )


def _cmd_validate(args) -> int:
    spec = tfio.spec_from_dict(tfio.load_json(args.spec))
    report = tfio.validate_any(spec)
    doc = {
        "schema": tfio.SCHEMA,
        "kind": "validation-report",
        "ok": report.ok,
        "entries": list(report.entries),
    }
    if args.out is not None:
        tfio.write_json(args.out, doc)
    if report.ok:
        print(f"valid: {args.spec}")
        return 0
    print(f"invalid: {args.spec}", file=sys.stderr)
    print(str(report), file=sys.stderr)
    return 1


def _cmd_solve_mf(args) -> int:
    spec = _need_static(tfio.load_spec(args.spec, force=args.force))
    eq = solve_mf_fixed_point(spec, _solver_cfg(args, spec))
    doc = tfio.mf_equilibrium_doc(eq)
    summary = (
        f"solve-mf: converged={eq.converged} iterations={eq.iterations} "
        f"br=({eq.br_residual[0]:.3g},{eq.br_residual[1]:.3g})"
    )
    _emit(doc, args.out, summary)
    return 0 if eq.converged else 2


def _cmd_solve_mf_dyn(args) -> int:
    spec = _need_dynamic(tfio.load_spec(args.spec, force=args.force))
    eq = solve_dynamic_mf_fixed_point(spec, _solver_cfg(args, spec))
    doc = tfio.dynamic_equilibrium_doc(eq)
    summary = (
        f"solve-mf-dyn: converged={eq.converged} iterations={eq.iterations} "
        f"br=({eq.br_residual[0]:.3g},{eq.br_residual[1]:.3g})"
    )
    _emit(doc, args.out, summary)
    return 0 if eq.converged else 2


def _cmd_grid_search(args) -> int:
    spec = _need_static(tfio.load_spec(args.spec, force=args.force))
    res = _check_resolution(args.resolution)
    hits = grid_fixed_point_search(spec, res, tie_tol=args.tie_tol)
    doc = {
        "schema": tfio.SCHEMA,
        "kind": "grid-fixed-points",
        "resolution": float(res),
        "hits": [tfio.mf_equilibrium_doc(h) for h in hits],
    }
    _emit(doc, args.out, f"grid-search: {len(hits)} fixed point(s) at resolution {res:g}")
    return 0


def _cmd_certify(args) -> int:
    spec = _need_static(tfio.load_spec(args.spec, force=args.force))
    p1, p2 = tfio.load_policy_pair(args.policy)
    sizes = (args.n[0], args.n[1])
    rows = epsilon_sweep(
        spec,
        (p1, p2),
        [sizes],
        reps=args.reps,
        seed=args.seed,
        deviation_resolution=args.deviation_step,
    )
    row = rows[0]
    summary = f"certify: eps=({row.eps[0]:.6g},{row.eps[1]:.6g}) [{row.method}]"
    if args.format == "csv":
        _emit_csv(rows, args.out, summary)
    else:
        _emit(tfio.epsilon_report_doc(row, sizes), args.out, summary)
    return 0


def _load_swept_policies(args):
    if (args.mfeq is None) == (args.policy is None):
        raise ModelError("pass exactly one of --mfeq or --policy")
    if args.policy is not None:
        return tfio.load_policy_pair(args.policy)
    doc = tfio.load_json(args.mfeq)
    if doc.get("kind") != "mf-equilibrium":
        raise ModelError("--mfeq expects an mf-equilibrium JSON document")
    teams = [tfio.team_policy_from_dict(t) for t in doc["policies"]]
    return teams[0], teams[1]


def _cmd_sweep_n(args) -> int:
    spec = _need_static(tfio.load_spec(args.spec, force=args.force))
    p1, p2 = _load_swept_policies(args)
    try:
        ns = [int(v) for v in args.ns.split(",") if v.strip()]
    except ValueError as e:
        raise ModelError(f"--ns must be comma-separated integers: {e}")
    if not ns:
        raise ModelError("--ns must name at least one size")
    sizes = size_pairs(ns, args.ratio)
    rows = epsilon_sweep(
        spec,
        (p1, p2),
        sizes,
        reps=args.reps,
        seed=args.seed,
        deviation_resolution=args.deviation_step,
    )
    by_method = Counter(r.method for r in rows)
    summary = f"sweep-n: {len(rows)} row(s): " + ", ".join(f"{k} {m}" for m, k in by_method.items())
    if args.format == "csv":
        _emit_csv(rows, args.out, summary)
        return 0
    doc = {"schema": tfio.SCHEMA, "kind": "epsilon-sweep", "rows": [tfio.epsilon_row(r, (r.n1, r.n2)) for r in rows]}
    _emit(doc, args.out, summary)
    return 0


def _dynamic_pair(args, spec: DynamicGameSpec):
    if args.policy is None:
        return StagePolicy.uniform(spec, 0), StagePolicy.uniform(spec, 1)
    p1, p2 = tfio.load_policy_pair(args.policy)
    if not isinstance(p1, StagePolicy):
        raise ModelError("--policy must hold a dynamic policy pair")
    return p1, p2


def _cmd_simulate(args) -> int:
    spec = _need_dynamic(tfio.load_spec(args.spec, force=args.force))
    pols = _dynamic_pair(args, spec)
    sizes = _sizes(args.n)
    rep = simulate_finite_n(spec, sizes, pols, args.reps, args.seed)
    doc = {
        "schema": tfio.SCHEMA,
        "kind": "simulation-report",
        "n1": sizes[0],
        "n2": sizes[1],
        "reps": int(args.reps),
        "costs": [float(v) for v in rep.costs],
        "ci_halfwidth": [float(v) for v in rep.ci_halfwidth],
        "world_counts": [int(v) for v in rep.world_counts],
        "flows": tfio.flows_doc(rep.flows),
    }
    summary = f"simulate: costs=({rep.costs[0]:.6g},{rep.costs[1]:.6g}) reps={args.reps}"
    _emit(doc, args.out, summary)
    return 0


def _cmd_eps_dyn(args) -> int:
    spec = _need_dynamic(tfio.load_spec(args.spec, force=args.force))
    pols = _dynamic_pair(args, spec)
    sizes = _sizes(args.n)
    mode = "exact" if args.exact else "auto"
    rep = dynamic_epsilon_estimate(
        spec,
        sizes,
        pols,
        reps=args.reps,
        rng=args.seed,
        mode=mode,
        deviation_resolution=args.deviation_step,
    )
    doc = tfio.epsilon_report_doc(rep, sizes)
    summary = f"eps-dyn: eps=({rep.eps[0]:.6g},{rep.eps[1]:.6g}) [{rep.method}]"
    _emit(doc, args.out, summary)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "solve-mf": _cmd_solve_mf,
    "solve-mf-dyn": _cmd_solve_mf_dyn,
    "grid-search": _cmd_grid_search,
    "certify": _cmd_certify,
    "sweep-n": _cmd_sweep_n,
    "simulate": _cmd_simulate,
    "eps-dyn": _cmd_eps_dyn,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "reps", None) is not None and args.reps < 100:
        print("error: --reps must be >= 100", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except SpecValidationError as e:
        print("validation failed:", file=sys.stderr)
        for entry in e.entries:
            print(f"  - {entry}", file=sys.stderr)
        return 1
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"file not found: {e.filename}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"parse error: {e.msg} at line {e.lineno} column {e.colno}", file=sys.stderr)
        return 1
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
