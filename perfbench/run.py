"""teamfield benchmark: time to certificate, exact-certification frontier and
Monte Carlo throughput.

    python3 perfbench/run.py --workload static_exact --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports teamfield from ``src/``.
It starts fresh interpreters: a few that only set up (their median is
``setup_s``) and one that sets up, climbs the frontier ladder, and then
issues the workload's jobs one after another, in a closed loop, for
``--seconds``. It prints every figure with its unit and then, as its last
line, one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Without teamfield sources, or if a
child fails or overruns, it exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GAMES = ROOT / "games"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("static_exact", "monte_carlo", "dynamic_exact")
SETUP_RUNS = 9
TIME_LIMIT_S = 170.0
MAX_FAILURES_SHOWN = 20

# The subcommands and arguments of the CLI determinism acceptance test.
CLI_COMMANDS = {
    "validate": ["validate", "--spec", "games/mf_mismatch.json"],
    "solve-mf": ["solve-mf", "--spec", "games/mf_mismatch.json"],
    "solve-mf-dyn": ["solve-mf-dyn", "--spec", "games/crowd_avoidance.json"],
    "grid-search": ["grid-search", "--spec", "games/mf_mismatch.json", "--resolution", "0.05"],
    "certify": ["certify", "--spec", "games/spread.json", "--policy", "{pair}", "--n", "2", "2", "--seed", "3"],
    "sweep-n": [
        "sweep-n", "--spec", "games/spread.json", "--policy", "{pair}",
        "--ns", "2,20", "--reps", "100", "--seed", "7",
    ],
    "simulate": ["simulate", "--spec", "games/crowd_avoidance.json", "--n", "4", "--reps", "200", "--seed", "5"],
    "eps-dyn": ["eps-dyn", "--spec", "games/crowd_avoidance.json", "--n", "16", "--reps", "100", "--seed", "9"],
}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("main", "setup", "job"), default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_env() -> dict:
    """Environment of every child: teamfield from source, default worker pool."""
    env = dict(os.environ)
    env.pop("TEAMFIELD_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _child_argv(args, role: str) -> list:
    return [
        sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]


# -- set-up and job children ------------------------------------------------


def setup_main(args) -> int:
    import workloads

    workloads.set_up(args.workload, args.seed)
    print("ready", flush=True)
    return 0


def _median(values):
    return statistics.median(values) if values else float("nan")


def _cli_timings(env: dict, failures: list) -> dict:
    import teamfield as tf

    OUT.mkdir(exist_ok=True)
    half = tf.TeamPolicy.symmetric_iid(tf.BehavioralPolicy.from_rows([[0.5, 0.5]]))
    pair = OUT / "pair.json"
    tf.write_json(pair, tf.policy_pair_doc((half, half)))
    out = {}
    for name, argv in CLI_COMMANDS.items():
        argv = [a.replace("{pair}", str(pair)) for a in argv]
        cmd = [sys.executable, "-m", "teamfield", *argv, "--out", str(OUT / f"cli_{name}.out")]
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        out[f"cli.{name}.s"] = time.perf_counter() - t0
        if r.returncode != 0:
            failures.append(f"cli {name}: exit code {r.returncode}: {r.stderr.strip()[-300:]}")
    return out


def _worker_count() -> int:
    try:
        from teamfield._parallel import worker_count
    except ImportError:  # a package without a worker pool runs serially
        return 1
    return worker_count()


def job_main(args) -> int:
    import platform
    import resource

    import numpy
    import scipy

    import frontier
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.set_up(args.workload, args.seed)
    if tracer:
        tracer.uninstall()

    # Probes fork, so they run before the worker pool has ever started.
    frontier_name, frontier_game, probe = wl.ladder
    ladder = frontier.frontier(probe)
    attempted = len(ladder["rungs"])
    failures = [  # one message per failed check; `failed` counts operations
        f"frontier {frontier_game} N={r['n']}: {r['stop']} {r.get('detail', '')} {r.get('checks', '')}".strip()
        for r in ladder["rungs"]
        if not r["ok"] and r["stop"] not in frontier.EXPECTED_STOPS
    ]
    failed = len(failures)

    passes = []
    t_loop = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        if tracer:
            tracer.install() if traced else tracer.uninstall()
            tracer.phase = "pass"
        groups = defaultdict(float)
        episodes = defaultdict(int)
        for job in wl.jobs:
            if tracer:
                tracer.job = f"{k}:{job.name}"
            t0 = time.perf_counter()
            try:
                checks = job.fn()
            except Exception as e:  # a raising job is a failed operation
                checks = [f"{job.name} raised {type(e).__name__}: {e}"]
            groups[job.group] += time.perf_counter() - t0
            episodes[job.group] += job.episodes
            attempted += 1
            failed += bool(checks)
            failures += [f"pass {k}: {c}" for c in checks]
        passes.append({"traced": traced, "total": sum(groups.values()), "groups": groups, "episodes": episodes})
        # Start no pass that would end past --seconds, but measure at least one
        # (one of each kind when tracing).
        ends_late = time.perf_counter() - t_loop + passes[-1]["total"] > args.seconds
        if ends_late and (tracer is None or len(passes) >= 2):
            break
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p["traced"]]
    figures = {}
    for name, unit, group in wl.report:
        if unit == "1/s":
            value = _median([p["episodes"][group] / p["groups"][group] for p in plain])
        else:
            value = _median([p["groups"][group] for p in plain])
        figures[name] = {"value": value, "unit": unit}
    figures[frontier_name] = {"value": ladder["n"], "unit": "seats"}

    end_to_end = {
        "wall_s": {"value": _median([p["total"] for p in plain]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "cert_s": {"value": _median([sum(p["groups"][g] for g in wl.cert_groups) for p in plain]), "unit": "s"},
        "frontier_n": {"value": ladder["n"], "unit": "seats"},
    }
    per_layer = {}
    if tracer:
        traced = [p for p in passes if p["traced"]]
        layer = tracer.summary(len(traced))
        layer["parallel.workers"] = _worker_count()
        cli_failures = []
        layer.update(_cli_timings(os.environ.copy(), cli_failures))
        attempted += len(CLI_COMMANDS)
        failed += len(cli_failures)
        failures += cli_failures
        layer["trace.overhead_s"] = _median([p["total"] for p in traced]) - end_to_end["wall_s"]["value"]
        units = {"calls": "count", "s": "s", "self_s": "s", "overhead_s": "s"}
        per_layer = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "count")} for k, v in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{args.workload}_{args.seed}.jsonl")

    result = {
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "frontier": {
            "name": frontier_name,
            "game": frontier_game,
            "n": ladder["n"],
            "stop": ladder["stop"],
            "stopped_at": ladder["stopped_at"],
            "rungs": ladder["rungs"],
        },
        "figures": figures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "worker_count": _worker_count(),
            "TEAMFIELD_THREADS": os.environ.get("TEAMFIELD_THREADS", "unset"),
        },
    }
    print(json.dumps(result), flush=True)
    return 0


# -- orchestrator -------------------------------------------------------------


def _time_setup(args, env: dict, deadline: float) -> float:
    """Seconds from launching a fresh interpreter until its inputs are ready."""
    t0 = time.perf_counter()
    p = subprocess.Popen(_child_argv(args, "setup"), cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stdout.close()
    if line.strip() != b"ready" or p.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {p.returncode}")
    return elapsed


def _run_job(args, env: dict, deadline: float) -> dict:
    p = subprocess.Popen(_child_argv(args, "job"), cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise RuntimeError(f"job child overran the {TIME_LIMIT_S:.0f} s limit")
    if p.returncode != 0 or not out.strip():
        raise RuntimeError(f"job child failed with exit code {p.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    for path in (SRC / "teamfield" / "__init__.py", GAMES / "spread.json"):
        if not path.is_file():
            print(f"perfbench: {path.relative_to(ROOT)} not found; run from the root of a teamfield checkout",
                  file=sys.stderr)
            return 2
    env = _child_env()
    try:
        setups = [] if args.trace else [_time_setup(args, env, deadline) for _ in range(SETUP_RUNS)]
        job = _run_job(args, env, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    failed = job["failed"]
    attempted = job["attempted"]
    env_doc = job["environment"]
    print(f"workload {args.workload}, seed {args.seed}, {_fmt(args.seconds)} s of jobs: "
          f"{job['passes']} passes ({job['traced_passes']} traced)")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_doc.items()))
    if setups:
        job["end_to_end"]["setup_s"] = {"value": _median(setups), "unit": "s"}
        print(f"setup_s = {_fmt(_median(setups))} s  (median of {len(setups)} fresh interpreters)")
    for name, m in {**job["end_to_end"], **job["figures"]}.items():
        if name != "setup_s":
            print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    print(f"fail_ratio = {_fmt(failed / attempted)} ratio  (failed {failed} of {attempted} operations)")
    fr = job["frontier"]
    last = fr["rungs"][-1]
    print(f"{fr['name']} = {fr['n']} seats on {fr['game']}: stopped at N={fr['stopped_at']} by {fr['stop']}, "
          f"probe peak RSS {last['peak_rss_mb']:.0f} MB, call {_fmt(last.get('s'))} s")
    for name, m in job["per_layer"].items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    for msg in job["failures"][:MAX_FAILURES_SHOWN]:
        print(f"FAILED: {msg}")
    if len(job["failures"]) > MAX_FAILURES_SHOWN:
        print(f"FAILED: ... {len(job['failures']) - MAX_FAILURES_SHOWN} more")

    if args.trace:
        metrics = job["per_layer"]
    else:
        order = ("setup_s", "wall_s", "peak_rss_mb", "cert_s", "frontier_n")
        metrics = {k: job["end_to_end"][k] for k in order}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    ARGS = _args()
    if ARGS.role == "main":
        sys.exit(main(ARGS))
    sys.exit(setup_main(ARGS) if ARGS.role == "setup" else job_main(ARGS))
