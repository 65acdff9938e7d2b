import json
import os
import subprocess
import sys

import numpy as np
import pytest

from teamfield.core.errors import ModelError
from teamfield.dynamic import StagePolicy
from teamfield.finite_n import SweepRow
from teamfield.io import (
    SCHEMA,
    SWEEP_HEADER,
    dumps_stable,
    format_float,
    load_policy_pair,
    load_spec,
    policy_pair_doc,
    read_sweep_csv,
    spec_doc,
    stage_policy_from_dict,
    stage_policy_to_dict,
    sweep_csv_text,
    team_policy_from_dict,
    team_policy_to_dict,
    write_json,
    write_sweep_csv,
)
from teamfield.policies import (
    BehavioralPolicy,
    DetPolicy,
    TeamPolicy,
    anticorrelated_pair,
)
from tests._gen import THREE_SIGNAL_DOC
from tests._paths import GAMES, REPO

MISMATCH = GAMES / "mf_mismatch.json"
CROWD = GAMES / "crowd_avoidance.json"


def _run(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "teamfield", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )


# ---------------------------------------------------------------- encoding


def test_format_float_17_digits_and_marker():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1.0"
    assert format_float(-3.0) == "-3.0"
    assert format_float(1e300) == "1.0000000000000001e+300"
    with pytest.raises(ModelError):
        format_float(float("nan"))
    with pytest.raises(ModelError):
        format_float(float("inf"))


def test_format_float_round_trips_exactly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-8, 8)))
        assert float(format_float(x)) == x


def test_dumps_stable_shape():
    doc = {"schema": SCHEMA, "b": [1.0, 2.0], "a": {"x": True, "y": None}, "s": 'q"uote'}
    text = dumps_stable(doc)
    assert text.endswith("\n")
    # insertion order is preserved, not sorted
    assert text.index('"schema"') < text.index('"b"') < text.index('"a"')
    # flat numeric lists stay on one line
    assert '"b": [1.0, 2.0]' in text
    assert '"x": true' in text and '"y": null' in text
    parsed = json.loads(text)
    assert parsed["s"] == 'q"uote'
    assert parsed["b"] == [1.0, 2.0]


def test_dumps_stable_is_deterministic():
    doc = {"v": [0.1 + 0.2, 1 / 3, 2**-52], "k": {"nested": [[1.5, 2.5], [3.5, 4.5]]}}
    assert dumps_stable(doc) == dumps_stable(doc)
    assert json.loads(dumps_stable(doc))["v"][0] == 0.1 + 0.2


# ---------------------------------------------------------------- documents


def test_spec_docs_round_trip(tmp_path):
    for name in ("mf_mismatch.json", "coordination.json", "crowd_avoidance.json"):
        spec = load_spec(GAMES / name)
        doc = spec_doc(spec)
        p = tmp_path / name
        write_json(p, doc)
        again = load_spec(p)
        assert spec_doc(again) == doc


def test_team_policy_docs_round_trip():
    cases = [
        TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.25, 0.75]])),
        TeamPolicy.product(
            [
                BehavioralPolicy.from_rows([[1.0, 0.0]]),
                BehavioralPolicy.from_rows([[0.5, 0.5]]),
            ]
        ),
        anticorrelated_pair(),
        TeamPolicy.mixture(
            [(0.25, (DetPolicy((0, 1)), DetPolicy((1, 0)))), (0.75, (DetPolicy((1, 1)), DetPolicy((0, 0))))]
        ),
    ]
    for p in cases:
        doc = team_policy_to_dict(p)
        q = team_policy_from_dict(doc)
        assert team_policy_to_dict(q) == doc
        assert q.kind == p.kind


def test_stage_policy_doc_round_trip():
    pol = StagePolicy.from_rows([[[0.3, 0.7], [1.0, 0.0]], [[0.5, 0.5], [0.25, 0.75]]])
    doc = stage_policy_to_dict(pol)
    again = stage_policy_from_dict(doc)
    assert stage_policy_to_dict(again) == doc


def test_policy_pair_docs(tmp_path):
    b = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    doc = policy_pair_doc((b, b))
    assert doc["schema"] == SCHEMA
    assert doc["kind"] == "static-policy-pair"
    p = tmp_path / "pair.json"
    write_json(p, doc)
    p1, p2 = load_policy_pair(p)
    assert team_policy_to_dict(p1) == team_policy_to_dict(b)

    s = StagePolicy.from_rows([[[0.5, 0.5]], [[0.5, 0.5]]])
    doc2 = policy_pair_doc((s, s))
    assert doc2["kind"] == "dynamic-policy-pair"
    p2path = tmp_path / "dynpair.json"
    write_json(p2path, doc2)
    d1, d2 = load_policy_pair(p2path)
    assert stage_policy_to_dict(d1) == stage_policy_to_dict(s)


def test_sweep_csv_round_trip(tmp_path):
    rows = [
        SweepRow(2, 2, (0.25, 0.25), "exact", 0.0),
        SweepRow(40, 20, (0.01953125, 0.0205078125), "monte-carlo", 0.0027),
    ]
    text = sweep_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    back = read_sweep_csv(path)
    assert [(r.n1, r.n2, r.method) for r in back] == [(2, 2, "exact"), (40, 20, "monte-carlo")]
    assert back[0].eps == rows[0].eps
    assert back[1].eps == rows[1].eps
    assert back[1].ci_halfwidth == rows[1].ci_halfwidth
    # a corrupted header is refused
    bad = tmp_path / "bad.csv"
    bad.write_text("N1,N2,foo\n1,1,0\n")
    with pytest.raises(ModelError):
        read_sweep_csv(bad)


# ---------------------------------------------------------------- CLI


def test_cli_validate_accepts_bundled_games():
    for name in ("mf_mismatch.json", "coordination.json", "spread.json", "crowd_avoidance.json", "state_copies_action.json"):
        r = _run(["validate", "--spec", GAMES / name])
        assert r.returncode == 0, r.stderr


def test_cli_validate_names_the_failing_field(tmp_path):
    doc = json.loads(MISMATCH.read_text())
    doc["prior"] = [0.6, 0.6]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = _run(["validate", "--spec", bad])
    assert r.returncode == 1
    assert "prior" in (r.stderr + r.stdout)


def test_cli_exit_codes(tmp_path):
    # malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _run(["validate", "--spec", broken]).returncode == 1
    # missing file
    assert _run(["validate", "--spec", tmp_path / "absent.json"]).returncode == 1
    # stochastic command without a seed
    r = _run(["simulate", "--spec", CROWD, "--n", "4", "--reps", "200"])
    assert r.returncode == 1
    # too few reps
    r = _run(["simulate", "--spec", CROWD, "--n", "4", "--reps", "10", "--seed", "1"])
    assert r.returncode == 1
    # grid resolution outside (0, 0.1] is refused
    r = _run(["grid-search", "--spec", MISMATCH, "--resolution", "0.2"])
    assert r.returncode == 1
    # a negative tie tolerance is refused, not read as "no ties"
    r = _run(["grid-search", "--spec", GAMES / "coordination.json", "--resolution", "0.1", "--tie-tol", "-1"])
    assert r.returncode == 1
    assert "tie_tol" in r.stderr


def test_cli_solve_mf_writes_schema_and_converges(tmp_path):
    out = tmp_path / "eq.json"
    r = _run(["solve-mf", "--spec", MISMATCH, "--out", out])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["kind"] == "mf-equilibrium"
    assert doc["converged"] is True
    assert doc["mean_fields"][0][0] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_cli_nonconvergence_exits_two_but_reports(tmp_path):
    out = tmp_path / "eq.json"
    r = _run(
        [
            "solve-mf",
            "--spec",
            MISMATCH,
            "--damping",
            "1.0",
            "--smooth-init",
            "0",
            "--max-iters",
            "25",
            "--out",
            out,
        ]
    )
    assert r.returncode == 2
    doc = json.loads(out.read_text())
    assert doc["converged"] is False


def test_cli_certify_json_and_csv(tmp_path):
    outj = tmp_path / "cert.json"
    r = _run(
        [
            "certify",
            "--spec",
            GAMES / "spread.json",
            "--policy",
            tmp_path / "_missing.json",
            "--n",
            "2",
            "2",
        ]
    )
    assert r.returncode == 1  # policy file must exist

    pair = policy_pair_doc(
        (
            TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]])),
            TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]])),
        )
    )
    ppath = tmp_path / "pair.json"
    write_json(ppath, pair)
    r = _run(
        ["certify", "--spec", GAMES / "spread.json", "--policy", ppath, "--n", "2", "2", "--out", outj]
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(outj.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["eps"] == [0.25, 0.25]
    assert doc["method"] == "exact"


def test_cli_monte_carlo_certify_rejects_a_mis_shaped_policy(tmp_path):
    # one signal where the game has three: the Monte Carlo row at 40 seats
    # refuses it the way the exact path does
    blind = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    ppath = tmp_path / "pair.json"
    write_json(ppath, policy_pair_doc((blind, blind)))
    spec_path = tmp_path / "three_signal.json"
    spec_path.write_text(json.dumps(THREE_SIGNAL_DOC))
    args = ["certify", "--spec", spec_path, "--policy", ppath, "--reps", "100", "--seed", "5", "--deviation-step", "1.0"]
    for n in ("40", "2"):
        r = _run(args + ["--n", n, n])
        assert r.returncode == 1
        assert "team 0 policy shape mismatch" in r.stderr


def test_cli_sweep_csv_deterministic_across_workers(tmp_path):
    # the 8-map game: exact at 2 and 4 seats, Monte Carlo at 40
    uniform = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]] * 3))
    ppath = tmp_path / "pair.json"
    write_json(ppath, policy_pair_doc((uniform, uniform)))
    spec_path = tmp_path / "three_signal.json"
    spec_path.write_text(json.dumps(THREE_SIGNAL_DOC))
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"sweep_{workers}.csv"
        r = _run(
            [
                "sweep-n",
                "--spec",
                spec_path,
                "--policy",
                ppath,
                "--ns",
                "2,4,40",
                "--reps",
                "100",
                "--seed",
                "7",
                "--deviation-step",
                "1.0",
                "--out",
                out,
            ],
            env_extra={"TEAMFIELD_THREADS": workers},
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.split("\n")[0] == SWEEP_HEADER
    assert ",exact," in text and ",monte-carlo," in text


def test_cli_sweep_summary_counts_rows_per_method(tmp_path, monkeypatch, capsys):
    import teamfield.cli as cli

    rows = [SweepRow(2, 2, (0.25, 0.25), "exact", 0.0), SweepRow(40, 40, (0.01, 0.02), "monte-carlo", 0.003)]
    monkeypatch.setattr(cli, "epsilon_sweep", lambda *args, **kwargs: rows)
    half = TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows([[0.5, 0.5]]))
    ppath = tmp_path / "pair.json"
    write_json(ppath, policy_pair_doc((half, half)))
    out = tmp_path / "sweep.csv"
    argv = ["sweep-n", "--spec", str(GAMES / "spread.json"), "--policy", str(ppath), "--ns", "2,40", "--seed", "7"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"sweep-n: 2 row(s): 1 exact, 1 monte-carlo -> {out}\n"
    assert out.read_text() == sweep_csv_text(rows)


@pytest.mark.parametrize("command, spec", [("solve-mf", MISMATCH), ("solve-mf-dyn", CROWD)])
@pytest.mark.parametrize("floor", ["0", "-0.001"])
def test_cli_rejects_nonpositive_smooth_floor(command, spec, floor):
    # a floor at or below zero used to anneal tau into a softmax overflow
    r = _run([command, "--spec", spec, "--smooth-floor", floor])
    assert r.returncode == 1
    assert "smooth_floor" in r.stderr


def test_cli_eps_dyn_exact(tmp_path):
    out = tmp_path / "eps.json"
    r = _run(
        ["eps-dyn", "--spec", CROWD, "--n", "2", "--exact", "--out", out]
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["method"] == "exact"
    assert doc["n1"] == 2 and doc["n2"] == 2


def test_cli_solve_mf_dyn(tmp_path):
    out = tmp_path / "dyneq.json"
    r = _run(["solve-mf-dyn", "--spec", CROWD, "--out", out])
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["kind"] == "dynamic-mf-equilibrium"
    assert doc["converged"] is True
    assert doc["br_exhaustive"] is True


def test_cli_stdout_when_no_out_path():
    r = _run(["validate", "--spec", MISMATCH])
    assert r.returncode == 0
    assert "valid" in r.stdout
