"""JSON and CSV input/output with stable float formatting.

Every document this package writes carries ``"schema": "teamfield/v1"``
and is rendered by a small recursive serializer whose floats go through
``{:.17g}``. That format round-trips IEEE doubles exactly and, unlike the
stdlib's repr-based encoder, pins the byte output down to something we can
compare across runs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Union

import numpy as np

from .core.errors import ModelError, SpecValidationError
from .core.specs import (
    DynamicGameSpec,
    StaticGameSpec,
    ValidationReport,
    validate_dynamic_spec,
    validate_static_spec,
)
from .dynamic import DynamicMFEquilibrium, StagePolicy
from .finite_n import EpsilonReport, SweepRow
from .mf_static import MFEquilibrium
from .policies import BehavioralPolicy, DetPolicy, TeamPolicy

SCHEMA = "teamfield/v1"

AnySpec = Union[StaticGameSpec, DynamicGameSpec]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ModelError(f"cannot serialize nonfinite value {x!r}")
    s = format(float(x), ".17g")
    # Keep a decimal marker so the value reads back as a float.
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _emit(obj, parts: list[str], pad: str, step: str) -> None:
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        inner = pad + step
        for j, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ModelError(f"JSON keys must be strings, got {type(k).__name__}")
            parts.append(inner + _escape(k) + ": ")
            _emit(v, parts, inner, step)
            parts.append(",\n" if j + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        flat = all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in items)
        if flat:
            parts.append("[" + ", ".join(_scalar(v) for v in items) + "]")
            return
        parts.append("[\n")
        inner = pad + step
        for j, v in enumerate(items):
            parts.append(inner)
            _emit(v, parts, inner, step)
            parts.append(",\n" if j + 1 < len(items) else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, pad, step)
    else:
        parts.append(_scalar(obj))


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, str):
        return _escape(v)
    raise ModelError(f"cannot serialize {type(v).__name__}")


def dumps_stable(doc: dict) -> str:
    parts: list[str] = []
    _emit(doc, parts, "", "  ")
    parts.append("\n")
    return "".join(parts)


def write_json(path, doc: dict) -> None:
    Path(path).write_text(dumps_stable(doc), encoding="utf-8")


def load_json(path) -> dict:
    import json

    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_any(spec: AnySpec) -> ValidationReport:
    if isinstance(spec, StaticGameSpec):
        return validate_static_spec(spec)
    return validate_dynamic_spec(spec)


def spec_from_dict(d: dict) -> AnySpec:
    kind = d.get("kind")
    if kind == "static":
        return StaticGameSpec.from_dict(d)
    if kind == "dynamic":
        return DynamicGameSpec.from_dict(d)
    raise ModelError(f"unknown spec kind {kind!r}; expected 'static' or 'dynamic'")


def load_spec(path, force: bool = False) -> AnySpec:
    """Read a game description and validate it.

    Invalid files raise with the full list of violations; force=True
    loads anyway (useful for inspecting a broken file).
    """
    spec = spec_from_dict(load_json(path))
    report = validate_any(spec)
    if not report.ok and not force:
        raise SpecValidationError(list(report.entries))
    return spec


def spec_doc(spec: AnySpec) -> dict:
    return {"schema": SCHEMA, **spec.to_dict()}


def _rows_list(rows: np.ndarray) -> list:
    return [[float(v) for v in r] for r in np.atleast_2d(rows)]


def team_policy_to_dict(p: TeamPolicy) -> dict:
    if p.kind == "symmetric-iid":
        return {"kind": p.kind, "rows": _rows_list(p.base.kernel.rows)}
    if p.kind == "product":
        return {"kind": p.kind, "members": [_rows_list(m.kernel.rows) for m in p.members]}
    return {
        "kind": "mixture",
        "weights": [float(w) for w, _ in p.components],
        "profiles": [[list(d.actions) for d in prof] for _, prof in p.components],
    }


def team_policy_from_dict(d: dict) -> TeamPolicy:
    kind = d.get("kind")
    if kind == "symmetric-iid":
        return TeamPolicy.symmetric_iid(BehavioralPolicy.from_rows(d["rows"]))
    if kind == "product":
        return TeamPolicy.product([BehavioralPolicy.from_rows(r) for r in d["members"]])
    if kind == "mixture":
        comps = [
            (float(w), [DetPolicy(tuple(int(a) for a in seat)) for seat in prof])
            for w, prof in zip(d["weights"], d["profiles"])
        ]
        return TeamPolicy.mixture(comps)
    raise ModelError(f"unknown team policy kind {kind!r}")


def stage_policy_to_dict(p: StagePolicy) -> dict:
    return {"stages": [_rows_list(k.rows) for k in p.kernels]}


def stage_policy_from_dict(d: dict) -> StagePolicy:
    return StagePolicy.from_rows([np.asarray(r, dtype=np.float64) for r in d["stages"]])


def policy_pair_doc(policies) -> dict:
    """Document for a pair of team policies, static or dynamic."""
    first = policies[0]
    if isinstance(first, StagePolicy):
        return {
            "schema": SCHEMA,
            "kind": "dynamic-policy-pair",
            "teams": [stage_policy_to_dict(p) for p in policies],
        }
    return {
        "schema": SCHEMA,
        "kind": "static-policy-pair",
        "teams": [team_policy_to_dict(p) for p in policies],
    }


def load_policy_pair(path):
    d = load_json(path)
    kind = d.get("kind")
    if kind == "static-policy-pair":
        teams = [team_policy_from_dict(t) for t in d["teams"]]
    elif kind == "dynamic-policy-pair":
        teams = [stage_policy_from_dict(t) for t in d["teams"]]
    else:
        raise ModelError(f"unknown policy document kind {kind!r}")
    if len(teams) != 2:
        raise ModelError("policy documents must hold exactly two teams")
    return teams[0], teams[1]


def mf_equilibrium_doc(eq: MFEquilibrium) -> dict:
    # The solver hands back one representative rule per team; it stands
    # for the whole team playing that rule independently.
    pols = [TeamPolicy.symmetric_iid(p) if isinstance(p, BehavioralPolicy) else p for p in eq.policies]
    return {
        "schema": SCHEMA,
        "kind": "mf-equilibrium",
        "converged": bool(eq.converged),
        "iterations": int(eq.iterations),
        "br_residual": [float(v) for v in eq.br_residual],
        "consistency_residual": [float(v) for v in eq.consistency_residual],
        "mean_fields": [_rows_list(laws) for laws in eq.mean_fields.laws],
        "policies": [team_policy_to_dict(p) for p in pols],
    }


def flows_doc(flows) -> list:
    """Per-team joint flows as nested lists: team, stage, world point, state, action."""
    return [[[_rows_list(joint) for joint in stage] for stage in team] for team in flows]


def dynamic_equilibrium_doc(eq: DynamicMFEquilibrium) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "dynamic-mf-equilibrium",
        "converged": bool(eq.converged),
        "iterations": int(eq.iterations),
        "br_exhaustive": bool(eq.br_exhaustive),
        "br_residual": [float(v) for v in eq.br_residual],
        "consistency_residual": [float(v) for v in eq.consistency_residual],
        "flows": flows_doc(eq.flows.joints),
        "policies": [stage_policy_to_dict(p) for p in eq.policies],
    }


def epsilon_row(rep: Union[EpsilonReport, SweepRow], team_sizes) -> dict:
    """The team sizes, epsilons, method and CI halfwidth of one certificate."""
    return {
        "n1": int(team_sizes[0]),
        "n2": int(team_sizes[1]),
        "eps": [float(v) for v in rep.eps],
        "method": rep.method,
        "ci_halfwidth": float(rep.ci_halfwidth),
    }


def epsilon_report_doc(rep: Union[EpsilonReport, SweepRow], team_sizes) -> dict:
    """The epsilon-report document of a certificate or of one sweep row."""
    return {"schema": SCHEMA, "kind": "epsilon-report", **epsilon_row(rep, team_sizes)}


SWEEP_HEADER = "N1,N2,eps1,eps2,method,ci"


def sweep_csv_text(rows) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(int(r.n1)),
                    str(int(r.n2)),
                    format_float(r.eps[0]),
                    format_float(r.eps[1]),
                    r.method,
                    format_float(r.ci_halfwidth),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, rows) -> None:
    Path(path).write_text(sweep_csv_text(rows), encoding="utf-8")


def read_sweep_csv(path) -> list[SweepRow]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0] != SWEEP_HEADER:
        raise ModelError(f"sweep CSV must start with header {SWEEP_HEADER!r}")
    out = []
    for line in text[1:]:
        n1, n2, e1, e2, method, ci = line.split(",")
        out.append(
            SweepRow(
                n1=int(n1),
                n2=int(n2),
                eps=(float(e1), float(e2)),
                method=method,
                ci_halfwidth=float(ci),
            )
        )
    return out
