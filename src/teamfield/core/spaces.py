"""Finite spaces, probability vectors, kernels, and statistic maps.

Everything downstream works with plain float64 numpy arrays wrapped in thin
immutable containers. Probability vectors are validated at construction:
nonnegative entries and total mass 1 within 1e-12. Loaders that need to
inspect malformed data build the containers through ``unchecked`` and ask
for ``violations()`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ModelError

MASS_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.base is not None or out.flags.writeable:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FiniteSpace:
    """A finite set of points, optionally labelled."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ModelError(f"space size must be >= 1, got {self.size}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ModelError("label count does not match space size")
            if len(set(self.labels)) != self.size:
                raise ModelError("labels must be distinct")

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class ProbVec:
    """Probability vector over a finite space."""

    weights: np.ndarray
    check: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _freeze(self.weights))
        if self.weights.ndim != 1:
            raise ModelError("probability vector must be one dimensional")
        if self.check:
            bad = self.violations()
            if bad:
                raise ModelError("; ".join(bad))

    @classmethod
    def unchecked(cls, weights) -> "ProbVec":
        return cls(np.asarray(weights, dtype=np.float64), check=False)

    @classmethod
    def point_mass(cls, index: int, size: int) -> "ProbVec":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls, size: int) -> "ProbVec":
        return cls(np.full(size, 1.0 / size))

    def violations(self) -> list[str]:
        out = []
        if not np.all(np.isfinite(self.weights)):
            out.append("nonfinite probability entry")
            return out
        if np.any(self.weights < 0.0):
            out.append(f"negative probability entry {float(self.weights.min()):g}")
        gap = abs(float(self.weights.sum()) - 1.0)
        if gap > MASS_TOL:
            out.append(f"total mass off by {gap:g}")
        return out

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> float:
        return float(self.weights[i])

    def tv(self, other: "ProbVec") -> float:
        return tv_distance(self.weights, other.weights)


def tv_distance(p, q) -> float:
    """Total variation distance between two measures on the same space."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ModelError("total variation needs measures on the same space")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class Kernel:
    """Row-stochastic matrix read as a map from source points to measures."""

    rows: np.ndarray
    check: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _freeze(np.atleast_2d(self.rows)))
        if self.rows.ndim != 2:
            raise ModelError("kernel must be a matrix")
        if self.check:
            bad = self.violations()
            if bad:
                raise ModelError("; ".join(bad))

    @classmethod
    def unchecked(cls, rows) -> "Kernel":
        return cls(np.asarray(rows, dtype=np.float64), check=False)

    @classmethod
    def deterministic(cls, targets: Sequence[int], n_targets: int) -> "Kernel":
        rows = np.zeros((len(targets), n_targets))
        rows[np.arange(len(targets)), list(targets)] = 1.0
        return cls(rows)

    def violations(self) -> list[str]:
        out = []
        if not np.all(np.isfinite(self.rows)):
            return ["nonfinite kernel entry"]
        if np.any(self.rows < 0.0):
            out.append("negative kernel entry")
        gaps = np.abs(self.rows.sum(axis=1) - 1.0)
        worst = float(gaps.max()) if gaps.size else 0.0
        if worst > MASS_TOL:
            out.append(f"kernel row mass off by {worst:g}")
        return out

    @property
    def n_src(self) -> int:
        return self.rows.shape[0]

    @property
    def n_tgt(self) -> int:
        return self.rows.shape[1]

    def row(self, i: int) -> ProbVec:
        return ProbVec(self.rows[i])

    def push(self, dist) -> ProbVec:
        """Pushforward of a source measure through the kernel."""
        w = np.asarray(dist, dtype=np.float64) if not isinstance(dist, ProbVec) else dist.weights
        if w.shape != (self.n_src,):
            raise ModelError("pushforward dimension mismatch")
        return ProbVec(w @ self.rows)

    def compose(self, other: "Kernel") -> "Kernel":
        """Chain with a kernel whose source is this kernel's target."""
        if other.n_src != self.n_tgt:
            raise ModelError("kernel composition dimension mismatch")
        return Kernel(self.rows @ other.rows)


@dataclass(frozen=True)
class StatisticMap:
    """Map from an empirical measure to the value the costs actually see.

    ``identity`` passes the measure through unchanged. ``mean-embedding``
    contracts it against a fixed embedding vector and yields a scalar,
    which is what scalar cost tables interpolate over.
    """

    kind: str
    embedding: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "mean-embedding"):
            raise ModelError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "mean-embedding":
            if self.embedding is None:
                raise ModelError("mean-embedding statistic needs an embedding vector")
            object.__setattr__(self, "embedding", _freeze(self.embedding))
            if self.embedding.ndim != 1:
                raise ModelError("embedding must be a vector")
        elif self.embedding is not None:
            raise ModelError("identity statistic takes no embedding")

    @property
    def scalar(self) -> bool:
        return self.kind == "mean-embedding"

    def scalar_weights(self, size: int) -> np.ndarray:
        """Weights whose dot product with a measure is the scalar view costs read.

        The embedding for ``mean-embedding``; the action indices 0, ...,
        size - 1 for ``identity``, so the scalar view is the index mean.
        """
        return self.embedding if self.scalar else np.arange(size, dtype=np.float64)

    def apply(self, measure) -> Union[float, ProbVec]:
        w = measure.weights if isinstance(measure, ProbVec) else np.asarray(measure, dtype=np.float64)
        if self.kind == "identity":
            return ProbVec(w)
        if w.shape != self.embedding.shape:
            raise ModelError("embedding length does not match the measure")
        return float(w @ self.embedding)

    def apply_raw(self, w: np.ndarray):
        """Same as apply for measures (..., size) with any leading axes, but
        keeps identity outputs as bare arrays. An embedding takes one dot
        product per measure, as a lone one gets, so a batch matches its
        members bit for bit."""
        if self.kind == "identity":
            return w
        w = np.ascontiguousarray(w, dtype=np.float64)
        out = (w[..., None, :] @ self.embedding[:, None])[..., 0, 0]
        return float(out) if out.ndim == 0 else out

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.embedding is not None:
            d["embedding"] = [float(v) for v in self.embedding]
        return d


def apply_statistic(stat: StatisticMap, measure) -> Union[float, ProbVec]:
    return stat.apply(measure)


def emp_measure(actions: Sequence[int], space: FiniteSpace) -> ProbVec:
    """Empirical measure of a nonempty action sample."""
    acts = np.asarray(actions, dtype=np.int64)
    if acts.size == 0:
        raise ModelError("empty empirical sample")
    if np.any(acts < 0) or np.any(acts >= space.size):
        raise ModelError("action index out of range")
    counts = np.bincount(acts, minlength=space.size).astype(np.float64)
    return ProbVec(counts / acts.size)


def emp_measure_exact(actions: Sequence[int], space: FiniteSpace) -> list[Fraction]:
    """Empirical measure in exact rational arithmetic."""
    acts = list(actions)
    if not acts:
        raise ModelError("empty empirical sample")
    n = len(acts)
    counts = [0] * space.size
    for a in acts:
        if not 0 <= a < space.size:
            raise ModelError("action index out of range")
        counts[a] += 1
    return [Fraction(c, n) for c in counts]

