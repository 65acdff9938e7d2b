import math

import numpy as np
import pytest

from teamfield.core.errors import ModelError
from teamfield.core.spaces import (
    FiniteSpace,
    Kernel,
    ProbVec,
    StatisticMap,
    emp_measure,
    emp_measure_exact,
    tv_distance,
)
from teamfield.finite_n import sample_mean_ci


def test_finite_space_labels_must_match_size():
    s = FiniteSpace(3, ("a", "b", "c"))
    assert len(s) == 3
    with pytest.raises(ModelError):
        FiniteSpace(2, ("a", "b", "c"))
    with pytest.raises(ModelError):
        FiniteSpace(2, ("a", "a"))
    with pytest.raises(ModelError):
        FiniteSpace(0)


def test_probvec_checks_mass_and_sign():
    p = ProbVec(np.array([0.25, 0.75]))
    assert p[1] == 0.75
    with pytest.raises(ModelError):
        ProbVec(np.array([0.5, 0.6]))
    with pytest.raises(ModelError):
        ProbVec(np.array([-0.1, 1.1]))
    bad = ProbVec.unchecked(np.array([0.5, 0.6]))
    assert bad.violations()


def test_probvec_is_immutable():
    p = ProbVec(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


def test_point_mass_and_uniform():
    assert ProbVec.point_mass(1, 3).weights.tolist() == [0.0, 1.0, 0.0]
    assert ProbVec.uniform(4).weights.tolist() == [0.25] * 4


def test_tv_distance_halved_l1():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25)
    assert ProbVec(np.array([0.5, 0.5])).tv(ProbVec(np.array([0.5, 0.5]))) == 0.0


def test_kernel_roundtrip_and_push():
    k = Kernel(np.array([[0.2, 0.8], [1.0, 0.0]]))
    assert k.n_src == 2 and k.n_tgt == 2
    pushed = k.push([0.5, 0.5])
    assert pushed.weights.tolist() == pytest.approx([0.6, 0.4])
    with pytest.raises(ModelError):
        Kernel(np.array([[0.2, 0.9], [1.0, 0.0]]))


def test_kernel_deterministic_and_compose():
    k = Kernel.deterministic([1, 0], 2)
    assert k.rows.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    two = k.compose(k)
    assert np.allclose(two.rows, np.eye(2))


def test_statistic_identity_and_mean_embedding():
    ident = StatisticMap("identity")
    out = ident.apply(np.array([0.3, 0.7]))
    assert isinstance(out, ProbVec)
    emb = StatisticMap("mean-embedding", np.array([0.0, 1.0]))
    assert emb.scalar
    assert emb.apply(np.array([0.3, 0.7])) == pytest.approx(0.7)
    with pytest.raises(ModelError):
        StatisticMap("mean-embedding")
    with pytest.raises(ModelError):
        StatisticMap("something-else")


def test_statistic_raw_keeps_arrays():
    ident = StatisticMap("identity")
    arr = np.array([0.4, 0.6])
    assert ident.apply_raw(arr) is arr


def test_emp_measure_counts():
    space = FiniteSpace(3)
    m = emp_measure([0, 2, 2, 0], space)
    assert m.weights.tolist() == [0.5, 0.0, 0.5]
    with pytest.raises(ModelError):
        emp_measure([], space)
    with pytest.raises(ModelError):
        emp_measure([3], space)
    exact = emp_measure_exact([0, 2, 2, 0], space)
    assert [float(f) for f in exact] == [0.5, 0.0, 0.5]


def test_kahan_handles_adversarial_order():
    # A naive running sum loses every 1.0 against 1e16 and reports a zero mean.
    values = [1e16] + [1.0] * 10 + [-1e16]
    mean, ci = sample_mean_ci(values)
    assert mean == 10.0 / 12
    assert math.isfinite(ci) and ci > 0.0
