import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from qbrittle.circuits import Axis, Circuit, Cnot, GenerationParams, Rotation, generate_uniform
from qbrittle.errors import InvalidParameterError, UndefinedStatisticError
from qbrittle.pruning import importance_profile
from qbrittle.stats import (
    ClassLabel,
    angle_importance_r,
    angle_stats,
    classify,
    cohens_d,
    fidelity_gap,
    gini,
    identity_distance,
    pearson_r,
    regularized_incomplete_beta,
    shannon_entropy,
    student_t_two_sided_p,
    welch_t_test,
)

# reference values from scipy.stats.ttest_ind(equal_var=False) on this fixture
WELCH_FIXTURE_A = [2.1, 2.0, 1.9]
WELCH_FIXTURE_B = [2.5, 2.6, 2.4]
WELCH_REFERENCE_T = -6.12372435695794
WELCH_REFERENCE_P = 0.0036022326091040163
WELCH_REFERENCE_DF = 4.0


def _rotations(thetas):
    return Circuit(1, tuple(Rotation(Axis.Y, 0, t) for t in thetas))


def test_angle_stats_examples():
    stats = angle_stats(_rotations([1.0, 1.0, 1.0]))
    assert (stats.mean_theta, stats.std_theta, stats.small_angle_ratio) == (1.0, 0.0, 0.0)
    stats = angle_stats(_rotations([0.01, math.pi / 2]), small_angle_threshold=0.1)
    assert stats.small_angle_ratio == pytest.approx(0.5)
    stats = angle_stats(_rotations([1.0, 2.0, 3.0]))
    assert stats.mean_theta == pytest.approx(2.0)
    assert stats.std_theta == pytest.approx(1.0)


def test_angle_stats_per_axis_breakdown():
    gates = (Rotation(Axis.X, 0, 0.05), Rotation(Axis.X, 0, 0.5),
             Rotation(Axis.Y, 1, 1.0), Cnot(0, 1))
    stats = angle_stats(Circuit(2, gates))
    assert sum(s.count for s in stats.per_axis.values()) == 3
    assert stats.per_axis[Axis.X].count == 2
    assert stats.per_axis[Axis.X].small_angle_ratio == pytest.approx(0.5)
    assert stats.per_axis[Axis.Y].std is None  # single sample
    assert stats.per_axis[Axis.Z].count == 0
    assert stats.per_axis[Axis.Z].mean is None


def test_small_angle_means_near_identity():
    # theta = -3.0 is far from the identity (importance 0.995 on |0>), while
    # theta = 2pi - 0.01 is 0.01 away from it (importance 2.5e-5)
    far, near = -3.0, 2 * math.pi - 0.01
    assert identity_distance(far) == 3.0
    assert identity_distance(near) == pytest.approx(0.01, abs=1e-15)
    assert identity_distance(math.pi / 2) == math.pi / 2  # exact inside [-pi, pi]
    assert np.array_equal(identity_distance(np.array([far, 0.5])), [3.0, 0.5])
    stats = angle_stats(_rotations([far, 1.0]))
    assert stats.small_angle_ratio == 0.0
    assert stats.per_axis[Axis.Y].small_angle_ratio == 0.0
    stats = angle_stats(_rotations([near, 1.0]))
    assert stats.small_angle_ratio == 0.5
    assert stats.per_axis[Axis.Y].small_angle_ratio == 0.5


def test_angle_stats_needs_two_rotations():
    with pytest.raises(UndefinedStatisticError):
        angle_stats(Circuit(1, (Rotation(Axis.X, 0, 1.0),)))


def test_entropy_examples():
    assert shannon_entropy([0.2] * 7) == pytest.approx(math.log(7), abs=1e-12)
    assert shannon_entropy([0, 0, 0.4, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    assert shannon_entropy([1, 1, 2]) == pytest.approx(1.5 * math.log(2), abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        shannon_entropy([0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        shannon_entropy([0.5, -0.1])


def test_entropy_is_bounded_by_log_n():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.uniform(0, 1, size=int(rng.integers(2, 40)))
        assert shannon_entropy(scores) <= math.log(scores.size) + 1e-12


def test_gini_examples():
    assert gini([0.3] * 9) == pytest.approx(0.0, abs=1e-12)
    spike = [0.0] * 7 + [2.0]
    assert gini(spike) == pytest.approx(7 / 8, abs=1e-12)
    assert gini([1.0, 3.0]) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        gini([0.0, 0.0])


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        scores = rng.uniform(0, 1, size=int(rng.integers(2, 25)))
        pairwise = np.abs(scores[:, None] - scores[None, :]).sum() / (2 * scores.size * scores.sum())
        assert gini(scores) == pytest.approx(float(pairwise), abs=1e-12)
        assert 0.0 <= gini(scores) <= (scores.size - 1) / scores.size


def test_pearson_examples():
    xs = [1.0, 2.0, 3.0]
    assert pearson_r(xs, [2 * x for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson_r(xs, [6.0, 4.0, 5.0]) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        pearson_r([1.0, 1.0, 1.0], xs)
    with pytest.raises(InvalidParameterError):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_affine_invariance():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=25)
    ys = rng.normal(size=25)
    base = pearson_r(xs, ys)
    assert pearson_r(3.5 * xs + 2, ys) == pytest.approx(base, abs=1e-12)
    assert pearson_r(xs, -ys) == pytest.approx(-base, abs=1e-12)


def test_angle_importance_r_positive_on_monotone_chain():
    # independent single-qubit rotations: importance is exactly sin^2(theta/2)
    gates = tuple(Rotation(Axis.Y, q, 0.2 + 0.25 * q) for q in range(5))
    circuit = Circuit(5, gates)
    profile = importance_profile(circuit)
    assert angle_importance_r(circuit, profile) > 0.9


def test_angle_importance_r_ignores_cnots():
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.3, seed=4))
    profile = importance_profile(circuit)
    rotations = [(i, g) for i, g in enumerate(circuit.gates) if isinstance(g, Rotation)]
    thetas = [g.theta for _, g in rotations]
    scores = [profile.importances[i] for i, _ in rotations]
    assert angle_importance_r(circuit, profile) == pytest.approx(pearson_r(thetas, scores), abs=1e-15)


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = float(rng.uniform(0.3, 60))
        b = float(rng.uniform(0.3, 60))
        x = float(rng.uniform(0, 1))
        ours = regularized_incomplete_beta(a, b, x)
        reference = float(scipy.special.betainc(a, b, x))
        assert ours == pytest.approx(reference, abs=1e-12)


def test_student_t_tail_against_scipy():
    for t in (-8.0, -2.5, -0.3, 0.0, 0.7, 3.1, 12.0):
        for df in (1.0, 2.5, 4.0, 17.3, 120.0):
            ours = student_t_two_sided_p(t, df)
            reference = 2 * float(scipy.stats.t.sf(abs(t), df))
            assert ours == pytest.approx(reference, abs=1e-10)


def test_welch_identical_samples():
    result = welch_t_test([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    assert result.statistic == pytest.approx(0.0, abs=1e-15)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_welch_extreme_separation():
    result = welch_t_test([1.0, 2.0, 3.0, 4.0], [11.0, 12.0, 13.0, 14.0])
    assert result.p_value < 0.01


def test_welch_frozen_fixture():
    result = welch_t_test(WELCH_FIXTURE_A, WELCH_FIXTURE_B)
    assert result.statistic == pytest.approx(WELCH_REFERENCE_T, abs=1e-8)
    assert result.p_value == pytest.approx(WELCH_REFERENCE_P, abs=1e-6)
    assert result.degrees_of_freedom == pytest.approx(WELCH_REFERENCE_DF, abs=1e-9)


def test_welch_against_scipy_random_samples():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = rng.normal(loc=0.0, scale=rng.uniform(0.5, 2), size=int(rng.integers(3, 40)))
        b = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2), size=int(rng.integers(3, 40)))
        ours = welch_t_test(a, b)
        reference = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert ours.statistic == pytest.approx(float(reference.statistic), abs=1e-8)
        assert ours.p_value == pytest.approx(float(reference.pvalue), abs=1e-6)


def test_welch_symmetry_and_errors():
    a = [1.0, 2.0, 4.0]
    b = [2.0, 3.0, 3.5, 5.0]
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        welch_t_test([1.0], b)
    with pytest.raises(UndefinedStatisticError):
        welch_t_test([1.0, 1.0, 1.0], b)


def test_cohens_d_examples():
    assert cohens_d([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == pytest.approx(-3.0, abs=1e-12)
    assert cohens_d([1.0, 3.0], [4.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    a = [1.0, 2.0, 4.0]
    b = [0.5, 2.5, 3.0]
    assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), abs=1e-12)
    scaled = cohens_d([3 * x for x in a], [3 * x for x in b])
    assert scaled == pytest.approx(cohens_d(a, b), abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        cohens_d([1.0, 1.0], [1.0, 1.0])


def test_classify_threshold_semantics():
    assert classify(0.985) is ClassLabel.ROBUST
    assert classify(0.704) is ClassLabel.FRAGILE
    assert classify(0.9) is ClassLabel.ROBUST  # boundary inclusive
    assert classify(0.95, threshold=0.99) is ClassLabel.FRAGILE
    # monotone
    labels = [classify(f) for f in np.linspace(0, 1, 21)]
    first_robust = labels.index(ClassLabel.ROBUST)
    assert all(lab is ClassLabel.ROBUST for lab in labels[first_robust:])


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5])
def test_classify_checks_its_threshold(threshold):
    with pytest.raises(InvalidParameterError, match="classify_threshold must lie in"):
        classify(0.95, threshold)


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, math.inf])
def test_angle_stats_checks_its_threshold(threshold):
    with pytest.raises(InvalidParameterError, match="small_angle_threshold must be finite"):
        angle_stats(_rotations([0.01, 1.0]), threshold)


def test_fidelity_gap():
    assert fidelity_gap([0.95, 0.99], [0.7, 0.8]) == pytest.approx(0.15, abs=1e-12)
    assert fidelity_gap([0.91], [0.92]) == pytest.approx(-0.01, abs=1e-12)
    with pytest.raises(UndefinedStatisticError):
        fidelity_gap([], [0.5])
    with pytest.raises(UndefinedStatisticError):
        fidelity_gap([0.95], [])
