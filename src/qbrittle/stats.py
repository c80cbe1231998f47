"""Descriptive and inferential statistics for ensemble analysis.

Conventions: standard deviations are sample (n-1) estimates throughout, the
two-sample comparison is Welch's unequal-variance t-test, and Student-t tail
probabilities are evaluated via the regularized incomplete beta function
(continued fraction, absolute error well below 1e-10) so the package needs
no statistics dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .circuits import _REALS, Axis, Circuit, _check_per_gate
from .errors import InvalidParameterError, UndefinedStatisticError, _shown

__all__ = [
    "AngleStats",
    "AxisAngleStats",
    "ClassLabel",
    "TestResult",
    "angle_stats",
    "identity_distance",
    "shannon_entropy",
    "gini",
    "pearson_r",
    "angle_importance_r",
    "welch_t_test",
    "cohens_d",
    "classify",
    "fidelity_gap",
    "regularized_incomplete_beta",
    "student_t_two_sided_p",
]

DEFAULT_SMALL_ANGLE_THRESHOLD = 0.1
DEFAULT_CLASSIFY_THRESHOLD = 0.9
# `_beta_cf` stops at a relative step below _CF_EPS, or fails after _CF_MAX_TERMS terms.
_CF_EPS = 1e-15
_CF_MAX_TERMS = 300


def _check_thresholds(classify_threshold: float = DEFAULT_CLASSIFY_THRESHOLD,
                      small_angle_threshold: float = DEFAULT_SMALL_ANGLE_THRESHOLD) -> None:
    """A classify threshold is a fidelity in [0, 1]; a small-angle threshold
    is a finite distance >= 0. NaN is neither."""
    if not 0.0 <= classify_threshold <= 1.0:
        raise InvalidParameterError(f"classify_threshold must lie in [0, 1], got {_shown(classify_threshold)}")
    if not 0.0 <= small_angle_threshold < math.inf:
        raise InvalidParameterError(
            f"small_angle_threshold must be finite and >= 0, got {_shown(small_angle_threshold)}")


class ClassLabel(str, Enum):
    """Post-compression outcome class."""

    ROBUST = "robust"
    FRAGILE = "fragile"


@dataclass(frozen=True)
class AxisAngleStats:
    """Angle statistics of one rotation axis; undefined entries are None."""

    mean: float | None
    std: float | None
    small_angle_ratio: float | None
    count: int


@dataclass(frozen=True)
class AngleStats:
    """Rotation-angle statistics of a circuit (rotation gates only)."""

    mean_theta: float
    std_theta: float
    small_angle_ratio: float
    per_axis: dict[Axis, AxisAngleStats]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    degrees_of_freedom: float
    p_value: float


def identity_distance(theta):
    """Distance of the rotation angle theta from the identity, wrapped into [0, pi].

    d = |((theta + pi) mod 2pi) - pi|, since R(theta + 2pi) = -R(theta) is the
    same gate up to a global phase. Apart from the float constant 2pi, nothing
    rounds: fmod is exact, and so is 2pi - r for r in [pi, 2pi]. Hence
    d == |theta| whenever |theta| <= pi. Accepts a float or an array.
    """
    r = np.abs(np.fmod(theta, 2 * math.pi))
    return np.minimum(r, 2 * math.pi - r)


def _axis_stats(thetas: np.ndarray, threshold: float) -> AxisAngleStats:
    count = int(thetas.size)
    if count == 0:
        return AxisAngleStats(None, None, None, 0)
    mean = float(np.mean(thetas))
    std = float(np.std(thetas, ddof=1)) if count >= 2 else None
    ratio = float(np.count_nonzero(identity_distance(thetas) < threshold) / count)
    return AxisAngleStats(mean, std, ratio, count)


def angle_stats(circuit: Circuit, small_angle_threshold: float = DEFAULT_SMALL_ANGLE_THRESHOLD) -> AngleStats:
    """Mean/std/small-angle ratio over all rotation angles, plus a per-axis
    breakdown. Requires at least two rotation gates. An angle is small when
    its `identity_distance` is below the threshold."""
    _check_thresholds(small_angle_threshold=small_angle_threshold)
    gates = circuit.encoding
    rotation = gates["kind"] < 3
    axes, thetas = gates["kind"][rotation], gates["theta"][rotation]
    if thetas.size < 2:
        raise UndefinedStatisticError(
            f"angle statistics need at least 2 rotation gates, found {thetas.size}"
        )
    whole = _axis_stats(thetas, small_angle_threshold)
    per_axis = {axis: _axis_stats(thetas[axes == kind], small_angle_threshold) for kind, axis in enumerate(Axis)}
    return AngleStats(whole.mean, whole.std, whole.small_angle_ratio, per_axis)


def _sample(values: Sequence[float], what: str) -> np.ndarray:
    """`values`, named `what`, as a float array; raise unless it is a 1-D sequence of finite numbers."""
    try:
        sample = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{what} must be a sequence of numbers") from None
    if sample.ndim != 1:
        raise InvalidParameterError(f"{what} must be 1-D, got shape {sample.shape}")
    if not np.isfinite(sample).all():
        raise InvalidParameterError(f"{what} must be finite, got {sample[~np.isfinite(sample)][0]}")
    return sample


def _positive_scores(values: Sequence[float], statistic: str) -> tuple[np.ndarray, float]:
    """The scores and their sum; raise unless they are non-negative with a positive sum."""
    scores = _sample(values, "importance scores")
    if np.any(scores < 0):
        raise InvalidParameterError("importance scores must be non-negative")
    total = float(scores.sum())
    if total <= 0.0:
        raise UndefinedStatisticError(f"{statistic} is undefined for an all-zero importance profile")
    return scores, total


def shannon_entropy(values: Sequence[float]) -> float:
    """H = -sum(p_i ln p_i) of the scores normalized to sum 1 (0 ln 0 := 0)."""
    scores, total = _positive_scores(values, "entropy")
    p = scores / total
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of the scores: sum_ij |x_i - x_j| / (2 N sum x).

    Computed via the equivalent sorted form 2*sum(i*x_(i))/(N*sum x) - (N+1)/N.
    """
    scores, total = _positive_scores(values, "Gini coefficient")
    ordered = np.sort(scores)
    n = ordered.size
    ranks = np.arange(1, n + 1)
    return float(2.0 * np.sum(ranks * ordered) / (n * total) - (n + 1) / n)


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]."""
    x, y = _sample(xs, "correlation xs"), _sample(ys, "correlation ys")
    if x.size != y.size:
        raise InvalidParameterError(f"sequence lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise UndefinedStatisticError("correlation needs at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    if denom == 0.0:
        raise UndefinedStatisticError("correlation is undefined for a constant sequence")
    return min(max(float(np.dot(dx, dy)) / denom, -1.0), 1.0)


def angle_importance_r(circuit: Circuit, scores: Sequence[float]) -> float:
    """Pearson correlation between rotation angles and their importance scores, one score per gate."""
    _check_per_gate(scores, circuit, "importance profile")
    rotation = circuit.encoding["kind"] < 3
    return pearson_r(circuit.encoding["theta"][rotation], np.asarray(scores, dtype=float)[rotation])


def _beta_cf(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the continued fraction of I_x(a, b).
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for finite a, b > 0 and x in [0, 1] (clamped into it)."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise InvalidParameterError(
            f"incomplete beta requires finite positive shape parameters, got {_shown(a)} and {_shown(b)}")
    if math.isnan(x):
        raise InvalidParameterError("incomplete beta requires a number x, got nan")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t with finite `df` > 0 degrees of freedom; 0 for t = +-inf."""
    if not 0 < df < math.inf:
        raise InvalidParameterError(f"degrees of freedom must be positive and finite, got {_shown(df)}")
    if math.isnan(t):
        raise InvalidParameterError("t statistic must be a number, got nan")
    x = df / (df + t * t)
    return min(max(regularized_incomplete_beta(0.5 * df, 0.5, x), 0.0), 1.0)


def _two_groups(a: Sequence[float], b: Sequence[float], statistic: str) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Both groups as float arrays and their sample variances; raise unless each has at least 2 samples."""
    xa, xb = _sample(a, f"{statistic} group a"), _sample(b, f"{statistic} group b")
    if xa.size < 2 or xb.size < 2:
        raise UndefinedStatisticError(f"{statistic} needs at least 2 samples per group")
    return xa, xb, float(np.var(xa, ddof=1)), float(np.var(xb, ddof=1))


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite df."""
    xa, xb, va, vb = _two_groups(a, b, "Welch's test")
    if va == 0.0 or vb == 0.0:
        raise UndefinedStatisticError("Welch's test is undefined for a zero-variance sample")
    sa = va / xa.size
    sb = vb / xb.size
    t = (float(xa.mean()) - float(xb.mean())) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa * sa / (xa.size - 1) + sb * sb / (xb.size - 1))
    return TestResult(statistic=t, degrees_of_freedom=df, p_value=student_t_two_sided_p(t, df))


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Standardized mean difference with pooled (n-1-weighted) std."""
    xa, xb, va, vb = _two_groups(a, b, "Cohen's d")
    pooled_var = ((xa.size - 1) * va + (xb.size - 1) * vb) / (xa.size + xb.size - 2)
    if pooled_var == 0.0:
        raise UndefinedStatisticError("Cohen's d is undefined for zero pooled variance")
    return (float(xa.mean()) - float(xb.mean())) / math.sqrt(pooled_var)


def classify(fidelity: float, threshold: float = DEFAULT_CLASSIFY_THRESHOLD) -> ClassLabel:
    """Robust iff fidelity >= threshold (boundary inclusive); a fidelity is a number in [0, 1]."""
    _check_thresholds(classify_threshold=threshold)
    if isinstance(fidelity, bool) or not isinstance(fidelity, _REALS) or not 0.0 <= fidelity <= 1.0:
        raise InvalidParameterError(f"fidelity must be a number in [0, 1], got {_shown(fidelity, repr)}")
    return ClassLabel.ROBUST if fidelity >= threshold else ClassLabel.FRAGILE


def fidelity_gap(robust_fids: Sequence[float], fragile_fids: Sequence[float]) -> float:
    """min(robust) - max(fragile); negative when the classes overlap."""
    robust, fragile = _sample(robust_fids, "robust fidelities"), _sample(fragile_fids, "fragile fidelities")
    if robust.size == 0 or fragile.size == 0:
        raise UndefinedStatisticError("fidelity gap needs both classes non-empty")
    return float(robust.min()) - float(fragile.max())
