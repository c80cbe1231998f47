"""Experiment orchestration: ensemble runs, class comparisons, kappa sweeps.

Each ensemble generates `circuit_count` circuits from consecutive seeds
(base_seed + k), compresses every circuit at the configured ratio, classifies
the outcome as robust or fragile, and aggregates class-level statistics.
Circuits are processed independently (optionally across processes) and the
records are always assembled in seed order, so reports are deterministic
regardless of scheduling.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Callable, Iterable, Sequence

from . import stats as st
from .circuits import Axis, GenerationParams, circuit_depth, expected_gate_count, generate_uniform
from .codec import check_types, decode, encode, write_csv
from .errors import CircuitFormatError, InvalidParameterError, NoTransitionError, UndefinedStatisticError, _shown
from .pruning import PRUNING_MODES, importance_profile, prune, removal_quota
from .stats import AngleStats, ClassLabel

__all__ = [
    "EnsembleConfig",
    "CircuitRecord",
    "ClassSummary",
    "FingerprintEntry",
    "CorrelationSummary",
    "EnsembleReport",
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "run_ensemble",
    "kappa_sweep",
    "sweep_grid",
    "compare_classes",
    "report_to_dict",
    "report_from_dict",
    "write_records_csv",
    "RECORD_CSV_COLUMNS",
]

# Seed offset separating sweep probe circuits from main-ensemble circuits.
SWEEP_SEED_OFFSET = 10_000
SWEEP_SEED_STRIDE = 100
# Largest kappa grid a sweep accepts (the default grid has 12 points).
MAX_SWEEP_POINTS = 1000
# The AngleStats fields the report compares between the classes.
FINGERPRINT_STATS = ("mean_theta", "std_theta", "small_angle_ratio")


def _validate_run(config: EnsembleConfig | SweepConfig, kappa: float) -> None:
    """The checks both run configs share: the generator parameters, the
    thresholds, the pruning mode, and a kappa that removes at least one gate
    of every circuit."""
    GenerationParams(config.n, config.alpha, config.rho, config.base_seed)
    st._check_thresholds(config.classify_threshold, config.small_angle_threshold)
    if config.pruning_mode not in PRUNING_MODES:
        raise InvalidParameterError(f"pruning_mode must be one of {PRUNING_MODES}, got {config.pruning_mode!r}")
    removal_quota(kappa, expected_gate_count(config.n, config.alpha, config.rho))


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    alpha: float
    rho: float
    kappa: float
    circuit_count: int = 100
    base_seed: int = 0
    classify_threshold: float = st.DEFAULT_CLASSIFY_THRESHOLD
    small_angle_threshold: float = st.DEFAULT_SMALL_ANGLE_THRESHOLD
    pruning_mode: str = "causal"

    def __post_init__(self) -> None:
        check_types(self)
        _validate_run(self, self.kappa)
        if self.circuit_count < 2:
            raise InvalidParameterError(f"circuit_count must be >= 2, got {_shown(self.circuit_count)}")

    def seed_for(self, k: int) -> int:
        return self.base_seed + k


@dataclass(frozen=True)
class CircuitRecord:
    """One circuit's row in an ensemble report."""

    seed: int
    gate_count: int
    depth: int
    fidelity: float
    label: ClassLabel
    angle_stats: AngleStats
    angle_importance_r: float | None
    importance_entropy: float | None
    importance_gini: float | None


@dataclass(frozen=True)
class ClassSummary:
    count: int
    fraction: float
    mean_fidelity: float | None


@dataclass(frozen=True)
class FingerprintEntry:
    robust_mean: float | None = field(metadata={"key": "robust"})
    fragile_mean: float | None = field(metadata={"key": "fragile"})
    p_value: float | None


@dataclass(frozen=True)
class CorrelationSummary:
    robust_mean_r: float | None
    fragile_mean_r: float | None
    p_value: float | None


@dataclass(frozen=True)
class EnsembleReport:
    config: EnsembleConfig
    records: tuple[CircuitRecord, ...]
    class_summary: dict[str, ClassSummary]
    fidelity_gap: float | None
    cohens_d_fidelity: float | None
    angle_fingerprint: dict[str, FingerprintEntry]
    per_axis_p: dict[str, float | None]
    correlation_summary: CorrelationSummary


def _build_record(config: EnsembleConfig, k: int) -> CircuitRecord:
    seed = config.seed_for(k)
    circuit = generate_uniform(GenerationParams(config.n, config.alpha, config.rho, seed))
    profile = importance_profile(circuit)
    result = prune(circuit, config.kappa, config.pruning_mode, config.small_angle_threshold, profile)
    return CircuitRecord(
        seed=seed,
        gate_count=len(circuit),
        depth=circuit_depth(circuit),
        fidelity=result.fidelity,
        label=st.classify(result.fidelity, config.classify_threshold),
        angle_stats=st.angle_stats(circuit, config.small_angle_threshold),
        angle_importance_r=_defined(st.angle_importance_r, circuit, profile),
        importance_entropy=_defined(st.shannon_entropy, profile),
        importance_gini=_defined(st.gini, profile),
    )


def _parallel_map(fn: Callable, items: Sequence, threads: int | None) -> list:
    """Order-preserving map, optionally across worker processes."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(threads, len(items))
    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _defined(stat: Callable, *args):
    """stat(*args), or None where the statistic is undefined for the data."""
    try:
        return stat(*args)
    except UndefinedStatisticError:
        return None


def _by_class(labelled: Iterable[tuple[ClassLabel, float | None]]) -> tuple[list, list]:
    """The values of (label, value) pairs, robust then fragile; None values are dropped."""
    split = {label: [] for label in ClassLabel}
    for label, value in labelled:
        if value is not None:
            split[label].append(value)
    return split[ClassLabel.ROBUST], split[ClassLabel.FRAGILE]


def _mean_or_none(values: Sequence[float]) -> float | None:
    return float(sum(values)) / len(values) if values else None


def _compare(records: Sequence[CircuitRecord], value: Callable) -> tuple[float | None, float | None, float | None]:
    """The robust and fragile means of value(record) and the Welch p-value between them."""
    robust, fragile = _by_class((r.label, value(r)) for r in records)
    test = _defined(st.welch_t_test, robust, fragile)
    return _mean_or_none(robust), _mean_or_none(fragile), None if test is None else test.p_value


def _aggregate(config: EnsembleConfig, records: Sequence[CircuitRecord]) -> EnsembleReport:
    fidelities = _by_class((r.label, r.fidelity) for r in records)
    return EnsembleReport(
        config=config,
        records=tuple(records),
        class_summary={
            label.value: ClassSummary(count=len(group), fraction=len(group) / len(records),
                                      mean_fidelity=_mean_or_none(group))
            for label, group in zip(ClassLabel, fidelities)
        },
        fidelity_gap=_defined(st.fidelity_gap, *fidelities),
        cohens_d_fidelity=_defined(st.cohens_d, *fidelities),
        angle_fingerprint={
            stat: FingerprintEntry(*_compare(records, lambda r: getattr(r.angle_stats, stat)))
            for stat in FINGERPRINT_STATS
        },
        per_axis_p={
            axis.value: _compare(records, lambda r: r.angle_stats.per_axis[axis].mean)[2] for axis in Axis
        },
        correlation_summary=CorrelationSummary(*_compare(records, lambda r: r.angle_importance_r)),
    )


def run_ensemble(config: EnsembleConfig, threads: int | None = None) -> EnsembleReport:
    """Generate, compress, classify and analyze a full circuit ensemble.

    Deterministic given the config; `threads` only changes the schedule.
    Aggregate fields involving an empty class are reported as None rather
    than fabricated.
    """
    records = _parallel_map(partial(_build_record, config), range(config.circuit_count), threads)
    return _aggregate(config, records)


@dataclass(frozen=True)
class SweepConfig:
    n: int
    alpha: float
    rho: float
    base_seed: int = 0
    probe_count: int = 30
    kappa_start: float = 0.05
    kappa_stop: float = 0.40
    kappa_step: float = 0.03
    classify_threshold: float = st.DEFAULT_CLASSIFY_THRESHOLD
    small_angle_threshold: float = st.DEFAULT_SMALL_ANGLE_THRESHOLD
    pruning_mode: str = "causal"

    def __post_init__(self) -> None:
        check_types(self)
        if self.probe_count < 2:
            raise InvalidParameterError(f"probe_count must be >= 2, got {_shown(self.probe_count)}")
        if not 0.0 < self.kappa_start <= self.kappa_stop < 1.0:
            raise InvalidParameterError(
                f"kappa grid [{_shown(self.kappa_start)}, {_shown(self.kappa_stop)}] must lie inside (0, 1)")
        if not self.kappa_step > 0:  # also rejects NaN, which has no point count
            raise InvalidParameterError(f"kappa_step must be positive, got {_shown(self.kappa_step)}")
        points = _grid_size(self)
        if points > MAX_SWEEP_POINTS:
            raise InvalidParameterError(
                f"kappa grid would have {points} points; at most {MAX_SWEEP_POINTS} are allowed"
            )
        _validate_run(self, round(self.kappa_start, 9))  # the first grid point: the quota grows with kappa


@dataclass(frozen=True)
class SweepPoint:
    kappa: float
    gap: float | None
    robust_fraction: float
    valid: bool


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[SweepPoint, ...]
    selected_kappa: float


def _grid_size(config: SweepConfig) -> int | float:
    """Points of the kappa grid: floor((stop - start) / step) + 1, the quotient
    rounded to 9 decimals so that a decimal step lands on kappa_stop. A step
    too small for the quotient to be finite counts as math.inf points."""
    steps = round((config.kappa_stop - config.kappa_start) / config.kappa_step, 9)
    return math.floor(steps) + 1 if math.isfinite(steps) else math.inf


def sweep_grid(config: SweepConfig) -> list[float]:
    """Grid values kappa_start, kappa_start + step, ... up to kappa_stop, each rounded to 9 decimals."""
    return [round(config.kappa_start + i * config.kappa_step, 9) for i in range(_grid_size(config))]


def _probe_fidelity(config: SweepConfig, task: tuple[int, float, int]) -> float:
    grid_index, kappa, k = task
    seed = config.base_seed + SWEEP_SEED_OFFSET + grid_index * SWEEP_SEED_STRIDE + k
    circuit = generate_uniform(GenerationParams(config.n, config.alpha, config.rho, seed))
    return prune(circuit, kappa, config.pruning_mode, config.small_angle_threshold).fidelity


def kappa_sweep(config: SweepConfig, threads: int | None = None) -> SweepResult:
    """Probe every grid kappa with a fresh probe ensemble and select the one
    maximizing the robust/fragile fidelity gap (ties go to the smaller kappa).

    A grid point is valid only when both classes are non-empty; if no point
    is valid the configuration exhibits no transition and NoTransitionError
    is raised. Probe seeds are disjoint from main-ensemble seeds.
    """
    grid = sweep_grid(config)
    tasks = [(gi, kappa, k) for gi, kappa in enumerate(grid) for k in range(config.probe_count)]
    fidelities = _parallel_map(partial(_probe_fidelity, config), tasks, threads)

    points = []
    for gi, kappa in enumerate(grid):
        fids = fidelities[gi * config.probe_count:(gi + 1) * config.probe_count]
        robust, fragile = _by_class((st.classify(f, config.classify_threshold), f) for f in fids)
        gap = _defined(st.fidelity_gap, robust, fragile)
        points.append(SweepPoint(kappa=kappa, gap=gap, robust_fraction=len(robust) / len(fids), valid=gap is not None))
    valid_points = [p for p in points if p.valid]
    if not valid_points:
        raise NoTransitionError(
            "no grid point produced both robust and fragile outcomes; "
            "the configuration exhibits no compression transition"
        )
    best = max(valid_points, key=lambda p: p.gap)  # the first maximum: ties go to the smaller kappa
    return SweepResult(grid=tuple(points), selected_kappa=best.kappa)


def _fmt(value: float | None, fmt: str = "0.4f", absent: str = "n/a") -> str:
    return absent if value is None else format(value, fmt)


def compare_classes(report: EnsembleReport) -> str:
    """Render the three class-comparison tables (fingerprint, per-axis
    p-values, angle-importance correlation) as aligned text."""
    marker = "n/a (class too small)"
    titles = ("mean angle", "angle std dev", "small-angle ratio")  # of FINGERPRINT_STATS, in order
    lines = ["Rotation-angle fingerprint by class"]
    lines.append(f"  {'statistic':<20}{'robust':>10}{'fragile':>10}  p-value")
    for title, key in zip(titles, FINGERPRINT_STATS):
        entry = report.angle_fingerprint[key]
        p = _fmt(entry.p_value, "0.4g", marker)
        lines.append(f"  {title:<20}{_fmt(entry.robust_mean):>10}{_fmt(entry.fragile_mean):>10}  {p}")

    lines.append("")
    lines.append("Per-axis angle comparison (Welch p-value on per-circuit axis means)")
    lines.append(f"  {'axis':<6}p-value")
    for axis in Axis:
        lines.append(f"  r{axis.value:<5}{_fmt(report.per_axis_p[axis.value], '0.4g', marker)}")

    lines.append("")
    lines.append("Angle-importance correlation by class")
    corr = report.correlation_summary
    lines.append(f"  {'class':<10}mean r")
    lines.append(f"  {'robust':<10}{_fmt(corr.robust_mean_r)}")
    lines.append(f"  {'fragile':<10}{_fmt(corr.fragile_mean_r)}")
    lines.append(f"  Welch p-value: {_fmt(corr.p_value, '0.4g', marker)}")
    return "\n".join(lines) + "\n"


RECORD_CSV_COLUMNS = [
    "seed", "gate_count", "depth", "fidelity", "label", "mean_theta", "std_theta",
    "small_angle_ratio", "r_angle_importance", "entropy", "gini",
]


def write_records_csv(stream: IO[str], records: Iterable[CircuitRecord]) -> None:
    """One CSV row per circuit, columns fixed by RECORD_CSV_COLUMNS."""
    write_csv(stream, RECORD_CSV_COLUMNS, (
        (r.seed, r.gate_count, r.depth, r.fidelity, r.label, r.angle_stats.mean_theta,
         r.angle_stats.std_theta, r.angle_stats.small_angle_ratio, r.angle_importance_r,
         r.importance_entropy, r.importance_gini)
        for r in records
    ))


# The keys `_aggregate` writes into each keyed table; the report printers index them.
_TABLE_KEYS = {
    "class_summary": tuple(label.value for label in ClassLabel),
    "angle_fingerprint": FINGERPRINT_STATS,
    "per_axis_p": tuple(axis.value for axis in Axis),
}


def report_to_dict(report: EnsembleReport) -> dict:
    return encode(report)


def report_from_dict(obj: dict) -> EnsembleReport:
    """Rebuild a report from `report_to_dict` output; a malformed document
    raises CircuitFormatError (a ValueError) naming the JSON path."""
    report = decode(EnsembleReport, obj, "report")
    for name, keys in _TABLE_KEYS.items():
        table = getattr(report, name)
        if sorted(table) != sorted(keys):
            raise CircuitFormatError(f"report.{name}: keys must be {list(keys)}, got {list(table)}")
    return report
