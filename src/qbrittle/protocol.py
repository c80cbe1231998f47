"""Experiment orchestration: ensemble runs, class comparisons, kappa sweeps.

Each ensemble generates `circuit_count` circuits from consecutive seeds
(base_seed + k), compresses every circuit at the configured ratio, classifies
the outcome as robust or fragile, and aggregates class-level statistics.
Circuits are processed independently, in process one at a time or across
worker processes in batches of consecutive seeds that are simulated together
(see `_parallel_map`), and the records are always assembled in seed order, so
reports are deterministic regardless of scheduling.
"""
from __future__ import annotations

import ctypes
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import IO, Callable, Iterable, Literal, Sequence, get_args

import numpy as np

from . import stats as st
from .circuits import _INTEGERS, Axis, Circuit, GenerationParams, circuit_depth, expected_gate_count, generate_uniform
from .codec import check_types, decode, encode, write_csv
from .errors import InvalidParameterError, NoTransitionError, UndefinedStatisticError, _shown
from .pruning import _pruned, causal_prune, importance_profile, removal_quota
from .simulator import _batch_limit, _check_cap
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

# Seed offset separating sweep probe circuits from main-ensemble circuits; also
# the most circuits an ensemble may hold, so the two seed ranges never meet.
SWEEP_SEED_OFFSET = 10_000
SWEEP_SEED_STRIDE = 100
# Largest kappa grid a sweep accepts (the default grid has 12 points).
MAX_SWEEP_POINTS = 1000
# The AngleStats fields the report compares between the classes.
FingerprintStat = Literal["mean_theta", "std_theta", "small_angle_ratio"]
FINGERPRINT_STATS = get_args(FingerprintStat)
# The thread-count setter numpy's bundled OpenBLAS exports, and its call that
# stops the helper threads the setter starts in a forked worker, where each
# would otherwise busy-wait for about 0.1 s of CPU.
_SET_BLAS_THREADS = "scipy_openblas_set_num_threads64_"
_STOP_BLAS_THREADS = "blas_thread_shutdown_"


def _validate_run(config: EnsembleConfig | SweepConfig, kappa: float, last_seed: int) -> None:
    """The checks both run configs share: the generator parameters, a last
    seed that is still a seed, the classify threshold, and a kappa that
    removes at least one gate of every circuit."""
    GenerationParams(config.n, config.alpha, config.rho, config.base_seed)
    if last_seed >= 2**64:
        raise InvalidParameterError(f"base_seed={_shown(config.base_seed)} puts the run's last seed at "
                                    f"{_shown(last_seed)}, beyond the unsigned 64-bit range")
    st._check_thresholds(config.classify_threshold)
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

    def __post_init__(self) -> None:
        check_types(self)
        if not 2 <= self.circuit_count <= SWEEP_SEED_OFFSET:
            raise InvalidParameterError(
                f"circuit_count must lie in [2, {SWEEP_SEED_OFFSET}], got {_shown(self.circuit_count)}")
        st._check_thresholds(small_angle_threshold=self.small_angle_threshold)
        _validate_run(self, self.kappa, self.base_seed + self.circuit_count - 1)


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
    robust: float | None
    fragile: float | None
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
    class_summary: dict[ClassLabel, ClassSummary]
    fidelity_gap: float | None
    cohens_d_fidelity: float | None
    angle_fingerprint: dict[FingerprintStat, FingerprintEntry]
    per_axis_p: dict[Axis, float | None]
    correlation_summary: CorrelationSummary


def _circuit(config: EnsembleConfig | SweepConfig, seed: int) -> Circuit:
    return generate_uniform(GenerationParams(config.n, config.alpha, config.rho, seed))


def _record(config: EnsembleConfig, circuit: Circuit, importances: np.ndarray, fidelity: float) -> CircuitRecord:
    return CircuitRecord(
        seed=circuit.params.seed,
        gate_count=len(circuit),
        depth=circuit_depth(circuit),
        fidelity=fidelity,
        label=st.classify(fidelity, config.classify_threshold),
        angle_stats=st.angle_stats(circuit, config.small_angle_threshold),
        angle_importance_r=_defined(st.angle_importance_r, circuit, importances),
        importance_entropy=_defined(st.shannon_entropy, importances),
        importance_gini=_defined(st.gini, importances),
    )


def _build_record(config: EnsembleConfig, k: int) -> CircuitRecord:
    """The record of seed base_seed + k through the per-circuit functions."""
    circuit = _circuit(config, config.base_seed + k)
    profile = importance_profile(circuit)
    result = causal_prune(circuit, config.kappa, profile)
    return _record(config, circuit, profile.importances, result.fidelity)


def _build_records(config: EnsembleConfig, ks: Sequence[int]) -> list[CircuitRecord]:
    """The records of seeds base_seed + k for k in ks, the same as
    `_build_record` gives, from circuits simulated as one batch."""
    circuits = [_circuit(config, config.base_seed + k) for k in ks]
    kappas = [config.kappa] * len(ks)
    importances, _, fidelities = _pruned(circuits, kappas)
    return [_record(config, *row) for row in zip(circuits, importances, fidelities)]


def _check_threads(threads: int | None) -> None:
    """A worker count is None (all cores) or a positive int or numpy integer, not a bool."""
    if threads is not None and (isinstance(threads, bool) or not isinstance(threads, _INTEGERS) or threads < 1):
        raise InvalidParameterError(f"threads must be a positive integer or None, got {_shown(threads, repr)}")


@cache
def _blas_library() -> str | None:
    """The path of numpy's bundled OpenBLAS if it exports _SET_BLAS_THREADS and
    _STOP_BLAS_THREADS; otherwise None, said once on stderr."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so")):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(library, _SET_BLAS_THREADS) and hasattr(library, _STOP_BLAS_THREADS):
            return str(path)
    print("warning: numpy's OpenBLAS thread calls were not found; pool workers keep their default BLAS threads",
          file=sys.stderr)
    return None


def _one_blas_thread(library: str | None) -> None:
    """Pool initializer: hold this worker's OpenBLAS to one thread, so the
    pool's workers do not oversubscribe the cores they already fill."""
    if library is not None:
        blas = ctypes.CDLL(library)
        set_threads, stop_threads = getattr(blas, _SET_BLAS_THREADS), getattr(blas, _STOP_BLAS_THREADS)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        stop_threads.argtypes, stop_threads.restype = [], ctypes.c_int
        set_threads(1)
        stop_threads()


def _batches(count: int, workers: int, size: int) -> list[range]:
    """Consecutive near-equal batches of the indices 0 .. count - 1, each of at
    most `size`, as many as a multiple of `workers` where there are that many
    indices, so the workers finish together."""
    needed = -(-count // size)
    parts = min(count, needed + -needed % workers)
    bounds = [count * i // parts for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _parallel_map(fn: Callable, batch_fn: Callable, items: Sequence, threads: int | None, size: int) -> list:
    """Order-preserving map of fn over items, on min(threads, items, CPUs)
    workers. One worker runs in process, where nothing is changed, and calls
    fn per item: the per-circuit calls that perfbench's traced run times layer
    by layer. More workers run as processes with one BLAS thread each and call
    batch_fn on the batches of `_batches` (at most `size` items each); it
    returns the results of fn for the batch."""
    _check_threads(threads)
    workers = min(threads or math.inf, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # here: the pool stack loads only when a pool starts

    batches = [items[b.start:b.stop] for b in _batches(len(items), workers, size)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread, initargs=(_blas_library(),)) as pool:
        return [result for batch in pool.map(batch_fn, batches) for result in batch]


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
            label: ClassSummary(count=len(group), fraction=len(group) / len(records),
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
            axis: _compare(records, lambda r: r.angle_stats.per_axis[axis].mean)[2] for axis in Axis
        },
        correlation_summary=CorrelationSummary(*_compare(records, lambda r: r.angle_importance_r)),
    )


def run_ensemble(config: EnsembleConfig, threads: int | None = None) -> EnsembleReport:
    """Generate, compress, classify and analyze a full circuit ensemble.

    Deterministic given the config; `threads` only changes the schedule.
    Aggregate fields involving an empty class are reported as None rather
    than fabricated.
    """
    _check_cap(config.n)  # before any worker starts
    records = _parallel_map(partial(_build_record, config), partial(_build_records, config),
                            range(config.circuit_count), threads, _batch_limit(config.n))
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

    def __post_init__(self) -> None:
        check_types(self)
        if not 2 <= self.probe_count <= SWEEP_SEED_STRIDE:  # more would share seeds with the next grid point
            raise InvalidParameterError(
                f"probe_count must lie in [2, {SWEEP_SEED_STRIDE}], got {_shown(self.probe_count)}")
        if not (0.0 < self.kappa_start < 1.0 and 0.0 < self.kappa_stop < 1.0):
            raise InvalidParameterError(
                f"kappa grid [{_shown(self.kappa_start)}, {_shown(self.kappa_stop)}] must lie inside (0, 1)")
        if self.kappa_start > self.kappa_stop:
            raise InvalidParameterError(f"kappa_start must not exceed kappa_stop, "
                                        f"got {_shown(self.kappa_start)} > {_shown(self.kappa_stop)}")
        if not 0 < self.kappa_step < math.inf:  # also rejects NaN, which has no point count
            raise InvalidParameterError(f"kappa_step must be positive and finite, got {_shown(self.kappa_step)}")
        points = _grid_size(self)
        if points > MAX_SWEEP_POINTS:
            raise InvalidParameterError(
                f"kappa grid would have {points} points; at most {MAX_SWEEP_POINTS} are allowed"
            )
        # The first grid point, since the quota grows with kappa, and the last probe's seed.
        _validate_run(self, round(self.kappa_start, 9), _probe_seed(self, points - 1, self.probe_count - 1))


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


def _probe_seed(config: SweepConfig, grid_index: int, k: int) -> int:
    """The seed of probe k at grid point `grid_index`."""
    return config.base_seed + SWEEP_SEED_OFFSET + grid_index * SWEEP_SEED_STRIDE + k


def _probe_fidelity(config: SweepConfig, task: tuple[int, float]) -> float:
    """The fidelity of the probe circuit of seed `task[0]` pruned at kappa `task[1]`."""
    seed, kappa = task
    return causal_prune(_circuit(config, seed), kappa).fidelity


def _probe_fidelities(config: SweepConfig, tasks: Sequence[tuple[int, float]]) -> list[float]:
    """`_probe_fidelity` of each task, from circuits simulated as one batch."""
    circuits = [_circuit(config, seed) for seed, _ in tasks]
    return _pruned(circuits, [kappa for _, kappa in tasks])[2]


def kappa_sweep(config: SweepConfig, threads: int | None = None) -> SweepResult:
    """Probe every grid kappa with a fresh probe ensemble and select the one
    maximizing the robust/fragile fidelity gap (ties go to the smaller kappa).

    A grid point is valid only when both classes are non-empty; if no point
    is valid the configuration exhibits no transition and NoTransitionError
    is raised. Each grid point has its own probe seeds; they are disjoint
    from the seeds of an ensemble with the same base seed.
    """
    _check_cap(config.n)  # before any worker starts
    grid = sweep_grid(config)
    tasks = [(_probe_seed(config, gi, k), kappa) for gi, kappa in enumerate(grid) for k in range(config.probe_count)]
    fidelities = _parallel_map(partial(_probe_fidelity, config), partial(_probe_fidelities, config), tasks, threads,
                               _batch_limit(config.n))

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
        lines.append(f"  {title:<20}{_fmt(entry.robust):>10}{_fmt(entry.fragile):>10}  {p}")

    lines.append("")
    lines.append("Per-axis angle comparison (Welch p-value on per-circuit axis means)")
    lines.append(f"  {'axis':<6}p-value")
    for axis in Axis:
        lines.append(f"  r{axis.value:<5}{_fmt(report.per_axis_p[axis], '0.4g', marker)}")

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


def report_to_dict(report: EnsembleReport) -> dict:
    return encode(report)


def report_from_dict(obj: dict) -> EnsembleReport:
    """Rebuild a report from `report_to_dict` output; a malformed document
    raises CircuitFormatError (a ValueError) naming the JSON path."""
    return decode(EnsembleReport, obj, "report")
