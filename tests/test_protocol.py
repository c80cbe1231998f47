import io
import json
import random
import re

import pytest

from qbrittle import protocol
from qbrittle.circuits import expected_gate_count
from qbrittle.errors import InvalidParameterError, NoTransitionError
from qbrittle.protocol import (
    RECORD_CSV_COLUMNS,
    CorrelationSummary,
    ClassSummary,
    EnsembleConfig,
    EnsembleReport,
    FingerprintEntry,
    SweepConfig,
    compare_classes,
    kappa_sweep,
    report_from_dict,
    report_to_dict,
    run_ensemble,
    sweep_grid,
    write_records_csv,
)
from qbrittle.pruning import causal_prune
from qbrittle.circuits import GenerationParams, generate_uniform
from qbrittle.stats import ClassLabel

SMALL = EnsembleConfig(n=6, alpha=1.0, rho=0.3, kappa=0.15, circuit_count=12, base_seed=3)

# a shallow all-near-zero-angle circuit family: pruning can never hurt it
ALL_ROBUST = dict(n=4, alpha=1.0, rho=1.0, base_seed=5)


@pytest.fixture(scope="module")
def small_report():
    return run_ensemble(SMALL, threads=1)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        EnsembleConfig(n=7, alpha=1.0, rho=0.2, kappa=0.1)
    with pytest.raises(InvalidParameterError):
        EnsembleConfig(n=6, alpha=1.0, rho=0.2, kappa=1.2)
    with pytest.raises(InvalidParameterError):
        EnsembleConfig(n=6, alpha=1.0, rho=0.2, kappa=0.1, circuit_count=1)
    with pytest.raises(InvalidParameterError):
        EnsembleConfig(n=6, alpha=1.0, rho=0.2, kappa=0.1, pruning_mode="greedy")


def test_records_follow_the_seed_schedule(small_report):
    records = small_report.records
    assert len(records) == SMALL.circuit_count
    assert [r.seed for r in records] == [SMALL.base_seed + k for k in range(SMALL.circuit_count)]
    expected = expected_gate_count(SMALL.n, SMALL.alpha, SMALL.rho)
    assert all(r.gate_count == expected for r in records)
    for r in records:
        assert (r.fidelity >= SMALL.classify_threshold) == (r.label is ClassLabel.ROBUST)


def test_class_fractions_sum_to_one(small_report):
    summary = small_report.class_summary
    assert summary["robust"].count + summary["fragile"].count == SMALL.circuit_count
    assert summary["robust"].fraction + summary["fragile"].fraction == pytest.approx(1.0)


def test_compressed_count_invariant():
    for seed in (3, 4):
        circuit = generate_uniform(GenerationParams(SMALL.n, SMALL.alpha, SMALL.rho, seed))
        n = len(circuit.gates)
        result = causal_prune(circuit, SMALL.kappa)
        assert len(result.compressed.gates) == n - int(SMALL.kappa * n)


def test_ensemble_deterministic_across_thread_counts(small_report):
    again = run_ensemble(SMALL, threads=4)
    assert again == small_report


def test_empty_class_fields_are_absent_not_fabricated():
    config = EnsembleConfig(kappa=0.2, circuit_count=8, **ALL_ROBUST)
    report = run_ensemble(config, threads=1)
    assert report.class_summary["fragile"].count == 0
    assert report.class_summary["fragile"].mean_fidelity is None
    assert report.fidelity_gap is None
    assert report.cohens_d_fidelity is None
    assert all(e.p_value is None for e in report.angle_fingerprint.values())
    assert all(p is None for p in report.per_axis_p.values())
    assert report.correlation_summary.fragile_mean_r is None
    assert report.correlation_summary.p_value is None


def test_report_json_roundtrip(small_report):
    text = json.dumps(report_to_dict(small_report))
    assert report_from_dict(json.loads(text)) == small_report


MISSING = object()  # deletes the field instead of replacing it


@pytest.mark.parametrize("field, bad", [
    ("records", 5), ("class_summary", []), ("per_axis_p", "x"), ("config", None),
    ("class_summary.robust.fraction", "0.5"), ("records.0.fidelity", True),
    ("class_summary.robust.count", "3"), ("records.0.label", "medium"),
    ("class_summary.fragile", MISSING),
])
def test_report_from_dict_rejects_malformed_fields(small_report, field, bad):
    obj = json.loads(json.dumps(report_to_dict(small_report)))
    *parents, last = field.split(".")
    target = obj
    for key in parents:
        target = target[int(key)] if isinstance(target, list) else target[key]
    if bad is MISSING:
        del target[last]
    else:
        target[last] = bad
    with pytest.raises((KeyError, TypeError, ValueError)) as excinfo:
        report_from_dict(obj)
    # The message starts with the JSON path of the bad value (of its parent for a missing key).
    where = ".".join(parents) if bad is MISSING else field
    assert str(excinfo.value).startswith("report." + re.sub(r"\.(\d+)", r"[\1]", where) + ":")


def test_records_csv_layout(small_report):
    buf = io.StringIO()
    write_records_csv(buf, small_report.records)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(RECORD_CSV_COLUMNS)
    assert len(lines) == 1 + len(small_report.records)
    first = lines[1].split(",")
    assert first[0] == str(SMALL.base_seed)
    assert first[4] in ("robust", "fragile")
    fidelity_col = RECORD_CSV_COLUMNS.index("fidelity")
    for line, record in zip(lines[1:], small_report.records):
        cell = line.split(",")[fidelity_col]
        assert "np." not in cell
        assert float(cell) == record.fidelity


def test_sweep_grid_default_is_twelve_points():
    grid = sweep_grid(SweepConfig(n=10, alpha=2.3, rho=0.28))
    assert len(grid) == 12
    for i, kappa in enumerate(grid):
        assert kappa == pytest.approx(0.05 + 0.03 * i, abs=1e-12)
    assert grid[-1] == pytest.approx(0.38)


def test_sweep_grid_is_capped():
    with pytest.raises(InvalidParameterError, match="at most 1000"):
        SweepConfig(n=10, alpha=2.3, rho=0.28, kappa_step=1e-4)  # 3,501 points
    with pytest.raises(InvalidParameterError, match="kappa_step"):
        SweepConfig(n=10, alpha=2.3, rho=0.28, kappa_step=float("nan"))


def test_sweep_finds_a_transition():
    config = SweepConfig(n=6, alpha=1.0, rho=0.2, base_seed=0, probe_count=10,
                         kappa_start=0.20, kappa_stop=0.40, kappa_step=0.05)
    result = kappa_sweep(config, threads=1)
    kappas = [p.kappa for p in result.grid]
    assert result.selected_kappa in kappas
    valid_points = [p for p in result.grid if p.valid]
    assert valid_points, "expected at least one valid grid point"
    best = max(p.gap for p in valid_points)
    chosen = next(p for p in result.grid if p.kappa == result.selected_kappa)
    assert chosen.valid and chosen.gap == best
    # ties (and the maximum itself) resolve to the smallest kappa
    assert chosen.kappa == min(p.kappa for p in valid_points if p.gap == best)
    for point in result.grid:
        assert (point.gap is not None) == point.valid
        assert 0.0 <= point.robust_fraction <= 1.0


def test_sweep_deterministic_and_thread_independent():
    config = SweepConfig(n=6, alpha=1.0, rho=0.2, base_seed=1, probe_count=6,
                         kappa_start=0.25, kappa_stop=0.35, kappa_step=0.05)
    assert kappa_sweep(config, threads=1) == kappa_sweep(config, threads=3)


def test_sweep_without_transition_raises():
    config = SweepConfig(probe_count=5, kappa_start=0.1, kappa_stop=0.35,
                         kappa_step=0.05, **ALL_ROBUST)
    with pytest.raises(NoTransitionError):
        kappa_sweep(config, threads=1)


def test_bifurcation_and_fingerprint_at_critical_kappa():
    # At the compression ratio the sweep itself selects (the harmless-gate pool
    # is exhausted near kappa ~0.2 for these parameters), the ensemble splits
    # into robust/fragile classes carrying the brittleness fingerprint:
    # fragile circuits have higher mean angle, lower angle spread and fewer
    # small-angle gates.
    config = EnsembleConfig(n=10, alpha=2.3, rho=0.28, kappa=0.20,
                            circuit_count=100, base_seed=0)
    report = run_ensemble(config)
    summary = report.class_summary
    assert 0.5 <= summary["robust"].fraction <= 0.95
    assert summary["robust"].mean_fidelity >= 0.95
    assert summary["fragile"].mean_fidelity < 0.9
    assert abs(report.cohens_d_fidelity) > 2
    fp = report.angle_fingerprint
    assert fp["mean_theta"].fragile_mean > fp["mean_theta"].robust_mean
    assert fp["std_theta"].fragile_mean < fp["std_theta"].robust_mean
    assert fp["small_angle_ratio"].fragile_mean < fp["small_angle_ratio"].robust_mean
    assert all(e.p_value < 0.05 for e in fp.values())


def _synthetic_report(p_value):
    config = EnsembleConfig(n=6, alpha=1.0, rho=0.3, kappa=0.15, circuit_count=4)
    entry = FingerprintEntry(robust_mean=0.75, fragile_mean=0.78, p_value=p_value)
    return EnsembleReport(
        config=config,
        records=(),
        class_summary={"robust": ClassSummary(3, 0.75, 0.98), "fragile": ClassSummary(1, 0.25, 0.7)},
        fidelity_gap=0.02,
        cohens_d_fidelity=3.0,
        angle_fingerprint={"mean_theta": entry, "std_theta": entry, "small_angle_ratio": entry},
        per_axis_p={"x": p_value, "y": p_value, "z": p_value},
        correlation_summary=CorrelationSummary(0.9, 0.92, p_value),
    )


def test_compare_classes_renders_tables():
    text = compare_classes(_synthetic_report(0.0123))
    assert "Rotation-angle fingerprint by class" in text
    assert "Per-axis angle comparison" in text
    assert "Angle-importance correlation" in text
    assert "0.0123" in text
    assert "0.7500" in text and "0.7800" in text


def test_compare_classes_marks_missing_p_values():
    text = compare_classes(_synthetic_report(None))
    assert "n/a (class too small)" in text


def _reference_grid(start, stop, step):
    # The grid as a loop that walks until it passes kappa_stop.
    grid = []
    while (kappa := round(start + len(grid) * step, 9)) <= stop + 1e-12:
        grid.append(kappa)
    return grid


def test_sweep_grid_matches_the_reference_loop():
    rng = random.Random(5)
    for trial in range(500):
        if trial % 2:  # decimal grids, as typed on the command line
            digits = rng.choice((2, 3))
            start = round(rng.uniform(0.01, 0.9), digits)
            stop = round(rng.uniform(start, 0.99), digits)
            step = round(rng.uniform(10 ** -digits, 0.3), digits)
        else:
            start = rng.uniform(0.01, 0.9)
            stop = rng.uniform(start, 0.99)
            step = rng.uniform(1e-3, 0.3)
        config = SweepConfig(n=10, alpha=2.3, rho=0.28, kappa_start=start, kappa_stop=stop, kappa_step=step)
        assert sweep_grid(config) == _reference_grid(start, stop, step), (start, stop, step)


def test_sweep_grid_size_is_the_validated_size(monkeypatch):
    # (stop - start) / step reads 999.9999999999998 here; the grid has 1,001 points.
    with pytest.raises(InvalidParameterError, match="1001 points; at most 1000"):
        SweepConfig(n=10, alpha=2.3, rho=0.28, kappa_start=0.2, kappa_stop=0.3, kappa_step=1e-4)
    # (stop - start) / step reads 1.9999999999999998 here; the grid has 3 points.
    three = dict(n=10, alpha=2.3, rho=0.28, kappa_start=0.1, kappa_stop=0.3, kappa_step=0.1)
    assert sweep_grid(SweepConfig(**three)) == [0.1, 0.2, 0.3]
    monkeypatch.setattr(protocol, "MAX_SWEEP_POINTS", 3)
    SweepConfig(**three)
    monkeypatch.setattr(protocol, "MAX_SWEEP_POINTS", 2)
    with pytest.raises(InvalidParameterError, match="3 points; at most 2"):
        SweepConfig(**three)


def test_sweep_step_too_small_to_count_is_rejected():
    with pytest.raises(InvalidParameterError, match="at most 1000"):
        SweepConfig(n=10, alpha=2.3, rho=0.28, kappa_step=1e-320)  # (stop - start) / step overflows


@pytest.mark.parametrize("make", [
    lambda kappa: EnsembleConfig(n=10, alpha=2.3, rho=0.28, kappa=kappa),
    lambda kappa: SweepConfig(n=10, alpha=2.3, rho=0.28, kappa_start=kappa),
])
def test_configs_reject_a_kappa_that_removes_no_gate(make):
    make(0.003)  # floor(0.003 * 342) = 1
    with pytest.raises(InvalidParameterError, match="removes no gates from a 342-gate circuit"):
        make(0.001)


@pytest.mark.parametrize("cls, extra", [(EnsembleConfig, {"kappa": 0.2}), (SweepConfig, {})])
def test_configs_reject_zero_layers(cls, extra):
    with pytest.raises(InvalidParameterError, match="yields zero layers"):
        cls(n=4, alpha=0.1, rho=0.2, **extra)


@pytest.mark.parametrize("cls, field, bad, expected", [
    (EnsembleConfig, "circuit_count", 3.0, "an integer"),
    (EnsembleConfig, "circuit_count", True, "an integer"),
    (EnsembleConfig, "kappa", "0.2", "a number"),
    (EnsembleConfig, "classify_threshold", True, "a number"),
    (SweepConfig, "probe_count", 2.5, "an integer"),
    (SweepConfig, "kappa_step", "0.03", "a number"),
    (SweepConfig, "small_angle_threshold", None, "a number"),
])
def test_configs_reject_wrong_types(cls, field, bad, expected):
    fields = {"n": 6, "alpha": 1.0, "rho": 0.3, **({"kappa": 0.2} if cls is EnsembleConfig else {}), field: bad}
    with pytest.raises(InvalidParameterError, match=re.escape(f"{field} must be {expected}, got {bad!r}")):
        cls(**fields)
