"""Property tests on random small circuits, with angles anywhere in [-4pi, 4pi].

The importance profile, its analytic bound and the simulator are checked
against the independent oracles in `helpers`, the block splitter of `run`
against the per-gate `reference_run` on circuits no generator would make,
the bulk-draw generator against the per-draw `reference_generate`;
the JSON and QASM formats, the report codec and the concentration
statistics against their definitions, and ensembles and sweeps against
themselves run in one process. Examples are derandomized and
capped, so the file runs in a few seconds and the same way every time.
"""
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from helpers import dense_reference_state, naive_importances, reference_generate, reference_run
from qbrittle.circuits import (Axis, Circuit, Cnot, GenerationParams, Rotation, export_qasm, from_json,
                               generate_uniform, to_json)
from qbrittle.errors import NoTransitionError
from qbrittle.protocol import (FINGERPRINT_STATS, CircuitRecord, ClassSummary, CorrelationSummary, EnsembleConfig,
                               EnsembleReport, FingerprintEntry, SweepConfig, kappa_sweep, report_from_dict,
                               report_to_dict, run_ensemble)
from qbrittle.pruning import PRUNING_MODES, importance_profile
from qbrittle.simulator import run
from qbrittle.stats import AngleStats, AxisAngleStats, ClassLabel, gini, identity_distance, shannon_entropy

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)
ANGLES = st.floats(-4 * math.pi, 4 * math.pi)


@st.composite
def circuits(draw, max_qubits=4, max_gates=16, axes=tuple(Axis)):
    n = draw(st.integers(1, max_qubits))
    qubit = st.integers(0, n - 1)
    gate = st.builds(Rotation, st.sampled_from(axes), qubit, ANGLES)
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        gate = st.one_of(gate, pair.map(lambda q: Cnot(*q)))
    return Circuit(n, tuple(draw(st.lists(gate, min_size=1, max_size=max_gates))))


@st.composite
def unstructured_circuits(draw, max_qubits=6, max_pieces=12):
    """Gate lists that exercise the block splitter, no generator's skeleton:
    pieces in any order, each a few rotations on any qubits (repeats allowed),
    a rotation on every qubit in shuffled order, one CNOT on any pair, or a
    brick of CNOTs on ring neighbours in either direction, wraparound included."""
    n = draw(st.integers(1, max_qubits))
    gates = []
    for _ in range(draw(st.integers(1, max_pieces))):
        piece = draw(st.sampled_from(["rotations", "layer", "cnot", "brick"] if n > 1 else ["rotations", "layer"]))
        if piece in ("rotations", "layer"):
            qubits = draw(st.permutations(range(n)) if piece == "layer"
                          else st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
            gates += [Rotation(draw(st.sampled_from(Axis)), q, draw(ANGLES)) for q in qubits]
        elif piece == "cnot":
            gates.append(Cnot(*draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))))
        else:
            offset, reverse = draw(st.integers(0, 1)), draw(st.booleans())
            pairs = [(q, (q + 1) % n) for q in range(offset, n, 2)]
            gates += [Cnot(t, c) if reverse else Cnot(c, t) for c, t in pairs]
    return Circuit(n, tuple(gates))


def _wrapped(theta: float) -> float:
    """The definition, |((theta + pi) mod 2pi) - pi|, in plain float arithmetic."""
    return abs((theta + math.pi) % (2 * math.pi) - math.pi)


@EXAMPLES
@given(circuits())
def test_profile_matches_naive_leave_one_out(circuit):
    profile = importance_profile(circuit)
    assert np.max(np.abs(profile.importances - naive_importances(circuit))) <= 1e-12
    assert np.array_equal(profile.baseline_state.amplitudes, run(circuit).amplitudes)


@EXAMPLES
@given(circuits())
def test_rotation_importance_is_bounded_by_wrapped_angle(circuit):
    importances = importance_profile(circuit).importances
    assert np.all(importances >= 0.0)
    for i, gate in ((i, g) for i, g in enumerate(circuit.gates) if isinstance(g, Rotation)):
        assert importances[i] <= math.sin(gate.theta / 2) ** 2
        # d is exact against the float 2pi, which is 2.4e-16 short of 2pi
        d = identity_distance(gate.theta)
        assert importances[i] <= math.sin(d / 2) ** 2 + 1e-15


@EXAMPLES
@given(ANGLES)
def test_identity_distance_is_the_wrapped_angle(theta):
    d = identity_distance(theta)
    assert 0.0 <= d <= math.pi
    assert d == pytest.approx(_wrapped(theta), abs=1e-14)
    if abs(theta) <= math.pi:
        assert d == abs(theta)


@EXAMPLES
@given(unstructured_circuits())
def test_blocks_match_per_gate_reference(circuit):
    expected_losses = np.empty(len(circuit.gates))
    expected = reference_run(circuit, expected_losses)
    losses = np.empty(len(circuit.gates))
    state = run(circuit, losses)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
    assert np.max(np.abs(losses - expected_losses), initial=0.0) <= 1e-12
    assert np.array_equal(state.amplitudes, run(circuit).amplitudes)


@EXAMPLES
@given(circuits(max_qubits=6, max_gates=24, axes=[Axis.Z]))
def test_phase_circuits_score_exactly_zero(circuit):
    # Rz and CNOT keep |0...0> a basis state up to phase: no gate changes the overlap,
    # so every importance is exactly +0.0, bit for bit.
    importances = importance_profile(circuit).importances
    assert importances.tobytes() == np.zeros(len(circuit.gates)).tobytes()


@EXAMPLES
@given(circuits())
def test_run_matches_dense_oracle(circuit):
    assert np.max(np.abs(run(circuit).amplitudes - dense_reference_state(circuit))) <= 1e-10


@EXAMPLES
@given(st.builds(GenerationParams, st.sampled_from([4, 6, 8, 10]), st.floats(0.25, 3.0), st.floats(0.0, 1.0),
                 st.integers(0, 2**64 - 1)))
def test_generator_matches_per_draw_oracle(params):
    assert generate_uniform(params) == reference_generate(params)


PARAMS = st.one_of(st.none(), st.builds(
    GenerationParams, st.sampled_from([4, 6, 8, 10]), st.floats(0.1, 4.0), st.floats(0.0, 1.0),
    st.integers(0, 2**64 - 1)))
# Scores as an importance profile holds them: non-negative, not all zero, none
# so small that scaling by SCALES underflows.
SCORES = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=30).filter(any)
SCALES = st.floats(1e-3, 1e3)


@EXAMPLES
@given(circuits(), PARAMS)
def test_json_roundtrip_is_bit_exact(circuit, params):
    circuit = Circuit(circuit.n_qubits, circuit.gates, params)
    back = from_json(to_json(circuit))
    assert back == circuit
    assert [g.theta.hex() for g in back.gates if isinstance(g, Rotation)] == \
        [g.theta.hex() for g in circuit.gates if isinstance(g, Rotation)]


@EXAMPLES
@given(circuits())
def test_qasm_has_a_line_per_gate_after_the_header(circuit):
    text = export_qasm(circuit)
    assert text.endswith("\n")
    assert len(text.splitlines()) == 3 + len(circuit.gates)


@EXAMPLES
@given(SCORES)
def test_gini_and_entropy_lie_in_their_ranges(scores):
    n = len(scores)
    assert -1e-12 <= gini(scores) <= 1.0 - 1.0 / n + 1e-12
    assert -1e-12 <= shannon_entropy(scores) <= math.log(n) + 1e-12


@EXAMPLES
@given(SCORES, SCALES, st.data())
def test_gini_and_entropy_ignore_scale_and_order(scores, scale, data):
    permuted = data.draw(st.permutations(scores))
    for changed in ([scale * x for x in scores], permuted):
        assert gini(changed) == pytest.approx(gini(scores), rel=1e-9, abs=1e-12)
        assert shannon_entropy(changed) == pytest.approx(shannon_entropy(scores), rel=1e-9, abs=1e-12)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
OPTIONAL_FLOATS = st.none() | FLOATS
COUNTS = st.integers(0, 10**6)
SEEDS = st.integers(0, 2**64 - 1)


def keyed(keys, values):
    return st.fixed_dictionaries({key: values for key in keys})


REPORTS = st.builds(
    EnsembleReport,
    config=st.builds(EnsembleConfig, st.sampled_from([4, 6, 8, 10]), st.floats(0.25, 3.0), st.floats(0.0, 1.0),
                     st.floats(0.25, 0.95), st.integers(2, 10**6), SEEDS, st.floats(0.0, 1.0), st.floats(0.0, 4.0),
                     st.sampled_from(PRUNING_MODES)),
    records=st.lists(st.builds(
        CircuitRecord, SEEDS, COUNTS, COUNTS, FLOATS, st.sampled_from(ClassLabel),
        st.builds(AngleStats, FLOATS, FLOATS, FLOATS, st.dictionaries(
            st.sampled_from(Axis), st.builds(AxisAngleStats, OPTIONAL_FLOATS, OPTIONAL_FLOATS, OPTIONAL_FLOATS, COUNTS))),
        OPTIONAL_FLOATS, OPTIONAL_FLOATS, OPTIONAL_FLOATS), max_size=4).map(tuple),
    class_summary=keyed([label.value for label in ClassLabel], st.builds(ClassSummary, COUNTS, FLOATS, OPTIONAL_FLOATS)),
    fidelity_gap=OPTIONAL_FLOATS,
    cohens_d_fidelity=OPTIONAL_FLOATS,
    angle_fingerprint=keyed(FINGERPRINT_STATS, st.builds(FingerprintEntry, OPTIONAL_FLOATS, OPTIONAL_FLOATS,
                                                         OPTIONAL_FLOATS)),
    per_axis_p=keyed([axis.value for axis in Axis], OPTIONAL_FLOATS),
    correlation_summary=st.builds(CorrelationSummary, OPTIONAL_FLOATS, OPTIONAL_FLOATS, OPTIONAL_FLOATS),
)


@EXAMPLES
@given(REPORTS)
def test_report_json_roundtrip_is_identity(report):
    assert report_from_dict(json.loads(json.dumps(report_to_dict(report)))) == report


def _outcome(experiment, config, threads):
    """The experiment's result, or NoTransitionError when a sweep finds no transition."""
    try:
        return experiment(config, threads=threads)
    except NoTransitionError:
        return NoTransitionError


# Each example starts two worker pools, so a handful of small configs.
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.sampled_from([4, 6]), st.floats(1.0, 2.0), st.floats(0.1, 0.5), st.floats(0.1, 0.4),
       st.integers(0, 2**32), st.sampled_from(PRUNING_MODES))
def test_results_do_not_depend_on_threads(n, alpha, rho, kappa, seed, mode):
    ensemble = EnsembleConfig(n, alpha, rho, kappa, circuit_count=3, base_seed=seed, pruning_mode=mode)
    sweep = SweepConfig(n, alpha, rho, base_seed=seed, probe_count=2, pruning_mode=mode)
    for experiment, config in ((run_ensemble, ensemble), (kappa_sweep, sweep)):
        assert _outcome(experiment, config, 1) == _outcome(experiment, config, 2)
