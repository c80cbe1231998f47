"""The array encoding of circuits against their gate objects.

Every circuit holds only its encoding; `Circuit(n, gates)` checks gate
objects and encodes them. A generated circuit and one built from its gate
objects must give the same encoding, the same bits from `run`, the same JSON,
and, after `remove_gates`, the circuit that `helpers.reference_remove_gates`
filters from the objects. The path from generation through pruning to an
ensemble builds no gate object and checks none. A hand-built circuit's JSON,
QASM and pickle depend only on its value, not on the number types it was
given.
"""
import json
import pickle

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from helpers import reference_remove_gates
from qbrittle import circuits
from qbrittle.circuits import (GATE_DTYPE, Axis, Circuit, Cnot, GenerationParams, Rotation, export_qasm, from_json,
                               generate_uniform, remove_gates, to_json)
from qbrittle.errors import InvalidParameterError
from qbrittle.protocol import EnsembleConfig, run_ensemble
from qbrittle.pruning import causal_prune, prune
from qbrittle.simulator import run

PARAMS = st.builds(GenerationParams, st.sampled_from([4, 6, 10, 14]), st.sampled_from([0.5, 1.0, 2.3]),
                   st.sampled_from([0.0, 0.28, 1.0]), st.integers(0, 2**64 - 1))


def _fields(circuit: Circuit) -> list[bytes]:
    return [circuit.encoding[name].tobytes() for name in GATE_DTYPE.names]


def _run_bits(circuit: Circuit) -> tuple[bytes, bytes]:
    losses = np.empty(len(circuit))
    return run(circuit, losses).amplitudes.tobytes(), losses.tobytes()


@settings(max_examples=24, deadline=None, derandomize=True)
@given(PARAMS, st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_array_circuits_match_their_gate_objects(params, mask_seed, share):
    circuit = generate_uniform(params)
    objects = Circuit(params.n, circuit.gates, params)
    assert circuit.encoding.dtype == objects.encoding.dtype == GATE_DTYPE
    assert _fields(circuit) == _fields(objects) and circuit == objects
    assert _run_bits(circuit) == _run_bits(objects)
    assert to_json(circuit) == to_json(objects)
    drop = np.flatnonzero(np.random.default_rng(mask_seed).random(len(circuit)) < share).tolist()
    removed, expected = remove_gates(circuit, drop), reference_remove_gates(objects, drop)
    assert _fields(removed) == _fields(expected) and removed == expected
    assert removed.gates == expected.gates and to_json(removed) == to_json(expected)
    assert _run_bits(removed) == _run_bits(expected)


def _forbidden(*args, **kwargs):
    raise AssertionError("a gate object was built or checked")


def test_generate_prune_and_ensemble_build_no_gate_objects(monkeypatch):
    for cls in (Rotation, Cnot):
        monkeypatch.setattr(cls, "__init__", _forbidden)
    for checker in ("_encode", "_check_gate"):
        monkeypatch.setattr(circuits, checker, _forbidden)
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.3, 3))
    causal_prune(circuit, 0.2)
    prune(circuit, 0.2, "aware")
    for mode in ("causal", "aware"):
        run_ensemble(EnsembleConfig(6, 1.0, 0.3, 0.2, circuit_count=4, pruning_mode=mode), threads=1)
    with pytest.raises(AssertionError, match="gate object"):
        circuit.gates  # the guard itself works


def test_gate_objects_are_built_once_as_python_numbers():
    gates = (Rotation(Axis.X, np.int64(1), np.float32(0.5), "appended", np.uint64(3)), Cnot(np.int64(1), 0))
    circuit, generated = Circuit(2, gates), generate_uniform(GenerationParams(4, 1.0, 0.5, 0))
    for c in (circuit, generated, remove_gates(generated, [0]), pickle.loads(pickle.dumps(generated))):
        assert vars(c).keys() == {"n_qubits", "encoding", "params"}  # the encoding is the only state
        assert c.gates is c.gates
    assert circuit.gates == gates and circuit.gates is not gates
    rotation, cnot = circuit.gates
    assert [type(v) for v in (rotation.qubit, rotation.theta, rotation.layer, cnot.control)] == [int, float, int, int]


def _wrapped(values, *types):
    """Values drawn from `values`, each as one of `types` (a Python or numpy number type)."""
    return st.tuples(values, st.sampled_from(types)).map(lambda pair: pair[1](pair[0]))


@st.composite
def hand_built_circuits(draw):
    """Circuits built from gate objects whose qubits, angles and layers are
    Python or numpy numbers, as a caller may pass them."""
    n = draw(st.integers(2, 4))
    qubit = _wrapped(st.integers(0, n - 1), int, np.int64, np.uint64)
    angle = st.one_of(_wrapped(st.floats(-10.0, 10.0), float, np.float32, np.float64),
                      _wrapped(st.integers(-10, 10), int, np.int64))
    layer = _wrapped(st.integers(0, 2**63 - 1), int, np.int64, np.uint64)
    rotation = st.builds(Rotation, st.sampled_from(Axis), qubit, angle, st.sampled_from(["layered", "appended"]), layer)
    pair = st.lists(qubit, min_size=2, max_size=2, unique_by=int)
    cnot = st.builds(lambda wires, layer: Cnot(*wires, layer), pair, layer)
    return Circuit(n, draw(st.lists(st.one_of(rotation, cnot), max_size=8)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hand_built_circuits())
def test_a_circuits_bytes_depend_only_on_its_value(circuit):
    restored = from_json(to_json(circuit))
    assert restored == circuit
    assert to_json(restored) == to_json(circuit) and export_qasm(restored) == export_qasm(circuit)
    for line in export_qasm(circuit).splitlines()[3:]:
        if line.startswith("r"):  # rx(theta) q[i];
            angle = line[3:line.index(")")]
            assert angle == repr(float(angle))
    state = pickle.dumps(circuit)  # after the QASM export has read the gates
    assert b"Rotation" not in state and b"Cnot" not in state
    unpickled = pickle.loads(state)
    assert unpickled == circuit and not unpickled.encoding.flags.writeable and "gates" not in vars(unpickled)


def test_the_encoding_is_read_only():
    circuit = generate_uniform(GenerationParams(4, 1.0, 0.5, 0))
    for c in (circuit, remove_gates(circuit, [0]), Circuit(4, circuit.gates), pickle.loads(pickle.dumps(circuit))):
        with pytest.raises(ValueError, match="read-only"):
            c.encoding["theta"][0] = 1.0
    assert pickle.loads(pickle.dumps(circuit)) == circuit


@pytest.mark.parametrize("layer", [1.5, True, "1", None, -2**63 - 1, 2**63])
def test_a_layer_must_be_a_64_bit_integer(layer):
    with pytest.raises(InvalidParameterError, match=f"gate 1: layer must be a 64-bit integer, got {layer!r}"):
        Circuit(2, (Cnot(0, 1), Rotation(Axis.X, 0, 1.0, "layered", layer)))
    for edge in (-2**63, 2**63 - 1, np.uint64(7)):
        assert Circuit(2, (Cnot(0, 1, edge),)).encoding["layer"][0] == edge


def test_a_json_layer_must_fit_64_bits():
    doc = {"n_qubits": 2, "params": None, "gates": [{"type": "cnot", "control": 0, "target": 1, "layer": 2**63}]}
    with pytest.raises(InvalidParameterError, match=f"gate 0: layer must be a 64-bit integer, got {2**63}"):
        from_json(json.dumps(doc))
