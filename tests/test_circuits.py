import json
import math
import pickle
import re

import numpy as np
import pytest

from qbrittle.circuits import (
    APPENDED_ANGLE_RANGE,
    Axis,
    Circuit,
    Cnot,
    GenerationParams,
    Rotation,
    appended_count,
    circuit_depth,
    expected_gate_count,
    export_qasm,
    floor_product,
    from_json,
    generate_uniform,
    layer_count,
    remove_gates,
    to_json,
)
from qbrittle.codec import decode
from qbrittle.errors import CircuitFormatError, InvalidParameterError, ResourceLimitError
from qbrittle.protocol import EnsembleConfig, SweepConfig
from qbrittle.pruning import removal_quota
from qbrittle.simulator import apply_gate, run, zero_state
from qbrittle.stats import angle_stats, classify, student_t_two_sided_p

REFERENCE_COUNTS = [
    # (n, alpha, rho) -> gate counts of the three reference ensemble families
    (10, 2.3, 0.28, 342),
    (12, 2.5, 0.25, 537),
    (14, 3.0, 0.2, 877),
]


@pytest.mark.parametrize("n,alpha,rho,count", REFERENCE_COUNTS)
def test_reference_gate_counts(n, alpha, rho, count):
    circuit = generate_uniform(GenerationParams(n, alpha, rho, seed=7))
    assert len(circuit.gates) == count
    assert expected_gate_count(n, alpha, rho) == count


@pytest.mark.parametrize("n,alpha,rho,_", REFERENCE_COUNTS)
def test_reference_depth_bands(n, alpha, rho, _):
    layers = layer_count(n, alpha)
    low = 2 * layers - 1
    high = low + appended_count(n, rho)
    for seed in range(5):
        depth = circuit_depth(generate_uniform(GenerationParams(n, alpha, rho, seed)))
        assert low <= depth <= high


def test_gate_count_formula_over_grid():
    for n in (4, 6, 8, 10):
        for alpha in (0.25, 1.0, 1.7, 2.3):
            for rho in (0.0, 0.28, 0.5, 1.0):
                circuit = generate_uniform(GenerationParams(n, alpha, rho, seed=11))
                layers = layer_count(n, alpha)
                assert layers >= 1
                expected = layers * n + (layers - 1) * (n // 2) + appended_count(n, rho)
                assert len(circuit.gates) == expected


def test_single_layer_circuit_has_no_entangler():
    circuit = generate_uniform(GenerationParams(4, 0.25, 0.0, seed=1))
    assert len(circuit.gates) == 4
    assert all(isinstance(g, Rotation) for g in circuit.gates)
    assert circuit_depth(circuit) == 1


def test_floor_product_guards_representation_error():
    assert floor_product(0.29, 100) == 29
    assert floor_product(10, 2.3) == 23
    assert floor_product(0.11, 342) == 37
    assert floor_product(0.1, 537) == 53


def test_small_angle_fraction_matches_redundancy_rate():
    n, alpha, rho = 10, 2.3, 0.28
    layers = layer_count(n, alpha)
    fractions = []
    for seed in range(30):
        circuit = generate_uniform(GenerationParams(n, alpha, rho, seed))
        layered = [g for g in circuit.gates if isinstance(g, Rotation) and g.provenance == "layered"]
        assert len(layered) == layers * n
        fractions.append(sum(g.theta <= 0.05 for g in layered) / len(layered))
    tolerance = 3 * math.sqrt(rho * (1 - rho) / (layers * n))
    assert abs(float(np.mean(fractions)) - rho) <= tolerance


def test_same_seed_is_bit_exact():
    params = GenerationParams(8, 1.5, 0.3, seed=99)
    assert generate_uniform(params) == generate_uniform(params)


def test_distinct_seeds_share_the_skeleton():
    a = generate_uniform(GenerationParams(8, 1.5, 0.3, seed=1))
    b = generate_uniform(GenerationParams(8, 1.5, 0.3, seed=2))
    assert len(a.gates) == len(b.gates)
    assert a != b
    cnots_a = [(i, g) for i, g in enumerate(a.gates) if isinstance(g, Cnot)]
    cnots_b = [(i, g) for i, g in enumerate(b.gates) if isinstance(g, Cnot)]
    assert cnots_a == cnots_b  # positions, controls and targets all identical


def test_entangler_alternates_and_wraps():
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.0, seed=5))
    by_layer = {}
    for g in circuit.gates:
        if isinstance(g, Cnot):
            by_layer.setdefault(g.layer, []).append((g.control, g.target))
    assert by_layer[0] == [(0, 1), (2, 3), (4, 5)]
    assert by_layer[1] == [(1, 2), (3, 4), (5, 0)]  # wraparound pair present
    # last layer emits no entangler
    assert layer_count(6, 1.0) - 1 not in by_layer or max(by_layer) == layer_count(6, 1.0) - 2


def test_generated_angles_lie_in_documented_ranges():
    circuit = generate_uniform(GenerationParams(10, 1.2, 0.4, seed=3))
    lo, hi = APPENDED_ANGLE_RANGE
    for g in circuit.gates:
        if not isinstance(g, Rotation):
            continue
        assert 0.0 < g.theta <= math.pi / 2
        if g.provenance == "appended":
            assert g.axis is Axis.Z
            assert lo <= g.theta <= hi
        else:
            assert (0.001 <= g.theta <= 0.05) or (math.pi / 6 <= g.theta <= math.pi / 2)


@pytest.mark.parametrize(
    "params",
    [
        dict(n=11, alpha=2.0, rho=0.2, seed=0),   # odd
        dict(n=2, alpha=2.0, rho=0.2, seed=0),    # too small
        dict(n=10, alpha=-1.0, rho=0.2, seed=0),  # bad alpha
        dict(n=10, alpha=2.0, rho=1.5, seed=0),   # bad rho
        dict(n=10, alpha=2.0, rho=0.2, seed=-4),  # negative seed
    ],
)
def test_invalid_generation_params(params):
    with pytest.raises(InvalidParameterError):
        GenerationParams(**params)


def test_alpha_below_one_layer_is_rejected():
    with pytest.raises(InvalidParameterError):
        generate_uniform(GenerationParams(4, 0.2, 0.0, seed=0))  # floor(0.8) = 0


def test_depth_trivial_cases():
    assert circuit_depth(Circuit(2, ())) == 0
    assert circuit_depth(Circuit(2, (Rotation(Axis.X, 0, 1.0),))) == 1
    # parallel rotations share a level; the CNOT serializes after both
    circuit = Circuit(2, (Rotation(Axis.X, 0, 1.0), Rotation(Axis.Y, 1, 1.0), Cnot(0, 1)))
    assert circuit_depth(circuit) == 2
    stacked = Circuit(2, (Rotation(Axis.X, 0, 1.0), Rotation(Axis.X, 0, 1.0), Cnot(0, 1)))
    assert circuit_depth(stacked) == 3


def test_remove_gates_basics():
    gates = (Rotation(Axis.X, 0, 0.5), Cnot(0, 1), Rotation(Axis.Z, 1, 0.7))
    circuit = Circuit(2, gates)
    assert remove_gates(circuit, set()) == circuit
    emptied = remove_gates(circuit, {0, 1, 2})
    assert emptied.gates == () and emptied.n_qubits == 2
    dropped = remove_gates(circuit, {0})
    assert dropped.gates == gates[1:]
    assert circuit.gates == gates  # original untouched
    with pytest.raises(InvalidParameterError):
        remove_gates(circuit, {3})
    assert remove_gates(circuit, [np.int64(1)]).gates == (gates[0], gates[2])
    for index in (1.0, True, -1):  # a float or a bool no longer stands for gate 1
        with pytest.raises(InvalidParameterError, match="must be an integer in"):
            remove_gates(circuit, [index])


def test_json_roundtrip_identity():
    for seed in (0, 1):
        circuit = generate_uniform(GenerationParams(6, 1.5, 0.3, seed))
        assert from_json(to_json(circuit)) == circuit
    bare = Circuit(3, (Rotation(Axis.Y, 2, 0.1234567891234567, "appended", 4), Cnot(2, 0, 1)))
    assert from_json(to_json(bare)) == bare


def test_json_parse_errors_name_the_field():
    with pytest.raises(CircuitFormatError, match="n_qubits"):
        from_json(json.dumps({"params": None, "gates": []}))
    with pytest.raises(CircuitFormatError, match="axis"):
        from_json(json.dumps({"n_qubits": 2, "params": None,
                              "gates": [{"type": "rot", "axis": "q", "qubit": 0,
                                         "theta": 1.0, "provenance": "layered", "layer": 0}]}))
    with pytest.raises(CircuitFormatError, match="theta"):
        from_json(json.dumps({"n_qubits": 2, "params": None,
                              "gates": [{"type": "rot", "axis": "x", "qubit": 0,
                                         "provenance": "layered", "layer": 0}]}))
    with pytest.raises(CircuitFormatError, match="type"):
        from_json(json.dumps({"n_qubits": 2, "params": None, "gates": [{"type": "swap"}]}))
    with pytest.raises(CircuitFormatError, match=r"gates\[0\]\.qubit: must be an integer, got True"):
        from_json(json.dumps({"n_qubits": 2, "params": None,
                              "gates": [{"type": "rot", "axis": "x", "qubit": True,
                                         "theta": 1.0, "provenance": "layered", "layer": 0}]}))
    with pytest.raises(CircuitFormatError):
        from_json("{not json")


def test_out_of_range_qubit_is_a_validation_error():
    doc = {"n_qubits": 2, "params": None,
           "gates": [{"type": "rot", "axis": "x", "qubit": 2, "theta": 1.0,
                      "provenance": "layered", "layer": 0}]}
    with pytest.raises(InvalidParameterError):
        from_json(json.dumps(doc))
    with pytest.raises(InvalidParameterError):
        Circuit(2, (Cnot(1, 1),))


BAD_GATES = {
    "axis given as its string": (Rotation("x", 0, 1.0), "axis must be an Axis member"),
    "unknown axis": (Rotation("w", 0, 1.0), "axis must be an Axis member"),
    "float qubit": (Rotation(Axis.X, 1.0, 1.0), "qubit 1.0 must be an integer"),
    "bool qubit": (Rotation(Axis.X, True, 1.0), "qubit True must be an integer"),
    "float CNOT control": (Cnot(0.0, 1), "qubit 0.0 must be an integer"),
    "bool CNOT target": (Cnot(0, True), "qubit True must be an integer"),
    "string angle": (Rotation(Axis.X, 0, "1.0"), "angle must be a finite real number"),
    "bool angle": (Rotation(Axis.X, 0, True), "angle must be a finite real number"),
    "infinite angle": (Rotation(Axis.X, 0, math.inf), "angle must be a finite real number"),
    "complex angle": (Rotation(Axis.X, 0, 1j), "angle must be a finite real number"),
    "unknown provenance": (Rotation(Axis.X, 0, 1.0, "pruned"), "unknown provenance 'pruned'"),
    "unsupported gate object": ("rx q0", "unsupported gate object 'rx q0'"),
}


@pytest.mark.parametrize("via", ["Circuit", "apply_gate"])
@pytest.mark.parametrize("gate, message", BAD_GATES.values(), ids=BAD_GATES.keys())
def test_programmatic_gates_are_checked_like_json_ones(via, gate, message):
    with pytest.raises(InvalidParameterError, match=f"gate 0: {message}"):
        Circuit(2, (gate,)) if via == "Circuit" else apply_gate(zero_state(2), gate)


def test_equal_circuits_hash_equal():
    generated = generate_uniform(GenerationParams(4, 1.0, 0.5, 0))
    built = Circuit(2, (Rotation(Axis.X, 0, 0.5, "appended", 3), Cnot(0, 1)))
    for circuit in (generated, built):
        copies = (from_json(to_json(circuit)), pickle.loads(pickle.dumps(circuit)),
                  Circuit(circuit.n_qubits, circuit.gates, circuit.params))
        assert all(copy == circuit and hash(copy) == hash(circuit) for copy in copies)
        assert len({circuit, *copies}) == 1


def test_numpy_scalar_gate_values_act_as_python_numbers():
    gates = (Rotation(Axis.X, np.int64(1), np.float32(0.5)), Cnot(np.int32(1), np.uint8(0)),
             Rotation(Axis.Y, np.uint8(0), np.float32(0.1)))
    plain = (Rotation(Axis.X, 1, float(np.float32(0.5))), Cnot(1, 0), Rotation(Axis.Y, 0, float(np.float32(0.1))))
    assert np.array_equal(run(Circuit(2, gates)).amplitudes, run(Circuit(2, plain)).amplitudes)
    assert from_json(to_json(Circuit(2, gates))) == Circuit(2, plain)
    assert angle_stats(Circuit(2, gates)) == angle_stats(Circuit(2, plain))


def test_qasm_export():
    circuit = Circuit(2, (Rotation(Axis.X, 0, 1.5), Cnot(0, 1)))
    text = export_qasm(circuit)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert 'include "qelib1.inc";' in lines
    assert "qreg q[2];" in lines
    assert "rx(1.5) q[0];" in lines
    assert "cx q[0],q[1];" in lines
    assert lines.index("rx(1.5) q[0];") < lines.index("cx q[0],q[1];")


def test_qasm_empty_circuit_is_header_only():
    text = export_qasm(Circuit(3, ()))
    assert text.splitlines() == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]


def test_qasm_roundtrips_full_precision_angles():
    theta = 0.1234567890123456789  # collapses to the nearest double
    text = export_qasm(Circuit(1, (Rotation(Axis.Z, 0, theta),)))
    emitted = text.splitlines()[3]
    value = float(emitted[emitted.index("(") + 1:emitted.index(")")])
    assert value == theta


def test_zero_layers_is_rejected_by_the_gate_count_too():
    message = "alpha=0.1 yields zero layers for n=4"
    with pytest.raises(InvalidParameterError, match=message):
        expected_gate_count(4, 0.1, 0.2)  # once returned -2
    with pytest.raises(InvalidParameterError, match=message):
        generate_uniform(GenerationParams(4, 0.1, 0.2, seed=0))


def test_an_integer_angle_beyond_a_float_is_rejected():
    with pytest.raises(InvalidParameterError, match="gate 0: angle must be a finite real number"):
        Circuit(2, (Rotation(Axis.X, 0, 2**1100),))
    with pytest.raises(InvalidParameterError, match="gate 0: angle must be a finite real number"):
        apply_gate(zero_state(2), Rotation(Axis.X, 0, -2**1100))


def _rotation_doc(theta, params=None):
    return {"n_qubits": 4, "params": params,
            "gates": [{"type": "rot", "axis": "x", "qubit": 0, "theta": theta, "provenance": "layered", "layer": 0}]}


@pytest.mark.parametrize("doc, where", [
    (_rotation_doc(10**400), "circuit.gates[0].theta"),
    (_rotation_doc(0.5, {"n": 4, "alpha": -10**400, "rho": 0.0, "seed": 0}), "circuit.params.alpha"),
])
def test_a_json_number_beyond_a_float_is_a_format_error_at_its_path(doc, where):
    with pytest.raises(CircuitFormatError, match=re.escape(f"{where}: must be a number within a float's range, got ")):
        from_json(json.dumps(doc))


def test_a_json_integer_too_long_to_parse_is_a_format_error():
    with pytest.raises(CircuitFormatError, match="document is not valid JSON: Exceeds the limit"):
        from_json(json.dumps(_rotation_doc(0)).replace('"theta": 0', '"theta": ' + "7" * 5000))


@pytest.mark.parametrize("build", [
    lambda: Circuit(True, ()),
    lambda: Circuit(2, (), params=5),
    lambda: Circuit(4, (), params={"n": 4, "alpha": 1.0, "rho": 0.0, "seed": 0}),
    lambda: zero_state(True),
], ids=["bool n_qubits", "int params", "dict params", "bool zero_state"])
def test_the_constructors_reject_what_the_json_cannot_hold(build):
    message = "must be a positive integer, got|params must be a GenerationParams or None, got"
    with pytest.raises(InvalidParameterError, match=message):
        build()


def test_a_numpy_integer_width_is_an_int():
    circuit, state = Circuit(np.int64(3), (Rotation(Axis.X, 2, 0.5),)), zero_state(np.uint8(3))
    assert type(circuit.n_qubits) is int and type(state.n_qubits) is int
    assert circuit == Circuit(3, (Rotation(Axis.X, 2, 0.5),)) and len(state.amplitudes) == 8
    assert from_json(to_json(circuit)) == circuit


@pytest.mark.parametrize("gate", [Rotation(Axis.X, 2**63, 0.1), Cnot(0, 2**63)], ids=["rotation", "cnot"])
def test_a_wire_beyond_int64_is_an_input_error_on_any_width(gate):
    message = f"gate 0: qubit {2**63} must be an integer in [0, {2**63})"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        Circuit(2**64, (gate,))
    wide = Circuit(2**64, (Rotation(Axis.X, 2**63 - 1, 0.1),))
    assert wide.gates[0].qubit == 2**63 - 1
    with pytest.raises(ResourceLimitError):
        run(wide)


def test_depth_costs_per_gate_not_per_qubit():
    assert circuit_depth(Circuit(10**12, (Rotation(Axis.X, 0, 0.1),))) == 1
    assert circuit_depth(Circuit(10**12, (Rotation(Axis.X, 0, 0.1), Cnot(10**11, 0), Rotation(Axis.Y, 5, 0.2)))) == 2


HUGE = 10**5000  # beyond the default 4,300-digit limit of int-to-str conversion


@pytest.mark.parametrize("call, error", [
    (lambda: Circuit(2, (Rotation(Axis.X, 0, HUGE),)), InvalidParameterError),
    (lambda: Circuit(2, (Rotation(Axis.X, HUGE, 0.5),)), InvalidParameterError),
    (lambda: Circuit(2, (Rotation(Axis.X, 0, 0.5, layer=HUGE),)), InvalidParameterError),
    (lambda: Circuit(-HUGE, ()), InvalidParameterError),
    (lambda: remove_gates(Circuit(2, ()), [HUGE]), InvalidParameterError),
    (lambda: GenerationParams(4, 1.0, 0.1, HUGE), InvalidParameterError),
    (lambda: GenerationParams(HUGE + 1, 1.0, 0.1, 0), InvalidParameterError),
    (lambda: GenerationParams(4, 1.0, HUGE, 0), InvalidParameterError),
    (lambda: layer_count(HUGE, 1), InvalidParameterError),
    (lambda: layer_count(HUGE, 1.0), InvalidParameterError),
    (lambda: layer_count(-HUGE, 1.0), InvalidParameterError),
    (lambda: expected_gate_count(4, 1.0, HUGE), InvalidParameterError),
    (lambda: run(Circuit(HUGE, ())), ResourceLimitError),
    (lambda: zero_state(-HUGE), InvalidParameterError),
    (lambda: EnsembleConfig(HUGE, 1.0, 0.1, 0.2), InvalidParameterError),
    (lambda: EnsembleConfig(4, 1.0, 0.1, 0.5, circuit_count=-HUGE), InvalidParameterError),
    (lambda: SweepConfig(4, 1.0, 0.1, kappa_start=HUGE), InvalidParameterError),
    (lambda: removal_quota(HUGE, 10), InvalidParameterError),
    (lambda: classify(0.5, HUGE), InvalidParameterError),
    (lambda: student_t_two_sided_p(1.0, -HUGE), InvalidParameterError),
    (lambda: decode(GenerationParams, {"n": 4, "alpha": HUGE, "rho": 0.0, "seed": 0}, "p"), CircuitFormatError),
], ids=["angle", "qubit", "layer", "n_qubits", "gate index", "seed", "odd n", "rho", "layer_count n",
        "layer_count n float alpha", "layer_count negative n", "expected_gate_count rho", "run", "zero_state",
        "EnsembleConfig n", "circuit_count", "kappa_start", "kappa", "classify threshold",
        "degrees of freedom", "decoded float"])
def test_a_message_gives_the_size_of_an_integer_too_long_to_print(call, error):
    with pytest.raises(error, match=r"(a negative|an) integer of 1661\d bits"):
        call()
