import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import cnot_block_losses, dense_reference_state, random_circuit, reference_run
from qbrittle.circuits import Axis, Circuit, Cnot, GenerationParams, Rotation, generate_uniform
from qbrittle.errors import InvalidParameterError, ResourceLimitError
from qbrittle.simulator import DEFAULT_MAX_QUBITS, StateVector, apply_gate, fidelity, qubit_cap, run, zero_state


def test_zero_state_small():
    assert np.array_equal(zero_state(1).amplitudes, [1, 0])
    assert np.array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])
    for n in (1, 3, 6):
        amplitudes = zero_state(n).amplitudes
        assert np.vdot(amplitudes, amplitudes).real == pytest.approx(1.0, abs=1e-15)


def test_zero_state_respects_cap(monkeypatch):
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", "4")
    with pytest.raises(ResourceLimitError):
        zero_state(5)
    assert zero_state(4).n_qubits == 4
    with pytest.raises(InvalidParameterError):
        zero_state(0)


def test_qubit_cap_reads_the_environment(monkeypatch):
    monkeypatch.delenv("QBRITTLE_MAX_QUBITS", raising=False)
    assert qubit_cap() == DEFAULT_MAX_QUBITS == 24
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", "x")
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        zero_state(2)


def test_rz_changes_phase_only():
    rng = np.random.default_rng(0)
    for _ in range(10):
        basis = int(rng.integers(8))
        state = zero_state(3)
        state.amplitudes[0] = 0
        state.amplitudes[basis] = 1
        before = np.abs(state.amplitudes.copy())
        apply_gate(state, Rotation(Axis.Z, int(rng.integers(3)), float(rng.uniform(-3, 3))))
        assert np.allclose(np.abs(state.amplitudes), before, atol=1e-15)


def test_rx_pi_maps_zero_to_minus_i_one():
    state = apply_gate(zero_state(1), Rotation(Axis.X, 0, math.pi))
    assert state.amplitudes[0] == pytest.approx(0, abs=1e-15)
    assert state.amplitudes[1] == pytest.approx(-1j, abs=1e-15)


def test_cnot_is_little_endian():
    # basis index 1 means q0=1, q1=0; control q0 flips target q1 -> index 3
    state = zero_state(2)
    state.amplitudes[0] = 0
    state.amplitudes[1] = 1
    apply_gate(state, Cnot(0, 1))
    assert state.amplitudes[3] == 1 and state.amplitudes[1] == 0
    # control 0 leaves the state alone
    state = zero_state(2)
    apply_gate(state, Cnot(0, 1))
    assert state.amplitudes[0] == 1


def test_run_examples():
    assert np.array_equal(run(Circuit(2, ())).amplitudes, [1, 0, 0, 0])
    state = run(Circuit(1, (Rotation(Axis.Y, 0, math.pi / 2),)))
    assert state.amplitudes[0] == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    assert state.amplitudes[1] == pytest.approx(math.sin(math.pi / 4), abs=1e-15)


def test_gate_validation():
    state = zero_state(2)
    with pytest.raises(InvalidParameterError):
        apply_gate(state, Rotation(Axis.X, 2, 1.0))
    with pytest.raises(InvalidParameterError):
        apply_gate(state, Cnot(0, 2))


def test_norm_preserved_gate_by_gate():
    circuit = generate_uniform(GenerationParams(6, 1.5, 0.3, seed=12))
    state = zero_state(6)
    for gate in circuit.gates:
        apply_gate(state, gate)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12


def test_full_14q_run_stays_normalized():
    circuit = generate_uniform(GenerationParams(14, 3.0, 0.2, seed=0))
    amplitudes = run(circuit).amplitudes
    assert abs(np.vdot(amplitudes, amplitudes).real - 1.0) < 1e-10


def test_rotation_inverse_restores_state():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        state = run(random_circuit(rng, n, 8))
        reference = state.amplitudes.copy()
        axis = (Axis.X, Axis.Y, Axis.Z)[rng.integers(3)]
        qubit = int(rng.integers(n))
        theta = float(rng.uniform(-math.pi, math.pi))
        apply_gate(state, Rotation(axis, qubit, theta))
        apply_gate(state, Rotation(axis, qubit, -theta))
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12


def test_matches_dense_matrix_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        circuit = random_circuit(rng, n, int(rng.integers(0, 31)))
        produced = run(circuit).amplitudes
        reference = dense_reference_state(circuit)
        assert np.max(np.abs(produced - reference)) < 1e-10


def test_fidelity_examples():
    psi = run(Circuit(2, (Rotation(Axis.Y, 0, 0.7), Cnot(0, 1))))
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-15)
    zero, one = zero_state(1), zero_state(1)
    one.amplitudes[:] = [0, 1]
    assert fidelity(zero, one) == 0.0
    phase_only = run(Circuit(1, (Rotation(Axis.Z, 0, 0.5),)))
    assert fidelity(phase_only, zero_state(1)) == pytest.approx(1.0, abs=1e-15)
    assert type(fidelity(psi, psi)) is float
    assert type(fidelity(zero, one)) is float


def test_fidelity_symmetry_and_global_phase():
    rng = np.random.default_rng(3)
    a = run(random_circuit(rng, 3, 12))
    b = run(random_circuit(rng, 3, 12))
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-15)
    rotated = StateVector(3, a.amplitudes * np.exp(0.321j))
    assert fidelity(rotated, b) == pytest.approx(fidelity(a, b), abs=1e-12)
    assert 0.0 <= fidelity(a, b) <= 1.0


def test_fidelity_rejects_mismatched_sizes():
    with pytest.raises(InvalidParameterError):
        fidelity(zero_state(2), zero_state(3))


def test_run_respects_cap(monkeypatch):
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.2, seed=0))
    monkeypatch.setenv("QBRITTLE_MAX_QUBITS", "5")
    with pytest.raises(ResourceLimitError):
        run(circuit)


def test_run_losses_must_match_gate_count():
    circuit = Circuit(1, (Rotation(Axis.X, 0, 0.3), Rotation(Axis.Y, 0, 0.4)))
    with pytest.raises(InvalidParameterError):
        run(circuit, losses=np.empty(3))


def _pairings(n: int) -> list[list[tuple[int, int]]]:
    """CNOT layers with controls below and above their targets, the ring
    wraparound, an unpaired qubit where n is odd, and a one-pair block."""
    return [
        [(2 * k, 2 * k + 1) for k in range(n // 2)],
        [(2 * k + 1, 2 * k) for k in range(n // 2)],
        [(n - 1, 0)] + [(2 * k + 2, 2 * k + 1) for k in range((n - 2) // 2)],
        [(2 * k + 1, (2 * k + 2) % n) for k in range(n // 2)],
        [(3, n - 2)],
        [(0, n - 1), (n - 2, 1)],
    ]


def _layered_circuit(n: int, seed: int) -> Circuit:
    """A rotation layer on every qubit before each CNOT layer of `_pairings`."""
    rng = np.random.default_rng(seed)
    gates = []
    for pairs in _pairings(n) * 2:
        gates += [Rotation((Axis.X, Axis.Y, Axis.Z)[rng.integers(3)], q, float(rng.uniform(-math.pi, math.pi)))
                  for q in range(n)]
        gates += [Cnot(control, target) for control, target in pairs]
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("n", [10, 11, 12, 14])  # 14: the per-pair path for large states
def test_cnot_losses_match_per_pair_gaps(n):
    circuit = _layered_circuit(n, seed=n)
    losses = np.empty(len(circuit.gates))
    amplitudes = run(circuit, losses).amplitudes
    expected = cnot_block_losses(circuit)
    cnots = sorted(expected)
    assert len(cnots) == sum(len(pairs) for pairs in _pairings(n)) * 2
    assert np.array_equal(losses[cnots], [expected[i] for i in cnots])
    assert losses[cnots].max() > 0.0
    reference = np.empty(len(circuit.gates))
    assert np.max(np.abs(amplitudes - reference_run(circuit, reference))) < 1e-12
    assert np.max(np.abs(losses - reference)) < 1e-12


def test_generated_cnot_losses_match_per_pair_gaps():
    circuit = generate_uniform(GenerationParams(10, 1.0, 0.28, seed=5))
    losses = np.empty(len(circuit.gates))
    run(circuit, losses)
    expected = cnot_block_losses(circuit)
    assert np.array_equal(losses[sorted(expected)], [expected[i] for i in sorted(expected)])


def test_warm_16q_run_peak_memory():
    # 4.32 states was the peak of the simulator before its CNOT gaps were
    # read through a cached gather; the state-sized transients must not grow.
    circuit = generate_uniform(GenerationParams(16, 1.0, 0.28, seed=1))
    losses = np.empty(len(circuit.gates))
    run(circuit, losses)  # fills the caches, which are not a run's own cost
    tracemalloc.start()
    try:
        run(circuit, losses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.32 * (16 << 16)


def test_concurrent_runs_match_serial_runs():
    circuits = [generate_uniform(GenerationParams(n, 1.0, 0.28, seed=n)) for n in (10, 14, 10, 14)]
    serial = []
    for circuit in circuits:
        losses = np.empty(len(circuit.gates))
        serial.append((run(circuit, losses).amplitudes, losses))
    results = [[] for _ in circuits]

    def work(k):
        for _ in range(3):
            losses = np.empty(len(circuits[k].gates))
            results[k].append((run(circuits[k], losses).amplitudes, losses))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(circuits))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (amplitudes, losses), runs in zip(serial, results):
        assert len(runs) == 3
        for got_amplitudes, got_losses in runs:
            assert np.array_equal(got_amplitudes, amplitudes)
            assert np.array_equal(got_losses, losses)
