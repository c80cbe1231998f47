"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's fast paths: states are built
by multiplying explicit 2^n x 2^n gate matrices or by applying one gate at a
time on stride views, leave-one-out importance re-simulates each deletion
from scratch, and circuits are generated with one Generator call per draw.
"""
import math

import numpy as np

from qbrittle.circuits import (
    APPENDED_ANGLE_RANGE,
    LARGE_ANGLE_RANGE,
    SMALL_ANGLE_RANGE,
    Axis,
    Circuit,
    Cnot,
    GenerationParams,
    Rotation,
    appended_count,
    layer_count,
    remove_gates,
)
from qbrittle.simulator import fidelity, run


def rotation_matrix(axis: Axis, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if axis is Axis.X:
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis is Axis.Y:
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def dense_gate_matrix(n: int, gate) -> np.ndarray:
    """Full 2^n unitary of one gate, little-endian (qubit 0 = LSB)."""
    dim = 2 ** n
    U = np.zeros((dim, dim), dtype=complex)
    if isinstance(gate, Rotation):
        m = rotation_matrix(gate.axis, gate.theta)
        for col in range(dim):
            bit = (col >> gate.qubit) & 1
            for new_bit in (0, 1):
                row = (col & ~(1 << gate.qubit)) | (new_bit << gate.qubit)
                U[row, col] += m[new_bit, bit]
    else:
        for col in range(dim):
            row = col ^ (1 << gate.target) if (col >> gate.control) & 1 else col
            U[row, col] = 1.0
    return U


def dense_reference_state(circuit: Circuit) -> np.ndarray:
    """|0...0> pushed through the explicit matrix product of all gates."""
    state = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        state = dense_gate_matrix(circuit.n_qubits, gate) @ state
    return state


def _halves(amps: np.ndarray, n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes with `qubit` clear and set, as views paired element-wise."""
    view = amps.reshape(1 << (n - qubit - 1), 2, 1 << qubit)
    return view[:, 0, :], view[:, 1, :]


def _cnot_blocks(amps: np.ndarray, n: int, gate: Cnot) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the control=0 block and of the control=1 block with target clear and set."""
    hi, lo = max(gate.control, gate.target), min(gate.control, gate.target)
    view = amps.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if gate.control == hi:
        return view[:, 0], view[:, 1, :, 0], view[:, 1, :, 1]
    return view[:, :, :, 0], view[:, 0, :, 1], view[:, 1, :, 1]


def _target_halves(a: np.ndarray, n: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries of `a` with the control set and the target clear, and set."""
    hi, lo = max(control, target), min(control, target)
    view = a.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return (view[:, 1, :, 0], view[:, 1, :, 1]) if control == hi else (view[:, 0, :, 1], view[:, 1, :, 1])


def cnot_gaps(amps: np.ndarray, n: int, pairs) -> list[float]:
    """|t0 - t1|^2 of each CNOT, one subtract and one sum per pair: the control=1
    amplitudes with the target clear minus set, summed as squares of the float
    view in the order of the views above."""
    diff = np.empty(1 << (n - 2), dtype=complex)
    flat = diff.view(np.float64)
    gaps = []
    for control, target in pairs:
        t0, t1 = _target_halves(amps, n, control, target)
        np.subtract(t0, t1, out=diff.reshape(t0.shape))
        gaps.append(np.einsum("i,i->", flat, flat))
    return gaps


def cnot_block_losses(circuit: Circuit) -> dict[int, float]:
    """Each CNOT's loss g * (2 - g), g = min(|t0 - t1|^2, 2), with the gaps of
    a block of consecutive CNOTs on disjoint qubits read pair by pair by
    `cnot_gaps` from `run`'s own state at the block's start (the run of the
    gates before it, which splits into the same blocks). Keyed by gate index."""
    n, gates = circuit.n_qubits, circuit.gates
    losses, block, used = {}, [], 0

    def flush():
        if block:
            state = run(Circuit(n, gates[:block[0]])).amplitudes
            gaps = cnot_gaps(state, n, [(gates[i].control, gates[i].target) for i in block])
            for i, gap in zip(block, gaps):
                gap = min(gap, 2.0)
                losses[i] = gap * (2.0 - gap)

    for i, gate in enumerate(gates):
        if isinstance(gate, Rotation):
            flush()
            block, used = [], 0
            continue
        mask = (1 << gate.control) | (1 << gate.target)
        if used & mask:
            flush()
            block, used = [], 0
        block.append(i)
        used |= mask
    flush()
    return losses


def reference_run(circuit: Circuit, losses: np.ndarray | None = None) -> np.ndarray:
    """The final amplitudes, one gate at a time on stride views of the state.

    If `losses` is given, losses[i] receives gate i's deletion loss from the
    state just before it: sin^2(theta/2) * (1 - <A>^2) for a rotation and
    1 - <CX>^2 for a CNOT, each expectation a vdot of two half-state views.
    """
    n = circuit.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    for i, gate in enumerate(circuit.gates):
        if isinstance(gate, Cnot):
            c0, t0, t1 = _cnot_blocks(amps, n, gate)
            if losses is not None:
                expectation = np.vdot(c0, c0).real + 2.0 * np.vdot(t0, t1).real
                losses[i] = 1.0 - min(expectation * expectation, 1.0)
            t0[...], t1[...] = t1.copy(), t0.copy()
            continue
        a, b = _halves(amps, n, gate.qubit)
        if losses is not None:
            if gate.axis is Axis.Z:
                expectation = np.vdot(a, a).real - np.vdot(b, b).real
            else:
                overlap = np.vdot(a, b)
                expectation = 2.0 * (overlap.real if gate.axis is Axis.X else overlap.imag)
            losses[i] = math.sin(0.5 * gate.theta) ** 2 * (1.0 - min(expectation * expectation, 1.0))
        m = rotation_matrix(gate.axis, gate.theta)
        a[...], b[...] = m[0, 0] * a + m[0, 1] * b, m[1, 0] * a + m[1, 1] * b
    return amps


def reference_generate(params: GenerationParams, rng: np.random.Generator | None = None) -> Circuit:
    """`generate_uniform` one Generator call at a time: per layered gate its
    axis, angle branch and angle; per appended gate its qubit and angle.
    `rng` defaults to default_rng(params.seed)."""
    n = params.n
    layers = layer_count(n, params.alpha)
    rng = np.random.default_rng(params.seed) if rng is None else rng
    axes = (Axis.X, Axis.Y, Axis.Z)
    gates = []
    for layer in range(layers):
        for qubit in range(n):
            axis = axes[rng.integers(3)]
            small = rng.random() < params.rho
            low, high = SMALL_ANGLE_RANGE if small else LARGE_ANGLE_RANGE
            gates.append(Rotation(axis, qubit, float(rng.uniform(low, high)), "layered", layer))
        if layer != layers - 1:  # even layers pair (2k, 2k+1), odd ones (2k+1, 2k+2 mod n)
            gates.extend(Cnot(2 * k + layer % 2, (2 * k + 1 + layer % 2) % n, layer) for k in range(n // 2))
    low, high = APPENDED_ANGLE_RANGE
    for _ in range(appended_count(n, params.rho)):
        qubit = int(rng.integers(n))  # with replacement
        gates.append(Rotation(Axis.Z, qubit, float(rng.uniform(low, high)), "appended", layers))
    return Circuit(n, tuple(gates), params)


def reference_remove_gates(circuit: Circuit, indices) -> Circuit:
    """`remove_gates` as a filter over the gate objects, checked on construction."""
    drop = set(indices)
    kept = tuple(gate for i, gate in enumerate(circuit.gates) if i not in drop)
    return Circuit(circuit.n_qubits, kept, circuit.params)


def random_circuit(rng: np.random.Generator, n: int, n_gates: int,
                   theta_lo: float = -2 * math.pi, theta_hi: float = 2 * math.pi) -> Circuit:
    axes = (Axis.X, Axis.Y, Axis.Z)
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.3:
            control, target = rng.choice(n, size=2, replace=False)
            gates.append(Cnot(int(control), int(target)))
        else:
            gates.append(Rotation(axes[rng.integers(3)], int(rng.integers(n)),
                                  float(rng.uniform(theta_lo, theta_hi))))
    return Circuit(n, tuple(gates))


def naive_importances(circuit: Circuit) -> np.ndarray:
    """Leave-one-out importance by re-simulating every single-gate deletion."""
    baseline = run(circuit)
    return np.array([
        1.0 - fidelity(baseline, run(remove_gates(circuit, {i})))
        for i in range(len(circuit.gates))
    ])
