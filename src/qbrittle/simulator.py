"""Dense statevector simulation.

Basis indexing is little-endian: qubit 0 is the least significant bit of the
amplitude index. Rotations follow the convention R_a(theta) = exp(-i*theta*A/2)
for A in {X, Y, Z}. Gates act in place through stride-based views of the
amplitude array: a single-qubit gate on qubit q pairs amplitudes 2^q apart,
and CNOT swaps the target-bit pair on the control=1 half of the state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Axis, Circuit, Cnot, Gate, Rotation
from .errors import InvalidParameterError, ResourceLimitError

__all__ = ["StateVector", "zero_state", "apply_gate", "run", "fidelity", "DEFAULT_MAX_QUBITS"]

# Dense simulation above this many qubits is refused unless the caller raises
# the cap explicitly (2^24 complex doubles is already 256 MiB).
DEFAULT_MAX_QUBITS = 24


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit pure state."""

    n_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def zero_state(n: int, max_qubits: int | None = None) -> StateVector:
    """The all-zeros computational basis state |0...0> on n qubits."""
    cap = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"qubit count must be a positive integer, got {n}")
    if n > cap:
        raise ResourceLimitError(f"{n} qubits exceeds the simulator cap of {cap}")
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[0] = 1.0
    return StateVector(n, amplitudes)


def _apply_rotation(amps: np.ndarray, n: int, gate: Rotation) -> None:
    view = amps.reshape(1 << (n - gate.qubit - 1), 2, 1 << gate.qubit)
    a = view[:, 0, :]
    b = view[:, 1, :]
    half = 0.5 * gate.theta
    if gate.axis is Axis.Z:
        a *= complex(math.cos(half), -math.sin(half))
        b *= complex(math.cos(half), math.sin(half))
        return
    c = math.cos(half)
    s = math.sin(half)
    if gate.axis is Axis.X:
        new_a = c * a + (-1j * s) * b
        b *= c
        b += (-1j * s) * a
    else:  # Y
        new_a = c * a - s * b
        b *= c
        b += s * a
    a[:] = new_a


def _apply_cnot(amps: np.ndarray, n: int, gate: Cnot) -> None:
    hi = max(gate.control, gate.target)
    lo = min(gate.control, gate.target)
    view = amps.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if gate.control == hi:
        block = view[:, 1]  # control bit set; target is now axis 2
        tmp = block[:, :, 0].copy()
        block[:, :, 0] = block[:, :, 1]
        block[:, :, 1] = tmp
    else:
        block = view[:, :, :, 1]  # control bit set; target is now axis 1
        tmp = block[:, 0].copy()
        block[:, 0] = block[:, 1]
        block[:, 1] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the mutated state."""
    n = state.n_qubits
    if isinstance(gate, Rotation):
        if not 0 <= gate.qubit < n:
            raise InvalidParameterError(f"rotation qubit {gate.qubit} out of range for {n} qubits")
        _apply_rotation(state.amplitudes, n, gate)
    elif isinstance(gate, Cnot):
        if not 0 <= gate.control < n or not 0 <= gate.target < n:
            raise InvalidParameterError(f"CNOT qubits ({gate.control}, {gate.target}) out of range for {n} qubits")
        _apply_cnot(state.amplitudes, n, gate)
    else:
        raise InvalidParameterError(f"unsupported gate object {gate!r}")
    return state


def run(circuit: Circuit, max_qubits: int | None = None) -> StateVector:
    """Apply the circuit's gates in order to the all-zeros state."""
    state = zero_state(circuit.n_qubits, max_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped into [0, 1] to absorb last-bit rounding."""
    if a.n_qubits != b.n_qubits:
        raise InvalidParameterError(f"fidelity of states on {a.n_qubits} and {b.n_qubits} qubits is undefined")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(max(abs(overlap) ** 2, 0.0), 1.0))
