"""Dense statevector simulation.

Basis indexing is little-endian: qubit 0 is the least significant bit of the
amplitude index. Rotations follow the convention R_a(theta) = exp(-i*theta*A/2)
for A in {X, Y, Z}. Gates act in place through stride-based views of the
amplitude array: a single-qubit gate on qubit q pairs amplitudes 2^q apart,
and CNOT swaps the target-bit pair on the control=1 half of the state.
`run` can also record each gate's deletion loss on the same views as it goes,
which is how the leave-one-out importance profile costs a single pass.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .circuits import Axis, Circuit, Cnot, Gate, Rotation
from .errors import InvalidParameterError, ResourceLimitError

__all__ = ["StateVector", "zero_state", "apply_gate", "run", "fidelity", "qubit_cap", "DEFAULT_MAX_QUBITS"]

# Dense simulation above this many qubits is refused unless QBRITTLE_MAX_QUBITS
# raises the cap (2^24 complex doubles is already 256 MiB).
DEFAULT_MAX_QUBITS = 24


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit pure state."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def qubit_cap() -> int:
    """The largest qubit count the simulator accepts: QBRITTLE_MAX_QUBITS if
    set, DEFAULT_MAX_QUBITS otherwise. It is read on every call, so library
    callers and worker processes obey the same cap as the CLI."""
    raw = os.environ.get("QBRITTLE_MAX_QUBITS")
    if not raw:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"QBRITTLE_MAX_QUBITS must be an integer, got {raw!r}") from None


def zero_state(n: int) -> StateVector:
    """The all-zeros computational basis state |0...0> on n qubits."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"qubit count must be a positive integer, got {n}")
    cap = qubit_cap()
    if n > cap:
        raise ResourceLimitError(f"{n} qubits exceeds the simulator cap of {cap}")
    amplitudes = np.zeros(1 << n, dtype=np.complex128)
    amplitudes[0] = 1.0
    return StateVector(n, amplitudes)


def _halves(amps: np.ndarray, n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes with `qubit` clear and set, as views paired element-wise."""
    view = amps.reshape(1 << (n - qubit - 1), 2, 1 << qubit)
    return view[:, 0, :], view[:, 1, :]


def _apply_rotation(amps: np.ndarray, n: int, gate: Rotation) -> None:
    a, b = _halves(amps, n, gate.qubit)
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


def _rotation_loss(amps: np.ndarray, n: int, gate: Rotation) -> float:
    # <R> = cos(t/2) - i sin(t/2) <A> with <A> real, so 1 - |<R>|^2 = sin^2(t/2) (1 - <A>^2).
    # The min() absorbs rounding that pushes |<A>| past 1.
    a, b = _halves(amps, n, gate.qubit)
    if gate.axis is Axis.Z:
        expectation = np.vdot(a, a).real - np.vdot(b, b).real
    else:
        overlap = np.vdot(a, b)
        expectation = 2.0 * (overlap.real if gate.axis is Axis.X else overlap.imag)
    s = math.sin(0.5 * gate.theta)
    return s * s * (1.0 - min(expectation * expectation, 1.0))


def _cnot_blocks(amps: np.ndarray, n: int, gate: Cnot) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the control=0 block and of the control=1 block with target clear and set."""
    hi = max(gate.control, gate.target)
    lo = min(gate.control, gate.target)
    view = amps.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if gate.control == hi:
        return view[:, 0], view[:, 1, :, 0], view[:, 1, :, 1]
    return view[:, :, :, 0], view[:, 0, :, 1], view[:, 1, :, 1]


def _apply_cnot(amps: np.ndarray, n: int, gate: Cnot) -> None:
    _, t0, t1 = _cnot_blocks(amps, n, gate)
    tmp = t0.copy()
    t0[...] = t1
    t1[...] = tmp


def _cnot_loss(amps: np.ndarray, n: int, gate: Cnot) -> float:
    # <CX> = |control=0 block|^2 + <X_target> on the control=1 block; it is real.
    c0, t0, t1 = _cnot_blocks(amps, n, gate)
    expectation = np.vdot(c0, c0).real + 2.0 * np.vdot(t0, t1).real
    return 1.0 - min(expectation * expectation, 1.0)


def _kernels(gate: Gate, n: int):
    """Check the gate against an n-qubit state; return its (apply, loss) kernels."""
    if isinstance(gate, Rotation):
        if not 0 <= gate.qubit < n:
            raise InvalidParameterError(f"rotation qubit {gate.qubit} out of range for {n} qubits")
        return _apply_rotation, _rotation_loss
    if isinstance(gate, Cnot):
        if not 0 <= gate.control < n or not 0 <= gate.target < n:
            raise InvalidParameterError(f"CNOT qubits ({gate.control}, {gate.target}) out of range for {n} qubits")
        return _apply_cnot, _cnot_loss
    raise InvalidParameterError(f"unsupported gate object {gate!r}")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the mutated state."""
    apply, _ = _kernels(gate, state.n_qubits)
    apply(state.amplitudes, state.n_qubits, gate)
    return state


def run(circuit: Circuit, losses: np.ndarray | None = None) -> StateVector:
    """Apply the circuit's gates in order to the all-zeros state.

    If `losses` (a float array with one entry per gate) is given, losses[i]
    receives gate i's deletion loss 1 - |<f_i|G_i|f_i>|^2, evaluated on the
    state f_i just before gate i is applied. The returned state is the same
    either way.
    """
    if losses is not None and len(losses) != len(circuit.gates):
        raise InvalidParameterError(f"losses has {len(losses)} entries for a {len(circuit.gates)}-gate circuit")
    state = zero_state(circuit.n_qubits)
    n, amps = state.n_qubits, state.amplitudes
    for i, gate in enumerate(circuit.gates):
        apply, loss = _kernels(gate, n)
        if losses is not None:
            losses[i] = loss(amps, n, gate)
        apply(amps, n, gate)
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped into [0, 1] to absorb last-bit rounding."""
    if a.n_qubits != b.n_qubits:
        raise InvalidParameterError(f"fidelity of states on {a.n_qubits} and {b.n_qubits} qubits is undefined")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(max(abs(overlap) ** 2, 0.0), 1.0))
