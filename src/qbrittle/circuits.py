"""Circuit model: gates, structurally-uniform ensemble generation, (de)serialization.

Generated circuits follow a layered ansatz: each of L = floor(n * alpha) layers
applies one random single-qubit rotation per qubit followed by a brick-wall
entangling sub-layer of n/2 disjoint CNOTs on a ring (omitted after the final
layer), and floor(n * rho) near-zero Rz gates are appended at the end. The
redundancy rate rho is both the probability that a layered rotation draws a
near-zero angle and the scale factor for the appended-gate count.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterable, Iterator, Union

import numpy as np

from .codec import decode, encode
from .errors import CircuitFormatError, InvalidParameterError

__all__ = [
    "Axis",
    "Rotation",
    "Cnot",
    "Gate",
    "GenerationParams",
    "Circuit",
    "generate_uniform",
    "circuit_depth",
    "remove_gates",
    "to_json",
    "from_json",
    "export_qasm",
    "layer_count",
    "appended_count",
    "expected_gate_count",
    "floor_product",
]

# Angle ranges used by the generator (radians).
SMALL_ANGLE_RANGE = (0.001, 0.05)
LARGE_ANGLE_RANGE = (math.pi / 6, math.pi / 2)
APPENDED_ANGLE_RANGE = (0.001, 0.01)

PROVENANCES = ("layered", "appended")


class Axis(str, Enum):
    """Rotation axis of a single-qubit gate."""

    X = "x"
    Y = "y"
    Z = "z"


@dataclass(frozen=True, slots=True)
class Rotation:
    """Single-qubit rotation R_axis(theta) = exp(-i * theta * A / 2)."""

    TAG: ClassVar[str] = "rot"
    axis: Axis
    qubit: int
    theta: float
    provenance: str = "layered"
    layer: int = 0


@dataclass(frozen=True, slots=True)
class Cnot:
    """Controlled-NOT: flips `target` iff `control` is 1."""

    TAG: ClassVar[str] = "cnot"
    control: int
    target: int
    layer: int = 0


Gate = Union[Rotation, Cnot]  # told apart in JSON by each class's TAG


def floor_product(a: float, b: float) -> int:
    """floor(a * b), guarding against binary representation error in decimal
    inputs (e.g. 0.29 * 100 evaluates to 28.999...996 but must floor to 29)."""
    return int(math.floor(round(a * b, 9)))


def layer_count(n: int, alpha: float) -> int:
    """Number of rotation layers, floor(n * alpha); zero layers is an error."""
    layers = floor_product(n, alpha)
    if layers < 1:
        raise InvalidParameterError(f"alpha={alpha} yields zero layers for n={n}; need floor(n * alpha) >= 1")
    return layers


def appended_count(n: int, rho: float) -> int:
    """Number of appended near-zero Rz gates, floor(n * rho)."""
    return floor_product(n, rho)


def expected_gate_count(n: int, alpha: float, rho: float) -> int:
    """Closed-form gate count of a generated circuit: L*n + (L-1)*n/2 + floor(n*rho)."""
    layers = layer_count(n, alpha)
    return layers * n + (layers - 1) * (n // 2) + appended_count(n, rho)


@dataclass(frozen=True, slots=True)
class GenerationParams:
    """Knobs of the uniform-ensemble generator.

    n must be even and >= 4 (the ring entangler pairs qubits), alpha > 0 sets
    the layer count, rho in [0, 1] is the redundancy rate, and seed selects
    the microscopic assignment (axes, angles, appended-gate qubits).
    """

    n: int
    alpha: float
    rho: float
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 4:
            raise InvalidParameterError(f"qubit count must be an integer >= 4, got {self.n}")
        if self.n % 2 != 0:
            raise InvalidParameterError(f"qubit count must be even for the ring entangler, got {self.n}")
        if not self.alpha > 0:
            raise InvalidParameterError(f"depth factor alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"redundancy rate rho must lie in [0, 1], got {self.rho}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n_qubits; order is execution order.

    Immutable after construction and safe to share across threads. `params`
    records the generator configuration when the circuit was generated.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    params: GenerationParams | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n_qubits, int) or self.n_qubits < 1:
            raise InvalidParameterError(f"n_qubits must be a positive integer, got {self.n_qubits}")
        if not isinstance(self.gates, tuple):
            object.__setattr__(self, "gates", tuple(self.gates))
        for i, gate in enumerate(self.gates):
            self._check_gate(i, gate)

    def _check_gate(self, i: int, gate: Gate) -> None:
        n = self.n_qubits
        if isinstance(gate, Rotation):
            if not 0 <= gate.qubit < n:
                raise InvalidParameterError(f"gate {i}: qubit {gate.qubit} out of range for {n} qubits")
            if not math.isfinite(gate.theta):
                raise InvalidParameterError(f"gate {i}: non-finite angle {gate.theta}")
            if gate.provenance not in PROVENANCES:
                raise InvalidParameterError(f"gate {i}: unknown provenance {gate.provenance!r}")
        elif isinstance(gate, Cnot):
            if not 0 <= gate.control < n or not 0 <= gate.target < n:
                raise InvalidParameterError(f"gate {i}: qubit indices ({gate.control}, {gate.target}) out of range for {n} qubits")
            if gate.control == gate.target:
                raise InvalidParameterError(f"gate {i}: CNOT control and target coincide at {gate.control}")
        else:
            raise InvalidParameterError(f"gate {i}: unsupported gate object {gate!r}")

    def __len__(self) -> int:
        return len(self.gates)

    def rotations(self) -> Iterator[tuple[int, Rotation]]:
        """Yield (gate_index, rotation) for every rotation gate, in order."""
        for i, gate in enumerate(self.gates):
            if isinstance(gate, Rotation):
                yield i, gate


def _entangler(n: int, layer: int) -> list[Cnot]:
    """Brick-wall CNOT sub-layer on a ring: even layers pair (2k, 2k+1), odd
    layers pair (2k+1, (2k+2) mod n) including the wraparound (n-1, 0)."""
    if layer % 2 == 0:
        return [Cnot(2 * k, 2 * k + 1, layer) for k in range(n // 2)]
    return [Cnot(2 * k + 1, (2 * k + 2) % n, layer) for k in range(n // 2)]


def generate_uniform(params: GenerationParams) -> Circuit:
    """Generate one structurally-uniform circuit.

    All circuits with the same (n, alpha, rho) share the exact gate count and
    CNOT skeleton; the seed varies only rotation axes, angles and the qubits
    of the appended Rz gates. The PCG64 stream is consumed in a fixed order
    (per layered gate: axis, angle branch, angle; per appended gate: qubit,
    angle) so a seed pins the circuit bit-exactly.
    """
    n = params.n
    layers = layer_count(n, params.alpha)
    rng = np.random.default_rng(params.seed)
    axes = (Axis.X, Axis.Y, Axis.Z)
    gates: list[Gate] = []
    for layer in range(layers):
        for qubit in range(n):
            axis = axes[rng.integers(3)]
            small = rng.random() < params.rho
            low, high = SMALL_ANGLE_RANGE if small else LARGE_ANGLE_RANGE
            gates.append(Rotation(axis, qubit, float(rng.uniform(low, high)), "layered", layer))
        if layer != layers - 1:
            gates.extend(_entangler(n, layer))
    low, high = APPENDED_ANGLE_RANGE
    for _ in range(appended_count(n, params.rho)):
        qubit = int(rng.integers(n))  # with replacement
        gates.append(Rotation(Axis.Z, qubit, float(rng.uniform(low, high)), "appended", layers))
    return Circuit(n, tuple(gates), params)


def circuit_depth(circuit: Circuit) -> int:
    """Greedy-layering depth: each gate sits at 1 + max level of its qubits."""
    levels = [0] * circuit.n_qubits
    for gate in circuit.gates:
        touched = (gate.qubit,) if isinstance(gate, Rotation) else (gate.control, gate.target)
        level = 1 + max(levels[q] for q in touched)
        for q in touched:
            levels[q] = level
    return max(levels, default=0)


def remove_gates(circuit: Circuit, indices: Iterable[int]) -> Circuit:
    """Return a copy of `circuit` without the gates at `indices`; survivors
    keep their relative order. The original circuit is untouched."""
    drop = set(indices)
    count = len(circuit.gates)
    for i in drop:
        if not 0 <= i < count:
            raise InvalidParameterError(f"gate index {i} out of range for {count} gates")
    kept = tuple(g for i, g in enumerate(circuit.gates) if i not in drop)
    return Circuit(circuit.n_qubits, kept, circuit.params)


def to_json(circuit: Circuit) -> str:
    """Serialize a circuit to the JSON schema used by the CLI.

    Angles are emitted in Python's shortest round-trip float form, so
    from_json(to_json(c)) reproduces every angle bit-exactly.
    """
    doc = {  # the schema's key order, not Circuit's field order
        "n_qubits": circuit.n_qubits,
        "params": encode(circuit.params),
        "gates": encode(circuit.gates),
    }
    return json.dumps(doc, indent=1)


def from_json(text: str) -> Circuit:
    """Parse a circuit document; raises CircuitFormatError naming the JSON path
    of the first offending value, or InvalidParameterError if the parsed
    circuit is invalid."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"document is not valid JSON: {exc}") from None
    return decode(Circuit, doc, "circuit")


def export_qasm(circuit: Circuit) -> str:
    """Emit OpenQASM 2.0 with rx/ry/rz/cx on one quantum register, preserving
    gate order. Angles use full round-trip precision."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
    ]
    for gate in circuit.gates:
        if isinstance(gate, Rotation):
            lines.append(f"r{gate.axis.value}({gate.theta!r}) q[{gate.qubit}];")
        else:
            lines.append(f"cx q[{gate.control}],q[{gate.target}];")
    return "\n".join(lines) + "\n"
