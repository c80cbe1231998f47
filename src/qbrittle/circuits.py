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
from functools import lru_cache
from itertools import repeat
from typing import ClassVar, Iterable, Iterator, Union

import numpy as np

from .codec import check_types, decode, encode
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
# Most gates a generated circuit may have. The generator draws all of a
# circuit's random words at once, so the count is checked before any draw.
MAX_GATES = 1_000_000

PROVENANCES = ("layered", "appended")


class Axis(str, Enum):
    """Rotation axis of a single-qubit gate."""

    X = "x"
    Y = "y"
    Z = "z"


_AXES = (Axis.X, Axis.Y, Axis.Z)  # the generator's axis draw indexes this
_REALS = (float, int, np.floating, np.integer)  # the types of an angle; bool is checked apart


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
    """Number of rotation layers, floor(n * alpha); zero layers is an error,
    and so is an infinite, NaN or oversized n * alpha (see MAX_GATES)."""
    if not n * alpha <= MAX_GATES:
        raise InvalidParameterError(f"alpha={alpha} yields more than {MAX_GATES} gates for n={n}")
    layers = floor_product(n, alpha)
    if layers < 1:
        raise InvalidParameterError(f"alpha={alpha} yields zero layers for n={n}; need floor(n * alpha) >= 1")
    return layers


def appended_count(n: int, rho: float) -> int:
    """Number of appended near-zero Rz gates, floor(n * rho)."""
    return floor_product(n, rho)


def expected_gate_count(n: int, alpha: float, rho: float) -> int:
    """Closed-form gate count of a generated circuit: L*n + (L-1)*n/2 + floor(n*rho).
    A count above MAX_GATES is an error."""
    layers = layer_count(n, alpha)
    count = layers * n + (layers - 1) * (n // 2) + appended_count(n, rho)
    if count > MAX_GATES:
        raise InvalidParameterError(f"n={n}, alpha={alpha}, rho={rho} yield {count} gates, more than {MAX_GATES}")
    return count


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
        check_types(self)
        if self.n < 4:
            raise InvalidParameterError(f"qubit count must be an integer >= 4, got {self.n}")
        if self.n % 2 != 0:
            raise InvalidParameterError(f"qubit count must be even for the ring entangler, got {self.n}")
        if not self.alpha > 0:
            raise InvalidParameterError(f"depth factor alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"redundancy rate rho must lie in [0, 1], got {self.rho}")
        if not 0 <= self.seed < 2**64:
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
        if isinstance(gate, Rotation):
            if not isinstance(gate.axis, Axis):
                raise InvalidParameterError(f"gate {i}: axis must be an Axis member, got {gate.axis!r}")
            if not isinstance(gate.theta, _REALS) or isinstance(gate.theta, bool) or not math.isfinite(gate.theta):
                raise InvalidParameterError(f"gate {i}: angle must be a finite real number, got {gate.theta!r}")
            if gate.provenance not in PROVENANCES:
                raise InvalidParameterError(f"gate {i}: unknown provenance {gate.provenance!r}")
            self._check_wire(i, gate.qubit)
        elif isinstance(gate, Cnot):
            self._check_wire(i, gate.control)
            self._check_wire(i, gate.target)
            if gate.control == gate.target:
                raise InvalidParameterError(f"gate {i}: CNOT control and target coincide at {gate.control}")
        else:
            raise InvalidParameterError(f"gate {i}: unsupported gate object {gate!r}")

    def _check_wire(self, i: int, wire: int) -> None:
        if not isinstance(wire, (int, np.integer)) or isinstance(wire, bool) or not 0 <= wire < self.n_qubits:
            raise InvalidParameterError(f"gate {i}: qubit {wire!r} must be an integer in [0, {self.n_qubits})")

    def __len__(self) -> int:
        return len(self.gates)

    def rotations(self) -> Iterator[tuple[int, Rotation]]:
        """Yield (gate_index, rotation) for every rotation gate, in order."""
        for i, gate in enumerate(self.gates):
            if isinstance(gate, Rotation):
                yield i, gate


@lru_cache(maxsize=256)
def _entangler(n: int, layer: int) -> tuple[Cnot, ...]:
    """Brick-wall CNOT sub-layer on a ring: even layers pair (2k, 2k+1), odd
    layers pair (2k+1, (2k+2) mod n) including the wraparound (n-1, 0).
    Cached: the gates are immutable, so circuits on n qubits share them."""
    if layer % 2 == 0:
        return tuple(Cnot(2 * k, 2 * k + 1, layer) for k in range(n // 2))
    return tuple(Cnot(2 * k + 1, (2 * k + 2) % n, layer) for k in range(n // 2))


def _bulk_draws(words: np.ndarray, count: int, bound: int, doubles: int) -> tuple[np.ndarray, np.ndarray] | None:
    """What `count` rounds of one integers(bound) call and then `doubles`
    random() calls return, decoded from the Generator's raw PCG64 `words`:
    the integers, shape (count,), and the doubles, shape (count, doubles).
    None if Lemire's method rejects one of the `count` draws.

    Rounds 2j and 2j+1 read a row of 1 + 2 * doubles words: the first holds
    both 32-bit draws x, low half first, then come the doubles of each round,
    each one word w as (w >> 11) * 2**-53. An odd count still reads a whole
    last row; the half and the doubles of the round it lacks go unused. A draw
    maps to (x * bound) >> 32, and is rejected while (x * bound) mod 2**32 <
    (2**32 - bound) mod bound.
    """
    rows = words.reshape(-1, 1 + 2 * doubles)
    products = np.multiply(rows[:, 0].astype("<u8").view("<u4")[:count], bound, dtype=np.uint64)
    if ((products & 0xFFFFFFFF) < (2**32 - bound) % bound).any():
        return None
    return products >> 32, ((rows[:, 1:] >> 11) * 2.0**-53).reshape(-1, doubles)[:count]


def _generator_draws(rng: np.random.Generator, count: int, bound: int, doubles: int) -> tuple[np.ndarray, np.ndarray]:
    """`_bulk_draws` by the Generator's own calls: per round integers(bound), then `doubles` random()."""
    values, units = np.empty(count, dtype=np.int64), np.empty((count, doubles))
    for i in range(count):
        values[i] = rng.integers(bound)
        units[i] = [rng.random() for _ in range(doubles)]
    return values, units


def generate_uniform(params: GenerationParams) -> Circuit:
    """Generate one structurally-uniform circuit.

    All circuits with the same (n, alpha, rho) share the exact gate count and
    CNOT skeleton; the seed varies only rotation axes, angles and the qubits
    of the appended Rz gates. The circuit is what numpy's Generator on
    PCG64(seed) gives when called per layered gate as integers(3) for the
    axis, random() < rho for the angle branch and uniform(low, high) for the
    angle, then per appended gate as integers(n) for the qubit and
    uniform(low, high) for the angle, so a seed pins the circuit bit-exactly.

    All words are taken in one `random_raw` call and decoded by `_bulk_draws`
    in a fixed layout. Layered gates read five words per pair: both axis
    draws (low 32 bits, then high), then each gate's branch and angle words.
    n is even, so the layered gates come in whole pairs and the appended
    gates start on a fresh word. These read three words per pair: both qubit
    draws, then each gate's angle word; an odd last gate reads a whole pair's
    three. If Lemire's method rejects a draw (for bound 3 only x = 0, about
    2**-32 per draw), every later draw shifts: the circuit is then made by the
    Generator's own calls on a fresh PCG64(seed) instead.
    """
    n = params.n
    expected_gate_count(n, params.alpha, params.rho)  # the cap, before any draw
    layers = layer_count(n, params.alpha)
    appended = appended_count(n, params.rho)
    split = layers * n // 2 * 5
    words = np.random.PCG64(params.seed).random_raw(split + (appended + 1) // 2 * 3)
    layered, tail = _bulk_draws(words[:split], layers * n, 3, 2), _bulk_draws(words[split:], appended, n, 1)
    if layered is None or tail is None:
        rng = np.random.Generator(np.random.PCG64(params.seed))
        layered, tail = _generator_draws(rng, layers * n, 3, 2), _generator_draws(rng, appended, n, 1)
    (axes, units), (qubits, tail_units) = layered, tail
    ranges = np.where(units[:, :1] < params.rho, SMALL_ANGLE_RANGE, LARGE_ANGLE_RANGE)  # (low, high) per gate
    thetas = ranges[:, 0] + (ranges[:, 1] - ranges[:, 0]) * units[:, 1]  # Generator.uniform, to the bit
    axes, layer_of = map(_AXES.__getitem__, axes.tolist()), (np.arange(layers * n) // n).tolist()
    rotations = list(map(Rotation, axes, list(range(n)) * layers, thetas.tolist(), repeat("layered"), layer_of))
    gates: list[Gate] = []
    for layer in range(layers):
        gates += rotations[layer * n:(layer + 1) * n]
        if layer != layers - 1:
            gates += _entangler(n, layer)
    low, high = APPENDED_ANGLE_RANGE
    thetas = low + (high - low) * tail_units[:, 0]
    gates.extend(Rotation(Axis.Z, q, t, "appended", layers) for q, t in zip(qubits.tolist(), thetas.tolist()))
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
    keep their relative order. The original circuit is untouched. An index
    is an int or a numpy integer, not a bool."""
    count = len(circuit.gates)
    drop = set()
    for i in indices:  # each one checked before a set could merge 1.0 or True into 1
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < count:
            raise InvalidParameterError(f"gate index {i!r} must be an integer in [0, {count})")
        drop.add(i)
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
