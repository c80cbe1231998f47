"""Circuit model: gates, structurally-uniform ensemble generation, (de)serialization.

Generated circuits follow a layered ansatz: each of L = floor(n * alpha) layers
applies one random single-qubit rotation per qubit followed by a brick-wall
entangling sub-layer of n/2 disjoint CNOTs on a ring (omitted after the final
layer), and floor(n * rho) near-zero Rz gates are appended at the end. The
redundancy rate rho is both the probability that a layered rotation draws a
near-zero angle and the scale factor for the appended-gate count.

A `Circuit` holds its gates in one read-only numpy array of GATE_DTYPE
records, one per gate: kind (0, 1, 2: a rotation about X, Y, Z; 3: a CNOT),
qubit (or the CNOT's control), target (-1 for a rotation), theta (0.0 for a
CNOT), layer, and appended (the provenance). `generate_uniform` fills it and
`remove_gates` masks it; the simulator, statistics and pruning read it, and
none of them makes a gate object. `Circuit(n, gates)` and `from_json` check
and encode gate objects. The encoding is a circuit's only state: on the first
read, `circuit.gates` builds `Rotation` and `Cnot` objects of Python numbers
from it for `to_json`, `export_qasm` and the importance CSV.

The generator's raw words come from `_pcg64_words`, numpy's PCG64 and
SeedSequence in Python ints and uint64 arrays, so generating does not import
numpy.random (nor, through it, OpenSSL); only the rare Lemire-rejection
fallback, `_generator_draws`, loads it.
"""
from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, make_dataclass
from enum import Enum
from functools import cache, cached_property
from typing import ClassVar, Iterable, Sized, Union

import numpy as np

from .codec import check_types, decode, encode, loads
from .errors import InvalidParameterError, _shown

__all__ = [
    "Axis",
    "Rotation",
    "Cnot",
    "Gate",
    "GenerationParams",
    "GATE_DTYPE",
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


# A circuit's encoding: one record per gate (see the module docstring).
GATE_DTYPE = np.dtype([("kind", np.int8), ("qubit", np.int64), ("target", np.int64), ("theta", np.float64),
                       ("layer", np.int64), ("appended", bool)], align=True)
_AXES = (Axis.X, Axis.Y, Axis.Z)  # indexed by a rotation's kind, which is the generator's axis draw
_KINDS = {axis: kind for kind, axis in enumerate(_AXES)}
_REALS = (float, int, np.floating, np.integer)  # the types of an angle; bool is checked apart
_INTEGERS = (int, np.integer)  # the types of a qubit and a layer; bool is checked apart


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
    and so is an infinite, NaN or oversized n * alpha (see MAX_GATES). Each
    layer holds n rotations, so n < 1 and n > MAX_GATES fail before the float product."""
    if n < 1:
        raise InvalidParameterError(f"qubit count must be a positive integer, got {_shown(n)}")
    if n > MAX_GATES or not n * alpha <= MAX_GATES:
        raise InvalidParameterError(f"alpha={_shown(alpha)} yields more than {MAX_GATES} gates for n={_shown(n)}")
    layers = floor_product(n, alpha)
    if layers < 1:
        raise InvalidParameterError(
            f"alpha={_shown(alpha)} yields zero layers for n={_shown(n)}; need floor(n * alpha) >= 1")
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
        raise InvalidParameterError(f"n={_shown(n)}, alpha={_shown(alpha)}, rho={_shown(rho)} yield {_shown(count)} "
                                    f"gates, more than {MAX_GATES}")
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
            raise InvalidParameterError(f"qubit count must be an integer >= 4, got {_shown(self.n)}")
        if self.n % 2 != 0:
            raise InvalidParameterError(f"qubit count must be even for the ring entangler, got {_shown(self.n)}")
        if not self.alpha > 0:
            raise InvalidParameterError(f"depth factor alpha must be positive, got {_shown(self.alpha)}")
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"redundancy rate rho must lie in [0, 1], got {_shown(self.rho)}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {_shown(self.seed)}")


@dataclass(frozen=True, init=False, eq=False)
class Circuit:
    """An ordered gate sequence on n_qubits, held as `encoding` (see the
    module docstring); order is execution order. Immutable and safe to share
    across threads. `params` records the generator configuration of a
    generated circuit."""

    n_qubits: int
    encoding: np.ndarray
    params: GenerationParams | None = None

    def __init__(self, n_qubits: int, gates: Iterable[Gate], params: GenerationParams | None = None) -> None:
        n_qubits = _width(n_qubits, "n_qubits")
        if params is not None and not isinstance(params, GenerationParams):
            raise InvalidParameterError(f"params must be a GenerationParams or None, got {params!r}")
        rows = [_check_gate(n_qubits, i, gate) for i, gate in enumerate(gates)]
        encoding = np.zeros(len(rows), GATE_DTYPE)
        for name, column in zip(GATE_DTYPE.names, zip(*rows)):
            encoding[name] = column
        self._fill(n_qubits, encoding, params)

    @classmethod
    def _from_arrays(cls, n_qubits: int, encoding: np.ndarray, params: GenerationParams | None) -> Circuit:
        """A circuit of gates that are valid by construction, unchecked."""
        circuit = object.__new__(cls)
        circuit._fill(n_qubits, encoding, params)
        return circuit

    def _fill(self, n_qubits: int, encoding: np.ndarray, params: GenerationParams | None) -> None:
        encoding.flags.writeable = False
        vars(self).update(n_qubits=n_qubits, encoding=encoding, params=params)

    def __reduce__(self):  # unpickled as a trusted circuit: read-only again, and without the cached gates
        return Circuit._from_arrays, (self.n_qubits, self.encoding, self.params)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates as `Rotation` and `Cnot` objects of Python numbers, built
        from `encoding` on the first read."""
        return tuple(
            Cnot(qubit, target, layer) if kind == 3 else
            Rotation(_AXES[kind], qubit, theta, PROVENANCES[appended], layer)
            for kind, qubit, target, theta, layer, appended in self.encoding.tolist())

    def __len__(self) -> int:
        return len(self.encoding)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and (self.n_qubits, self.params) == (other.n_qubits, other.params)
                and np.array_equal(self.encoding, other.encoding))

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.params))


def _width(n, name: str) -> int:
    """A qubit count `n`, named `name`, as an int: a positive int or numpy integer, not a bool."""
    if isinstance(n, bool) or not isinstance(n, _INTEGERS) or n < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {_shown(n)}")
    return int(n)


def _check_per_gate(values: Sized, circuit: Circuit, what: str) -> None:
    """Raise unless `values`, named `what`, holds one entry per gate of the circuit."""
    if len(values) != len(circuit):
        raise InvalidParameterError(f"{what} has {len(values)} entries for a {len(circuit)}-gate circuit")


def _check_gate(n: int, i: int, gate: Gate) -> tuple:
    """Gate i's encoding row; raise, naming gate i, if `gate` is not a valid gate on n qubits."""
    if isinstance(gate, Rotation):
        if not isinstance(gate.axis, Axis):
            raise InvalidParameterError(f"gate {i}: axis must be an Axis member, got {gate.axis!r}")
        try:
            finite = isinstance(gate.theta, _REALS) and not isinstance(gate.theta, bool) and math.isfinite(gate.theta)
        except OverflowError:  # an int beyond a float's range
            finite = False
        if not finite:
            raise InvalidParameterError(f"gate {i}: angle must be a finite real number, got {_shown(gate.theta, repr)}")
        if gate.provenance not in PROVENANCES:
            raise InvalidParameterError(f"gate {i}: unknown provenance {gate.provenance!r}")
        _check_wire(n, i, gate.qubit)
        row = (_KINDS[gate.axis], gate.qubit, -1, gate.theta, gate.layer, gate.provenance == "appended")
    elif isinstance(gate, Cnot):
        _check_wire(n, i, gate.control)
        _check_wire(n, i, gate.target)
        if gate.control == gate.target:
            raise InvalidParameterError(f"gate {i}: CNOT control and target coincide at {gate.control}")
        row = (3, gate.control, gate.target, 0.0, gate.layer, False)
    else:
        raise InvalidParameterError(f"gate {i}: unsupported gate object {gate!r}")
    if not isinstance(gate.layer, _INTEGERS) or isinstance(gate.layer, bool) or not -2**63 <= gate.layer < 2**63:
        raise InvalidParameterError(f"gate {i}: layer must be a 64-bit integer, got {_shown(gate.layer, repr)}")
    return row


def _check_wire(n: int, i: int, wire: int) -> None:
    bound = min(n, 2**63)  # the encoding holds a wire as an int64
    if not isinstance(wire, _INTEGERS) or isinstance(wire, bool) or not 0 <= wire < bound:
        raise InvalidParameterError(f"gate {i}: qubit {_shown(wire, repr)} must be an integer in [0, {bound})")


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


def _generator_draws(seed: int, *calls: tuple[int, int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """`_bulk_draws` for each (count, bound, doubles) in turn, by numpy's own
    Generator on a fresh PCG64(seed): per round integers(bound), then `doubles`
    random(). The only use of numpy.random, which loads on this first read."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = []
    for count, bound, doubles in calls:
        values, units = np.empty(count, dtype=np.int64), np.empty((count, doubles))
        for i in range(count):
            values[i] = rng.integers(bound)
            units[i] = [rng.random() for _ in range(doubles)]
        draws.append((values, units))
    return draws


# numpy's SeedSequence mixing constants (its hashmix and mix) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 4096  # words per jump-ahead pass
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64(seed)'s first (state, inc) for a seed in [0, 2**64): numpy's
    SeedSequence(seed).generate_state(4, uint64) in Python ints, then set_seed."""
    hash_const = _INIT_A

    def hashmix(value: int, mult: int = _MULT_A) -> int:  # numpy's hashmix: advances the hash constant
        nonlocal hash_const
        value = (value ^ hash_const) * (hash_const := hash_const * mult & _M32) & _M32
        return value ^ value >> 16

    pool = [hashmix(seed >> 32 * i & _M32) for i in range(4)]  # the entropy's words, least significant first
    for src in range(4):
        for dst in range(4):
            if src != dst:  # numpy's mix
                value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])) & _M32
                pool[dst] = value ^ value >> 16
    hash_const = _INIT_B
    state = [hashmix(value, _MULT_B) for value in pool * 2]  # generate_state's 32-bit words
    w0, w1, w2, w3 = (low | high << 32 for low, high in zip(state[::2], state[1::2]))
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    return ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128, inc


@cache
def _pcg64_jumps() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """G_k = sum of M**j over j < k, for k = 1 .. _CHUNK, as high and low uint64
    halves and the low half's 32-bit halves, and G_CHUNK as an int. Cached:
    shared by every caller."""
    g = 0
    sums = [g := (g * _PCG64_MULT + 1) & _M128 for _ in range(_CHUNK)]
    high = np.array([g >> 64 for g in sums], dtype=np.uint64)
    low = np.array([g & _M64 for g in sums], dtype=np.uint64)
    arrays = high, low, low & _M32, low >> 32
    for array in arrays:
        array.flags.writeable = False
    return *arrays, g


def _pcg64_words(seed: int, count: int) -> np.ndarray:
    """numpy's PCG64(seed).random_raw(count), bit for bit, without numpy.random.

    PCG64 steps its 128-bit state s -> M * s + inc, then outputs the new
    state's halves XORed and rotated right by its top 6 bits. k steps from s
    give s + G_k * c with c = (M - 1) * s + inc, so a pass takes up to _CHUNK
    words at once as 128-bit products mod 2**128 on uint64 arrays, through
    32-bit halves; the next pass starts from its last state. Scalars stay
    Python ints, since numpy's scalar products warn on overflow.
    """
    state, inc = _pcg64_seed(seed)
    g_high, g_low, g_low0, g_low1, stride = _pcg64_jumps()
    words = np.empty(count, dtype=np.uint64)
    for start in range(0, count, _CHUNK):
        k = min(count - start, _CHUNK)
        c = ((_PCG64_MULT - 1) * state + inc) & _M128
        c_high, c_low = c >> 64, c & _M64
        c0, c1 = c_low & _M32, c_low >> 32
        a0, a1 = g_low0[:k], g_low1[:k]
        p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
        middle = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        low = (p00 & _M32) | (middle << 32)
        high = (a1 * c1 + (p01 >> 32) + (p10 >> 32) + (middle >> 32) + g_high[:k] * c_low + g_low[:k] * c_high
                + (state >> 64))
        low += state & _M64
        high += low < (state & _M64)  # the carry
        mixed = high ^ low
        rotation = high >> 58
        words[start:start + k] = (mixed >> rotation) | (mixed << ((64 - rotation) & 63))
        state = (state + stride * c) & _M128
    return words


def generate_uniform(params: GenerationParams) -> Circuit:
    """Generate one structurally-uniform circuit.

    All circuits with the same (n, alpha, rho) share the exact gate count and
    CNOT skeleton; the seed varies only rotation axes, angles and the qubits
    of the appended Rz gates. The circuit is what numpy's Generator on
    PCG64(seed) gives when called per layered gate as integers(3) for the
    axis, random() < rho for the angle branch and uniform(low, high) for the
    angle, then per appended gate as integers(n) for the qubit and
    uniform(low, high) for the angle, so a seed pins the circuit bit-exactly.

    All words are taken in one `_pcg64_words` call, numpy's `random_raw` on
    PCG64(seed) without importing numpy.random, and decoded by `_bulk_draws`
    in a fixed layout. Layered gates read five words per pair: both axis
    draws (low 32 bits, then high), then each gate's branch and angle words.
    n is even, so the layered gates come in whole pairs and the appended
    gates start on a fresh word. These read three words per pair: both qubit
    draws, then each gate's angle word; an odd last gate reads a whole pair's
    three. If Lemire's method rejects a draw (for bound 3 only x = 0, about
    2**-32 per draw), every later draw shifts: the circuit is then made by the
    Generator's own calls on a fresh PCG64(seed) instead, in `_generator_draws`,
    the only code that imports numpy.random.

    The draws fill the encoding directly, a row of n rotations and n/2 CNOTs
    per layer: even layers pair (2k, 2k+1), odd ones (2k+1, 2k+2 mod n).
    """
    n = params.n
    count = expected_gate_count(n, params.alpha, params.rho)  # the cap, before any draw
    layers = layer_count(n, params.alpha)
    appended = appended_count(n, params.rho)
    split = layers * n // 2 * 5
    words = _pcg64_words(params.seed, split + (appended + 1) // 2 * 3)
    layered, tail = _bulk_draws(words[:split], layers * n, 3, 2), _bulk_draws(words[split:], appended, n, 1)
    if layered is None or tail is None:
        layered, tail = _generator_draws(params.seed, (layers * n, 3, 2), (appended, n, 1))
    (axes, units), (qubits, tail_units) = layered, tail
    ranges = np.where(units[:, :1] < params.rho, SMALL_ANGLE_RANGE, LARGE_ANGLE_RANGE)  # (low, high) per gate
    thetas = ranges[:, 0] + (ranges[:, 1] - ranges[:, 0]) * units[:, 1]  # Generator.uniform, to the bit
    low, high = APPENDED_ANGLE_RANGE
    width = n + n // 2
    layer = np.arange(layers)[:, None]
    controls = 2 * np.arange(n // 2) + layer % 2
    gates = np.zeros(layers * width + appended, GATE_DTYPE)
    for name, rotations, cnots, tail in (
            ("kind", axes.reshape(layers, n), 3, 2),
            ("qubit", np.arange(n), controls, qubits),
            ("target", -1, (controls + 1) % n, -1),
            ("theta", thetas.reshape(layers, n), 0.0, low + (high - low) * tail_units[:, 0]),
            ("layer", layer, layer, layers),
            ("appended", False, False, True)):
        grid = gates[name][:layers * width].reshape(layers, width)
        grid[:, :n], grid[:, n:] = rotations, cnots
        gates[name][count - appended:count] = tail  # over the last layer's CNOTs
    return Circuit._from_arrays(n, gates[:count], params)


def circuit_depth(circuit: Circuit) -> int:
    """Greedy-layering depth: each gate sits at 1 + max level of its qubits (only touched ones hold a level)."""
    levels = defaultdict(int)
    for qubit, target in zip(circuit.encoding["qubit"].tolist(), circuit.encoding["target"].tolist()):
        if target < 0:
            levels[qubit] += 1
        else:
            levels[qubit] = levels[target] = 1 + max(levels[qubit], levels[target])
    return max(levels.values(), default=0)


def remove_gates(circuit: Circuit, indices: Iterable[int]) -> Circuit:
    """Return a copy of `circuit` without the gates at `indices`; survivors
    keep their relative order. The original circuit is untouched. An index
    is an int or a numpy integer, not a bool."""
    count = len(circuit)
    keep = np.ones(count, dtype=bool)
    for i in indices:  # each one checked before numpy could read 1.0 or True as 1
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < count:
            raise InvalidParameterError(f"gate index {_shown(i, repr)} must be an integer in [0, {count})")
        keep[i] = False
    return Circuit._from_arrays(circuit.n_qubits, circuit.encoding[keep], circuit.params)


# A circuit's JSON document, its fields in the schema's key order.
_Document = make_dataclass("_Document", [("n_qubits", int), ("params", GenerationParams | None),
                                         ("gates", tuple[Gate, ...])])


def to_json(circuit: Circuit) -> str:
    """Serialize a circuit to the JSON schema used by the CLI.

    Angles are emitted in Python's shortest round-trip float form, so
    from_json(to_json(c)) reproduces every angle bit-exactly.
    """
    return json.dumps(encode(_Document(circuit.n_qubits, circuit.params, circuit.gates)), indent=1)


def from_json(text: str) -> Circuit:
    """Parse a circuit document; raises CircuitFormatError naming the JSON path
    of the first offending value, or InvalidParameterError if the parsed
    circuit is invalid."""
    doc = decode(_Document, loads(text, "document"), "circuit")
    return Circuit(doc.n_qubits, doc.gates, doc.params)


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
