"""Dense statevector simulation, one block of commuting gates at a time.

Basis indexing is little-endian: qubit 0 is the least significant bit of the
amplitude index. Rotations follow R_a(theta) = exp(-i*theta*A/2), A in {X, Y, Z}.

`run` splits the gates greedily into blocks of consecutive gates that are all
rotations or all CNOTs, on pairwise disjoint qubits: a generated circuit gives
one block per rotation layer and one per CNOT layer. The gates come as the
circuit's encoding (see `circuits`), so the split loops over ints. A CNOT
block is one gather through a basis permutation cached per (n, pairs). A
rotation block is the tensor product of its 2x2 gates, applied as one small
matmul per chunk of at most 5 adjacent qubits (a Kronecker factor of at most
32 rows); a chunk without a gate is skipped.

With `losses`, `run` also writes each gate's deletion loss 1 - |<f|G|f>|^2,
which is how the leave-one-out profile costs one pass. A loss depends only on
the reduced state of the gate's own qubits, which the rest of its block does
not touch, so every loss of a block is read from the state f at its start:
    rotation  sin^2(theta/2) * (1 - <A>^2), written for Z as
              sin^2(theta/2) * 4*P0*P1 (P0, P1: probabilities of 0 and 1)
    CNOT      1 - <CX>^2 = g * (2 - g), g = |t0 - t1|^2 = 1 - <CX>, with t0, t1
              the control=1 amplitudes with the target clear and set.
<A>, P0 and P1 come from each chunk's reduced density matrix, a small Gram
matrix of a view of f. 4*P0*P1 and g are sums of squares, so they are exactly
0 when a half is exactly 0. The losses never touch the state: `run(c)` and
`run(c, losses)` return the same bits. A CNOT block's gaps come from one
gather of every pair's halves t0, t1 through an index cached per (n, pairs),
one subtract and one sum, on states of up to _GATHER_QUBITS qubits; on
larger states, where strided views stream faster, pair by pair.

Memory: a run holds the state and one state-sized buffer that each block
writes into. Reading a rotation block's losses adds one reordered copy of
the state per chunk, freed before the next, whose conjugate goes into the
buffer. The cache holds the permutations of the last four CNOT pairings as
int32, a quarter of a state each. A 20-qubit run peaks at about 3.6 states
of traced memory, and a test holds a warm 16-qubit run to 4.32 states. The
Kronecker factors are built in per-thread buffers sized by the chunk layout
and kept across runs, so a steady stream of runs takes no fresh pages and
threads may run at once.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, _check_per_gate, _width
from .errors import InvalidParameterError, ResourceLimitError, _shown

__all__ = ["StateVector", "zero_state", "apply_gate", "run", "fidelity", "qubit_cap", "DEFAULT_MAX_QUBITS"]

# Dense simulation above this many qubits is refused unless QBRITTLE_MAX_QUBITS
# raises the cap (2^24 complex doubles is already 256 MiB).
DEFAULT_MAX_QUBITS = 24

# A chunk factor acts on at most this many adjacent qubits (2^5 rows).
_CHUNK_QUBITS = 5
# Rotation blocks whose chunk factors are built together: one batch of
# Kronecker products instead of one per block, at a bounded memory cost.
_FACTOR_BATCH = 8
# A CNOT block's gaps are read through one cached gather on states of at most
# this many qubits; on larger ones per-pair strided views stream faster (the
# gather measured as fast at 14 qubits and half as fast at 16 and 20).
_GATHER_QUBITS = 12

# R_A(theta) = cos(theta/2) I + sin(theta/2) (-iA), stacked by axis code.
_MINUS_I_PAULI = np.array([[[0, -1j], [-1j, 0]], [[0, -1], [1, 0]], [[-1j, 0], [0, 1j]]])
_IDENTITY = np.eye(2, dtype=complex)
# Per thread: buffers that every run overwrites before it reads them.
_scratch = threading.local()


@dataclass(eq=False)
class StateVector:
    """2^n complex amplitudes of an n-qubit pure state; == is identity."""

    n_qubits: int
    amplitudes: np.ndarray


def qubit_cap() -> int:
    """The largest qubit count the simulator accepts: QBRITTLE_MAX_QUBITS if
    set, DEFAULT_MAX_QUBITS otherwise. It is read on every call, so library
    callers and worker processes obey the same cap as the CLI."""
    raw = os.environ.get("QBRITTLE_MAX_QUBITS")
    if not raw:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidParameterError(f"QBRITTLE_MAX_QUBITS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InvalidParameterError(f"QBRITTLE_MAX_QUBITS must be at least 1, got {raw!r}")
    return cap


def zero_state(n: int) -> StateVector:
    """The all-zeros computational basis state |0...0> on n qubits."""
    n = _width(n, "qubit count")
    cap = qubit_cap()
    if n > cap:
        raise ResourceLimitError(f"{_shown(n)} qubits exceeds the simulator cap of {cap}")
    try:
        amplitudes = np.zeros(1 << n, dtype=np.complex128)
    except (MemoryError, ValueError) as exc:  # numpy raises ValueError from 60 qubits up
        raise ResourceLimitError(f"cannot allocate the state of {_shown(n)} qubits: {exc}") from None
    amplitudes[0] = 1.0
    return StateVector(n, amplitudes)


def _compile(gates: np.ndarray, n: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Split the encoded gates greedily into blocks (qubit mask, CNOT pairs or None
    for rotations) of consecutive gates of one kind on pairwise disjoint qubits.
    Also return which gates are rotations, and each rotation's slot, its row in the
    stack of per-qubit matrices: rotation block ordinal * count * width + qubit."""
    rotation = gates["kind"] < 3
    masks = (1 << gates["qubit"]) | (1 << np.where(rotation, gates["qubit"], gates["target"]))
    flags = rotation.tolist()
    starts, spans, used, kind = [], [], 0, None
    for i, (flag, mask) in enumerate(zip(flags, masks.tolist())):
        if flag is not kind or used & mask:
            starts.append(i)
            spans.append(used)  # the mask of the block this gate ends
            used, kind = 0, flag
        used |= mask
    stops = starts[1:] + [len(flags)]
    qubits, targets = gates["qubit"].tolist(), gates["target"].tolist()
    blocks = [(used, None if flags[start] else tuple(zip(qubits[start:stop], targets[start:stop])))
              for start, stop, used in zip(starts, stops, spans[1:] + [used])]
    lengths = [stop - start for start, stop in zip(starts, stops) if flags[start]]
    count, width = _layout(n)
    slots = np.repeat(np.arange(len(lengths)) * (count * width), lengths) + gates["qubit"][rotation]
    return blocks, rotation, slots


def _layout(n: int) -> tuple[int, int]:
    """(count, width): chunk i covers qubits [i*width, min((i+1)*width, n)),
    as few chunks as _CHUNK_QUBITS allows, of near-equal widths."""
    count = -(-n // _CHUNK_QUBITS)
    return count, -(-n // count)


@functools.lru_cache(maxsize=None)
def _reading_index(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the entries of a chunk density matrix rho that are
    read, and 0/1 weights summing them into three readings per qubit p of the
    chunk (column r*width + p): <a|b> for the halves a, b of qubit p, which is
    rho[j + 2^p, j] summed over j with bit p clear; P0; and P1."""
    d, half = 1 << width, 1 << (width - 1)
    index, weights = [], np.zeros((width * half + d, 3 * width), dtype=complex)
    for p in range(width):
        clear = np.array([j for j in range(d) if not j >> p & 1])
        index.append((clear + (1 << p)) * d + clear)
        weights[p * half + np.arange(half), p] = 1.0
        weights[width * half + clear, width + p] = 1.0
        weights[width * half + clear + (1 << p), 2 * width + p] = 1.0
    index = np.concatenate([*index, np.arange(d) * (d + 1)])
    index.flags.writeable = weights.flags.writeable = False  # cached: shared by every caller
    return index, weights


def _target_halves(a: np.ndarray, n: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the entries of `a` with the control set and the target clear, and set."""
    hi, lo = max(control, target), min(control, target)
    view = a.reshape(1 << (n - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return (view[:, 1, :, 0], view[:, 1, :, 1]) if control == hi else (view[:, 0, :, 1], view[:, 1, :, 1])


# A generated circuit alternates two pairings; its compressed copy, with some
# CNOTs removed, brings two more, which must not evict the first two.
@functools.lru_cache(maxsize=4)
def _cnot_permutation(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Gather index of a block of CNOTs on disjoint pairs, out[i] = in[perm[i]]:
    the block applied to the basis labels 0 .. 2^n - 1, as int32 (n < 31)
    to halve the cache."""
    labels = np.arange(1 << n, dtype=np.int32)
    perm = labels.copy()
    for control, target in pairs:  # the block flips each target bit whose control bit is set
        perm ^= (labels >> control & 1) << target
    perm.flags.writeable = False  # cached: shared by every caller
    return perm


@functools.lru_cache(maxsize=2)  # only runs with losses read it: the profiles of intact circuits
def _gap_halves(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """halves[h, k]: the labels of pair k's control=1 amplitudes with the
    target clear (h = 0) and set (h = 1), ascending as in `_target_halves`."""
    labels = np.arange(1 << n, dtype=np.intp)
    clear = np.array([labels[(labels >> control & 1) > (labels >> target & 1)] for control, target in pairs])
    halves = np.stack([clear, clear | np.array([[1 << target] for _, target in pairs])])
    halves.flags.writeable = False  # cached: shared by every caller
    return halves


def _kron_factors(mats: np.ndarray) -> np.ndarray:
    """mats[..., -1, :, :] (x) ... (x) mats[..., 0, :, :]: qubit 0 of a chunk is its lowest bit.

    Built in two flat buffers of the calling thread in turn, sized for a
    batch of factors of the chunk layout and kept for the next run, so that
    steady-state runs take no fresh pages. The result is valid until the
    next call on the same thread."""
    lead = mats.shape[:-3]
    size = math.prod(lead) << 2 * mats.shape[-3]
    buffers = getattr(_scratch, "factors", None)
    if buffers is None or len(buffers[0]) < size:
        buffers = _scratch.factors = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    factors = mats[..., 0, :, :]
    for p in range(1, mats.shape[-3]):
        d = 2 * factors.shape[-1]
        out = buffers[p % 2][:math.prod(lead) * d * d].reshape(*lead, 2, d // 2, 2, d // 2)
        np.multiply(mats[..., p, :, None, :, None], factors[..., None, :, None, :], out=out)
        factors = out.reshape(*lead, d, d)
    return factors


def _cnot_gaps(amps: np.ndarray, n: int, pairs: tuple[tuple[int, int], ...]) -> list[float]:
    """|t0 - t1|^2 of each CNOT: the control=1 amplitudes with the target
    clear minus set, summed as squares of the difference's float view."""
    if n <= _GATHER_QUBITS:
        t = amps.take(_gap_halves(n, pairs))
        diff = np.subtract(t[0], t[1], out=t[0]).view(np.float64)
        # einsum's iterator buffers 8192 elements; rows up to that long
        # (n <= 14) each sum as the per-pair einsum("i,i->") below would.
        return list(np.einsum("pi,pi->p", diff, diff))
    diff = np.empty(1 << (n - 2), dtype=complex)
    flat = diff.view(np.float64)
    gaps = []
    for control, target in pairs:
        t0, t1 = _target_halves(amps, n, control, target)
        np.subtract(t0, t1, out=diff.reshape(t0.shape))
        gaps.append(np.einsum("i,i->", flat, flat))
    return gaps


def _evolve(amps: np.ndarray, n: int, gates: np.ndarray, losses: np.ndarray | None) -> np.ndarray:
    """Apply the gates block by block to `amps`, which is overwritten, and
    return the array that holds the result; fill `losses` if it is given."""
    blocks, rotation, slots = _compile(gates, n)
    count, width = _layout(n)
    chunks = [(lo, min(lo + width, n), ((1 << width) - 1) << lo) for lo in range(0, n, width)]
    rotation_blocks = sum(pairs is None for _, pairs in blocks)
    axes, thetas = gates["kind"][rotation], gates["theta"][rotation]
    half = 0.5 * thetas[:, None, None]
    per_qubit = np.broadcast_to(_IDENTITY, (rotation_blocks * count * width, 2, 2)).copy()
    per_qubit[slots] = np.cos(half) * _IDENTITY + np.sin(half) * _MINUS_I_PAULI[axes]
    per_qubit = per_qubit.reshape(rotation_blocks, count, width, 2, 2)
    if losses is not None:
        rho = np.zeros((count, 1 << width, 1 << width), dtype=complex)
        readings = np.empty((rotation_blocks, count, 3, width), dtype=complex)
        gaps = []
    buf = np.empty_like(amps)
    ordinal = 0
    for used, pairs in blocks:
        if pairs is not None:
            if losses is not None:
                gaps += _cnot_gaps(amps, n, pairs)
            amps.take(_cnot_permutation(n, pairs), out=buf, mode="clip")  # in range; "raise" stages a copy
            amps, buf = buf, amps
            continue
        if ordinal % _FACTOR_BATCH == 0:
            factors = _kron_factors(per_qubit[ordinal:ordinal + _FACTOR_BATCH])
        touched = [(i, lo, hi) for i, (lo, hi, mask) in enumerate(chunks) if used & mask]
        if losses is not None:
            for i, lo, hi in touched:
                rows = amps.reshape(1 << (n - hi), -1, 1 << lo).transpose(1, 0, 2).reshape(1 << (hi - lo), -1)
                conj = np.conjugate(rows, out=buf.reshape(rows.shape))  # buf is free until the matmuls below
                np.matmul(rows, conj.T, out=rho[i, :len(rows), :len(rows)])
                del rows  # a state-sized copy for most chunks: free it before the next one is made
            index, weights = _reading_index(width)
            entries = rho.reshape(count, -1).take(index, axis=1)
            np.matmul(entries, weights, out=readings[ordinal].reshape(count, -1))
        for i, lo, hi in touched:
            d = 1 << (hi - lo)
            factor = factors[ordinal % _FACTOR_BATCH, i, :d, :d]
            if lo == 0:
                np.matmul(amps.reshape(-1, d), factor.T, out=buf.reshape(-1, d))
            else:
                shape = (1 << (n - hi), d, 1 << lo)
                np.matmul(factor, amps.reshape(shape), out=buf.reshape(shape))
            amps, buf = buf, amps
        ordinal += 1
    if losses is not None:
        overlap, p0, p1 = readings.transpose(2, 0, 1, 3).reshape(3, -1)[:, slots]
        sin_half = np.array([math.sin(0.5 * theta) for theta in thetas.tolist()])
        expectation = 2.0 * np.where(axes == 0, overlap.real, overlap.imag)
        factor = np.where(axes == 2, np.minimum(4.0 * p0.real * p1.real, 1.0),
                          1.0 - np.minimum(expectation * expectation, 1.0))
        gap = np.minimum(np.array(gaps), 2.0)
        losses[rotation] = sin_half * sin_half * factor
        losses[~rotation] = gap * (2.0 - gap)
    return amps


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the mutated state."""
    gates = Circuit(state.n_qubits, (gate,)).encoding  # checks the gate against the state
    state.amplitudes[...] = _evolve(state.amplitudes.copy(), state.n_qubits, gates, None)
    return state


def run(circuit: Circuit, losses: np.ndarray | None = None) -> StateVector:
    """Apply the circuit's gates in order to the all-zeros state.

    If `losses` (a writeable 1-D float64 array, one entry per gate) is given, losses[i]
    receives gate i's deletion loss 1 - |<f_i|G_i|f_i>|^2, evaluated on the
    state f_i just before gate i (equivalently, at the start of its block).
    The returned state is the same either way.
    """
    if losses is not None:
        if not (isinstance(losses, np.ndarray) and losses.dtype == np.float64 and losses.ndim == 1):
            shown = (f"an array of dtype {losses.dtype} and shape {losses.shape}" if isinstance(losses, np.ndarray)
                     else type(losses).__name__)
            raise InvalidParameterError(f"losses must be a 1-D float64 array, got {shown}")
        if not losses.flags.writeable:
            raise InvalidParameterError("losses must be a writeable array, got a read-only one")
        _check_per_gate(losses, circuit, "losses")
    state = zero_state(circuit.n_qubits)
    state.amplitudes = _evolve(state.amplitudes, state.n_qubits, circuit.encoding, losses)
    return state


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped into [0, 1] to absorb last-bit rounding."""
    if a.n_qubits != b.n_qubits:
        raise InvalidParameterError(f"fidelity of states on {a.n_qubits} and {b.n_qubits} qubits is undefined")
    overlap = np.einsum("i,i->", a.amplitudes.conj(), b.amplitudes)
    return float(min(max(abs(overlap) ** 2, 0.0), 1.0))
