"""Dense statevector simulation, one block of commuting gates at a time.

Basis indexing is little-endian: qubit 0 is the least significant bit of the
amplitude index. Rotations follow R_a(theta) = exp(-i*theta*A/2), A in {X, Y, Z}.

`run` splits the gates greedily into blocks of consecutive gates that are all
rotations or all CNOTs, on pairwise disjoint qubits: a generated circuit gives
one block per rotation layer and one per CNOT layer. The gates come as the
circuit's encoding (see `circuits`), so the split loops over ints. A CNOT
block is one gather through a basis permutation cached per (n, pairs). A
rotation block is the tensor product of its 2x2 gates, applied as one small
matmul per chunk of at most 4 adjacent qubits (a Kronecker factor of at most
16 rows); a chunk without a gate is skipped.

Batches: `_evolve` runs the rows of a stack of encodings, one circuit per
row, on a stack of states. Rows that split into the same blocks (the same
kinds at the same places; the qubits may differ) take each block together:
one Kronecker batch, one batched matmul per chunk, one gather. Generated
circuits of one (n, alpha, rho) differ only in the qubits of their appended
gates, so they share every block up to the appended tail, and the rows that
split the tail alike run it together. Each matmul of a batch is the matmul a
row would make alone, so every row gets the bits of its own run; a row that
a chunk's gates miss copies its amplitudes past the chunk, as its own run
skips it. `run` is the batch of one. A batch holds at most
_BATCH_AMPLITUDES amplitudes (`_batch_limit`): 16 circuits of 10 qubits, 4 of
12, 2 of 13 and one from 14 up. With one BLAS thread these sizes timed
fastest at 10 qubits: 3-qubit chunks were slower, and larger batches cost
peak memory for no time (ROADMAP, "Measured dead ends").
A `keep` mask marks the gates that act, all of them in an intact run. A
batch runs circuits with gates removed on the intact circuit's blocks: a
removed rotation leaves its qubit's identity slot, a removed CNOT its
block's pairs. That has the bits of the compressed circuit's own run where
it splits into the same blocks; a row where it would not (a removal that
empties a CNOT block, say, so that two rotation blocks merge) runs alone.

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

Memory: a run holds the states and one buffer of their size that each block
writes into. Reading a rotation block's losses reorders the state of a
middle chunk (one whose qubits are neither the lowest nor the highest) into
a copy, whose conjugate goes into the buffer. The cache holds the
permutations of the last four CNOT pairings as int32, a quarter of a state
each. A 16- or 20-qubit run with losses peaks at about 3.1 states of traced
memory, and a test holds a warm 16-qubit run to 4.32 states. The Kronecker
factors, the reordered copies and the CNOT gathers go into per-thread
buffers kept across runs while they hold at most _KEPT_AMPLITUDES
amplitudes, so a steady stream of batches takes no fresh pages and threads
may run at once.
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

__all__ = ["StateVector", "apply_gate", "run", "fidelity", "qubit_cap", "DEFAULT_MAX_QUBITS"]

# Dense simulation above this many qubits is refused unless QBRITTLE_MAX_QUBITS
# raises the cap (2^24 complex doubles is already 256 MiB).
DEFAULT_MAX_QUBITS = 24

# A chunk factor acts on at most this many adjacent qubits (2^4 rows): 10
# qubits take chunks of 4, 4 and 2; 6, 8, 12 and 16 qubits split as with 5.
_CHUNK_QUBITS = 4
# Chunk factors built together: those of this many rotation blocks of one
# circuit, or of one block of each circuit of a larger batch.
_FACTOR_BATCH = 8
# A CNOT block's gaps are read through one cached gather on states of at most
# this many qubits; on larger ones per-pair strided views stream faster (the
# gather measured as fast at 14 qubits and half as fast at 16 and 20).
_GATHER_QUBITS = 12
# Circuits simulated as one batch hold at most this many amplitudes together:
# 16 circuits of 10 qubits, 4 of 12, 2 of 13 and one from 14 up (see the module docstring).
_BATCH_AMPLITUDES = 1 << 14
# Scratch arrays of up to this many amplitudes, a batch's CNOT gathers
# included, are kept per thread across runs (see `_kept`).
_KEPT_AMPLITUDES = 4 * _BATCH_AMPLITUDES

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


def _check_cap(n: int) -> None:
    """Raise ResourceLimitError if n qubits exceed `qubit_cap()`."""
    cap = qubit_cap()
    if n > cap:
        raise ResourceLimitError(f"{_shown(n)} qubits exceeds the simulator cap of {cap}")


def _batch_limit(n: int) -> int:
    """The most n-qubit circuits one batch of `_evolve` should hold."""
    return max(1, _BATCH_AMPLITUDES >> n)


def _greedy(flags: list, masks: list) -> list[int]:
    """Where the greedy split of gates with these rotation flags and qubit
    masks opens its blocks: a gate opens one if its kind differs from the open
    block's or it shares a qubit with it."""
    starts, used, kind = [], 0, None
    for i, (flag, mask) in enumerate(zip(flags, masks)):
        if flag is not kind or used & mask:
            starts.append(i)
            used, kind = 0, flag
        used |= mask
    return starts


def _split(rotation: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, int]:
    """Where each row's greedy blocks open, as a mask of the gates' (rows, G)
    shape, and the last gate up to which all rows split alike. Rows agree up to
    their first gate of another kind or on other qubits, so until the last
    block that opens before it they are split once, and from there row by row."""
    diverge = ((masks != masks[0]) | (rotation != rotation[0])).any(axis=0)
    stop = int(diverge.argmax()) if diverge.any() else rotation.shape[1]
    starts = _greedy(rotation[0, :stop].tolist(), masks[0, :stop].tolist())
    opens = np.zeros(rotation.shape, dtype=bool)
    opens[:, starts] = True
    if stop == rotation.shape[1]:
        return opens, stop
    last = starts[-1] if starts else 0
    for row, flags, row_masks in zip(opens[:, last:], rotation[:, last:].tolist(), masks[:, last:].tolist()):
        row[_greedy(flags, row_masks)] = True
    return opens, stop if opens[:, stop].all() else last


def _regrouped(rotation: np.ndarray, masks: np.ndarray, keep: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """Which rows' kept gates the greedy split would group otherwise than
    their blocks (`opens` marks each block's first gate): where a block's first
    kept gate would join the last non-empty block before it."""
    rows, total = keep.shape
    segments = np.flatnonzero(opens.ravel())  # every row opens a block at its gate 0
    used = np.bitwise_or.reduceat(np.where(keep, masks, 0).ravel(), segments)
    first = np.minimum.reduceat(np.where(keep.ravel(), np.arange(rows * total), rows * total), segments)
    live = first < rows * total
    first, used, row = first[live], used[live], segments[live] // total
    flags, gate_masks = rotation.ravel()[first], masks.ravel()[first]
    joins = (row[1:] == row[:-1]) & (flags[1:] == flags[:-1]) & (gate_masks[1:] & used[:-1] == 0)
    regrouped = np.zeros(rows, dtype=bool)
    regrouped[row[1:][joins]] = True
    return regrouped


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
    target clear (h = 0) and set (h = 1), `_target_halves` of the basis labels."""
    labels = np.arange(1 << n, dtype=np.intp)
    halves = np.array([[_target_halves(labels, n, *pair)[h].ravel() for pair in pairs] for h in (0, 1)])
    halves.flags.writeable = False  # cached: shared by every caller
    return halves


def _kept(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A complex scratch array of this shape, valid until the next call with
    this name on the same thread. Up to _KEPT_AMPLITUDES entries it is cut
    from a buffer of the thread that is kept for the next run, so that
    steady-state runs take no fresh pages; a larger one is allocated anew."""
    size = math.prod(shape)
    if size > _KEPT_AMPLITUDES:
        return np.empty(shape, dtype=complex)
    buffer = getattr(_scratch, name, None)
    if buffer is None or len(buffer) < size:
        buffer = np.empty(size, dtype=complex)
        setattr(_scratch, name, buffer)
    return buffer[:size].reshape(shape)


def _kron_factors(mats: np.ndarray) -> np.ndarray:
    """mats[..., -1, :, :] (x) ... (x) mats[..., 0, :, :]: qubit 0 of a chunk is its lowest bit.

    Built in two kept buffers of the calling thread in turn (see `_kept`); the
    result is valid until the next call on the same thread."""
    lead = mats.shape[:-3]
    factors = mats[..., 0, :, :]
    for p in range(1, mats.shape[-3]):
        d = 2 * factors.shape[-1]
        out = _kept(f"factors{p % 2}", (*lead, 2, d // 2, 2, d // 2))
        np.multiply(mats[..., p, :, None, :, None], factors[..., None, :, None, :], out=out)
        factors = out.reshape(*lead, d, d)
    return factors


def _cnot_gaps(amps: np.ndarray, n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """|t0 - t1|^2 of each CNOT in each row of `amps`, shape (rows, pairs): the
    control=1 amplitudes with the target clear minus set, summed as squares of
    the difference's float view."""
    if n <= _GATHER_QUBITS:
        t = amps.take(_gap_halves(n, pairs), axis=1, out=_kept("halves", (len(amps), 2, len(pairs), 1 << (n - 2))),
                      mode="clip")  # in range; "raise" stages a copy
        diff = np.subtract(t[:, 0], t[:, 1], out=t[:, 0]).view(np.float64)
        # einsum's iterator buffers 8192 elements; rows up to that long
        # (n <= 14) each sum as the per-pair einsum("i,i->") below would.
        return np.einsum("bpi,bpi->bp", diff, diff)
    diff = np.empty(1 << (n - 2), dtype=complex)
    flat = diff.view(np.float64)
    gaps = np.empty((len(amps), len(pairs)))
    for row, gap in zip(amps, gaps):
        for k, (control, target) in enumerate(pairs):
            t0, t1 = _target_halves(row, n, control, target)
            np.subtract(t0, t1, out=diff.reshape(t0.shape))
            gap[k] = np.einsum("i,i->", flat, flat)
    return gaps


def _evolve(amps: np.ndarray, n: int, gates: np.ndarray, keep: np.ndarray,
            losses: np.ndarray | None = None) -> np.ndarray:
    """Apply the kept gates of each row of the encodings `gates` (rows, G) to
    the same row of `amps` (rows, 2^n), which is overwritten, and return the
    array that holds the results; fill `losses` (rows, G) if it is given.

    Rows that split into blocks alike run them as one batch, each row on its
    own qubits; where the rows' splits part, the blocks before run for all rows
    and each group of rows that split the rest alike runs it as a batch.
    Greedy blocks restart at a block boundary, so every row gets the bits of
    its own run. Only the gates that `keep` (rows, G) marks act: a removed
    rotation leaves an identity slot, a removed CNOT leaves its block's pairs.
    A row gets the bits of a run of its kept gates alone, since that run forms
    the same blocks; a row whose kept gates would group otherwise runs them
    alone. `losses` needs an all-True `keep`: a removed gate has no deletion loss."""
    rotation = gates["kind"] < 3
    masks = (1 << gates["qubit"]) | (1 << np.where(rotation, gates["qubit"], gates["target"]))
    opens, cut = _split(rotation, masks)
    if not keep.all():
        regrouped = _regrouped(rotation, masks, keep, opens)
        if regrouped.any():
            for b in np.flatnonzero(regrouped):
                amps[b] = _evolve(amps[b:b + 1], n, gates[b:b + 1, keep[b]], keep[b:b + 1, keep[b]])[0]
            rest = ~regrouped
            if rest.any():
                amps[rest] = _evolve(amps[rest], n, gates[rest], keep[rest])
            return amps
    groups = {}
    for b, (row_opens, row_rotation) in enumerate(zip(opens[:, cut:], rotation[:, cut:])):
        groups.setdefault((row_opens.tobytes(), row_rotation.tobytes()), []).append(b)
    if len(groups) == 1:
        return _shared_run(amps, n, gates, rotation[0], masks, np.flatnonzero(opens[0]).tolist(), keep, losses)
    head = (slice(None), slice(None, cut))
    amps = _shared_run(amps, n, gates[head], rotation[0, :cut], masks[head], np.flatnonzero(opens[0, :cut]).tolist(),
                       keep[head], None if losses is None else losses[head])
    for group in groups.values():
        tail = (group, slice(cut, None))
        part = None if losses is None else np.empty((len(group), gates.shape[1] - cut))
        amps[group] = _shared_run(amps[group], n, gates[tail], rotation[group[0], cut:], masks[tail],
                                  np.flatnonzero(opens[group[0], cut:]).tolist(), keep[tail], part)
        if losses is not None:
            losses[tail] = part
    return amps


def _shared_run(amps: np.ndarray, n: int, gates: np.ndarray, rotation: np.ndarray, masks: np.ndarray,
                starts: list[int], keep: np.ndarray, losses: np.ndarray | None) -> np.ndarray:
    """`_evolve` on rows whose blocks open at the same `starts`, with the
    rotations that `rotation` flags; `masks` holds each gate's qubits."""
    rows, total = gates.shape
    flags, qubits, targets = rotation.tolist(), gates["qubit"][0].tolist(), gates["target"][0].tolist()
    count, width = _layout(n)
    chunks = [(i, lo, min(lo + width, n), ((1 << width) - 1) << lo) for i, lo in enumerate(range(0, n, width))]
    stops = starts[1:] + [total]
    lengths = [stop - start for start, stop in zip(starts, stops) if flags[start]]
    slots = np.repeat(np.arange(len(lengths)) * (count * width), lengths) + gates["qubit"][:, rotation]
    axes, thetas = gates["kind"][:, rotation], (gates["theta"] * keep)[:, rotation]  # removed: angle 0, exactly I
    half = 0.5 * thetas
    sin_half = np.sin(half)
    mats = np.cos(half)[..., None, None] * _IDENTITY + sin_half[..., None, None] * _MINUS_I_PAULI[axes]
    per_qubit = np.broadcast_to(_IDENTITY, (rows, len(lengths) * count * width, 2, 2)).copy()
    per_qubit[np.arange(rows)[:, None], slots] = mats
    per_qubit = per_qubit.reshape(rows, len(lengths), count, width, 2, 2)
    # Per block: the qubits of each row's kept gates, their union, whether all
    # rows have the same, and the rows whose kept CNOTs are not the first row's
    # (all of them, as the block's shared gather applies them).
    kept = np.where(keep, masks, 0)
    used = np.bitwise_or.reduceat(kept, starts, axis=1) if starts else np.zeros((rows, 0), dtype=int)
    union, alike = np.bitwise_or.reduce(used, axis=0).tolist(), (used == used[0]).all(axis=0).tolist()
    apart = [()] * len(starts)
    other = ((kept != masks[0]) | (gates["qubit"] != gates["qubit"][0])) & ~rotation  # only CNOT blocks read it
    for j, column in zip(*np.nonzero(np.logical_or.reduceat(other, starts, axis=1).T)) if starts else ():
        apart[j] += (column,)
    # Factors of up to _FACTOR_BATCH blocks of one row, or of one block of each row, per build.
    per_build = max(1, _FACTOR_BATCH // rows)
    if losses is not None:
        rho = np.zeros((rows, count, 1 << width, 1 << width), dtype=complex)
        readings = np.empty((len(lengths), rows, count, 3, width), dtype=complex)
        gaps = []
    buf = np.empty_like(amps)
    ordinal = 0
    for j, (start, stop) in enumerate(zip(starts, stops)):
        if not flags[start]:
            pairs = tuple(zip(qubits[start:stop], targets[start:stop]))
            if losses is not None:
                gaps.append(_cnot_gaps(amps, n, pairs))
            amps.take(_cnot_permutation(n, pairs), axis=1, out=buf, mode="clip")  # in range; "raise" stages a copy
            for b in apart[j]:
                row_pairs = zip(gates["qubit"][b, start:stop].tolist(), gates["target"][b, start:stop].tolist())
                own = tuple(pair for k, pair in enumerate(row_pairs, start) if keep[b, k])
                if losses is not None:
                    gaps[-1][b] = _cnot_gaps(amps[b:b + 1], n, own)[0]
                amps[b].take(_cnot_permutation(n, own), out=buf[b], mode="clip")  # no pair: the identity, a copy
            amps, buf = buf, amps
            continue
        if ordinal % per_build == 0:
            factors = _kron_factors(per_qubit[:, ordinal:ordinal + per_build])
        touched = [chunk for chunk in chunks if union[j] & chunk[3]]
        if losses is not None:
            for i, lo, hi, _ in touched:
                d = 1 << (hi - lo)
                chunk_rows = amps.reshape(rows, 1 << (n - hi), d, 1 << lo).transpose(0, 2, 1, 3)
                if 0 < lo and hi < n:  # the rows of a middle chunk are no view of the state: reorder a copy
                    copy = _kept("rows", chunk_rows.shape)
                    np.copyto(copy, chunk_rows)
                    chunk_rows = copy
                chunk_rows = chunk_rows.reshape(rows, d, -1)
                conj = np.conjugate(chunk_rows, out=buf.reshape(chunk_rows.shape))  # buf is free until the matmuls
                np.matmul(chunk_rows, conj.transpose(0, 2, 1), out=rho[:, i, :d, :d])
            index, weights = _reading_index(width)
            entries = rho.reshape(rows, count, -1).take(index, axis=2)
            np.matmul(entries, weights, out=readings[ordinal].reshape(rows, count, -1))
        for i, lo, hi, mask in touched:
            d = 1 << (hi - lo)
            factor = factors[:, ordinal % per_build, i, :d, :d]
            if lo == 0:
                np.matmul(amps.reshape(rows, -1, d), factor.transpose(0, 2, 1), out=buf.reshape(rows, -1, d))
            else:
                shape = (rows, 1 << (n - hi), d, 1 << lo)
                np.matmul(factor[:, None], amps.reshape(shape), out=buf.reshape(shape))
            if not alike[j]:
                idle = used[:, j] & mask == 0
                buf[idle] = amps[idle]  # a chunk that a row's gates miss keeps its bits, as in that row's own run
            amps, buf = buf, amps
        ordinal += 1
    if losses is not None:
        readings = readings.transpose(3, 1, 0, 2, 4).reshape(3, rows, len(lengths) * count * width)
        overlap, p0, p1 = np.take_along_axis(readings, slots[None], axis=2)
        expectation = 2.0 * np.where(axes == 0, overlap.real, overlap.imag)
        factor = np.where(axes == 2, np.minimum(4.0 * p0.real * p1.real, 1.0),
                          1.0 - np.minimum(expectation * expectation, 1.0))
        gap = np.minimum(np.concatenate(gaps, axis=1) if gaps else np.empty((rows, 0)), 2.0)
        losses[:, rotation] = sin_half * sin_half * factor
        losses[:, ~rotation] = gap * (2.0 - gap)
    return amps


def _runs(n: int, gates: np.ndarray, losses: np.ndarray | None = None, keep: np.ndarray | None = None) -> np.ndarray:
    """The final states, one row each, of the circuits on n qubits whose encodings are
    the rows of `gates`, applied to the all-zeros state; `keep` None keeps every gate (see `_evolve`).

    Every simulated state starts here: n qubits above `qubit_cap()`, or states
    too large to allocate, raise ResourceLimitError."""
    _check_cap(n)
    try:
        amps = np.zeros((len(gates), 1 << n), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:  # numpy raises ValueError from 60 qubits up
        raise ResourceLimitError(f"cannot allocate the state of {_shown(n)} qubits: {exc}") from None
    amps[:, 0] = 1.0
    keep = np.ones(gates.shape, dtype=bool) if keep is None else keep
    return _evolve(amps, n, gates, keep, losses)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the mutated state, whose amplitudes
    must be a writeable complex128 array of 2^n_qubits entries."""
    amplitudes = _amplitudes(state)
    if amplitudes.dtype != np.complex128 or not amplitudes.flags.writeable:
        shown = "writeable" if amplitudes.flags.writeable else "read-only"
        raise InvalidParameterError(f"apply_gate needs writeable complex128 amplitudes, got a {shown} "
                                    f"array of dtype {amplitudes.dtype}")
    gates = Circuit(state.n_qubits, (gate,)).encoding  # checks the gate against the state
    amplitudes[...] = _evolve(amplitudes[None].copy(), state.n_qubits, gates[None], np.ones((1, 1), dtype=bool))[0]
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
    n = circuit.n_qubits
    return StateVector(n, _runs(n, circuit.encoding[None], None if losses is None else losses[None])[0])


def _amplitudes(state: StateVector) -> np.ndarray:
    """The amplitudes of `state`; raise unless it is a StateVector whose
    amplitudes are a 1-D numeric array of 2^n_qubits entries."""
    if not isinstance(state, StateVector):
        raise InvalidParameterError(f"a state must be a StateVector, got {type(state).__name__}")
    n, amplitudes = _width(state.n_qubits, "a state's n_qubits"), state.amplitudes
    # min(n, 63): no array holds 2^63 entries, and 1 << n for a huge n would be a huge int
    if not (isinstance(amplitudes, np.ndarray) and np.issubdtype(amplitudes.dtype, np.number)
            and amplitudes.shape == (1 << min(n, 63),)):
        shown = (f"an array of dtype {amplitudes.dtype} and shape {amplitudes.shape}"
                 if isinstance(amplitudes, np.ndarray) else type(amplitudes).__name__)
        raise InvalidParameterError(f"a {_shown(n)}-qubit state needs 2^{_shown(n)} amplitudes in a 1-D numeric "
                                    f"array, got {shown}")
    return amplitudes


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, clamped into [0, 1] to absorb last-bit rounding."""
    amplitudes_a, amplitudes_b = _amplitudes(a), _amplitudes(b)
    if a.n_qubits != b.n_qubits:
        raise InvalidParameterError(f"fidelity of states on {a.n_qubits} and {b.n_qubits} qubits is undefined")
    overlap = abs(np.einsum("i,i->", amplitudes_a.conj(), amplitudes_b)) ** 2
    if not math.isfinite(overlap):  # a NaN or infinite amplitude makes the overlap NaN or infinite
        raise InvalidParameterError("fidelity of states with non-finite amplitudes is undefined")
    return float(min(max(overlap, 0.0), 1.0))
