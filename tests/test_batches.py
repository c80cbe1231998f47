"""Batched simulation gives every circuit the bits of its own run.

`pruning._pruned` simulates many circuits as one batch, each pruned at its
own kappa: one pass for their importances, and one pass of the intact
circuits with the removed gates masked for their fidelities. Its importances,
the batch's final states and its fidelities must equal, byte for byte, what
the per-circuit functions give: `importance_profile(c)` and
`fidelity(profile.baseline_state, run(remove_gates(c, removed)))`, and each
row's removal order must be `causal_prune(c, kappa).removed_indices` of c alone.
"""
import numpy as np
import pytest

from helpers import random_circuit
from qbrittle import simulator
from qbrittle.circuits import Axis, Circuit, Cnot, GenerationParams, Rotation, generate_uniform, remove_gates
from qbrittle.pruning import _pruned, _removals, causal_prune, importance_profile, removal_quota
from qbrittle.simulator import fidelity, run

# Seeds 3 and 46 of the 10-qubit family have compressed circuits at kappa 0.3
# and 0.2 that group their gates otherwise than the intact circuit: without
# the simulator's regrouping guard their masked runs lose the compressed bits.
FAMILIES = [
    ((6, 1.5, 0.3), range(12)),
    ((10, 2.3, 0.28), [*range(8), 40, 41, 44, 46]),
    ((12, 2.5, 0.25), range(4)),
]
KAPPAS = (0.1, 0.2, 0.3)


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.fixture(scope="module", params=FAMILIES, ids=lambda family: f"{family[0][0]}q")
def family(request):
    (n, alpha, rho), seeds = request.param
    circuits = [generate_uniform(GenerationParams(n, alpha, rho, seed)) for seed in seeds]
    return circuits, [importance_profile(circuit) for circuit in circuits]


# The single-circuit pruner whose removals and fidelities each batch row must reproduce.
PRUNERS = pytest.mark.parametrize("pruner", [causal_prune], ids=["causal"])


@PRUNERS
@pytest.mark.parametrize("kappa", KAPPAS)
def test_batched_profiles_and_fidelities_are_the_single_runs_bits(family, kappa, pruner):
    circuits, references = family
    importances, removed, fidelities = _pruned(circuits, [kappa] * len(circuits))
    gates = np.stack([circuit.encoding for circuit in circuits])
    baselines = simulator._runs(circuits[0].n_qubits, gates, np.empty(gates.shape))
    assert importances.shape == gates.shape
    for circuit, reference, row, baseline, gone, batched in zip(circuits, references, importances, baselines,
                                                                removed, fidelities):
        assert _same(row, reference.importances)
        assert _same(baseline, reference.baseline_state.amplitudes)
        result = pruner(circuit, kappa, reference)
        assert tuple(gone) == result.removed_indices == pruner(circuit, kappa).removed_indices
        expected = fidelity(reference.baseline_state, run(remove_gates(circuit, result.removed_indices)))
        assert _same(batched, expected) and _same(result.fidelity, expected)


@PRUNERS
def test_each_row_of_a_batch_prunes_at_its_own_kappa(family, pruner):
    # A sweep batch holds probes of several grid points.
    circuits, references = family
    kappas = [KAPPAS[i % len(KAPPAS)] for i in range(len(circuits))]
    _, removed, fidelities = _pruned(circuits, kappas)
    for circuit, reference, kappa, gone, batched in zip(circuits, references, kappas, removed, fidelities):
        result = pruner(circuit, kappa, reference)
        assert tuple(gone) == result.removed_indices and _same(batched, result.fidelity)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_masked_runs_are_the_compressed_runs_bits(family, kappa):
    circuits, references = family
    n, gates = circuits[0].n_qubits, np.stack([circuit.encoding for circuit in circuits])
    importances = np.stack([reference.importances for reference in references])
    quota = removal_quota(kappa, gates.shape[1])
    keep, removed = _removals(importances, quota)
    assert (keep.sum(axis=1) == gates.shape[1] - quota).all()
    for circuit, state, gone in zip(circuits, simulator._runs(n, gates, keep=keep), removed):
        assert _same(state, run(remove_gates(circuit, gone)).amplitudes)


def test_a_removal_that_empties_a_cnot_block_runs_the_compressed_circuit():
    # The CNOT's control stays |0>, so it scores exactly 0 and is the one gate
    # removed. The compressed circuit then merges the rotations around it into
    # one block, so the masked run of the intact blocks is not its run.
    circuit = Circuit(4, (Rotation(Axis.X, 0, 0.3), Rotation(Axis.Y, 1, 0.5), Cnot(2, 3),
                          Rotation(Axis.X, 2, 0.7), Rotation(Axis.Y, 3, 0.9)))
    reference = importance_profile(circuit)
    assert reference.importances[2] == 0.0 and (np.delete(reference.importances, 2) > 0).all()
    result = causal_prune(circuit, 0.2, profile=reference)
    assert result.removed_indices == (2,)
    gates = circuit.encoding[None]
    rotation = gates["kind"] < 3
    masks = (1 << gates["qubit"]) | (1 << np.where(rotation, gates["qubit"], gates["target"]))
    keep = np.array([[True, True, False, True, True]])
    assert simulator._regrouped(rotation, masks, keep, simulator._split(rotation, masks)[0]).tolist() == [True]
    compressed = run(result.compressed).amplitudes
    assert _same(simulator._runs(4, gates, keep=keep)[0], compressed)
    assert _same(result.fidelity, fidelity(reference.baseline_state, run(result.compressed)))
    # beside a row that needs no guard, in one batch
    other = Circuit(4, (Rotation(Axis.X, 0, 0.4), Rotation(Axis.Y, 1, 0.6), Cnot(2, 3),
                        Rotation(Axis.X, 2, 0.8), Rotation(Axis.Y, 3, 1.0)))
    both = np.stack([circuit.encoding, other.encoding])
    keep = np.array([[True, True, False, True, True], [False, True, True, True, True]])
    states = simulator._runs(4, both, keep=keep)
    assert _same(states[0], compressed)
    assert _same(states[1], run(remove_gates(other, [0])).amplitudes)


def test_rows_that_split_their_tails_apart_each_keep_their_bits():
    # Appended gates on one qubit split into two blocks, on two qubits into one.
    base = [Rotation(Axis.Y, q, 0.2 + 0.1 * q) for q in range(4)] + [Cnot(0, 1), Cnot(2, 3)]
    tails = [(0, 0), (0, 1), (2, 2), (3, 1)]
    circuits = [Circuit(4, base + [Rotation(Axis.Z, a, 0.01, "appended"), Rotation(Axis.X, b, 0.02, "appended")])
                for a, b in tails]
    gates = np.stack([circuit.encoding for circuit in circuits])
    losses = np.empty(gates.shape)
    states = simulator._runs(4, gates, losses)
    for circuit, state, row in zip(circuits, states, losses):
        single = np.empty(len(circuit))
        assert _same(state, run(circuit, single).amplitudes)
        assert _same(row, single)


def test_rows_that_differ_in_a_cnots_direction_share_its_block():
    # The rows split alike (the same kinds on the same qubits), so they run as one
    # batch throughout; the CNOT that points the other way in row 1 is applied and
    # scored from that row's own pairs, in the intact runs and in the masked ones.
    layer = [Rotation((Axis.X, Axis.Y)[q % 2], q, 0.4 + 0.3 * q) for q in range(4)]
    tail = [Rotation(Axis.Z, q, 0.2 * q + 0.1) for q in range(4)] + [Cnot(1, 2), Cnot(3, 0)] + layer
    circuits = [Circuit(4, layer + [Cnot(0, 1), Cnot(2, 3)] + tail),
                Circuit(4, layer + [Cnot(1, 0), Cnot(2, 3)] + tail)]
    gates = np.stack([circuit.encoding for circuit in circuits])
    rotation = gates["kind"] < 3
    masks = (1 << gates["qubit"]) | (1 << np.where(rotation, gates["qubit"], gates["target"]))
    assert simulator._split(rotation, masks)[1] == gates.shape[1]
    losses = np.empty(gates.shape)
    states = simulator._runs(4, gates, losses)
    assert not _same(states[0], states[1]) and losses[0, 4] != losses[1, 4]
    for circuit, state, row in zip(circuits, states, losses):
        single = np.empty(len(circuit))
        assert _same(state, run(circuit, single).amplitudes) and _same(row, single)
    keep = np.ones(gates.shape, dtype=bool)
    keep[1, 4] = False  # row 1 loses the CNOT that points the other way
    masked = simulator._runs(4, gates, keep=keep)
    assert _same(masked[0], states[0])
    assert _same(masked[1], run(remove_gates(circuits[1], [4])).amplitudes)


def _same_plan(rng, circuit: Circuit) -> list:
    """The circuit's gates with fresh axes and angles: the same blocks, other numbers."""
    return [Rotation((Axis.X, Axis.Y, Axis.Z)[rng.integers(3)], gate.qubit, float(rng.uniform(-6, 6)))
            if isinstance(gate, Rotation) else gate for gate in circuit.gates]


def test_random_batches_keep_each_rows_bits():
    # Rows share a random prefix of blocks and then part (kinds, qubits and
    # CNOT directions may all differ); n = 11 has a middle chunk.
    rng = np.random.default_rng(7)
    for _ in range(40):
        n, count = int(rng.choice([3, 5, 11])), int(rng.integers(4, 30))
        base = random_circuit(rng, n, count)
        circuits = []
        for _ in range(int(rng.integers(2, 6))):
            cut = int(rng.integers(0, count + 1))
            circuits.append(Circuit(n, _same_plan(rng, base)[:cut] + list(random_circuit(rng, n, count - cut).gates)))
        gates = np.stack([circuit.encoding for circuit in circuits])
        losses = np.empty(gates.shape)
        states = simulator._runs(n, gates, losses)
        keep = rng.random(gates.shape) < 0.7
        masked = simulator._runs(n, gates, keep=keep)
        for circuit, state, row, kept, compressed in zip(circuits, states, losses, keep, masked):
            single = np.empty(len(circuit))
            assert _same(state, run(circuit, single).amplitudes) and _same(row, single)
            assert _same(compressed, run(remove_gates(circuit, np.flatnonzero(~kept).tolist())).amplitudes)
