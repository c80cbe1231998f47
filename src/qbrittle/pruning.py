"""Leave-one-out gate importance and causal pruning.

The importance of gate i is the fidelity loss from deleting it alone:
I_i = 1 - |<psi|psi_without_i>|^2, always measured against the intact circuit
(no iterative recomputation). Deleting G_i from C = A_i G_i B_i leaves A_i B_i,
and A_i cancels in the overlap: <psi|psi_without_i> = <f_i|G_i^dagger|f_i>
with f_i = B_i|0> the state before gate i. So I_i = 1 - |<f_i|G_i|f_i>|^2 is a
one-gate expectation value on a state that one forward pass visits anyway;
`simulator.run` evaluates it in closed form (see its module docstring): a
rotation never exceeds sin^2(theta/2), and a phase gate on a basis state
scores exactly 0. Causal pruning ranks gates by ascending importance (ties
broken by gate index) and deletes the floor(kappa*N) least important ones in
one batch. The compressed circuit's fidelity comes from the intact circuit
run with the removed gates masked (see `simulator`). `_pruned` is the one
engine: ensembles and sweeps prune many circuits through it at once, and
`causal_prune` of a single circuit is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .circuits import Circuit, Cnot, Rotation, _check_per_gate, floor_product, remove_gates
from .codec import write_csv
from .errors import InvalidParameterError, _shown
from .simulator import StateVector, _amplitudes, _runs, fidelity, run
from .stats import _sample

__all__ = [
    "ImportanceProfile",
    "CompressionResult",
    "importance_profile",
    "causal_prune",
    "removal_quota",
    "write_importance_csv",
]


@dataclass(frozen=True, eq=False)
class ImportanceProfile:
    """Per-gate leave-one-out importances of `circuit`, one per gate, plus its final state; == is identity."""

    circuit: Circuit
    importances: np.ndarray
    baseline_state: StateVector

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, Circuit):
            raise InvalidParameterError(f"a profile's circuit must be a Circuit, got {type(self.circuit).__name__}")
        object.__setattr__(self, "importances", _sample(self.importances, "importance profile"))
        _check_per_gate(self.importances, self.circuit, "importance profile")
        _amplitudes(self.baseline_state)
        if self.baseline_state.n_qubits != self.circuit.n_qubits:
            raise InvalidParameterError(f"importance profile's baseline state has {self.baseline_state.n_qubits} "
                                        f"qubits for a {self.circuit.n_qubits}-qubit circuit")


@dataclass(frozen=True)
class CompressionResult:
    compressed: Circuit
    removed_indices: tuple[int, ...]
    fidelity: float
    kappa_effective: float


def importance_profile(circuit: Circuit) -> ImportanceProfile:
    """Leave-one-out importance of every gate against the intact circuit.

    The gates after gate i cancel, <psi|C_without_i|0> = <f_i|G_i^dagger|f_i>
    with f_i the state before gate i, so the profile costs one `run` that
    records each gate's closed-form loss. The final state of that pass is the
    baseline, bit-identical to `run(circuit)`.
    """
    if len(circuit) == 0:
        raise InvalidParameterError("importance profile of an empty circuit is undefined")
    importances = np.empty(len(circuit))
    state = run(circuit, importances)
    return ImportanceProfile(circuit, importances, state)


def removal_quota(kappa: float, n_gates: int) -> int:
    """floor(kappa*N) for a kappa in (0, 1) that removes at least one gate; needs no simulation."""
    if not 0.0 < kappa < 1.0:
        raise InvalidParameterError(f"compression ratio kappa must lie in (0, 1), got {_shown(kappa)}")
    quota = floor_product(kappa, n_gates)
    if quota < 1:
        raise InvalidParameterError(
            f"kappa={kappa} removes no gates from a {n_gates}-gate circuit (floor(kappa*N) = 0)"
        )
    return quota


def _removals(importances: np.ndarray, quota: int | np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """For each row of importances (circuits, N): which gates a prune keeps,
    and the floor(kappa*N) = `quota` (an int, or one per row in shape
    (circuits, 1)) least important gates it removes, in removal order."""
    ranked = np.argsort(importances, axis=1, kind="stable")  # ascending; ties resolve by gate index
    chosen = np.broadcast_to(np.arange(ranked.shape[1]) < quota, ranked.shape)
    keep = np.empty_like(chosen)
    np.put_along_axis(keep, ranked, ~chosen, axis=1)
    return keep, [row[taken].tolist() for row, taken in zip(ranked, chosen)]


def _pruned(circuits: Sequence[Circuit], kappas: Sequence[float],
            profile: ImportanceProfile | None = None) -> tuple[np.ndarray, list[list[int]], list[float]]:
    """The one pruning engine: `causal_prune(circuit, kappa)` of circuits with
    as many gates on as many qubits (generated circuits of one (n, alpha, rho),
    say), each at its own kappa, bit for bit. Returns their importances (one
    row per circuit), each row's removed gates in removal order, and their
    fidelities. A single prune is the batch of one, whose `profile` may stand
    in for the profile pass; quotas fail before the batched profile pass and
    the masked run of the intact circuits."""
    n, size = circuits[0].n_qubits, len(circuits[0])
    quotas = np.array([[removal_quota(kappa, size)] for kappa in kappas])
    gates = np.stack([circuit.encoding for circuit in circuits])
    if profile is None:
        importances = np.empty(gates.shape)
        baselines = _runs(n, gates, importances)
    else:
        importances, baselines = profile.importances[None], profile.baseline_state.amplitudes[None]
    keep, removed = _removals(importances, quotas)
    return importances, removed, [fidelity(StateVector(n, baseline), StateVector(n, state))
                                  for baseline, state in zip(baselines, _runs(n, gates, keep=keep))]


def causal_prune(
    circuit: Circuit,
    kappa: float,
    profile: ImportanceProfile | None = None,
) -> CompressionResult:
    """Remove the floor(kappa*N) least important gates in one batch.

    `profile` may be passed to reuse a precomputed importance profile once it
    is checked to be this circuit's. removed_indices are reported in removal
    (ascending-importance) order.
    """
    if profile is not None and not isinstance(profile, ImportanceProfile):
        raise InvalidParameterError(f"profile must be an ImportanceProfile or None, got {type(profile).__name__}")
    if profile is not None and profile.circuit is not circuit and profile.circuit != circuit:
        raise InvalidParameterError("importance profile was computed for another circuit")
    _, (removed,), (retained,) = _pruned([circuit], [kappa], profile)
    return CompressionResult(compressed=remove_gates(circuit, removed), removed_indices=tuple(removed),
                             fidelity=retained, kappa_effective=len(removed) / len(circuit))


def write_importance_csv(stream: IO[str], profile: ImportanceProfile) -> None:
    """Emit rows of gate_index, gate_type, axis, qubits, theta, importance of the profile's circuit."""
    write_csv(stream, ["gate_index", "gate_type", "axis", "qubits", "theta", "importance"], (
        (i, Rotation.TAG, gate.axis, gate.qubit, gate.theta, score) if isinstance(gate, Rotation)
        else (i, Cnot.TAG, None, f"{gate.control};{gate.target}", None, score)
        for i, (gate, score) in enumerate(zip(profile.circuit.gates, profile.importances))
    ))
