"""Leave-one-out gate importance, causal pruning, and the statistically-aware variant.

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
one batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .circuits import Circuit, Cnot, Rotation, floor_product, remove_gates
from .codec import write_csv
from .errors import InvalidParameterError, _shown
from .simulator import StateVector, fidelity, run
from .stats import DEFAULT_SMALL_ANGLE_THRESHOLD, _check_thresholds, angle_stats, identity_distance, is_brittle

__all__ = [
    "ImportanceProfile",
    "CompressionResult",
    "importance_profile",
    "causal_prune",
    "aware_prune",
    "prune",
    "removal_quota",
    "PRUNING_MODES",
    "write_importance_csv",
]

PRUNING_MODES = ("causal", "aware")


@dataclass(frozen=True)
class ImportanceProfile:
    """Per-gate leave-one-out importances plus the intact circuit's final state."""

    importances: np.ndarray
    baseline_state: StateVector

    def __len__(self) -> int:
        return int(self.importances.size)


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
    return ImportanceProfile(importances, state)


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


def _prune(circuit: Circuit, kappa: float, profile: ImportanceProfile | None,
           protected: Sequence[int]) -> CompressionResult:
    """Delete the floor(kappa*N) least important gates outside `protected` in one batch."""
    quota = removal_quota(kappa, len(circuit))
    if profile is None:
        profile = importance_profile(circuit)
    elif len(profile) != len(circuit):
        raise InvalidParameterError(
            f"importance profile has {len(profile)} entries for a {len(circuit)}-gate circuit"
        )
    # Ascending importance; stable sort makes ties resolve by gate index.
    ranked = np.argsort(profile.importances, kind="stable")
    if len(protected):
        ranked = ranked[np.isin(ranked, protected, invert=True)]
    removed = ranked[:quota].tolist()
    compressed = remove_gates(circuit, removed)
    return CompressionResult(
        compressed=compressed,
        removed_indices=tuple(removed),
        fidelity=fidelity(profile.baseline_state, run(compressed)),
        kappa_effective=len(removed) / len(circuit),
    )


def causal_prune(
    circuit: Circuit,
    kappa: float,
    profile: ImportanceProfile | None = None,
) -> CompressionResult:
    """Remove the floor(kappa*N) least important gates in one batch.

    `profile` may be passed to reuse a precomputed importance profile.
    removed_indices are reported in removal (ascending-importance) order.
    """
    return _prune(circuit, kappa, profile, ())


def aware_prune(
    circuit: Circuit,
    kappa: float,
    small_angle_threshold: float = DEFAULT_SMALL_ANGLE_THRESHOLD,
    profile: ImportanceProfile | None = None,
) -> CompressionResult:
    """Causal pruning that protects small-angle rotations of brittle circuits.

    If `stats.is_brittle` does not flag the circuit's angle statistics, the
    result is identical to causal_prune. Otherwise rotations whose
    `identity_distance` is below small_angle_threshold are excluded from the
    candidate pool; when the pool cannot cover the quota, every candidate is
    removed and kappa_effective ends up below kappa.
    """
    protected = ()
    if is_brittle(angle_stats(circuit, small_angle_threshold)):
        gates = circuit.encoding
        protected = np.flatnonzero((gates["kind"] < 3) & (identity_distance(gates["theta"]) < small_angle_threshold))
    return _prune(circuit, kappa, profile, protected)


def prune(
    circuit: Circuit,
    kappa: float,
    mode: str = "causal",
    small_angle_threshold: float = DEFAULT_SMALL_ANGLE_THRESHOLD,
    profile: ImportanceProfile | None = None,
) -> CompressionResult:
    """Prune with the named mode: `causal_prune`, or `aware_prune` with the
    given small-angle threshold, which is checked in either mode."""
    _check_thresholds(small_angle_threshold=small_angle_threshold)
    if mode == "causal":
        return causal_prune(circuit, kappa, profile=profile)
    if mode == "aware":
        return aware_prune(circuit, kappa, small_angle_threshold, profile)
    raise InvalidParameterError(f"pruning mode must be one of {PRUNING_MODES}, got {mode!r}")


def write_importance_csv(stream: IO[str], circuit: Circuit, profile: ImportanceProfile) -> None:
    """Emit rows of gate_index, gate_type, axis, qubits, theta, importance."""
    write_csv(stream, ["gate_index", "gate_type", "axis", "qubits", "theta", "importance"], (
        (i, Rotation.TAG, gate.axis, gate.qubit, gate.theta, score) if isinstance(gate, Rotation)
        else (i, Cnot.TAG, None, f"{gate.control};{gate.target}", None, score)
        for i, (gate, score) in enumerate(zip(circuit.gates, profile.importances))
    ))
