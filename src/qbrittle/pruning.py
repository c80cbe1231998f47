"""Leave-one-out gate importance, causal pruning, and the statistically-aware variant.

The importance of gate i is the fidelity loss from deleting it alone:
I_i = 1 - |<psi|psi_without_i>|^2, always measured against the intact circuit
(single pass, no iterative recomputation). Causal pruning ranks gates by
ascending importance (ties broken by gate index) and deletes the floor(kappa*N)
least important ones in one batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .circuits import Circuit, Gate, Rotation, floor_product, remove_gates
from .codec import write_csv
from .errors import InvalidParameterError
from .simulator import StateVector, apply_gate, fidelity, run, zero_state
from .stats import DEFAULT_SMALL_ANGLE_THRESHOLD, angle_stats

__all__ = [
    "ImportanceProfile",
    "CompressionResult",
    "BrittlenessReport",
    "RiskThresholds",
    "importance_profile",
    "causal_prune",
    "risk_assess",
    "aware_prune",
    "prune",
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


# Defaults calibrated to the midpoint between the robust- and fragile-class
# angle statistics of the 10-qubit reference ensemble.
@dataclass(frozen=True)
class RiskThresholds:
    small_angle: float = DEFAULT_SMALL_ANGLE_THRESHOLD
    min_std: float = 0.5255
    min_small_angle_ratio: float = 0.28


@dataclass(frozen=True)
class BrittlenessReport:
    """Angle-statistics risk summary over a circuit's rotation gates."""

    mean_theta: float
    std_theta: float
    small_angle_ratio: float
    brittle: bool


def _inverse(gate: Gate) -> Gate:
    if isinstance(gate, Rotation):
        return Rotation(gate.axis, gate.qubit, -gate.theta, gate.provenance, gate.layer)
    return gate  # CNOT is self-inverse


def importance_profile(circuit: Circuit, max_qubits: int | None = None) -> ImportanceProfile:
    """Leave-one-out importance of every gate against the intact circuit.

    Uses a forward/backward state sweep so the full profile costs about four
    circuit executions instead of one per gate: with psi the intact final
    state, f_i the state after the first i gates and b_{i+1} = (G_{i+1} ...
    G_{N-1})^dagger psi, the overlap <psi|C_without_i|0> equals <b_{i+1}|f_i>.
    The result is identical (to rounding) to re-simulating each deletion.
    """
    gates = circuit.gates
    n_gates = len(gates)
    if n_gates == 0:
        raise InvalidParameterError("importance profile of an empty circuit is undefined")
    baseline = run(circuit, max_qubits)

    backward = baseline.copy()
    for gate in gates[:0:-1]:  # peel gates N-1 .. 1 to reach b_1
        apply_gate(backward, _inverse(gate))
    forward = zero_state(circuit.n_qubits, max_qubits)

    overlaps = np.empty(n_gates)
    for i in range(n_gates):
        overlaps[i] = abs(np.vdot(backward.amplitudes, forward.amplitudes)) ** 2
        if i < n_gates - 1:
            apply_gate(forward, gates[i])
            apply_gate(backward, gates[i + 1])
    return ImportanceProfile(1.0 - np.clip(overlaps, 0.0, 1.0), baseline)


def _removal_quota(kappa: float, n_gates: int) -> int:
    if not 0.0 < kappa < 1.0:
        raise InvalidParameterError(f"compression ratio kappa must lie in (0, 1), got {kappa}")
    quota = floor_product(kappa, n_gates)
    if quota < 1:
        raise InvalidParameterError(
            f"kappa={kappa} removes no gates from a {n_gates}-gate circuit (floor(kappa*N) = 0)"
        )
    return quota


def _ranked_indices(importances: np.ndarray) -> np.ndarray:
    # Ascending importance; stable sort makes ties resolve by gate index.
    return np.argsort(importances, kind="stable")


def _resolve_profile(circuit: Circuit, profile: ImportanceProfile | None,
                     max_qubits: int | None) -> ImportanceProfile:
    if profile is None:
        return importance_profile(circuit, max_qubits)
    if len(profile) != len(circuit.gates):
        raise InvalidParameterError(
            f"importance profile has {len(profile)} entries for a {len(circuit.gates)}-gate circuit"
        )
    return profile


def _finish(circuit: Circuit, profile: ImportanceProfile, removed: list[int],
            max_qubits: int | None) -> CompressionResult:
    compressed = remove_gates(circuit, removed)
    final_fidelity = fidelity(profile.baseline_state, run(compressed, max_qubits))
    return CompressionResult(
        compressed=compressed,
        removed_indices=tuple(removed),
        fidelity=final_fidelity,
        kappa_effective=len(removed) / len(circuit.gates),
    )


def causal_prune(
    circuit: Circuit,
    kappa: float,
    profile: ImportanceProfile | None = None,
    max_qubits: int | None = None,
) -> CompressionResult:
    """Remove the floor(kappa*N) least important gates in one batch.

    `profile` may be passed to reuse a precomputed importance profile.
    removed_indices are reported in removal (ascending-importance) order.
    """
    quota = _removal_quota(kappa, len(circuit.gates))
    profile = _resolve_profile(circuit, profile, max_qubits)
    ranked = _ranked_indices(profile.importances)
    removed = [int(i) for i in ranked[:quota]]
    return _finish(circuit, profile, removed, max_qubits)


def risk_assess(circuit: Circuit, thresholds: RiskThresholds = RiskThresholds()) -> BrittlenessReport:
    """Flag a circuit as brittle from its rotation-angle statistics alone.

    Brittle means low angle diversity or a scarcity of small-angle gates:
    std_theta < min_std OR small_angle_ratio < min_small_angle_ratio.
    """
    stats = angle_stats(circuit, thresholds.small_angle)
    return BrittlenessReport(
        mean_theta=stats.mean_theta,
        std_theta=stats.std_theta,
        small_angle_ratio=stats.small_angle_ratio,
        brittle=stats.std_theta < thresholds.min_std or stats.small_angle_ratio < thresholds.min_small_angle_ratio,
    )


def aware_prune(
    circuit: Circuit,
    kappa: float,
    thresholds: RiskThresholds = RiskThresholds(),
    profile: ImportanceProfile | None = None,
    max_qubits: int | None = None,
) -> CompressionResult:
    """Causal pruning that protects small-angle rotations of brittle circuits.

    If the risk assessment does not flag the circuit, the result is identical
    to causal_prune. Otherwise rotations with theta < thresholds.small_angle
    are excluded from the candidate pool; when the pool cannot cover the
    quota, every candidate is removed and kappa_effective ends up below kappa.
    """
    quota = _removal_quota(kappa, len(circuit.gates))
    profile = _resolve_profile(circuit, profile, max_qubits)
    if not risk_assess(circuit, thresholds).brittle:
        return causal_prune(circuit, kappa, profile=profile, max_qubits=max_qubits)
    protected = {
        i for i, gate in enumerate(circuit.gates)
        if isinstance(gate, Rotation) and gate.theta < thresholds.small_angle
    }
    ranked = [int(i) for i in _ranked_indices(profile.importances) if int(i) not in protected]
    removed = ranked[:quota]
    return _finish(circuit, profile, removed, max_qubits)


def prune(
    circuit: Circuit,
    kappa: float,
    mode: str = "causal",
    small_angle_threshold: float = DEFAULT_SMALL_ANGLE_THRESHOLD,
    profile: ImportanceProfile | None = None,
    max_qubits: int | None = None,
) -> CompressionResult:
    """Prune with the named mode: `causal_prune`, or `aware_prune` with the
    given small-angle threshold and the default risk thresholds otherwise."""
    if mode == "causal":
        return causal_prune(circuit, kappa, profile=profile, max_qubits=max_qubits)
    if mode == "aware":
        thresholds = RiskThresholds(small_angle=small_angle_threshold)
        return aware_prune(circuit, kappa, thresholds=thresholds, profile=profile, max_qubits=max_qubits)
    raise InvalidParameterError(f"pruning mode must be one of {PRUNING_MODES}, got {mode!r}")


def write_importance_csv(stream: IO[str], circuit: Circuit, profile: ImportanceProfile) -> None:
    """Emit rows of gate_index, gate_type, axis, qubits, theta, importance."""
    write_csv(stream, ["gate_index", "gate_type", "axis", "qubits", "theta", "importance"], (
        (i, gate.TAG, gate.axis, gate.qubit, gate.theta, score) if isinstance(gate, Rotation)
        else (i, gate.TAG, None, f"{gate.control};{gate.target}", None, score)
        for i, (gate, score) in enumerate(zip(circuit.gates, profile.importances))
    ))
