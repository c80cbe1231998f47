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

from .circuits import Circuit, Rotation, floor_product, remove_gates
from .codec import write_csv
from .errors import InvalidParameterError
from .simulator import StateVector, fidelity, run
from .stats import DEFAULT_SMALL_ANGLE_THRESHOLD, angle_stats, identity_distance

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


def importance_profile(circuit: Circuit) -> ImportanceProfile:
    """Leave-one-out importance of every gate against the intact circuit.

    The gates after gate i cancel, <psi|C_without_i|0> = <f_i|G_i^dagger|f_i>
    with f_i the state before gate i, so the profile costs one `run` that
    records each gate's closed-form loss. The final state of that pass is the
    baseline, bit-identical to `run(circuit)`.
    """
    if not circuit.gates:
        raise InvalidParameterError("importance profile of an empty circuit is undefined")
    importances = np.empty(len(circuit.gates))
    state = run(circuit, importances)
    return ImportanceProfile(importances, state)


def removal_quota(kappa: float, n_gates: int) -> int:
    """floor(kappa*N) for a kappa in (0, 1) that removes at least one gate; needs no simulation."""
    if not 0.0 < kappa < 1.0:
        raise InvalidParameterError(f"compression ratio kappa must lie in (0, 1), got {kappa}")
    quota = floor_product(kappa, n_gates)
    if quota < 1:
        raise InvalidParameterError(
            f"kappa={kappa} removes no gates from a {n_gates}-gate circuit (floor(kappa*N) = 0)"
        )
    return quota


def _prune(circuit: Circuit, kappa: float, profile: ImportanceProfile | None,
           protected: Sequence[int]) -> CompressionResult:
    """Delete the floor(kappa*N) least important gates outside `protected` in one batch."""
    quota = removal_quota(kappa, len(circuit.gates))
    if profile is None:
        profile = importance_profile(circuit)
    elif len(profile) != len(circuit.gates):
        raise InvalidParameterError(
            f"importance profile has {len(profile)} entries for a {len(circuit.gates)}-gate circuit"
        )
    # Ascending importance; stable sort makes ties resolve by gate index.
    ranked = np.argsort(profile.importances, kind="stable")
    if protected:
        ranked = ranked[np.isin(ranked, protected, invert=True)]
    removed = ranked[:quota].tolist()
    compressed = remove_gates(circuit, removed)
    return CompressionResult(
        compressed=compressed,
        removed_indices=tuple(removed),
        fidelity=fidelity(profile.baseline_state, run(compressed)),
        kappa_effective=len(removed) / len(circuit.gates),
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
) -> CompressionResult:
    """Causal pruning that protects small-angle rotations of brittle circuits.

    If the risk assessment does not flag the circuit, the result is identical
    to causal_prune. Otherwise rotations whose `identity_distance` is below
    thresholds.small_angle are excluded from the candidate pool; when the pool
    cannot cover the quota, every candidate is removed and kappa_effective
    ends up below kappa.
    """
    protected = ()
    if risk_assess(circuit, thresholds).brittle:
        protected = [
            i for i, gate in enumerate(circuit.gates)
            if isinstance(gate, Rotation) and identity_distance(gate.theta) < thresholds.small_angle
        ]
    return _prune(circuit, kappa, profile, protected)


def prune(
    circuit: Circuit,
    kappa: float,
    mode: str = "causal",
    small_angle_threshold: float = DEFAULT_SMALL_ANGLE_THRESHOLD,
    profile: ImportanceProfile | None = None,
) -> CompressionResult:
    """Prune with the named mode: `causal_prune`, or `aware_prune` with the
    given small-angle threshold and the default risk thresholds otherwise."""
    if mode == "causal":
        return causal_prune(circuit, kappa, profile=profile)
    if mode == "aware":
        return aware_prune(circuit, kappa, RiskThresholds(small_angle=small_angle_threshold), profile)
    raise InvalidParameterError(f"pruning mode must be one of {PRUNING_MODES}, got {mode!r}")


def write_importance_csv(stream: IO[str], circuit: Circuit, profile: ImportanceProfile) -> None:
    """Emit rows of gate_index, gate_type, axis, qubits, theta, importance."""
    write_csv(stream, ["gate_index", "gate_type", "axis", "qubits", "theta", "importance"], (
        (i, gate.TAG, gate.axis, gate.qubit, gate.theta, score) if isinstance(gate, Rotation)
        else (i, gate.TAG, None, f"{gate.control};{gate.target}", None, score)
        for i, (gate, score) in enumerate(zip(circuit.gates, profile.importances))
    ))
