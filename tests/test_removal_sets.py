"""The removal sets of generated circuits, pinned by one SHA-256.

Importances and fidelities may move in the last bits when a kernel changes;
which gates a prune removes must not. The hash covers the sorted removal set
of 20 reference-size 10-qubit circuits at three compression ratios in both
modes, so a kernel change is checked against the bytes that matter and not
only against float tolerances.
"""
import hashlib

from qbrittle.circuits import GenerationParams, generate_uniform
from qbrittle.pruning import PRUNING_MODES, importance_profile, prune

REMOVAL_SETS_SHA256 = "9aaa49ba1bdc61bdb8e0b0862c66a271fbc295856b62714af95d080a1d203fa9"


def test_removal_sets_are_pinned():
    lines = []
    for seed in range(20):
        circuit = generate_uniform(GenerationParams(10, 2.3, 0.28, seed=seed))
        profile = importance_profile(circuit)
        for kappa in (0.1, 0.2, 0.3):
            for mode in PRUNING_MODES:
                removed = sorted(prune(circuit, kappa, mode, profile=profile).removed_indices)
                lines.append(f"{seed} {kappa} {mode} " + ",".join(map(str, removed)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REMOVAL_SETS_SHA256
