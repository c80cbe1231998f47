"""The removal sets of generated circuits, pinned by one SHA-256.

Importances and fidelities may move in the last bits when a kernel changes;
which gates a prune removes must not. The hash covers the sorted removal set
of 20 reference-size 10-qubit circuits at three compression ratios, so a
kernel change is checked against the bytes that matter and not
only against float tolerances.
"""
import hashlib

from qbrittle.circuits import GenerationParams, generate_uniform
from qbrittle.pruning import causal_prune, importance_profile

REMOVAL_SETS_SHA256 = "4536cddc92f7a80a4167d189f2a3df3f7df6eacc824ce01c5384a3c0795f648c"


def test_removal_sets_are_pinned():
    lines = []
    for seed in range(20):
        circuit = generate_uniform(GenerationParams(10, 2.3, 0.28, seed=seed))
        profile = importance_profile(circuit)
        for kappa in (0.1, 0.2, 0.3):
            removed = sorted(causal_prune(circuit, kappa, profile=profile).removed_indices)
            lines.append(f"{seed} {kappa} causal " + ",".join(map(str, removed)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REMOVAL_SETS_SHA256
