"""The removal sets of generated circuits, pinned by one SHA-256.

Importances and fidelities may move in the last bits when a kernel changes;
which gates a prune removes must not. Each hash covers the sorted removal sets
of reference-size circuits at three compression ratios, 20 of 10 qubits and 4
of 14 (whose chunks and batches differ from 10 qubits'), so a kernel change is
checked against the bytes that matter and not only against float tolerances.
"""
import hashlib

from qbrittle.circuits import GenerationParams, generate_uniform
from qbrittle.pruning import causal_prune, importance_profile

REMOVAL_SETS_SHA256 = "4536cddc92f7a80a4167d189f2a3df3f7df6eacc824ce01c5384a3c0795f648c"
REMOVAL_SETS_14Q_SHA256 = "50bbb13eaf11458f302e912eb9ecd36a5cd60a2945ca8910ff78fd5e0960d2a1"


def removal_sets_digest(n: int, alpha: float, rho: float, seeds: range) -> str:
    lines = []
    for seed in seeds:
        circuit = generate_uniform(GenerationParams(n, alpha, rho, seed=seed))
        profile = importance_profile(circuit)
        for kappa in (0.1, 0.2, 0.3):
            removed = sorted(causal_prune(circuit, kappa, profile=profile).removed_indices)
            lines.append(f"{seed} {kappa} causal " + ",".join(map(str, removed)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_removal_sets_are_pinned():
    assert removal_sets_digest(10, 2.3, 0.28, range(20)) == REMOVAL_SETS_SHA256


def test_14q_removal_sets_are_pinned():
    assert removal_sets_digest(14, 3.0, 0.2, range(4)) == REMOVAL_SETS_14Q_SHA256
