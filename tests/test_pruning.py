import io
import math
import re

import numpy as np
import pytest

from helpers import naive_importances, random_circuit
from qbrittle import pruning
from qbrittle.circuits import (
    Axis,
    Circuit,
    Cnot,
    GenerationParams,
    Rotation,
    generate_uniform,
)
from qbrittle.errors import InvalidParameterError
from qbrittle.pruning import (
    ImportanceProfile,
    causal_prune,
    importance_profile,
    write_importance_csv,
)
from qbrittle.simulator import StateVector, fidelity, run
from qbrittle.stats import angle_importance_r, angle_stats


def test_terminal_phase_gate_has_zero_importance():
    profile = importance_profile(Circuit(1, (Rotation(Axis.Z, 0, 0.5),)))
    assert profile.importances[0] <= 1e-12


def test_single_ry_importance_is_half():
    profile = importance_profile(Circuit(1, (Rotation(Axis.Y, 0, math.pi / 2),)))
    assert profile.importances[0] == pytest.approx(0.5, abs=1e-12)


def test_importance_matches_naive_leave_one_out():
    rng = np.random.default_rng(11)
    circuits = [random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(1, 25))) for _ in range(30)]
    circuits += [generate_uniform(GenerationParams(n, 1.0, 0.3, seed=n)) for n in (6, 8)]
    for circuit in circuits:
        profile = importance_profile(circuit)
        assert np.max(np.abs(profile.importances - naive_importances(circuit))) < 1e-12
        # the pass that records the losses applies the same gates, bit for bit
        intact = run(circuit).amplitudes
        assert np.array_equal(profile.baseline_state.amplitudes, intact)
        assert np.array_equal(run(circuit, losses=np.empty(len(circuit.gates))).amplitudes, intact)


def test_rotation_importance_respects_analytic_bound():
    rng = np.random.default_rng(5)
    circuits = [random_circuit(rng, 3, 20, theta_lo=0.001, theta_hi=math.pi / 2) for _ in range(10)]
    circuits.append(generate_uniform(GenerationParams(6, 1.5, 0.3, seed=2)))
    for circuit in circuits:
        importances = importance_profile(circuit).importances
        for i, gate in ((i, g) for i, g in enumerate(circuit.gates) if isinstance(g, Rotation)):
            assert 0.0 <= importances[i] <= math.sin(gate.theta / 2) ** 2


def test_empty_circuit_has_no_profile():
    with pytest.raises(InvalidParameterError):
        importance_profile(Circuit(2, ()))


def test_causal_prune_reference_arithmetic():
    circuit = generate_uniform(GenerationParams(10, 2.3, 0.28, seed=0))
    result = causal_prune(circuit, 0.11)
    assert len(result.removed_indices) == 37
    assert len(result.compressed.gates) == 342 - 37
    assert result.kappa_effective == pytest.approx(37 / 342)
    assert 0.0 <= result.fidelity <= 1.0
    # reported fidelity equals a fresh recomputation
    fresh = fidelity(run(circuit), run(result.compressed))
    assert result.fidelity == pytest.approx(fresh, abs=1e-12)


def test_causal_prune_is_deterministic():
    circuit = generate_uniform(GenerationParams(8, 1.5, 0.3, seed=21))
    first = causal_prune(circuit, 0.2)
    second = causal_prune(circuit, 0.2)
    assert first.removed_indices == second.removed_indices
    assert first.fidelity == second.fidelity


def test_prune_tie_break_is_index_order():
    # all-zero importance: every gate is a phase on the |0> basis state
    circuit = Circuit(1, (Rotation(Axis.Z, 0, 0.3), Rotation(Axis.Z, 0, 0.4), Rotation(Axis.Z, 0, 0.5)))
    result = causal_prune(circuit, 0.7)  # floor(2.1) = 2
    assert result.removed_indices == (0, 1)
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_removing_zero_importance_gate_keeps_fidelity():
    circuit = Circuit(1, (Rotation(Axis.Z, 0, 0.3), Rotation(Axis.Y, 0, 1.2)))
    profile = importance_profile(circuit)
    assert profile.importances[0] <= 1e-12
    result = causal_prune(circuit, 0.5)
    assert result.removed_indices == (0,)
    assert result.fidelity >= 1.0 - 1e-10


@pytest.fixture
def no_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("nothing may be simulated")
    monkeypatch.setattr(pruning, "_runs", fail)


def test_prune_rejects_useless_kappa(no_simulation):  # before any simulation
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.2, seed=1))
    with pytest.raises(InvalidParameterError):
        causal_prune(circuit, 0.001)  # floor(kappa * N) = 0
    with pytest.raises(InvalidParameterError):
        causal_prune(circuit, 0.0)
    with pytest.raises(InvalidParameterError):
        causal_prune(circuit, 1.0)


def test_generated_small_angle_ratio_matches_expectation():
    # expectation (rho*L*n + floor(n*rho)) / (L*n + floor(n*rho)) ~ 0.286 at (10, 2.3, 0.28)
    ratios = [
        angle_stats(generate_uniform(GenerationParams(10, 2.3, 0.28, seed))).small_angle_ratio
        for seed in range(20)
    ]
    assert float(np.mean(ratios)) == pytest.approx(0.286, abs=0.03)


def test_importance_csv_layout():
    circuit = Circuit(2, (Rotation(Axis.X, 0, 0.5), Cnot(0, 1)))
    profile = importance_profile(circuit)
    buf = io.StringIO()
    write_importance_csv(buf, profile)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "gate_index,gate_type,axis,qubits,theta,importance"
    assert len(lines) == 3
    assert lines[1].startswith("0,rot,x,0,0.5,")
    assert lines[2].startswith("1,cnot,,0;1,,")


@pytest.mark.parametrize("pruner", [causal_prune])
def test_a_profile_of_another_circuit_is_an_input_error(pruner):
    c1, c2 = (generate_uniform(GenerationParams(6, 1.0, 0.3, seed)) for seed in (1, 2))
    assert len(c1) == len(c2)
    with pytest.raises(InvalidParameterError, match="importance profile was computed for another circuit"):
        pruner(c1, 0.3, profile=importance_profile(c2))
    copy = generate_uniform(GenerationParams(6, 1.0, 0.3, 1))  # an equal circuit is the same circuit
    assert pruner(c1, 0.3, profile=importance_profile(copy)) == pruner(c1, 0.3)


@pytest.mark.parametrize("extra", [-1, 5], ids=["short", "long"])
@pytest.mark.parametrize("consumer", [
    angle_importance_r,
    lambda circuit, scores: write_importance_csv(io.StringIO(), ImportanceProfile(circuit, scores, run(circuit))),
], ids=["angle_importance_r", "write_importance_csv"])
def test_a_profile_of_the_wrong_length_is_an_input_error(consumer, extra):
    circuit = generate_uniform(GenerationParams(4, 1.0, 0.0, 0))
    scores = np.resize(importance_profile(circuit).importances, len(circuit) + extra)
    message = f"importance profile has {len(circuit) + extra} entries for a {len(circuit)}-gate circuit"
    with pytest.raises(InvalidParameterError, match=message):
        consumer(circuit, scores)


def test_a_profile_of_listed_importances_is_read_as_an_array():
    circuit = generate_uniform(GenerationParams(4, 1.0, 0.3, 0))
    profile = importance_profile(circuit)
    listed = ImportanceProfile(circuit, profile.importances.tolist(), profile.baseline_state)
    assert causal_prune(circuit, 0.3, profile=listed) == causal_prune(circuit, 0.3, profile=profile)
    assert causal_prune(circuit, 0.3, profile=listed).fidelity == pytest.approx(0.99988, abs=1e-5)


@pytest.mark.parametrize("change, message", [
    ({"importances": lambda c: np.full(len(c), np.nan)}, "importance profile must be finite, got nan"),
    ({"baseline_state": lambda c: StateVector(2, np.ones(4, complex) / 2)},
     "baseline state has 2 qubits for a 4-qubit circuit"),
    ({"baseline_state": lambda c: StateVector(4, np.ones(4, complex) / 2)}, "a 4-qubit state needs 2^4 amplitudes"),
    ({"circuit": lambda c: list(c.gates)}, "a profile's circuit must be a Circuit, got list"),
], ids=["nan-importances", "narrow-baseline", "short-baseline", "not-a-circuit"])
def test_a_profile_checks_what_it_holds(change, message):
    circuit = generate_uniform(GenerationParams(4, 1.0, 0.3, 0))
    fields = vars(importance_profile(circuit)) | {name: make(circuit) for name, make in change.items()}
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        ImportanceProfile(**fields)


def test_a_profile_that_is_not_a_profile_is_an_input_error():
    circuit = generate_uniform(GenerationParams(4, 1.0, 0.3, 0))
    with pytest.raises(InvalidParameterError, match="profile must be an ImportanceProfile or None, got str"):
        causal_prune(circuit, 0.3, profile="x")


def test_profiles_compare_by_identity_and_results_by_value():
    circuit = generate_uniform(GenerationParams(4, 1.0, 0.3, 0))
    profile = importance_profile(circuit)
    assert profile == profile and (profile == importance_profile(circuit)) is False
    assert causal_prune(circuit, 0.2, profile=profile) == causal_prune(circuit, 0.2)
