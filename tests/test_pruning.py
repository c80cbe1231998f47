import io
import math

import numpy as np
import pytest

from helpers import naive_importances, random_circuit
from qbrittle.circuits import (
    Axis,
    Circuit,
    Cnot,
    GenerationParams,
    Rotation,
    generate_uniform,
)
from qbrittle.errors import InvalidParameterError, UndefinedStatisticError
from qbrittle.pruning import (
    aware_prune,
    causal_prune,
    importance_profile,
    prune,
    write_importance_csv,
)
from qbrittle.simulator import fidelity, run
from qbrittle.stats import angle_stats, is_brittle


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


def test_prune_rejects_useless_kappa():
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.2, seed=1))
    with pytest.raises(InvalidParameterError):
        causal_prune(circuit, 0.001)  # floor(kappa * N) = 0
    with pytest.raises(InvalidParameterError):
        causal_prune(circuit, 0.0)
    with pytest.raises(InvalidParameterError):
        causal_prune(circuit, 1.0)


def test_is_brittle_flags_uniform_angles():
    gates = tuple(Rotation(Axis.X, i % 2, 0.8) for i in range(6))
    stats = angle_stats(Circuit(2, gates))
    assert stats.std_theta == pytest.approx(0.0, abs=1e-12)
    assert stats.small_angle_ratio == 0.0
    assert is_brittle(stats)


def test_is_brittle_small_angle_ratio():
    gates = (Rotation(Axis.X, 0, 0.01), Rotation(Axis.Y, 1, math.pi / 2),
             Rotation(Axis.X, 0, 0.01), Rotation(Axis.Y, 1, math.pi / 2))
    stats = angle_stats(Circuit(2, gates), small_angle_threshold=0.1)
    assert stats.small_angle_ratio == pytest.approx(0.5)
    assert not is_brittle(stats)  # std ~0.90 and ratio 0.5 clear both bounds


def test_aware_prune_needs_two_rotations():
    with pytest.raises(UndefinedStatisticError):
        aware_prune(Circuit(2, (Rotation(Axis.X, 0, 1.0), Cnot(0, 1))), 0.5)


def test_aware_prune_checks_its_threshold():
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.3, 1))
    for threshold in (float("nan"), -1.0, math.inf):
        with pytest.raises(InvalidParameterError, match="small_angle_threshold must be finite and >= 0"):
            prune(circuit, 0.2, "aware", threshold)


@pytest.mark.parametrize("mode", ["causal", "aware"])
@pytest.mark.parametrize("threshold", [float("nan"), -1.0])
def test_prune_checks_its_threshold_in_either_mode(mode, threshold):
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.3, 1))
    with pytest.raises(InvalidParameterError, match="small_angle_threshold must be finite and >= 0"):
        prune(circuit, 0.2, mode, threshold)


def test_generated_small_angle_ratio_matches_expectation():
    # expectation (rho*L*n + floor(n*rho)) / (L*n + floor(n*rho)) ~ 0.286 at (10, 2.3, 0.28)
    ratios = [
        angle_stats(generate_uniform(GenerationParams(10, 2.3, 0.28, seed))).small_angle_ratio
        for seed in range(20)
    ]
    assert float(np.mean(ratios)) == pytest.approx(0.286, abs=0.03)


def _non_brittle_circuit() -> Circuit:
    # wide spread and plenty of small angles: std ~0.78 > 0.5255, ratio 0.5 > 0.28
    gates = []
    for i in range(10):
        theta = 0.01 if i % 2 == 0 else math.pi / 2
        gates.append(Rotation((Axis.X, Axis.Y, Axis.Z)[i % 3], i % 4, theta))
    return Circuit(4, tuple(gates))


def _brittle_circuit() -> Circuit:
    # two protected small-angle gates among tightly clustered large angles
    gates = [Rotation(Axis.X, 0, 0.01), Rotation(Axis.Z, 1, 0.02)]
    gates += [Rotation((Axis.X, Axis.Y, Axis.Z)[i % 3], i % 4, 0.9) for i in range(8)]
    return Circuit(4, tuple(gates))


def test_aware_prune_is_noop_for_non_brittle():
    circuit = _non_brittle_circuit()
    assert not is_brittle(angle_stats(circuit))
    causal = causal_prune(circuit, 0.25)
    aware = aware_prune(circuit, 0.25)
    assert aware == causal


def test_aware_prune_protects_small_angles():
    circuit = _brittle_circuit()
    assert is_brittle(angle_stats(circuit))
    result = aware_prune(circuit, 0.3)  # quota 3 <= 8 unprotected gates
    assert len(result.removed_indices) == 3
    for i in result.removed_indices:
        gate = circuit.gates[i]
        assert gate.theta >= 0.1
    assert result.kappa_effective == pytest.approx(0.3)


def test_aware_prune_partial_pool_removes_what_it_can():
    # 6 protected small-angle gates, 2 unprotected, quota 3: only the 2
    # unprotected gates go, and kappa_effective drops below the request
    gates = [Rotation(Axis.Z, 0, 0.01 + 0.001 * i) for i in range(6)]
    gates += [Rotation(Axis.Y, 1, 0.9), Rotation(Axis.Y, 2, 0.9)]
    circuit = Circuit(3, tuple(gates))
    assert is_brittle(angle_stats(circuit))
    result = aware_prune(circuit, 0.4)  # quota floor(3.2) = 3 > 2 candidates
    assert len(result.removed_indices) == 2
    assert set(result.removed_indices) == {6, 7}
    assert result.kappa_effective == pytest.approx(0.25)


def test_aware_prune_exhaustion_reports_lower_kappa():
    gates = tuple(Rotation(Axis.Z, 0, 0.01 + 0.001 * i) for i in range(4))
    circuit = Circuit(1, gates)
    assert is_brittle(angle_stats(circuit))
    result = aware_prune(circuit, 0.5)  # quota 2, but every gate is protected
    assert result.removed_indices == ()
    assert result.kappa_effective == 0.0
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    assert result.compressed == circuit


def test_aware_prune_protects_by_wrapped_angle():
    # 2pi - 0.01 is a near-identity gate and is protected; -3.0 is not small
    near, far = 2 * math.pi - 0.01, -3.0
    gates = (Rotation(Axis.X, 0, near), Rotation(Axis.X, 0, far), Rotation(Axis.Y, 0, 0.9), Rotation(Axis.Y, 0, 0.9))
    circuit = Circuit(1, gates)
    stats = angle_stats(circuit)
    assert stats.small_angle_ratio == 0.25 and is_brittle(stats)
    assert causal_prune(circuit, 0.25).removed_indices == (0,)  # least important
    result = aware_prune(circuit, 0.25)
    assert 0 not in result.removed_indices
    assert len(result.removed_indices) == 1


def test_importance_csv_layout():
    circuit = Circuit(2, (Rotation(Axis.X, 0, 0.5), Cnot(0, 1)))
    profile = importance_profile(circuit)
    buf = io.StringIO()
    write_importance_csv(buf, circuit, profile)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "gate_index,gate_type,axis,qubits,theta,importance"
    assert len(lines) == 3
    assert lines[1].startswith("0,rot,x,0,0.5,")
    assert lines[2].startswith("1,cnot,,0;1,,")


def test_prune_dispatches_by_mode():
    # seed 3 is flagged brittle, so aware and causal pruning remove different gates
    circuit = generate_uniform(GenerationParams(6, 1.0, 0.3, 3))
    profile = importance_profile(circuit)
    assert is_brittle(angle_stats(circuit))
    assert prune(circuit, 0.15, "causal", profile=profile) == causal_prune(circuit, 0.15, profile=profile)
    aware = prune(circuit, 0.15, "aware", profile=profile)
    assert aware == aware_prune(circuit, 0.15, profile=profile)
    assert aware.removed_indices != causal_prune(circuit, 0.15, profile=profile).removed_indices
    wide = prune(circuit, 0.15, "aware", 1.0, profile)  # the threshold reaches aware_prune
    assert wide == aware_prune(circuit, 0.15, 1.0, profile)
    assert wide.removed_indices != aware.removed_indices
    with pytest.raises(InvalidParameterError, match="pruning mode"):
        prune(circuit, 0.15, "greedy", profile=profile)
