"""Property tests on random small circuits, with angles anywhere in [-4pi, 4pi].

The importance profile, its analytic bound and the simulator are checked
against the independent oracles in `helpers`. Examples are derandomized and
capped, so the file runs in a few seconds and the same way every time.
"""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from helpers import dense_reference_state, naive_importances
from qbrittle.circuits import Axis, Circuit, Cnot, Rotation
from qbrittle.pruning import importance_profile
from qbrittle.simulator import run
from qbrittle.stats import identity_distance

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)
ANGLES = st.floats(-4 * math.pi, 4 * math.pi)


@st.composite
def circuits(draw, max_qubits=4, max_gates=16):
    n = draw(st.integers(1, max_qubits))
    qubit = st.integers(0, n - 1)
    gate = st.builds(Rotation, st.sampled_from(Axis), qubit, ANGLES)
    if n > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        gate = st.one_of(gate, pair.map(lambda q: Cnot(*q)))
    return Circuit(n, tuple(draw(st.lists(gate, min_size=1, max_size=max_gates))))


def _wrapped(theta: float) -> float:
    """The definition, |((theta + pi) mod 2pi) - pi|, in plain float arithmetic."""
    return abs((theta + math.pi) % (2 * math.pi) - math.pi)


@EXAMPLES
@given(circuits())
def test_profile_matches_naive_leave_one_out(circuit):
    profile = importance_profile(circuit)
    assert np.max(np.abs(profile.importances - naive_importances(circuit))) <= 1e-12
    assert np.array_equal(profile.baseline_state.amplitudes, run(circuit).amplitudes)


@EXAMPLES
@given(circuits())
def test_rotation_importance_is_bounded_by_wrapped_angle(circuit):
    importances = importance_profile(circuit).importances
    assert np.all(importances >= 0.0)
    for i, gate in circuit.rotations():
        assert importances[i] <= math.sin(gate.theta / 2) ** 2
        # d is exact against the float 2pi, which is 2.4e-16 short of 2pi
        d = identity_distance(gate.theta)
        assert importances[i] <= math.sin(d / 2) ** 2 + 1e-15


@EXAMPLES
@given(ANGLES)
def test_identity_distance_is_the_wrapped_angle(theta):
    d = identity_distance(theta)
    assert 0.0 <= d <= math.pi
    assert d == pytest.approx(_wrapped(theta), abs=1e-14)
    if abs(theta) <= math.pi:
        assert d == abs(theta)


@EXAMPLES
@given(circuits())
def test_run_matches_dense_oracle(circuit):
    assert np.max(np.abs(run(circuit).amplitudes - dense_reference_state(circuit))) <= 1e-10
