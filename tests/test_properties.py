"""Property tests over random circuits: the two engines agree and conserve norm."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmz import run_circuit
from tests_helpers_random import random_source_circuit

TOL = 1e-12

circuits = st.builds(
    lambda seed, max_photons: random_source_circuit(
        np.random.default_rng(seed), max_modes=6, max_photons=max_photons,
        max_elements=12),
    st.integers(0, 2 ** 32 - 1), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(circuits)
def test_engines_agree_and_conserve_norm(circuit):
    full = run_circuit(circuit, engine="full")
    elementwise = run_circuit(circuit, engine="elementwise")
    assert np.max(np.abs(full.amplitudes - elementwise.amplitudes)) <= TOL
    assert abs(full.norm() - 1) <= TOL
    assert abs(elementwise.norm() - 1) <= TOL
