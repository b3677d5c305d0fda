"""Property tests over random circuits: the two engines agree and conserve
norm, `.icd` text round-trips, and a circuit file's outcomes partition 1."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmz import gated_rates, parse, run_circuit, serialize
from fockmz.experiments import preset_from_circuit
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


@settings(max_examples=200, deadline=None)
@given(circuits)
def test_serialize_parse_round_trip(circuit):
    assert parse(serialize(circuit)) == circuit


@settings(max_examples=100, deadline=None)
@given(circuits, st.integers(0, 2 ** 32 - 1))
def test_circuit_file_outcomes_sum_to_one(circuit, seed):
    # herald one mode at the count of its most likely output, so the herald
    # probability is not zero and at least one mode stays free
    psi = run_circuit(circuit)
    mode = int(np.random.default_rng(seed).integers(circuit.modes))
    likeliest = psi.basis.vectors[int(np.argmax(np.abs(psi.amplitudes)))]
    heralded = dataclasses.replace(circuit, heralds=((mode, likeliest[mode]),))
    rates = gated_rates(preset_from_circuit(parse(serialize(heralded))))
    assert rates.herald_probability > 0
    assert abs(sum(rates.values()) - 1) <= TOL
