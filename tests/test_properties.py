"""Property tests over random circuits: `compose` is the product of the
element matrices, the two engines agree and conserve norm, `.icd` text
round-trips, a circuit file's outcomes partition 1, the `.icd` parser
rejects exactly what `Circuit` rejects, and each of its errors points at its
own token. A basis's occupation array is its vectors, and `matching` is the
per-vector pattern predicate."""

import cmath
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockmz import (BeamSplitter, Circuit, DslError, Mirror, PhaseShifter,
                    compose, enumerate_basis, gated_rates, parse,
                    run_circuit, serialize)
from fockmz.experiments import preset_from_circuit
from tests_helpers_random import random_source_circuit

TOL = 1e-12

circuits = st.builds(
    lambda seed, max_photons: random_source_circuit(
        np.random.default_rng(seed), max_modes=6, max_photons=max_photons,
        max_elements=12),
    st.integers(0, 2 ** 32 - 1), st.integers(1, 6))


def dense_element_matrix(el, modes):
    """One element's full modes x modes matrix, built without `compose`."""
    E = np.eye(modes, dtype=complex)
    if isinstance(el, BeamSplitter):
        E[np.ix_([el.i, el.j], [el.i, el.j])] = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    elif isinstance(el, PhaseShifter):
        E[el.mode, el.mode] = cmath.exp(1j * el.phase)
    else:
        E[el.mode, el.mode] = 1j
    return E


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_compose_is_the_product_of_element_matrices(seed):
    circuit = random_source_circuit(np.random.default_rng(seed), max_modes=12,
                                    max_photons=1, max_elements=50)
    # the first element applied is the rightmost factor
    want = functools.reduce(lambda U, el: dense_element_matrix(el, circuit.modes) @ U,
                            circuit.elements, np.eye(circuit.modes, dtype=complex))
    assert np.max(np.abs(compose(circuit) - want)) <= TOL


@settings(max_examples=200, deadline=None)
@given(circuits)
def test_engines_agree_and_conserve_norm(circuit):
    full = run_circuit(circuit, engine="full")
    elementwise = run_circuit(circuit, engine="elementwise")
    assert np.max(np.abs(full.amplitudes - elementwise.amplitudes)) <= TOL
    assert abs(full.norm() - 1) <= TOL
    assert abs(elementwise.norm() - 1) <= TOL


NAMES = ("a", "b", "phi", "x_1")


@settings(max_examples=200, deadline=None)
@given(circuits, st.data())
def test_serialize_parse_round_trip(circuit, data):
    # distinct label names, each on a mode of the circuit
    names = data.draw(st.lists(st.sampled_from(NAMES), unique=True))
    labels = tuple((name, data.draw(st.integers(0, circuit.modes - 1))) for name in names)
    circuit = dataclasses.replace(circuit, labels=labels)
    assert parse(serialize(circuit)) == circuit


@st.composite
def statements(draw):
    """`.icd` statements that are lexically valid but may break any circuit
    rule, with the same parts as Circuit arguments."""
    modes = draw(st.integers(0, 4))
    # mostly in range, sometimes one past either end
    mode = st.sampled_from(list(range(modes)) * 12 + [-1, modes])
    count = st.sampled_from((0, 1, 1, 2, 3, -1))
    params = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=2))
    sources = draw(st.lists(st.tuples(mode, count), max_size=3))
    elements = draw(st.lists(st.one_of(
        st.builds(lambda i, j: (f"bs {i} {j}", BeamSplitter(i, j)), mode, mode),
        st.builds(lambda m, phase: (f"phase {m} {phase}", PhaseShifter(m, phase)),
                  mode, st.sampled_from(NAMES + (0.0, 1.25, -3.5))),
        st.builds(lambda m: (f"mirror {m}", Mirror(m)), mode)), max_size=4))
    heralds = draw(st.lists(st.tuples(mode, count), max_size=3))
    labels = draw(st.lists(st.tuples(st.sampled_from(NAMES), mode), max_size=3))
    lines = [f"modes {modes}"]
    lines += [f"param {p}" for p in params]
    lines += [f"source {m} {n}" for m, n in sources]
    lines += [text for text, _ in elements]
    lines += [f"herald {m} {n}" for m, n in heralds]
    lines += [f"label {name} {m}" for name, m in labels]
    return "\n".join(lines) + "\n", dict(
        modes=modes, sources=tuple(sources), elements=tuple(el for _, el in elements),
        heralds=tuple(heralds), labels=tuple(labels), params=params)


@settings(max_examples=300, deadline=None)
@given(statements())
def test_parser_rejects_exactly_what_circuit_rejects(statement_list):
    text, parts = statement_list
    try:
        expected = Circuit(**parts)
    except ValueError as err:
        with pytest.raises(DslError) as parsed:
            parse(text)
        assert parsed.value.errors[0].message == str(err)
    else:
        assert parse(text) == expected


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


KEYWORDS = ("modes", "param", "source", "bs", "phase", "mirror", "herald", "label")


@st.composite
def spaced_statements(draw):
    """`.icd` lines with random spaces and tabs between tokens, in any order,
    whose arguments are often pieces of their own keyword (`mirror r`)."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        keyword = draw(st.sampled_from(KEYWORDS))
        pieces = [keyword[i:j] for i in range(len(keyword))
                  for j in range(i + 1, len(keyword) + 1)]
        arg = st.sampled_from(pieces + ["0", "1", "-1", "1.5", "1.2.3", "1e400", "x"])
        toks = [keyword] + draw(st.lists(arg, max_size=3))
        gaps = draw(st.lists(st.text(" \t", min_size=1, max_size=3),
                             min_size=len(toks), max_size=len(toks)))
        lines.append("".join(t + g for t, g in zip(toks, gaps)))
    if draw(st.booleans()):
        lines.insert(0, "modes 2")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(spaced_statements())
def test_errors_point_at_their_token(text):
    try:
        parse(text)
    except DslError as err:
        errors = err.errors
    else:
        return
    lines = text.split("\n")
    for e in errors:
        if e.token:
            assert lines[e.line - 1][e.column - 1:].startswith(e.token), e


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(0, 6))
@example(2, 300)  # counts above 255 need a wider dtype than uint8
@example(1, 300)
def test_occupations_are_the_vectors(modes, photons):
    basis = enumerate_basis(modes, photons)
    occ = basis.occupations
    assert occ.shape == (len(basis), modes)
    assert occ.tolist() == [list(v) for v in basis.vectors]
    assert np.iinfo(occ.dtype).max >= photons
    assert basis.occupations is occ
    with pytest.raises(ValueError, match="read-only"):
        occ[0, 0] = 0


@st.composite
def bases_and_patterns(draw):
    """A basis and a pattern of (mode, count) pairs in any order, built from
    one basis vector: each mode is left free, keeps its count, gets a count
    one too high, or is given twice, with its count and then the same or a
    different one. So the pattern may be empty, partial or fix every mode,
    and match that vector, others or nothing."""
    basis = enumerate_basis(draw(st.integers(1, 6)), draw(st.integers(0, 5)))
    v = draw(st.sampled_from(basis.vectors))
    pairs = [(m, c) for m, n in enumerate(v)
             for c in draw(st.sampled_from(((), (n,), (n + 1,), (n, n), (n, n + 1))))]
    return basis, tuple(draw(st.permutations(pairs)))


@settings(max_examples=300, deadline=None)
@given(bases_and_patterns())
@example((enumerate_basis(3, 2), ()))
@example((enumerate_basis(3, 2), ((2, 0), (0, 1), (1, 1))))
@example((enumerate_basis(3, 2), ((2, 0), (0, 1), (2, 0), (1, 1))))
@example((enumerate_basis(3, 2), ((0, 1), (2, 0), (0, 2))))
def test_matching_is_the_per_vector_predicate(basis_and_pattern):
    basis, pattern = basis_and_pattern
    found = basis.matching(pattern)
    assert found == tuple(i for i, v in enumerate(basis.vectors)
                          if all(v[m] == c for m, c in pattern))
    assert all(type(i) is int for i in found)
