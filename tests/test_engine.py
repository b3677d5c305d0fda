import math

import numpy as np
import pytest

from fockmz import (BeamSplitter, Circuit, Mirror, PhaseShifter, compose,
                    condition, evolve_elementwise, evolve_full, pattern_probability,
                    permanent_naive, permanent_ryser, run_circuit,
                    state_from_sources, transition_amplitude)
from fockmz.engine import DetectionPattern, ZeroProbabilityError, permanent
from fockmz.fock import StateVector, enumerate_basis
from tests_helpers_random import random_source_circuit


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng, modes, max_elements=10):
    elements = []
    for _ in range(rng.integers(1, max_elements + 1)):
        kind = rng.integers(0, 3)
        if kind == 0:
            i, j = rng.choice(modes, size=2, replace=False)
            elements.append(BeamSplitter(int(i), int(j)))
        elif kind == 1:
            elements.append(PhaseShifter(int(rng.integers(modes)),
                                         float(rng.uniform(0, 2 * math.pi))))
        else:
            elements.append(Mirror(int(rng.integers(modes))))
    return elements


class TestPermanents:
    def test_identity(self):
        assert permanent_naive(np.eye(2)) == 1
        assert permanent_ryser(np.eye(2)) == pytest.approx(1)

    def test_all_ones_gives_factorial(self):
        for n in range(1, 6):
            assert permanent_ryser(np.ones((n, n))) == pytest.approx(math.factorial(n))

    def test_empty_matrix(self):
        assert permanent_ryser(np.zeros((0, 0))) == 1

    def test_ryser_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert abs(permanent_ryser(A) - permanent_naive(A)) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            permanent_ryser(np.ones((2, 3)))
        with pytest.raises(ValueError):
            permanent_naive(np.ones((2, 3)))


class TestPermanentStack:
    @pytest.mark.parametrize("n", range(7))
    def test_stack_matches_naive_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        stack = rng.normal(size=(9, n, n)) + 1j * rng.normal(size=(9, n, n))
        perms = permanent(stack)
        assert perms.shape == (9,)
        for A, p in zip(stack, perms):
            assert abs(p - permanent_naive(A)) <= 1e-10

    def test_single_matrix_unchanged(self):
        rng = np.random.default_rng(3)
        for n in (3, 5):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert isinstance(permanent(A), complex)
            assert abs(permanent(A) - permanent_naive(A)) <= 1e-10

    def test_nested_batch_shape(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        perms = permanent(stack)
        assert perms.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert abs(perms[idx] - permanent_naive(stack[idx])) <= 1e-10

    def test_empty_stack_and_zero_size_matrices(self):
        assert permanent(np.zeros((0, 3, 3))).shape == (0,)
        assert np.array_equal(permanent(np.zeros((2, 0, 0))), [1, 1])

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            permanent(np.ones((3, 2, 3)))
        with pytest.raises(ValueError):
            permanent(np.ones((2, 2, 4, 3)))
        with pytest.raises(ValueError):
            permanent(np.ones(4))

    def test_rejects_oversized_matrices(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 13, 13)))
        with pytest.raises(ValueError):
            permanent(np.ones((13, 13)))
        with pytest.raises(ValueError):
            permanent_ryser(np.ones((13, 13)))
        with pytest.raises(ValueError):
            permanent_ryser(np.ones((2, 3, 3)))


class TestTransitionAmplitude:
    def test_hom_null(self):
        # (1*1 + i*i)/2 = 0 by direct permutation sum
        U = compose(Circuit(2, ((0, 1), (1, 1)), (BeamSplitter(0, 1),)))
        amp = transition_amplitude(U, (1, 1), (1, 1))
        assert abs(amp) ** 2 <= 1e-18

    def test_hom_bunching_amplitude(self):
        U = compose(Circuit(2, ((0, 1), (1, 1)), (BeamSplitter(0, 1),)))
        amp = transition_amplitude(U, (1, 1), (2, 0))
        assert abs(amp) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_identity_unitary(self):
        U = np.eye(3)
        assert transition_amplitude(U, (1, 0, 2), (1, 0, 2)) == pytest.approx(1)
        assert transition_amplitude(U, (1, 0, 2), (0, 1, 2)) == pytest.approx(0)

    def test_rejects_photon_mismatch(self):
        with pytest.raises(ValueError):
            transition_amplitude(np.eye(2), (1, 0), (1, 1))


class TestEvolveFull:
    def test_identity_preserves_state(self):
        psi = state_from_sources(3, [(0, 1), (2, 1)])
        out = evolve_full(np.eye(3), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=0)

    def test_norm_conserved(self):
        rng = np.random.default_rng(5)
        psi = state_from_sources(4, [(0, 2), (2, 1)])
        out = evolve_full(random_unitary(rng, 4), psi)
        assert abs(out.norm() - 1) <= 1e-9

    def test_two_photon_bright_port_square_law(self):
        # both photons in one input of a two-mode interferometer:
        # P(both at bright port) is the square of the single-photon rate
        circ = Circuit(2, ((0, 2),),
                       (BeamSplitter(0, 1), PhaseShifter(0, "phi"), BeamSplitter(0, 1)),
                       params={"phi"})
        for phi in np.linspace(0, 2 * math.pi, 17):
            psi = state_from_sources(2, circ.sources)
            out = evolve_full(compose(circ, {"phi": phi}), psi)
            p11 = pattern_probability(out, DetectionPattern.exactly(2, {1: 2}))
            p1 = (1 + math.cos(phi)) / 2
            assert p11 == pytest.approx(p1 ** 2, abs=1e-9)

    def test_matches_transition_amplitudes(self):
        rng = np.random.default_rng(8)
        psi = state_from_sources(5, [(0, 2), (1, 1), (3, 2)])
        U = random_unitary(rng, 5)
        out = evolve_full(U, psi)
        v_in = (2, 1, 0, 2, 0)
        for v, amp in zip(psi.basis.vectors, out.amplitudes):
            assert abs(amp - transition_amplitude(U, v_in, v)) <= 1e-12

    def test_superposed_input_is_linear(self):
        rng = np.random.default_rng(9)
        U = random_unitary(rng, 3)
        a = state_from_sources(3, [(0, 2)])
        b = state_from_sources(3, [(1, 1), (2, 1)])
        mixed = StateVector(a.basis, (a.amplitudes + 1j * b.amplitudes) / math.sqrt(2))
        want = (evolve_full(U, a).amplitudes
                + 1j * evolve_full(U, b).amplitudes) / math.sqrt(2)
        assert np.max(np.abs(evolve_full(U, mixed).amplitudes - want)) <= 1e-14

    def test_vacuum_maps_to_vacuum(self):
        out = evolve_full(np.eye(3), state_from_sources(3, []))
        assert out.amplitudes.tolist() == [1]

    def test_rejects_more_photons_than_limit(self):
        psi = state_from_sources(7, [(m, 1) for m in range(7)])
        with pytest.raises(ValueError, match="exceeds limit"):
            evolve_full(np.eye(7), psi)


class TestElementwiseEngine:
    def test_phase_shifter_diagonal_action(self):
        basis_state = state_from_sources(2, [(0, 2), (1, 1)])
        circ = Circuit(2, ((0, 2), (1, 1)), (PhaseShifter(0, 0.4),))
        out = evolve_elementwise(circ, None, basis_state)
        assert out.amplitudes[out.basis.rank((2, 1))] == pytest.approx(np.exp(2j * 0.4))

    @pytest.mark.parametrize("element, factor", [
        (PhaseShifter(1, 0.7), np.exp(1j * 0.7)), (PhaseShifter(1, 2.1), np.exp(1j * 2.1)),
        (Mirror(1), 1j)])
    def test_phase_powers_equal_scalar_loop(self, element, factor):
        # mode 1 holds every count 0..99; at n = 100 alone, CPython's 1j ** n
        # (the mirror's scalar factor) and numpy's differ in the last bit
        basis = enumerate_basis(2, 99)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        circ = Circuit(2, ((0, 99),), (element,))
        out = evolve_elementwise(circ, None, StateVector(basis, amps))
        want = amps * np.array([factor ** v[1] for v in basis.vectors])
        assert np.array_equal(out.amplitudes, want)

    def test_beam_splitter_hom(self):
        circ = Circuit(2, ((0, 1), (1, 1)), (BeamSplitter(0, 1),))
        out = run_circuit(circ)
        assert abs(out.amplitudes[out.basis.rank((1, 1))]) <= 1e-15
        assert abs(out.amplitudes[out.basis.rank((2, 0))]) == \
            pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_matches_full_engine_on_random_circuits(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            modes = int(rng.integers(2, 7))
            photons = int(rng.integers(1, 5))
            counts = rng.multinomial(photons, np.full(modes, 1.0 / modes))
            sources = tuple((m, int(c)) for m, c in enumerate(counts) if c)
            circ = Circuit(modes, sources, tuple(random_circuit(rng, modes)))
            fast = run_circuit(circ, engine="elementwise")
            slow = run_circuit(circ, engine="full")
            assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) <= 1e-9
            assert abs(fast.norm() - 1) <= 1e-9


class TestPatternsAndConditioning:
    def test_all_any_pattern_sums_to_one(self):
        psi = run_circuit(Circuit(3, ((0, 2),), (BeamSplitter(0, 1), BeamSplitter(1, 2))))
        assert pattern_probability(psi, DetectionPattern((None, None, None))) == \
            pytest.approx(1.0, abs=1e-12)

    def test_source_mode_before_elements(self):
        psi = state_from_sources(2, [(0, 2)])
        assert pattern_probability(psi, DetectionPattern.exactly(2, {0: 2})) == 1.0

    def test_partition_completeness(self):
        psi = run_circuit(Circuit(2, ((0, 2),), (BeamSplitter(0, 1),)))
        total = sum(pattern_probability(psi, DetectionPattern.exactly(2, {0: k, 1: 2 - k}))
                    for k in range(3))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_condition_on_unpopulated_mode(self):
        psi = run_circuit(Circuit(3, ((0, 1),), (BeamSplitter(0, 1),)))
        res = condition(psi, [(2, 0)])
        assert res.probability == pytest.approx(1.0, abs=1e-12)
        assert res.kept_modes == (0, 1)

    def test_condition_zero_probability_errors(self):
        psi = state_from_sources(2, [(0, 2)])
        with pytest.raises(ZeroProbabilityError):
            condition(psi, [(1, 3)])

    def test_condition_reduced_state_normalized(self):
        circ = Circuit(3, ((0, 1), (2, 1)), (BeamSplitter(0, 1), BeamSplitter(0, 2)))
        res = condition(run_circuit(circ), [(0, 1)])
        assert res.reduced_state.norm() == pytest.approx(1.0, abs=1e-12)


def per_vector_condition(psi, heralds):
    """`condition` as a loop over every basis vector, ranking each match in
    the reduced basis: the reference for the memoised herald path."""
    basis = psi.basis
    heralds = tuple((int(m), int(n)) for m, n in heralds)
    hmodes = [m for m, _ in heralds]
    if len(set(hmodes)) != len(hmodes):
        raise ValueError("herald modes must be distinct")
    hmap = dict(heralds)
    kept = tuple(m for m in range(basis.modes) if m not in hmap)
    if not kept:
        raise ValueError("conditioning must leave at least one free mode")
    n_left = basis.photons - sum(hmap.values())
    if n_left < 0:
        raise ZeroProbabilityError("herald counts exceed total photon number")
    red_basis = enumerate_basis(len(kept), n_left)
    red = np.zeros(len(red_basis), dtype=complex)
    prob = 0.0
    for idx, v in enumerate(basis.vectors):
        if all(v[m] == n for m, n in heralds):
            amp = psi.amplitudes[idx]
            prob += abs(amp) ** 2
            red[red_basis.rank(tuple(v[m] for m in kept))] = amp
    if prob <= 1e-300:
        raise ZeroProbabilityError("herald pattern has zero probability")
    return prob, StateVector(red_basis, red / math.sqrt(prob)), kept


def outcome(fn, psi, heralds):
    try:
        return fn(psi, heralds)
    except ValueError as exc:
        return type(exc)


class TestConditionMatchesPerVectorLoop:
    def random_states(self, rng):
        for _ in range(300):
            circuit = random_source_circuit(rng, max_modes=5, max_photons=4)
            yield run_circuit(circuit)
        for _ in range(100):  # arbitrary amplitudes, some exactly zero
            basis = enumerate_basis(int(rng.integers(2, 6)), int(rng.integers(0, 5)))
            amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            amps[rng.random(len(basis)) < 0.3] = 0
            yield StateVector(basis, amps)

    def test_bit_identical_on_random_states(self):
        rng = np.random.default_rng(41)
        conditioned = zero = 0
        for psi in self.random_states(rng):
            modes, photons = psi.basis.modes, psi.basis.photons
            hmodes = rng.choice(modes, size=int(rng.integers(1, modes)), replace=False)
            heralds = [(int(m), int(rng.integers(0, photons + 2))) for m in hmodes]
            got = outcome(condition, psi, heralds)
            want = outcome(per_vector_condition, psi, heralds)
            if isinstance(want, type):
                assert got is want
                zero += 1
                continue
            prob, reduced, kept = want
            assert got.probability == prob
            assert got.reduced_state.basis == reduced.basis
            assert np.array_equal(got.reduced_state.amplitudes, reduced.amplitudes)
            assert got.kept_modes == kept
            conditioned += 1
        assert conditioned > 100 and zero > 100

    def test_heralds_above_photon_number_are_zero_probability(self):
        psi = run_circuit(Circuit(3, ((0, 2), (1, 1)), (BeamSplitter(0, 1),)))
        for heralds in ([(0, 4)], [(0, 2), (1, 2)], [(2, 3)]):
            assert outcome(per_vector_condition, psi, heralds) is ZeroProbabilityError
            with pytest.raises(ZeroProbabilityError):
                condition(psi, heralds)

    @pytest.mark.parametrize("heralds", [[(0, 1), (0, 1)], [(0, 1), (1, 0), (2, 0)]])
    def test_invalid_heralds_raise_value_error(self, heralds):
        psi = run_circuit(Circuit(3, ((0, 1),), (BeamSplitter(0, 1),)))
        assert outcome(per_vector_condition, psi, heralds) is ValueError
        assert outcome(condition, psi, heralds) is ValueError


def full_scan_probability(psi, pattern):
    """pattern_probability as a predicate on every basis vector."""
    total = 0.0
    for idx, v in enumerate(psi.basis.vectors):
        if all(c is None or c == n for c, n in zip(pattern.constraints, v)):
            total += abs(psi.amplitudes[idx]) ** 2
    return total


class TestMemoisedBasisWork:
    def test_pattern_probability_bit_identical_to_full_scan(self):
        rng = np.random.default_rng(23)
        for modes, photons in ((2, 3), (4, 3), (5, 4), (6, 2)):
            basis = enumerate_basis(modes, photons)
            patterns = [DetectionPattern(tuple(
                None if rng.random() < 0.5 else int(rng.integers(0, photons + 1))
                for _ in range(modes))) for _ in range(12)]
            for _ in range(5):
                amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
                psi = StateVector(basis, amps / np.linalg.norm(amps))
                for pattern in patterns:
                    want = full_scan_probability(psi, pattern)
                    assert pattern_probability(psi, pattern) == want
                    assert pattern_probability(psi, pattern) == want  # memo hit

    def test_matching_indices_are_ascending_and_memoised(self):
        basis = enumerate_basis(4, 3)
        pattern = DetectionPattern.exactly(4, {1: 1})
        indices = basis.matching(pattern)
        assert indices == tuple(i for i, v in enumerate(basis.vectors) if v[1] == 1)
        assert basis.matching(DetectionPattern.exactly(4, {1: 1})) is indices
        assert basis.matching(DetectionPattern.exactly(4, {1: 4})) == ()

    def test_circuit_holds_one_basis_and_fresh_amplitudes(self):
        circ = Circuit(3, ((0, 1), (2, 1)), (BeamSplitter(0, 1), PhaseShifter(1, "x"),
                                              BeamSplitter(1, 2)), params={"x"})
        first = run_circuit(circ, {"x": 0.3})
        kept = first.amplitudes.copy()
        second = run_circuit(circ, {"x": 1.9})
        third = run_circuit(circ, {"x": 0.3}, engine="full")
        assert first.basis is second.basis is third.basis is circ.basis
        assert first.amplitudes is not second.amplitudes
        assert np.array_equal(first.amplitudes, kept)
        assert np.max(np.abs(first.amplitudes - third.amplitudes)) <= 1e-12
        assert circ.basis.vectors == enumerate_basis(3, 2).vectors
