import itertools

import pytest

from fockmz import Circuit, basis_size, enumerate_basis, run_circuit, state_from_sources
from fockmz import fock
from fockmz.fock import MAX_BASIS_DIM, BasisTooLargeError, check_basis_size


def brute_force_occupations(modes, photons):
    return [v for v in itertools.product(range(photons + 1), repeat=modes)
            if sum(v) == photons]


def test_two_mode_two_photon_listing():
    basis = enumerate_basis(2, 2)
    assert basis.vectors == ((2, 0), (1, 1), (0, 2))
    assert len(basis) == 3


def test_single_mode():
    basis = enumerate_basis(1, 3)
    assert basis.vectors == ((3,),)


def test_size_four_modes_three_photons():
    # stars-and-bars C(6,3) = 20, cross-checked by brute force
    assert len(enumerate_basis(4, 3)) == 20
    assert len(brute_force_occupations(4, 3)) == 20


@pytest.mark.parametrize("modes", range(1, 9))
@pytest.mark.parametrize("photons", range(6))
def test_size_formula_against_enumeration(modes, photons):
    basis = enumerate_basis(modes, photons)
    assert len(basis) == basis_size(modes, photons)
    assert len(basis) == len(brute_force_occupations(modes, photons))


def test_ordering_descending_lex():
    vecs = enumerate_basis(3, 2).vectors
    assert list(vecs) == sorted(vecs, reverse=True)


def test_rank_unrank_bijective():
    for modes in range(1, 7):
        for photons in range(5):
            basis = enumerate_basis(modes, photons)
            for i, v in enumerate(basis.vectors):
                assert basis.rank(v) == i


def test_rank_first_element():
    basis = enumerate_basis(5, 4)
    assert basis.rank((4, 0, 0, 0, 0)) == 0
    assert basis.vectors[0] == (4, 0, 0, 0, 0)


def test_rank_rejects_foreign_vector():
    basis = enumerate_basis(3, 2)
    with pytest.raises(ValueError):
        basis.rank((1, 1, 1))


def test_state_from_sources_fig1_input():
    psi = state_from_sources(4, [(0, 2), (3, 1)])
    assert psi.amplitudes[psi.basis.rank((2, 0, 0, 1))] == 1.0
    assert psi.norm() == pytest.approx(1.0, abs=0)


def test_state_from_sources_vacuum():
    psi = state_from_sources(3, [])
    assert psi.amplitudes[psi.basis.rank((0, 0, 0))] == 1.0


def test_state_from_sources_rejects_duplicates():
    with pytest.raises(ValueError):
        state_from_sources(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        state_from_sources(3, [(5, 1)])


def test_oversized_basis_refused_before_enumeration(monkeypatch):
    def refuse(modes, photons):
        raise AssertionError("enumeration started past the size limit")
        yield  # pragma: no cover

    monkeypatch.setattr(fock, "_gen_occupations", refuse)
    assert basis_size(40, 12) > MAX_BASIS_DIM
    with pytest.raises(BasisTooLargeError, match="limit"):
        enumerate_basis(40, 12)
    with pytest.raises(BasisTooLargeError):
        state_from_sources(40, [(0, 12)])
    with pytest.raises(BasisTooLargeError):
        run_circuit(Circuit(40, ((0, 12),), ()))


def test_largest_allowed_dimension_is_the_limit():
    # one photon in M modes has M basis vectors
    assert check_basis_size(MAX_BASIS_DIM, 1) == MAX_BASIS_DIM
    with pytest.raises(BasisTooLargeError):
        check_basis_size(MAX_BASIS_DIM + 1, 1)


def test_full_patterns_match_by_rank():
    from fockmz import DetectionPattern
    basis = enumerate_basis(3, 2)
    # each vector, then a wrong photon number and a contradictory (-1) count
    for v in basis.vectors + ((1, 0, 0), (3, 0, -1)):
        expected = tuple(i for i, w in enumerate(basis.vectors) if w == v)
        assert basis.matching(DetectionPattern(v)) == expected
    assert basis.matching(DetectionPattern((None, 0, None))) == (0, 2, 5)
