import math

import numpy as np
import pytest

from fockmz import (BeamSplitter, Circuit, Mirror, PhaseShifter,
                    UnboundParameterError, check_unitary, compose,
                    pattern_probability, run_circuit)
from fockmz.circuit import resolve_phase
from fockmz.engine import DetectionPattern

INV_SQRT2 = 1 / math.sqrt(2)


def element_matrix(M, *elements):
    """The mode matrix of a few elements, through `compose`."""
    return compose(Circuit(M, (), elements))


def test_beam_splitter_two_mode_block():
    U = element_matrix(2, BeamSplitter(0, 1))
    expected = INV_SQRT2 * np.array([[1, 1j], [1j, 1]])
    assert np.allclose(U, expected, atol=0)


def test_beam_splitter_untouched_mode():
    U = element_matrix(3, BeamSplitter(0, 2))
    assert np.array_equal(U[1], [0, 1, 0])


def test_beam_splitter_unitary_by_construction():
    for M, i, j in [(2, 0, 1), (4, 1, 3), (6, 5, 0)]:
        ok, dev = check_unitary(element_matrix(M, BeamSplitter(i, j)), 1e-12)
        assert ok, dev


def test_beam_splitter_rejects_bad_modes():
    with pytest.raises(ValueError):
        element_matrix(3, BeamSplitter(1, 1))
    with pytest.raises(ValueError):
        element_matrix(3, BeamSplitter(0, 3))


def test_phase_unitary_zero_is_identity():
    assert np.allclose(element_matrix(3, PhaseShifter(1, 0.0)), np.eye(3), atol=0)


def test_phase_unitary_pi_single_mode():
    assert np.allclose(element_matrix(1, PhaseShifter(0, math.pi)), [[-1]], atol=1e-15)


def test_mirror_is_diagonal_i():
    U = element_matrix(2, Mirror(1))
    assert np.allclose(U, np.diag([1, 1j]), atol=0)


def test_mirror_pair_leaves_probabilities_unchanged():
    # mirrors on both arms between the splitters: common factor i only
    plain = Circuit(2, ((0, 1),), (BeamSplitter(0, 1), PhaseShifter(0, 0.8),
                                   BeamSplitter(0, 1)))
    mirrored = Circuit(2, ((0, 1),), (BeamSplitter(0, 1), Mirror(0), Mirror(1),
                                      PhaseShifter(0, 0.8), BeamSplitter(0, 1)))
    a = run_circuit(plain)
    b = run_circuit(mirrored)
    assert np.max(np.abs(np.abs(a.amplitudes) ** 2 - np.abs(b.amplitudes) ** 2)) <= 1e-12


def test_compose_empty_is_identity():
    circ = Circuit(3, ((0, 1),), ())
    assert np.allclose(compose(circ), np.eye(3), atol=0)


def test_compose_two_mode_mz_at_zero_phase():
    circ = Circuit(2, ((0, 1),),
                   (BeamSplitter(0, 1), PhaseShifter(0, "phi"), BeamSplitter(0, 1)),
                   params={"phi"})
    U = compose(circ, {"phi": 0.0})
    assert abs(U[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(U[0, 0]) ** 2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("phi", np.linspace(0, 2 * math.pi, 9))
def test_compose_single_photon_bright_port_law(phi):
    circ = Circuit(2, ((0, 1),),
                   (BeamSplitter(0, 1), PhaseShifter(0, "phi"), BeamSplitter(0, 1)),
                   params={"phi"})
    U = compose(circ, {"phi": phi})
    assert abs(U[1, 0]) ** 2 == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-12)


def test_compose_reports_unbound_parameter():
    circ = Circuit(2, ((0, 1),), (PhaseShifter(0, "theta"),), params={"theta"})
    with pytest.raises(UnboundParameterError) as err:
        compose(circ, {})
    assert err.value.name == "theta"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_resolve_phase_rejects_non_finite_bound_values(bad):
    assert resolve_phase("phi", {"phi": 0.5}) == 0.5
    with pytest.raises(ValueError):
        resolve_phase("phi", {"phi": bad})
    with pytest.raises(ValueError):
        resolve_phase(bad, None)


def test_compose_prefix_suffix_association():
    rng = np.random.default_rng(3)
    elements = tuple(BeamSplitter(int(a), int(b)) if a != b else Mirror(int(a))
                     for a, b in rng.integers(0, 4, size=(8, 2)))
    circ = Circuit(4, ((0, 2),), elements)
    whole = compose(circ)
    front = compose(Circuit(4, ((0, 2),), elements[:4]))
    back = compose(Circuit(4, ((0, 2),), elements[4:]))
    assert np.max(np.abs(back @ front - whole)) <= 1e-12


def test_check_unitary_detects_scaling():
    U = element_matrix(3, BeamSplitter(0, 1))
    U[0, 0] *= 1.01
    ok, dev = check_unitary(U, 1e-9)
    assert not ok and dev > 1e-3


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, ((0, 1),), (BeamSplitter(0, 0),))
    with pytest.raises(ValueError):
        Circuit(2, ((0, 1), (0, 1)), ())
    with pytest.raises(ValueError):
        Circuit(2, ((0, 1),), (PhaseShifter(0, "phi"),))  # undeclared param
    with pytest.raises(ValueError):
        Circuit(2, ((0, 1),), (), heralds=((1, 0), (1, 1)))


@pytest.mark.parametrize("kwargs, message", [
    (dict(heralds=((0, 1), (1, 0))), "heralds leave no free mode"),
    (dict(labels=(("x", 7),)), "label mode 7 out of range for 2 modes"),
    (dict(labels=(("x", 0), ("x", 1))), "duplicate label 'x'"),
    (dict(heralds=((0, -1),)), "herald photon count must be >= 0"),
])
def test_circuit_rejects_what_the_parser_rejects(kwargs, message):
    with pytest.raises(ValueError) as err:
        Circuit(2, ((0, 1),), (), **kwargs)
    assert str(err.value) == message


def test_global_phase_invariance():
    from fockmz.engine import evolve_full
    from fockmz import state_from_sources
    circ = Circuit(3, ((0, 2),), (BeamSplitter(0, 1), BeamSplitter(1, 2)))
    psi = state_from_sources(3, circ.sources)
    U = compose(circ)
    base = evolve_full(U, psi)
    shifted = evolve_full(np.exp(0.7j) * U, psi)
    pattern = DetectionPattern.exactly(3, {0: 1, 1: 1})
    assert abs(pattern_probability(base, pattern)
               - pattern_probability(shifted, pattern)) <= 1e-12
