"""Fock-state evolution through mode unitaries, plus heralded conditioning.

Two independent engines are provided on purpose:

* `evolve_full` contracts the composed mode unitary with the state via
  matrix permanents: for each occupied input it stacks the sub-matrices of
  all output patterns and evaluates them in one batched Gray-code Ryser
  pass (`permanent` accepts such `(..., n, n)` stacks);
* `evolve_elementwise` applies each circuit element directly to the
  occupation amplitudes by binomially expanding the rewritten creation
  operators.

They are each other's oracle: the paper-level claims here are exact
interference cancellations, so bugs must not be self-confirming. The
permutation-sum `permanent_naive` is in turn the tests' oracle for the Ryser
kernel; nothing else calls it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import (Circuit, Mirror, PhaseShifter, circuit_errors, compose,
                      resolve_phase)
from .fock import StateVector, enumerate_basis, state_from_sources

PHOTON_LIMIT = 6  # default cap for permanent-based evolution


class ZeroProbabilityError(ValueError):
    """Conditioning on a herald pattern with probability zero."""


def permanent_naive(A) -> complex:
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError("permanent needs a square matrix")
    if n == 0:
        return 1 + 0j
    if n > 8:
        raise ValueError("naive permanent limited to n <= 8")
    total = 0j
    for perm in itertools.permutations(range(n)):
        p = 1 + 0j
        for i, j in enumerate(perm):
            p *= A[i, j]
        total += p
    return total


def _ryser_stack(A) -> np.ndarray:
    """Permanents of a (B, n, n) stack by Ryser's formula, Gray-code order.

    Consecutive subsets differ by one column, so the (B, n) row sums of all
    B matrices are updated once per subset instead of being re-summed.
    """
    B, n = A.shape[0], A.shape[-1]
    if n == 0:
        return np.ones(B, dtype=complex)
    row_sums = np.zeros((B, n), dtype=complex)
    gray = 0
    total = np.zeros(B, dtype=complex)
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = new_gray ^ gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += A[:, :, j]
        else:
            row_sums -= A[:, :, j]
        gray = new_gray
        prod = np.prod(row_sums, axis=1)
        if new_gray.bit_count() & 1:
            total -= prod
        else:
            total += prod
    return total if n % 2 == 0 else -total


def _check_square(A) -> int:
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("permanent needs a square matrix")
    n = A.shape[-1]
    if n > 12:
        raise ValueError("Ryser permanent limited to n <= 12")
    return n


def permanent_ryser(A) -> complex:
    """Ryser inclusion-exclusion permanent of one square matrix."""
    if np.ndim(A) != 2:
        raise ValueError("permanent needs a square matrix")
    return permanent(A)


def permanent(A):
    """Permanent of a square matrix, or the array of permanents of a
    (..., n, n) stack; every shape goes through one batched Ryser pass."""
    A = np.asarray(A, dtype=complex)
    n = _check_square(A)
    batch = A.shape[:-2]
    perms = _ryser_stack(A.reshape(math.prod(batch), n, n))
    return complex(perms[0]) if A.ndim == 2 else perms.reshape(batch)


def _expand_indices(occ):
    out = []
    for mode, n in enumerate(occ):
        out.extend([mode] * n)
    return out


def transition_amplitude(U, input_occ, output_occ) -> complex:
    """<output| U_hat |input> = per(U_sub) / sqrt(prod in_m! prod out_k!)."""
    input_occ = tuple(input_occ)
    output_occ = tuple(output_occ)
    n_in, n_out = sum(input_occ), sum(output_occ)
    if n_in != n_out:
        raise ValueError(f"photon-number mismatch: {n_in} vs {n_out}")
    if n_in > PHOTON_LIMIT:
        raise ValueError(f"photon number {n_in} exceeds limit {PHOTON_LIMIT}")
    if n_in == 0:
        return 1 + 0j
    U = np.asarray(U, dtype=complex)
    cols = _expand_indices(input_occ)
    rows = _expand_indices(output_occ)
    sub = U[np.ix_(rows, cols)]
    norm = 1.0
    for n in input_occ:
        norm *= math.factorial(n)
    for n in output_occ:
        norm *= math.factorial(n)
    return permanent(sub) / math.sqrt(norm)


def evolve_full(U, psi: StateVector) -> StateVector:
    """Permanent-based evolution of a Fock state through a mode unitary.

    For each occupied input, the sub-matrices of every output pattern are
    stacked and their permanents taken in a single batched call.
    """
    U = np.asarray(U, dtype=complex)
    basis = psi.basis
    if U.shape != (basis.modes, basis.modes):
        raise ValueError(f"unitary dimension {U.shape} does not match "
                         f"{basis.modes} modes")
    n = basis.photons
    if n > PHOTON_LIMIT:
        raise ValueError(f"photon number {n} exceeds limit {PHOTON_LIMIT}")
    occ = basis.occupations
    # row index of photon t in each output: modes whose running count is <= t
    rows = (np.cumsum(occ, axis=1)[:, :, None] <= np.arange(n)).sum(axis=1)
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    out_norms = fact[occ].prod(axis=1)
    out = np.zeros(len(basis), dtype=complex)
    for idx_in in np.flatnonzero(psi.amplitudes):
        v_in = basis.vectors[idx_in]
        cols = np.array(_expand_indices(v_in), dtype=np.intp)
        in_norm = fact[list(v_in)].prod()
        perms = permanent(U[rows[:, :, None], cols])
        out += psi.amplitudes[idx_in] * (perms / np.sqrt(in_norm * out_norms))
    return StateVector(basis, out)


def _apply_phase_diag(basis, amps, mode, factor_per_photon):
    return amps * factor_per_photon ** basis.occupations[:, mode]


def _apply_beam_splitter(basis, amps, i, j):
    # rewrite a_i^dag -> (a_i^dag + i a_j^dag)/sqrt2, a_j^dag -> (i a_i^dag + a_j^dag)/sqrt2
    # and expand the p-th and q-th powers binomially
    alpha = delta = 1.0 / math.sqrt(2.0)
    beta = gamma = 1j / math.sqrt(2.0)
    out = np.zeros_like(amps)
    fact = [math.factorial(n) for n in range(basis.photons + 1)]
    for idx, v in enumerate(basis.vectors):
        c = amps[idx]
        if c == 0:
            continue
        p, q = v[i], v[j]
        base = c / math.sqrt(fact[p] * fact[q])
        for k in range(p + 1):
            ck = math.comb(p, k) * alpha ** k * beta ** (p - k)
            for l in range(q + 1):
                cl = math.comb(q, l) * gamma ** l * delta ** (q - l)
                ni, nj = k + l, p + q - k - l
                w = list(v)
                w[i], w[j] = ni, nj
                out[basis.rank(tuple(w))] += base * ck * cl * math.sqrt(fact[ni] * fact[nj])
    return out


def evolve_elementwise(circuit: Circuit, bindings, psi: StateVector) -> StateVector:
    """Element-by-element evolution, independent of the permanent engine."""
    basis = psi.basis
    if basis.modes != circuit.modes:
        raise ValueError("state mode count does not match circuit")
    amps = psi.amplitudes.copy()
    for el in circuit.elements:
        if isinstance(el, PhaseShifter):
            phi = resolve_phase(el.phase, bindings)
            amps = _apply_phase_diag(basis, amps, el.mode, np.exp(1j * phi))
        elif isinstance(el, Mirror):
            amps = _apply_phase_diag(basis, amps, el.mode, 1j)
        else:  # BeamSplitter
            amps = _apply_beam_splitter(basis, amps, el.i, el.j)
    return StateVector(basis, amps)


def run_circuit(circuit: Circuit, bindings=None, engine="elementwise") -> StateVector:
    """Evolve the circuit's source state through all elements."""
    psi = state_from_sources(circuit.modes, circuit.sources, circuit.basis)
    if engine == "elementwise":
        return evolve_elementwise(circuit, bindings, psi)
    if engine == "full":
        return evolve_full(compose(circuit, bindings), psi)
    raise ValueError(f"unknown engine '{engine}'")


@dataclass(frozen=True)
class DetectionPattern:
    """Per-mode constraint: an exact photon count or None for 'any'."""

    constraints: tuple  # length = modes; entries int or None

    @classmethod
    def exactly(cls, modes: int, counts: dict) -> "DetectionPattern":
        cons = [None] * modes
        for mode, n in counts.items():
            if not 0 <= mode < modes:
                raise ValueError(f"pattern mode {mode} out of range")
            cons[mode] = int(n)
        return cls(tuple(cons))

    def merged(self, other: "DetectionPattern") -> "DetectionPattern":
        cons = []
        for a, b in zip(self.constraints, other.constraints):
            if a is not None and b is not None and a != b:
                # contradictory constraints match nothing; keep an impossible count
                cons.append(-1)
            else:
                cons.append(a if a is not None else b)
        return DetectionPattern(tuple(cons))


def pattern_probability(psi: StateVector, pattern: DetectionPattern) -> float:
    if len(pattern.constraints) != psi.basis.modes:
        raise ValueError("pattern mode count does not match state")
    amps = psi.amplitudes
    total = 0.0
    for idx in psi.basis.matching(pattern):
        total += abs(amps[idx]) ** 2
    return total


def herald_probability(psi: StateVector, pattern: DetectionPattern) -> float:
    """The herald pattern's probability; ZeroProbabilityError if it is zero."""
    p = pattern_probability(psi, pattern)
    if p <= 1e-300:
        raise ZeroProbabilityError("herald pattern has zero probability")
    return p


@dataclass(frozen=True)
class ConditionalResult:
    probability: float
    reduced_state: StateVector
    kept_modes: tuple  # original indices of the unconstrained modes


def condition(psi: StateVector, heralds) -> ConditionalResult:
    """Project onto exact herald counts and renormalize over the free modes."""
    basis = psi.basis
    heralds = tuple((int(m), int(n)) for m, n in heralds)
    for _, _, message in circuit_errors(basis.modes, (), (), heralds, (), ()):
        raise ValueError(message)
    hmap = dict(heralds)
    pattern = DetectionPattern.exactly(basis.modes, hmap)
    prob = herald_probability(psi, pattern)
    kept = tuple(m for m in range(basis.modes) if m not in hmap)
    red_basis = enumerate_basis(len(kept), basis.photons - sum(hmap.values()))
    # ascending matches run through the free modes in reduced-basis order
    red = psi.amplitudes[list(basis.matching(pattern))]
    return ConditionalResult(prob, StateVector(red_basis, red / math.sqrt(prob)), kept)
