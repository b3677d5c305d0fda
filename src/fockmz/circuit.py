"""Optical elements, circuit assembly, and mode-unitary composition.

Beam-splitter convention (symmetric): input i -> (output i + i*output j)/sqrt(2),
input j -> (i*output i + output j)/sqrt(2). A mirror contributes a diagonal
phase of i on its mode; any common arm phase cancels in closed interferometers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import FockBasis, enumerate_basis, source_occupation

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class UnboundParameterError(KeyError):
    def __init__(self, name):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"unbound phase parameter '{self.name}'"


@dataclass(frozen=True)
class BeamSplitter:
    i: int
    j: int


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    phase: object  # float literal (radians) or parameter name


@dataclass(frozen=True)
class Mirror:
    mode: int


Element = (BeamSplitter, PhaseShifter, Mirror)


def resolve_phase(phase, bindings) -> float:
    if isinstance(phase, str):
        if bindings is None or phase not in bindings:
            raise UnboundParameterError(phase)
        value = float(bindings[phase])
    else:
        value = float(phase)
    if not math.isfinite(value):
        raise ValueError("phase angle must be finite")
    return value


@dataclass(frozen=True)
class Circuit:
    """Ordered optical elements plus sources, heralds and phase parameters."""

    modes: int
    sources: tuple      # ((mode, count), ...)
    elements: tuple     # ordered elements, first applied first
    heralds: tuple = () # ((mode, exact count), ...)
    labels: tuple = ()  # ((name, mode), ...) cosmetic mode names
    params: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple((int(m), int(n)) for m, n in self.sources))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "heralds", tuple((int(m), int(n)) for m, n in self.heralds))
        object.__setattr__(self, "labels",
                           tuple(sorted((str(n), int(m)) for n, m in self.labels)))
        object.__setattr__(self, "params", frozenset(self.params))
        self._validate()

    def _validate(self):
        M = self.modes
        if M < 1:
            raise ValueError("circuit needs at least one mode")
        source_occupation(M, self.sources)
        for el in self.elements:
            if isinstance(el, BeamSplitter):
                if el.i == el.j:
                    raise ValueError("beam splitter modes must be distinct")
                if not (0 <= el.i < M and 0 <= el.j < M):
                    raise ValueError(f"beam splitter mode out of range: {el}")
            elif isinstance(el, PhaseShifter):
                if not 0 <= el.mode < M:
                    raise ValueError(f"phase shifter mode {el.mode} out of range")
                if isinstance(el.phase, str) and el.phase not in self.params:
                    raise ValueError(f"phase parameter '{el.phase}' not declared")
            elif isinstance(el, Mirror):
                if not 0 <= el.mode < M:
                    raise ValueError(f"mirror mode {el.mode} out of range")
            else:
                raise TypeError(f"unknown element {el!r}")
        hseen = set()
        for mode, n in self.heralds:
            if not 0 <= mode < M:
                raise ValueError(f"herald mode {mode} out of range")
            if mode in hseen:
                raise ValueError(f"duplicate herald mode {mode}")
            if n < 0:
                raise ValueError("negative herald photon count")
            hseen.add(mode)

    @property
    def photons(self) -> int:
        return sum(n for _, n in self.sources)

    @cached_property
    def basis(self) -> FockBasis:
        """The source state's basis, enumerated once and shared by every run."""
        return enumerate_basis(self.modes, self.photons)


def beam_splitter_unitary(M: int, i: int, j: int) -> np.ndarray:
    if i == j:
        raise ValueError("beam splitter modes must be distinct")
    if not (0 <= i < M and 0 <= j < M):
        raise ValueError("beam splitter mode out of range")
    U = np.eye(M, dtype=complex)
    U[i, i] = U[j, j] = INV_SQRT2
    U[i, j] = U[j, i] = 1j * INV_SQRT2
    return U


def phase_unitary(M: int, m: int, phi: float) -> np.ndarray:
    if not 0 <= m < M:
        raise ValueError("phase shifter mode out of range")
    if not np.isfinite(phi):
        raise ValueError("phase angle must be finite")
    U = np.eye(M, dtype=complex)
    U[m, m] = np.exp(1j * phi)
    return U


def mirror_unitary(M: int, m: int) -> np.ndarray:
    if not 0 <= m < M:
        raise ValueError("mirror mode out of range")
    U = np.eye(M, dtype=complex)
    U[m, m] = 1j
    return U


def element_unitary(el, M: int, bindings=None) -> np.ndarray:
    if isinstance(el, BeamSplitter):
        return beam_splitter_unitary(M, el.i, el.j)
    if isinstance(el, PhaseShifter):
        return phase_unitary(M, el.mode, resolve_phase(el.phase, bindings))
    if isinstance(el, Mirror):
        return mirror_unitary(M, el.mode)
    raise TypeError(f"unknown element {el!r}")


def compose(circuit: Circuit, bindings=None) -> np.ndarray:
    """Total mode unitary U_k ... U_2 U_1 (first element applied first)."""
    U = np.eye(circuit.modes, dtype=complex)
    for el in circuit.elements:
        U = element_unitary(el, circuit.modes, bindings) @ U
    return U


def check_unitary(U: np.ndarray, tol: float):
    """Returns (pass, max entrywise deviation of U^dag U from identity)."""
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("unitarity check needs a square matrix")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
    return dev <= tol, dev
