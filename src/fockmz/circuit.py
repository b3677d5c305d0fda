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

from .fock import FockBasis, enumerate_basis, occupation_errors

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


def circuit_errors(modes, sources, elements, heralds, labels, params):
    """Every rule the parts of a circuit break, as (field, index, message):
    the Circuit field, the index of the offending entry in it (None for
    `modes`) and what is wrong. Errors come in `.icd` statement order, so the
    first one is also the first the `.icd` parser reports.
    """
    if modes < 1:
        yield "modes", None, "circuit needs at least one mode"
        return  # with no mode in range, every other rule would only repeat this
    for index, message in occupation_errors(modes, sources, "source"):
        yield "sources", index, message
    for index, el in enumerate(elements):
        if isinstance(el, BeamSplitter):
            kind, used = "beam splitter", (el.i, el.j)
        elif isinstance(el, PhaseShifter):
            kind, used = "phase shifter", (el.mode,)
        elif isinstance(el, Mirror):
            kind, used = "mirror", (el.mode,)
        else:
            raise TypeError(f"unknown element {el!r}")
        for mode in used:
            if not 0 <= mode < modes:
                yield "elements", index, f"{kind} mode {mode} out of range for {modes} modes"
        if isinstance(el, BeamSplitter) and el.i == el.j:
            yield "elements", index, "beam splitter modes must be distinct"
        if isinstance(el, PhaseShifter) and isinstance(el.phase, str) and el.phase not in params:
            yield "elements", index, f"undeclared parameter '{el.phase}'"
    for index, message in occupation_errors(modes, heralds, "herald"):
        yield "heralds", index, message
    if len({mode for mode, _ in heralds if 0 <= mode < modes}) == modes:
        yield "heralds", len(heralds) - 1, "heralds leave no free mode"
    names = set()
    for index, (name, mode) in enumerate(labels):
        if not 0 <= mode < modes:
            yield "labels", index, f"label mode {mode} out of range for {modes} modes"
        if name in names:
            yield "labels", index, f"duplicate label '{name}'"
        names.add(name)


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
        object.__setattr__(self, "params", frozenset(self.params))
        labels = tuple((str(n), int(m)) for n, m in self.labels)  # sorted once valid
        for _, _, message in circuit_errors(self.modes, self.sources, self.elements,
                                            self.heralds, labels, self.params):
            raise ValueError(message)
        object.__setattr__(self, "labels", tuple(sorted(labels)))

    @property
    def photons(self) -> int:
        return sum(n for _, n in self.sources)

    @cached_property
    def basis(self) -> FockBasis:
        """The source state's basis, enumerated once and shared by every run."""
        return enumerate_basis(self.modes, self.photons)


def compose(circuit: Circuit, bindings=None) -> np.ndarray:
    """Total mode unitary U_k ... U_2 U_1 (first element applied first).

    Each element rewrites only the rows of the modes it acts on.
    """
    U = np.eye(circuit.modes, dtype=complex)
    for el in circuit.elements:
        if isinstance(el, BeamSplitter):
            row_i = U[el.i].copy()
            U[el.i] = (row_i + 1j * U[el.j]) * INV_SQRT2
            U[el.j] = (1j * row_i + U[el.j]) * INV_SQRT2
        elif isinstance(el, PhaseShifter):
            U[el.mode] *= np.exp(1j * resolve_phase(el.phase, bindings))
        else:  # Mirror
            U[el.mode] *= 1j
    return U


def check_unitary(U: np.ndarray, tol: float):
    """Returns (pass, max entrywise deviation of U^dag U from identity)."""
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("unitarity check needs a square matrix")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
    return dev <= tol, dev
