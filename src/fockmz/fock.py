"""Fock-basis enumeration and state vectors for fixed photon number."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_BASIS_DIM = 10 ** 6  # largest basis that is enumerated


class BasisTooLargeError(ValueError):
    """A basis above MAX_BASIS_DIM vectors, refused before enumeration."""


def _gen_occupations(modes, photons):
    # descending lexicographic order, mode 0 most significant
    if modes == 1:
        yield (photons,)
        return
    for first in range(photons, -1, -1):
        for rest in _gen_occupations(modes - 1, photons - first):
            yield (first,) + rest


@dataclass(frozen=True)
class FockBasis:
    """All occupation vectors of `photons` photons over `modes` modes.

    Ordering is descending lexicographic with mode 0 most significant,
    so (2,0) < (1,1) < (0,2) by index. The indices a detection pattern
    matches are memoised per pattern (`matching`): a pattern that fixes
    every mode is looked up by rank, any other is one mask over the
    `occupations` array.
    """

    modes: int
    photons: int
    vectors: tuple = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _matches: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.photons < 0:
            raise ValueError("photons must be >= 0")
        check_basis_size(self.modes, self.photons)
        vecs = tuple(_gen_occupations(self.modes, self.photons))
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(vecs)})
        object.__setattr__(self, "_matches", {})

    def __len__(self):
        return len(self.vectors)

    def rank(self, v) -> int:
        try:
            return self._index[tuple(v)]
        except KeyError:
            raise ValueError(f"{tuple(v)} is not in basis "
                             f"(modes={self.modes}, photons={self.photons})") from None

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim, modes) photon counts, row i being vectors[i]."""
        occ = np.array(self.vectors, dtype=np.min_scalar_type(self.photons))
        occ.flags.writeable = False
        return occ

    def matching(self, pattern) -> tuple:
        """Ascending indices of the vectors a (hashable) pattern matches."""
        if pattern not in self._matches:
            cons = pattern.constraints
            if None in cons:
                fixed = [m for m, n in enumerate(cons) if n is not None]
                mask = (self.occupations[:, fixed] == [cons[m] for m in fixed]).all(axis=1)
                found = tuple(np.flatnonzero(mask).tolist())
            else:  # a pattern that fixes every mode names at most one vector
                i = self._index.get(cons)
                found = () if i is None else (i,)
            self._matches[pattern] = found
        return self._matches[pattern]


def enumerate_basis(modes: int, photons: int) -> FockBasis:
    return FockBasis(modes, photons)


def basis_size(modes: int, photons: int) -> int:
    """Stars-and-bars count C(photons + modes - 1, photons)."""
    return math.comb(photons + modes - 1, photons)


def check_basis_size(modes: int, photons: int) -> int:
    """The basis dimension, or BasisTooLargeError above MAX_BASIS_DIM."""
    dim = basis_size(modes, photons)
    if dim > MAX_BASIS_DIM:
        raise BasisTooLargeError(
            f"{photons} photons in {modes} modes need {dim} basis vectors, "
            f"above the limit of {MAX_BASIS_DIM}")
    return dim


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a fixed FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray = field(compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (len(self.basis),):
            raise ValueError(f"amplitude array has shape {amps.shape}, "
                             f"expected ({len(self.basis)},)")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def occupation_errors(modes: int, entries, what: str):
    """(index, message) for each (mode, count) entry whose mode is out of
    range or repeated, or whose count is negative."""
    seen = set()
    for index, (mode, n) in enumerate(entries):
        if not 0 <= mode < modes:
            yield index, f"{what} mode {mode} out of range for {modes} modes"
        elif mode in seen:
            yield index, f"duplicate {what} mode {mode}"
        seen.add(mode)
        if n < 0:
            yield index, f"{what} photon count must be >= 0"


def state_from_sources(modes: int, sources, basis: FockBasis = None) -> StateVector:
    """Basis state with the given sources [(mode, count), ...], each mode at
    most once, in `basis` if given, else in a newly enumerated basis."""
    for _, message in occupation_errors(modes, sources, "source"):
        raise ValueError(message)
    occupation = [0] * modes
    for mode, n in sources:
        occupation[mode] = n
    if basis is None:
        basis = enumerate_basis(modes, sum(occupation))
    amps = np.zeros(len(basis), dtype=complex)
    amps[basis.rank(occupation)] = 1.0
    return StateVector(basis, amps)
