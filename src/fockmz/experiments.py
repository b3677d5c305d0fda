"""Apparatus presets, gated-rate evaluation, phase scans and fringe fits.

Preset wiring (mode indices):

fig1 (two-photon wave packet, resolving: 4 modes, cascade: 5):
    0: a -> b -> D_A        1: vac -> c -> loss
    2: d -> e -> ch1 (-> site5 in cascade)
    3: vac -> f -> ch2      4: vac -> site6 (cascade only)
fig2 (nonlocal two-phase variant, 6 modes): fig1 front end, then the e and f
    arms each split over a vacuum ancilla into (g,h) / (i,j) before the two
    analyzing splitters.
fig3 (three-photon wave packet, resolving: 4 modes, cascade: 6): three
    photons in a, single photons in d and h, heralds at sites 3 and 4.
sec4/single (no ancilla control, 2 modes): splitter, mirrors on both arms,
    phase on one arm, recombining splitter.
ifm (which-path inference, 3 modes): circuit truncated after the herald
    splitter; detection at site 3 tags the path of the a photon.

Outcome names follow the gated rates R11/R12/R21/R22 and singles P1/P2.
Port pairing with the 1-cos/1+cos fringe laws is fixed only up to the
beam-splitter phase convention; checks assert convention-free structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import BeamSplitter, Circuit, Mirror, PhaseShifter
from .engine import (ConditionalResult, ZeroProbabilityError, condition,
                     herald_probability, pattern_probability, run_circuit)
from .fock import enumerate_basis

REST = None  # sentinel pattern: complement of the other reported outcomes
FLAT_TOL = 1e-9  # harmonics at or below this, relative to max(1, |c0|), read as flat


@dataclass(frozen=True)
class Outcome:
    pattern: object        # ((mode, exact count), ...) or REST
    weight: float = 1.0    # splits a symmetric pattern into ordered rates


@dataclass(frozen=True)
class Preset:
    name: str
    circuit: Circuit
    outcomes: tuple  # ((name, Outcome), ...), reporting order preserved
    analysis_point: object = None  # element index where the analyzing splitters start

    def outcome_names(self):
        return tuple(name for name, _ in self.outcomes)


def build_single() -> Preset:
    circ = Circuit(
        modes=2,
        sources=((0, 1),),
        elements=(BeamSplitter(0, 1), Mirror(0), Mirror(1), PhaseShifter(0, "phi"),
                  BeamSplitter(0, 1)),
        labels=(("a", 0), ("port2", 0), ("port1", 1)),
        params={"phi"},
    )
    outcomes = (
        ("P1", Outcome(((1, 1),))),
        ("P2", Outcome(((0, 1),))),
    )
    return Preset("single", circ, outcomes)


def build_sec4() -> Preset:
    circ = Circuit(
        modes=2,
        sources=((0, 2),),
        elements=(BeamSplitter(0, 1), Mirror(0), Mirror(1), PhaseShifter(0, "phi"),
                  BeamSplitter(0, 1)),
        labels=(("a", 0), ("port2", 0), ("port1", 1)),
        params={"phi"},
    )
    outcomes = (
        ("P11", Outcome(((1, 2),))),
        ("P12", Outcome(((0, 1), (1, 1)), weight=0.5)),
        ("P21", Outcome(((0, 1), (1, 1)), weight=0.5)),
        ("P22", Outcome(((0, 2),))),
    )
    return Preset("sec4", circ, outcomes)


def _fig1_front():
    # H1 on (a, vac); H2 on (b, d); H3 on (c, vac); phase on e; H4 on (e, f)
    return (BeamSplitter(0, 1), BeamSplitter(0, 2), BeamSplitter(1, 3),
            PhaseShifter(2, "phi"), BeamSplitter(2, 3))


def build_fig1(model: str = "resolving") -> Preset:
    if model not in ("resolving", "cascade"):
        raise ValueError(f"unknown fig1 detector model '{model}'")
    if model == "resolving":
        modes = 4
        elements = _fig1_front()
        outcomes = (
            ("R11", Outcome(((2, 2), (3, 0)))),
            ("R12", Outcome(((2, 1), (3, 1)), weight=0.5)),
            ("R21", Outcome(((2, 1), (3, 1)), weight=0.5)),
            ("R22", Outcome(((2, 0), (3, 2)))),
        )
    else:
        modes = 5
        elements = _fig1_front() + (BeamSplitter(2, 4),)  # H5 on (ch1, vac)
        outcomes = (
            ("triple", Outcome(((2, 1), (4, 1)))),
            ("other", Outcome(REST)),
        )
    circ = Circuit(
        modes=modes,
        sources=((0, 2), (2, 1)),
        elements=elements,
        heralds=((0, 1), (1, 0)),  # one photon at D_A, none lost at H3
        labels=(("a", 0), ("d", 2), ("D_A", 0), ("loss", 1), ("ch1", 2), ("ch2", 3)),
        params={"phi"},
    )
    return Preset("fig1", circ, outcomes, analysis_point=4)


def build_fig2() -> Preset:
    modes = 6
    elements = (
        BeamSplitter(0, 1),         # H1 on (a, vac)
        BeamSplitter(0, 2),         # H2 on (b, d) -> (D_A, e)
        BeamSplitter(1, 3),         # H3 on (c, vac) -> (loss, f)
        BeamSplitter(2, 4),         # e -> (g, h)
        BeamSplitter(3, 5),         # f -> (i, j)
        PhaseShifter(2, "phi1"),    # phi1 on g
        PhaseShifter(4, "phi2"),    # phi2 on h
        BeamSplitter(2, 3),         # H4 on (g, i) -> ports 1, 2
        BeamSplitter(4, 5),         # H5 on (h, j) -> ports 5, 6
    )
    circ = Circuit(
        modes=modes,
        sources=((0, 2), (2, 1)),
        elements=elements,
        heralds=((0, 1), (1, 0)),  # one photon at D_A, none lost at H3
        labels=(("D_A", 0), ("port1", 2), ("port2", 3), ("port5", 4), ("port6", 5)),
        params={"phi1", "phi2"},
    )
    outcomes = (
        ("c15", Outcome(((2, 1), (4, 1)))),
        ("c16", Outcome(((2, 1), (5, 1)))),
        ("c25", Outcome(((3, 1), (4, 1)))),
        ("c26", Outcome(((3, 1), (5, 1)))),
        ("other", Outcome(REST)),
    )
    return Preset("fig2", circ, outcomes, analysis_point=3)


def build_fig3(model: str = "resolving") -> Preset:
    if model not in ("resolving", "cascade"):
        raise ValueError(f"unknown fig3 detector model '{model}'")
    front = (
        BeamSplitter(0, 1),         # H1 on (a, vac)
        BeamSplitter(0, 2),         # H2 on (b, d) -> (site3, e)
        BeamSplitter(1, 3),         # H3 on (c, h) -> (site4, f)
        PhaseShifter(2, "phi"),
        BeamSplitter(2, 3),         # H4 on (e, f)
    )
    if model == "resolving":
        modes = 4
        elements = front
        outcomes = (
            ("n30", Outcome(((2, 3), (3, 0)))),
            ("n21", Outcome(((2, 2), (3, 1)))),
            ("n12", Outcome(((2, 1), (3, 2)))),
            ("n03", Outcome(((2, 0), (3, 3)))),
        )
    else:
        modes = 6
        elements = front + (BeamSplitter(2, 4), BeamSplitter(2, 5))  # to sites 5, 6, 7
        outcomes = (
            ("fivefold", Outcome(((2, 1), (4, 1), (5, 1)))),
            ("other", Outcome(REST)),
        )
    circ = Circuit(
        modes=modes,
        sources=((0, 3), (2, 1), (3, 1)),
        elements=elements,
        heralds=((0, 1), (1, 1)),  # single photons at sites 3 and 4
        labels=(("a", 0), ("d", 2), ("h", 3), ("site3", 0), ("site4", 1)),
        params={"phi"},
    )
    return Preset("fig3", circ, outcomes, analysis_point=4)


def build_ifm() -> Preset:
    circ = Circuit(
        modes=3,
        sources=((0, 1), (2, 1)),
        elements=(BeamSplitter(0, 1), BeamSplitter(0, 2)),  # H1 on (a, vac); H2 on (b, d)
        heralds=((0, 1),),  # exactly one photon at site 3
        labels=(("site3", 0), ("c", 1), ("e", 2)),
        params=set(),
    )
    outcomes = (
        ("c_occupied", Outcome(((1, 1),))),
        ("other", Outcome(REST)),
    )
    return Preset("ifm", circ, outcomes)


_BUILDERS = {"fig1": build_fig1, "fig2": build_fig2, "fig3": build_fig3,
             "sec4": build_sec4, "single": build_single, "ifm": build_ifm}
PRESET_NAMES = tuple(_BUILDERS)
MODEL_PRESETS = ("fig1", "fig3")  # the others have resolving detectors only


def build_preset(name: str, model: str = "resolving") -> Preset:
    if name not in _BUILDERS:
        raise ValueError(f"unknown preset '{name}' (choose from {', '.join(PRESET_NAMES)})")
    if name in MODEL_PRESETS:
        return _BUILDERS[name](model)
    if model != "resolving":
        raise ValueError(f"preset '{name}' has no '{model}' detector model")
    return _BUILDERS[name]()


class GatedRates(dict):
    """Ordered {outcome: probability given the herald}, plus `herald_probability`."""

    def __init__(self, herald_probability: float, rates):
        super().__init__(rates)
        self.herald_probability = herald_probability


def gated_rates(preset: Preset, bindings=None) -> GatedRates:
    """Outcome probabilities conditional on the preset's herald constraints,
    from one evolution of the circuit."""
    psi = run_circuit(preset.circuit, bindings)
    heralds = preset.circuit.heralds
    p_herald = herald_probability(psi, heralds)
    rates = {name: pattern_probability(psi, heralds + out.pattern) * out.weight / p_herald
             for name, out in preset.outcomes if out.pattern is not REST}
    accounted = 0.0
    for p in rates.values():
        accounted += p
    rest = max(0.0, 1.0 - accounted)
    return GatedRates(p_herald, ((name, rates.get(name, rest)) for name, _ in preset.outcomes))


def preset_from_circuit(circuit: Circuit) -> Preset:
    """A preset with one outcome p_<counts> per occupation of the unheralded
    modes, in `condition`'s reduced-basis order."""
    heralds = dict(circuit.heralds)
    kept = [m for m in range(circuit.modes) if m not in heralds]
    n_left = circuit.photons - sum(heralds.values())
    # heralds wanting more photons than there are: no outcomes, zero herald
    vectors = enumerate_basis(len(kept), n_left).vectors if n_left >= 0 else ()
    return Preset("circuit", circuit, tuple(
        ("p_" + "_".join(map(str, v)), Outcome(tuple(zip(kept, v))))
        for v in vectors))


def heralded_state(preset: Preset, bindings=None) -> ConditionalResult:
    """Post-selected state, taken just before the analyzing splitters, where
    the fig1/fig3 presets hold their two-term N-photon superposition."""
    circ = preset.circuit
    if preset.analysis_point is not None:
        circ = replace(circ, elements=circ.elements[:preset.analysis_point])
    psi = run_circuit(circ, bindings)
    return condition(psi, circ.heralds)


def which_path_check() -> float:
    """P(one photon in path c | exactly one photon at site 3) for the ifm preset."""
    return gated_rates(build_ifm())["c_occupied"]


@dataclass(frozen=True)
class ScanResult:
    grid: np.ndarray     # uniform angles over [start, start + span)
    samples: dict        # outcome name -> probability array


@dataclass(frozen=True)
class FringeFit:
    harmonic: object     # dominant k >= 1, or None for a flat trace
    mean_level: float    # c0
    magnitude: float     # |c_k| (0.0 when flat)
    phase: float         # arg(c_k)
    visibility: float    # (max - min)/(max + min) of the samples
    residual: float      # max |y - (c0 + 2 Re(c_k e^{ik phi}))|


def scan_phase(preset: Preset, param, n_steps: int = 64, base=None,
               start: float = 0.0, span: float = 2.0 * math.pi) -> ScanResult:
    if n_steps < 32:
        raise ValueError("scan needs at least 32 steps")
    names = (param,) if isinstance(param, str) else tuple(param)
    grid = start + span * np.arange(n_steps) / n_steps
    samples = {name: np.empty(n_steps) for name in preset.outcome_names()}
    for idx, phi in enumerate(grid):
        bindings = dict(base or {})
        for p in names:
            bindings[p] = float(phi)
        for name, value in gated_rates(preset, bindings).items():
            samples[name][idx] = value
    return ScanResult(grid, samples)


def fit_fringe(samples) -> FringeFit:
    y = np.asarray(samples, dtype=float)
    n = len(y)
    if n < 32:
        raise ValueError("fringe fit needs at least 32 uniform samples")
    coeffs = np.fft.fft(y) / n          # c_k = (1/n) sum y_j e^{-ik phi_j}
    c0 = float(coeffs[0].real)
    ymax, ymin = float(y.max()), float(y.min())
    vis = 0.0 if ymax + ymin <= 0 else (ymax - ymin) / (ymax + ymin)
    ks = np.arange(1, n // 2 + 1)
    mags = np.abs(coeffs[1:n // 2 + 1])
    k_best = int(ks[np.argmax(mags)])
    if mags.max() <= FLAT_TOL * max(1.0, abs(c0)):
        return FringeFit(None, c0, 0.0, 0.0, 0.0, float(np.max(np.abs(y - c0))))
    ck = coeffs[k_best]
    phi = 2.0 * math.pi * np.arange(n) / n
    recon = c0 + 2.0 * (ck * np.exp(1j * k_best * phi)).real
    return FringeFit(k_best, c0, float(abs(ck)), float(np.angle(ck)), vis,
                     float(np.max(np.abs(y - recon))))


def correlation_E(preset: Preset, phi1: float, phi2: float) -> float:
    """Coincidence-normalized correlation for the two-phase nonlocal preset."""
    rates = gated_rates(preset, {"phi1": phi1, "phi2": phi2})
    p15, p16, p25, p26 = rates["c15"], rates["c16"], rates["c25"], rates["c26"]
    total = p15 + p16 + p25 + p26
    if total <= 0:
        raise ZeroProbabilityError("no coincidence events at these settings")
    return (p15 + p26 - p16 - p25) / total


def chsh(preset: Preset, a: float, a2: float, b: float, b2: float):
    """CHSH combination |E(a,b) - E(a,b') + E(a',b) + E(a',b')| with the E table."""
    table = {
        ("a", "b"): correlation_E(preset, a, b),
        ("a", "b'"): correlation_E(preset, a, b2),
        ("a'", "b"): correlation_E(preset, a2, b),
        ("a'", "b'"): correlation_E(preset, a2, b2),
    }
    s = abs(table[("a", "b")] - table[("a", "b'")]
            + table[("a'", "b")] + table[("a'", "b'")])
    return s, table


# settings that maximize |S| for a correlation of the form E = -cos(phi1 + phi2)
CHSH_OPTIMAL_SETTINGS = (0.0, math.pi / 2.0, -math.pi / 4.0, -3.0 * math.pi / 4.0)
