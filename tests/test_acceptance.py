"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time

import numpy as np
import pytest

from fockmz import (CHSH_OPTIMAL_SETTINGS, BeamSplitter, Circuit, build_fig1,
                    build_fig2, build_fig3, build_ifm, build_preset, build_sec4,
                    build_single, chsh, compose, correlation_E, fit_fringe,
                    gated_rates, heralded_state, parse, pattern_probability,
                    permanent_naive, permanent_ryser, run_circuit, scan_phase,
                    serialize, transition_amplitude, which_path_check)
from fockmz.cli import main as cli_main
from fockmz.engine import DetectionPattern


class _Criterion:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.title} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget"
        return False


def test_criterion_1_single_photon_law():
    with _Criterion(1, "single-photon fringe law", 0.1):
        preset = build_single()
        for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            rates = gated_rates(preset, {"phi": phi})
            assert abs(rates["P1"] - (1 + math.cos(phi)) / 2) <= 1e-9
            assert abs(rates["P2"] - (1 - math.cos(phi)) / 2) <= 1e-9


def test_criterion_2_two_photon_de_broglie_fringes():
    with _Criterion(2, "two-photon de Broglie fringes", 1.0):
        preset = build_fig1("resolving")
        scan = scan_phase(preset, "phi", 64)
        fit = fit_fringe(scan.samples["R11"])
        assert fit.harmonic == 2
        assert fit.visibility >= 0.999
        for i, phi in enumerate(scan.grid):
            lo = (1 - math.cos(2 * phi)) / 4
            hi = (1 + math.cos(2 * phi)) / 4
            got = sorted(scan.samples[name][i] for name in ("R11", "R12", "R21", "R22"))
            assert max(abs(g - e) for g, e in zip(got, sorted([lo, lo, hi, hi]))) <= 1e-9
        i0 = int(np.argmin(scan.samples["R11"]))
        assert scan.samples["R11"][i0] <= 1e-9
        assert abs(scan.samples["R12"][i0] - np.max(scan.samples["R12"])) <= 1e-9
        assert abs(scan.samples["R21"][i0] - np.max(scan.samples["R21"])) <= 1e-9


def test_criterion_3_conditional_state_structure():
    with _Criterion(3, "heralded two-photon state structure", 1.0):
        preset = build_fig1("resolving")
        offsets = []
        for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            cond = heralded_state(preset, {"phi": phi})
            assert abs(cond.probability - 1 / 16) <= 1e-9
            amps = {v: a for v, a in zip(cond.reduced_state.basis.vectors,
                                         cond.reduced_state.amplitudes)
                    if abs(a) > 1e-9}
            assert set(amps) == {(2, 0), (0, 2)}
            assert abs(abs(amps[(2, 0)]) - 1 / math.sqrt(2)) <= 1e-9
            assert abs(abs(amps[(0, 2)]) - 1 / math.sqrt(2)) <= 1e-9
            offsets.append((np.angle(amps[(2, 0)] / amps[(0, 2)]) - 2 * phi)
                           % (2 * math.pi))
        assert np.ptp(np.unwrap(offsets)) <= 1e-9


def test_criterion_4_nonlocal_variant():
    with _Criterion(4, "two-phase nonlocal fringes and CHSH", 2.0):
        preset = build_fig2()
        rng = np.random.default_rng(1)
        for _ in range(5):
            phi1, phi2, delta = rng.uniform(0, 2 * math.pi, size=3)
            a = gated_rates(preset, {"phi1": phi1, "phi2": phi2})
            b = gated_rates(preset, {"phi1": phi1 + delta, "phi2": phi2 - delta})
            assert max(abs(a[k] - b[k]) for k in a) <= 1e-9
        scan = scan_phase(preset, "phi1", 64, base={"phi2": 0.0})
        fit = fit_fringe(scan.samples["c15"])
        assert fit.harmonic == 1
        assert fit.visibility >= 0.999
        for phi1 in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            for phi2 in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                assert abs(correlation_E(preset, phi1, phi2)
                           + math.cos(phi1 + phi2)) <= 1e-9
        s, _ = chsh(preset, *CHSH_OPTIMAL_SETTINGS)
        assert abs(s - 2 * math.sqrt(2)) <= 1e-6


def test_criterion_5_independence_control():
    with _Criterion(5, "independent-photon factorization", 0.5):
        sec4, single = build_sec4(), build_single()
        split = np.empty(64)
        for i, phi in enumerate(np.linspace(0, 2 * math.pi, 64, endpoint=False)):
            r2 = gated_rates(sec4, {"phi": phi})
            r1 = gated_rates(single, {"phi": phi})
            assert abs(r2["P11"] - r1["P1"] ** 2) <= 1e-9
            assert abs(r2["P22"] - r1["P2"] ** 2) <= 1e-9
            assert abs(r2["P12"] + r2["P21"] - 2 * r1["P1"] * r1["P2"]) <= 1e-9
            split[i] = r2["P12"] + r2["P21"]
        assert fit_fringe(split).harmonic == 2


def test_criterion_6_three_photon_packet():
    with _Criterion(6, "three-photon wave packet", 5.0):
        scan = scan_phase(build_fig3("cascade"), "phi", 96)
        fit = fit_fringe(scan.samples["fivefold"])
        assert fit.harmonic == 3
        assert fit.visibility >= 0.999
        preset = build_fig3("resolving")
        for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            cond = heralded_state(preset, {"phi": phi})
            amps = {v: a for v, a in zip(cond.reduced_state.basis.vectors,
                                         cond.reduced_state.amplitudes)
                    if abs(a) > 1e-9}
            assert set(amps) == {(3, 0), (0, 3)}
            assert abs(abs(amps[(3, 0)]) - abs(amps[(0, 3)])) <= 1e-9
            assert abs(abs(amps[(3, 0)]) ** 2 - abs(amps[(0, 3)]) ** 2) <= 1e-9


def test_criterion_7_interaction_free_inference():
    with _Criterion(7, "interaction-free which-path inference", 1.0):
        assert abs(which_path_check() - 1.0) <= 1e-12
        cond = heralded_state(build_ifm())
        assert abs(cond.probability - 0.25) <= 1e-9


def test_criterion_8_engine_soundness():
    with _Criterion(8, "engine soundness suite", 10.0):
        U = compose(Circuit(2, ((0, 1), (1, 1)), (BeamSplitter(0, 1),)))
        assert abs(transition_amplitude(U, (1, 1), (1, 1))) ** 2 <= 1e-18
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert abs(permanent_ryser(A) - permanent_naive(A)) <= 1e-10
        from tests_helpers_random import random_source_circuit
        for _ in range(100):
            circ = random_source_circuit(rng, max_modes=6, max_photons=4)
            fast = run_circuit(circ, engine="elementwise")
            slow = run_circuit(circ, engine="full")
            assert np.max(np.abs(fast.amplitudes - slow.amplitudes)) <= 1e-9
            assert abs(fast.norm() - 1) <= 1e-9
            total = sum(pattern_probability(fast, DetectionPattern.exactly(
                circ.modes, dict(enumerate(v))))
                for v in fast.basis.vectors)
            assert abs(total - 1) <= 1e-9


def test_criterion_9_format_stability(tmp_path, capsys):
    with _Criterion(9, "format stability", 10.0):
        for name in ("fig1", "fig2", "fig3", "sec4", "single", "ifm"):
            for model in ("resolving", "cascade") if name in ("fig1", "fig3") \
                    else ("resolving",):
                circ = build_preset(name, model=model).circuit
                assert parse(serialize(circ)) == circ
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = cli_main(["scan", "--preset", "fig1", "--param", "phi",
                             "--steps", "64", "--out", str(path)])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
