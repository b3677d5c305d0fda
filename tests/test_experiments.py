import math

import numpy as np
import pytest

from fockmz import (CHSH_OPTIMAL_SETTINGS, build_fig1, build_fig2, build_fig3,
                    build_ifm, build_preset, build_sec4, build_single, chsh, correlation_E, fit_fringe,
                    gated_rates, heralded_state, pattern_probability,
                    run_circuit, scan_phase, which_path_check)
from fockmz.engine import ZeroProbabilityError

GRID = np.linspace(0, 2 * math.pi, 64, endpoint=False)


def nonzero_amplitudes(cond, tol=1e-12):
    state = cond.reduced_state
    return [(v, a) for v, a in zip(state.basis.vectors, state.amplitudes)
            if abs(a) > tol]


class TestSingleAndSec4:
    def test_single_photon_law(self):
        preset = build_single()
        for phi in GRID:
            rates = gated_rates(preset, {"phi": phi})
            assert rates["P1"] == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-9)
            assert rates["P2"] == pytest.approx((1 - math.cos(phi)) / 2, abs=1e-9)

    def test_sec4_bright_port_at_zero_phase(self):
        rates = gated_rates(build_sec4(), {"phi": 0.0})
        assert rates["P11"] == pytest.approx(1.0, abs=1e-12)
        assert rates["P12"] + rates["P21"] + rates["P22"] == pytest.approx(0.0, abs=1e-12)

    def test_sec4_binomial_independence(self):
        sec4, single = build_sec4(), build_single()
        for phi in GRID:
            r2 = gated_rates(sec4, {"phi": phi})
            r1 = gated_rates(single, {"phi": phi})
            assert abs(r2["P11"] - r1["P1"] ** 2) <= 1e-9
            assert abs(r2["P22"] - r1["P2"] ** 2) <= 1e-9
            assert abs(r2["P12"] + r2["P21"] - 2 * r1["P1"] * r1["P2"]) <= 1e-9

    def test_sec4_quarter_phase_point(self):
        rates = gated_rates(build_sec4(), {"phi": math.pi / 2})
        assert rates["P11"] == pytest.approx(0.25, abs=1e-12)
        assert rates["P22"] == pytest.approx(0.25, abs=1e-12)
        assert rates["P12"] + rates["P21"] == pytest.approx(0.5, abs=1e-12)

    def test_sec4_split_detection_doubled_frequency(self):
        scan = scan_phase(build_sec4(), "phi", 64)
        fit = fit_fringe(scan.samples["P12"] + scan.samples["P21"])
        assert fit.harmonic == 2
        for phi, p12, p21 in zip(scan.grid, scan.samples["P12"], scan.samples["P21"]):
            assert p12 + p21 == pytest.approx((1 - math.cos(2 * phi)) / 4, abs=1e-9)


class TestFig1:
    def test_gated_rates_fringe_laws_unordered(self):
        preset = build_fig1("resolving")
        for phi in GRID:
            rates = gated_rates(preset, {"phi": phi})
            lo = (1 - math.cos(2 * phi)) / 4
            hi = (1 + math.cos(2 * phi)) / 4
            got = sorted(rates.values())
            expect = sorted([lo, lo, hi, hi])
            assert np.max(np.abs(np.array(got) - expect)) <= 1e-9
            # equal pairs: {R11,R22} on one law, {R12,R21} on the other
            assert abs(rates["R11"] - rates["R22"]) <= 1e-9
            assert abs(rates["R12"] - rates["R21"]) <= 1e-9
            assert rates["R11"] + rates["R12"] + rates["R21"] + rates["R22"] == \
                pytest.approx(1.0, abs=1e-9)

    def test_r11_zero_means_antibunched_exit(self):
        preset = build_fig1("resolving")
        scan = scan_phase(preset, "phi", 64)
        r11 = scan.samples["R11"]
        i0 = int(np.argmin(r11))
        assert r11[i0] <= 1e-9
        assert scan.samples["R12"][i0] == pytest.approx(np.max(scan.samples["R12"]), abs=1e-9)
        assert scan.samples["R21"][i0] == pytest.approx(np.max(scan.samples["R21"]), abs=1e-9)

    def test_gated_fringe_harmonic_two(self):
        scan = scan_phase(build_fig1("resolving"), "phi", 64)
        fit = fit_fringe(scan.samples["R11"])
        assert fit.harmonic == 2
        assert fit.visibility >= 0.999
        assert fit.residual <= 1e-9

    def test_conditional_r11_maximum_is_half(self):
        rates = gated_rates(build_fig1("resolving"), {"phi": math.pi / 2})
        assert rates["R11"] == pytest.approx(0.5, abs=1e-9)

    def test_heralded_state_is_two_photon_noon(self):
        preset = build_fig1("resolving")
        offsets = []
        for phi in np.linspace(0.1, 6.0, 7):
            cond = heralded_state(preset, {"phi": phi})
            nz = nonzero_amplitudes(cond, tol=1e-9)
            assert len(nz) == 2
            (va, aa), (vb, ab) = nz
            assert {va, vb} == {(2, 0), (0, 2)}
            assert abs(abs(aa) - 1 / math.sqrt(2)) <= 1e-9
            assert abs(abs(ab) - 1 / math.sqrt(2)) <= 1e-9
            two_e = aa if va == (2, 0) else ab
            two_f = ab if va == (2, 0) else aa
            offsets.append((np.angle(two_e / two_f) - 2 * phi) % (2 * math.pi))
        # relative phase is 2*phi plus a fixed convention-bound constant
        assert np.ptp(np.unwrap(offsets)) <= 1e-9

    def test_herald_and_pair_probability_phase_independent(self):
        preset = build_fig1("resolving")
        probs = [heralded_state(preset, {"phi": phi}).probability for phi in GRID]
        assert np.max(np.abs(np.array(probs) - 1 / 16)) <= 1e-9

    def test_cascade_triple_coincidence_peak(self):
        preset = build_fig1("cascade")
        pattern = ((0, 1), (2, 1), (4, 1))
        peak = max(pattern_probability(run_circuit(preset.circuit, {"phi": phi}), pattern)
                   for phi in np.linspace(0, 2 * math.pi, 97))
        assert peak == pytest.approx(1 / 64, abs=1e-9)

    def test_cascade_triple_rate_tracks_r11(self):
        cascade, resolving = build_fig1("cascade"), build_fig1("resolving")
        for phi in GRID[::4]:
            triple = gated_rates(cascade, {"phi": phi})["triple"]
            r11 = gated_rates(resolving, {"phi": phi})["R11"]
            assert triple == pytest.approx(r11 / 2, abs=1e-9)


class TestFig2:
    def test_rates_depend_on_phase_sum_only(self):
        preset = build_fig2()
        rng = np.random.default_rng(23)
        for _ in range(10):
            phi1, phi2, delta = rng.uniform(0, 2 * math.pi, size=3)
            a = gated_rates(preset, {"phi1": phi1, "phi2": phi2})
            b = gated_rates(preset, {"phi1": phi1 + delta, "phi2": phi2 - delta})
            for name in a:
                assert abs(a[name] - b[name]) <= 1e-9

    def test_coincidence_pairing_of_fringe_laws(self):
        preset = build_fig2()
        for phi in GRID[::4]:
            rates = gated_rates(preset, {"phi1": phi, "phi2": 0.0})
            assert abs(rates["c15"] - rates["c26"]) <= 1e-9
            assert abs(rates["c16"] - rates["c25"]) <= 1e-9
            # renormalized over coincidences: the 1 -/+ cos(phi1+phi2) pair of laws
            total = rates["c15"] + rates["c16"] + rates["c25"] + rates["c26"]
            assert rates["c15"] / total == pytest.approx((1 - math.cos(phi)) / 4, abs=1e-9)
            assert rates["c16"] / total == pytest.approx((1 + math.cos(phi)) / 4, abs=1e-9)

    def test_single_phase_scan_harmonic_one(self):
        scan = scan_phase(build_fig2(), "phi1", 64, base={"phi2": 0.0})
        fit = fit_fringe(scan.samples["c15"])
        assert fit.harmonic == 1
        assert fit.visibility >= 0.999

    def test_common_phase_scan_harmonic_two(self):
        scan = scan_phase(build_fig2(), ("phi1", "phi2"), 64)
        fit = fit_fringe(scan.samples["c15"])
        assert fit.harmonic == 2

    def test_correlation_is_minus_cosine_of_sum(self):
        preset = build_fig2()
        for phi1 in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            for phi2 in np.linspace(0, 2 * math.pi, 16, endpoint=False):
                e = correlation_E(preset, phi1, phi2)
                assert e == pytest.approx(-math.cos(phi1 + phi2), abs=1e-9)

    def test_correlation_zero_at_quarter_sum(self):
        assert correlation_E(build_fig2(), math.pi / 4, math.pi / 4) == \
            pytest.approx(0.0, abs=1e-9)

    def test_chsh_maximal_violation(self):
        s, _ = chsh(build_fig2(), *CHSH_OPTIMAL_SETTINGS)
        assert s == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_chsh_degenerate_settings(self):
        s, table = chsh(build_fig2(), 0.3, 0.3, 0.3, 0.3)
        assert s == pytest.approx(2 * abs(table[("a", "b")]), abs=1e-12)
        assert s <= 2 + 1e-12

    def test_heralded_state_before_branching(self):
        cond = heralded_state(build_fig2(), {"phi1": 0.0, "phi2": 0.0})
        nz = nonzero_amplitudes(cond, tol=1e-9)
        occupied = {v for v, _ in nz}
        # both photons in e or both in f (kept modes: e, f, vac, vac)
        assert occupied == {(2, 0, 0, 0), (0, 2, 0, 0)}


class TestFig3:
    def test_heralded_state_is_three_photon_noon(self):
        preset = build_fig3("resolving")
        offsets = []
        for phi in np.linspace(0.05, 5.9, 7):
            cond = heralded_state(preset, {"phi": phi})
            nz = nonzero_amplitudes(cond, tol=1e-9)
            assert len(nz) == 2
            amps = dict(nz)
            assert set(amps) == {(3, 0), (0, 3)}
            assert abs(abs(amps[(3, 0)]) - 1 / math.sqrt(2)) <= 1e-9
            assert abs(abs(amps[(0, 3)]) - 1 / math.sqrt(2)) <= 1e-9
            offsets.append((np.angle(amps[(3, 0)] / amps[(0, 3)]) - 3 * phi)
                           % (2 * math.pi))
        assert np.ptp(np.unwrap(offsets)) <= 1e-9

    def test_branch_probabilities_equal(self):
        preset = build_fig3("resolving")
        for phi in GRID[::8]:
            cond = heralded_state(preset, {"phi": phi})
            amps = dict(zip(cond.reduced_state.basis.vectors,
                            cond.reduced_state.amplitudes))
            assert abs(abs(amps[(3, 0)]) ** 2 - abs(amps[(0, 3)]) ** 2) <= 1e-9

    def test_fivefold_fringe_harmonic_three(self):
        scan = scan_phase(build_fig3("cascade"), "phi", 96)
        fit = fit_fringe(scan.samples["fivefold"])
        assert fit.harmonic == 3
        assert fit.visibility >= 0.999 - 1e-6

    def test_resolving_partition_sums_to_one(self):
        rates = gated_rates(build_fig3("resolving"), {"phi": 0.9})
        assert sum(rates.values()) == pytest.approx(1.0, abs=1e-9)


class TestIfm:
    def test_which_path_certainty(self):
        assert which_path_check() == pytest.approx(1.0, abs=1e-12)

    def test_herald_probability_quarter(self):
        cond = heralded_state(build_ifm())
        assert cond.probability == pytest.approx(0.25, abs=1e-9)

    def test_bunching_accounting(self):
        psi = run_circuit(build_ifm().circuit)
        p_two_at_3 = pattern_probability(psi, ((0, 2),))
        p_none_both_e = pattern_probability(psi, ((0, 0), (2, 2)))
        assert p_two_at_3 + p_none_both_e == pytest.approx(0.5, abs=1e-9)


    def test_outcome_contradicting_a_herald_is_zero(self):
        from fockmz.experiments import Outcome, Preset
        ifm = build_ifm()
        preset = Preset("contra", ifm.circuit, (
            ("c_occupied", Outcome(((0, 1), (1, 1)))),  # repeats the herald count
            ("two_at_site3", Outcome(((0, 2),))),
            ("none_at_site3", Outcome(((1, 1), (0, 0)))),
        ))
        rates = gated_rates(preset)
        assert rates["c_occupied"] == gated_rates(ifm)["c_occupied"]
        assert rates["two_at_site3"] == 0.0
        assert rates["none_at_site3"] == 0.0


class TestScansAndFits:
    def test_fit_analytic_two_phi_fringe(self):
        phi = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        fit = fit_fringe((1 - np.cos(2 * phi)) / 4)
        assert fit.harmonic == 2
        assert fit.mean_level == pytest.approx(0.25, abs=1e-12)
        assert fit.visibility == pytest.approx(1.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_fit_constant_trace(self):
        fit = fit_fringe(np.full(64, 0.3))
        assert fit.harmonic is None
        assert fit.visibility == 0.0

    def test_fit_rejects_short_input(self):
        with pytest.raises(ValueError):
            fit_fringe(np.zeros(16))

    def test_scan_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            scan_phase(build_single(), "phi", 16)

    def test_scan_grid_uniform(self):
        scan = scan_phase(build_single(), "phi", 64)
        steps = np.diff(scan.grid)
        assert np.max(np.abs(steps - steps[0])) <= 1e-12
        assert scan.grid[0] == 0.0

    def test_preset_partitions_sum_to_one(self):
        rng = np.random.default_rng(41)
        for name in ("fig1", "fig2", "fig3", "sec4", "single", "ifm"):
            preset = build_preset(name)
            bindings = {p: float(rng.uniform(0, 2 * math.pi))
                        for p in preset.circuit.params}
            assert sum(gated_rates(preset, bindings).values()) == \
                pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["fig2", "sec4", "single", "ifm"])
    def test_cascade_model_only_for_fig1_and_fig3(self, name):
        with pytest.raises(ValueError, match=f"preset '{name}' has no 'cascade'"):
            build_preset(name, "cascade")

    def test_zero_probability_herald_raises(self):
        from fockmz import Circuit, BeamSplitter
        from fockmz.experiments import Outcome, Preset, REST
        circ = Circuit(2, ((0, 1),), (), heralds=((1, 1),))
        preset = Preset("bad", circ, (("all", Outcome(REST)),))
        with pytest.raises(ZeroProbabilityError):
            gated_rates(preset)


class TestCircuitFileRates:
    @pytest.mark.parametrize("heralds", [(), ((4, 0),), ((1, 1),)])
    def test_full_patterns_are_not_scanned(self, monkeypatch, heralds):
        # every outcome pattern, after the heralds, fixes every mode and is
        # looked up by rank; only the herald pattern, which does not, is
        # matched against the occupation array
        from fockmz import BeamSplitter, Circuit, FockBasis, PhaseShifter
        from fockmz.engine import condition
        from fockmz.experiments import preset_from_circuit
        elements = tuple(BeamSplitter(i, (i + 1) % 5) for i in range(5)) + tuple(
            PhaseShifter(m, 0.3 * m) for m in range(5)) + tuple(
            BeamSplitter(i, (i + 2) % 5) for i in range(5))
        circuit = Circuit(5, ((0, 2), (2, 1)), elements, heralds=heralds)
        reads, masked = [], []
        occupations, matching = FockBasis.occupations.func, FockBasis.matching

        def read(basis):
            reads.append(basis)
            return occupations(basis)

        def spied(basis, pattern):
            before = len(reads)
            found = matching(basis, pattern)
            if len(reads) > before:
                masked.append(pattern)
            return found

        monkeypatch.setattr(FockBasis, "occupations", property(read))
        monkeypatch.setattr(FockBasis, "matching", spied)
        rates = gated_rates(preset_from_circuit(circuit))
        assert masked == [heralds]
        # the reduced state's probabilities, one per outcome, in the same order
        reduced = condition(run_circuit(circuit), heralds).reduced_state
        assert list(rates.values()) == pytest.approx(
            np.abs(reduced.amplitudes) ** 2, abs=1e-15)
