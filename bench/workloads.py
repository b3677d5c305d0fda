"""The three benchmark workloads: input generation, the timed op, its checks.

Each workload runs a fixed cycle of op kinds. The seed drives only the random
circuits; op `index` of a stream always gets the same input. Streams keep the
inputs of the timed loop, the warm-up op and the traced run's untraced
reference pass apart, so no pass replays another pass's circuits.

Cycles have an odd number of slots, and the op kind in the middle of the
latency order occurs once per cycle. Over whole cycles the median latency then
falls in the middle of that op kind's samples, not on the edge between two
kinds, which keeps `op_p50_ms` steady from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import fockmz
from fockmz import circuit as fm_circuit
from fockmz import cli as fm_cli
from fockmz import dsl as fm_dsl
from fockmz import engine as fm_engine

STREAM_TIMED = 0      # timed loop, and the traced pass of a traced run
STREAM_WARMUP = 1     # the one untimed warm-up op of set-up
STREAM_REFERENCE = 2  # untraced reference pass of a traced run

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
AMPLITUDE_TOL = 1e-12


class CheckFailed(Exception):
    """An op's output is wrong."""


def _rng(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


# ---------------------------------------------------------------------------
# paper-figures: the CLI commands that reproduce the paper


def _scan(name, *args):
    return (f"scan-{name}", ["scan", *args, "--out", f"{{tmp}}/{name}.csv"],
            f"{name}.csv")


PAPER_OPS = (
    # (op name, argv with {tmp} for the scratch directory, CSV written or None)
    _scan("fig1", "--preset", "fig1", "--param", "phi"),
    _scan("fig1-cascade", "--preset", "fig1", "--model", "cascade", "--param", "phi"),
    _scan("fig2", "--preset", "fig2", "--param", "phi1", "--param", "phi2=0"),
    _scan("fig3", "--preset", "fig3", "--param", "phi"),
    _scan("fig3-cascade", "--preset", "fig3", "--model", "cascade", "--param", "phi"),
    _scan("sec4", "--preset", "sec4", "--param", "phi"),
    _scan("single", "--preset", "single", "--param", "phi"),
    ("chsh", ["chsh"], None),
    ("run-ifm", ["run", "--preset", "ifm"], None),
    ("fit-fig1-R11", ["fit", "{tmp}/fig1.csv", "R11"], None),
    ("fit-fig3-cascade-fivefold", ["fit", "{tmp}/fig3-cascade.csv", "fivefold"], None),
)

# closed-form laws from the acceptance suite, checked on top of the golden bytes
FIT_HARMONIC = {"fit-fig1-R11": 2, "fit-fig3-cascade-fivefold": 3}
SCAN_HARMONIC = {"scan-fig1": ("R11", 2), "scan-fig3-cascade": ("fivefold", 3),
                 "scan-single": ("P1", 1)}


def dominant_harmonic(csv_bytes, column):
    """Strongest Fourier harmonic k >= 1 of one CSV column (numpy only)."""
    rows = csv_bytes.decode("utf-8").split("\n")
    header = rows[0].split(",")
    col = header.index(column)
    y = np.array([float(r.split(",")[col]) for r in rows[1:] if r])
    mags = np.abs(np.fft.rfft(y))[1:]
    return int(np.argmax(mags)) + 1


def _value_after(text, prefix):
    for line in text.splitlines():
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix):].strip()
    raise CheckFailed(f"no line starting with {prefix!r}")


class PaperFigures:
    name = "paper-figures"
    cycle = PAPER_OPS
    trace_cycles = 8

    def __init__(self, seed, root):  # the mix is fixed, so the seed is unused
        self.tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=root)
        self.golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def make_op(self, stream, index):
        name, argv, csv = PAPER_OPS[index % len(PAPER_OPS)]
        return name, [a.replace("{tmp}", self.tmp) for a in argv], csv

    def execute(self, op):
        _, argv, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fm_cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def output_bytes(self, op, result):
        name, _, csv = op
        _, stdout, _ = result
        if csv is None:
            return stdout.encode("utf-8")
        return (Path(self.tmp) / csv).read_bytes()

    def check(self, op, result):
        name = op[0]
        code, stdout, stderr = result
        if code != 0 or stderr:
            raise CheckFailed(f"{name}: exit {code}, stderr {stderr.strip()!r}")
        data = self.output_bytes(op, result)
        if self.golden is None:
            raise CheckFailed("bench/golden.json is missing")
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.golden.get(name):
            raise CheckFailed(f"{name}: output bytes differ from the golden record")
        if name in FIT_HARMONIC:
            got = int(_value_after(stdout, "harmonic"))
            if got != FIT_HARMONIC[name]:
                raise CheckFailed(f"{name}: harmonic {got}, want {FIT_HARMONIC[name]}")
        if name in SCAN_HARMONIC:
            column, want = SCAN_HARMONIC[name]
            got = dominant_harmonic(data, column)
            if got != want:
                raise CheckFailed(f"{name}: {column} harmonic {got}, want {want}")
        if name == "chsh":
            s = float(_value_after(stdout, "S ="))
            if abs(s - 2.0 * math.sqrt(2.0)) > 1e-9:
                raise CheckFailed(f"chsh: S = {s}, want 2*sqrt(2)")
        if name == "run-ifm":
            p = float(_value_after(stdout, "c_occupied"))
            if abs(p - 1.0) > 1e-9:
                raise CheckFailed(f"run-ifm: c_occupied = {p}, want 1")


# ---------------------------------------------------------------------------
# random dense meshes shared by wide-circuits and engine-crosscheck


def random_mesh(rng, modes, photons):
    """A dense mesh: single photons, then 2*modes beam splitters.

    Every mesh of one size has the same shape: a chain 0-1, 1-2, ... through
    all modes, then modes+1 splitters that link each mode to the one opposite
    (k, k + modes//2), with the photons entering modes 0..photons-1. A random
    phase on arm i precedes each splitter (i, j), and a random relabelling of
    the modes makes every circuit distinct. The element-wise engine then does
    the same amount of work on every mesh of a size, so op latency does not
    depend on the seed, and the state fills the basis.
    Returns (source modes, [(angle, i, j), ...]).
    """
    label = [int(m) for m in rng.permutation(modes)]
    pairs = [(k, k + 1) for k in range(modes - 1)]
    pairs += [(k % modes, (k + modes // 2) % modes) for k in range(modes + 1)]
    sources = sorted(label[:photons])
    return sources, [(float(rng.uniform(0.0, 2.0 * math.pi)), label[i], label[j])
                     for i, j in pairs]


def mesh_unitary(modes, steps):
    """Mode unitary of a mesh, built here with numpy, independent of fockmz."""
    U = np.eye(modes, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    for angle, i, j in steps:
        U[i, :] *= np.exp(1j * angle)
        ri, rj = U[i, :].copy(), U[j, :].copy()
        U[i, :] = s * ri + 1j * s * rj
        U[j, :] = 1j * s * ri + s * rj
    return U


def mesh_icd(modes, sources, steps, herald):
    lines = [f"modes {modes}"]
    lines += [f"source {m} 1" for m in sources]
    for angle, i, j in steps:
        lines.append(f"phase {i} {angle!r}")
        lines.append(f"bs {i} {j}")
    lines.append(f"herald {herald} 0")
    return "\n".join(lines) + "\n"


class WideCircuits:
    """parse -> compose + check_unitary -> element-wise run -> condition."""

    name = "wide-circuits"
    # (modes, photons); (10, 6) twice puts (10, 5) in the middle
    cycle = ((9, 5), (10, 6), (12, 4), (10, 5), (10, 6))
    trace_cycles = 6
    spot_checks = 3

    def __init__(self, seed, root):
        self.seed = seed

    def close(self):
        pass

    def make_op(self, stream, index):
        modes, photons = self.cycle[index % len(self.cycle)]
        rng = _rng(self.seed, stream, index)
        sources, steps = random_mesh(rng, modes, photons)
        U = mesh_unitary(modes, steps)
        # herald vacuum in the least occupied mode: by Markov's inequality its
        # probability is at least 1 - photons/modes (1/3 or more here). A
        # one-photon herald can be exactly zero when two photons bunch.
        mean_occ = (np.abs(U[:, sources]) ** 2).sum(axis=1)
        herald = int(np.argmin(mean_occ))
        return mesh_icd(modes, sources, steps, herald), rng

    def execute(self, op):
        text, _ = op
        circuit = fm_dsl.parse(text)
        U = fm_circuit.compose(circuit, {p: 0.0 for p in circuit.params})
        ok, dev = fm_circuit.check_unitary(U, 1e-9 * circuit.modes)
        if not ok:
            raise CheckFailed(f"composed matrix is not unitary (deviation {dev:.3e})")
        psi = fm_engine.run_circuit(circuit, engine="elementwise")
        cond = fm_engine.condition(psi, circuit.heralds)
        return circuit, U, psi, cond

    def check(self, op, result):
        _, rng = op
        circuit, U, psi, cond = result
        for what, norm in (("output", psi.norm()),
                           ("conditioned", cond.reduced_state.norm())):
            if abs(norm - 1.0) > AMPLITUDE_TOL:
                raise CheckFailed(f"{what} state norm {norm!r}")
        occ = np.array(psi.basis.vectors)
        mask = np.ones(len(occ), dtype=bool)
        for mode, count in circuit.heralds:
            mask &= occ[:, mode] == count
        herald_p = float(np.sum(np.abs(psi.amplitudes[mask]) ** 2))
        if herald_p < 1e-3 or abs(herald_p - cond.probability) > AMPLITUDE_TOL:
            raise CheckFailed(f"herald probability {cond.probability!r}, "
                              f"independent sum {herald_p!r}")
        counts = [0] * circuit.modes
        for mode, n in circuit.sources:
            counts[mode] = n
        picks = {int(np.argmax(np.abs(psi.amplitudes)))}
        picks.update(int(k) for k in rng.choice(len(occ), size=self.spot_checks - 1,
                                                 replace=False))
        for k in sorted(picks):
            want = fm_engine.transition_amplitude(U, counts, psi.basis.vectors[k])
            if abs(psi.amplitudes[k] - want) > AMPLITUDE_TOL:
                raise CheckFailed(f"amplitude {psi.basis.vectors[k]}: "
                                  f"{psi.amplitudes[k]!r} vs permanent {want!r}")


class EngineCrosscheck:
    """Permanent engine and element-wise engine on the same random mesh."""

    name = "engine-crosscheck"
    # (modes, photons); (6, 6) twice puts (7, 5) in the middle
    cycle = ((6, 4), (6, 6), (6, 5), (7, 5), (6, 6))
    trace_cycles = 8

    def __init__(self, seed, root):
        self.seed = seed

    def close(self):
        pass

    def make_op(self, stream, index):
        modes, photons = self.cycle[index % len(self.cycle)]
        sources, steps = random_mesh(_rng(self.seed, stream, index), modes, photons)
        elements = []
        for angle, i, j in steps:
            elements += [fockmz.PhaseShifter(i, angle), fockmz.BeamSplitter(i, j)]
        return fockmz.Circuit(modes, tuple((m, 1) for m in sources), tuple(elements))

    def execute(self, op):
        full = fm_engine.run_circuit(op, engine="full")
        elementwise = fm_engine.run_circuit(op, engine="elementwise")
        return full, elementwise

    def check(self, op, result):
        full, elementwise = result
        diff = float(np.max(np.abs(full.amplitudes - elementwise.amplitudes)))
        if diff > AMPLITUDE_TOL:
            raise CheckFailed(f"engines disagree by {diff:.3e}")


WORKLOADS = {w.name: w for w in (PaperFigures, WideCircuits, EngineCrosscheck)}
