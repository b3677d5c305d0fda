"""Per-layer tracing from outside the program.

Wrappers go around the public functions of each fockmz module. Spans nest:
a span's self time is its duration minus the time its child spans cover, and
each op is a root span whose self time is the op's unattributed time. Spans
are aggregated as they close (calls, self time and computed counts per name),
so the trace keeps no per-call records.

A wrapper records only inside `Tracer.op()`, so input generation and output
checks between ops are never traced. Modules import functions by name, so a
wrapper replaces the function in every fockmz module namespace that holds it.
Per-amplitude methods (`FockBasis.rank`, `DetectionPattern.matches`) are never
wrapped; the counts that stand for their work are computed from arguments.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.op_wall_s = 0.0
        self.unattributed_s = 0.0
        self._stack = []  # time covered by children, one entry per open span

    @contextlib.contextmanager
    def op(self):
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._stack.append(0.0)
        t0 = _now()
        try:
            yield
        finally:
            wall = _now() - t0
            child = self._stack.pop()
            self.op_wall_s += wall
            self.unattributed_s += wall - child

    def wrap(self, name, fn, count=None, span=True):
        """Wrap fn as span `name`. After each call, count(args, kwargs) yields
        (counter, amount) pairs. With span=False only the counts are recorded
        and the time stays with the caller's span."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if span:
                self.calls[name] += 1
                stack.append(0.0)
                t0 = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = _now() - t0
                    self.self_s[name] += duration - stack.pop()
                    stack[-1] += duration
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                for key, amount in count(args, kwargs):
                    self.counts[key] += amount
            return result

        return wrapper


def _dim(state):
    return len(state.basis)


def _count_elementwise(args, kwargs):
    from fockmz.circuit import BeamSplitter
    circuit, psi = args[0], args[2]
    splitters = sum(isinstance(el, BeamSplitter) for el in circuit.elements)
    yield "engine.bs_applications", splitters
    yield "engine.bs_amplitude_work", splitters * _dim(psi)


def _count_pattern(args, kwargs):
    yield "engine.pattern_vectors_scanned", _dim(args[0])


def _count_basis(args, kwargs):
    yield "fock.basis_vectors", len(args[0])


def _count_ryser(args, kwargs):
    n = len(args[0])
    yield "engine.ryser_flops", n * 2 ** n


# (module, attribute, span name, count function, record a span)
HOOKS = (
    ("fockmz.fock", "FockBasis.__post_init__", "fock.basis", _count_basis, True),
    ("fockmz.circuit", "Circuit.__post_init__", "circuit.circuit_build", None, True),
    ("fockmz.circuit", "compose", "circuit.compose", None, True),
    ("fockmz.circuit", "check_unitary", "circuit.check_unitary", None, True),
    ("fockmz.dsl", "parse", "dsl.parse", None, True),
    ("fockmz.engine", "run_circuit", "engine.run_circuit", None, True),
    ("fockmz.engine", "evolve_elementwise", "engine.elementwise", _count_elementwise, True),
    ("fockmz.engine", "evolve_full", "engine.full", None, True),
    ("fockmz.engine", "transition_amplitude", "engine.transition_amplitude", None, True),
    ("fockmz.engine", "permanent", "engine.permanent", None, True),
    ("fockmz.engine", "permanent_ryser", "engine.permanent_ryser", _count_ryser, False),
    ("fockmz.engine", "pattern_probability", "engine.pattern_probability",
     _count_pattern, True),
    ("fockmz.engine", "condition", "engine.condition", None, True),
    ("fockmz.experiments", "gated_rates", "experiments.gated_rates", None, True),
    ("fockmz.experiments", "build_preset", "experiments.build_preset", None, True),
    ("fockmz.experiments", "fit_fringe", "experiments.fit_fringe", None, True),
    ("fockmz.cli", "main", "cli.main", None, True),
    ("fockmz.cli", "fmt", "cli.fmt", None, True),
)


@contextlib.contextmanager
def installed(tracer):
    """Install every hook for the duration of the block, then restore."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "fockmz" or name.startswith("fockmz."))]
    undo = []
    try:
        for module_name, attr, name, count, span in HOOKS:
            owner = sys.modules.get(module_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                print(f"bench: {module_name}.{attr} not found; "
                      f"{name} reads 0", file=sys.stderr)
                continue
            wrapper = tracer.wrap(name, original, count, span)
            if len(path) > 1:  # a method: patch the class once
                undo.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:  # a function: patch every namespace holding it
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# per-layer metric -> (unit, how it is read from the tracer)
PER_LAYER = {
    "fock.basis_builds": ("count", ("calls", "fock.basis")),
    "fock.basis_vectors": ("count", ("counts", "fock.basis_vectors")),
    "fock.basis_self_s": ("s", ("self_s", "fock.basis")),
    "engine.run_circuit_calls": ("count", ("calls", "engine.run_circuit")),
    "experiments.gated_rates_calls": ("count", ("calls", "experiments.gated_rates")),
    "experiments.gated_rates_self_s": ("s", ("self_s", "experiments.gated_rates")),
    "engine.elementwise_self_s": ("s", ("self_s", "engine.elementwise")),
    "engine.bs_applications": ("count", ("counts", "engine.bs_applications")),
    "engine.bs_amplitude_work": ("count", ("counts", "engine.bs_amplitude_work")),
    "engine.full_self_s": ("s", ("self_s", "engine.full")),
    "engine.transition_amplitude_calls": ("count", ("calls", "engine.transition_amplitude")),
    "engine.transition_amplitude_self_s": ("s", ("self_s", "engine.transition_amplitude")),
    "engine.permanent_calls": ("count", ("calls", "engine.permanent")),
    "engine.permanent_self_s": ("s", ("self_s", "engine.permanent")),
    "engine.ryser_flops": ("count", ("counts", "engine.ryser_flops")),
    "engine.pattern_probability_calls": ("count", ("calls", "engine.pattern_probability")),
    "engine.pattern_vectors_scanned": ("count", ("counts", "engine.pattern_vectors_scanned")),
    "engine.pattern_probability_self_s": ("s", ("self_s", "engine.pattern_probability")),
    "engine.condition_calls": ("count", ("calls", "engine.condition")),
    "engine.condition_self_s": ("s", ("self_s", "engine.condition")),
    "cli.main_calls": ("count", ("calls", "cli.main")),
    "cli.main_self_s": ("s", ("self_s", "cli.main")),
    "cli.fmt_calls": ("count", ("calls", "cli.fmt")),
    "cli.fmt_self_s": ("s", ("self_s", "cli.fmt")),
    "dsl.parse_calls": ("count", ("calls", "dsl.parse")),
    "dsl.parse_self_s": ("s", ("self_s", "dsl.parse")),
    "circuit.circuit_builds": ("count", ("calls", "circuit.circuit_build")),
    "circuit.circuit_build_self_s": ("s", ("self_s", "circuit.circuit_build")),
    "circuit.compose_calls": ("count", ("calls", "circuit.compose")),
    "circuit.compose_self_s": ("s", ("self_s", "circuit.compose")),
    "circuit.check_unitary_self_s": ("s", ("self_s", "circuit.check_unitary")),
    "experiments.build_preset_self_s": ("s", ("self_s", "experiments.build_preset")),
    "experiments.fit_fringe_self_s": ("s", ("self_s", "experiments.fit_fringe")),
}


def per_layer(tracer):
    """{metric: (value, unit)} for every PER_LAYER metric, 0 when never hit."""
    out = {}
    for metric, (unit, (table, key)) in PER_LAYER.items():
        value = getattr(tracer, table).get(key, 0)
        out[metric] = (float(value) if unit == "s" else int(value), unit)
    out["trace.unattributed_s"] = (tracer.unattributed_s, "s")
    return out
