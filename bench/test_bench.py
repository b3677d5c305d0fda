"""Self-tests of the benchmark itself (not part of the fockmz test suite).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fockmz import engine as fm_engine  # noqa: E402
from fockmz import cli as fm_cli  # noqa: E402
from fockmz.fock import StateVector  # noqa: E402

# counts that must repeat exactly for the same seed
EXACT_COUNTS = ("fock.basis_vectors", "engine.bs_amplitude_work",
                "engine.ryser_flops", "engine.pattern_vectors_scanned")


def _traced_cycle(name, seed=3):
    workload = workloads.WORKLOADS[name](seed, run.ROOT)
    tracer = spans.Tracer()
    try:
        with spans.installed(tracer):
            outcome = run.run_ops(workload, workloads.STREAM_TIMED,
                                  len(workload.cycle), tracer)
    finally:
        workload.close()
    return outcome, tracer


def _assert_self_times_add_up(tracer):
    total = sum(tracer.self_s.values()) + tracer.unattributed_s
    assert total == pytest.approx(tracer.op_wall_s, rel=1e-9, abs=1e-12)


def test_tail_picks_the_sample_with_ten_beyond():
    samples = list(range(100, 0, -1))
    value, percentile = run.tail_latency(samples)
    assert (value, percentile) == (90, 90.0)
    assert sum(s > value for s in samples) == 10
    assert run.tail_latency(list(range(11))) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail_latency(list(range(10)))


def test_nested_self_times_and_unattributed_add_up_to_op_wall_time():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def middle_body():
        time.sleep(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)
    top = tracer.wrap("top", lambda: (middle(), time.sleep(0.001)))
    for _ in range(3):
        with tracer.op():
            top()
            time.sleep(0.001)
    assert dict(tracer.calls) == {"top": 3, "middle": 3, "leaf": 6}
    assert tracer.self_s["leaf"] >= 6 * 0.002
    assert tracer.self_s["middle"] >= 3 * 0.001
    assert tracer.self_s["middle"] < tracer.self_s["leaf"]
    assert tracer.unattributed_s >= 3 * 0.001
    _assert_self_times_add_up(tracer)
    leaf()  # outside an op nothing is recorded
    assert tracer.calls["leaf"] == 6


def test_hooks_are_removed_after_a_traced_pass():
    before = (fm_engine.run_circuit, fm_cli.run_circuit, fm_cli.fmt)
    with spans.installed(spans.Tracer()):
        assert fm_cli.run_circuit is not before[1]
    assert (fm_engine.run_circuit, fm_cli.run_circuit, fm_cli.fmt) == before


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name):
    first_outcome, first = _traced_cycle(name)
    second_outcome, second = _traced_cycle(name)
    assert first_outcome.failed == second_outcome.failed == 0
    assert dict(first.calls) == dict(second.calls)
    for key in EXACT_COUNTS:
        assert first.counts[key] == second.counts[key]
    for tracer in (first, second):
        _assert_self_times_add_up(tracer)
    layer = spans.per_layer(first)
    permanent_work = sum(layer[k][0] for k in ("engine.permanent_calls",
                                               "engine.transition_amplitude_calls",
                                               "engine.ryser_flops"))
    assert (permanent_work > 0) == (name == "engine-crosscheck")


_ORIGINAL_ELEMENTWISE = fm_engine.evolve_elementwise
_ORIGINAL_FULL = fm_engine.evolve_full


def _bad_elementwise(circuit, bindings, psi):
    good = _ORIGINAL_ELEMENTWISE(circuit, bindings, psi)
    return StateVector(good.basis, good.amplitudes * (1 + 1e-9))


def _bad_full(U, psi):
    good = _ORIGINAL_FULL(U, psi)
    return StateVector(good.basis, good.amplitudes * (1 + 1e-9))


# one wrong output per workload: an extra digit, or amplitudes off by 1e-9
SABOTAGE = {
    "paper-figures": (fm_cli, "fmt", lambda x, _fmt=fm_cli.fmt: _fmt(x) + "0"),
    "wide-circuits": (fm_engine, "evolve_elementwise", _bad_elementwise),
    "engine-crosscheck": (fm_engine, "evolve_full", _bad_full),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_injected_wrong_output_raises_fail_ratio(name, monkeypatch):
    def one_cycle():
        workload = workloads.WORKLOADS[name](5, run.ROOT)
        try:
            return run.run_ops(workload, workloads.STREAM_TIMED, len(workload.cycle))
        finally:
            workload.close()

    assert one_cycle().failed == 0
    monkeypatch.setattr(*SABOTAGE[name])
    outcome = one_cycle()
    assert outcome.attempted == len(workloads.WORKLOADS[name].cycle)
    assert outcome.failed > 0
