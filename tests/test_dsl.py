import numpy as np
import pytest

from fockmz import (BeamSplitter, Circuit, DslError, Mirror, PhaseShifter,
                    build_preset, parse, serialize)

MZ_TEXT = """\
modes 2
param phi
source 0 1
bs 0 1
phase 0 phi
bs 0 1
"""


def errors_of(text):
    with pytest.raises(DslError) as err:
        parse(text)
    return err.value.errors


def test_parse_simple_mz():
    circ = parse(MZ_TEXT)
    assert circ.modes == 2
    assert circ.sources == ((0, 1),)
    assert circ.elements == (BeamSplitter(0, 1), PhaseShifter(0, "phi"),
                             BeamSplitter(0, 1))
    assert circ.params == frozenset({"phi"})


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nmodes 2  # trailing\nsource 0 1\n\nmirror 1\n"
    circ = parse(text)
    assert circ.elements == (Mirror(1),)


def test_parse_crlf():
    assert parse(MZ_TEXT.replace("\n", "\r\n")) == parse(MZ_TEXT)


def test_undeclared_parameter_diagnostic():
    errs = errors_of("modes 2\nsource 0 1\nphase 0 theta\n")
    assert len(errs) == 1
    assert errs[0].line == 3
    assert "undeclared parameter 'theta'" in errs[0].message


def test_unknown_keyword():
    errs = errors_of("modes 2\nsource 0 1\nsplitter 0 1\n")
    assert any("unknown keyword" in e.message and e.line == 3 for e in errs)


def test_modes_must_come_first():
    errs = errors_of("source 0 1\nmodes 2\n")
    assert any("must be the first statement" in e.message for e in errs)


def test_missing_modes():
    errs = errors_of("# nothing\n")
    assert any("modes" in e.message for e in errs)


def test_mode_out_of_range():
    errs = errors_of("modes 2\nsource 5 1\n")
    assert any("out of range" in e.message and e.line == 2 for e in errs)


def test_duplicate_source_and_herald():
    errs = errors_of("modes 2\nsource 0 1\nsource 0 2\nherald 1 0\nherald 1 1\n")
    messages = [e.message for e in errs]
    assert any("duplicate source mode" in m for m in messages)
    assert any("duplicate herald mode" in m for m in messages)


def test_statement_order_enforced():
    errs = errors_of("modes 2\nbs 0 1\nsource 0 1\n")
    assert any("out of order" in e.message and e.line == 3 for e in errs)


def test_multiple_independent_errors_all_reported():
    text = "modes 2\nsource 0 1\nsource 0 1\nbs 0 5\nphase 1 nope\nherald 9 1\n"
    errs = errors_of(text)
    assert len(errs) >= 4
    assert sorted(e.line for e in errs) == [3, 4, 5, 6]


def test_literal_phase_round_trip():
    circ = Circuit(2, ((0, 1),), (PhaseShifter(0, 1.2345678901234),))
    assert parse(serialize(circ)) == circ


@pytest.mark.parametrize("name", ("fig1", "fig2", "fig3", "sec4", "single", "ifm"))
def test_presets_round_trip(name):
    circ = build_preset(name).circuit
    assert parse(serialize(circ)) == circ


@pytest.mark.parametrize("model", ("cascade", "resolving"))
def test_fig_models_round_trip(model):
    for name in ("fig1", "fig3"):
        circ = build_preset(name, model=model).circuit
        assert parse(serialize(circ)) == circ


def test_serialize_canonical_section_order():
    circ = build_preset("fig1").circuit
    lines = serialize(circ).splitlines()
    kinds = [line.split()[0] for line in lines]
    order = {"modes": 0, "param": 1, "source": 2, "bs": 3, "phase": 3,
             "mirror": 3, "herald": 4, "label": 5}
    ranks = [order[k] for k in kinds]
    assert ranks == sorted(ranks)
    labels = [line.split()[1] for line in lines if line.startswith("label ")]
    assert labels == sorted(labels)


def test_serialize_empty_elements():
    circ = Circuit(3, ((1, 2),), ())
    assert serialize(circ) == "modes 3\nsource 1 2\n"


def test_fuzzed_round_trip():
    rng = np.random.default_rng(29)
    for _ in range(50):
        modes = int(rng.integers(1, 9))
        params = [f"p{i}" for i in range(rng.integers(0, 3))]
        elements = []
        for _ in range(rng.integers(0, 21)):
            kind = rng.integers(0, 3)
            if kind == 0 and modes >= 2:
                i, j = rng.choice(modes, size=2, replace=False)
                elements.append(BeamSplitter(int(i), int(j)))
            elif kind == 1:
                phase = (rng.choice(params) if params and rng.random() < 0.5
                         else float(rng.uniform(0, 7)))
                phase = str(phase) if isinstance(phase, np.str_) else phase
                elements.append(PhaseShifter(int(rng.integers(modes)), phase))
            else:
                elements.append(Mirror(int(rng.integers(modes))))
        n_sources = int(rng.integers(0, modes + 1))
        src_modes = rng.choice(modes, size=n_sources, replace=False)
        sources = tuple((int(m), int(rng.integers(0, 4))) for m in src_modes)
        n_heralds = int(rng.integers(0, modes))
        h_modes = rng.choice(modes, size=n_heralds, replace=False)
        heralds = tuple((int(m), int(rng.integers(0, 3))) for m in h_modes)
        circ = Circuit(modes, sources, tuple(elements), heralds=heralds,
                       params=frozenset(params))
        assert parse(serialize(circ)) == circ


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "-inf", "+inf", "+nan",
                                     "-nan", "-Infinity"])
def test_non_finite_phase_literal_reported(literal):
    errs = errors_of(f"modes 2\nsource 0 1\nphase 0 {literal}\nmirror 1\n")
    assert [(e.line, e.column, e.token) for e in errs] == [(3, 9, literal)]
    assert "finite" in errs[0].message


@pytest.mark.parametrize("word", ["inf", "nan", "Infinity"])
def test_non_finite_names_are_parameters(word):
    # bare words are identifiers: undeclared they are errors, declared they bind
    errs = errors_of(f"modes 2\nsource 0 1\nphase 0 {word}\n")
    assert "undeclared parameter" in errs[0].message
    circ = parse(f"modes 2\nparam {word}\nsource 0 1\nphase 0 {word}\n")
    assert circ.elements == (PhaseShifter(0, word),)


def test_finite_extreme_phase_literals_parse():
    circ = parse("modes 2\nsource 0 1\nphase 0 1e300\nphase 1 -5e-324\n")
    assert circ.elements == (PhaseShifter(0, 1e300), PhaseShifter(1, -5e-324))


def test_heralds_covering_every_mode_reported_at_last_herald():
    errs = errors_of("modes 2\nsource 0 1\nbs 0 1\nherald 0 1\nherald 1 0\n")
    assert [str(e) for e in errs] == ["line 5, column 8: heralds leave no free mode"]


def test_label_rules_match_circuit():
    errs = errors_of("modes 2\nsource 0 1\nlabel x 7\nlabel x 0\n")
    assert [(e.line, e.message) for e in errs] == [
        (3, "label mode 7 out of range for 2 modes"), (4, "duplicate label 'x'")]


def test_errors_sorted_by_line_and_column():
    # lexical errors and circuit-rule errors interleave in file order
    errs = errors_of("modes 2\nsource 0 -1\nbs 0 x\nmirror 4\nherald q 0\n")
    assert [(e.line, e.column) for e in errs] == [(2, 8), (3, 6), (4, 8), (5, 8)]


def test_zero_modes_reported_once():
    errs = errors_of("modes 0\nsource 0 1\n")
    assert [str(e) for e in errs] == ["line 1, column 7: circuit needs at least one mode"]


def test_token_errors_at_their_own_column():
    # each bad token also occurs earlier in its line, inside the keyword
    errs = errors_of("modes 2\nparam p\nparam p\nsource 0 1\nphase 0 1.2.3\n"
                     "mirror r\nherald e 0\n")
    assert [(e.line, e.column, e.token) for e in errs] == [
        (3, 7, "p"), (5, 9, "1.2.3"), (6, 8, "r"), (7, 8, "e")]


def test_every_bad_argument_reported():
    errs = errors_of("modes 2\nsource 0 1\nphase x 1.2.3\nlabel 9a b\n")
    assert [(e.line, e.column, e.message) for e in errs] == [
        (3, 7, "mode must be an integer"),
        (3, 9, "phase must be a number or a declared parameter"),
        (4, 7, "invalid label name"),
        (4, 10, "label mode must be an integer")]
