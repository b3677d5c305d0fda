"""Line-oriented `.icd` circuit description format.

Grammar (one statement per line, `#` starts a comment, blank lines ignored;
sections must appear in order: modes, param, source, element, herald, label):

    modes  <INT>
    param  <IDENT>
    source <MODE> <INT>
    bs     <MODE> <MODE>
    phase  <MODE> (<NUMBER> | <IDENT>)
    mirror <MODE>
    herald <MODE> <INT>
    label  <IDENT> <MODE>

The grammar is one table, `_STATEMENTS`: each keyword's section, usage text,
argument readers and the Circuit field its entry goes to; `parse` is one loop
over it. Each line is split into tokens once, each token keeping its column.

All detected errors are reported, sorted by line and column. A bad argument
is reported at its own token, every bad argument of a statement included;
statement errors (unknown keyword, wrong arity, order, `modes` first and
once) at column 1. The parser checks only tokens and statement order; every
circuit rule comes from `circuit_errors`, reported at the first argument of
the offending statement.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import BeamSplitter, Circuit, Mirror, PhaseShifter, circuit_errors

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self):
        where = f"line {self.line}, column {self.column}"
        if self.token:
            return f"{where}: {self.message} (near '{self.token}')"
        return f"{where}: {self.message}"


class DslError(ValueError):
    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(str(e) for e in self.errors))


# argument readers: the value of a token, or ValueError with the message

def _integer(tok, what):
    try:
        return int(tok, 10)
    except ValueError:
        raise ValueError(f"{what} must be an integer") from None


def _identifier(tok, what):
    if not _IDENT_RE.match(tok):
        raise ValueError(f"invalid {what}")
    return tok


def _phase(tok, what):
    if _IDENT_RE.match(tok):
        return tok
    try:
        angle = float(tok)
    except ValueError:
        raise ValueError(f"{what} must be a number or a declared parameter") from None
    if not math.isfinite(angle):
        raise ValueError(f"{what} must be a finite number of radians")
    return angle


def _pair(first, second):
    return first, second


_MODE = (_integer, "mode")

# keyword: ((section rank, section name), usage, (reader, what) per argument,
#           Circuit field, entry built from the argument values)
_STATEMENTS = {
    "modes": ((0, "modes"), "modes <INT>", ((_integer, "mode count"),), "modes", int),
    "param": ((1, "param"), "param <IDENT>", ((_identifier, "parameter name"),),
              "params", str),
    "source": ((2, "source"), "source <MODE> <INT>",
               ((_integer, "source mode"), (_integer, "photon count")), "sources", _pair),
    "bs": ((3, "element"), "bs <MODE> <MODE>", (_MODE, _MODE), "elements", BeamSplitter),
    "phase": ((3, "element"), "phase <MODE> (<NUMBER>|<IDENT>)",
              (_MODE, (_phase, "phase")), "elements", PhaseShifter),
    "mirror": ((3, "element"), "mirror <MODE>", (_MODE,), "elements", Mirror),
    "herald": ((4, "herald"), "herald <MODE> <INT>",
               ((_integer, "herald mode"), (_integer, "herald count")), "heralds", _pair),
    "label": ((5, "label"), "label <IDENT> <MODE>",
              ((_identifier, "label name"), (_integer, "label mode")), "labels", _pair),
}


def parse(text: str) -> Circuit:
    """Parses `.icd` source into a Circuit; raises DslError with all diagnostics."""
    errors = []
    parts = {f: [] for f in ("modes", "params", "sources", "elements", "heralds", "labels")}
    where = {f: [] for f in parts}  # (line, column of the first argument) per entry
    section = (0, "modes")

    def error(column, message, token=""):
        errors.append(ParseError(line_no, column, message, token))

    for line_no, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(line)]
        if not toks:
            continue
        keyword, args = toks[0][1], toks[1:]
        if not parts["modes"] and keyword != "modes":
            error(1, "'modes' must be the first statement", keyword)
            # keep going so later errors are still reported
        if keyword not in _STATEMENTS:
            error(1, f"unknown keyword '{keyword}'", keyword)
            continue
        place, usage, readers, field, entry = _STATEMENTS[keyword]
        if place < section:
            error(1, f"'{keyword}' statement out of order "
                     f"(must come before {section[1]} statements)", keyword)
            continue
        section = place
        if len(args) != len(readers):
            error(1, f"expected '{usage}'", line.strip())
            continue
        values = []
        for (column, tok), (read, what) in zip(args, readers):
            try:
                values.append(read(tok, what))
            except ValueError as exc:
                error(column, str(exc), tok)
        if len(values) != len(readers):
            continue
        column = args[0][0]
        if field == "modes" and parts["modes"]:
            error(1, "duplicate 'modes' statement", "modes")
        elif field == "params" and values[0] in parts["params"]:
            error(column, f"duplicate parameter '{values[0]}'", values[0])
        else:
            parts[field].append(entry(*values))
            where[field].append((line_no, column))

    if not parts["modes"]:
        if not any("modes" in e.message for e in errors):
            errors.append(ParseError(1, 1, "missing 'modes' statement"))
    else:
        parts["modes"] = parts["modes"][0]
        for field, index, message in circuit_errors(**parts):
            errors.append(ParseError(*where[field][index or 0], message))
    if errors:
        raise DslError(sorted(errors, key=lambda e: (e.line, e.column)))
    return Circuit(**parts)


def _fmt_phase(phase) -> str:
    if isinstance(phase, str):
        return phase
    return repr(float(phase))


def serialize(circuit: Circuit) -> str:
    """Canonical `.icd` text; parse(serialize(c)) equals c structurally."""
    lines = [f"modes {circuit.modes}"]
    for name in sorted(circuit.params):
        lines.append(f"param {name}")
    for mode, count in circuit.sources:
        lines.append(f"source {mode} {count}")
    for el in circuit.elements:
        if isinstance(el, BeamSplitter):
            lines.append(f"bs {el.i} {el.j}")
        elif isinstance(el, PhaseShifter):
            lines.append(f"phase {el.mode} {_fmt_phase(el.phase)}")
        else:  # Mirror
            lines.append(f"mirror {el.mode}")
    for mode, count in circuit.heralds:
        lines.append(f"herald {mode} {count}")
    for name, mode in sorted(circuit.labels):
        lines.append(f"label {name} {mode}")
    return "\n".join(lines) + "\n"
