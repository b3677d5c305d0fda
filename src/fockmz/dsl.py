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

All detected errors are reported, sorted by line and column. The parser
checks only tokens and statement order; every circuit rule comes from
`circuit_errors`, reported at the first argument of the offending statement.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import BeamSplitter, Circuit, Mirror, PhaseShifter, circuit_errors

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# section ranks enforce statement order
_SECTIONS = {"modes": 0, "param": 1, "source": 2,
             "bs": 3, "phase": 3, "mirror": 3,
             "herald": 4, "label": 5}
_SECTION_NAMES = {0: "modes", 1: "param", 2: "source",
                  3: "element", 4: "herald", 5: "label"}


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


class _Parser:
    def __init__(self):
        self.errors = []
        self.modes = None
        self.params = []
        self.sources = []
        self.elements = []
        self.heralds = []
        self.labels = []
        # (line, column of the first argument) of each entry, per Circuit field
        self.where = {f: [] for f in ("modes", "sources", "elements", "heralds", "labels")}
        self.at = None  # the same for the current statement
        self.section = -1

    def error(self, line_no, col, message, token=""):
        self.errors.append(ParseError(line_no, col, message, token))

    def _add(self, field, entry):
        getattr(self, field).append(entry)
        self.where[field].append(self.at)

    def _int(self, line_no, line, tok, what):
        try:
            v = int(tok, 10)
        except ValueError:
            self.error(line_no, line.index(tok) + 1, f"{what} must be an integer", tok)
            return None
        return v

    def _enter(self, line_no, keyword):
        rank = _SECTIONS[keyword]
        if rank < self.section:
            self.error(line_no, 1,
                       f"'{keyword}' statement out of order "
                       f"(must come before {_SECTION_NAMES[self.section]} statements)",
                       keyword)
            return False
        self.section = rank
        return True

    def parse_line(self, line_no, raw):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            return
        toks = line.split()
        keyword, args = toks[0], toks[1:]
        if self.modes is None and keyword != "modes":
            self.error(line_no, 1, "'modes' must be the first statement", keyword)
            # keep going so later errors are still reported
        if keyword not in _SECTIONS:
            self.error(line_no, 1, f"unknown keyword '{keyword}'", keyword)
            return
        if not self._enter(line_no, keyword):
            return
        if args:
            self.at = (line_no, line.index(args[0], line.index(keyword) + len(keyword)) + 1)
        handler = getattr(self, "_stmt_" + keyword)
        handler(line_no, line, args)

    def _arity(self, line_no, line, args, n, usage):
        if len(args) != n:
            self.error(line_no, 1, f"expected '{usage}'", line.strip())
            return False
        return True

    def _stmt_modes(self, line_no, line, args):
        if not self._arity(line_no, line, args, 1, "modes <INT>"):
            return
        v = self._int(line_no, line, args[0], "mode count")
        if v is None:
            return
        if self.modes is not None:
            self.error(line_no, 1, "duplicate 'modes' statement", "modes")
            return
        self.modes = v
        self.where["modes"].append(self.at)

    def _stmt_param(self, line_no, line, args):
        if not self._arity(line_no, line, args, 1, "param <IDENT>"):
            return
        name = args[0]
        if not _IDENT_RE.match(name):
            self.error(line_no, line.index(name) + 1, "invalid parameter name", name)
            return
        if name in self.params:
            self.error(line_no, line.index(name) + 1, f"duplicate parameter '{name}'", name)
            return
        self.params.append(name)

    def _mode_count(self, line_no, line, args, keyword, what):
        """`<keyword> <MODE> <INT>` into the sources or heralds."""
        if not self._arity(line_no, line, args, 2, f"{keyword} <MODE> <INT>"):
            return
        mode = self._int(line_no, line, args[0], f"{keyword} mode")
        count = self._int(line_no, line, args[1], what)
        if mode is not None and count is not None:
            self._add(keyword + "s", (mode, count))

    def _stmt_source(self, line_no, line, args):
        self._mode_count(line_no, line, args, "source", "photon count")

    def _stmt_bs(self, line_no, line, args):
        if not self._arity(line_no, line, args, 2, "bs <MODE> <MODE>"):
            return
        i = self._int(line_no, line, args[0], "mode")
        j = self._int(line_no, line, args[1], "mode")
        if i is not None and j is not None:
            self._add("elements", BeamSplitter(i, j))

    def _stmt_phase(self, line_no, line, args):
        if not self._arity(line_no, line, args, 2, "phase <MODE> (<NUMBER>|<IDENT>)"):
            return
        mode = self._int(line_no, line, args[0], "mode")
        if mode is None:
            return
        tok = args[1]
        col = line.index(tok, line.index(args[0]) + 1) + 1
        if _IDENT_RE.match(tok):
            self._add("elements", PhaseShifter(mode, tok))
            return
        try:
            angle = float(tok)
        except ValueError:
            self.error(line_no, 1, "phase must be a number or a declared parameter", tok)
            return
        if not math.isfinite(angle):
            self.error(line_no, col, "phase must be a finite number of radians", tok)
            return
        self._add("elements", PhaseShifter(mode, angle))

    def _stmt_mirror(self, line_no, line, args):
        if not self._arity(line_no, line, args, 1, "mirror <MODE>"):
            return
        mode = self._int(line_no, line, args[0], "mode")
        if mode is not None:
            self._add("elements", Mirror(mode))

    def _stmt_herald(self, line_no, line, args):
        self._mode_count(line_no, line, args, "herald", "herald count")

    def _stmt_label(self, line_no, line, args):
        if not self._arity(line_no, line, args, 2, "label <IDENT> <MODE>"):
            return
        name = args[0]
        if not _IDENT_RE.match(name):
            self.error(line_no, line.index(name) + 1, "invalid label name", name)
            return
        mode = self._int(line_no, line, args[1], "label mode")
        if mode is not None:
            self._add("labels", (name, mode))

    def result(self):
        if self.modes is None:
            if not any("modes" in e.message for e in self.errors):
                self.errors.append(ParseError(1, 1, "missing 'modes' statement"))
        else:
            for field, index, message in circuit_errors(
                    self.modes, self.sources, self.elements, self.heralds,
                    self.labels, self.params):
                self.error(*self.where[field][index or 0], message)
        if self.errors:
            raise DslError(sorted(self.errors, key=lambda e: (e.line, e.column)))
        return Circuit(
            modes=self.modes,
            sources=tuple(self.sources),
            elements=tuple(self.elements),
            heralds=tuple(self.heralds),
            labels=tuple(self.labels),
            params=frozenset(self.params),
        )


def parse(text: str) -> Circuit:
    """Parses `.icd` source into a Circuit; raises DslError with all diagnostics."""
    parser = _Parser()
    for line_no, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        parser.parse_line(line_no, raw)
    return parser.result()


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
        elif isinstance(el, Mirror):
            lines.append(f"mirror {el.mode}")
        else:
            raise TypeError(f"unknown element {el!r}")
    for mode, count in circuit.heralds:
        lines.append(f"herald {mode} {count}")
    for name, mode in sorted(circuit.labels):
        lines.append(f"label {name} {mode}")
    return "\n".join(lines) + "\n"
