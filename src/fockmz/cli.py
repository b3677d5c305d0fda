"""Command-line front end: run, scan, fit, validate, chsh.

Commands raise; `main` alone prints `error: ...` lines and picks the exit
code. Exit codes are stable API: 0 ok, 1 parse/validate (and a basis above
the size limit), 2 unbound parameter (and argparse usage errors), 3
zero-probability herald, 4 I/O.
"""

from __future__ import annotations

import argparse
import decimal
import math
import sys

import numpy as np

from .circuit import UnboundParameterError, compose, check_unitary
from .dsl import DslError, parse, serialize
# run_circuit is unused here but stays importable: bench/test_bench.py hooks it
from .engine import ZeroProbabilityError, run_circuit  # noqa: F401
from .experiments import (CHSH_OPTIMAL_SETTINGS, MODEL_PRESETS, PRESET_NAMES,
                          build_fig2, build_preset, chsh, fit_fringe,
                          gated_rates, preset_from_circuit, scan_phase)
from .fock import BasisTooLargeError, check_basis_size

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNBOUND = 2
EXIT_ZERO_PROB = 3
EXIT_IO = 4

# the exit code of each library error; a CliError carries its own
_EXIT_CODES = {DslError: EXIT_PARSE, BasisTooLargeError: EXIT_PARSE,
               UnboundParameterError: EXIT_UNBOUND,
               ZeroProbabilityError: EXIT_ZERO_PROB}


class CliError(Exception):
    """A failure the CLI finds itself, with the exit code it ends in."""

    def __init__(self, message, code=EXIT_PARSE):
        super().__init__(message)
        self.code = code


def fmt(x: float) -> str:
    """12 significant digits, positional notation, '.' decimal separator."""
    x = float(x)
    if x == 0.0:
        return "0.000000000000"
    return format(decimal.Decimal(f"{x:.11e}"), "f")


def _bind(args, circuit, swept=False):
    """The --param values by name and, for a scan, the swept parameter; each
    name must be one the circuit declares, and each of those must be bound."""
    bindings, sweep = {}, None
    for item in args.param or ():
        name, eq, value = item.partition("=")
        name = name.strip()
        if name not in circuit.params:
            raise CliError(f"unknown parameter '{name}'")
        if not eq:
            if not swept:
                raise CliError(f"--param {name}: run needs NAME=RADIANS")
            sweep = name
            continue
        try:
            phi = float(value)
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            raise CliError(f"--param {item}: phase must be a finite number of radians")
        bindings[name] = phi
    free = sorted(p for p in circuit.params if p not in bindings)
    if swept and sweep is None:
        if len(free) != 1:
            raise CliError("specify the swept parameter with --param NAME", EXIT_UNBOUND)
        sweep = free[0]
    missing = [p for p in free if not (swept and p == sweep)]
    if missing:
        raise CliError(f"unbound parameter '{missing[0]}'", EXIT_UNBOUND)
    return bindings, sweep


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def _load(args):
    """The preset, or a circuit file as a preset with reduced-basis outcomes."""
    if args.model != "resolving" and args.preset not in MODEL_PRESETS:
        raise CliError(f"--model {args.model} applies only to the "
                       f"{' and '.join(MODEL_PRESETS)} presets")
    if args.preset:
        return build_preset(args.preset, model=args.model)
    return preset_from_circuit(parse(_read(args.circuit)))


def cmd_run(args):
    preset = _load(args)
    if args.emit_icd:
        _write(args.emit_icd, serialize(preset.circuit))
    rates = gated_rates(preset, _bind(args, preset.circuit)[0])
    hp = rates.herald_probability
    if args.format == "csv":
        print("outcome,probability")
        print(f"herald,{fmt(hp)}")
        for name, p in rates.items():
            print(f"{name},{fmt(p)}")
    else:
        print(f"herald probability: {fmt(hp)}")
        width = max(len(n) for n in rates)
        for name, p in rates.items():
            print(f"  {name:<{width}}  {fmt(p)}")


def cmd_scan(args):
    preset = _load(args)
    bindings, sweep = _bind(args, preset.circuit, swept=True)
    if args.steps < 32:
        raise CliError("scan needs at least 32 steps")
    span = args.stop - args.start
    # grid points are start + span * k / steps, k < steps
    if not (math.isfinite(args.start) and math.isfinite(span * args.steps)):
        raise CliError("--start and --stop must give a finite range of radians")
    scan = scan_phase(preset, sweep, args.steps, base=bindings, start=args.start,
                      span=span)
    names = preset.outcome_names()
    lines = [sweep + "," + ",".join(names)]
    for k, phi in enumerate(scan.grid):
        lines.append(",".join([fmt(phi)] + [fmt(scan.samples[name][k]) for name in names]))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_fit(args):
    rows = [line.strip() for line in _read(args.input).split("\n") if line.strip()]
    if not rows:
        raise CliError(f"{args.input} is empty")
    header = rows[0].split(",")
    if args.column not in header:
        raise CliError(f"column '{args.column}' not in {args.input}")
    col = header.index(args.column)
    try:
        grid = np.array([float(r.split(",")[0]) for r in rows[1:]])
        y = np.array([float(r.split(",")[col]) for r in rows[1:]])
    except (ValueError, IndexError):
        raise CliError(f"{args.input} has a missing or non-numeric cell") from None
    if not (np.isfinite(grid).all() and np.isfinite(y).all()):
        raise CliError(f"{args.input} has a non-finite cell")
    steps = np.diff(grid)
    if len(grid) < 32 or np.max(np.abs(steps - steps[0])) > 1e-9:
        raise CliError("fit needs a uniform grid with at least 32 samples")
    fit = fit_fringe(y)
    if fit.harmonic is None:
        print("no dominant harmonic")
        print(f"c0         {fmt(fit.mean_level)}")
        print(f"visibility {fmt(fit.visibility)}")
    else:
        print(f"harmonic   {fit.harmonic}")
        print(f"c0         {fmt(fit.mean_level)}")
        print(f"|ck|       {fmt(fit.magnitude)}")
        print(f"phase      {fmt(fit.phase)}")
        print(f"visibility {fmt(fit.visibility)}")
        print(f"residual   {fmt(fit.residual)}")


def cmd_validate(args):
    circuit = parse(_read(args.file))
    # phases never affect unitarity, so unbound parameters check fine at 0
    U = compose(circuit, {p: 0.0 for p in circuit.params})
    ok, dev = check_unitary(U, 1e-9 * circuit.modes)
    if not ok:
        raise CliError(f"composed matrix is not unitary (deviation {dev:.3e})")
    check_basis_size(circuit.modes, circuit.photons)
    print(f"OK: {circuit.modes} modes, {circuit.photons} photons, "
          f"{len(circuit.elements)} elements")


def cmd_chsh(args):
    angles = args.angles or CHSH_OPTIMAL_SETTINGS
    if len(angles) != 4:
        raise CliError("chsh needs exactly four angles")
    if not all(map(math.isfinite, angles)):
        raise CliError("chsh angles must be finite numbers of radians")
    s, table = chsh(build_fig2(), *angles)
    for (x, y), e in table.items():
        print(f"E({x}, {y}) = {fmt(e)}")
    print(f"S = {fmt(s)}")


def _add_circuit_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--circuit", metavar="FILE.icd")
    sub.add_argument("--model", choices=("resolving", "cascade"),
                     default="resolving", help="detector model for fig1/fig3")
    sub.add_argument("--param", action="append", metavar="NAME[=RADIANS]",
                     help="bind a phase parameter (repeatable); bare NAME "
                          "selects the swept parameter for scan")


class _ArgParser(argparse.ArgumentParser):
    """Reads every token that float() accepts (-1e-3, -5., -inf) as a value;
    argparse itself takes only -1 and -1.5 for negative numbers."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_arg_parser():
    ap = _ArgParser(
        prog="fockmz",
        description="Exact post-selected multi-photon interferometer simulator.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate gated rates at fixed phases")
    _add_circuit_args(p)
    p.add_argument("--format", choices=("csv", "pretty"), default="pretty")
    p.add_argument("--emit-icd", metavar="FILE", dest="emit_icd",
                   help="also write the circuit in .icd form")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("scan", help="sweep a phase and write a CSV of rates")
    _add_circuit_args(p)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=2.0 * math.pi,
                   help="exclusive end of the sweep (default 2*pi)")
    p.add_argument("--out", metavar="FILE.csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="extract the dominant fringe harmonic from a scan CSV")
    p.add_argument("input", metavar="FILE.csv")
    p.add_argument("column")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="parse an .icd file and check unitarity")
    p.add_argument("file", metavar="FILE.icd")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chsh", help="CHSH correlation on the nonlocal preset")
    p.add_argument("angles", nargs="*", type=float, metavar="RADIANS",
                   help="a a' b b' (default: optimal settings)")
    p.set_defaults(func=cmd_chsh)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        args.func(args)
    except (CliError, *_EXIT_CODES) as exc:
        for line in str(exc).split("\n"):
            print(f"error: {line}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else _EXIT_CODES[type(exc)]
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
