"""Command-line front end: run, scan, fit, validate, chsh.

Exit codes are stable API: 0 ok, 1 parse/validate (and a basis above the
size limit), 2 unbound parameter, 3 zero-probability herald, 4 I/O.
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
from .experiments import (CHSH_OPTIMAL_SETTINGS, PRESET_NAMES, build_fig2,
                          build_preset, chsh, fit_fringe, gated_rates,
                          preset_from_circuit, scan_phase)
from .fock import BasisTooLargeError, check_basis_size

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNBOUND = 2
EXIT_ZERO_PROB = 3
EXIT_IO = 4


def fmt(x: float) -> str:
    """12 significant digits, positional notation, '.' decimal separator."""
    x = float(x)
    if x == 0.0:
        return "0.000000000000"
    return format(decimal.Decimal(f"{x:.11e}"), "f")


def _parse_bindings(pairs):
    bindings = {}
    sweep = None
    for item in pairs or ():
        if "=" in item:
            name, _, value = item.partition("=")
            try:
                phi = float(value)
            except ValueError:
                phi = math.nan
            if not math.isfinite(phi):
                print(f"error: --param {item}: phase must be a finite number "
                      f"of radians", file=sys.stderr)
                raise SystemExit(EXIT_PARSE)
            bindings[name.strip()] = phi
        else:
            sweep = item.strip()
    return bindings, sweep


def _read_circuit(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return parse(text)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _load(args):
    """The preset, or a circuit file as a preset with reduced-basis outcomes."""
    if args.preset:
        return build_preset(args.preset, model=args.model)
    return preset_from_circuit(_read_circuit(args.circuit))


def cmd_run(args):
    preset = _load(args)
    if args.emit_icd and args.preset:
        _write(args.emit_icd, serialize(preset.circuit))
    bindings = _parse_bindings(args.param)[0]
    missing = sorted(p for p in preset.circuit.params if p not in bindings)
    if missing:
        print(f"error: unbound parameter '{missing[0]}'", file=sys.stderr)
        return EXIT_UNBOUND
    rates = gated_rates(preset, bindings)
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
    return EXIT_OK


def cmd_scan(args):
    preset = _load(args)
    circuit = preset.circuit
    bindings, sweep = _parse_bindings(args.param)
    if sweep is None:
        candidates = sorted(p for p in circuit.params if p not in bindings)
        if len(candidates) != 1:
            print("error: specify the swept parameter with --param NAME", file=sys.stderr)
            return EXIT_UNBOUND
        sweep = candidates[0]
    missing = sorted(p for p in circuit.params if p not in bindings and p != sweep)
    if missing:
        print(f"error: unbound parameter '{missing[0]}'", file=sys.stderr)
        return EXIT_UNBOUND
    if args.steps < 32:
        print("error: scan needs at least 32 steps", file=sys.stderr)
        return EXIT_PARSE
    span = args.stop - args.start
    # grid points are start + span * k / steps, k < steps
    if not (math.isfinite(args.start) and math.isfinite(span * args.steps)):
        print("error: --start and --stop must give a finite range of radians",
              file=sys.stderr)
        return EXIT_PARSE
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
    return EXIT_OK


def cmd_fit(args):
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    if not rows:
        print(f"error: {args.input} is empty", file=sys.stderr)
        return EXIT_PARSE
    header = rows[0].split(",")
    if args.column not in header:
        print(f"error: column '{args.column}' not in {args.input}", file=sys.stderr)
        return EXIT_PARSE
    col = header.index(args.column)
    try:
        grid = np.array([float(r.split(",")[0]) for r in rows[1:]])
        y = np.array([float(r.split(",")[col]) for r in rows[1:]])
    except (ValueError, IndexError):
        print(f"error: {args.input} has a missing or non-numeric cell",
              file=sys.stderr)
        return EXIT_PARSE
    steps = np.diff(grid)
    if len(grid) < 32 or np.max(np.abs(steps - steps[0])) > 1e-9:
        print("error: fit needs a uniform grid with at least 32 samples", file=sys.stderr)
        return EXIT_PARSE
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
    return EXIT_OK


def cmd_validate(args):
    circuit = _read_circuit(args.file)
    # phases never affect unitarity, so unbound parameters check fine at 0
    U = compose(circuit, {p: 0.0 for p in circuit.params})
    ok, dev = check_unitary(U, 1e-9 * circuit.modes)
    if not ok:
        print(f"error: composed matrix is not unitary (deviation {dev:.3e})",
              file=sys.stderr)
        return EXIT_PARSE
    check_basis_size(circuit.modes, circuit.photons)
    print(f"OK: {circuit.modes} modes, {circuit.photons} photons, "
          f"{len(circuit.elements)} elements")
    return EXIT_OK


def cmd_chsh(args):
    angles = args.angles or CHSH_OPTIMAL_SETTINGS
    if len(angles) != 4:
        print("error: chsh needs exactly four angles", file=sys.stderr)
        return EXIT_PARSE
    if not all(map(math.isfinite, angles)):
        print("error: chsh angles must be finite numbers of radians", file=sys.stderr)
        return EXIT_PARSE
    s, table = chsh(build_fig2(), *angles)
    for (x, y), e in table.items():
        print(f"E({x}, {y}) = {fmt(e)}")
    print(f"S = {fmt(s)}")
    return EXIT_OK


def _add_circuit_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--circuit", metavar="FILE.icd")
    sub.add_argument("--model", choices=("resolving", "cascade"),
                     default="resolving", help="detector model for fig1/fig3")
    sub.add_argument("--param", action="append", metavar="NAME[=RADIANS]",
                     help="bind a phase parameter (repeatable); bare NAME "
                          "selects the swept parameter for scan")


def build_arg_parser():
    ap = argparse.ArgumentParser(
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
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DslError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except UnboundParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUND
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_PROB
    except BasisTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
