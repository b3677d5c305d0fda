"""Command-line front end: run, scan, fit, validate, chsh.

Exit codes are stable API: 0 ok, 1 parse/validate, 2 unbound parameter,
3 zero-probability herald, 4 I/O.
"""

from __future__ import annotations

import argparse
import decimal
import math
import sys

import numpy as np

from .circuit import UnboundParameterError, compose, check_unitary
from .dsl import DslError, parse, serialize
from .engine import (DetectionPattern, ZeroProbabilityError, condition,
                     pattern_probability, run_circuit)
from .experiments import (CHSH_OPTIMAL_SETTINGS, PRESET_NAMES, Preset,
                          build_fig2, build_preset, chsh, fit_fringe,
                          gated_rates, herald_pattern)

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


def _load(args):
    """Returns (circuit, outcome_columns) where each column is (name, pattern, weight)."""
    if args.preset:
        preset = build_preset(args.preset, model=getattr(args, "model", "resolving"))
        return preset.circuit, preset
    try:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.circuit}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return parse(text), None


def _reduced_columns(circuit):
    """Column per reduced-basis occupation, for circuits without named outcomes."""
    psi = run_circuit(circuit, {p: 0.0 for p in circuit.params})
    cond = condition(psi, circuit.heralds) if circuit.heralds else None
    if cond is None:
        vectors = psi.basis.vectors
        kept = tuple(range(circuit.modes))
    else:
        vectors = cond.reduced_state.basis.vectors
        kept = cond.kept_modes
    cols = []
    for v in vectors:
        name = "p_" + "_".join(str(n) for n in v)
        counts = {mode: n for mode, n in zip(kept, v)}
        cols.append((name, DetectionPattern.exactly(circuit.modes, counts), 1.0))
    return cols


def _rates(circuit, preset, bindings):
    """(herald probability, ordered {name: conditional probability})."""
    if preset is not None:
        psi = run_circuit(preset.circuit, bindings)
        hp = pattern_probability(psi, herald_pattern(preset.circuit))
        if hp <= 1e-300:
            raise ZeroProbabilityError("herald pattern has zero probability")
        return hp, gated_rates(preset, bindings)
    psi = run_circuit(circuit, bindings)
    hpat = herald_pattern(circuit)
    hp = pattern_probability(psi, hpat)
    if hp <= 1e-300:
        raise ZeroProbabilityError("herald pattern has zero probability")
    rates = {}
    for name, pattern, weight in _reduced_columns(circuit):
        rates[name] = pattern_probability(psi, hpat.merged(pattern)) * weight / hp
    return hp, rates


def cmd_run(args):
    circuit, preset = _load(args)
    bindings = _parse_bindings(args.param)[0]
    missing = sorted(p for p in circuit.params if p not in bindings)
    if missing:
        print(f"error: unbound parameter '{missing[0]}'", file=sys.stderr)
        return EXIT_UNBOUND
    hp, rates = _rates(circuit, preset, bindings)
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
    circuit, preset = _load(args)
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
    grid = args.start + (args.stop - args.start) * np.arange(args.steps) / args.steps
    if preset is not None:
        names = list(preset.outcome_names())
    else:
        names = [name for name, _, _ in _reduced_columns(circuit)]
    lines = [sweep + "," + ",".join(names)]
    for phi in grid:
        b = dict(bindings)
        b[sweep] = float(phi)
        _, rates = _rates(circuit, preset, b)
        lines.append(",".join([fmt(phi)] + [fmt(rates[name]) for name in names]))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
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
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_IO
    circuit = parse(text)
    # phases never affect unitarity, so unbound parameters check fine at 0
    U = compose(circuit, {p: 0.0 for p in circuit.params})
    ok, dev = check_unitary(U, 1e-9 * circuit.modes)
    if not ok:
        print(f"error: composed matrix is not unitary (deviation {dev:.3e})",
              file=sys.stderr)
        return EXIT_PARSE
    print(f"OK: {circuit.modes} modes, {circuit.photons} photons, "
          f"{len(circuit.elements)} elements")
    return EXIT_OK


def cmd_chsh(args):
    preset = build_fig2()
    if args.angles:
        a, a2, b, b2 = args.angles
    else:
        a, a2, b, b2 = CHSH_OPTIMAL_SETTINGS
    s, table = chsh(preset, a, a2, b, b2)
    for (x, y), e in table.items():
        print(f"E({x}, {y}) = {fmt(e)}")
    print(f"S = {fmt(s)}")
    return EXIT_OK


def _add_circuit_args(sub, with_model=True):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--circuit", metavar="FILE.icd")
    if with_model:
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
    if getattr(args, "command", None) == "chsh" and args.angles and len(args.angles) != 4:
        print("error: chsh needs exactly four angles", file=sys.stderr)
        return EXIT_PARSE
    try:
        if getattr(args, "emit_icd", None) and args.preset:
            preset = build_preset(args.preset, model=getattr(args, "model", "resolving"))
            try:
                with open(args.emit_icd, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(serialize(preset.circuit))
            except OSError as exc:
                print(f"error: cannot write {args.emit_icd}: {exc}", file=sys.stderr)
                return EXIT_IO
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
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
