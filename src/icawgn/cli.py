"""Command-line front end: emits figure-ready tables for every library capability.

Subcommands:
    bounds    finite-n bound sweeps over a dimension range, as logs
    asym      exact bounds vs sandwich members and asymptotic forms, as logs
    invert    fixed-error NLD inversion (converse / achievable / approximation)
    simulate  seeded Monte Carlo of a builtin lattice, or a scale search
    equiv     section-integral equivalence residuals, both sides as logs

Output is CSV (one header line, full-precision, LF line endings) or JSON
lines behind --format json.  Each subcommand returns one column table, a
dict from column name to column in output order, and CSV is written
straight from its columns; bound tables leave min(1, e^log), e^(log -
asym_log), delta*, delta_cr and dB gaps to the library.  Exit status: 0
success, 2 usage error, 1 numerical failure (one machine-parsable line on
stderr).
"""

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import asymptotics, bounds, dispersion, lattices

__all__ = ["main"]


def _parse_n_range(text: str) -> list[int]:
    """Dimension range: 'a', 'a:b' (step 1), 'a:b:step', or geometric 'a:b:xG'
    (a, a G, a G^2, ... rounded); at most 10^6 values or steps."""
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) not in (2, 3):
        raise ValueError(f"bad range syntax {text!r}")
    a, b = int(parts[0]), int(parts[1])
    if a < 1 or b < a:
        raise ValueError(f"bad range bounds in {text!r}")
    step = parts[2] if len(parts) == 3 else "1"
    if step.startswith("x"):
        ratio = float(step[1:])
        if not (1.0 < ratio < math.inf):
            raise ValueError(f"geometric ratio must be finite and > 1, got {step!r}")
        if math.log(b) - math.log(a) > 1e6 * math.log(ratio):
            raise ValueError(f"geometric ratio {step!r} takes more than 10^6 steps from {a} to {b}")
        out, v = [a], a * ratio   # v grows, so a repeated value repeats the last
        while v < math.inf and (k := round(v)) <= b:   # as integers: v may round past b
            if k > out[-1]:
                out.append(k)
            v *= ratio
        return out
    inc = int(step)
    if inc < 1:
        raise ValueError(f"step must be >= 1, got {step!r}")
    if (b - a) // inc >= 10**6:
        raise ValueError(f"range {text!r} has more than 10^6 values")
    return list(range(a, b + 1, inc))


def _emit(table: dict[str, list], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        # str of a Python float is its shortest round-trip repr.
        rows = zip(*(map(str, col) for col in table.values()))
        lines = [",".join(table), *map(",".join, rows)]
    else:
        # RFC 8259 has no NaN or Infinity: a non-finite cell is written as null.
        lines = [json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                             for k, v in zip(table, row)}, allow_nan=False)
                 for row in zip(*table.values())]
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path!r}: {exc.strerror}") from None


def _cmd_bounds(args) -> dict[str, list]:
    which = args.which.split(",") if args.which else list(bounds.CURVE_KINDS)
    ns = _parse_n_range(args.n)
    curves = bounds.bound_curves(ns, args.nld, args.sigma2, which)
    clamped = np.column_stack([curves[w].clamped for w in which])
    for i, j in zip(*np.nonzero(clamped)):
        print(f"warning: {which[j]} bound exceeds 1 at n={ns[i]} (clamped, vacuous)",
              file=sys.stderr)
    # Python floats, which str formats faster than numpy scalars.
    return {"n": ns, **{f"{w}_log": curves[w].log_value.tolist() for w in which}}


def _cmd_asym(args) -> dict[str, list]:
    columns = ["n",
               "sphere_log", "sphere_lower_q_log", "sphere_lower_log",
               "sphere_upper_log", "sphere_asym_log",
               "ml_log", "ml_lower_q_log", "ml_lower_log", "ml_upper_log",
               "ml_asym_log", "ml_branch",
               "typicality_log", "typicality_asym_log"]
    ns = _parse_n_range(args.n)
    # The exact columns stay on the scalar bounds, one point at a time, and the
    # branch is one scalar call: the benchmark's tracer wraps only these scalar
    # functions, so they are what its traced run records of the bounds, specfn
    # and asymptotics layers here.  The exact columns move to bound_curves once
    # the tracer can classify array arguments.
    exact = {"sphere": bounds.sphere_bound, "ml": bounds.ml_bound,
             "typicality": bounds.typicality_bound}
    points = [bounds.ChannelPoint(n, args.nld, args.sigma2) for n in ns]
    cells = {f"{k}_log": [bound(p).log_raw for p in points] for k, bound in exact.items()}
    cells["n"] = ns
    cells["ml_branch"] = [asymptotics.ml_asymptotic_branch(points[-1])] * len(ns)
    for key, curve in asymptotics.asym_curves(ns, args.nld, args.sigma2).items():
        cells[f"{key}_log"] = curve.tolist()
    return {c: cells[c] for c in columns}


def _cmd_invert(args) -> dict[str, list]:
    ns, eps, sigma2 = _parse_n_range(args.n), args.eps, args.sigma2
    # The ML solves run together, one array evaluation of the bound per round.
    return {"n": ns,
            "delta_converse": [dispersion.nld_eps_converse(n, eps, sigma2).delta for n in ns],
            "delta_achievable": [r.delta for r in dispersion.nld_eps_achievable_curve(ns, eps, sigma2)],
            "delta_approx": [dispersion.nld_eps_approx(n, eps, sigma2) for n in ns]}


def _cmd_simulate(args) -> dict[str, list]:
    spec = lattices.builtin(args.lattice)
    if args.target_eps is None:
        record = lattices.simulate_error_prob(spec, args.sigma2, args.trials,
                                              seed=args.seed).to_record(spec, args.sigma2)
    else:
        res = lattices.find_scale_for_error(spec, args.target_eps, args.sigma2,
                                            trials=args.trials, seed=args.seed)
        # The estimate's own seed is derived from the search's, which the record names.
        record = {"lattice": spec.name, "n": spec.dim, "scale": res.scale, "delta": res.delta,
                  "gap_db": res.gap_db, "eps_target": args.target_eps,
                  **res.estimate._replace(seed=args.seed)._asdict()}
    return {k: [v] for k, v in record.items()}


def _cmd_equiv(args) -> dict[str, list]:
    n = int(args.n)
    radii = [float(tok) for tok in args.r.split(",")]
    sides = [bounds.equivalence_sides(n, r, args.sigma2) for r in radii]
    return {"n": [n] * len(radii), "r": radii,
            "lhs_log": [lhs.log_value for lhs, _ in sides],
            "rhs_log": [rhs.log_value for _, rhs in sides],
            "rel_discrepancy": [bounds.equivalence_discrepancy(*pair) for pair in sides]}


# Built once per process: building takes about 1 ms, a parse 0.04 ms.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icawgn",
        description="Bounds, asymptotics, inversion and simulation for "
                    "infinite constellations over unconstrained AWGN.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps=False):
        p.add_argument("--sigma2", type=float, default=1.0, help="noise variance per dimension")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if eps:
            p.add_argument("--eps", type=float, required=True, help="target error probability")

    p = sub.add_parser("bounds", help="finite-n bounds over a dimension range")
    p.add_argument("--n", required=True, help="dimension range a:b[:step|:xG]")
    p.add_argument("--nld", type=float, required=True, help="NLD delta in nats/dim")
    p.add_argument("--which", default=None,
                   help="comma list from sphere,ml,typicality,poltyrev (default all)")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("asym", help="exact bounds vs sandwiches and asymptotics")
    p.add_argument("--n", required=True)
    p.add_argument("--nld", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("invert", help="NLD at fixed error probability")
    p.add_argument("--n", required=True)
    common(p, eps=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("simulate", help="Monte Carlo on a builtin lattice")
    p.add_argument("--lattice", required=True, help="Zk or Zn(k), k <= 1024, A2, D4 or E8")
    p.add_argument("--trials", type=int, default=100000,
                   help="trials (with --target-eps, of the search's draw and of its estimate)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-eps", type=float, default=None,
                   help="search the scale reaching this error probability")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("equiv", help="section-integral equivalence residuals")
    p.add_argument("--n", required=True, help="single dimension n >= 2")
    p.add_argument("--r", required=True, help="comma list of radii")
    common(p)
    p.set_defaults(func=_cmd_equiv)
    return parser


# An option without its value, and the start of a negative number, which no
# option shares.  argparse's own negative-number pattern has no exponent, so
# it would take a value such as -1e3 for an option.
_OPTION = re.compile(r"--[^=]+")
_NEGATIVE = re.compile(r"-\.?\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number after an option joined to it, as in
    --nld=-1e3, which argparse reads as the option's value."""
    out = []
    for tok in argv:
        if out and _OPTION.fullmatch(out[-1]) and _NEGATIVE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _emit(args.func(args), args.format, args.out)
    except (ArithmeticError, asymptotics.AsymptoticSingularity) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: usage error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
