"""The benchmark's workloads: the CLI calls each one makes, and the oracles
that check its output independently of icawgn (scipy closed forms).

A job is split into CLI calls of roughly 0.1 s, so that the benchmark can
rescale each call by the machine's speed measured just around it (see
run.py).  An operation is one output row, or one lattice simulation.
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

SLACK = 1e-12          # relative slack of the ordering and sandwich checks
SPHERE_REL_TOL = 1e-9  # sphere_log against log(gammaincc)
INVERT_REL_TOL = 1e-7  # Q(n/2, .) at delta_converse against eps
EQUIV_TOL = 1e-6       # acceptance criterion 3
Z8_SIGMAS = 5.0        # Z8 p_hat against its closed form, in standard errors

# Noise variances putting p_hat near 1e-2 for each lattice at scale 1.
SIM_SIGMA2 = {"Z8": 0.024, "A2": 0.03, "D4": 0.05, "E8": 0.032}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    numpy_bound: bool        # time goes to numpy rather than the interpreter
    layers: tuple            # layers that must record spans in the traced run
    setup_argv: list         # one minimal call of the workload's subcommand
    jobs: Callable           # (seed, quick) -> the CLI calls (argv lists) of one job
    check: Callable          # (argv, output) -> one bool per operation


def check(wl, jobs, outputs, codes):
    """Oracle verdict on one job: (operations attempted, failed, messages).

    A CLI call that exits non-zero or prints an unreadable table fails as a
    single operation."""
    attempted = failed = 0
    msgs = []
    for argv, out, code in zip(jobs, outputs, codes):
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            ok = np.asarray(wl.check(argv, out), dtype=bool)
        except (ValueError, IndexError, KeyError) as exc:
            attempted += 1
            failed += 1
            msgs.append(f"{exc!r}: {' '.join(argv)}")
            continue
        attempted += ok.size
        failed += int(np.count_nonzero(~ok))
        if not ok.all():
            msgs.append(f"{np.count_nonzero(~ok)} of {ok.size} rows fail the oracle: {' '.join(argv)}")
    return attempted, failed, msgs


def _chunks(lo, hi, size):
    """Dimension ranges 'a:b' of at most size values covering lo..hi."""
    return [f"{a}:{min(a + size - 1, hi)}" for a in range(lo, hi + 1, size)]


def _table(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _columns(text, names):
    header, rows = _table(text)
    idx = [header.index(c) for c in names]
    return np.array([[float(r[i]) for i in idx] for r in rows]).T


def _le(a, b):
    # a <= b up to SLACK relative on the linear values, compared in logs.
    return a <= b + math.log1p(SLACK)


def _log_sphere(n, nld, sigma2):
    """ln Pr{||Z|| > r_eff} through scipy alone (-inf where it underflows)."""
    n = np.asarray(n, dtype=float)
    log_vn = 0.5 * n * math.log(math.pi) - special.gammaln(0.5 * n + 1.0)
    log_r = -nld - log_vn / n
    x = np.exp(2.0 * log_r) / (2.0 * sigma2)
    with np.errstate(divide="ignore"):
        return np.log(special.gammaincc(0.5 * n, x))


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# ---------------------------------------------------------------------------
# bounds_sweep

def _bounds_jobs(seed, quick):
    ranges = _chunks(1, 300, 100) if quick else _chunks(1, 10000, 500)
    return ([["bounds", "--n", r, "--nld", "-1.5"] for r in ranges]
            + [["bounds", "--n", r, "--nld", "-2.0"] for r in ranges]
            + [["asym", "--n", r, "--nld", "-1.5"] for r in ranges])


def _check_bounds_table(argv, text):
    cols = ("n", "sphere_log", "ml_log", "typicality_log", "poltyrev_log")
    n, sphere, ml, typ, pol = _columns(text, cols)
    ok = _le(sphere, ml) & _le(ml, np.minimum(typ, pol))
    ref = _log_sphere(n, float(_arg(argv, "--nld")), float(_arg(argv, "--sigma2", 1.0)))
    representable = ref > math.log(2.2e-308)
    with np.errstate(invalid="ignore"):
        err = np.abs(sphere - ref) / np.abs(ref)
    return ok & (~representable | (err <= SPHERE_REL_TOL))


def _check_asym_table(text):
    ok = True
    for kind in ("sphere", "ml"):
        exact, low_q, low, up = _columns(
            text, [f"{kind}_log", f"{kind}_lower_q_log", f"{kind}_lower_log", f"{kind}_upper_log"])
        defined = np.isfinite(low_q) & np.isfinite(low) & np.isfinite(up)
        ok = ok & (~defined | (_le(low_q, exact) & _le(low, exact) & _le(exact, up)))
    return ok


def _check_bounds(argv, text):
    return _check_bounds_table(argv, text) if argv[0] == "bounds" else _check_asym_table(text)


# ---------------------------------------------------------------------------
# invert_sweep

def _invert_jobs(seed, quick):
    ranges = _chunks(2, 40, 20) if quick else _chunks(2, 2000, 50)
    return [["invert", "--n", r, "--eps", "0.01"] for r in ranges]


def _check_invert(argv, text):
    eps = float(_arg(argv, "--eps"))
    sigma2 = float(_arg(argv, "--sigma2", 1.0))
    n, conv, ach = _columns(text, ("n", "delta_converse", "delta_achievable"))
    q = np.exp([_log_sphere(k, d, sigma2) for k, d in zip(n, conv)])
    return (ach <= conv) & (np.abs(q - eps) <= INVERT_REL_TOL * eps)


# ---------------------------------------------------------------------------
# simulate

def _simulate_jobs(seed, quick):
    # 1e6 trials per lattice, as four calls of 250k with their own seeds.
    calls = [(name, s2) for name, s2 in SIM_SIGMA2.items() for _ in range(4)]
    seeds = np.random.SeedSequence(seed).generate_state(len(calls))
    trials = "5000" if quick else "250000"
    return [["simulate", "--lattice", name, "--trials", trials, "--sigma2", str(s2),
             "--seed", str(int(s))]
            for (name, s2), s in zip(calls, seeds)]


def _check_simulate(argv, text):
    header, rows = _table(text)
    rec = dict(zip(header, rows[0]))
    n, sigma2, trials = int(rec["n"]), float(rec["sigma2"]), int(rec["trials"])
    if rec["lattice"].startswith("Z"):
        q = special.ndtr(-1.0 / (2.0 * math.sqrt(sigma2)))
        p = -math.expm1(n * math.log1p(-2.0 * q))
        return [abs(float(rec["p_hat"]) - p) <= Z8_SIGMAS * math.sqrt(p * (1.0 - p) / trials)]
    return [float(rec["ci_high"]) >= math.exp(_log_sphere(n, float(rec["delta"]), sigma2))]


# ---------------------------------------------------------------------------
# equiv

def _equiv_jobs(seed, quick):
    return [["equiv", "--n", str(k), "--r", r]
            for k in ((3, 5) if quick else range(2, 9)) for r in ("0.5", "1", "2")]


def _check_equiv(argv, text):
    return _columns(text, ("rel_discrepancy",))[0] <= EQUIV_TOL


WORKLOADS = {w.name: w for w in (
    Workload("bounds_sweep",
             "bound sweeps to n=1e4 reach the deep underflow tail and emit 5 MB of CSV; "
             "the only workload through asymptotics",
             False,
             ("cli", "bounds", "specfn", "asymptotics"),
             ["bounds", "--n", "1", "--nld", "-1.5"], _bounds_jobs, _check_bounds),
    Workload("invert_sweep",
             "bisection re-evaluates the bounds near x=a, where the incomplete gamma is "
             "slowest; the workload of every inversion change",
             False,
             ("cli", "dispersion", "bounds", "specfn"),
             ["invert", "--n", "2", "--eps", "0.01"], _invert_jobs, _check_invert),
    Workload("simulate",
             "Monte Carlo of Z8, A2, D4, E8 at 1e6 trials uses only lattices; "
             "bound and specfn changes should leave it unchanged",
             True,
             ("cli", "lattices"),
             ["simulate", "--lattice", "Z8", "--trials", "1"], _simulate_jobs, _check_simulate),
    Workload("equiv",
             "section integrals for n=2..8 are the only path through quadrature and the "
             "per-node scalar incomplete gamma; cost is very uneven in n",
             False,
             ("cli", "bounds", "quadrature", "specfn"),
             ["equiv", "--n", "3", "--r", "1"], _equiv_jobs, _check_equiv),
)}
