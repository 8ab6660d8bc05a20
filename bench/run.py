"""Benchmark of the icawgn CLI, end to end and layer by layer.

One run measures one workload in one process:

    python3 bench/run.py --workload invert_sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: set-up time in fresh
interpreters, the wall time of the workload's CLI calls in a warm process,
and peak resident memory.  With ``--trace 1`` it reports the
per-layer metrics from spans recorded around each layer's public functions,
the tracing overhead, and the incomplete-gamma kernel grid.  Both modes
check every output row against independent oracles and exit 1 if any fails.
The last line of stdout is one JSON object; the lines before it are the same
metrics as a table.  Names, units and bounds of the metrics live in
BENCHMARK.json at the repository root.

Times are calibrated.  On a shared machine the speed of a core swings by
half within seconds, so every timed call (one CLI call of about 0.1 s, or
one fresh interpreter) is followed by a fixed reference kernel, and its
time is rescaled by the kernel's nominal time over its time around the
call.  Times are thus seconds at the speed where the kernel takes its
nominal time; the uncalibrated medians are printed alongside.  Per-layer
times are not rescaled.

    python3 bench/run.py --all [--quick] [--seed N] [--append FILE --label TEXT]

runs every workload, untraced once and traced twice, one process each, and
checks that the exact counts repeat between the two traced processes.
``--quick`` shrinks every workload for a fast self-check.  ``--append``
adds the results as one entry to a JSON list (see bench/BENCH_baseline.json).
"""

import os

# One thread per run: BLAS and OpenMP pools would otherwise take both cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import functools
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_REPS = 3             # timed repetitions of the job, at least
MIN_TRACED_REPS = 2      # traced and untraced repetitions, at least
SETUP_REPEATS = 5        # fresh interpreters per set-up measurement
RNG_REPEATS = 3
REF_SECONDS = 0.003        # nominal time of the reference kernel
REF_SECONDS_NUMPY = 0.014  # ... and of the kernel with its numpy part

GRID_A = (5.0, 5e2, 5e4)
GRID_R = (0.5, 1.0, 2.0)

SETUP_CODE = "import sys, icawgn; from icawgn.cli import main; sys.exit(main(sys.argv[1:]))"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment(seed):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Calibrated timing

_Ref = collections.namedtuple("_Ref", "i x name")


def _reference_seconds(numpy_part):
    """Time a fixed kernel of interpreter-bound work (calls, small objects,
    dicts; ~3 ms), plus numpy work on a 4 MB array (~10 ms) if asked."""
    import numpy as np
    t = time.perf_counter()
    acc = []
    for i in range(1, 3000):
        p = _Ref(i, 0.5 * i, str(i))
        d = {"x": p.x, "lg": math.lgamma(p.x + 1.0)}
        acc.append(d["lg"] - math.log(p.i) + len(p.name))
    acc.sort()
    if numpy_part:
        rng = np.random.default_rng(0)
        np.count_nonzero(np.rint(rng.standard_normal((65536, 8)) * 0.2))
    return time.perf_counter() - t


class CalibratedClock:
    """Times calls, each rescaled by the reference kernel's time around it.

    The kernel should slow down as the measured code does: interpreter work
    for the Python-bound workloads, interpreter plus numpy work for the
    numpy-bound one (each choice measured to spread least across runs).
    """

    def __init__(self, numpy_part):
        self._numpy_part = numpy_part
        self._nominal = REF_SECONDS_NUMPY if numpy_part else REF_SECONDS
        self._last = _reference_seconds(numpy_part)

    def time(self, fn, *args):
        """Return (raw seconds, calibrated seconds, fn's result)."""
        t = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t
        after = _reference_seconds(self._numpy_part)
        scaled = raw * self._nominal / math.sqrt(self._last * after)
        self._last = after
        return raw, scaled, out


# ---------------------------------------------------------------------------
# Running the CLI in-process

def _call(main, argv):
    """Run one CLI call with stdout captured; return (output, exit code)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return buf.getvalue(), code


def _job(clock, main, jobs):
    """Run every call of a job once: (outputs, codes, raw s, calibrated s per call)."""
    outputs, codes, raw, scaled = [], [], [], []
    for argv in jobs:
        r, c, (out, code) = clock.time(_call, main, argv)
        outputs.append(out)
        codes.append(code)
        raw.append(r)
        scaled.append(c)
    return outputs, codes, raw, scaled


def _job_seconds(reps):
    """Calibrated job time from (raw, calibrated) per-call seconds of each
    repetition: the sum over calls of each call's median."""
    return sum(_median(per_call) for per_call in zip(*(scaled for _, scaled in reps)))


def _raw_seconds(reps):
    return _median([sum(raw) for raw, _ in reps])


def _measure_setup(clock, setup_argv, repeats):
    """Median calibrated time of a fresh interpreter importing icawgn and
    running one minimal call: what every CLI invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, *setup_argv]
    spawn = functools.partial(subprocess.run, cmd, cwd=ROOT, env=env, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    times = [clock.time(spawn) for _ in range(repeats)]
    return _median([t[1] for t in times]), _median([t[0] for t in times])


# ---------------------------------------------------------------------------
# Per-layer pieces of the traced run

def _per_call_us(fn, *args):
    t = time.perf_counter()
    fn(*args)
    n = max(1, int(4e-3 / max(time.perf_counter() - t, 1e-7)))
    batches = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(n):
            fn(*args)
        batches.append((time.perf_counter() - t) / n)
    return _median(batches) * 1e6


def _specfn_grid():
    """µs per log_reg_gamma_* call on a grid of a and x/a, and the worst
    relative error of the value against mpmath at the same points."""
    import mpmath
    from icawgn import specfn

    mpmath.mp.dps = 40
    m, worst = {}, 0.0
    for a in GRID_A:
        for r in GRID_R:
            x = r * a
            m[f"specfn.upper_us.a{a:g}_r{r:g}"] = _per_call_us(specfn.log_reg_gamma_upper, a, x)
            m[f"specfn.lower_us.a{a:g}_r{r:g}"] = _per_call_us(specfn.log_reg_gamma_lower, a, x)
            # Evaluate the smaller tail directly; mpmath's series for the
            # larger one does not converge at a = 5e4.
            if x < a:
                low = mpmath.gammainc(a, 0, x, regularized=True)
                up = 1 - low
            else:
                up = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                low = 1 - up
            for got, ref in ((specfn.log_reg_gamma_upper(a, x), up),
                             (specfn.log_reg_gamma_lower(a, x), low)):
                worst = max(worst, abs(math.expm1(got.log_value - float(mpmath.log(ref)))))
    m["specfn.max_rel_err"] = worst
    return m


def _lattice_metrics(reps, names):
    """ns per trial, errors and the derived RNG / decode split per lattice,
    from the lattice part of each traced repetition."""
    from tracing import rng_seconds

    m = {}
    total_trials = total_rng = total_decode = 0.0
    cp_us = [s * 1e6 for rep in reps for s in rep["clopper_pearson_s"]]
    for name in names:
        per_rep = [[sim for sim in rep["simulations"] if sim["lattice"] == name] for rep in reps]
        sims = per_rep[0]
        if not sims:
            for key in ("ns_per_trial", "errors", "decode_ns_per_row"):
                m[f"lattices.{name}.{key}"] = 0
            continue
        trials = sum(sim["trials"] for sim in sims)
        seconds = _median([sum(sim["seconds"] for sim in rep) for rep in per_rep])
        rng = _median([sum(rng_seconds(sim) for sim in sims) for _ in range(RNG_REPEATS)])
        decode = seconds - rng - len(sims) * _median(cp_us) * 1e-6
        m[f"lattices.{name}.ns_per_trial"] = seconds / trials * 1e9
        m[f"lattices.{name}.errors"] = sum(sim["errors"] for sim in sims)
        m[f"lattices.{name}.decode_ns_per_row"] = decode / trials * 1e9
        total_trials += trials
        total_rng += rng
        total_decode += decode
    m["lattices.rng_ns_per_row"] = total_rng / total_trials * 1e9 if total_trials else 0.0
    m["lattices.decode_ns_per_row"] = total_decode / total_trials * 1e9 if total_trials else 0.0
    m["lattices.clopper_pearson_us"] = _median(cp_us)
    return m


EXACT_COUNTS = ("specfn.calls", "bounds.evals", "dispersion.iterations_mean",
                "quadrature.integrand_evals")


def _traced_summary(wl, layer_reps, plain, traced):
    """Per-layer metrics from the traced repetitions: (metrics, failures, notes).

    Times are medians over repetitions; counts must repeat exactly, and each
    layer the workload goes through must have recorded a span."""
    from workloads import SIM_SIGMA2

    counts = [rep for rep, _ in layer_reps]
    first = counts[0]
    metrics = {key: _median([rep[key] for rep in counts])
               if key.endswith((".self_s", "_p50", "_p99")) else first[key] for key in first}
    msgs = []
    errors = [[sim["errors"] for sim in lat["simulations"]] for _, lat in layer_reps]
    repeated = {key: [rep[key] for rep in counts] for key in EXACT_COUNTS}
    repeated["lattice errors"] = errors
    for key, values in repeated.items():
        if any(v != values[0] for v in values):
            msgs.append(f"{key} differs between traced repetitions: {values}")
    for layer in wl.layers:
        if first[f"{layer}.spans"] == 0:
            msgs.append(f"layer {layer} recorded no span on {wl.name}")
    metrics.update(_lattice_metrics([lat for _, lat in layer_reps], list(SIM_SIGMA2)))
    metrics["trace.overhead_frac"] = _job_seconds(traced) / _job_seconds(plain) - 1.0
    metrics.update(_specfn_grid())
    notes = [f"job seconds untraced {_job_seconds(plain):.4f}, traced "
             f"{_job_seconds(traced):.4f} (calibrated); {len(plain)} repetitions each"]
    return metrics, msgs, notes


# ---------------------------------------------------------------------------
# One run

def run_once(wl, seed, seconds, trace, quick):
    """Measure one workload; return (result dict, table lines)."""
    from tracing import Tracer, layer_metrics
    from workloads import check

    jobs = wl.jobs(seed, quick)
    clock = CalibratedClock(wl.numpy_bound)
    metrics, notes, msgs = {}, [], []
    if not trace:
        repeats = 1 if quick else SETUP_REPEATS
        metrics["setup_s"], setup_raw = _measure_setup(clock, wl.setup_argv, repeats)
        notes.append(f"setup_s: median of {repeats} fresh interpreters, "
                     f"uncalibrated {setup_raw:.4f} s")

    from icawgn import cli
    _call(cli.main, wl.setup_argv)   # lazy imports and first-call caches

    ref = None
    mismatched = 0
    plain, traced, layer_reps = [], [], []   # (raw, calibrated) seconds per call

    def run(main):
        nonlocal ref, mismatched
        outputs, codes, raw, scaled = _job(clock, main, jobs)
        if ref is None:
            ref = (outputs, codes)
        elif (outputs, codes) != ref:
            mismatched += 1
        return outputs, (raw, scaled)

    start = time.perf_counter()
    while True:
        plain.append(run(cli.main)[1])
        if trace:
            tracer = Tracer()
            with tracer.installed():
                outputs, times = run(tracer.wrap(cli.main, "cli", "main"))
            traced.append(times)
            layer_reps.append(layer_metrics(tracer))
            layer_reps[-1][0]["cli.bytes_out"] = sum(len(out.encode()) for out in outputs)
        enough = len(plain) >= (MIN_TRACED_REPS if trace else MIN_REPS)
        if enough and time.perf_counter() - start >= seconds:
            break
    if not trace:
        metrics["wall_s"] = _job_seconds(plain)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes.append(f"wall_s: {len(plain)} repetitions of {len(jobs)} CLI calls, "
                     f"uncalibrated median {_raw_seconds(plain):.4f} s")

    n_reps = len(plain) + len(traced)
    attempted, failed, found = check(wl, jobs, *ref)
    msgs += found
    attempted_total = attempted * n_reps
    failed_total = failed * n_reps + mismatched * attempted
    if mismatched:
        msgs.append(f"{mismatched} repetitions printed other output than the first")

    if trace:
        layer, found, more = _traced_summary(wl, layer_reps, plain, traced)
        metrics.update(layer)
        msgs += found
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{wl.name}.npz"
        tracer.save(spans)
        notes += more + [f"spans of the last traced repetition: {spans}"]
    notes.append(f"failed_frac {failed_total / attempted_total:.6g} "
                 f"({failed_total} of {attempted_total} operations)")

    declared = _spec()["per_layer" if trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        msgs.append(f"metrics not measured: {missing}")
    out_metrics = {d["name"]: {"value": metrics.get(d["name"], 0), "unit": d["unit"]}
                   for d in declared}
    result = {"correct": not msgs and failed_total == 0, "attempted": attempted_total,
              "failed": failed_total, "metrics": out_metrics}
    lines = [f"# {wl.name} trace={trace} " + json.dumps(_environment(seed))]
    lines += [f"{name:<40} {m['value']:>16.8g} {m['unit']}" for name, m in out_metrics.items()]
    lines += [f"# {note}" for note in notes + msgs]
    return result, lines


# ---------------------------------------------------------------------------
# All workloads

def _spawn(workload, seed, seconds, trace, quick):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def run_all(seed, seconds, quick, append, label):
    from workloads import SIM_SIGMA2, WORKLOADS

    exact = EXACT_COUNTS + tuple(f"lattices.{name}.errors" for name in SIM_SIGMA2)
    ok = True
    entry = {"label": label, "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
             "env": _environment(seed), "seconds": seconds, "quick": quick, "workloads": {}}
    for name in WORKLOADS:
        runs = [_spawn(name, seed, seconds, trace, quick) for trace in (0, 1, 1)]
        ok &= all(code == 0 and res is not None and res["correct"] for code, res in runs)
        if all(res is not None for _, res in runs):
            a, b = runs[1][1]["metrics"], runs[2][1]["metrics"]
            differ = [k for k in exact if a[k]["value"] != b[k]["value"]]
            if differ:
                ok = False
                print(f"# {name}: exact counts differ between two traced processes: {differ}")
        entry["workloads"][name] = {"trace0": runs[0][1], "trace1": runs[1][1]}
    if append:
        path = Path(append)
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    print(f"# all workloads: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for a self-check")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--append", help="with --all: JSON list file to append the results to")
    parser.add_argument("--label", default="", help="with --append: label of the entry")
    args = parser.parse_args(argv)

    if not (SRC / "icawgn" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no icawgn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds, args.quick, args.append, args.label)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, lines = run_once(WORKLOADS[args.workload], args.seed, args.seconds,
                             args.trace, args.quick)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
