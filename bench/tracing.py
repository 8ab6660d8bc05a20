"""Span tracing of the icawgn layers, done from outside the package.

Each layer's public functions are wrapped at the name their caller looks
up (``icawgn.bounds.log_reg_gamma_upper`` is the incomplete gamma as
``bounds`` sees it).  A span records its name, start, end, parent span and
a few flags read off the arguments and result; spans stay in memory and are
turned into per-layer metrics, and written to disk, when the run ends.

A layer's self time is the time inside its spans that no child span
covers.  A layer's calls are the spans whose parent belongs to another
layer, so nested calls inside one layer are counted once.
"""

import importlib
import math
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("specfn", "bounds", "asymptotics", "dispersion", "quadrature", "lattices", "cli")

# Span flags.
RAISED = 1
SINGULAR = 2      # raised AsymptoticSingularity
CLAMPED = 4       # bound value above 1
BULK = 8          # incomplete gamma with |x/a - 1| < 0.1
UNDERFLOW = 16    # incomplete gamma whose log value is below ln(DBL_MIN)

_TINY = 2.2e-308
_LN_TINY = math.log(_TINY)

BOUND_FNS = ("sphere_bound", "ml_bound", "typicality_bound", "poltyrev_ml_bound")
INVERSION_FNS = ("nld_eps_converse", "nld_eps_achievable")


def _gamma_flags(args, out, log_domain):
    a, x = args[0], args[1]
    flag = BULK if abs(x / a - 1.0) < 0.1 else 0
    tiny = (out.is_zero or out.log_value < _LN_TINY) if log_domain else out < _TINY
    return (flag | UNDERFLOW) if tiny else flag, None


def _log_gamma_flags(args, kwargs, out):
    return _gamma_flags(args, out, True)


def _lin_gamma_flags(args, kwargs, out):
    return _gamma_flags(args, out, False)


def _bound_flags(args, kwargs, out):
    return (CLAMPED if out.clamped else 0), None


def _inversion_note(args, kwargs, out):
    return 0, out.iterations


def _simulation_note(args, kwargs, out):
    spec, sigma2, trials = args[:3]
    return 0, {"lattice": spec.name, "dim": spec.dim, "scale": spec.scale,
               "sigma2": sigma2, "trials": trials, "errors": out.errors,
               "seed": kwargs.get("seed", args[3] if len(args) > 3 else None),
               "streams": kwargs.get("streams", args[4] if len(args) > 4 else 1)}


# (module the caller looks the name up in, name, layer of the callee, classifier)
SEAMS = (
    ("icawgn.bounds", "log_reg_gamma_upper", "specfn", _log_gamma_flags),
    ("icawgn.bounds", "log_reg_gamma_lower", "specfn", _log_gamma_flags),
    ("icawgn.bounds", "reg_gamma_upper", "specfn", _lin_gamma_flags),
    ("icawgn.bounds", "reg_gamma_lower", "specfn", _lin_gamma_flags),
    ("icawgn.bounds", "sphere_bound", "bounds", _bound_flags),
    ("icawgn.bounds", "ml_bound", "bounds", _bound_flags),
    ("icawgn.bounds", "typicality_bound", "bounds", _bound_flags),
    ("icawgn.bounds", "poltyrev_ml_bound", "bounds", _bound_flags),
    ("icawgn.bounds", "d_section_prob", "bounds", None),
    ("icawgn.bounds", "equivalence_sides", "bounds", None),
    ("icawgn.dispersion", "sphere_bound", "bounds", _bound_flags),
    ("icawgn.dispersion", "ml_bound", "bounds", _bound_flags),
    ("icawgn.asymptotics", "sphere_sandwich", "asymptotics", None),
    ("icawgn.asymptotics", "ml_sandwich", "asymptotics", None),
    ("icawgn.asymptotics", "sphere_asymptotic", "asymptotics", None),
    ("icawgn.asymptotics", "ml_asymptotic", "asymptotics", None),
    ("icawgn.asymptotics", "typicality_asymptotic", "asymptotics", None),
    ("icawgn.asymptotics", "ml_asymptotic_branch", "asymptotics", None),
    ("icawgn.dispersion", "nld_eps_converse", "dispersion", _inversion_note),
    ("icawgn.dispersion", "nld_eps_achievable", "dispersion", _inversion_note),
    ("icawgn.dispersion", "nld_eps_approx", "dispersion", None),
    ("icawgn.dispersion", "gap_db", "dispersion", None),
    ("icawgn.bounds", "integrate_adaptive", "quadrature", None),
    ("icawgn.dispersion", "integrate_adaptive", "quadrature", None),
    ("icawgn.lattices", "builtin", "lattices", None),
    ("icawgn.lattices", "simulate_error_prob", "lattices", _simulation_note),
    ("icawgn.lattices", "clopper_pearson", "lattices", None),
)


class Tracer:
    """In-memory span recorder.  One instance per traced job."""

    def __init__(self):
        self.names = []          # span id -> "layer:function"
        self.layer_of = []       # span id -> layer
        self._ids = {}
        self.sid = []            # per span: span id
        self.t0 = []
        self.t1 = []
        self.parent = []
        self.flag = []
        self.notes = {}          # span index -> note from the classifier
        self._stack = [-1]

    def _name_id(self, layer, name):
        key = f"{layer}:{name}"
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(layer)
        return self._ids[key]

    def wrap(self, fn, layer, name, classify=None):
        """Return fn wrapped so that every call records one span."""
        sid = self._name_id(layer, name)
        sids, t0s, t1s, parents, flags = self.sid, self.t0, self.t1, self.parent, self.flag
        notes, stack, clock = self.notes, self._stack, time.perf_counter_ns
        singular = importlib.import_module("icawgn.asymptotics").AsymptoticSingularity

        def traced(*args, **kwargs):
            i = len(sids)
            sids.append(sid)
            parents.append(stack[-1])
            flags.append(0)
            t1s.append(0)
            stack.append(i)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                flags[i] = RAISED | (SINGULAR if isinstance(exc, singular) else 0)
                raise
            finally:
                t1s[i] = clock()
                stack.pop()
            if classify is not None:
                flags[i], note = classify(args, kwargs, out)
                if note is not None:
                    notes[i] = note
            return out

        return traced

    def _wrap_quadrature(self, fn, caller_layer):
        # The integrand belongs to the layer that passed it in; wrapping it
        # keeps its time out of quadrature's self time and counts its calls.
        def integrate(f, *args, **kwargs):
            return fn(self.wrap(f, caller_layer, "integrand"), *args, **kwargs)
        return integrate

    @contextmanager
    def installed(self):
        """Wrap every seam for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, layer, classify in SEAMS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if layer == "quadrature":
                    fn = self._wrap_quadrature(fn, module_name.rsplit(".", 1)[1])
                setattr(module, attr, self.wrap(fn, layer, attr, classify))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def arrays(self):
        """The spans as numpy arrays (times in ns)."""
        return {
            "sid": np.asarray(self.sid, dtype=np.int32),
            "start_ns": np.asarray(self.t0, dtype=np.int64),
            "end_ns": np.asarray(self.t1, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "flag": np.asarray(self.flag, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _frac(part, whole):
    return float(part) / whole if whole else 0.0


def layer_metrics(tracer: Tracer):
    """Per-layer counts, self times and latency percentiles of one traced job,
    and the lattice simulations it ran (each note with its seconds) together
    with the seconds of each Clopper-Pearson interval."""
    a = tracer.arrays()
    sid, parent, flag = a["sid"], a["parent"], a["flag"]
    dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    layer_ids = {name: i for i, name in enumerate(LAYERS)}
    span_layer = np.asarray([layer_ids[l] for l in tracer.layer_of], dtype=np.int64)[sid] \
        if len(sid) else np.zeros(0, dtype=np.int64)
    parent_layer = np.where(has_parent, span_layer[np.where(has_parent, parent, 0)], -1)
    fn_names = [n.split(":", 1)[1] for n in tracer.names]

    def calls_to(*fns):
        return np.isin(sid, [i for i, f in enumerate(fn_names) if f in fns])

    def in_layer(name):
        return span_layer == layer_ids[name]

    def outer(name):
        return in_layer(name) & (parent_layer != layer_ids[name])

    m = {}
    for name in LAYERS:
        m[f"{name}.spans"] = int(np.count_nonzero(in_layer(name)))
        m[f"{name}.self_s"] = float(self_s[in_layer(name)].sum())

    g = outer("specfn")
    m["specfn.calls"] = int(np.count_nonzero(g))
    m["specfn.us_per_call_p50"] = _pct(dur[g], 50) * 1e6
    m["specfn.us_per_call_p99"] = _pct(dur[g], 99) * 1e6
    m["specfn.bulk_frac"] = _frac(np.count_nonzero(flag[g] & BULK), m["specfn.calls"])
    m["specfn.underflow_frac"] = _frac(np.count_nonzero(flag[g] & UNDERFLOW), m["specfn.calls"])

    is_bound = calls_to(*BOUND_FNS)
    b = outer("bounds") & is_bound
    m["bounds.evals"] = int(np.count_nonzero(b))
    m["bounds.us_per_eval_p50"] = _pct(dur[b], 50) * 1e6
    m["bounds.us_per_eval_p99"] = _pct(dur[b], 99) * 1e6
    m["bounds.clamped_frac"] = _frac(np.count_nonzero(flag[b] & CLAMPED), m["bounds.evals"])
    m["bounds.d_section_calls"] = int(np.count_nonzero(in_layer("bounds") & calls_to("d_section_prob")))

    s = outer("asymptotics")
    m["asymptotics.calls"] = int(np.count_nonzero(s))
    m["asymptotics.singular_frac"] = _frac(np.count_nonzero(flag[s] & SINGULAR), m["asymptotics.calls"])

    inv_mask = in_layer("dispersion") & calls_to(*INVERSION_FNS)
    inv = np.flatnonzero(inv_mask)
    m["dispersion.inversions"] = int(inv.size)
    m["dispersion.ms_per_inversion_p50"] = _pct(dur[inv], 50) * 1e3
    m["dispersion.ms_per_inversion_p99"] = _pct(dur[inv], 99) * 1e3
    iters = [tracer.notes[i] for i in inv]
    m["dispersion.iterations_mean"] = float(np.mean(iters)) if iters else 0.0
    under_inv = is_bound & in_layer("bounds") & has_parent & inv_mask[np.where(has_parent, parent, 0)]
    m["dispersion.bound_evals_per_inversion"] = _frac(np.count_nonzero(under_inv), inv.size)

    m["quadrature.calls"] = int(np.count_nonzero(outer("quadrature")))
    m["quadrature.integrand_evals"] = int(np.count_nonzero(calls_to("integrand")))

    sims = [dict(tracer.notes[i], seconds=float(dur[i]))
            for i in np.flatnonzero(calls_to("simulate_error_prob"))]
    return m, {"simulations": sims, "clopper_pearson_s": dur[calls_to("clopper_pearson")].tolist()}


def rng_seconds(note):
    """Time the noise draws of one simulate_error_prob call, replayed here.

    ``lattices`` has no seam between noise generation and decoding, so the
    benchmark repeats the same seeded draws, with the same chunk shape, and
    times them.  Decode time is derived as the rest of the simulation.
    """
    lattices = importlib.import_module("icawgn.lattices")
    rows = max(1, getattr(lattices, "_CHUNK_SCALARS", 1 << 21) // note["dim"])
    sigma = math.sqrt(note["sigma2"])
    children = np.random.SeedSequence(note["seed"]).spawn(note["streams"])
    per, extra = divmod(note["trials"], note["streams"])
    t = time.perf_counter()
    for i, child in enumerate(children):
        todo = per + (1 if i < extra else 0)
        rng = np.random.default_rng(child)
        while todo > 0:
            m = min(rows, todo)
            rng.standard_normal((m, note["dim"])) * (sigma / note["scale"])
            todo -= m
    return time.perf_counter() - t
