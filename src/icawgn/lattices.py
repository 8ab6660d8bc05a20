"""Classic lattices with exact nearest-point decoders and a seeded Monte Carlo
harness for their error probability over unconstrained AWGN.

``decode`` follows the classic constructions (Conway & Sloane):
coordinate-wise rounding for the integer lattice, the even-sum rounding
correction for D_n, the two-coset D_8 decomposition for E_8, and the two
rectangular sublattices of the hexagonal lattice.  By the geometric
uniformity of lattices every Voronoi cell is congruent, so the simulation
transmits the zero point only and still estimates the average error
probability exactly.  It decodes nothing: a row is an error iff the gauge
of the zero point's Voronoi cell, taken in closed form over the minimal
vectors, exceeds the scale.  Noise shorter than the lattice's packing
radius lies strictly inside the zero point's Voronoi cell, so the
simulation draws only the noise rows outside that ball: their number is
binomial with the exact chance q of leaving it, and their squared norms
come from the chi-square conditioned on exceeding the packing radius, an
exact finite mixture of shifted Gamma draws.  At typical simulation noise
levels q is a few percent.  Counts, Gammas, tail
uniforms and directions come from four generators, so seeded counts repeat
exactly for any chunk size; they differ from those of releases that drew a
norm for every row, or every noise coordinate, while their distribution is
the same.
"""

import dataclasses
import functools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from .dispersion import gap_db, nld_eps_converse
from .specfn import _check_int, _check_positive, _check_prob, _check_seed, _check_sigma2

__all__ = [
    "LatticeSpec",
    "SimEstimate",
    "ScaleSearchResult",
    "UnsupportedLatticeError",
    "RESERVED_NAMES",
    "builtin",
    "decode",
    "clopper_pearson",
    "simulate_error_prob",
    "find_scale_for_error",
]

_SQRT3 = math.sqrt(3.0)

# Named in the comparison literature but decoded externally; kept reserved so
# result files cannot silently confuse them with supported constructions.
RESERVED_NAMES = frozenset({"BW16", "Leech24", "S127", "LDLC"})

_CHUNK_SCALARS = 1 << 18  # 2 MB of noise per chunk

# decode's largest coordinate: every candidate's coordinate sum is then exact.
_DECODE_MAX = 2.0 ** 50

# Below this t, e^-t is a normal double and the mixture weights of
# _outside_noise are running products; above it they are summed as logs.
_T_LINEAR = -math.log(sys.float_info.min)


class UnsupportedLatticeError(ValueError):
    """A reserved or non-builtin lattice without an exact decoder."""


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """A named lattice: row-basis generator, positive scale multiplier.

    The constellation is {scale * (c @ generator) : c integer row vector};
    its NLD is -(1/n) ln|det generator| - ln scale.  ``name`` must be a
    str, ``dim`` an integer, ``generator`` finite and nonsingular, and
    ``scale`` finite and > 0.
    """

    name: str
    dim: int
    generator: np.ndarray = field(repr=False)
    scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"lattice name must be a str, got {self.name!r}")
        _check_int(self.dim)
        gen = np.asarray(self.generator, dtype=float)
        object.__setattr__(self, "generator", gen)
        if gen.shape != (self.dim, self.dim):
            raise ValueError(f"generator must be {self.dim}x{self.dim}, got {gen.shape}")
        if not (np.isfinite(gen).all() and abs(np.linalg.det(gen)) > 0.0):
            raise ValueError("generator must be finite and nonsingular")
        _check_positive(self.scale, "scale")

    @property
    def log_det(self) -> float:
        return float(np.linalg.slogdet(self.generator)[1])

    @property
    def nld(self) -> float:
        """Normalized log density of the scaled lattice, nats per dimension."""
        return 0.0 - self.log_det / self.dim - math.log(self.scale)


class DecodedPoint(NamedTuple):
    coeffs: np.ndarray
    point: np.ndarray


class SimEstimate(NamedTuple):
    """Monte Carlo error-probability estimate with a two-sided 95%
    Clopper-Pearson interval and full reproducibility metadata."""

    trials: int
    errors: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: object

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)

    def to_record(self, spec: LatticeSpec, sigma2: float) -> dict:
        return {"lattice": spec.name, "n": spec.dim, "delta": spec.nld, "sigma2": sigma2,
                **self._asdict()}


class ScaleSearchResult(NamedTuple):
    """Outcome of the scale search: the scale, the NLD and dB gap it implies,
    and a fresh estimate at that scale."""

    scale: float
    delta: float
    gap_db: float
    estimate: SimEstimate


_ZN_RE = re.compile(r"^Z(?:n\((\d+)\)|(\d+))$")
# The largest k of a builtin Z^k: its identity generator takes 8 MB, and the
# spec's determinant an O(k^3) factorization, before any trial is drawn.
_MAX_ZN_DIM = 1024


def builtin(name: str) -> LatticeSpec:
    """The standard generator for a named lattice.

    Accepts Z1, Zn(k) or Zk for k up to 1024, A2 (hexagonal), D4
    (checkerboard), E8 (even coordinate system).  Reserved comparison
    lattices raise :class:`UnsupportedLatticeError`; unknown names raise
    ValueError.
    """
    if name in RESERVED_NAMES:
        raise UnsupportedLatticeError(
            f"{name} is name-reserved but has no exact decoder here")
    m = _ZN_RE.match(name)
    if m:
        k = int(m.group(1) or m.group(2))
        _check_int(k, 1, _MAX_ZN_DIM)
        return LatticeSpec(name=f"Z{k}", dim=k, generator=np.eye(k))
    if name == "A2":
        return LatticeSpec(name="A2", dim=2,
                           generator=np.array([[1.0, 0.0], [0.5, _SQRT3 / 2.0]]))
    if name == "D4":
        return LatticeSpec(name="D4", dim=4, generator=np.array([
            [-1.0, -1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
        ]))
    if name == "E8":
        half = np.full(8, 0.5)
        gen = np.zeros((8, 8))
        gen[0, 0] = 2.0
        for i in range(1, 7):
            gen[i, i - 1] = -1.0
            gen[i, i] = 1.0
        gen[7] = half
        return LatticeSpec(name="E8", dim=8, generator=gen)
    raise ValueError(f"unknown lattice name {name!r}")


def _family(spec: LatticeSpec) -> str:
    # The decoder is picked by name, so the spec must be that builtin at some scale.
    try:
        builtin_gen = np.array_equal(builtin(spec.name).generator, spec.generator)
    except ValueError:
        builtin_gen = False
    if not builtin_gen:
        raise UnsupportedLatticeError(
            f"no exact decoder for lattice {spec.name!r}: only the builtins, "
            f"with their own generators, are decoded")
    return "zn" if _ZN_RE.match(spec.name) else spec.name.lower()


def _round_half_down(x: np.ndarray) -> np.ndarray:
    # Nearest integer; exact halves go to the smaller integer, which is the
    # lexicographically smallest tied coefficient vector for Z^n.
    return np.ceil(x - 0.5)


def _dn_candidates(y: np.ndarray) -> list[np.ndarray]:
    """Even-sum integer vectors that can be nearest to y: the rounded vector
    plus every single-coordinate flip toward the second-nearest integer."""
    f = _round_half_down(y)
    cands = []
    if int(f.sum()) % 2 == 0:
        cands.append(f)
    for k in range(len(y)):
        resid = y[k] - f[k]
        steps = (1.0, -1.0) if resid == 0.0 else ((1.0,) if resid > 0 else (-1.0,))
        for s in steps:
            g = f.copy()
            g[k] += s
            if int(g.sum()) % 2 == 0:
                cands.append(g)
    return cands


def _candidate_points(family: str, y: np.ndarray) -> np.ndarray:
    if family == "zn":
        return _round_half_down(y)[None, :]
    if family == "d4":
        return np.array(_dn_candidates(y))
    if family == "e8":
        ints = _dn_candidates(y)
        halves = [c + 0.5 for c in _dn_candidates(y - 0.5)]
        return np.array(ints + halves)
    out = []                                    # a2, the last family
    for di in (0.0, 0.5):
        dj = di * _SQRT3
        for i in (math.floor(y[0] - di), math.ceil(y[0] - di)):
            for j in (math.floor((y[1] - dj) / _SQRT3), math.ceil((y[1] - dj) / _SQRT3)):
                out.append(np.array([i + di, j * _SQRT3 + dj]))
    return np.array(out)


def decode(spec: LatticeSpec, y) -> DecodedPoint:
    """Exact nearest lattice point to y, with its integer coefficient vector.

    Equidistant candidates are resolved toward the lexicographically
    smallest coefficient vector.  Every coordinate of y / scale must be
    finite and below 2^50 in magnitude, where sums of candidate coordinates
    are still exact integers.
    """
    fam = _family(spec)
    y = np.asarray(y, dtype=float)
    if y.shape != (spec.dim,):
        raise ValueError(f"input must have shape ({spec.dim},), got {y.shape}")
    base = y / spec.scale
    if not np.all(np.abs(base) < _DECODE_MAX):
        raise ValueError(f"input / scale must be finite and below 2^50 in magnitude, "
                         f"got {y.tolist()}")
    cands = _candidate_points(fam, base)
    d2 = ((cands - base) ** 2).sum(axis=1)
    tied = cands[d2 <= d2.min() + 1e-12]
    ginv = np.linalg.inv(spec.generator)
    coeff_rows = np.rint(tied @ ginv).astype(np.int64)
    best = min(range(len(tied)), key=lambda i: tuple(coeff_rows[i]))
    coeffs = coeff_rows[best]
    point = (coeffs @ spec.generator) * spec.scale
    return DecodedPoint(coeffs=coeffs, point=point)


# ---------------------------------------------------------------------------
# Vectorized error counting (zero point transmitted; ties have probability 0).
# Rows inside the packing ball are never errors, so only the rest are tested.
# For Z^n, A2, D4 and E8 the Voronoi-relevant vectors are the minimal vectors
# v, so the zero point is nearest to z iff <z, v> <= |v|^2 / 2 for every one
# of them (Conway & Sloane, SPLAG ch. 21).  The batch path takes the largest
# 2 <z, v> / |v|^2, the cell's gauge, in closed form per family; ``decode``
# keeps the constructions.

# Squared packing radius rho^2 of each family at scale 1: a quarter of the
# minimum squared norm (1 for Z^n and A2, 2 for D4 and E8).
_PACKING_RADIUS2 = {"zn": 0.25, "a2": 0.25, "d4": 0.5, "e8": 0.5}


def _gauge(family: str, z: np.ndarray) -> np.ndarray:
    """The Minkowski gauge of the zero point's Voronoi cell at each row of z:
    the largest 2 <z, v> / |v|^2 over the minimal vectors v.  A row is an
    error of the lattice at scale c iff its gauge exceeds c.  With a = |z|
    sorted per row, the largest <z, v> over each family's v is taken in
    closed form.  An infinite row's gauge is inf.  Any rows may be passed:
    one inside the packing ball has <z, v> <= |z| |v| < |v|^2 / 2, so a
    gauge below 1."""
    a = np.abs(z)
    if family == "zn":                            # +-e_i
        # A fold over the columns: a.max(axis=1) is slower on narrow rows.
        return 2.0 * functools.reduce(np.maximum, a.T)
    if family == "a2":                            # (+-1, 0), (+-1/2, +-sqrt(3)/2)
        return np.maximum(2.0 * a[:, 0], a[:, 0] + _SQRT3 * a[:, 1])
    a.sort(axis=1)
    g = a[:, -1] + a[:, -2]                       # +-e_i +- e_j
    if family == "e8":
        # (+-1/2)^8 with an even number of minus signs: with an odd number
        # of negative z_i the best one flips the sign of the smallest.  An
        # infinite row may give inf - inf, which fmax passes over.
        odd = np.count_nonzero(z < 0.0, axis=1) & 1
        with np.errstate(invalid="ignore"):
            g = np.fmax(g, 0.5 * a.sum(axis=1) - np.where(odd, a[:, 0], 0.0))
    return g


def clopper_pearson(errors: int, trials: int, confidence: float = 0.95):
    """Two-sided exact binomial (Clopper-Pearson) confidence interval.  The
    counts must be integers with 0 <= errors <= trials and 1 <= trials, and
    ``confidence`` must lie in (0, 1)."""
    _check_int(trials, name="trials")
    _check_int(errors, 0, trials, name="errors")
    _check_prob(confidence, "confidence")
    alpha = 1.0 - confidence
    lo = 0.0 if errors == 0 else float(_sp.betaincinv(errors, trials - errors + 1, alpha / 2.0))
    hi = 1.0 if errors == trials else float(_sp.betaincinv(errors + 1, trials - errors, 1.0 - alpha / 2.0))
    return lo, hi


def _tail_weights(dim: int, t: float) -> np.ndarray:
    """The mixture weights of Gamma(a) conditioned on exceeding t, a = dim/2.

    With a0 = a - ceil(a) + 1 and k = ceil(a) - 1, the recurrence
    Q(b + 1, t) = Q(b, t) + e^-t t^b / Gamma(b + 1) gives
    Q(a, t) = Q(a0, t) + sum_j e^-t t^(a0+j) / Gamma(a0+j+1), j = 0..k-1,
    and these k + 1 terms, in that order, are returned.  Their sum is
    Q(a, t).  While e^-t is a normal double the terms are e^-t times running
    products of t / (a0 + j), a few ulps each; past it they come from logs.
    """
    half = dim % 2
    steps = t / (np.arange(1, (dim + 1) // 2) - 0.5 * half)  # t / (a0 + j)
    if half and steps.size:
        steps[0] = 2.0 * math.sqrt(t / math.pi)               # t^(1/2) / Gamma(3/2)
    head = math.erfc(math.sqrt(t)) if half else math.exp(-t)
    if t < _T_LINEAR:
        terms = math.exp(-t) * np.cumprod(steps)
    else:
        terms = np.exp(np.cumsum(np.log(steps)) - t)
    return np.concatenate([[head], terms])


def _outside_noise(seq: np.random.SeedSequence, trials: int, dim: int, s: float,
                   rho2: float):
    """Yield, chunk by chunk, the rows of ``trials`` N(0, s^2 I_dim) draws
    with squared norm >= rho2, and none of the rows inside.

    Such a row's squared norm is 2 s^2 G with G ~ Gamma(a), a = dim/2,
    conditioned on G >= t = rho2 / 2 s^2, which happens with probability
    q = Q(a, t).  By the recurrence of ``_tail_weights`` that conditional law
    is a finite mixture, drawn without inversion or rejection.  Write G as
    Gamma(a0) followed by the k unit-rate arrivals of a Gamma(k).  With
    weight e^-t t^(a0+j) / Gamma(a0+j+1) the Gamma(a0) part and j arrivals
    fall below t, and the other k - j come after it: G = t + Gamma(k - j).
    With weight Q(a0, t), G = W + Gamma(k), where W ~ Gamma(a0) given W > t
    is t + Exp(1) when a0 = 1, and Z^2/2 for Z ~ N(0, 1) given
    Z < -sqrt(2 t) when a0 = 1/2.

    Four generators are spawned from ``seq``: the first draws the number of
    outside rows, M ~ Binomial(trials, q), and how many take each component
    (a multinomial, the Q(a0, t) one first); the second the Gammas; the
    third the uniforms of W when a0 = 1/2; the fourth dim normals per row,
    scaled onto its radius.  A Gaussian vector's norm and direction are
    independent, so these are distributed as the outside rows of a plain
    draw.  The M rows go in chunks of ``_CHUNK_SCALARS // dim``, taken in
    component order, and no stream depends on the chunk size.

    With rho2 the squared packing radius, skipping the rows inside is exact:
    if |z| < rho, every other lattice point x has |x| >= 2 rho, so
    |z - x| >= |x| - |z| >= 2 rho - |z| > |z| and the zero point is strictly
    nearest, with no tie to break.
    """
    two_s2 = 2.0 * s * s
    t = rho2 / two_s2 if two_s2 > 0.0 else math.inf
    if t == math.inf:       # s^2 below double range: no row leaves the ball
        return
    w = _tail_weights(dim, t)
    q = min(w.sum(), 1.0)
    if q == 0.0:
        return
    counts_rng, gammas, tails, dirs = (np.random.default_rng(c) for c in seq.spawn(4))
    counts = counts_rng.multinomial(counts_rng.binomial(trials, q), w / q)
    # Gamma shapes: k + 1 for t + Exp(1) + Gamma(k), then k - j.
    shapes = np.arange(len(w), 0, -1.0)
    half = dim % 2
    if half:
        shapes[0] -= 1.0                     # W + Gamma(k)
        log_tail = _sp.log_ndtr(-math.sqrt(2.0 * t))
    ends = np.cumsum(counts)
    chunk_rows = max(1, _CHUNK_SCALARS // dim)
    for lo in range(0, int(ends[-1]), chunk_rows):
        per = np.diff(np.clip(ends, lo, lo + chunk_rows), prepend=lo)
        g = gammas.standard_gamma(np.repeat(shapes, per))
        if half:
            u = np.log1p(-tails.random(per[0]))
            g[:per[0]] += 0.5 * _sp.ndtri_exp(u + log_tail) ** 2
            g[per[0]:] += t
        else:
            g += t
        g *= two_s2
        z = dirs.standard_normal((g.size, dim))
        z *= np.sqrt(g / np.einsum("ij,ij->i", z, z))[:, None]
        yield z


def simulate_error_prob(spec: LatticeSpec, sigma2: float, trials: int, seed) -> SimEstimate:
    """Estimate the lattice error probability over AWGN with variance sigma2.

    Draws Z ~ N(0, sigma2 I) and counts the rows whose gauge (``_gauge``)
    exceeds the scale.  Only the rows outside the packing ball are drawn,
    as many as a Binomial(trials, q) draw says, with norms from the
    conditional chi-square mixture and directions from four generators in
    all (``_outside_noise``), spawned from the first child of ``seed``; an
    identical seed reproduces the error count exactly regardless of
    chunking.  The error count has the distribution of a plain
    draw's, but seeded counts differ from releases that drew a norm for
    every row, or every coordinate.  ``trials`` must be an integer >= 1, and
    ``seed`` what ``np.random.SeedSequence`` takes, except a bool.
    """
    _check_int(trials, name="trials")
    _check_sigma2(sigma2)
    fam = _family(spec)
    s = math.sqrt(sigma2) / spec.scale
    errors = sum(int(np.count_nonzero(_gauge(fam, z) > 1.0)) for z in _outside_noise(
        _check_seed(seed).spawn(1)[0], trials, spec.dim, s, _PACKING_RADIUS2[fam]))
    lo, hi = clopper_pearson(errors, trials)
    return SimEstimate(trials=trials, errors=errors, p_hat=errors / trials,
                       ci_low=lo, ci_high=hi, seed=seed)


def find_scale_for_error(spec: LatticeSpec, eps: float, sigma2: float,
                         trials: int, seed) -> ScaleSearchResult:
    """The scale at which the lattice has error probability eps over noise
    variance sigma2, as an order statistic of one seeded draw.

    A noise row is an error at scale c iff its gauge exceeds c, so over
    ``trials`` rows the share of errors falls below eps at the k-th largest
    gauge, k = ceil(eps * trials).  By the sphere bound no constellation of
    the lattice's dimension and density reaches eps below the converse's
    NLD, so the scale is at least floor = e^(-log_det/n - delta_converse).
    The rows are drawn in units of floor, and only those outside the
    packing ball, the only ones that can be errors at a scale >= floor; the
    k largest gauges are kept as they arrive.  The scale is floor times the
    k-th largest, or floor when that is below 1 or fewer than k rows were
    drawn.  It is then estimated afresh with ``trials`` trials.

    ``trials`` must be an integer >= 1.  The draw is seeded with
    [entropy, 0] and the estimate with [entropy, 1], where entropy is the
    seed's, drawn once for a None seed.
    """
    _check_prob(eps)
    _check_int(trials, name="trials")
    _check_sigma2(sigma2)
    entropy = _check_seed(seed).entropy
    fam = _family(spec)
    floor = math.exp(-spec.log_det / spec.dim - nld_eps_converse(spec.dim, eps, sigma2).delta)
    k = math.ceil(eps * trials)
    top = np.empty(0)
    for z in _outside_noise(np.random.SeedSequence([entropy, 0]), trials, spec.dim,
                            math.sqrt(sigma2) / floor, _PACKING_RADIUS2[fam]):
        top = np.concatenate([top, _gauge(fam, z)])
        if top.size > k:
            top = np.partition(top, top.size - k)[-k:]
    scale = floor * max(1.0, float(top.min())) if top.size == k else floor
    scaled = dataclasses.replace(spec, scale=scale)
    return ScaleSearchResult(scale=scaled.scale, delta=scaled.nld,
                             gap_db=gap_db(scaled.nld, sigma2),
                             estimate=simulate_error_prob(scaled, sigma2, trials, [entropy, 1]))
