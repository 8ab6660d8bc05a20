import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from icawgn.bounds import ChannelPoint, integrate_adaptive, sphere_bound
from icawgn.dispersion import (gap_db, nld_eps_achievable, nld_eps_converse,
                               normalized_error_prob)
from icawgn import lattices
from icawgn.lattices import (
    _FAMILIES,
    LatticeSpec,
    _gauge,
    _outside_noise,
    _tail_weights,
    builtin,
    clopper_pearson,
    decode,
    find_scale_for_error,
    simulate_error_prob,
)
from icawgn.specfn import q_func, q_func_inv

SQRT3 = math.sqrt(3.0)


def _coeff_box(dim: int, reach: int) -> np.ndarray:
    """Every integer coefficient vector in [-reach, reach]^dim, one per row."""
    grids = np.meshgrid(*[np.arange(-reach, reach + 1)] * dim, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _brute_force_min_dist2(spec: LatticeSpec, y: np.ndarray, reach: int = 3) -> float:
    """Nearest-point distance by exhaustive coefficient enumeration around the
    real-valued solve; `reach` exceeds the lattice covering radius mapped into
    coefficient space for every builtin."""
    ginv = np.linalg.inv(spec.generator)
    c0 = np.rint((y / spec.scale) @ ginv).astype(int)
    pts = (c0 + _coeff_box(spec.dim, reach)) @ spec.generator * spec.scale
    return float(((pts - y) ** 2).sum(axis=1).min())


_CORNERS8 = np.stack([g.ravel() for g in np.meshgrid(*[(0, 1)] * 8, indexing="ij")], axis=1)


def _e8_bf_min_dist2(y: np.ndarray) -> float:
    """E8 nearest-point distance over the two-coset candidate set: for generic
    (non-half-integer) inputs every coordinate of the nearest point in each
    D8 coset is the floor or ceil of the input, so 2 * 2^8 candidates with the
    even-sum filter are exhaustive."""
    best = np.inf
    for shift in (0.0, 0.5):
        pts = np.floor(y - shift) + _CORNERS8 + shift
        valid = np.rint(pts.sum(axis=1)).astype(int) % 2 == 0
        if valid.any():
            best = min(best, float(((pts[valid] - y) ** 2).sum(axis=1).min()))
    return best


class TestBuiltins:
    def test_integer_lattices(self):
        for name, k in (("Z1", 1), ("Z4", 4), ("Zn(4)", 4), ("Z16", 16), ("Z1024", 1024)):
            spec = builtin(name)
            assert spec == LatticeSpec(f"Z{k}", 1.0) and spec.dim == k
            assert spec.nld == pytest.approx(0.0, abs=1e-14)
            assert np.array_equal(spec.generator, np.eye(k))

    def test_a2_density(self):
        spec = builtin("A2")
        # det = sqrt(3)/2, so the NLD is -(1/2) ln(sqrt(3)/2) = +0.0719205
        assert abs(np.linalg.det(spec.generator)) == pytest.approx(SQRT3 / 2.0, rel=1e-14)
        assert spec.nld == pytest.approx(-0.5 * math.log(SQRT3 / 2.0), rel=1e-13)
        assert spec.nld == pytest.approx(0.0719205181, abs=1e-9)

    def test_d4_density(self):
        spec = builtin("D4")
        assert abs(np.linalg.det(spec.generator)) == pytest.approx(2.0, rel=1e-12)
        assert spec.nld == pytest.approx(-0.25 * math.log(2.0), rel=1e-12)

    def test_e8_determinant_oracle(self):
        spec = builtin("E8")
        assert abs(np.linalg.det(spec.generator)) == pytest.approx(1.0, rel=1e-12)
        assert spec.nld == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("name", ["Z1", "Z8", "Zn(16)", "A2", "D4", "E8"])
    def test_closed_form_log_det_is_the_generators(self, name):
        # The generator, built apart from the closed forms, is their oracle.
        # It is shared, so it is read-only.
        spec = builtin(name)
        assert spec.log_det == float(np.linalg.slogdet(spec.generator)[1])
        assert not spec.generator.flags.writeable

    def test_reserved_names(self):
        # Named in the comparison literature, with no decoder here.
        for name in ("BW16", "Leech24", "S127", "LDLC"):
            with pytest.raises(ValueError, match="unknown lattice name"):
                builtin(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("K12")

    @pytest.mark.parametrize("k", [1025, 2**63 - 1])
    def test_integer_lattice_past_1024_rejected_before_allocating(self, k):
        # A noise row of Z^k is 8k bytes, and its mixture weights 4k.
        for name in (f"Z{k}", f"Zn({k})"):
            with pytest.raises(ValueError, match=r"n in 1\.\.1024"):
                builtin(name)

    def test_scaled_nld(self):
        spec = builtin("D4")._replace(scale=3.0)
        assert spec.nld == pytest.approx(-0.25 * math.log(2.0) - math.log(3.0), rel=1e-12)


class TestDecode:
    def test_z2_rounding(self):
        dp = decode(builtin("Z2"), [0.4, -1.6])
        assert np.array_equal(dp.point, [0.0, -2.0])
        assert np.array_equal(dp.coeffs, [0, -2])

    def test_zn_half_tie_prefers_smaller(self):
        dp = decode(builtin("Z2"), [0.5, -0.5])
        assert np.array_equal(dp.point, [0.0, -1.0])

    def test_d4_even_sum(self):
        rng = np.random.default_rng(3)
        spec = builtin("D4")
        for y in rng.uniform(-2.5, 2.5, size=(200, 4)):
            dp = decode(spec, y)
            assert int(dp.point.sum()) % 2 == 0

    def test_d4_spec_example_distance_optimal(self):
        spec = builtin("D4")
        y = np.array([0.9, 0.1, 0.1, 0.1])
        dp = decode(spec, y)
        got = ((dp.point - y) ** 2).sum()
        assert got == pytest.approx(_brute_force_min_dist2(spec, y), abs=1e-12)

    @pytest.mark.parametrize("name,reach,box", [
        ("Z3", 2, 2.5), ("A2", 3, 3.0), ("D4", 3, 2.5), ("E8", 0, 2.0)])
    def test_optimality_vs_brute_force(self, name, reach, box):
        spec = builtin(name)
        rng = np.random.default_rng(17)
        ys = rng.uniform(-box, box, size=(1000, spec.dim))
        for y in ys:
            dp = decode(spec, y)
            got = ((dp.point - y) ** 2).sum()
            best = _e8_bf_min_dist2(y) if name == "E8" else _brute_force_min_dist2(spec, y, reach)
            assert got <= best + 1e-9, (name, y.tolist())

    def test_returns_true_lattice_point(self):
        rng = np.random.default_rng(11)
        for name in ("Z4", "A2", "D4", "E8"):
            spec = builtin(name)._replace(scale=1.7)
            for y in rng.uniform(-4.0, 4.0, size=(50, spec.dim)):
                dp = decode(spec, y)
                rebuilt = (dp.coeffs @ spec.generator) * spec.scale
                assert np.max(np.abs(rebuilt - dp.point)) <= 1e-12

    def test_scaled_decode(self):
        spec = builtin("Z2")._replace(scale=2.0)
        dp = decode(spec, [0.9, 3.2])
        assert np.array_equal(dp.point, [0.0, 4.0])

    def test_scaled_builtins_keep_their_decoder(self):
        for name in ("Z4", "Zn(4)", "A2", "D4", "E8"):
            spec = builtin(name)._replace(scale=0.5)
            assert spec.family == builtin(name).family
            assert simulate_error_prob(spec, 0.01, 100, seed=1).trials == 100

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            decode(builtin("Z2"), [0.1, 0.2, 0.3])

    def test_documented_tie_rules(self):
        # Halves round down within a coset: (1/2, 1/2, 0, 0) is as near 0 as
        # (1, 1, 0, 0), whose coefficients (-1, 0, 0, 0) are smaller.
        assert np.array_equal(decode(builtin("D4"), [0.5, 0.5, 0.0, 0.0]).coeffs, [0] * 4)
        # An odd sum on an integer point steps its first coordinate down.
        assert np.array_equal(decode(builtin("D4"), [1.0, 0.0, 0.0, 0.0]).point, [0.0] * 4)
        assert np.array_equal(decode(builtin("D4"), [0.0, 0.0, 0.0, 1.0]).point,
                              [-1.0, 0.0, 0.0, 1.0])
        # Between cosets the smaller coefficients win: (1/4)^8 is as near 0
        # as (1/2)^8, whose coefficients are e_8, and -(1/4)^8 as near 0 as
        # -(1/2)^8, whose are -e_8.
        assert np.array_equal(decode(builtin("E8"), [0.25] * 8).coeffs, [0] * 8)
        assert np.array_equal(decode(builtin("E8"), [-0.25] * 8).coeffs, [0] * 7 + [-1])


def _base_basis(n: int, dn: bool) -> np.ndarray:
    """A row basis of D_n (2 e_1 and e_(i+1) - e_i) if dn, else of Z^n."""
    if not dn:
        return np.eye(n)
    basis = np.eye(n) - np.eye(n, k=-1)
    basis[0, 0] = 2.0
    return basis


class TestCosets:
    # Each family is the union over its shifts of shift + stretch * base.
    SPECS = ["Z1", "Z3", "Z8", "A2", "D4", "E8"]

    @pytest.mark.parametrize("name", SPECS)
    def test_shifts_and_stretched_base_are_lattice_vectors(self, name):
        spec = builtin(name)
        fam = _FAMILIES[spec.family]
        vecs = np.concatenate([_base_basis(spec.dim, fam.dn) * fam.stretch,
                               np.broadcast_to(fam.shifts, (len(fam.shifts), spec.dim))])
        coeffs = vecs @ np.linalg.inv(spec.generator)
        assert np.allclose(coeffs, np.rint(coeffs), rtol=0.0, atol=1e-12), coeffs

    @pytest.mark.parametrize("name", SPECS)
    def test_cosets_fill_the_lattice(self, name):
        # With the shifts in the lattice, the cosets are all of it iff their
        # density adds up: det base * prod stretch / #cosets = det generator.
        spec = builtin(name)
        fam = _FAMILIES[spec.family]
        det_base = 2.0 if fam.dn else 1.0
        stretch = np.broadcast_to(fam.stretch, spec.dim)
        got = math.log(det_base * np.prod(stretch) / len(fam.shifts))
        assert got == pytest.approx(spec.log_det, rel=1e-15, abs=1e-15)
        assert det_base == pytest.approx(abs(np.linalg.det(_base_basis(spec.dim, fam.dn))))

    @pytest.mark.parametrize("name, size", [("Z3", 729), ("A2", 1000), ("D4", 1000),
                                            ("E8", 1000)])
    def test_ties_on_quarter_grids_decode_to_a_nearest_point(self, name, size):
        # Quarter-integer points (A2's second coordinate on multiples of
        # sqrt(3)/4) are often equidistant from several lattice points.  No
        # minimal vector v moves the decoded point p nearer, which suffices
        # since these lattices' Voronoi-relevant vectors are the minimal ones;
        # outside E8, whose coefficient box is too small, p is also at the
        # brute-force minimum distance.
        spec = builtin(name)
        rng = np.random.default_rng(59)
        ys = (_coeff_box(3, 4) if name == "Z3"
              else rng.integers(-8, 9, size=(size, spec.dim))) / 4.0
        if name == "A2":
            ys[:, 1] *= SQRT3
        minimal = _e8_minimal_vectors() if name == "E8" else _minimal_box_vectors(spec, 2)
        ties = 0
        for y in ys:
            p = decode(spec, y).point
            got = float(((p - y) ** 2).sum())
            others = ((p + minimal - y) ** 2).sum(axis=1)
            assert got <= others.min() + 1e-12, y.tolist()
            if name != "E8":
                assert got <= _brute_force_min_dist2(spec, y) + 1e-12, y.tolist()
            ties += bool(np.any(others <= got + 1e-12))
        assert ties >= len(ys) // 4


def _box_vectors(spec: LatticeSpec, reach: int) -> np.ndarray:
    """Every nonzero lattice vector with coefficients in [-reach, reach]."""
    coeffs = _coeff_box(spec.dim, reach)
    return (coeffs[np.any(coeffs != 0, axis=1)] @ spec.generator) * spec.scale


def _minimal_box_vectors(spec: LatticeSpec, reach: int) -> np.ndarray:
    vecs = _box_vectors(spec, reach)
    norms2 = (vecs ** 2).sum(axis=1)
    return vecs[norms2 <= norms2.min() + 1e-9]


def _e8_minimal_vectors() -> np.ndarray:
    """E8's 240 minimal vectors: the 112 roots +-e_i +- e_j and the 128
    vectors (+-1/2)^8 with an even number of minus signs.  The reach-1
    coefficient box holds only 68 of them."""
    box = _coeff_box(8, 1)
    roots = box[np.count_nonzero(box, axis=1) == 2]
    halves = 0.5 - _CORNERS8[_CORNERS8.sum(axis=1) % 2 == 0]
    return np.concatenate([roots, halves]).astype(float)


def _assert_counted_as_decoded(spec: LatticeSpec, rows: np.ndarray, scales=1.0) -> np.ndarray:
    """A row's gauge exceeds its scale exactly where decode() at that scale
    maps it away from zero; returns that mask."""
    counted = _gauge(spec.family, rows) > scales
    decoded = np.array([np.any(decode(spec._replace(scale=c), row).point != 0.0)
                        for row, c in zip(rows, np.broadcast_to(scales, len(rows)))])
    assert np.array_equal(counted, decoded), rows[counted != decoded][:5].tolist()
    return decoded


class TestErrorCounter:
    # Noise variances of the benchmark's simulate workload (Z4 borrows Z8's).
    CASES = [("Z4", 0.024, 1), ("Z8", 0.024, 1), ("A2", 0.03, 2), ("D4", 0.05, 2),
             ("E8", 0.032, 1)]

    @pytest.mark.parametrize("name,sigma2,reach", CASES)
    def test_packing_radius_is_quarter_min_norm(self, name, sigma2, reach):
        spec = builtin(name)
        min_norm2 = float((_box_vectors(spec, reach) ** 2).sum(axis=1).min())
        assert _FAMILIES[spec.family].rho2 == pytest.approx(min_norm2 / 4.0, rel=1e-12)

    @pytest.mark.parametrize("name,sigma2,reach", CASES)
    def test_matches_decode(self, name, sigma2, reach):
        # The batch error test flags exactly the rows that decode() maps
        # away from zero: on plain noise, whose rows inside the packing ball
        # it must pass, just inside and outside the ball, and either side of
        # the midpoint of every minimal vector in the box.
        spec = builtin(name)
        rng = np.random.default_rng(41)
        rho = math.sqrt(_FAMILIES[spec.family].rho2)
        dirs = rng.standard_normal((200, spec.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        minimal = _minimal_box_vectors(spec, reach)
        rows = np.concatenate(
            [rng.standard_normal((2000, spec.dim)) * math.sqrt(sigma2)]
            + [rho * (1.0 + s) * dirs for s in (-1e-9, 1e-9)]
            + [0.5 * (1.0 + s) * minimal for s in (-1e-9, 1e-9)])
        decoded = _assert_counted_as_decoded(spec, rows)
        # Every midpoint pushed outward decodes to its minimal vector.
        assert np.all(decoded[-len(minimal):])

    @pytest.mark.parametrize("name,sigma2,reach", CASES)
    def test_gauge_exceeds_exactly_the_scales_that_decode_away(self, name, sigma2, reach):
        # A row is an error of the lattice at scale c iff its gauge exceeds c:
        # at random scales, and at 1e-9 either side of each row's own gauge,
        # decode() at scale c maps the row away from zero exactly then.
        spec = builtin(name)
        rng = np.random.default_rng(43)
        rows = rng.standard_normal((1000, spec.dim)) * math.sqrt(sigma2)
        gauge = _gauge(spec.family, rows)
        rows = np.concatenate([rows, rows, rows])
        scales = np.concatenate([rng.uniform(0.25, 2.0, len(gauge)),
                                 gauge * (1.0 - 1e-9), gauge * (1.0 + 1e-9)])
        decoded = _assert_counted_as_decoded(spec, rows, scales)
        assert 0 < np.count_nonzero(decoded[:len(gauge)]) < len(gauge)
        assert np.all(decoded[len(gauge):2 * len(gauge)]) and not np.any(decoded[2 * len(gauge):])

    @pytest.mark.parametrize("name,sigma2,reach", CASES)
    def test_matches_decode_on_every_facet(self, name, sigma2, reach):
        # The zero point's Voronoi cell is cut out by <z, v> <= |v|^2 / 2 over
        # the minimal vectors v.  Noise rows projected onto each of those
        # hyperplanes, and pushed 1e-9 v either way, are counted as decode()
        # decodes them.  Most projections land on the facet itself, away from
        # its midpoint, and the inward push is correct; the rest lie past its
        # edges.
        spec = builtin(name)
        minimal = _e8_minimal_vectors() if name == "E8" else _minimal_box_vectors(spec, reach)
        assert len(minimal) == {"Z4": 8, "Z8": 16, "A2": 6, "D4": 24, "E8": 240}[name]
        coeffs = minimal @ np.linalg.inv(spec.generator)
        assert np.allclose(coeffs, np.rint(coeffs), atol=1e-12)     # lattice vectors
        v = np.repeat(minimal, 3, axis=0)
        z = 0.15 * np.random.default_rng(43).standard_normal(v.shape)
        on = z + (0.5 - np.einsum("ij,ij->i", z, v) / np.einsum("ij,ij->i", v, v))[:, None] * v
        if name == "E8":
            # Points on the facet of each (+-1/2)^8 vector v with the sign of
            # one coordinate k flipped, so an odd number of them is negative:
            # 5v/8 - v_k e_k has |coordinate k| = 3/16, the others 5/16, and
            # v alone reaches <z, v> = 1.
            halves = minimal[112:]
            flipped = halves * (0.625 - np.eye(8)[np.arange(len(halves)) % 8])
            assert np.all(np.count_nonzero(flipped < 0.0, axis=1) % 2 == 1)
            on = np.concatenate([on, flipped])
            v = np.concatenate([v, halves])
        inward = _assert_counted_as_decoded(spec, on - 1e-9 * v)
        outward = _assert_counted_as_decoded(spec, on + 1e-9 * v)
        assert np.all(outward)
        assert np.count_nonzero(~inward) >= len(v) // 2
        if name == "E8":
            assert not np.any(inward[-128:])


class TestClopperPearson:
    def test_zero_errors_closed_form(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / 100.0), rel=1e-10)

    def test_all_errors(self):
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1.0 / 100.0), rel=1e-10)

    def test_brackets_point_estimate(self):
        lo, hi = clopper_pearson(37, 1000)
        assert lo <= 0.037 <= hi

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)

    @pytest.mark.parametrize("confidence", [1.5, math.nan, -0.2, 0.0, 1.0])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            clopper_pearson(5, 10, confidence=confidence)


class TestSimulate:
    def test_z1_closed_form_anchor(self):
        # sigma so that 2 Q(0.5/sigma) = 0.01.  A 1 - 1e-6 interval, so that
        # the check does not hinge on a 1-in-20 draw of the seeded stream.
        sigma = 0.5 / q_func_inv(0.005)
        est = simulate_error_prob(builtin("Z1"), sigma * sigma, 2 * 10 ** 6, seed=1)
        lo, hi = clopper_pearson(est.errors, est.trials, confidence=1.0 - 1e-6)
        assert lo <= 0.01 <= hi

    def test_determinism(self):
        spec = builtin("D4")
        a = simulate_error_prob(spec, 0.05, 150000, seed=9)
        b = simulate_error_prob(spec, 0.05, 150000, seed=9)
        assert a.errors == b.errors and a.p_hat == b.p_hat

    def test_estimate_invariants(self):
        est = simulate_error_prob(builtin("A2"), 0.04, 50000, seed=1)
        assert est.ci_low <= est.p_hat <= est.ci_high
        assert est.p_hat == est.errors / est.trials

    @pytest.mark.parametrize("name,sigma", [
        ("Z1", 0.25), ("Z4", 0.22), ("A2", 0.22), ("D4", 0.21), ("E8", 0.185)])
    def test_converse_floor(self, name, sigma):
        # The sphere bound lower-bounds every constellation's error
        # probability, so any estimate more than 3 standard errors below it
        # is a bug.
        spec = builtin(name)
        est = simulate_error_prob(spec, sigma * sigma, 150000, seed=23)
        floor = sphere_bound(ChannelPoint(spec.dim, spec.nld, sigma * sigma)).value
        assert est.p_hat + 3.0 * est.stderr >= floor, (name, est.p_hat, floor)

    def test_noise_scale_equivariance_exact(self):
        # Scaling the lattice by s with noise sigma2 draws the same
        # normalized noise as the unit lattice with noise sigma2/s^2, so the
        # error counts agree exactly for equal seeds.
        spec = builtin("E8")
        s = 2.5
        a = simulate_error_prob(spec._replace(scale=s), 0.25, 80000, seed=77)
        b = simulate_error_prob(spec, 0.25 / s ** 2, 80000, seed=77)
        assert a.errors == b.errors

    def test_zk_closed_form_anchor(self):
        # Z^k error probability is exactly 1 - (1 - 2Q(1/(2 sigma)))^k: the
        # per-coordinate events are independent.  This pins the whole
        # multi-dimensional pipeline, and ties it to the normalized error
        # probability transform.
        sigma = 0.31
        p1 = 2.0 * q_func(0.5 / sigma)
        truth = normalized_error_prob(p1, 6)
        est = simulate_error_prob(builtin("Z6"), sigma * sigma, 2 * 10 ** 6, seed=8)
        lo, hi = clopper_pearson(est.errors, est.trials, confidence=1.0 - 1e-6)
        assert lo <= truth <= hi

    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("name,sigma2", [
        ("Z1", 0.0377), ("A2", 0.03), ("E8", 0.032), ("Z6", 0.0961), ("D4", 0.05),
        ("Z3", 0.05), ("Z5", 0.05), ("Z1", 3.0), ("D4", 2.0), ("Z8", 0.024), ("Z16", 0.05)])
    def test_counts_do_not_depend_on_chunking(self, monkeypatch, name, sigma2, seed):
        # 64 scalars per chunk splits the draw into hundreds of chunks, most
        # of them ragged against the mixture components' boundaries.
        spec = builtin(name)
        whole = simulate_error_prob(spec, sigma2, 20001, seed=seed)
        monkeypatch.setattr(lattices, "_CHUNK_SCALARS", 64)
        chunked = simulate_error_prob(spec, sigma2, 20001, seed=seed)
        assert whole.errors > 0
        assert chunked == whole

    @pytest.mark.parametrize("name,sigma2", [("A2", 0.03), ("D4", 0.05), ("E8", 0.032)])
    def test_agrees_with_plain_gaussian_reference(self, name, sigma2):
        # The radius-first draw against the textbook one: every row drawn as
        # N(0, sigma2 I) and counted.  The two estimates are independent, so
        # their difference lies within 5 of its standard errors.
        spec = builtin(name)
        trials = 10 ** 6
        rng = np.random.default_rng(2024)
        ref = sum(np.count_nonzero(_gauge(
            spec.family, rng.standard_normal((trials // 4, spec.dim)) * math.sqrt(sigma2)) > 1.0)
                  for _ in range(4))
        est = simulate_error_prob(spec, sigma2, trials, seed=2025)
        p = (ref + est.errors) / (2 * trials)
        assert abs(est.errors - ref) / trials <= 5.0 * math.sqrt(2.0 * p * (1.0 - p) / trials)

    TRUNCATED_CASES = [
        ("Z1", 0.0377), ("A2", 0.03), ("D4", 0.05), ("E8", 0.032),
        # Odd n draws the Gamma(1/2) tail by inversion; at large noise the
        # Q(a0, t) component, not the shifted Gammas, holds most rows.
        ("Z3", 0.05), ("Z5", 0.05), ("Z1", 3.0), ("D4", 2.0)]

    @pytest.mark.parametrize("name,sigma2", TRUNCATED_CASES)
    def test_outside_rows_follow_truncated_chi2(self, name, sigma2):
        # ||z||^2 / sigma2 ~ chi^2_n, so the rows outside the ball number
        # Binomial(N, q0) with q0 = Q(n/2, rho^2 / 2 sigma2), and their
        # squared norms follow chi^2_n truncated to [rho^2, inf).  Each point
        # draws from its own seed, so the eight checks are independent.
        spec = builtin(name)
        n, rho2, trials = spec.dim, _FAMILIES[spec.family].rho2, 10 ** 6
        seed = np.random.SeedSequence([3, self.TRUNCATED_CASES.index((name, sigma2))])
        norms2 = np.concatenate([
            np.einsum("ij,ij->i", z, z)
            for z in _outside_noise(seed, trials, n, math.sqrt(sigma2), rho2)])
        q0 = special.gammaincc(n / 2.0, rho2 / (2.0 * sigma2))
        assert abs(norms2.size - trials * q0) <= 5.0 * math.sqrt(trials * q0 * (1.0 - q0))
        assert norms2.min() >= rho2 * (1.0 - 1e-15)

        def truncated_cdf(r2):
            return 1.0 - special.gammaincc(n / 2.0, r2 / (2.0 * sigma2)) / q0

        assert stats.kstest(norms2, truncated_cdf).pvalue > 1e-6

    def test_mixture_weights_sum_to_the_upper_gamma(self):
        # The recurrence the outside draw rests on: Q(a0, t) plus the terms
        # e^-t t^(a0+j) / Gamma(a0+j+1) is Q(n/2, t).  The oracle is mpmath:
        # scipy's gammaincc is itself 1.07e-13 off at n = 41, t = 700.  Below
        # t = 1 the oracle is 1 - P, which mpmath sums fast at tiny t.
        ts = [0.0, *np.geomspace(1e-300, 700.0, 31)]
        worst = 0.0
        with mpmath.workdps(30):
            for n in range(1, 65):
                a = mpmath.mpf(n) / 2
                for t in ts:
                    q = (1 - mpmath.gammainc(a, 0, t, regularized=True) if t < 1.0
                         else mpmath.gammainc(a, t, mpmath.inf, regularized=True))
                    weights = _tail_weights(n, t)
                    assert weights.shape == ((n + 1) // 2,)
                    worst = max(worst, float(abs(weights.sum() / q - 1)))
            assert worst <= 1e-13
            # Past t = 708, where e^-t leaves the normal doubles, the terms
            # come from summed logs and lose digits with t (2.7e-11 at 1e4).
            for n, t in [(1500, 760.0), (1999, 1100.0), (2000, 833.0), (3000, 1500.0),
                         (3001, 1500.0), (20001, 1e4)]:
                q = mpmath.gammainc(mpmath.mpf(n) / 2, t, mpmath.inf, regularized=True)
                assert float(abs(_tail_weights(n, t).sum() / q - 1)) <= 1e-10, (n, t)

    @pytest.mark.parametrize("name,sigma2,errors", [
        ("Z3", 1e308, 10000),   # 2 s^2 overflows: t = 0, every row is outside
        ("A2", 1e308, 10000),   # and every coordinate is infinite
        ("D4", 1e308, 10000),
        ("E8", 1e308, 10000),
        ("E8", 1e-4, 0),        # q underflows to 0
        ("Z3", 1e-6, 0),
        ("D4", 5e-324, 0)])     # t = rho^2 / 2 s^2 overflows: no row can leave the ball
    def test_ends_of_the_noise_range(self, name, sigma2, errors):
        # Under the suite's error::RuntimeWarning filter, so no step may
        # warn either.
        assert simulate_error_prob(builtin(name), sigma2, 10 ** 4, seed=1).errors == errors

    def test_record_schema(self):
        spec = builtin("Z1")
        est = simulate_error_prob(spec, 0.04, 1000, seed=2)
        rec = est.to_record(spec, 0.04)
        assert list(rec) == ["lattice", "n", "delta", "sigma2", "trials", "errors",
                             "p_hat", "ci_low", "ci_high", "seed"]

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_error_prob(builtin("Z1"), 1.0, 0, seed=1)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                simulate_error_prob(builtin("Z1"), bad, 10, seed=1)


def _z8_error_prob(scale: float) -> float:
    # Z^8 at unit noise keeps a row iff each coordinate stays within scale/2.
    return -math.expm1(8.0 * math.log1p(-2.0 * q_func(scale / 2.0)))


def _a2_error_prob(scale: float) -> float:
    # The hexagonal cell has inradius scale/2 and twelve congruent half
    # sectors of angle pi/6; at unit noise the chance of leaving it is
    # (6/pi) int_0^(pi/6) exp(-scale^2 / (8 cos^2 t)) dt.
    return 6.0 / math.pi * integrate_adaptive(
        lambda t: np.exp(-scale * scale / (8.0 * np.cos(t) ** 2)), 0.0, math.pi / 6.0)


class TestFindScale:
    def test_z1_analytic_anchor(self):
        # For Z at noise 1 the error probability at scale s is 2Q(s/2); at
        # eps = 0.01 the target scale is 2 Qinv(0.005) = 5.1517.
        res = find_scale_for_error(builtin("Z1"), 0.01, 1.0, trials=40000, seed=31)
        analytic = 2.0 * q_func(res.scale / 2.0)
        assert res.estimate.ci_low <= analytic <= res.estimate.ci_high
        assert abs(analytic - 0.01) <= 3e-3
        assert res.scale == pytest.approx(2.0 * q_func_inv(0.005), rel=0.05)
        assert res.delta == pytest.approx(-math.log(res.scale), rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("name, exact", [("Z8", _z8_error_prob), ("A2", _a2_error_prob)])
    def test_exact_error_prob_at_the_scale(self, name, exact, eps, seed):
        # The scale is the k-th largest of N gauges, k = eps N, so the exact
        # error probability there is the k-th smallest of N uniforms,
        # Beta(k, N - k + 1): inside the Clopper-Pearson interval of k errors
        # in N trials at confidence 1 - 1e-6.  Where the converse floor
        # binds instead, the exact probability lies between eps and that.
        trials = round(200 / eps)
        res = find_scale_for_error(builtin(name), eps, 1.0, trials=trials, seed=seed)
        lo, hi = clopper_pearson(math.ceil(eps * trials), trials, confidence=1.0 - 1e-6)
        assert lo <= exact(res.scale) <= hi
        assert res.estimate.trials == trials

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("name", ["Z1", "Z8", "A2", "D4", "E8"])
    def test_never_past_the_converse(self, name, eps):
        # The sphere bound holds for every constellation, so no scale below
        # the converse's is returned.  Z1 meets the bound, so the floor binds
        # on about half the seeds, and there the NLDs agree to rounding.
        spec = builtin(name)
        conv = nld_eps_converse(spec.dim, eps, 1.0).delta
        deltas = [find_scale_for_error(spec, eps, 1.0, trials=round(200 / eps), seed=seed).delta
                  for seed in range(4)]
        assert max(deltas) <= conv + 1e-12
        assert name != "Z1" or min(deltas) < conv - 1e-6 < conv - 1e-12 < max(deltas)

    def test_fewer_than_k_rows_give_the_floor(self):
        # One trial at eps = 1e-3: k = 1, and the one row is drawn outside
        # the packing ball at the floor with chance near eps.
        spec = builtin("Z1")
        floor = math.exp(-nld_eps_converse(1, 1e-3, 1.0).delta)
        res = find_scale_for_error(spec, 1e-3, 1.0, trials=1, seed=2)
        assert res.scale == floor and res.estimate.trials == 1

    @pytest.mark.parametrize("name", ["Z8", "A2", "E8"])
    def test_scale_does_not_depend_on_chunking(self, monkeypatch, name):
        # 64 scalars per chunk: the k = 200 or 6,000 largest gauges are kept
        # across hundreds of chunks, each smaller than k.  At eps = 0.3 the
        # default chunks of Z8 and E8 also drop the gauges below the k-th
        # largest of the chunks before them.
        eps = (1e-2, 0.3)
        whole = [find_scale_for_error(builtin(name), e, 1.0, trials=20000, seed=5) for e in eps]
        monkeypatch.setattr(lattices, "_CHUNK_SCALARS", 64)
        assert [find_scale_for_error(builtin(name), e, 1.0, trials=20000, seed=5)
                for e in eps] == whole

    def test_smaller_eps_needs_larger_scale(self):
        small = find_scale_for_error(builtin("Z1"), 0.001, 1.0, trials=60000, seed=4)
        large = find_scale_for_error(builtin("Z1"), 0.01, 1.0, trials=60000, seed=4)
        assert small.scale > large.scale

    def test_e8_gap_sits_between_inversion_gaps(self):
        # At the n=8 normalized error target the E8 gap must not beat the
        # converse and is far inside the ML achievability guarantee.
        eps8 = normalized_error_prob(1e-5, 8)
        res = find_scale_for_error(builtin("E8"), eps8, 1.0, trials=300000, seed=6)
        gap_conv = gap_db(nld_eps_converse(8, eps8, 1.0).delta, 1.0)
        gap_ach = gap_db(nld_eps_achievable(8, eps8, 1.0).delta, 1.0)
        assert gap_conv - 0.3 <= res.gap_db <= gap_ach + 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            find_scale_for_error(builtin("Z1"), 1.5, 1.0, trials=10, seed=0)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                find_scale_for_error(builtin("Z1"), 0.01, bad, trials=10, seed=0)
