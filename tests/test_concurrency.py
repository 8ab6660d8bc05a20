import concurrent.futures
import math

from icawgn.bounds import ChannelPoint, ml_bound, sphere_bound
from icawgn.dispersion import nld_eps_converse, norm_tail_normal_approx
from icawgn.lattices import builtin, simulate_error_prob


def test_bound_evaluation_is_thread_safe():
    # Pure functions: concurrent sweeps must reproduce the serial values bit
    # for bit.
    points = [ChannelPoint(n, -1.5 - 0.001 * n, 1.0) for n in range(2, 120)]
    serial = [(sphere_bound(p).log_raw, ml_bound(p).log_raw) for p in points]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(
            lambda p: (sphere_bound(p).log_raw, ml_bound(p).log_raw), points))
    assert serial == parallel


def test_cached_constant_single_value_under_contention():
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        # The guarantee 6 T / sqrt(n) reads the module constant T.
        vals = list(pool.map(lambda _: norm_tail_normal_approx(64, 8.0, 1.0), range(32)))
    assert len(set(vals)) == 1
    assert all(map(math.isfinite, vals[0]))


def test_inversion_and_simulation_thread_safe():
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        inv = list(pool.map(lambda n: nld_eps_converse(n, 0.01, 1.0).delta,
                            [10, 20, 40, 80] * 3))
        sims = list(pool.map(
            lambda s: simulate_error_prob(builtin("D4"), 0.05, 20000, seed=s).errors,
            [3, 3, 3, 3]))
    assert inv[:4] == inv[4:8] == inv[8:]
    assert len(set(sims)) == 1
