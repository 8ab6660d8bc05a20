import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from icawgn import asymptotics, bounds, dispersion
from icawgn.cli import _build_parser, _emit, _join_negative_values, _parse_n_range, main
from icawgn.lattices import clopper_pearson
from helpers import log_radial_moment_mpmath


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestRangeParsing:
    def test_single(self):
        assert _parse_n_range("7") == [7]

    def test_linear(self):
        assert _parse_n_range("2:6") == [2, 3, 4, 5, 6]
        assert _parse_n_range("2:10:3") == [2, 5, 8]

    def test_geometric(self):
        assert _parse_n_range("2:64:x2") == [2, 4, 8, 16, 32, 64]
        assert _parse_n_range("10:1000:x10") == [10, 100, 1000]

    def test_bad_ranges(self):
        for bad in ("5:2", "0:4", "2:8:x1", "2:8:0"):
            with pytest.raises(ValueError):
                _parse_n_range(bad)

    def test_more_than_three_fields_is_bad_syntax(self, capsys):
        with pytest.raises(ValueError, match=re.escape("bad range syntax '1:2:3:4'")):
            _parse_n_range("1:2:3:4")
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "1:2:3:4", "--nld", "-1.5"])
        assert exc.value.code == 2
        assert "bad range syntax" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["xnan", "xinf", "x-inf", "x0.5", "x-2"])
    def test_geometric_ratio_must_be_finite_and_above_1(self, ratio, capsys):
        with pytest.raises(ValueError, match="finite and > 1"):
            _parse_n_range(f"1:10:{ratio}")
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", f"1:10:{ratio}", "--nld", "-1.5"])
        assert exc.value.code == 2
        assert ratio in capsys.readouterr().err

    def test_geometric_walk_is_bounded(self, capsys):
        # ln 10 / ln(1 + 1e-10) is about 2.3e10 steps: rejected before any.
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "1:10:x1.0000000001", "--nld", "-1.5"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert "x1.0000000001" in capsys.readouterr().err
        assert _parse_n_range("1:10:x1.00001") == list(range(1, 11))   # 2.3e5 steps

    @pytest.mark.parametrize("text", ["1:10000000000", "1:1000001", "5:3000005:3"])
    def test_linear_range_is_bounded(self, text, capsys):
        # 10^10 values would be about 400 GB of list: rejected before any.
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", text, "--nld", "-1.5"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert text in capsys.readouterr().err

    def test_linear_range_of_a_million_values_is_kept(self):
        assert len(_parse_n_range("1:1000000")) == 10**6
        assert _parse_n_range("5:3000002:3")[-1] == 3000002

    @pytest.mark.parametrize("text", ["2:64:x2", "10:1000:x10", "8:64:x2", "2:1000:x2",
                                      "2:16:x2", "16:256:x4", "100:1000:x10", "10:5000:x5",
                                      "4:8:x2", "3:3:x2", "1:10:x1.0001", "1:100000:x1.01",
                                      "7:1000000:x1.5", "1:10:x2"])
    def test_geometric_ranges_keep_their_values(self, text):
        # The walk as it was before the repeats were dropped on the way.
        a, b, g = text.split(":")
        steps, v, ratio = [], float(a), float(g[1:])
        while v <= int(b) + 1e-9:
            steps.append(int(round(v)))
            v *= ratio
        assert _parse_n_range(text) == sorted(set(steps))

    @pytest.mark.parametrize("text", ["2251799813685249:9007199254740995:x4",
                                      "4611686018427387904:9223372036854775807:x2",
                                      "2:10:x1e308"])
    def test_geometric_values_stay_in_range(self, text):
        # b + 1e-9 rounds to the double above an odd b past 2^53, and 2^63
        # rounds past the largest int64: both once stepped past b.  The step
        # after 2 at ratio 1e308 is an infinite double.
        a, b = map(int, text.split(":")[:2])
        values = _parse_n_range(text)
        assert values[0] == a and all(a <= v <= b for v in values)
        assert values == sorted(set(values))
        code = main(["bounds", "--n", text, "--nld", "-1.5", "--which", "sphere"])
        assert code == 0


class TestBoundsCommand:
    def test_projection_to_requested_columns(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--nld", "-1.5",
                               "--which", "sphere")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["n", "sphere_log"]
        assert len(rows) == 1

    def test_log_column_matches_linear_when_unclamped(self, capsys):
        # The linear bound is min(1, e^log), from the log column alone.
        ns = [8, 16, 32, 64]
        _, out, _ = run_cli(capsys, "bounds", "--n", "8:64:x2", "--nld", "-1.5")
        _, rows = parse_csv(out)
        curves = bounds.bound_curves(ns, -1.5, 1.0)
        linear = {k: np.minimum(np.exp(c), 1.0) for k, c in curves.items()}
        for i, row in enumerate(rows):
            for kind in ("sphere", "ml", "typicality", "poltyrev"):
                lin = linear[kind][i]
                assert lin < 1.0
                assert min(1.0, math.exp(float(row[kind + "_log"]))) == pytest.approx(lin, rel=1e-12)

    @pytest.mark.parametrize("nld", ["-1.5", "-2.0"])
    def test_cells_are_the_library_values(self, capsys, nld):
        code, out, err = run_cli(capsys, "bounds", "--n", "1:300", "--nld", nld)
        header, rows = parse_csv(out)
        assert (code, err, len(rows)) == (0, "", 300)
        assert header == ["n", "sphere_log", "ml_log", "typicality_log", "poltyrev_log"]
        for n, row in enumerate(rows, start=1):
            curves = bounds.bound_curves([n], float(nld), 1.0)
            ref = {"n": n, **{f"{k}_log": c[0].item() for k, c in curves.items()}}
            assert row == {k: str(v) for k, v in ref.items()}, n

    def test_figure_sweep_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2:1000:x2",
                               "--nld", "-1.5", "--sigma2", "1")
        header, rows = parse_csv(out)
        assert code == 0
        assert [r["n"] for r in rows] == ["2", "4", "8", "16", "32", "64", "128",
                                          "256", "512", "1024"][:len(rows)]
        assert header[0] == "n" and "ml_log" in header and "poltyrev_log" in header

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "bounds", "--n", "2:16:x2", "--nld", "-1.7")
        _, out2, _ = run_cli(capsys, "bounds", "--n", "2:16:x2", "--nld", "-1.7")
        assert out1 == out2

    def test_full_precision_roundtrip(self, capsys):
        # The printed field reads back as the very float the CLI computed,
        # which comes from the array path.
        _, out, _ = run_cli(capsys, "bounds", "--n", "16", "--nld", "-1.5",
                            "--which", "sphere")
        _, rows = parse_csv(out)
        from icawgn.bounds import bound_curves
        exact = bound_curves([16], -1.5, 1.0, ["sphere"])["sphere"][0]
        assert float(rows[0]["sphere_log"]) == exact


class TestBoundsEdgeContract:
    """Exit status and stderr of `bounds` at the edges of its domain."""

    def test_radius_overflow_is_numerical_failure(self, capsys):
        # r_eff/sigma passes the largest double at -800 and saturates to inf, so
        # this is no numerical failure: the sphere bound is an exact zero and the
        # ML bound its first term at r = inf, n delta + ln V_n + (n/2) ln 2
        # + ln Gamma(n) - ln Gamma(n/2) = -800 n + ln(pi^2 / 2) + 2 ln 2 + ln 6.
        code, out, err = run_cli(capsys, "bounds", "--n", "4", "--nld", "-800",
                                 "--which", "sphere,ml")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[0]["sphere_log"] == "-inf"
        ref = -3200.0 + math.log(math.pi ** 2 / 2.0) + 2.0 * math.log(2.0) + math.log(6.0)
        assert float(rows[0]["ml_log"]) == pytest.approx(ref, rel=1e-15)

    def test_poltyrev_radius_underflow_gives_exact_one(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "4", "--nld", "800",
                                 "--which", "poltyrev")
        assert code == 0 and err == ""
        assert out == "n,poltyrev_log\n4,0.0\n"

    def test_asym_past_double_range_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "asym", "--n", "3:6", "--nld", "-800")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert [r["sphere_log"] for r in rows] == ["-inf"] * 4
        assert all(math.isfinite(float(r["ml_log"])) for r in rows)

    def test_above_capacity_where_hyp1f1_is_nan(self, capsys):
        # Printed nan,nan with exit status 0.
        code, out, err = run_cli(capsys, "bounds", "--n", "1000000000000",
                                 "--nld=-1.4189363", "--which", "sphere")
        _, rows = parse_csv(out)
        assert (code, err) == (0, "")
        assert -1.0 < float(rows[0]["sphere_log"]) < 0.0

    def test_invert_at_1e_300_exits_0(self, capsys):
        # The achievable search at n = 1 walks past delta = -710, where r_eff
        # saturates; every row still solves.
        code, out, err = run_cli(capsys, "invert", "--n", "1:300", "--eps", "1e-300")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 300
        for r in rows:
            conv, ach = float(r["delta_converse"]), float(r["delta_achievable"])
            assert math.isfinite(ach) and ach <= conv, r["n"]

    def test_radius_underflow_gives_exact_values(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "4", "--nld", "800",
                                 "--which", "sphere,ml")
        assert code == 0 and err == ""
        assert out == "n,sphere_log,ml_log\n4,0.0,0.0\n"

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--nld", "inf"],                           # NLD not finite
        ["--n", "4", "--nld", "0.3"],                           # typicality radicand <= 0
        ["--n", "1:400:50", "--nld", "0.3"],
        ["--n", "0", "--nld", "-1.5"],
        ["--n", "4", "--nld", "nan"],
        ["--n", "4", "--nld", "-1.5", "--sigma2", "0"],
        ["--n", "4", "--nld", "-1.5", "--which", "sphere,exact"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", *argv])
        assert exc.value.code == 2
        assert "usage error" in capsys.readouterr().err

    def test_no_clamp_warnings_at_default_radii(self, capsys):
        # Above capacity the bounds approach 1 but stay below it.
        code, out, err = run_cli(capsys, "bounds", "--n", "1:400:50", "--nld", "0.3",
                                 "--which", "sphere,ml,poltyrev")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 8 and all(float(r["ml_log"]) <= 0.0 for r in rows)

    def test_clamp_warnings_row_by_row(self, monkeypatch, capsys):
        from icawgn import bounds as bounds_mod

        def vacuous(n, nld, sigma2, kinds):
            logs = {"ml": np.array([0.5, -1.0, 0.25]), "sphere": np.array([-1.0, -2.0, 0.125])}
            return {k: logs[k] for k in kinds}

        monkeypatch.setattr(bounds_mod, "bound_curves", vacuous)
        code, out, err = run_cli(capsys, "bounds", "--n", "1:3", "--nld", "-1.5",
                                 "--which", "ml,sphere")
        assert code == 0
        assert err.splitlines() == [
            "warning: ml bound exceeds 1 at n=1 (clamped, vacuous)",
            "warning: ml bound exceeds 1 at n=3 (clamped, vacuous)",
            "warning: sphere bound exceeds 1 at n=3 (clamped, vacuous)",
        ]
        header, rows = parse_csv(out)
        assert header == ["n", "ml_log", "sphere_log"]
        # A log above 0 is the clamped case the warnings name.
        assert [r["ml_log"] for r in rows] == ["0.5", "-1.0", "0.25"]
        assert [r["sphere_log"] for r in rows] == ["-1.0", "-2.0", "0.125"]


class TestAsymCommand:
    def test_branch_flag_column(self, capsys):
        from icawgn.bounds import delta_cr
        _, out, _ = run_cli(capsys, "asym", "--n", "100", "--nld", repr(delta_cr(1.0)))
        _, rows = parse_csv(out)
        assert rows[0]["ml_branch"] == "critical"

    def test_sandwich_ordering_in_rows(self, capsys):
        _, out, _ = run_cli(capsys, "asym", "--n", "16:256:x4", "--nld", "-1.5")
        _, rows = parse_csv(out)
        for row in rows:
            lo = float(row["sphere_lower_log"])
            exact = float(row["sphere_log"])
            hi = float(row["sphere_upper_log"])
            assert lo <= exact <= hi
            assert (float(row["ml_lower_log"]) <= float(row["ml_log"])
                    <= float(row["ml_upper_log"]))

    def test_ratio_column_approaches_one(self, capsys):
        # The exact bound over its asymptotic form, e^(sphere_log - sphere_asym_log).
        _, out, _ = run_cli(capsys, "asym", "--n", "100:1000:x10", "--nld", "-1.5")
        header, rows = parse_csv(out)
        assert not any(c.endswith("_ratio") for c in header)
        r100, r1000 = (math.exp(float(r["sphere_log"]) - float(r["sphere_asym_log"]))
                       for r in (rows[0], rows[-1]))
        assert abs(r1000 - 1.0) < abs(r100 - 1.0)

    @pytest.mark.parametrize("nld", ["-1.5", "-2.0"])
    def test_cells_are_the_library_values(self, capsys, nld):
        # Each cell is the scalar library function's value at its n, and nan
        # where that function raises.
        code, out, err = run_cli(capsys, "asym", "--n", "1:300", "--nld", nld)
        _, rows = parse_csv(out)
        assert (code, err, len(rows)) == (0, "", 300)

        def log_or_nan(form, *fields):
            try:
                value = form(point)
            except ValueError:
                return [math.nan] * max(1, len(fields))
            return [getattr(value, f).log_value for f in fields] if fields else [value.log_value]

        for n, row in enumerate(rows, start=1):
            point = bounds.ChannelPoint(n, float(nld), 1.0)
            sandwich = ("lower_q", "lower_analytic", "upper")
            sphere_lo_q, sphere_lo, sphere_up = log_or_nan(asymptotics.sphere_sandwich, *sandwich)
            ml_lo_q, ml_lo, ml_up = log_or_nan(asymptotics.ml_sandwich, *sandwich)
            ref = {"n": n,
                   "sphere_log": bounds.sphere_bound(point).log_raw,
                   "sphere_lower_q_log": sphere_lo_q, "sphere_lower_log": sphere_lo,
                   "sphere_upper_log": sphere_up,
                   "sphere_asym_log": log_or_nan(asymptotics.sphere_asymptotic)[0],
                   "ml_log": bounds.ml_bound(point).log_raw,
                   "ml_lower_q_log": ml_lo_q, "ml_lower_log": ml_lo, "ml_upper_log": ml_up,
                   "ml_asym_log": log_or_nan(asymptotics.ml_asymptotic)[0],
                   "ml_branch": asymptotics.ml_asymptotic_branch(point),
                   "typicality_log": bounds.typicality_bound(point).log_raw,
                   "typicality_asym_log": log_or_nan(asymptotics.typicality_asymptotic)[0]}
            assert row == {k: str(v) for k, v in ref.items()}, n

    def test_largest_dimension_exits_0(self, capsys):
        # Exited 1 with "error: numerical: math range error": the dropped
        # typicality ratio was e^(e - a) of two logs near -8e18, 4096 nats apart.
        code, out, err = run_cli(capsys, "asym", "--n", "9223372036854775807", "--nld=-3")
        _, rows = parse_csv(out)
        assert (code, err, len(rows)) == (0, "", 1)
        assert math.isfinite(float(rows[0]["typicality_log"]))

    @pytest.mark.parametrize("nld", ["delta_star", "delta_cr"])
    def test_capacity_and_critical_exit_cleanly(self, nld, capsys):
        from icawgn import bounds
        code, out, err = run_cli(capsys, "asym", "--n", "1:6",
                                 "--nld", repr(getattr(bounds, nld)(1.0)))
        assert (code, err) == (0, "")
        assert len(parse_csv(out)[1]) == 6

    def test_small_n_emits_nan_sandwich(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--n", "2", "--nld", "-1.5")
        _, rows = parse_csv(out)
        assert code == 0
        assert rows[0]["sphere_lower_log"] == "nan"


class TestInvertCommand:
    def test_columns_and_band(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--n", "10:1000:x10", "--eps", "0.01")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["n", "delta_converse", "delta_achievable", "delta_approx"]
        for row in rows:
            n = int(row["n"])
            conv = float(row["delta_converse"])
            ach = float(row["delta_achievable"])
            approx = float(row["delta_approx"])
            assert ach <= conv
            assert abs(n * (conv - approx)) <= 20.0
            assert abs(n * (ach - approx)) <= 20.0
            assert dispersion.gap_db(ach, 1.0) >= dispersion.gap_db(conv, 1.0)

    def test_variance_where_4_pi_e_sigma2_overflows(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--n", "2", "--eps", "0.01",
                               "--sigma2", "6e306")
        _, rows = parse_csv(out)
        assert code == 0
        # delta_cr(6e306) itself is pinned in test_bounds.
        assert all(math.isfinite(float(v)) for v in rows[0].values())

    @pytest.mark.parametrize("eps, sigma2, dims", [
        *((e, s, "1:120") for e in ("0.5", "1e-2", "1e-12") for s in ("1", "0.5")),
        # bound_curves' ML log is an ulp off ml_bound's at n = 350.
        ("1e-12", "1", "340:360"),
    ])
    def test_cells_are_the_library_values(self, capsys, eps, sigma2, dims):
        code, out, _ = run_cli(capsys, "invert", "--n", dims, "--eps", eps, "--sigma2", sigma2)
        _, rows = parse_csv(out)
        lo, hi = map(int, dims.split(":"))
        assert code == 0 and len(rows) == hi - lo + 1
        e, s2 = float(eps), float(sigma2)
        for n, row in enumerate(rows, start=lo):
            delta = {"converse": dispersion.nld_eps_converse(n, e, s2).delta,
                     "achievable": dispersion.nld_eps_achievable(n, e, s2).delta,
                     "approx": dispersion.nld_eps_approx(n, e, s2)}
            ref = {"n": n, **{f"delta_{k}": d for k, d in delta.items()}}
            assert row == {k: str(v) for k, v in ref.items()}, n

    def test_dimension_where_the_ml_log_is_rounding_noise(self, capsys):
        # Exited 1 with "error: numerical: math range error" from the ML solve.
        code, out, err = run_cli(capsys, "invert", "--n", "4611686018427387904", "--eps", "0.01")
        _, rows = parse_csv(out)
        assert code == 0 and err == ""
        assert all(math.isfinite(float(v)) for v in rows[0].values())

    def test_n1_row_present(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--n", "1", "--eps", "0.01")
        _, rows = parse_csv(out)
        assert code == 0 and rows[0]["n"] == "1"
        assert float(rows[0]["delta_converse"]) < 0.0


class TestSimulateCommand:
    def test_reproducible_rows(self, capsys):
        args = ("simulate", "--lattice", "D4", "--sigma2", "0.05",
                "--trials", "20000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_readme_example_count(self, capsys):
        # The README's example; its count moves only with the noise draw.
        code, out, _ = run_cli(capsys, "simulate", "--lattice", "E8", "--sigma2", "0.0342",
                               "--trials", "1000000", "--seed", "7")
        _, rows = parse_csv(out)
        assert code == 0
        assert (rows[0]["errors"], rows[0]["trials"]) == ("11231", "1000000")

    def test_z1_closed_form_within_ci(self, capsys):
        from icawgn.specfn import q_func
        sigma2 = 0.25
        _, out, _ = run_cli(capsys, "simulate", "--lattice", "Z1",
                            "--sigma2", repr(sigma2), "--trials", "2000000", "--seed", "3")
        _, rows = parse_csv(out)
        truth = 2.0 * q_func(0.5 / math.sqrt(sigma2))
        # The printed 95% interval would miss the truth on 1 seed in 20; a
        # 1 - 1e-6 interval over the printed counts does not hinge on the seed.
        lo, hi = clopper_pearson(int(rows[0]["errors"]), int(rows[0]["trials"]),
                                 confidence=1.0 - 1e-6)
        assert lo <= truth <= hi

    def test_target_eps_row(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--lattice", "E8",
                               "--target-eps", "2.4e-4", "--seed", "7",
                               "--trials", "60000")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["lattice", "n", "scale", "delta", "gap_db", "eps_target", "trials",
                          "errors", "p_hat", "ci_low", "ci_high", "seed"]
        row = rows[0]
        assert row["trials"] == "60000" and row["seed"] == "7"
        assert float(row["scale"]) > 0 and float(row["gap_db"]) > 0
        # delta of the scaled lattice: -ln(scale) for a unimodular generator
        assert float(row["delta"]) == pytest.approx(-math.log(float(row["scale"])),
                                                    rel=1e-10)

    def test_reserved_lattice_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lattice", "S127", "--trials", "10"])
        assert exc.value.code == 2
        assert "unknown lattice name 'S127'" in capsys.readouterr().err

    def test_integer_lattice_past_1024_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lattice", "Z2000", "--trials", "10"])
        assert exc.value.code == 2
        assert "n in 1..1024, got 2000" in capsys.readouterr().err


class TestEquivCommand:
    def test_header_and_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--n", "3", "--r", "0.5,1.0",
                               "--sigma2", "1")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["n", "r", "lhs_log", "rhs_log", "rel_discrepancy"]
        assert len(rows) == 2
        for row, r in zip(rows, (0.5, 1.0)):
            lhs, rhs = bounds.equivalence_sides(3, r, 1.0)
            assert (float(row["lhs_log"]), float(row["rhs_log"])) == (lhs.log_value, rhs.log_value)
            assert float(row["rel_discrepancy"]) <= 1e-6

    def test_out_of_range_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--n", "1", "--r", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n, r, message", [
        ("1", "1.0", "n in 2.."), ("401", "1.0", "the angle integral"),
        ("980", "31", "the angle integral"), ("250", "1.0", "the angle integral"),
        ("8", "1e-200", "the angle integral"),
        ("3", "0", "radius must be finite and > 0"), ("3", "-1", "radius must be finite and > 0"),
        ("3", "1,0", "radius must be finite and > 0")])
    def test_library_domain_errors_are_usage_errors(self, n, r, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--n", n, "--r", r])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["1000", "1e6"])
    def test_radius_past_hundred_sigma_is_usage_error(self, r, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--n", "3", "--r", r])
        assert exc.value.code == 2
        assert "r/sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("n, r, s2", [("8", "1e-30", "1"), ("8", "1e39", "1e76"),
                                          ("2", "1e154", "1e306"), ("401", "10", "1")])
    def test_sides_past_double_range_are_logs(self, n, r, s2, capsys):
        # Sides of order r^(2n): 1e-480 at n = 8, r = 1e-30, and (2r)^n =
        # 2.6e314 at n = 8, r = 1e39.
        code, out, _ = run_cli(capsys, "equiv", "--n", n, "--r", r, "--sigma2", s2)
        assert code == 0
        for row in parse_csv(out)[1]:
            ref = log_radial_moment_mpmath(int(n), float(row["r"]), float(s2))
            for side in ("lhs_log", "rhs_log"):
                assert abs(float(row[side]) - ref) <= 1e-15 * max(1.0, abs(ref))
            assert float(row["rel_discrepancy"]) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["bounds", "--nld", "-1.5"],
    ["asym", "--nld", "-1.5"],
    ["invert", "--eps", "0.01"],
], ids=lambda argv: argv[0])
def test_dimension_past_int64_is_usage_error_naming_the_limit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "10000000000000000000000"])
    assert exc.value.code == 2
    assert "9223372036854775807" in capsys.readouterr().err


@pytest.mark.parametrize("argv, count", [
    (["--trials", "1000000000000000000000"], "trials"),
    (["--target-eps", "0.1", "--trials", "1000000000000000000000"], "trials"),
], ids=["trials", "target_eps_trials"])
def test_count_past_int64_is_usage_error_naming_the_count(argv, count, capsys):
    # These were "error: numerical: Python int too large to convert to C long".
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--lattice", "Z2", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("icawgn: usage error: ") and f"{count} must be an integer in 1.." in err


@pytest.mark.parametrize("before, value, code", [
    (["asym", "--n", "1:3", "--nld"], "-1e3", 0),
    (["bounds", "--n", "2:4", "--sigma2", "2", "--nld"], "-1.5E0", 0),
    (["bounds", "--n", "2", "--nld", "-1.5", "--sigma2"], "-2e0", 2),
    (["invert", "--n", "2", "--eps"], "-1e-3", 2),
    (["equiv", "--n", "3", "--r"], "-.5e+1", 2),
], ids=["asym_nld", "bounds_nld", "sigma2", "eps", "r"])
def test_negative_value_in_exponent_notation_after_a_space(before, value, code, capsys):
    # argparse's negative-number pattern has no exponent, so '--nld -1e3' was
    # "expected one argument"; it now means what '--nld=-1e3' means.
    def outcome(argv):
        try:
            exit_code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        return exit_code, *capsys.readouterr()

    spaced = outcome([*before, value])
    assert spaced == outcome([*before[:-1], f"{before[-1]}={value}"])
    assert spaced[0] == code and "expected one argument" not in spaced[2]


def test_import_leaves_out_scipy_optimize_and_integrate():
    # Each adds 0.22-0.29 s of import on a 2-core x86-64 box; the root finder
    # and the Gauss-Legendre rule are written out to avoid that.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, icawgn.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _str_csv(table):
    # The CSV of a column table with every cell through str.
    rows = (",".join(map(str, row)) for row in zip(*table.values()))
    return "\n".join([",".join(table), *rows]) + "\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "1:60", "--nld", "-1.5"],
    ["bounds", "--n", "1:3", "--nld=-800"],            # -inf sphere cells
    ["asym", "--n", "1:2", "--nld", "-1.5"],           # nan sandwich cells
    ["asym", "--n", "3:300:x1.5", "--nld", "-1.5"],    # and ml_branch
    ["invert", "--n", "1:8", "--eps", "0.01"],
    ["simulate", "--lattice", "A2", "--trials", "300", "--seed", "3"],
    ["simulate", "--lattice", "Z2", "--trials", "300", "--target-eps", "0.1", "--seed", "3"],
    ["equiv", "--n", "3", "--r", "0.5,1,2"],
], ids=" ".join)
def test_csv_is_the_str_of_every_cell(argv, capsys):
    args = _build_parser().parse_args(_join_negative_values(argv))
    table = args.func(args)
    _emit(table, "csv", None)
    assert capsys.readouterr().out == _str_csv(table)


def test_csv_of_numpy_scalars_and_non_finite_floats_is_their_str(capsys):
    # A numpy scalar's repr is not its str (np.float64(1.5)), so no cell of
    # its column goes through repr.
    table = {"x": [1.5, np.float64(-2.5), math.nan], "k": [np.int64(3), 4, True],
             "y": [math.inf, -math.inf, 1e-300], "s": ["a", "b", "c"]}
    _emit(table, "csv", None)
    assert capsys.readouterr().out == _str_csv(table) == (
        "x,k,y,s\n1.5,3,inf,a\n-2.5,4,-inf,b\nnan,True,1e-300,c\n")


@pytest.mark.parametrize("which", ["bounds", "asym"])
def test_nan_nld_is_a_usage_error_before_any_cell(which, capsys):
    with pytest.raises(SystemExit) as exc:
        main([which, "--n", "1:3", "--nld", "nan"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestOutputPlumbing:
    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4:8:x2", "--nld", "-1.5",
                               "--which", "sphere", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["n"] for r in rows] == [4, 8]
        assert all(isinstance(r["sphere_log"], float) for r in rows)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--nld", "-1.5",
                               "--out", str(path))
        assert code == 0 and out == ""
        text = path.read_text(encoding="utf-8")
        assert text.startswith("n,") and text.endswith("\n") and "\r" not in text

    def test_out_path_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "4", "--nld", "-1.5", "--out", str(path)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.count("\n") == 1 and "usage error" in err and str(path) in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "1:6", "--nld", "-1.5"],
        ["asym", "--n", "1:6", "--nld", "-1.5"],
        ["invert", "--n", "1:3", "--eps", "0.01"],
        ["simulate", "--lattice", "A2", "--sigma2", "0.1", "--trials", "2000", "--seed", "3"],
        ["simulate", "--lattice", "Z1", "--target-eps", "0.1", "--trials", "2000", "--seed", "3"],
        ["equiv", "--n", "3", "--r", "0.5,1"],
        ["bounds", "--n", "4", "--nld", "-800"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_json_and_csv_carry_the_same_table(self, argv, capsys):
        code, csv_out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, rows = parse_csv(csv_out)
        code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON (RFC 8259)")

        records = [json.loads(line, parse_constant=reject)
                   for line in json_out.strip().split("\n")]
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            assert list(record) == header
            # A non-finite cell is null in JSON and nan, inf or -inf in the CSV.
            assert {k: row[k] if v is None and row[k] in ("nan", "inf", "-inf") else str(v)
                    for k, v in record.items()} == row

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "4", "--nld", "-1.5", "--bogus"])
        assert exc.value.code == 2

    def test_numerical_failure_exit_1(self, monkeypatch, capsys):
        from icawgn import bounds as bounds_mod

        def explode(n, r, sigma2):
            raise ArithmeticError("synthetic non-convergence")

        monkeypatch.setattr(bounds_mod, "equivalence_sides", explode)
        code = main(["equiv", "--n", "3", "--r", "1.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: numerical:")

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
