import json
import math

import numpy as np
import pytest

from icawgn.cli import _parse_n_range, main
from icawgn.lattices import clopper_pearson


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


class TestBoundsCommand:
    def test_projection_to_requested_columns(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--nld", "-1.5",
                               "--which", "sphere")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["n", "sphere", "sphere_log"]
        assert len(rows) == 1

    def test_log_column_matches_linear_when_unclamped(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--n", "8:64:x2", "--nld", "-1.5")
        _, rows = parse_csv(out)
        for row in rows:
            for kind in ("sphere", "ml", "typicality", "poltyrev"):
                lin = float(row[kind])
                lg = float(row[kind + "_log"])
                if lin < 1.0:
                    assert lg == pytest.approx(math.log(lin), rel=1e-12)

    def test_figure_sweep_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2:1000:x2",
                               "--nld", "-1.5", "--sigma2", "1")
        header, rows = parse_csv(out)
        assert code == 0
        assert [r["n"] for r in rows] == ["2", "4", "8", "16", "32", "64", "128",
                                          "256", "512", "1024"][:len(rows)]
        assert header[0] == "n" and "ml" in header and "poltyrev" in header

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
        exact = bound_curves([16], -1.5, 1.0, ["sphere"])["sphere"].value[0]
        assert float(rows[0]["sphere"]) == exact


class TestBoundsEdgeContract:
    """Exit status and stderr of `bounds` at the edges of its domain."""

    def test_radius_overflow_is_numerical_failure(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "4", "--nld", "-800")
        assert code == 1 and out == ""
        assert err.startswith("error: numerical:")

    def test_radius_underflow_gives_exact_values(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "4", "--nld", "800",
                                 "--which", "sphere,ml")
        assert code == 0 and err == ""
        assert out == "n,sphere,sphere_log,ml,ml_log\n4,1.0,0.0,1.0,0.0\n"

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--nld", "800", "--which", "poltyrev"],   # radius underflows to 0
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
            return {k: bounds_mod.BoundCurve(logs[k], logs[k] > 0.0) for k in kinds}

        monkeypatch.setattr(bounds_mod, "bound_curves", vacuous)
        code, out, err = run_cli(capsys, "bounds", "--n", "1:3", "--nld", "-1.5",
                                 "--which", "ml,sphere")
        assert code == 0
        assert err.splitlines() == [
            "warning: ml bound exceeds 1 at n=1 (clamped, vacuous)",
            "warning: ml bound exceeds 1 at n=3 (clamped, vacuous)",
            "warning: sphere bound exceeds 1 at n=3 (clamped, vacuous)",
        ]
        _, rows = parse_csv(out)
        assert [r["ml"] for r in rows] == ["1.0", "0.36787944117144233", "1.0"]
        assert rows[0]["ml_log"] == "0.5"


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
        _, out, _ = run_cli(capsys, "asym", "--n", "100:1000:x10", "--nld", "-1.5")
        _, rows = parse_csv(out)
        r100 = float(rows[0]["sphere_ratio"])
        r1000 = float(rows[-1]["sphere_ratio"])
        assert abs(r1000 - 1.0) < abs(r100 - 1.0)

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
        assert header == ["n", "delta_converse", "delta_achievable", "delta_approx",
                          "delta_star", "delta_cr",
                          "gap_db_converse", "gap_db_achievable", "gap_db_approx"]
        for row in rows:
            n = int(row["n"])
            conv = float(row["delta_converse"])
            ach = float(row["delta_achievable"])
            approx = float(row["delta_approx"])
            assert ach <= conv
            assert abs(n * (conv - approx)) <= 20.0
            assert abs(n * (ach - approx)) <= 20.0
            assert float(row["gap_db_achievable"]) >= float(row["gap_db_converse"])

    def test_n1_row_present(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--n", "1", "--eps", "0.01")
        _, rows = parse_csv(out)
        assert code == 0 and rows[0]["n"] == "1"
        assert float(rows[0]["delta_converse"]) < 0.0


class TestSimulateCommand:
    def test_reproducible_rows(self, capsys):
        args = ("simulate", "--lattice", "D4", "--sigma2", "0.05",
                "--trials", "20000", "--seed", "7", "--streams", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

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
        assert "scale" in header and "gap_db" in header
        row = rows[0]
        assert float(row["scale"]) > 0 and float(row["gap_db"]) > 0
        # delta of the scaled lattice: -ln(scale) for a unimodular generator
        assert float(row["delta"]) == pytest.approx(-math.log(float(row["scale"])),
                                                    rel=1e-10)

    def test_reserved_lattice_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--lattice", "S127", "--trials", "10"])
        assert exc.value.code == 2


class TestEquivCommand:
    def test_header_and_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "--n", "3", "--r", "0.5,1.0",
                               "--sigma2", "1")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["n", "r", "lhs", "rhs", "rel_discrepancy"]
        assert len(rows) == 2
        for row in rows:
            assert float(row["rel_discrepancy"]) <= 1e-6

    def test_out_of_range_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--n", "9", "--r", "1.0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("r", ["1000", "1e6"])
    def test_radius_past_hundred_sigma_is_usage_error(self, r, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--n", "3", "--r", r])
        assert exc.value.code == 2
        assert "r/sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["1e-30", "1e-200"])
    def test_radius_whose_right_side_underflows_is_usage_error(self, r, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--n", "8", "--r", r])
        assert exc.value.code == 2
        assert "underflows" in capsys.readouterr().err


class TestOutputPlumbing:
    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4:8:x2", "--nld", "-1.5",
                               "--which", "sphere", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["n"] for r in rows] == [4, 8]
        assert all(isinstance(r["sphere"], float) for r in rows)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--nld", "-1.5",
                               "--out", str(path))
        assert code == 0 and out == ""
        text = path.read_text(encoding="utf-8")
        assert text.startswith("n,") and text.endswith("\n") and "\r" not in text

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--n", "4", "--nld", "-1.5", "--bogus"])
        assert exc.value.code == 2

    def test_numerical_failure_exit_1(self, monkeypatch, capsys):
        from icawgn import bounds as bounds_mod
        from icawgn.quadrature import QuadratureError

        def explode(n, r, sigma2):
            raise QuadratureError("synthetic non-convergence")

        monkeypatch.setattr(bounds_mod, "equivalence_sides", explode)
        code = main(["equiv", "--n", "3", "--r", "1.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: numerical:")

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
