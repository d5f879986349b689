import csv
import io
import json
import math
from dataclasses import replace

import pytest

from meanshare import cli
from meanshare.alphasolve import solve_alpha
from meanshare.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveAlpha:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "solve-alpha", "--agents", "9",
                               "--sigma", "1", "--cost", "1/900")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        row = rows[0]
        for key in ("sigma", "cost", "agents", "dim", "n_star", "alpha",
                    "a_m", "bracket_lo", "bracket_hi", "residual", "warnings"):
            assert key in row
        assert row["n_star"] == 10
        assert row["bracket_lo"] < row["alpha"] < row["bracket_hi"]
        assert abs(row["residual"]) < 1e-9
        # a_m = alpha / sqrt(n*) lies in the bracket's relative window
        assert 1.0 < row["a_m"] < 1 + 20.0 / 9.0

    def test_rerun_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "solve-alpha", "--agents", "9")
        _, out2, _ = run_cli(capsys, "solve-alpha", "--agents", "9")
        assert out1 == out2

    def test_small_m_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve-alpha", "--agents", "4")
        assert code == 1
        assert "5 or more" in err

    @pytest.mark.parametrize("flags,word", [(("--nstar", "0"), "n_star"),
                                            (("--dim", "0"), "dim")])
    def test_bad_nstar_or_dim_exits_1(self, capsys, flags, word):
        code, out, err = run_cli(capsys, "solve-alpha", "--agents", "9", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and word in err

    def test_default_cost_matches_explicit(self, capsys):
        _, out1, _ = run_cli(capsys, "solve-alpha", "--agents", "9",
                             "--nstar", "10")
        _, out2, _ = run_cli(capsys, "solve-alpha", "--agents", "9",
                             "--cost", "1/900")
        assert json.loads(out1) == json.loads(out2)

    def test_bad_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve-alpha", "--agents", "nine"])
        assert ei.value.code == 1

    def test_bad_rational_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve-alpha", "--agents", "9", "--cost", "1/0"])
        assert ei.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 1


class TestFigures:
    def test_g_check_csv(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "g-check",
                               "--m-range", "5:40")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 36
        assert set(rows[0].keys()) == {"m", "g_at_bracket_hi"}
        for r in rows:
            v = float(r["g_at_bracket_hi"])
            assert v > 0
            # 17-significant-digit round trip
            assert f"{v:.17g}" == r["g_at_bracket_hi"]

    def test_em_check(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "em-check",
                               "--m-range", "5:30")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 26
        for r in rows:
            assert float(r["e_of_m"]) < float(r["bound"])

    def test_em_check_prints_solver_warnings(self, capsys, monkeypatch):
        def solve_with_warning(p):
            return replace(solve_alpha(p), warnings=("3 sign changes detected",))

        _, quiet_out, _ = run_cli(capsys, "figures", "em-check", "--m-range", "5:6")
        monkeypatch.setattr(cli, "solve_alpha", solve_with_warning)
        code, out, err = run_cli(capsys, "figures", "em-check", "--m-range", "5:6")
        assert code == 0
        assert out == quiet_out
        assert err.splitlines() == ["warning: m=5: 3 sign changes detected",
                                    "warning: m=6: 3 sign changes detected"]

    def test_write_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, "figures", "g-check",
                               "--m-range", "5:7", "--out", str(out_file))
        assert code == 0
        assert out == ""
        rows = list(csv.DictReader(out_file.open()))
        assert [r["m"] for r in rows] == ["5", "6", "7"]

    def test_rejects_small_m_range(self, capsys):
        code, _, err = run_cli(capsys, "figures", "g-check", "--m-range", "3:9")
        assert code == 1

    def test_bad_range_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["figures", "g-check", "--m-range", "9"])
        assert ei.value.code == 1


class TestExperiments:
    def test_pos_table(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "pos-table",
                               "--m-range", "2:12", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["m"] for r in rows] == list(range(2, 13))
        for r in rows:
            if r["m"] <= 4:
                assert math.isnan(r["alpha"])
                assert r["pos"] == pytest.approx((r["m"] + 1) / (2 * math.sqrt(r["m"])))
            else:
                assert 1.0 < r["pos"] < 2.0
        m9 = next(r for r in rows if r["m"] == 9)
        assert m9["pos"] == pytest.approx(1.6767, abs=5e-5)

    def test_ir_check(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "ir-check",
                               "--agents", "9", "--replications", "20000",
                               "--seed", "5")
        assert code == 0
        row = json.loads(out)[0]
        assert row["ok"] is True
        assert row["participating"] < row["standalone"]

    def test_mc_vs_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "mc-vs-closed-form",
                               "--agents", "9", "--replications", "100000",
                               "--seed", "5")
        assert code == 0
        row = json.loads(out)[0]
        assert row["gap"] <= 3 * row["std_error"]
        assert row["ok"] is True

    def test_nash_sweep_size_check_restricted(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "nash-sweep",
                               "--mechanism", "size-check", "--agents", "9",
                               "--replications", "20000", "--seed", "5")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["strategy"] == "recommended"
        assert not any(r["profitable_deviation"] for r in rows)

    def test_nash_sweep_size_check_unrestricted(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "nash-sweep",
                               "--mechanism", "size-check", "--agents", "9",
                               "--replications", "20000", "--seed", "5",
                               "--unrestricted")
        assert code == 0
        rows = json.loads(out)
        # the fabrication entry beats honest collection
        assert any(r["profitable_deviation"] for r in rows)

    def test_nash_sweep_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "nash-sweep",
                               "--agents", "9", "--replications", "20000",
                               "--seed", "5", "--mu-grid", "0,5,-5")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        assert not any(r["profitable_deviation"] for r in rows)

    def test_nash_sweep_corrupt_deploy(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "nash-sweep",
                               "--mechanism", "corrupt-deploy", "--agents", "9",
                               "--replications", "20000", "--seed", "5")
        assert code == 0
        rows = json.loads(out)
        # the recommended profile plus the 9 menu entries that submit data
        assert len(rows) == 10
        assert not {"n=0", "submit nothing"} & {r["strategy"] for r in rows}
        assert not any(r["profitable_deviation"] for r in rows)

    @pytest.mark.parametrize("flags", [("--mechanism", "pool"), ("--agents", "4")])
    def test_mc_vs_closed_form_without_alpha_exits_1(self, capsys, monkeypatch, flags):
        # rejected before any Monte-Carlo work
        monkeypatch.setattr(cli.sim, "run_replications", None)
        code, out, err = run_cli(capsys, "experiment", "mc-vs-closed-form",
                                 "--replications", "1000", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "cross-check" in err

    def test_pos_table_too_few_agents_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "pos-table", "--m-range", "0:3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "agents" in err

    def test_zero_replications_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "nash-sweep",
                                 "--replications", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "replications" in err

    def test_non_finite_mu_grid_exits_1(self, capsys):
        # a NaN offset used to print unflagged nan penalties and exit 0
        code, out, err = run_cli(capsys, "experiment", "nash-sweep",
                                 "--replications", "1000", "--mu-grid", "nan,5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "mu_grid" in err

    def test_highdim_check(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "highdim-check",
                               "--agents", "9", "--dim", "3",
                               "--replications", "20000", "--seed", "5")
        assert code == 0
        row = json.loads(out)[0]
        assert row["ok"] is True
        assert row["pos_ok"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "pos-table",
                               "--m-range", "5:7", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert set(rows[0].keys()) == {"m", "alpha", "pos"}
