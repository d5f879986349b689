import argparse
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import meanshare
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

    @pytest.mark.parametrize("flags", [("--sigma", "inf", "--cost", "1/900"), ("--sigma", "inf"),
                                       ("--sigma", "nan")])
    def test_non_finite_sigma_exits_1(self, capsys, flags):
        code, out, err = run_cli(capsys, "solve-alpha", "--agents", "9", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: sigma must be positive and finite")

    def test_sigma_overflowing_default_cost_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "solve-alpha", "--agents", "9", "--sigma", "1e200")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "cost" in err

    def test_csv_row_reports_iterations(self, capsys, canonical):
        code, out, _ = run_cli(capsys, "solve-alpha", "--agents", "9", "--format", "csv")
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert int(row["iterations"]) == solve_alpha(canonical).iterations

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

    def test_cost_beyond_float_range_exits_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve-alpha", "--agents", "9", "--cost", "1e400"])
        assert ei.value.code == 1
        assert "--cost" in capsys.readouterr().err

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
        # the recommended profile plus the 8 menu entries that submit data
        # and differ from it ("estimator: plain mean" repeats row 0)
        assert len(rows) == 9
        assert not {"n=0", "submit nothing"} & {r["strategy"] for r in rows}
        assert not any(r["profitable_deviation"] for r in rows)

    def test_mc_vs_closed_form_without_alpha_exits_1(self, capsys, monkeypatch):
        # rejected before any Monte-Carlo work
        monkeypatch.setattr(cli.sim, "run_replications", None)
        code, out, err = run_cli(capsys, "experiment", "mc-vs-closed-form",
                                 "--replications", "1000", "--agents", "4")
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

    @pytest.mark.parametrize("command", ["nash-sweep", "ir-check"])
    def test_infinite_epsilon_exits_1(self, capsys, command):
        # k_eps(inf) used to be 0, and the sweep died dividing by it
        code, out, err = run_cli(capsys, "experiment", command, "--mechanism", "corrupt-deploy",
                                 "--epsilon", "inf", "--replications", "1000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "epsilon" in err

    @pytest.mark.parametrize("argv", [
        ("nash-sweep", "--epsilon", "inf"),
        # the corrupt-deploy default, given explicitly, is still not read
        ("nash-sweep", "--epsilon", "0.5"),
        ("ir-check", "--mechanism", "pool", "--epsilon", "0.1"),
        ("ir-check", "--mechanism", "size-check", "--epsilon", "0.1"),
        ("nash-sweep", "--unrestricted"),
        ("nash-sweep", "--mechanism", "pool", "--unrestricted"),
        ("nash-sweep", "--mechanism", "corrupt-deploy", "--unrestricted"),
    ], ids=["cross-check --epsilon inf", "cross-check --epsilon 0.5", "pool --epsilon",
            "size-check --epsilon", "cross-check --unrestricted", "pool --unrestricted",
            "corrupt-deploy --unrestricted"])
    def test_flag_of_another_mechanism_exits_1(self, capsys, monkeypatch, argv):
        # each used to run, ignoring the flag; now rejected before any
        # Monte-Carlo work
        monkeypatch.setattr(cli.sim, "run_replications", None)
        code, out, err = run_cli(capsys, "experiment", *argv, "--replications", "1000")
        assert code == 1
        assert out == ""
        flag = next(a for a in argv if a in ("--epsilon", "--unrestricted"))
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("mechanism,argv,epsilon", [
        ("corrupt-deploy", (), 0.5),
        ("corrupt-deploy", ("--epsilon", "0.1"), 0.1),
        ("cross-check", (), None),
        ("pool", (), None),
    ])
    def test_epsilon_reaches_corrupt_deploy_only(self, capsys, monkeypatch, mechanism, argv,
                                                 epsilon):
        seen = []
        monkeypatch.setattr(cli.sim, "ir_check",
                            lambda sc: seen.append(sc.epsilon) or {"ok": True})
        code, _, _ = run_cli(capsys, "experiment", "ir-check", "--mechanism", mechanism, *argv)
        assert code == 0
        assert seen == [epsilon]

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


COMMON_FLAGS = {"--sigma", "--cost", "--nstar", "--dim", "--format", "--out"}
RUN_FLAGS = {"--agents", "--replications", "--seed"}
# the flags each experiment reads besides the common ones
EXPERIMENT_FLAGS = {
    "pos-table": {"--m-range"},
    "ir-check": RUN_FLAGS | {"--mechanism", "--epsilon"},
    "mc-vs-closed-form": RUN_FLAGS,
    "nash-sweep": RUN_FLAGS | {"--mechanism", "--epsilon", "--mu-grid", "--unrestricted"},
    "highdim-check": RUN_FLAGS | {"--mu-grid"},
}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestExperimentFlags:
    def test_each_experiment_takes_only_the_flags_it_reads(self):
        experiments = _subcommands(_subcommands(cli.build_parser())["experiment"])
        taken = {name: {o for a in sub._actions for o in a.option_strings
                        if o.startswith("--") and o != "--help"}
                 for name, sub in experiments.items()}
        assert taken == {name: COMMON_FLAGS | flags for name, flags in EXPERIMENT_FLAGS.items()}
        assert sum(len(flags) for flags in taken.values()) == 50

    @pytest.mark.parametrize("argv", [
        ("experiment", "highdim-check", "--mechanism", "pool"),
        ("experiment", "pos-table", "--replications", "0"),
        ("experiment", "ir-check", "--mu-grid", "0,5"),
        ("experiment", "mc-vs-closed-form", "--epsilon", "0.1"),
        ("experiment", "mc-vs-closed-form", "--mechanism", "pool"),
        ("experiment", "nash-sweep", "--m-range", "5:6"),
        ("experiment", "--agents", "9", "nash-sweep"),
        ("solve-alpha", "--agents", "9", "--cost", "1/900", "--nstar", "5"),
        # the --nstar default, given explicitly, still conflicts
        ("solve-alpha", "--agents", "9", "--cost", "1/900", "--nstar", "10"),
        ("experiment", "ir-check", "--nstar", "5", "--cost", "1/900"),
    ], ids=["highdim-check --mechanism", "pos-table --replications", "ir-check --mu-grid",
            "mc-vs-closed-form --epsilon", "mc-vs-closed-form --mechanism",
            "nash-sweep --m-range", "flag before the experiment", "--cost and --nstar",
            "--cost and default --nstar", "--nstar and --cost"])
    def test_flag_not_taken_exits_1(self, capsys, monkeypatch, argv):
        # rejected while parsing, before any Monte-Carlo work
        monkeypatch.setattr(cli.sim, "run_replications", None)
        with pytest.raises(SystemExit) as ei:
            main(list(argv))
        assert ei.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: " in err

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words[1:] for words in lines if words[:1] == ["meanshare"]]
        assert {argv[1] for argv in commands if argv[0] == "experiment"} == set(EXPERIMENT_FLAGS)
        for argv in commands:
            cli.build_parser().parse_args(argv)


def test_import_loads_no_scipy():
    # set-up cost: the package computes erfcx itself, so importing the CLI
    # must load no scipy module at all
    code = ("import sys; import meanshare, meanshare.cli; "
            "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(meanshare.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert out == []
