import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import crowdflow
from crowdflow.cli import build_parser, main
from crowdflow.config import ConfigError, ExperimentConfig
from crowdflow.experiments import run_experiment, write_csv
from crowdflow.svgplot import line_chart

BASE = """
potential.kind = quadratic
potential.q = 1.0
init.boxes = 1,2,1
grid.lo = -3
grid.hi = 3
grid.n = 600
quantile.n = 120
jko.h = 0.02
run.T = 0.2
"""


def cfg_file(tmp_path, extra="", name="cfg.txt"):
    path = tmp_path / name
    path.write_text(BASE + extra)
    return str(path)


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = ExperimentConfig.from_text(
            "jko.h = 1.5\n# comment\nm.list = 4,8,inf\n")
        assert cfg.get_float("jko.h") == 1.5
        assert cfg.get_m_list() == [4.0, 8.0, math.inf]
        assert ExperimentConfig({"m": " Infinity "}).get_m() == math.inf

    def test_missing_key_raises(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({}).get_float("nope")

    def test_malformed_line_raises(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("no equals sign here\n")

    def test_unsorted_m_list_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"m.list": "8,4"}).get_m_list()

    def test_boxes_parse(self):
        cfg = ExperimentConfig({"init.boxes": "0,1,0.5;1.5,2,1"})
        assert cfg.boxes() == [(0.0, 1.0, 0.5), (1.5, 2.0, 1.0)]

    def test_hash_stable_and_order_free(self):
        c1 = ExperimentConfig({"a": "1", "b": "2"})
        c2 = ExperimentConfig({"b": "2", "a": "1"})
        assert c1.hash() == c2.hash()

    def test_bad_numbers_name_their_key(self, tmp_path, capsys):
        for kind, key, extra in [
                ("single-run", "m", "m = abc\n"),
                ("converge-m", "m.list", "m.list = 4,x\n"),
                ("single-run", "potential.q", "potential.q = abc\n"),
                ("single-run", "init.boxes", "init.boxes = 1,x,1\n")]:
            out = str(tmp_path / "never")
            assert main([kind, "--config", cfg_file(tmp_path, extra),
                         "--out", out]) == 2, extra
            assert f"key {key!r}" in capsys.readouterr().err, extra
            assert not os.path.exists(out)

    # kind, config lines with {} for each bad value, the key, the values.
    # The two pme.dt rows held before; each other value once gave a hang
    # (while t < inf), an OverflowError traceback with exit 1, a warning
    # and a message about snapshot times, a silent PASS with no step
    # (jko.h = inf), one RK4 step per snapshot (heleshaw.dt = inf), a
    # KeyError (a nan time), an IndexError (no time), no key named (times
    # out of order too), or numpy's "zero-size array" (fewer than two
    # finite m).  The count and level rows once named no key: "max() arg
    # is an empty sequence" (no trial), numpy's "expected non-negative
    # integer" (seed), "need at least two quantile cells", "mass ratio too
    # extreme", "converge-h needs at least two halvings", "support
    # threshold must be positive" and "Hausdorff distance needs nonempty
    # patches" (eps_supp).  The m rows exited 2 without naming the key.
    # A non-finite domain, grid bound or box once warned, then gave a nan
    # modulus (jko and pme exited 0), "positive Laplacian" (heleshaw) or
    # "density values must be nonnegative"; a patch run read no box height,
    # so a height other than 1 exited 0.  A box off the grid, a negative or
    # zero box, overlapping patch boxes, grid.lo >= grid.hi and a radial grid
    # off r = 0 once exited 2 with a message that named no key, and so did
    # an unknown run.scheme
    @pytest.mark.parametrize("kind, extra, key, bads", [
        ("single-run", "run.scheme = pme\nm = 3\npme.dt = {}\n", "pme.dt",
         ("0", "-0.01", "nan", "inf")),
        ("crossval", "m.list = 4,8\npme.dt = {}\n", "pme.dt",
         ("0", "-0.01", "nan", "inf")),
        ("single-run", "run.T = {}\n", "run.T", ("inf", "nan")),
        ("longtime", "run.T = {}\n", "run.T", ("inf",)),
        ("single-run", "run.scheme = pme\nm = 3\nrun.T = {}\n", "run.T",
         ("inf",)),
        ("single-run", "run.scheme = heleshaw\nrun.T = {}\n", "run.T",
         ("inf",)),
        ("single-run", "jko.h = {}\n", "jko.h", ("inf",)),
        ("crossval", "m.list = 4,8\nheleshaw.dt = {}\n", "heleshaw.dt",
         ("inf", "0")),
        ("crossval", "m.list = 4,8\ncrossval.times = {}\n", "crossval.times",
         ("0.25,inf", "0.25,nan,1", "", "0.5,0.25")),
        ("crossval", "m.list = {}\n", "m.list", ("4", "4,inf")),
        ("compare", "trials = {}\n", "trials", ("0", "-2")),
        ("compare", "seed = {}\n", "seed", ("-1",)),
        ("single-run", "quantile.n = {}\n", "quantile.n", ("1", "-5")),
        ("compare", "trials = 1\nquantile.n = {}\n", "quantile.n", ("1",)),
        ("converge-h", "h.halvings = {}\n", "h.halvings", ("1", "0")),
        ("single-run", "grid.n = {}\n", "grid.n", ("0", "-600")),
        ("single-run", "grid.dim = {}\n", "grid.dim", ("0", "-1")),
        ("crossval", "m.list = 4,8\npme.eps_supp = {}\n", "pme.eps_supp",
         ("0", "2", "1", "-0.25", "nan")),
        ("single-run", "m = {}\n", "m", ("1", "0.5", "nan", "-inf")),
        ("single-run", "run.scheme = pme\nm = {}\n", "m", ("1",)),
        ("converge-m", "m.list = {}\n", "m.list", ("1,4,8", "nan,4")),
        ("longtime", "init2.boxes = 2,3,1\nm.list = {}\n", "m.list",
         ("0.5,inf",)),
        ("single-run", "potential.domain = {}\n", "potential.domain",
         ("-inf,8", "-8,inf", "nan,8")),
        ("single-run", "run.scheme = pme\nm = 3\npotential.domain = {}\n",
         "potential.domain", ("-inf,8",)),
        ("single-run", "run.scheme = heleshaw\npotential.domain = {}\n",
         "potential.domain", ("-inf,8",)),
        ("single-run", "grid.lo = {}\n", "grid.lo", ("-inf", "nan")),
        ("single-run", "grid.hi = {}\n", "grid.hi", ("inf",)),
        ("single-run", "init.boxes = {}\n", "init.boxes",
         ("1,2,inf", "1,2,nan", "-inf,2,1")),
        ("longtime", "init2.boxes = {}\n", "init2.boxes", ("2,3,inf",)),
        ("crossval", "m.list = 4,8\ninit.boxes = {}\n", "init.boxes",
         ("1,2,0.5", "1,2,1;2.5,3,2")),
        ("single-run", "run.scheme = heleshaw\ninit.boxes = {}\n",
         "init.boxes", ("1,2,0.5",)),
        ("single-run", "init.boxes = {}\n", "init.boxes",
         ("5,6,1", "-4,0,1")),
        ("crossval", "m.list = 4,8\ngrid.hi = 2.5\ninit.boxes = {}\n",
         "init.boxes", ("1,3,1",)),
        ("crossval", "m.list = 4,8\ninit.boxes = {}\n", "init.boxes",
         ("1,2,1;1.5,2.5,1", "2,3,1;1,1.5,1")),
        ("single-run", "grid.lo = {}\n", "grid.lo", ("5", "3")),
        ("single-run", "grid.dim = 3\ngrid.lo = {}\n", "grid.lo",
         ("-3", "0.5")),
        ("single-run", "init.boxes = {}\n", "init.boxes",
         ("1,2,-1", "1,2,0")),
        ("single-run", "run.scheme = {}\n", "run.scheme", ("nope",)),
    ], ids=["single-run-pme.dt", "crossval-pme.dt", "jko-run.T",
            "longtime-run.T", "pme-run.T", "heleshaw-run.T", "jko-jko.h",
            "crossval-heleshaw.dt", "crossval-times", "crossval-m.list",
            "compare-trials", "compare-seed", "jko-quantile.n",
            "compare-quantile.n", "converge-h-h.halvings", "grid.n",
            "grid.dim", "crossval-pme.eps_supp", "jko-m", "pme-m",
            "converge-m-m.list", "longtime-m.list", "jko-potential.domain",
            "pme-potential.domain", "heleshaw-potential.domain", "grid.lo",
            "grid.hi", "init.boxes", "init2.boxes", "crossval-init.boxes",
            "heleshaw-init.boxes", "init.boxes-off-grid",
            "crossval-init.boxes-off-grid", "crossval-init.boxes-overlap",
            "grid.lo-not-below-grid.hi", "radial-grid.lo",
            "init.boxes-not-positive", "run.scheme"])
    def test_unusable_value_names_its_key(self, tmp_path, capsys, kind,
                                          extra, key, bads):
        for bad in bads:
            out = str(tmp_path / "never")
            cfg = cfg_file(tmp_path, extra.format(bad))
            if "inf" in bad and key == "crossval.times":
                # a run that would never end: in a child with a deadline
                src = str(Path(crowdflow.__file__).resolve().parents[1])
                proc = subprocess.run(
                    [sys.executable, "-W", "error", "-m", "crowdflow.cli",
                     kind, "--config", cfg, "--out", out],
                    env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                    text=True, timeout=60, check=False)
                code, err = proc.returncode, proc.stderr
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([kind, "--config", cfg, "--out", out])
                err = capsys.readouterr().err
            assert code == 2, bad
            assert f"key {key!r}" in err, (bad, err)
            assert not os.path.exists(out)

    def test_worker_flag_names_itself(self, tmp_path, capsys):
        # once a serial run with exit 0
        out = str(tmp_path / "never")
        assert main(["single-run", "--config", cfg_file(tmp_path),
                     "--workers", "-3", "--out", out]) == 2
        assert "key '--workers'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negligible_leading_coefficient_names_its_key(self, tmp_path,
                                                          capsys):
        # a subnormal leading coefficient once overflowed the companion
        # matrix: a RuntimeWarning, then LinAlgError "Array must not
        # contain infs or NaNs", which named neither key nor cause
        cfgp = tmp_path / "cfg.txt"
        cfgp.write_text(BASE.replace(
            "potential.kind = quadratic\npotential.q = 1.0\n",
            "potential.kind = custom-polynomial\npotential.domain = -3,3\n"
            "potential.coef = 0,-0.26,1.15,8.5e-203,5e-324\n"))
        out = str(tmp_path / "never")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["single-run", "--config", str(cfgp),
                         "--out", out]) == 2
        err = capsys.readouterr().err
        assert "key 'potential.coef'" in err and "negligible" in err
        assert not os.path.exists(out)

    def test_misspelt_potential_key_rejected(self):
        # not dropped in favour of the default q = 1
        cfg = ExperimentConfig.from_text(BASE + "potential.qq = 5\n")
        with pytest.raises(ConfigError, match="'qq'"):
            cfg.potential()

    @pytest.mark.parametrize("line", [
        "workers = 2", "out = elsewhere", "jko.tol = 1e-9",
        "jko.max_iterations = 50", "threshold.final_ratio = 0.5",
        "threshold.slope = 0.45", "jko.hh = 0.5"],
        ids=["workers", "out", "jko.tol", "jko.max_iterations",
             "threshold.final_ratio", "threshold.slope", "misspelt"])
    def test_key_no_experiment_reads_names_itself(self, tmp_path, capsys,
                                                  line):
        # retired keys and typos were once ignored: exit 0 on the defaults
        out = tmp_path / "never"
        key = line.split(" = ")[0]
        assert main(["single-run", "--config", cfg_file(tmp_path, line + "\n"),
                     "--out", str(out)]) == 2
        assert f"key {key!r}: no experiment reads it" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_kind(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig({}), kind="does-not-exist")


class TestCli:
    def test_radial_pme_ledger_records_its_own_flow(self, tmp_path):
        # the radial (d = 3) pme run of CI's console step: its ledger
        # records int rho^m/(m-1) + rho Phi, the energy the pme flow
        # decreases, so every verdict passes
        text = (Path(__file__).resolve().parents[1] / "configs"
                / "single_run.txt").read_text()
        cfgp = tmp_path / "pme-radial.txt"
        cfgp.write_text(text + "run.scheme = pme\nm = 3\nrun.T = 0.2\n"
                        "pme.dt = 0.01\ngrid.dim = 3\ngrid.lo = 0\n"
                        "init.boxes = 0.5,1.0,1\n")
        out = tmp_path / "out"
        assert main(["single-run", "--config", str(cfgp), "--out",
                     str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert {c["id"]: c["pass"] for c in doc["criteria"]} == {
            "single-run.energy-monotone": True,
            "single-run.mass-constant": True}

    def test_single_run_pass_and_artifacts(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["single-run", "--config", cfg_file(tmp_path, "m = inf\n"),
                     "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "report.json"))
        assert os.path.exists(os.path.join(out, "ledger.csv"))
        doc = json.loads(Path(out, "report.json").read_text())
        assert all(c["pass"] for c in doc["criteria"])
        assert {c["id"] for c in doc["criteria"]} >= {
            "single-run.energy-monotone", "single-run.mass-constant"}
        assert doc["config_hash"]

    def test_single_run_writes_jko_states_at_the_snapshot_times(self, tmp_path):
        # 11 states and 3 snapshots: a stride of 3 wrote steps 0, 3, 6, 9
        # and never the final state at T
        out = tmp_path / "out"
        assert main(["single-run", "--config",
                     cfg_file(tmp_path, "m = inf\nsnapshots = 3\n"),
                     "--out", str(out)]) == 0
        written = sorted(p.name for p in out.glob("state_*.csv"))
        assert written == [f"state_{k:05d}.csv" for k in (0, 3, 7, 10)]
        # the last file holds the final state: its support is the one in
        # the ledger's last row
        last = (out / "ledger.csv").read_text().splitlines()[-1].split(",")
        nodes = [float(row.split(",")[1]) for row in
                 (out / "state_00010.csv").read_text().splitlines()[1:]]
        assert (nodes[0], nodes[-1]) == (float(last[7]), float(last[8]))

    @pytest.mark.parametrize("extra", ["m = inf\n", "run.scheme = pme\nm = 3\n",
                                       "run.scheme = heleshaw\n"],
                             ids=["jko", "pme", "heleshaw"])
    def test_single_run_writes_its_report_tables_and_nothing_else(
            self, tmp_path, extra):
        # every file a run leaves is report.json or one of its report's
        # tables, and --plots charts each table
        cfgp = cfg_file(tmp_path, "grid.n = 120\nsnapshots = 3\n" + extra)
        tables = run_experiment(ExperimentConfig.from_file(cfgp),
                                kind="single-run").tables
        assert tables
        for flags, suffixes in (([], (".csv",)), (["--plots"], (".csv", ".svg"))):
            out = tmp_path / f"out{len(flags)}"
            assert main(["single-run", "--config", cfgp,
                         "--out", str(out)] + flags) == 0
            assert {p.name for p in out.iterdir()} == {"report.json"} | {
                name + suffix for name in tables for suffix in suffixes}

    def test_pme_single_run_rejects_m_inf(self, tmp_path, capsys):
        # m = inf, the configs' value, is the jko scheme's hard constraint:
        # the pme scheme names it as a config error before any step warns
        out = tmp_path / "never"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["single-run", "--config",
                         cfg_file(tmp_path, "run.scheme = pme\nm = inf\n"),
                         "--out", str(out)]) == 2
        assert "m = inf is the hard constraint of the jko scheme" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_csv_serialization(self, tmp_path):
        # header first, integers as integers, floats repr-exact
        path = tmp_path / "t.csv"
        write_csv(str(path), ["k", "x"],
                  [(0, 0.1), (np.int64(2), 1.0 / 3.0), (3, math.nan)])
        assert path.read_text().splitlines() == [
            "k,x", "0,0.10000000000000001", "2,0.33333333333333331", "3,nan"]
        assert not (tmp_path / "t.csv.tmp").exists()

    def test_reproducible_byte_identical(self, tmp_path):
        cfgp = cfg_file(tmp_path, "m = inf\n")
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["single-run", "--config", cfgp, "--out", out1]) == 0
        assert main(["single-run", "--config", cfgp, "--out", out2]) == 0
        for name in sorted(os.listdir(out1)):
            if name.endswith(".csv"):
                assert Path(out1, name).read_bytes() \
                    == Path(out2, name).read_bytes(), name

    def test_config_error_exit_2_no_partial_files(self, tmp_path):
        # a malformed file, then values the library rejects: none may leave
        # a traceback (exit 1, "a verdict failed") or a silent PASS
        for k, text in enumerate([
                "this is not a config\n",
                BASE + "grid.lo = 5\ngrid.hi = 4\n",
                BASE + "init.boxes = 5,6,1\n",
                BASE + "grid.n = inf\n",
                BASE + "grid.n = 600.5\n",
                BASE + "jko.h = -0.1\n",
                BASE + "potential.qq = 5\n",
                BASE + "snapshots = 0\n",
                BASE + "run.scheme = pme\nsnapshots = 0\n",
                BASE + "run.scheme = heleshaw\nsnapshots = 0\n"]):
            bad = tmp_path / f"bad{k}.txt"
            bad.write_text(text)
            out = str(tmp_path / f"never{k}")
            assert main(["single-run", "--config", str(bad), "--out", out]) \
                == 2, text
            assert not os.path.exists(out)

    def test_one_subcommand_per_experiment_kind(self):
        parser = build_parser()
        for kind in ("single-run", "converge-m", "converge-h", "compare",
                     "longtime", "crossval"):
            assert parser.parse_args([kind, "--config", "c.txt"]).kind == kind
        with pytest.raises(SystemExit):
            parser.parse_args(["does-not-exist", "--config", "c.txt"])

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch):
        # a budget of two Newton steps cannot reach a 1e-13 residual
        monkeypatch.setattr(crowdflow.jko, "JkoOptions", functools.partial(
            crowdflow.jko.JkoOptions, tol_grad=1e-13))
        monkeypatch.setattr(crowdflow.jko, "MAX_ITERATIONS", 2)
        cfgp = cfg_file(tmp_path, "m = 7\n")
        out = str(tmp_path / "nf")
        assert main(["single-run", "--config", cfgp, "--out", out]) == 3
        assert not os.path.exists(os.path.join(out, "report.json"))

    def test_failed_verdict_exit_1(self, tmp_path):
        # a sweep from m = 4 to 4.5 cannot halve the gap to the constrained
        # flow, so the final-ratio verdict fails cleanly
        cfgp = cfg_file(tmp_path, "m.list = 4,4.5\nrun.T = 0.1\n")
        out = str(tmp_path / "fv")
        assert main(["converge-m", "--config", cfgp, "--out", out]) == 1
        doc = json.loads(Path(out, "report.json").read_text())
        assert [c["id"] for c in doc["criteria"] if not c["pass"]] == \
            ["converge-m.final-ratio"]

    def test_plots_emitted(self, tmp_path):
        cfgp = cfg_file(tmp_path, "m.list = 4,8\nrun.T = 0.1\n")
        out = str(tmp_path / "pl")
        assert main(["converge-m", "--config", cfgp, "--out", out,
                     "--plots"]) in (0, 1)
        svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
        assert svgs
        body = Path(out, svgs[0]).read_text()
        assert body.startswith("<svg") and body.endswith("</svg>")

    def test_compare_plots_one_series_per_m(self, tmp_path):
        # compare's m column once held strings, which no chart axis can
        # place, and its chart took m for y: no row was charted and no
        # compare.svg was written
        cfgp = cfg_file(tmp_path, "trials = 2\nm.list = 5,50,inf\n"
                        "grid.lo = -4\ngrid.hi = 4\nquantile.n = 100\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfgp, "--out", str(out),
                     "--plots"]) == 0
        body = (out / "compare.svg").read_text()
        assert len(re.findall("<polyline ", body)) == 3
        assert all(f">m = {m}</text>" in body for m in ("5", "50", "inf"))
        assert ">trial</text>" in body and ">max_violation</text>" in body

    def test_longtime_plots_skip_the_infinite_exponent(self, tmp_path):
        # longtime's m column holds m = inf, which no chart axis can
        # place: the chart puts no m on an axis, and the run still prints
        # its verdicts and exits 0
        cfgp = cfg_file(tmp_path, "m.list = 10,inf\nsnapshots = 4\n"
                        "init2.boxes = 2,3,1\nrun.T = 0.05\n")
        out = tmp_path / "lt"
        assert main(["longtime", "--config", cfgp, "--out", str(out),
                     "--plots"]) == 0
        body = (out / "longtime.svg").read_text()
        assert body.startswith("<svg") and body.endswith("</svg>")

    def test_longtime_plots_one_series_per_m_against_t(self, tmp_path):
        # the chart's x axis is t, and each m, inf among them, is one
        # polyline through every sampled time
        cfgp = cfg_file(tmp_path, "m.list = 10,inf\nsnapshots = 4\n"
                        "init2.boxes = 2,3,1\nrun.T = 0.05\n")
        out = tmp_path / "lt"
        assert main(["longtime", "--config", cfgp, "--out", str(out),
                     "--plots"]) == 0
        body = (out / "longtime.svg").read_text()
        lines = re.findall(r'<polyline points="([^"]*)"', body)
        assert len(lines) == 2
        rows = (out / "longtime.csv").read_text().splitlines()[1:]
        for m, pts in zip(("10", "inf"), lines, strict=True):
            times = {r.split(",")[1] for r in rows if r.split(",")[0] == m}
            xs = {p.split(",")[0] for p in pts.split()}
            assert len(xs) == len(times) > 1, m
        assert ">m = 10</text>" in body and ">m = inf</text>" in body
        assert ">t</text>" in body and ">w2_to_stationary</text>" in body


class TestDrivers:
    def test_converge_m_table_and_flags(self, tmp_path):
        cfg = ExperimentConfig.from_text(
            BASE + "m.list = 4,8,16\nrun.T = 0.2\n")
        rep = run_experiment(cfg, kind="converge-m")
        header, rows = rep.tables["converge_m"]
        assert header == ["m", "sup_w2"]
        sups = [r[1] for r in rows]
        assert sups == sorted(sups, reverse=True)
        assert rep.all_passed

    def test_converge_m_zero_potential_notes_identification(self):
        cfg = ExperimentConfig.from_text(
            "potential.kind = custom-polynomial\npotential.coef = 0\n"
            + "init.boxes = 1,2,0.8\ngrid.lo = -3\ngrid.hi = 3\ngrid.n = 400\n"
            + "quantile.n = 80\njko.h = 0.02\nrun.T = 0.1\nm.list = 4,8\n")
        rep = run_experiment(cfg, kind="converge-m")
        assert any("not asserted" in n for n in rep.notes)

    def test_converge_m_too_short_list(self):
        cfg = ExperimentConfig.from_text(BASE + "m.list = 4\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg, kind="converge-m")

    def test_converge_h_slope_and_ci(self, tmp_path):
        cfg = ExperimentConfig.from_text(
            BASE + "m = inf\njko.h = 0.04\nh.halvings = 3\nrun.T = 0.4\n")
        rep = run_experiment(cfg, kind="converge-h")
        assert rep.criteria[0]["id"] == "converge-h.slope"
        lo, hi = rep.extras["slope_ci95"]
        assert lo <= rep.criteria[0]["value"] <= hi

    def test_compare_driver_seeded(self):
        cfg = ExperimentConfig.from_text(
            BASE + "trials = 3\nm.list = 5,inf\nseed = 7\ngrid.lo = -4\n"
            + "grid.hi = 4\nquantile.n = 100\n")
        rep = run_experiment(cfg, kind="compare")
        assert rep.all_passed
        header, rows = rep.tables["compare"]
        assert len(rows) == 6

    def test_longtime_requires_its_second_start(self, tmp_path, capsys):
        out = str(tmp_path / "never")
        assert main(["longtime", "--config", cfg_file(tmp_path),
                     "--out", out]) == 2
        assert "missing required key 'init2.boxes'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_longtime_finite_m_admits_density_above_one(self, tmp_path):
        # only the hard-constraint flow needs density <= 1: a finite-m
        # sweep from boxes of height 1.5 runs and passes both verdicts
        cfgp = cfg_file(tmp_path, "m.list = 10\ninit.boxes = 1,2,1.5\n"
                        "init2.boxes = 2,3,1.5\nsnapshots = 4\n"
                        "run.T = 0.05\n")
        assert main(["longtime", "--config", cfgp,
                     "--out", str(tmp_path / "lt")]) == 0

    def test_longtime_rejects_a_start_above_the_cap_before_any_step(
            self, monkeypatch):
        # either start above the density one that jko_step admits
        # (1 + EPS_FEAS) is a config error naming its key before the
        # finite-m legs run, not a raise in the m = inf leg after them;
        # the second start once went unchecked
        steps = []
        monkeypatch.setattr("crowdflow.jko.jko_step",
                            lambda *a, **k: steps.append(a))
        for key, box, box2 in (("init.boxes", "1,2,1.0000005", "2,3,1"),
                               ("init2.boxes", "1,2,1", "2,3,1.5")):
            cfg = ExperimentConfig.from_text(
                BASE + f"m.list = 10,inf\ninit.boxes = {box}\n"
                f"init2.boxes = {box2}\nsnapshots = 4\nrun.T = 0.05\n")
            with pytest.raises(ConfigError,
                               match=f"key '{key}': .*congestion cap"):
                run_experiment(cfg, kind="longtime")
        assert steps == []

    def test_longtime_requires_convexity(self):
        cfg = ExperimentConfig.from_text(
            "potential.kind = linear\npotential.g = 1\ninit.boxes = 1,2,1\n"
            + "grid.lo = -3\ngrid.hi = 3\ngrid.n = 200\nquantile.n = 50\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg, kind="longtime")

    def test_workers_match_serial(self):
        # longtime is the one driver that builds a pool; every other one
        # steps serially whatever workers is, which
        # test_converge_sweeps_build_no_pool checks
        text = BASE + "m.list = 10,inf\nsnapshots = 4\ninit2.boxes = 2,3,1\n"
        rep1 = run_experiment(ExperimentConfig.from_text(text),
                              kind="longtime", workers=1)
        rep2 = run_experiment(ExperimentConfig.from_text(text),
                              kind="longtime", workers=2)
        r1 = rep1.tables["longtime"][1]
        r2 = rep2.tables["longtime"][1]
        assert len(r1) > 1
        assert np.allclose(np.array(r1, dtype=float),
                           np.array(r2, dtype=float), rtol=0, atol=0)

    def test_worker_pool_never_larger_than_sweep(self, monkeypatch):
        # a fork-based pool starts all max_workers processes at once, so
        # longtime's four trajectories (two starts for each of two m) must
        # not ask for 64; the fake runs serially and starts no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            SerialPool)
        text = BASE + ("m.list = 10,inf\nsnapshots = 4\n"
                       "init2.boxes = 2,3,1\nrun.T = 0.05\n")
        rep = run_experiment(ExperimentConfig.from_text(text),
                             kind="longtime", workers=64)
        assert sizes == [4]
        serial = run_experiment(ExperimentConfig.from_text(text),
                                kind="longtime", workers=1)
        assert rep.tables == serial.tables

    def test_converge_sweeps_build_no_pool(self, monkeypatch):
        # a pool's start-up costs more than the whole sweep of converge-m
        # or converge-h saves, so both step serially whatever workers is;
        # crossval steps its exponents as one stacked pme_run
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            no_pool)
        for kind, extra in (
                ("converge-m", "m.list = 4,8\nrun.T = 0.1\n"),
                ("converge-h", "m = inf\nh.halvings = 2\nrun.T = 0.1\n"),
                ("crossval", "m.list = 4,8,16\ncrossval.times = 0.05,0.1\n"
                 "pme.dt = 0.01\n")):
            run_experiment(ExperimentConfig.from_text(BASE + extra),
                           kind=kind, workers=2)

    @pytest.mark.parametrize("extra", [
        "m = 10\n", "run.scheme = pme\nm = 3\npme.dt = 0.01\n",
        "run.scheme = pme\nm = 3\npme.dt = 0.01\ngrid.dim = 3\ngrid.lo = 0\n"
        "init.boxes = 0.5,1.0,1\n"], ids=["jko", "pme", "pme-radial"])
    def test_single_run_ledger_rebuilt_from_the_states(self, extra):
        # all ten ledger columns, exactly, from the states of the run: jko
        # states from chained jko_step calls, pme states from pme_run's
        # snapshots, whose W2 increments go through quantiles in 1D only
        cfg = ExperimentConfig.from_text(BASE + "snapshots = 4\n" + extra)
        header, rows = run_experiment(cfg, kind="single-run").tables["ledger"]
        assert header == ["step", "t", "E", "S", "P", "w2_inc", "mass",
                          "supp_lo", "supp_hi", "excess"]
        phi, grid = cfg.potential(), cfg.grid_spec()
        rho0 = crowdflow.make_grid_density(cfg.shape_spec(), grid)
        m = cfg.get_m()
        expected = []
        if "pme" not in extra:
            h = 0.02
            cur, prev, move = crowdflow.to_quantile(rho0, 120), None, None
            for k in range(11):  # T = 0.2
                if k:
                    out = crowdflow.jko_step(prev, m, h, phi, None, move)
                    cur, move = out.state, out.state.nodes - prev.nodes
                rep = crowdflow.free_energy(cur, m, phi)
                w2 = crowdflow.w2_distance(prev, cur) if k else 0.0
                expected.append((k, k * h, rep.total, rep.internal,
                                 rep.potential, w2, cur.total_mass,
                                 cur.nodes[0], cur.nodes[-1],
                                 cur.excess_mass()))
                prev = cur
        else:
            (snaps,), steps = crowdflow.pme_run(
                rho0, [m], phi, 0.2, 0.01,
                snapshot_times=np.linspace(0.0, 0.2, 5)[1:])
            assert steps == [0, 5, 10, 15, 20]
            for k, ((t, rho), step) in enumerate(zip(snaps, steps)):
                rep = crowdflow.free_energy(rho, m, phi)
                if k == 0:
                    w2 = 0.0
                elif grid.dim > 1:
                    w2 = math.nan
                else:
                    w2 = crowdflow.w2_distance(
                        crowdflow.to_quantile(snaps[k - 1][1], 300),
                        crowdflow.to_quantile(rho, 300))
                lo, hi = rho.support_extent()
                expected.append((step, t, rep.total, rep.internal,
                                 rep.potential, w2, rho.mass, lo, hi,
                                 crowdflow.excess_mass(rho)))
        assert [r[0] for r in rows] == [r[0] for r in expected]
        np.testing.assert_array_equal(np.array(rows, dtype=float),
                                      np.array(expected, dtype=float))

    def test_radial_heleshaw_single_run_closes_the_hole(self):
        # on a radial grid the box is a shell, whose hole closes into a
        # ball; a 1-D interval would translate rigidly instead
        rep = run_experiment(ExperimentConfig.from_text(RADIAL + (
            "grid.dim = 3\ninit.boxes = 0.5,1.0,1\nrun.scheme = heleshaw\n"
            "run.T = 0.5\n")), kind="single-run")
        t, a, b, _volume = rep.tables["patches"][1][-1]
        assert (t, a) == (0.5, 0.0)
        assert b == pytest.approx((1.0 - 0.5**3) ** (1.0 / 3.0), abs=1e-4)

    def test_radial_crossval_tracks_the_closing_hole(self):
        # the hole of the shell closes before t = 0.1; the PME supports
        # are compared with the tracked shell, not with a 1-D interval
        for d in (2, 3):
            rep = run_experiment(ExperimentConfig.from_text(RADIAL + (
                f"grid.dim = {d}\ninit.boxes = 0.5,1.5,1\nm.list = 8,32\n"
                "crossval.times = 0.1,0.3\npme.eps_supp = 0.25\n")),
                kind="crossval")
            hausdorff = [c for c in rep.criteria
                         if c["id"].startswith("crossval.hausdorff")]
            assert len(hausdorff) == 4
            assert all(c["pass"] for c in hausdorff), (d, hausdorff)


RADIAL = """
potential.kind = quadratic
potential.q = 1.0
grid.lo = 0
grid.hi = 2
grid.n = 64
"""


CROSSVAL_SHORT = """
potential.kind = quadratic
potential.q = 1.0
init.boxes = 1,2,1
grid.lo = -0.5
grid.hi = 2.5
grid.n = 72
m.list = 4,8
crossval.times = 0.25
heleshaw.dt = 0.001
"""

# imports the package as a run does, runs crossval and writes its report,
# then takes one JKO step; prints which lazily loaded modules were present
COLD_START = """\
import json, math, sys
import crowdflow, crowdflow.cli, crowdflow.experiments
from crowdflow.config import ExperimentConfig
LAZY = ("scipy.linalg", "concurrent.futures.process")
cfg = ExperimentConfig.from_text(sys.argv[1])
report = crowdflow.experiments.run_experiment(cfg, kind="crossval")
report.write(sys.argv[2])
before = [name for name in LAZY if name in sys.modules]
q0 = crowdflow.to_quantile(
    crowdflow.make_grid_density(cfg.shape_spec(), cfg.grid_spec()), 40)
step = crowdflow.jko_step(q0, math.inf, 0.01, cfg.potential())
print(json.dumps({"criteria": len(report.criteria), "before": before,
                  "after": [name for name in LAZY if name in sys.modules],
                  "iterations": step.iterations}))
"""


def test_cold_start_loads_neither_scipy_linalg_nor_the_pool(tmp_path):
    # a fresh interpreter, so that no other test has loaded them already
    src = str(Path(crowdflow.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, CROSSVAL_SHORT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["criteria"] > 0 and (tmp_path / "report.json").is_file()
    assert got["before"] == []
    # the first JKO step loads scipy.linalg and still solves
    assert got["after"] == ["scipy.linalg"]
    assert got["iterations"] >= 1


def test_svg_line_chart_self_contained():
    body = line_chart([("y", [(1, 1.0), (2, 0.5), (4, 0.27)])], "demo",
                      "x", "y", True)
    assert body.startswith("<svg") and body.endswith("</svg>")
    assert body.count("<polyline") == 1 and ">y</text>" in body
