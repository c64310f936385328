import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import drcw
from drcw import document as doc_io
from drcw.cli import main, parse_angle, parse_null


def run_cli(*argv):
    return main(list(argv))


class TestAngleParsing:
    def test_pi_multiples(self):
        assert parse_angle("0.8pi") == pytest.approx(0.8 * np.pi)
        assert parse_angle("1pi") == pytest.approx(np.pi)

    def test_radians(self):
        assert parse_angle("1.25rad") == 1.25

    def test_rejects_bare_numbers(self):
        with pytest.raises(ValueError, match="pi"):
            parse_angle("0.8")

    def test_null_syntax(self):
        theta, k = parse_null("0.8pi:4")
        assert theta == pytest.approx(0.8 * np.pi)
        assert k == 4
        with pytest.raises(ValueError):
            parse_null("0.8pi")
        with pytest.raises(ValueError):
            parse_null("0.8pi:x")


class TestDesignCommand:
    def test_uniform_document(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        code = run_cli(
            "design", "uniform", "--m", "12", "--n", "8", "--grid", "256", "-o", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "uniform"
        assert doc["metrics"]["nag"] == 0.0
        assert len(doc["s"]) == 12
        assert "wrote" in capsys.readouterr().out

    def test_nm_design_with_null(self, tmp_path):
        out = tmp_path / "d.json"
        code = run_cli(
            "design", "nm", "--m", "16", "--n", "8", "--k0", "3",
            "--null", "0.7pi:1", "--window", "hamming", "--seed", "5",
            "--trials", "50", "--grid", "512", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "nm_drcw"
        assert doc["null_spec"]["k0"] == 3
        assert doc["objective"] <= doc["sdp_bound"] + 1e-6
        assert doc["seed"] == 5

    def test_high_order_zero_null_beside_theta_null(self, tmp_path):
        # k0 = 40 plus an order-10 null pair at 0.8 pi on 128 pulses
        out = tmp_path / "d.json"
        code = run_cli(
            "design", "nm", "--m", "128", "--n", "8", "--k0", "40",
            "--null", "0.8pi:10", "--window", "hamming", "--trials", "200",
            "--grid", "512", "-o", str(out),
        )
        assert code == 0
        assert run_cli("verify", str(out)) == 0

    @pytest.mark.parametrize("command", (["design", "nm", "--m", "16"], ["table", "--k0", "4"]))
    def test_tol_option_is_gone(self, command, capsys):
        assert run_cli(*command, "--tol", "1e-6") == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_ptm_non_power_of_two_is_usage_error(self, capsys):
        assert run_cli("design", "ptm", "--m", "48") == 2
        assert "power of two" in capsys.readouterr().err

    def test_invalid_null_budget_is_usage_error(self):
        assert run_cli("design", "nm", "--m", "10", "--k0", "12", "--grid", "128") == 2

    def test_baseline_rejects_null_options(self):
        assert run_cli("design", "bd", "--m", "8", "--k0", "3") == 2

    @pytest.mark.parametrize("method", ["bd", "ptm", "uniform"])
    def test_baseline_rejects_trace(self, method, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "design", method, "--m", "8", "--n", "8", "--grid", "128",
            "-o", str(tmp_path / "d.json"), "--trace", str(trace),
        )
        assert code == 2
        assert "--trace" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("method", ["bd", "ptm", "uniform"])
    def test_baseline_rejects_one_pulse(self, method, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert run_cli("design", method, "--m", "1", "--grid", "256", "-o", str(out)) == 2
        assert "pulse count must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["nm", "bd", "ptm", "uniform", "table"])
    @pytest.mark.parametrize("m", [-5, 0])
    def test_every_method_names_the_pulse_count(self, monkeypatch, command, m, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("design work ran before the pulse count was checked")

        monkeypatch.setattr("drcw.cli.window_template", never)
        monkeypatch.setattr("drcw.cli.design_nm_drcw", never)
        out = tmp_path / "d.json"
        argv = ["table", "--k0", "0"] if command == "table" else ["design", command]
        assert run_cli(*argv, "--m", str(m), "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert f"pulse count must be >= 2, got {m}" in err
        assert "window length" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "nm", "--m", "8", "--k0", "2"),
            ("table", "--k0", "2", "--windows", "hamming", "--m", "8"),
        ],
        ids=["design", "table"],
    )
    def test_negative_seed_names_the_seed(self, monkeypatch, argv, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("design work ran before the seed was checked")

        monkeypatch.setattr("drcw.design.constraint_basis", never)
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", "-1", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert "non-negative integer" not in err
        assert not out.exists()

    def test_nm_is_the_only_spelling(self, capsys):
        assert run_cli("design", "nm_drcw", "--m", "10") == 2
        assert "invalid choice: 'nm_drcw'" in capsys.readouterr().err

    def test_document_round_trip_bytes(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("design", "bd", "--m", "10", "--n", "8", "--grid", "128", "-o", str(out))
        raw = out.read_text()
        doc = json.loads(raw)
        assert doc_io.dumps_document(doc) == raw

    def test_solver_trace_dump(self, tmp_path):
        out = tmp_path / "d.json"
        trace = tmp_path / "trace.csv"
        code = run_cli(
            "design", "nm", "--m", "10", "--n", "8", "--k0", "2", "--trials", "20",
            "--grid", "128", "-o", str(out), "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,objective,certified_gap,diag_deviation"
        assert len(lines) > 2
        last = lines[-1].split(",")
        assert int(last[0]) >= 1
        assert float(last[2]) >= 0.0
        assert float(last[3]) >= 0.0

    def test_unwritable_output_exits_2_naming_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run_cli("design", "uniform", "--m", "8", "--grid", "128", "-o", str(out)) == 2
        assert f"cannot write {out}: No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["out", "trace"])
    def test_unwritable_output_is_refused_before_any_design_work(
        self, monkeypatch, tmp_path, capsys, missing
    ):
        def never(*args, **kwargs):
            raise AssertionError("design work ran before the outputs were checked")

        monkeypatch.setattr("drcw.cli.design_nm_drcw", never)
        paths = {"out": tmp_path / "d.json", "trace": tmp_path / "tr.csv"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        code = run_cli(
            "design", "nm", "--m", "256", "--k0", "8", "--window", "hamming",
            "-o", str(paths["out"]), "--trace", str(paths["trace"]),
        )
        assert code == 2
        assert f"cannot write {paths[missing]}: No such file or directory" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_shorter_rewrite_equals_a_fresh_document(self, tmp_path):
        long_doc, fresh = tmp_path / "d.json", tmp_path / "fresh.json"
        run_cli("design", "bd", "--m", "128", "--n", "8", "--grid", "256", "-o", str(long_doc))
        small = ("design", "nm", "--m", "16", "--n", "8", "--k0", "3", "--trials", "20",
                 "--grid", "256")
        assert run_cli(*small, "-o", str(fresh)) == 0
        assert long_doc.stat().st_size > fresh.stat().st_size
        assert run_cli(*small, "-o", str(long_doc)) == 0
        assert long_doc.read_bytes() == fresh.read_bytes()

    def test_device_output(self):
        # /dev/null is not a regular file, so it is written but never cut
        assert run_cli("design", "uniform", "--m", "8", "--grid", "128", "-o", os.devnull) == 0

    def test_null_past_the_grids_last_point_is_refused_before_the_design(
        self, monkeypatch, tmp_path, capsys
    ):
        # 0.9999pi lies inside (0, pi), but past pi - 2pi/8192, the last point
        # of the default grid, on which the metrics look the centre up
        def never(*args, **kwargs):
            raise AssertionError("a design ran before the null was found on the grid")

        out = tmp_path / "d.json"
        argv = ("design", "nm", "--m", "64", "--k0", "4", "--null", "0.9999pi:2", "-o", str(out))
        with monkeypatch.context() as mp:
            mp.setattr("drcw.cli.design_nm_drcw", never)
            assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "outside the grid [-3.14159, 3.14083]; an odd grid size ends at pi" in err
        assert not out.exists()
        # an odd grid closes at pi
        assert run_cli(*argv, "--grid", "8193") == 0
        assert run_cli("verify", str(out)) == 0

    def test_solver_budget_exhaustion_exit_code(self, capsys):
        code = run_cli(
            "design", "nm", "--m", "16", "--n", "8", "--k0", "4",
            "--grid", "128", "--max-iter", "1",
        )
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    def test_zero_trials_is_a_usage_error_before_any_solve(self, monkeypatch, capsys):
        # this large-K/M spec takes the relaxation 161 Newton steps, and the
        # input must be rejected before the basis is built or the solver runs
        def never(*args, **kwargs):
            raise AssertionError("design work ran before trials were checked")

        monkeypatch.setattr("drcw.design.constraint_basis", never)
        monkeypatch.setattr("drcw.design.solve_partition_sdp", never)
        code = run_cli(
            "design", "nm", "--m", "96", "--k0", "28", "--window", "rectangular",
            "--trials", "0",
        )
        assert code == 2
        assert "trials must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("design", "nm"), ("table",)], ids=" ".join)
    def test_zero_max_iter_is_a_usage_error_before_any_design_work(
        self, command, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("design work ran before max_iter was checked")

        monkeypatch.setattr("drcw.design.constraint_basis", never)
        code = run_cli(*command, "--m", "16", "--k0", "3", "--max-iter", "0")
        assert code == 2
        assert "max_iter must be >= 1, got 0" in capsys.readouterr().err
        assert [t.name for t in threading.enumerate() if t.name.startswith("drcw-")] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("design", "nm", "--n", "63"),
            ("design", "nm", "--grid", "1"),
            ("table", "--n", "63"),
            ("table", "--grid", "1"),
            ("table", "--windows", "hamming,bogus"),
        ],
        ids=" ".join,
    )
    def test_bad_argument_is_rejected_before_any_design(self, argv, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("a design ran before the arguments were checked")

        monkeypatch.setattr("drcw.cli.design_nm_drcw", never)
        trace = tmp_path / "t.csv"
        argv += ("--m", "12", "--k0", "3")
        if argv[0] == "design":
            argv += ("--trace", str(trace), "-o", str(tmp_path / "d"))
        assert run_cli(*argv) == 2
        assert not trace.exists()


class TestAnalyzeCommand:
    @pytest.fixture()
    def document(self, tmp_path):
        out = tmp_path / "d.json"
        run_cli("design", "bd", "--m", "10", "--n", "8", "--grid", "128", "-o", str(out))
        return out

    def test_csv_outputs(self, document, tmp_path):
        outdir = tmp_path / "a"
        assert run_cli("analyze", str(document), "--out-dir", str(outdir)) == 0
        prsl = (outdir / "prsl.csv").read_text().splitlines()
        assert prsl[0] == "theta_rad,prsl_db"
        assert len(prsl) == 1 + 128
        doppler = (outdir / "doppler.csv").read_text().splitlines()
        assert doppler[0] == "theta_rad,g_db"
        caf_lines = (outdir / "caf.csv").read_text().splitlines()
        assert caf_lines[0] == "lag,theta_rad,re,im,mag_db"
        assert len(caf_lines) == 1 + (2 * 8 - 1) * 128

    def test_byte_identical_repeats(self, document, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("analyze", str(document), "--out-dir", str(d1))
        run_cli("analyze", str(document), "--out-dir", str(d2))
        for name in ("prsl.csv", "doppler.csv", "caf.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_svg_rendering(self, document, tmp_path):
        outdir = tmp_path / "s"
        assert run_cli("analyze", str(document), "--out-dir", str(outdir), "--svg") == 0
        for name in ("prsl.svg", "doppler.svg", "caf.svg"):
            text = (outdir / name).read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")

    def test_shorter_rewrite_equals_a_fresh_export(self, document, tmp_path):
        outdir, fresh = tmp_path / "a", tmp_path / "fresh"
        assert run_cli("analyze", str(document), "--out-dir", str(outdir), "--svg",
                       "--grid", "8192") == 0
        for out in (outdir, fresh):
            assert run_cli("analyze", str(document), "--out-dir", str(out), "--svg",
                           "--grid", "257") == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in outdir.iterdir()) and len(names) == 6
        for name in names:
            assert (outdir / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_zero_weights_exit_2_before_any_file(self, document, tmp_path, capsys):
        doc = json.loads(document.read_text())
        doc["w"] = [0.0] * len(doc["w"])
        document.write_text(json.dumps(doc))
        outdir = tmp_path / "z"
        assert run_cli("analyze", str(document), "--out-dir", str(outdir), "--svg") == 2
        assert "weights must not be all zero" in capsys.readouterr().err
        assert not outdir.exists()

    def test_out_dir_below_a_regular_file_exits_2(self, document, tmp_path, capsys):
        below = tmp_path / "file" / "out"
        below.parent.write_text("")
        assert run_cli("analyze", str(document), "--out-dir", str(below)) == 2
        assert f"cannot write {below}: Not a directory" in capsys.readouterr().err

    def test_zero_grid_is_usage_error(self, document, tmp_path, capsys):
        # --grid 0 is not "the document's grid"
        outdir = tmp_path / "z"
        assert run_cli("analyze", str(document), "--out-dir", str(outdir), "--grid", "0") == 2
        assert "at least 2 points, got 0" in capsys.readouterr().err
        assert not (outdir / "prsl.csv").exists()

    def test_unreadable_document_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("analyze", str(bad)) == 2
        assert run_cli("analyze", str(tmp_path / "missing.json")) == 2

    def test_wrong_schema_rejected(self, document, tmp_path, capsys):
        bad = tmp_path / "v99.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert run_cli("analyze", str(bad)) == 2
        # version 1 documents carry metrics from the CAF-based PRSL path
        old = json.loads(document.read_text())
        old["schema_version"] = 1
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(old))
        assert run_cli("analyze", str(v1)) == 2
        assert run_cli("verify", str(v1)) == 2
        assert "unsupported schema_version 1" in capsys.readouterr().err
        # version 2 documents carry metrics from the phase-matrix factors,
        # which differ from the FFT ones by more than verify's tolerance
        old["schema_version"] = 2
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(old))
        assert run_cli("analyze", str(v2)) == 2
        assert run_cli("verify", str(v2)) == 2
        assert "unsupported schema_version 2" in capsys.readouterr().err
        # version 3 documents carry curves from the complex FFT, whose
        # deepest nulls differ from the real FFT's by up to 1.9e-6 dB
        old["schema_version"] = 3
        v3 = tmp_path / "v3.json"
        v3.write_text(json.dumps(old))
        for command in ("analyze", "verify"):
            assert run_cli(command, str(v3)) == 2
            assert "unsupported schema_version 3; expected 4" in capsys.readouterr().err


class TestTableCommand:
    def test_markdown_output(self, capsys):
        code = run_cli(
            "table", "--k0", "2,4", "--windows", "hamming", "--m", "12", "--n", "8",
            "--trials", "30", "--grid", "256",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| window | k0 |")
        assert out.count("hamming") == 2

    def test_csv_deterministic(self, tmp_path):
        args = (
            "table", "--k0", "2,3", "--windows", "rectangular", "--m", "10", "--n", "8",
            "--trials", "30", "--grid", "256", "--format", "csv",
        )
        f1, f2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run_cli(*args, "-o", str(f1)) == 0
        assert run_cli(*args, "-o", str(f2)) == 0
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()[0]
        assert header == "window,k0,rsba_halfwidth_over_pi,dmbr_percent,pdsl_db,nag_db"

    def test_stdout_pipe_output(self):
        # a pipe is not a regular file, so it is written but never cut; the
        # note goes to stderr, so stdout holds the table alone
        argv = [sys.executable, "-m", "drcw", "table", "--k0", "2", "--windows", "hamming",
                "--m", "8", "--n", "8", "--trials", "10", "--grid", "64"]
        piped, plain = (
            subprocess.run(argv + extra, capture_output=True, text=True,
                           env=TestSubprocessEntry.ENV)
            for extra in (["-o", "/dev/stdout"], [])
        )
        assert piped.returncode == plain.returncode == 0, (piped.stderr, plain.stderr)
        assert plain.stdout.startswith("| window | k0 |")
        assert piped.stdout == plain.stdout
        assert piped.stderr == "wrote /dev/stdout\n"

    def test_unwritable_output_is_refused_before_the_sweep(self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a design ran before the output was checked")

        monkeypatch.setattr("drcw.cli.design_nm_drcw", never)
        out = tmp_path / "missing" / "t.md"
        assert run_cli("table", "--k0", "2", "--m", "8", "-o", str(out)) == 2
        assert f"cannot write {out}: No such file or directory" in capsys.readouterr().err

    def test_empty_k0_is_usage_error(self, capsys):
        assert run_cli("table", "--k0", "", "--m", "10") == 2
        assert "must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value,entry",
        [("--k0", "10,10", "10"), ("--k0", "10, 20,010", "10"),
         ("--windows", "hamming,hamming", "'hamming'"),
         ("--windows", "hamming, rectangular ,rectangular", "'rectangular'")],
    )
    def test_repeated_entry_is_usage_error(self, monkeypatch, capsys, option, value, entry):
        def never(*args, **kwargs):
            raise AssertionError("a design ran before the lists were checked")

        monkeypatch.setattr("drcw.cli.design_nm_drcw", never)
        argv = {"--k0": "10", "--windows": "hamming", option: value}
        assert run_cli("table", "--k0", argv["--k0"], "--windows", argv["--windows"],
                       "--m", "50") == 2
        assert f"{option} entry {entry} is repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("k0,entry", [("abc", "abc"), ("10,1.5", "1.5"), ("10, x ,20", "x")])
    def test_non_integer_k0_is_usage_error(self, monkeypatch, capsys, k0, entry):
        def never(*args, **kwargs):
            raise AssertionError("a design ran before --k0 was checked")

        monkeypatch.setattr("drcw.cli.design_nm_drcw", never)
        assert run_cli("table", "--k0", k0, "--m", "50") == 2
        err = capsys.readouterr().err
        assert f"--k0 entries must be integers, got '{entry}'" in err
        assert "invalid literal" not in err

    def test_k0_budget_checked(self):
        assert run_cli("table", "--k0", "12", "--m", "10", "--grid", "128") == 2


class TestVerifyCommand:
    def test_golay_pass(self, capsys):
        assert run_cli("verify", "--golay", "64") == 0
        assert "ok: complementary pair n=64" in capsys.readouterr().out

    def test_golay_bad_length_usage_error(self):
        assert run_cli("verify", "--golay", "63") == 2

    def test_document_pass(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        run_cli(
            "design", "nm", "--m", "12", "--n", "8", "--k0", "3", "--window", "hamming",
            "--trials", "50", "--grid", "256", "-o", str(out),
        )
        assert run_cli("verify", str(out)) == 0
        report = capsys.readouterr().out
        assert "ok: null orders" in report
        assert "ok: re-analysis reproduces embedded metrics" in report

    def test_tampered_weight_fails_null_check(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        run_cli(
            "design", "nm", "--m", "12", "--n", "8", "--k0", "3", "--window", "hamming",
            "--trials", "50", "--grid", "256", "-o", str(out),
        )
        doc = json.loads(out.read_text())
        doc["w"][4] += 1e-3
        out.write_text(json.dumps(doc))
        assert run_cli("verify", str(out)) == 1
        assert "FAIL: null orders" in capsys.readouterr().out

    def test_tampered_metric_fails_reanalysis(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        run_cli("design", "bd", "--m", "10", "--n", "8", "--grid", "128", "-o", str(out))
        doc = json.loads(out.read_text())
        doc["metrics"]["nag"] += 1.0
        out.write_text(json.dumps(doc))
        assert run_cli("verify", str(out)) == 1
        assert "FAIL: re-analysis reproduces embedded metrics" in capsys.readouterr().out
        # no option skips the re-analysis
        assert run_cli("verify", str(out), "--grid", "64") == 2

    @pytest.fixture()
    def two_zone(self, tmp_path):
        out = tmp_path / "two.json"
        run_cli(
            "design", "nm", "--m", "16", "--n", "8", "--k0", "3", "--null", "0.7pi:1",
            "--window", "hamming", "--trials", "50", "--grid", "256", "-o", str(out),
        )
        return out

    # a metrics list whose length does not follow the document's null spec or
    # grid is a malformed field, for verify and analyze alike
    def test_truncated_rsba_list_fails_reanalysis(self, two_zone, tmp_path, capsys):
        doc = json.loads(two_zone.read_text())
        assert len(doc["metrics"]["rsba"]) == 2
        doc["metrics"]["rsba"] = doc["metrics"]["rsba"][:1]
        two_zone.write_text(json.dumps(doc))
        assert run_cli("verify", str(two_zone)) == 2
        assert run_cli("analyze", str(two_zone), "--out-dir", str(tmp_path / "a")) == 2
        assert capsys.readouterr().err.count("field 'metrics.rsba' must be a list of 2") == 2

    @pytest.mark.parametrize("cut", [1, -1])
    def test_wrong_length_prsl_curve_fails_reanalysis(self, two_zone, tmp_path, cut, capsys):
        doc = json.loads(two_zone.read_text())
        curve = doc["metrics"]["prsl_curve"]
        doc["metrics"]["prsl_curve"] = curve[:-1] if cut > 0 else curve + [curve[-1]]
        two_zone.write_text(json.dumps(doc))
        assert run_cli("verify", str(two_zone)) == 2
        assert run_cli("analyze", str(two_zone), "--out-dir", str(tmp_path / "a")) == 2
        err = capsys.readouterr().err
        assert err.count(f"field 'metrics.prsl_curve' must be a list of {len(curve)}") == 2

    def test_metrics_that_cannot_be_recomputed_fail_verification(self, two_zone, capsys):
        # all-zero weights have no -3 dB mainlobe edge to find
        doc = json.loads(two_zone.read_text())
        doc["w"] = [0.0] * len(doc["w"])
        two_zone.write_text(json.dumps(doc))
        assert run_cli("verify", str(two_zone)) == 1
        captured = capsys.readouterr()
        assert "FAIL: energy" in captured.out
        assert (
            "FAIL: re-analysis reproduces embedded metrics "
            "(mainlobe edge not resolvable on this grid)" in captured.out
        )
        assert captured.err == ""

    def test_never_builds_the_caf(self, two_zone, monkeypatch, capsys):
        # verify re-analyses through compute_metrics, so this covers both
        import drcw.analysis
        import drcw.cli

        def refuse(*args, **kwargs):
            raise AssertionError("the CAF was built")

        monkeypatch.setattr(drcw.analysis, "composite_ambiguity", refuse)
        monkeypatch.setattr(drcw.cli, "composite_ambiguity", refuse)
        assert run_cli("verify", str(two_zone)) == 0
        assert "ok: re-analysis reproduces embedded metrics" in capsys.readouterr().out

    def test_bd_document_divisible_by_full_order(self, tmp_path, capsys):
        out = tmp_path / "bd.json"
        run_cli("design", "bd", "--m", "10", "--n", "8", "--grid", "128", "-o", str(out))
        assert run_cli("verify", str(out)) == 0
        assert "ok: null orders (k0=9" in capsys.readouterr().out

    def test_requires_some_target(self):
        assert run_cli("verify") == 2


class TestMalformedDocument:
    """A document missing a nested field, or holding a field of the wrong
    type or out of range, is a validation error (exit 2) for every command
    that reads documents, and the message names the field."""

    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("malformed") / "d.json"
        run_cli(
            "design", "nm", "--m", "20", "--n", "16", "--k0", "4", "--grid", "256",
            "-o", str(out),
        )
        return json.loads(out.read_text())

    @staticmethod
    def run_on(doc, command, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        extra = ["--out-dir", str(tmp_path / "a")] if command == "analyze" else []
        return run_cli(command, str(bad), *extra)

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "record,key",
        [("null_spec", "k0"), ("null_spec", "nulls")]
        + [("metrics", k) for k in ("rsba", "dmbr", "pdsl", "nag", "prsl_curve")],
    )
    def test_missing_nested_field(self, document, tmp_path, capsys, command, record, key):
        doc = json.loads(json.dumps(document))
        del doc[record][key]
        assert self.run_on(doc, command, tmp_path) == 2
        assert f"missing field '{record}.{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize("key", ["center", "lo", "hi"])
    def test_rsba_entry_missing_a_bound(self, document, tmp_path, capsys, command, key):
        doc = json.loads(json.dumps(document))
        del doc["metrics"]["rsba"][0][key]
        assert self.run_on(doc, command, tmp_path) == 2
        assert "'metrics.rsba'" in capsys.readouterr().err

    # (field, wrong values) with int, str, list and null among them where
    # that type is wrong for the field; a bool stands in for the int where
    # an int is a valid number
    WRONG_TYPES = [
        ("m", [20.0, "20", [20], None, 1]),
        ("n", [16.0, "16", [16], None]),
        ("grid", [256.0, "256", [256], None, 1]),
        ("null_spec.k0", [-1, 4.0, "4", [4], None]),
        ("null_spec.nulls", [5, "x", [5], [["x", 1]], [[2.5, 1.0]], None]),
        ("s", [5, "x", ["x"], None]),
        ("w", [5, "x", ["x"], None]),
        ("objective", ["x", [1.0], True]),
        ("sdp_bound", ["x", [1.0], True]),
        ("warnings", [5, "x", [5], None]),
        ("metrics.prsl_curve", [5, "x", ["x"], None]),
        ("metrics.dmbr", [True, "x", [1.0], None]),
        ("metrics.pdsl", [True, "x", [1.0], None]),
        ("metrics.nag", [True, "x", [1.0], None]),
        ("metrics.rsba", [5, "x", [5], None]),
        ("metrics.rsba.0.center", [True, "x", [1.0], None]),
        ("method", [5, ["nm_drcw"], None]),
        ("window", [5, "bogus", ["hamming"], True]),
        ("seed", [1.5, "0", [0], True]),
        ("trials", [0, 1.5, "1000", [1000], True]),
    ]

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "field,value", [(f, v) for f, values in WRONG_TYPES for v in values], ids=repr
    )
    def test_wrong_typed_field(self, document, tmp_path, capsys, command, field, value):
        doc = json.loads(json.dumps(document))
        *parents, last = [int(k) if k.isdigit() else k for k in field.split(".")]
        record = doc
        for key in parents:
            record = record[key]
        record[last] = value
        assert self.run_on(doc, command, tmp_path) == 2
        named = "metrics.rsba" if field.startswith("metrics.rsba") else field
        assert f"'{named}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "field", ["objective", "sdp_bound", "metrics.dmbr", "metrics.rsba.0.lo", "null_spec.nulls"]
    )
    def test_number_too_large_for_a_float(self, document, tmp_path, capsys, command, field):
        doc = json.loads(json.dumps(document))
        *parents, last = [int(k) if k.isdigit() else k for k in field.split(".")]
        record = doc
        for key in parents:
            record = record[key]
        # a null's angle, or the number itself
        record[last] = [[10**400, 1]] if field == "null_spec.nulls" else 10**400
        if field == "null_spec.nulls":
            doc["metrics"]["rsba"].append(doc["metrics"]["rsba"][0])
        assert self.run_on(doc, command, tmp_path) == 2
        named = "metrics.rsba" if field.startswith("metrics.rsba") else field
        assert f"field '{named}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "k0,nulls",
        [(20, []), (16, [[0.5, 2]]), (10**6, []), (10**400, [])],
        ids=["k0=m", "K=m-by-a-null", "k0=10**6", "k0=10**400"],
    )
    def test_null_order_the_train_cannot_hold(self, document, tmp_path, capsys, command, k0, nulls):
        # K = k0 + 2 sum(k_i) must stay <= m - 1 = 19, the rule of the
        # design; a huge k0 is refused before any null residual is evaluated
        doc = json.loads(json.dumps(document))
        doc["null_spec"] = {"k0": k0, "nulls": nulls}
        assert self.run_on(doc, command, tmp_path) == 2
        assert "field 'null_spec'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "nulls,reason",
        [([[5.0, 1]], "null angle must lie strictly inside (0, pi), got 5.0"),
         ([[0.5, 0]], "null order must be a positive integer, got 0"),
         ([[0.5, 1], [0.5, 1]], "null angles must be pairwise distinct")],
        ids=["angle-5.0", "order-0", "repeated-angle"],
    )
    def test_null_the_spec_refuses(self, document, tmp_path, capsys, command, nulls, reason):
        doc = json.loads(json.dumps(document))
        doc["null_spec"]["nulls"] = nulls
        doc["metrics"]["rsba"] += [doc["metrics"]["rsba"][0]] * len(nulls)
        assert self.run_on(doc, command, tmp_path) == 2
        err = capsys.readouterr().err
        assert "field 'null_spec.nulls'" in err and reason in err

    def test_null_order_m_minus_1_is_read(self, document, tmp_path, capsys):
        doc = json.loads(json.dumps(document))
        doc["null_spec"] = {"k0": 17, "nulls": [[0.5, 1]]}
        doc["metrics"]["rsba"].append(doc["metrics"]["rsba"][0])
        assert doc_io.document_to_design(doc).null_spec.total_order == doc["m"] - 1
        assert self.run_on(doc, "analyze", tmp_path) == 0
        # read and judged: this y does not carry the nulls the field asks for
        assert self.run_on(doc, "verify", tmp_path) == 1
        assert "FAIL: null orders" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize(
        "field,value",
        [("s", 0.5), ("w", -0.1), ("s", True), ("w", True), ("w", math.nan),
         ("metrics.prsl_curve", True), ("metrics.prsl_curve", "x"),
         pytest.param("w", 10**400, id="w-10**400"),
         pytest.param("metrics.prsl_curve", -(10**400), id="metrics.prsl_curve--10**400")],
    )
    def test_array_entry_out_of_range(self, document, tmp_path, capsys, command, field, value):
        # a transmit order is +/-1, weights are >= 0 (not NaN), no entry of a
        # number list is a bool, and none is an integer too large for a float
        doc = json.loads(json.dumps(document))
        *parents, last = field.split(".")
        record = doc
        for key in parents:
            record = record[key]
        record[last][0] = value
        assert self.run_on(doc, command, tmp_path) == 2
        assert f"field '{field}'" in capsys.readouterr().err


class TestSubprocessEntry:
    # the child interpreter imports the same drcw as this one, installed or not
    ENV = {**os.environ, "PYTHONPATH": str(Path(drcw.__file__).parents[1])}

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "drcw", "verify", "--golay", "16"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "drcw", "design", "ptm", "--m", "48"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert proc.returncode == 2
