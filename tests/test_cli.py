import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mildito
from mildito import cli, gamma, nemytskii
from mildito.cli import ExperimentConfig, load_config, main, render_report, validate
from mildito.process import BlowUpError
from mildito.suites import ReportRow


SMALL = ["--N", "12", "--K", "12", "--M_t", "30", "--paths", "2000"]


class TestConfig:
    def test_defaults_valid_for_all_suites(self):
        cfg = ExperimentConfig()
        for suite in cli.SUITE_NAMES:
            cfg.suite = suite
            validate(cfg)

    def test_file_and_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 48, "seed": 7, "field": "sin"}))
        cfg = load_config(str(path), {"seed": "9", "T": None})
        assert cfg.N == 48
        assert cfg.seed == 9          # flag wins over file
        assert cfg.field == "sin"
        assert cfg.T == 0.1           # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"modes": 4}))
        with pytest.raises(cli.ConfigError):
            load_config(str(path), {})

    def test_infinite_level_round_trips(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"level": "inf"}))
        cfg = load_config(str(path), {})
        assert math.isinf(cfg.level)


class TestValidation:
    def test_embedding_hypothesis_named(self):
        cfg = ExperimentConfig(suite="gamma", beta=-0.2)
        with pytest.raises(cli.ConfigError, match="beta \\+ eps < -1/4"):
            validate(cfg)

    def test_smoothing_hypothesis_named(self):
        cfg = ExperimentConfig(suite="gamma", r=0.2)
        with pytest.raises(cli.ConfigError, match="r > 1/4"):
            validate(cfg)

    def test_composition_hypothesis_named(self):
        cfg = ExperimentConfig(suite="nemytskii", q=5.0)
        with pytest.raises(cli.ConfigError, match="q in \\(n p, inf\\)"):
            validate(cfg)

    def test_diffusion_floor_named(self):
        cfg = ExperimentConfig(suite="nemytskii", p=6.0, q=40.0)
        with pytest.raises(cli.ConfigError, match="2n"):
            validate(cfg)

    def test_multiplication_hypothesis_at_p2(self):
        # the smoothing bound allows p = 2; the multiplication operator does not
        cfg = ExperimentConfig(suite="gamma", p=2.0)
        with pytest.raises(cli.ConfigError, match="multiplication hypothesis"):
            validate(cfg)

    def test_validation_runs_no_estimator(self, monkeypatch):
        def estimator(*args, **kwargs):
            raise AssertionError("validate ran an estimator")

        monkeypatch.setattr(gamma, "gamma_norm_mc", estimator)
        monkeypatch.setattr(gamma, "estimate_sobolev_constant", estimator)
        monkeypatch.setattr(nemytskii, "estimate_sobolev_constant", estimator)
        validate(ExperimentConfig(suite="all"))

    def test_time_order(self):
        cfg = ExperimentConfig(suite="dynkin", T=0.0)
        with pytest.raises(cli.ConfigError, match="T > t0"):
            validate(cfg)

    def test_unknown_field(self):
        cfg = ExperimentConfig(suite="dynkin", field="cos")
        with pytest.raises(cli.ConfigError, match="unknown field"):
            validate(cfg)

    @pytest.mark.parametrize("suite", ["dynkin", "weak", "all"])
    def test_coordinate_functional_needs_two_modes(self, suite):
        cfg = ExperimentConfig(suite=suite, N=1, K=1)
        with pytest.raises(cli.ConfigError, match="N >= 2"):
            validate(cfg)

    @pytest.mark.parametrize("key, value", [("T", math.inf), ("t0", -math.inf),
                                            ("T", math.nan)])
    def test_times_must_be_finite(self, key, value):
        cfg = ExperimentConfig(suite="simulate", **{key: value})
        with pytest.raises(cli.ConfigError, match="must be finite"):
            validate(cfg)

    def test_nan_level_rejected(self):
        cfg = ExperimentConfig(suite="dynkin", stopping="hitting", level=math.nan)
        with pytest.raises(cli.ConfigError, match="level"):
            validate(cfg)
        validate(ExperimentConfig(suite="dynkin", stopping="hitting", level=math.inf))


class TestMain:
    def test_invalid_config_exits_2(self, capsys, tmp_path):
        code = main(["gamma", "--beta", "-0.2", "--out", str(tmp_path)])
        assert code == 2
        assert "beta + eps < -1/4" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, hypothesis", [
        (["gamma", "--p", "inf"], "smoothing hypothesis"),
        (["nemytskii", "--q", "inf"], "composition hypothesis"),
        (["gamma", "--beta=-inf"], "embedding hypothesis"),
        (["nemytskii", "--beta=-inf"], "diffusion hypothesis"),
    ])
    def test_non_finite_exponent_exits_2(self, argv, hypothesis, capsys, tmp_path):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 2
        assert hypothesis in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_blow_up_exits_3(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli, "run_suite",
                            lambda name, cfg: (_ for _ in ()).throw(BlowUpError(5, 17)))
        code = main(["dynkin", "--out", str(tmp_path)] + SMALL)
        assert code == 3
        assert "path 17" in capsys.readouterr().err

    def test_one_mode_dynkin_exits_2(self, capsys, tmp_path):
        code = main(["dynkin", "--N", "1", "--K", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "N >= 2" in capsys.readouterr().err

    def test_internal_fault_exits_4(self, monkeypatch, capsys, tmp_path):
        def fault(name, cfg):
            raise ValueError("internal arithmetic fault")

        monkeypatch.setattr(cli, "run_suite", fault)
        code = main(["dynkin", "--out", str(tmp_path)] + SMALL)
        assert code == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal arithmetic fault" in err
        assert "invalid configuration" not in err

    def test_null_config_value_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"T": None}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "'T' must not be null" in capsys.readouterr().err

    def test_non_object_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"T": 0.2}]))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("N", 12.9, "'N' must be int, got 12.9"),
        ("seed", True, "'seed' must be int, got True"),
        ("workers", False, "'workers' must be int, got False"),
        ("T", True, "'T' must be float, got True"),
        ("M_t", [8], "not 'list'"),
    ])
    def test_config_value_its_flag_rejects_exits_2(self, key, value, message, capsys,
                                                   tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 12, "K": 8, "M_t": 8, "paths": 64, key: value}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_integral_float_config_value_is_an_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 12.0, "K": 8, "M_t": 8, "paths": 1e2}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert (config["N"], config["paths"]) == (12, 100)
        assert isinstance(config["paths"], int)

    def test_null_delta_keeps_its_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"delta": None}))
        code = main(["nemytskii", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "summary.json").read_text())["config"]["delta"] is None

    def test_simulate_with_fewer_modes_than_noise(self, tmp_path):
        # N = 2 < K: only two modes carry noise, for the engine and the oracle
        code = main(["simulate", "--N", "2", "--M_t", "20", "--paths", "2000",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_small_dynkin_run(self, tmp_path):
        code = main(["dynkin", "--out", str(tmp_path)] + SMALL)
        assert code == 0
        report = (tmp_path / "report.csv").read_bytes()
        assert report.startswith(b"suite,check_id,lhs,rhs,stderr,tolerance,verdict\r\n")
        assert b"ou_rhs_vs_closed_form" in report
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == 2
        assert summary["totals"]["failed"] == 0
        assert summary["config"]["N"] == 12
        assert summary["config"]["level"] == "inf"
        assert "numpy" in summary["versions"]
        assert summary["timings"]

    def test_every_row_keeps_its_timing(self, tmp_path):
        # gamma/embedding_bound/eps=0,beta=-0.5 is emitted twice at these defaults
        code = main(["all", "--paths", "64", "--M_t", "8", "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        timings = summary["timings"]
        assert len(timings) == summary["totals"]["checks"]
        assert len({(t["suite"], t["check_id"]) for t in timings}) < len(timings)
        with open(tmp_path / "report.csv", newline="", encoding="utf-8") as fh:
            report = list(csv.reader(fh))[1:]
        assert [(t["suite"], t["check_id"]) for t in timings] == [
            (row[0], row[1]) for row in report]
        assert all(t["wall_s"] >= 0.0 for t in timings)

    def test_workers_do_not_change_report(self, tmp_path):
        out1, out3 = tmp_path / "w1", tmp_path / "w3"
        assert main(["dynkin", "--workers", "1", "--out", str(out1)] + SMALL) == 0
        assert main(["dynkin", "--workers", "3", "--out", str(out3)] + SMALL) == 0
        assert (out1 / "report.csv").read_bytes() == (out3 / "report.csv").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(out1)] + SMALL) == 0
        assert main(["simulate", "--out", str(out2)] + SMALL) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_failing_check_exits_1(self, monkeypatch, tmp_path):
        rows = [ReportRow("x", "forced", 1.0, 0.0, 0.0, 0.5, "fail", 0.0)]
        monkeypatch.setattr(cli, "run_suite", lambda name, cfg: rows)
        code = main(["dynkin", "--out", str(tmp_path)] + SMALL)
        assert code == 1


def _python(*argv):
    """Run a fresh interpreter that finds this checkout's ``mildito`` first."""
    src = str(Path(mildito.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


class TestEntryPoints:
    def test_import_loads_no_heavy_scipy(self):
        probe = ("import sys, mildito, mildito.cli\n"
                 "print(sorted({'scipy.optimize', 'scipy.special'} & set(sys.modules)))\n"
                 "mildito.gaussian_abs_moment(4.0)\n"
                 "print('scipy.special' in sys.modules)\n")
        done = _python("-c", probe)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["[]", "True"]

    def test_python_m_mildito(self):
        done = _python("-m", "mildito", "simulate", "--help")
        assert done.returncode == 0, done.stderr
        assert "--paths" in done.stdout


class TestRendering:
    def test_report_is_rfc4180(self):
        rows = [ReportRow("s", 'needs,"quoting"', 1.0, 2.0, 0.0, 0.1, "pass", 0.0)]
        data = render_report(rows)
        lines = data.split(b"\r\n")
        assert lines[0] == b"suite,check_id,lhs,rhs,stderr,tolerance,verdict"
        assert b'"needs,""quoting"""' in lines[1]

    def test_wall_time_not_in_report(self):
        rows = [ReportRow("s", "c", 1.0, 2.0, 0.0, 0.1, "pass", 123.456)]
        assert b"123.456" not in render_report(rows)
