import json
import subprocess
import sys

import numpy as np
import pytest

from svtkit.blockenc import matrix_to_json
from svtkit.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestPolyCommand:
    def test_sign_poly_json(self, capsys):
        code, out = run_cli(["poly", "--family", "sign", "--delta", "0.2",
                             "--eps", "0.01"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["poly"]["parity"] == "odd"
        assert obj["certificate"]["claimed_error"] == 0.01

    def test_deterministic_output(self, capsys):
        a = run_cli(["poly", "--family", "exp", "--beta", "2.0",
                     "--eps", "1e-5"], capsys)
        b = run_cli(["poly", "--family", "exp", "--beta", "2.0",
                     "--eps", "1e-5"], capsys)
        assert a == b


class TestPhasesCommand:
    def test_sign_phases_residual(self, capsys):
        code, out = run_cli(["phases", "--family", "sign", "--delta", "0.2",
                             "--eps", "1e-4"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["convention"] == "reflection"
        assert obj["reconstruction_residual"] <= 1e-5

    def test_poly_file_without_family(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        code, _ = run_cli(["--out", str(pfile), "poly", "--family", "sign",
                           "--delta", "0.3", "--eps", "1e-3"], capsys)
        assert code == 0
        code, out = run_cli(["phases", "--poly", str(pfile), "--tol", "1e-6"],
                            capsys)
        assert code == 0
        assert json.loads(out)["reconstruction_residual"] <= 1e-6

    def test_extended_flag_accepted(self, capsys):
        code, out = run_cli(["--precision", "extended", "phases", "--family",
                             "sign", "--delta", "0.3", "--eps", "1e-3"],
                            capsys)
        assert code == 0
        assert json.loads(out)["reconstruction_residual"] <= 1e-4
        # --precision is read nowhere: both values print the same bytes
        outs = [run_cli(["--precision", value, "phases", "--family", "sign",
                         "--delta", "0.2", "--eps", "1e-4"], capsys)
                for value in ("standard", "extended")]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_needs_family_or_poly(self, capsys):
        code, _ = run_cli(["phases"], capsys)
        assert code == 2


class TestEncodeAndSvt:
    def test_encode_dilation(self, tmp_path, capsys):
        a = np.diag([0.5, -0.25])
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(matrix_to_json(a)))
        code, out = run_cli(["encode", "--matrix", str(mfile)], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["alpha"] == 1.0
        assert obj["ancillas"] == 1

    def test_svt_run(self, tmp_path, capsys):
        a = np.diag([0.5, 0.25])
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(matrix_to_json(a)))
        code, poly_out = run_cli(["poly", "--family", "sign", "--delta",
                                  "0.2", "--eps", "0.01"], capsys)
        pfile = tmp_path / "p.json"
        pfile.write_text(poly_out)
        code, out = run_cli(["svt", "--matrix", str(mfile), "--poly",
                             str(pfile), "--tol", "1e-6"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["measured_error_vs_oracle"] <= 1e-6
        assert obj["gate_ledger"]["u_uses"] > 0

    def test_dimension_cap(self, tmp_path, capsys):
        a = np.eye(300) * 0.5
        mfile = tmp_path / "big.json"
        mfile.write_text(json.dumps(matrix_to_json(a)))
        code, out = run_cli(["encode", "--matrix", str(mfile)], capsys)
        assert code == 2


class TestAppsCommand:
    def test_hamsim_report(self, capsys):
        code, out = run_cli(["apps", "hamsim", "--dim", "4", "--t", "3",
                             "--eps", "1e-6", "--robust"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["ledger"]["uses"] <= obj["claimed_bound"]
        assert obj["measured"] <= 1e-6


class TestSweep:
    def test_inverse_degree_monotone(self, capsys):
        code, out = run_cli(["sweep", "--family", "inverse", "--range",
                             "2..16", "--steps", "5", "--eps", "1e-4"],
                            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,degree,claimed_error"
        degrees = [int(l.split(",")[1]) for l in lines[1:]]
        assert degrees == sorted(degrees)

    def test_validation_error_code(self, capsys):
        code, _ = run_cli(["sweep", "--family", "nosuch", "--range", "1..2"],
                          capsys)
        assert code == 2


@pytest.mark.parametrize("flags", [["--max-degree", "9999"],
                                   ["--precision", "extended:abc"],
                                   ["--precision", "extended:128"],
                                   ["--max-degree", "-5"]])
def test_bad_global_flag_exit_code(flags, capsys):
    code, _ = run_cli(flags + ["poly", "--family", "sign"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, want", [
    (["poly", "--family", "exp", "--beta", "1e9"], 3),
    (["poly", "--family", "exp", "--beta", "nan"], 2),
    (["poly", "--family", "inverse", "--kappa", "inf"], 2),
    (["poly", "--family", "inverse", "--kappa", "1e300"], 2),
    (["poly", "--family", "neg_power", "--c", "inf"], 2),
    (["poly", "--family", "neg_power", "--c", "1e300"], 2),
    (["apps", "hamsim", "--dim", "0"], 2),
    (["apps", "pinv", "--delta", "1e-300"], 2),
    (["phases", "--family", "sign", "--tol", "-1"], 2),
    (["apps", "hamsim", "--eps", "1e-300"], 3),
])
def test_invalid_value_exit_code(argv, want):
    # a subprocess, so that a hang ends in a timeout and not a stuck run
    proc = subprocess.run([sys.executable, "-m", "svtkit.cli"] + argv,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "svtkit.cli", "poly", "--family", "window",
         "--n", "6", "--eps", "1e-3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["certificate"]["degree"] == 6


class TestSchemas:
    @staticmethod
    def _schema(name):
        import pathlib
        import svtkit
        root = pathlib.Path(svtkit.__file__).parent / "schemas"
        return json.loads((root / name).read_text())

    def test_poly_output_validates(self, capsys):
        import jsonschema
        _, out = run_cli(["poly", "--family", "sign", "--delta", "0.3",
                          "--eps", "0.05"], capsys)
        jsonschema.validate(json.loads(out), self._schema("poly.schema.json"))

    def test_phases_output_validates(self, capsys):
        import jsonschema
        _, out = run_cli(["phases", "--family", "sign", "--delta", "0.3",
                          "--eps", "0.05"], capsys)
        jsonschema.validate(json.loads(out),
                            self._schema("phases.schema.json"))

    def test_encode_output_validates(self, tmp_path, capsys):
        import jsonschema
        a = np.diag([0.5, -0.25])
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(matrix_to_json(a)))
        _, out = run_cli(["encode", "--matrix", str(mfile)], capsys)
        jsonschema.validate(json.loads(out),
                            self._schema("matrix.schema.json"))

    def test_apps_report_validates(self, capsys):
        import jsonschema
        _, out = run_cli(["apps", "pinv", "--dim", "3", "--delta", "0.3",
                          "--eps", "1e-3"], capsys)
        jsonschema.validate(json.loads(out),
                            self._schema("report.schema.json"))


def test_flagless_pinv_runs_at_default_cap():
    # pinv has its own --eps default: hamsim's 1e-6 needs degree 881 > 512
    import jsonschema
    proc = subprocess.run([sys.executable, "-m", "svtkit.cli", "apps",
                           "pinv"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, TestSchemas._schema("report.schema.json"))
    assert report["ledger"]["degree"] <= 512


@pytest.mark.parametrize("argv", [
    ["poly", "--family", "sign", "--delta", "0.1", "--eps", "1e-4"],
    ["phases", "--family", "sign", "--delta", "0.1", "--eps", "1e-4"],
    ["sweep", "--family", "sign", "--range", "0.1..0.2", "--steps", "2"],
])
def test_max_degree_honoured(argv, capsys):
    code = main(["--max-degree", "10"] + argv)
    assert code == 3
    assert "DegreeOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["apps", "pinv", "--dim", "3", "--delta", "0.3", "--eps", "1e-3"],
    ["apps", "hamsim", "--dim", "3", "--t", "3"],
    ["apps", "markov", "--dim", "3"],
])
def test_apps_max_degree_honoured(argv, capsys):
    code = main(["--max-degree", "10"] + argv)
    assert code == 3
    assert "DegreeOverflow" in capsys.readouterr().err


def test_import_loads_no_scipy_fft_or_mpmath():
    # both cost cold-import time that every CLI call pays
    code = ("import sys, svtkit, svtkit.apps, svtkit.cli; "
            "print([m for m in ('scipy.fft', 'mpmath') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("family,lo,hi", [("inverse", 2, 4),
                                          ("sign", 0.2, 0.4),
                                          ("exp", 1, 4), ("cos", 1, 4)])
def test_sweep_runs_each_family_parameter(family, lo, hi, capsys):
    # the swept value lands in the family's own parameter: a harder
    # target (larger kappa, beta, t; smaller delta) needs more degree
    code, out = run_cli(["sweep", "--family", family, "--range",
                         f"{lo}..{hi}", "--steps", "2", "--eps", "1e-3"],
                        capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [lo, hi]
    degrees = [int(r[1]) for r in rows]
    if family == "sign":
        assert degrees[0] > degrees[1]
    else:
        assert degrees[0] < degrees[1]


def test_grid_flag_removed(capsys):
    code, _ = run_cli(["--grid", "100", "poly", "--family", "sign"], capsys)
    assert code == 2
