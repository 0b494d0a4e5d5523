import json
import subprocess
import sys

import numpy as np
import pytest

from svtkit.blockenc import matrix_to_json
from svtkit.cli import build_parser, main


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

    def test_tol_below_the_certificate_exits_3(self, tmp_path, capsys):
        # the reconstruction bound carries a rounding term near 1e-14
        pfile = tmp_path / "p.json"
        code, _ = run_cli(["--out", str(pfile), "poly", "--family", "sign",
                           "--delta", "0.3", "--eps", "1e-3"], capsys)
        assert code == 0
        code, out = run_cli(["phases", "--poly", str(pfile), "--tol",
                             "1e-15"], capsys)
        assert (code, out) == (3, "")

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

    @pytest.mark.parametrize("eps", ["1e-4", "1e-6", "1e-8"])
    @pytest.mark.parametrize("t", ["1", "2", "3", "5", "10"])
    @pytest.mark.parametrize("family", ["sin", "cos"])
    def test_trig_phases_run(self, family, t, eps, capsys):
        # the Jacobi-Anger series of sin(2x) at eps 1e-4 exceeds 1 by
        # 2.3e-8 near x = 0.785 until it is rescaled below 1
        code, out = run_cli(["phases", "--family", family, "--t", t,
                             "--eps", eps], capsys)
        assert code == 0
        assert json.loads(out)["convention"] == "reflection"

    @pytest.mark.parametrize("delta", ["0.25", "0.3", "0.4"])
    def test_sign_phases_run_at_eps_1e_12(self, delta, capsys):
        # the uncut series stays below 1; its tolerance cut must too
        code, _ = run_cli(["phases", "--family", "sign", "--delta", delta,
                           "--eps", "1e-12"], capsys)
        assert code == 0


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

    def test_encode_rectangular(self, tmp_path, capsys):
        # a 2x3 matrix is padded to 3x3 and dilated to dim 6; its error is
        # measured against that padded target
        a = np.array([[0.5, 0.1, 0.0], [0.0, -0.25, 0.2]])
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(matrix_to_json(a)))
        code, out = run_cli(["encode", "--matrix", str(mfile)], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == [6, 6]
        assert obj["measured_error"] <= 1e-14

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


def test_parser_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["poly", "phases"])
def test_family_flags_default_to_the_spec(command):
    import dataclasses
    from svtkit.approx import ApproxSpec
    args = build_parser().parse_args([command, "--family", "sign"])
    fields = dataclasses.fields(ApproxSpec)[1:]
    assert [f.name for f in fields] == ["eps", "delta", "t", "kappa", "beta",
                                        "c", "s", "d", "n", "parity",
                                        "bounded"]
    for f in fields:
        assert getattr(args, f.name) == f.default, f.name
        assert type(getattr(args, f.name)) is type(f.default), f.name


def test_shared_parser_keeps_no_state_between_calls(capsys):
    argv = ["phases", "--family", "sign", "--delta", "0.3", "--eps", "1e-3"]
    first = run_cli(argv, capsys)
    assert first[0] == 0
    code, _ = run_cli(["phases", "--family", "sign", "--delta", "zero"],
                      capsys)
    assert code == 2
    assert run_cli(argv, capsys) == first


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
    (["poly", "--family", "monomial", "--s", "0"], 2),
    (["apps", "pinv", "--delta", "0"], 2),
    (["apps", "hamsim", "--t", "0"], 0),
    (["phases", "--family", "exp", "--beta", "0"], 0),
    (["apps", "pinv", "--delta", "1.5"], 2),
    (["poly", "--family", "sign", "--delta", "2.5"], 2),
    (["poly", "--family", "sign", "--delta", "1.5"], 2),
    (["poly", "--family", "monomial", "--s", "2.5"], 2),
    (["poly", "--family", "window", "--n", "x"], 2),
    (["poly", "--family", "neg_power", "--parity", "middle"], 2),
    (["phases", "--family", "rect", "--t", "nan"], 2),
])
def test_invalid_value_exit_code(argv, want):
    # a subprocess, so that a hang ends in a timeout and not a stuck run
    proc = subprocess.run([sys.executable, "-m", "svtkit.cli"] + argv,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["phases", "svt"])
def test_contradicted_parity_file_exit_code(command, tmp_path):
    # declared odd with T_0 = 0.4: refused, not run as the phases of 0.5x
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"poly": {
        "basis": "chebyshev", "parity": "odd",
        "coeffs": [[0.4, 0.0], [0.5, 0.0]]}}))
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(matrix_to_json(np.diag([0.5, 0.25]))))
    argv = {"phases": ["phases", "--poly", str(pfile)],
            "svt": ["svt", "--matrix", str(mfile), "--poly", str(pfile)]}
    proc = subprocess.run([sys.executable, "-m", "svtkit.cli"]
                          + argv[command], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "declared odd but has even coefficients" in proc.stderr


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


def test_sign_at_eps_1e_6_fits_under_the_cap(capsys):
    # the erf series needed degree 569 > 512 here and exited 3
    code, out = run_cli(["poly", "--family", "sign", "--delta", "0.1",
                         "--eps", "1e-6"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["degree"] <= 512


def test_neg_power_default_fits_under_the_cap(capsys):
    # series times (1 - rectangle) needed degree 561 > 512 here and exited 3
    code, out = run_cli(["poly", "--family", "neg_power"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["degree"] <= 160


def _poly_verdict(proc, target):
    """(exit code, degree, whether the polynomial meets its certificate's
    claims on 20,001-point grids)."""
    if proc.returncode != 0:
        return proc.returncode, None, False
    obj = json.loads(proc.stdout)
    cert = obj["certificate"]
    coeffs = np.array([re for re, _ in obj["poly"]["coeffs"]])

    def top(lo, hi, want):
        xs = np.linspace(max(lo, -1.0), min(hi, 1.0), 20001)
        return np.abs(np.polynomial.chebyshev.chebval(xs, coeffs)
                      - want(xs)).max()

    ok = top(-1.0, 1.0, np.zeros_like) <= cert["claimed_sup_bound"]
    for lo, hi in cert["valid_domain"]:
        ok &= top(lo, hi, target) <= cert["claimed_error"]
    return 0, cert["degree"], bool(ok)


@pytest.mark.parametrize("argv, target", [
    (["--family", "sign", "--delta", "0.1", "--eps", "1e-6"], np.sign),
    (["--family", "rect", "--t", "0.5", "--delta", "0.08", "--eps", "1e-4"],
     lambda x: (np.abs(x) <= 0.5).astype(float)),
    (["--family", "inverse", "--kappa", "2.5", "--eps", "1e-3",
      "--bounded"], lambda x: 1.0 / (5.0 * x)),
    (["--family", "neg_power", "--c", "2", "--delta", "0.25", "--eps",
      "1e-3", "--parity", "even"], lambda x: 0.25 ** 2 / 2 * x ** -2.0),
    (["--family", "exp", "--beta", "5", "--eps", "1e-8"],
     lambda x: np.exp(-5.0 * (1.0 - x))),
], ids=["sign", "rect", "inverse", "neg_power", "exp"])
def test_poly_verdict_independent_of_blas_threads(argv, target):
    import os
    import pathlib
    import svtkit
    src = str(pathlib.Path(svtkit.__file__).parents[1])
    verdicts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "svtkit.cli", "poly"]
                              + argv, env=env, capture_output=True,
                              text=True, timeout=120)
        verdicts.append(_poly_verdict(proc, target))
    assert verdicts[0] == verdicts[1] == (0, verdicts[0][1], True)


@pytest.mark.parametrize("argv", [
    ["--family", "sign", "--delta", "0.25", "--eps", "1e-12"],
    ["--family", "sign", "--delta", "0.1", "--eps", "1e-6"],
    ["--family", "rect", "--t", "0.5", "--delta", "0.08", "--eps", "1e-4"],
    ["--family", "inverse", "--kappa", "2.5", "--eps", "1e-3", "--bounded"],
    ["--family", "sin", "--t", "5", "--eps", "1e-8"],
    ["--family", "cos", "--t", "9", "--eps", "1e-10"],
    ["--family", "arcsin", "--delta", "0.1", "--eps", "1e-6"],
    ["--family", "neg_power", "--eps", "1e-4"],
    ["--family", "rect", "--t", "0.4", "--delta", "0.05", "--eps", "1e-6"],
], ids=["sign-1e-12", "sign-1e-6", "rect", "inverse", "sin", "cos", "arcsin",
        "neg_power", "rect-1e-6"])
def test_phases_verdict_independent_of_blas_threads(argv):
    # the phases may move in their last digits between thread counts; the
    # exit code and the reconstruction certificate's verdict may not
    import os
    import pathlib
    import svtkit
    src = str(pathlib.Path(svtkit.__file__).parents[1])
    tol = max(float(argv[argv.index("--eps") + 1]) / 10.0, 1e-10)
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "svtkit.cli", "phases"]
                              + argv, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (threads, proc.stderr)
        assert json.loads(proc.stdout)["reconstruction_residual"] <= tol


@pytest.mark.parametrize("n", [64, 128])
def test_svt_verdict_independent_of_blas_threads(n, tmp_path, capsys):
    # encodings of dim 128 and 256 build their circuits by the overlap
    # recurrence; at one and two BLAS threads the run must meet --tol
    import os
    import pathlib
    import svtkit
    src = str(pathlib.Path(svtkit.__file__).parents[1])
    a = np.random.default_rng(n).standard_normal((n, n))
    a *= 0.9 / np.linalg.norm(a, 2)
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(matrix_to_json(a)))
    _, poly_out = run_cli(["poly", "--family", "sign", "--delta", "0.2",
                           "--eps", "1e-4"], capsys)
    pfile = tmp_path / "p.json"
    pfile.write_text(poly_out)
    tol = 1e-6
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "svtkit.cli", "svt", "--matrix",
             str(mfile), "--poly", str(pfile), "--tol", str(tol)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (threads, proc.stderr)
        assert json.loads(proc.stdout)["measured_error_vs_oracle"] <= tol


@pytest.mark.parametrize("index, value", [
    (0, float("inf")), (2, float("nan")), (1, float("nan"))],
    ids=["inf-dropped-T0", "nan-dropped", "nan-kept"])
def test_phases_refuses_non_finite_poly_file(index, value, tmp_path, capsys):
    # a NaN or inf on the parity the series drops used to vanish, and one
    # on the kept parity reached the Newton solve
    pfile = tmp_path / "p.json"
    code, _ = run_cli(["--out", str(pfile), "poly", "--family", "sign",
                       "--delta", "0.3", "--eps", "1e-3"], capsys)
    assert code == 0
    obj = json.loads(pfile.read_text())
    obj["poly"]["coeffs"][index] = [value, 0.0]
    pfile.write_text(json.dumps(obj))
    code, _ = run_cli(["phases", "--poly", str(pfile)], capsys)
    assert code == 2
