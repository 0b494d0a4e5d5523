"""Command-line front end.

Subcommands: poly, phases, encode, svt, apps, sweep.  Every command
computes in IEEE double precision and is deterministic given (args,
seed); matrices above dimension 256 are rejected up front.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import approx
from .blockenc import (embed, encode_sparse, matrix_from_json, matrix_to_json,
                       operator_norm)
from .config import MAX_DEGREE_DEFAULT, MAX_MATRIX_DIM
from .errors import SvtError
from .poly import ChebSeries
from .qsp import phases_for_target
from .svt import svt_apply

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _emit(obj, args) -> None:
    """Write ``obj``, text or JSON, to --out or to stdout."""
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def finite_float(text: str) -> float:
    """argparse type of every float flag: inf and nan are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def positive_float(text: str) -> float:
    """argparse type of tolerance flags: finite and above zero."""
    value = finite_float(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not above zero")
    return value


def degree_cap(text: str) -> int:
    """argparse type of --max-degree: an int in [0, MAX_DEGREE_DEFAULT]."""
    value = int(text)
    if not 0 <= value <= MAX_DEGREE_DEFAULT:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not in [0, {MAX_DEGREE_DEFAULT}]")
    return value


def _build_poly(args):
    spec = approx.ApproxSpec(
        target=args.family, eps=args.eps, delta=args.delta, t=args.t,
        kappa=args.kappa, beta=args.beta, c=args.c, s=args.s, d=args.d,
        n=args.n, parity=args.parity, bounded=args.bounded)
    return approx.build(spec, args.max_degree)


def cmd_poly(args):
    res = _build_poly(args)
    _emit(res.to_json(), args)
    return EXIT_OK


def cmd_phases(args):
    if args.poly_file:
        with open(args.poly_file) as fh:
            series = ChebSeries.from_json(json.load(fh)["poly"])
        target = series
    elif args.family is None:
        raise ValueError("phases needs --family or --poly")
    else:
        target = _build_poly(args).cheb
    tol = args.tol if args.tol is not None else max(args.eps / 10.0, 1e-10)
    refl, rep = phases_for_target(target, tol=tol)
    out = refl.to_json()
    out["reconstruction_residual"] = rep["reconstruction_error"]
    _emit(out, args)
    return EXIT_OK


def cmd_encode(args):
    with open(args.matrix) as fh:
        a = matrix_from_json(json.load(fh))
    if max(a.shape) > MAX_MATRIX_DIM:
        raise ValueError(f"matrix dimension above {MAX_MATRIX_DIM}")
    if args.mode == "dilation":
        be = embed(a, args.alpha)
    else:
        be = encode_sparse(a, args.row_sparsity, args.col_sparsity)
    out = be.to_json()
    out["measured_error"] = be.measured_error()
    _emit(out, args)
    return EXIT_OK


def cmd_svt(args):
    with open(args.matrix) as fh:
        a = matrix_from_json(json.load(fh))
    if max(a.shape) > MAX_MATRIX_DIM:
        raise ValueError(f"matrix dimension above {MAX_MATRIX_DIM}")
    with open(args.poly_file) as fh:
        series = ChebSeries.from_json(json.load(fh)["poly"])
    be = embed(a, args.alpha)
    outcome = svt_apply(be.pu, series, kind="real_poly", delta=args.tol)
    out = {
        "result": matrix_to_json(outcome.result),
        "measured_error_vs_oracle": float(outcome.measured_error),
        "gate_ledger": outcome.ledger,
    }
    _emit(out, args)
    return EXIT_OK


def cmd_apps(args):
    from .apps import (hamiltonian_simulate, markov_detect, markov_hitting,
                       MarkovChain, pseudoinverse)

    if not 1 <= args.dim <= MAX_MATRIX_DIM:
        raise ValueError(f"--dim must lie in [1, {MAX_MATRIX_DIM}]")
    rng = np.random.default_rng(args.seed)
    if args.app == "hamsim":
        dim = args.dim
        h = rng.standard_normal((dim, dim))
        h = (h + h.T) / 2
        h /= operator_norm(h)
        # embed's encoding carries target h at eps 0, as robust mode needs
        be = embed(h, 1.0)
        eps = 1e-6 if args.eps is None else args.eps
        enc, rep = hamiltonian_simulate(be, args.t, eps,
                                        robust=args.robust,
                                        max_degree=args.max_degree)
        out = {"result": "ok", "claimed_bound": rep["claimed_uses"],
               "measured": rep["measured"],
               "ledger": {"uses": rep["uses"]}}
    elif args.app == "pinv":
        # before the matrix is clipped up to delta and embedded, where a
        # delta above 1 would fail as NormExceeded
        if not 0 < args.delta <= 1:
            raise ValueError("--delta must lie in (0, 1]")
        dim = args.dim
        a = rng.standard_normal((dim, dim))
        a = a / operator_norm(a) * 0.9
        u, s, vh = np.linalg.svd(a)
        s = np.clip(s, args.delta, None)
        a = u @ np.diag(s) @ vh
        pu = embed(a, 1.0).pu
        # pinv's own eps default: at hamsim's 1e-6 its bounded 1/x
        # polynomial needs a degree above the default cap of 512
        eps = 1e-3 if args.eps is None else args.eps
        outcome, rep = pseudoinverse(pu, args.delta, eps,
                                     max_degree=args.max_degree)
        out = {"result": "ok", "claimed_bound": rep["claimed"],
               "measured": rep["measured"],
               "ledger": {"degree": rep["degree"]}}
    else:  # markov, the last of the parser's choices
        n = args.dim
        w = rng.random((n, n)) + 0.1
        w = (w + w.T) / 2
        p = w / w.sum(axis=1, keepdims=True)
        chain = MarkovChain(p, marked=[0])
        ht, rep = markov_hitting(chain)
        det = markov_detect(chain, max(ht, 1.0), max_degree=args.max_degree)
        out = {"result": {"hitting_time": ht},
               "claimed_bound": 2.0 / 3.0,
               "measured": det["marked_probability"],
               "ledger": {"degree": det["degree"]}}
    _emit(out, args)
    return EXIT_OK


# sweepable family -> the ApproxSpec field the range runs over
SWEPT_FIELD = {"inverse": "kappa", "sign": "delta", "exp": "beta", "cos": "t"}


def cmd_sweep(args):
    lo, hi = (finite_float(v) for v in args.range.split(".."))
    values = np.linspace(lo, hi, args.steps)
    field = SWEPT_FIELD.get(args.family)
    if field is None:
        raise ValueError(f"family {args.family!r} not sweepable")
    rows = ["param,degree,claimed_error"]
    for v in values:
        spec = approx.ApproxSpec(target=args.family, eps=args.eps,
                                 **{field: float(v)})
        res = approx.build(spec, args.max_degree)
        rows.append(f"{v:.6g},{res.degree},{res.claimed_error:.6g}")
    _emit("\n".join(rows) + "\n", args)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="svtkit",
        description="Singular value transformation toolkit: polynomial "
                    "construction, phase synthesis, encodings, transforms")
    # read nowhere: perfbench's synth workload still sends it
    ap.add_argument("--precision", default="standard",
                    choices=["standard", "extended"],
                    help="accepted and ignored: every command computes "
                         "in double precision")
    ap.add_argument("--max-degree", type=degree_cap,
                    default=MAX_DEGREE_DEFAULT,
                    help="refuse polynomials above this degree "
                         f"(at most {MAX_DEGREE_DEFAULT})")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="write output to this file")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family_args(p, required=True):
        p.add_argument("--family", required=required,
                       choices=list(approx.FAMILIES))
        p.add_argument("--delta", type=finite_float, default=0.1)
        p.add_argument("--eps", type=finite_float, default=1e-4)
        p.add_argument("--t", type=finite_float, default=1.0)
        p.add_argument("--kappa", type=finite_float, default=2.0)
        p.add_argument("--beta", type=finite_float, default=1.0)
        p.add_argument("--c", type=finite_float, default=1.0)
        p.add_argument("--s", type=int, default=10)
        p.add_argument("--d", type=int, default=5)
        p.add_argument("--n", type=int, default=8)
        p.add_argument("--parity", default="odd", choices=["even", "odd"])
        p.add_argument("--bounded", action="store_true")

    p_poly = sub.add_parser("poly", help="construct a certified polynomial")
    add_family_args(p_poly)
    p_poly.set_defaults(fn=cmd_poly)

    p_ph = sub.add_parser("phases", help="synthesize reflection phases")
    add_family_args(p_ph, required=False)
    p_ph.add_argument("--poly", dest="poly_file",
                      help="existing poly JSON instead of --family")
    p_ph.add_argument("--tol", type=positive_float, default=None,
                      help="phase reconstruction tolerance (default eps/10)")
    p_ph.set_defaults(fn=cmd_phases)

    p_enc = sub.add_parser("encode", help="build a block-encoding")
    p_enc.add_argument("--matrix", required=True, help="matrix JSON file")
    p_enc.add_argument("--mode", default="dilation",
                       choices=["dilation", "sparse"])
    p_enc.add_argument("--alpha", type=finite_float, default=1.0)
    p_enc.add_argument("--row-sparsity", type=int, default=1)
    p_enc.add_argument("--col-sparsity", type=int, default=1)
    p_enc.set_defaults(fn=cmd_encode)

    p_svt = sub.add_parser("svt", help="run a transformation and verify")
    p_svt.add_argument("--matrix", required=True)
    p_svt.add_argument("--poly", dest="poly_file", required=True)
    p_svt.add_argument("--alpha", type=finite_float, default=1.0)
    p_svt.add_argument("--tol", type=positive_float, default=1e-7)
    p_svt.set_defaults(fn=cmd_svt)

    p_apps = sub.add_parser("apps", help="run a derived algorithm")
    p_apps.add_argument("app", choices=["hamsim", "pinv", "markov"])
    p_apps.add_argument("--dim", type=int, default=4)
    p_apps.add_argument("--t", type=finite_float, default=1.0)
    p_apps.add_argument("--eps", type=finite_float, default=None,
                        help="target error (default 1e-6 for hamsim, "
                             "1e-3 for pinv)")
    p_apps.add_argument("--delta", type=finite_float, default=0.3,
                        help="pinv: singular value floor")
    p_apps.add_argument("--robust", action="store_true")
    p_apps.set_defaults(fn=cmd_apps)

    p_sw = sub.add_parser(
        "sweep", help="degree-vs-parameter CSV table",
        epilog="CSV columns: param (the swept family parameter), degree "
               "(returned polynomial degree), claimed_error (certified "
               "approximation error)")
    p_sw.add_argument("--family", required=True)
    p_sw.add_argument("--range", required=True, help="lo..hi")
    p_sw.add_argument("--steps", type=int, default=8)
    p_sw.add_argument("--eps", type=finite_float, default=1e-4)
    p_sw.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        # OverflowError: a finite parameter too large to compute with
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SvtError as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
