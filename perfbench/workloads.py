"""Seeded request streams for the three workloads.

A stream is a sequence of blocks.  Every block of a workload holds the same
mix of request kinds in a seed-shuffled order, and only the parameters and
matrices inside a kind are drawn from the seed.  A replay is a whole number
of blocks set by ``blocks_for``, so two seeds differ in their draws but
never in their mix or amount.

Each request carries the call that is timed, a check that runs afterwards
through ``oracles`` (never through svtkit), its count of U/U^dag uses, and
the parameters that determine its polynomials (``key``), which give the
workload's repeat share.

Calls go through module attributes (``svt.svt_apply``, ``apps.fast_or``)
looked up at call time, so the traced run sees them through its wrappers.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
from typing import Callable, Iterator

import numpy as np
import scipy.stats

import oracles
from svtkit import ChebSeries, apps, blockenc, cli, svt


@dataclasses.dataclass
class Request:
    kind: str
    key: tuple            # parameters that determine the polynomials built
    dim: int              # encoding (transform) or system (apps) dimension
    run: Callable[[], object]
    check: Callable[[object], str | None]
    uses: Callable[[object], int]


class CliFailure(Exception):
    """A CLI command returned a nonzero exit code."""

    def __init__(self, command: str, code: int, stderr: str):
        found = re.search(r"\[(\w+)\]", stderr)
        self.kind = found.group(1) if found else f"exit{code}"
        super().__init__(f"{command} exited {code}: {stderr.strip()[:200]}")


# Block times measured on a 2-core x86 VM (for apps: the cold first round,
# then each warm one).  A replay is the whole number of blocks whose times
# come nearest to its share of --seconds, so every run of a workload does
# the same work, whatever the machine's speed of the moment and whichever
# commit runs it.
NOMINAL_BLOCK_S = {"synth": (3.1,), "transform": (7.5,), "apps": (6.6, 2.1)}


def blocks_for(name: str, seconds: float) -> int:
    costs = NOMINAL_BLOCK_S[name]
    n, total = 1, costs[0]
    while total + costs[min(n, len(costs) - 1)] / 2.0 <= seconds:
        total += costs[min(n, len(costs) - 1)]
        n += 1
    return n


def stream(name: str, seed: int, tmp_dir: str) -> Iterator[list[Request]]:
    rng = np.random.default_rng(seed)
    if name == "synth":
        return _synth(rng, tmp_dir)
    if name == "transform":
        return _transform(rng)
    if name == "apps":
        return _apps(rng)
    raise ValueError(f"unknown workload {name!r}")


def random_parity_target(rng, degree: int, supnorm: float = 0.99):
    """Random Chebyshev series of definite parity with the given sup on
    [-1, 1] (the generator of the repository's acceptance criterion 1)."""
    c = rng.standard_normal(degree + 1)
    c[(degree % 2) ^ 1::2] = 0.0
    grid = np.cos(np.linspace(0.0, np.pi, 2001))
    return c * supnorm / np.abs(np.polynomial.chebyshev.chebval(grid, c)).max()


def _log_uniform(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _unit_norm(m, norm=0.95):
    return m * (norm / np.linalg.norm(m, 2))


# ----------------------------------------------------------------------
# synth: CLI phase synthesis, all parameters distinct

# One block: the families the apps consume, each in a narrow parameter
# window, on a ladder of degrees from ~5 to ~400, plus one random
# extended-precision target.  Windows keep each slot's cost about the same
# from block to block; within a window every draw is distinct.  The costs
# fall in groups: four cheap slots (under 0.08 s), six middle ones of one
# window (about 0.14 s), three sign-d ones (about 0.2 s), the random target
# (0.3-1 s) and one top slot (about 0.85 s).  In a replay of three blocks
# (45 requests) the median latency lies in the middle of the middle group,
# and the 11th-largest latency (the tail) among the sign-d requests, never
# on the edge between two groups.  The windows that hold the median and the
# tail are the narrowest, so that a seed moves their costs little.
SYNTH_WINDOWS = {
    # below eps ~1e-8 sin/cos phases can fail the tail-mass budget
    "sin": dict(t=(0.2, 1.4), eps=(1e-7, 1e-4)),
    "cos": dict(t=(0.2, 1.4), eps=(1e-7, 1e-4)),
    "sign-a": dict(delta=(0.55, 0.65), eps=(5e-3, 1e-2)),
    "sign-b": dict(delta=(0.30, 0.33), eps=(5e-4, 1e-3)),
    "rect-a": dict(t=(0.45, 0.55), delta=(0.205, 0.21), eps=(1.4e-3, 1.6e-3)),
    # below eps ~5e-6 phases escalates to mpmath for 15-60 s per request
    # (NOTES.md), which would decide a whole run's throughput
    "sign-d": dict(delta=(0.184, 0.186), eps=(1.4e-5, 1.6e-5)),
    "rect-c": dict(t=(0.45, 0.55), delta=(0.075, 0.08), eps=(1e-4, 2e-4)),
    "inverse": dict(kappa=(2.6, 2.8), eps=(2e-4, 4e-4)),
}
SYNTH_BLOCK = ("sin", "cos", "sign-a", "sign-b",
               "rect-a", "rect-a", "rect-a", "rect-a", "rect-a", "rect-a",
               "sign-d", "sign-d", "sign-d", "random", "top")
# the top slot alternates between the two degree-~370 families
SYNTH_TOP = ("rect-c", "inverse")
# The random extended-precision targets are the same in every run: their
# degrees walk this cycle through 16-32, one per block, and their
# coefficients come from a generator of their own, not from --seed.  A few
# such targets take seconds in the mpmath route, and when --seed drew them
# the throughput of a run depended on how many of those it happened to get.
RANDOM_TARGETS_SEED = 0
RANDOM_DEGREES = (16, 32, 24, 20, 28, 18, 30, 22, 26, 17, 31, 23, 19, 27, 21,
                  29, 25)


def _call_cli(command, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailure(command, code, err.getvalue())
    return out.getvalue()


def _synth_family(rng, slot, path):
    fam = slot.split("-")[0]
    window = SYNTH_WINDOWS[slot]
    eps = _log_uniform(rng, *window["eps"])
    if fam in ("sin", "cos"):
        t = rng.uniform(*window["t"])
        args = ["--t", repr(t)]
        target = (lambda x: np.sin(t * x)) if fam == "sin" \
            else (lambda x: np.cos(t * x))
        domain = [(-1.0, 1.0)]
    elif fam == "sign":
        delta = _log_uniform(rng, *window["delta"])
        args = ["--delta", repr(delta)]
        target = np.sign
        domain = [(-1.0, -delta), (delta, 1.0)]
    elif fam == "rect":
        t = rng.uniform(*window["t"])
        delta = _log_uniform(rng, *window["delta"])
        args = ["--t", repr(t), "--delta", repr(delta)]
        target = lambda x: (np.abs(x) <= t).astype(float)  # noqa: E731
        domain = [(-(t - delta), t - delta), (-1.0, -(t + delta)),
                  (t + delta, 1.0)]
    else:
        kappa = rng.uniform(*window["kappa"])
        args = ["--kappa", repr(kappa), "--bounded"]
        target = lambda x: 1.0 / (2.0 * kappa * x)  # noqa: E731
        domain = [(-1.0, -1.0 / kappa), (1.0 / kappa, 1.0)]
    args += ["--eps", repr(eps)]
    tol = eps / 10.0
    key = (slot, *args)
    poly_argv = ["--out", path, "poly", "--family", fam, *args]
    # `phases --poly FILE` still demands --family; the value is ignored
    phases_argv = ["phases", "--family", "sign", "--poly", path,
                   "--tol", repr(tol)]

    def run():
        _call_cli("poly", poly_argv)
        return json.loads(_call_cli("phases", phases_argv))

    def check(out):
        with open(path) as fh:
            poly = json.load(fh)
        coeffs = [complex(re_, im) for re_, im in poly["poly"]["coeffs"]]
        cert = poly["certificate"]
        if cert["claimed_error"] != eps:
            return f"certificate claims {cert['claimed_error']}, asked {eps}"
        return (oracles.check_certificate(coeffs, eps,
                                          cert["claimed_sup_bound"],
                                          target, domain)
                or oracles.check_phases(out["phis"], coeffs, tol))

    return key, run, check


def _synth_random(rng, degree, path):
    coeffs = random_parity_target(rng, degree)
    poly = {"poly": ChebSeries(coeffs).to_json()}
    argv = ["--precision", "extended", "phases", "--family", "sign",
            "--poly", path, "--tol", "1e-10"]

    def run():
        with open(path, "w") as fh:  # the input file, rewritten per request
            json.dump(poly, fh)
        return json.loads(_call_cli("phases", argv))

    def check(out):
        return oracles.check_phases(out["phis"], coeffs, 1e-10)

    return ("random", coeffs.tobytes()), run, check


def _synth(rng, tmp_dir):
    path = os.path.join(tmp_dir, "poly.json")
    targets_rng = np.random.default_rng(RANDOM_TARGETS_SEED)
    for n in itertools.count():
        slots = [SYNTH_TOP[n % len(SYNTH_TOP)] if s == "top" else s
                 for s in SYNTH_BLOCK]
        block = []
        for i in rng.permutation(len(slots)):
            slot = slots[i]
            if slot == "random":
                degree = RANDOM_DEGREES[n % len(RANDOM_DEGREES)]
                key, run, check = _synth_random(targets_rng, degree, path)
            else:
                key, run, check = _synth_family(rng, slot, path)
            block.append(Request(slot, key, 0, run, check,
                                 lambda out: len(out["phis"])))
        yield block


# ----------------------------------------------------------------------
# transform: library SVT on random matrices, four fixed targets

TRANSFORM_DEGREES = (21, 51, 101, 201)
# One block: (n, degree, kind) cells of an n x n matrix, encoding dimension
# 2n, 12 of 54 as Hermitian eigenvalue transformations with the target
# halved.  Counts are set so that the median latency falls in the middle of
# the (32, 101) cell and the 11th-largest latency (the tail) in the middle
# of the sixteen ~0.25 s (64, 101) cells, never between two groups of
# different cost.  Most of the time goes to svt_apply at dimension 128 and
# 256, as in a user's SVT of a large matrix; eigenvalue transformations,
# whose time goes mostly to blockenc's norm and unitarity checks, stay at
# n <= 32.
TRANSFORM_BLOCK = (
    [(8, d, "svt") for d in TRANSFORM_DEGREES]
    + [(8, d, "eig") for d in TRANSFORM_DEGREES]
    + [(16, d, "svt") for d in TRANSFORM_DEGREES]
    + [(16, d, "eig") for d in TRANSFORM_DEGREES]
    + [(32, 21, "svt")] * 2 + [(32, 51, "svt")] * 2
    + [(32, 101, "svt")] * 10 + [(32, 201, "svt")] * 2
    + [(32, 21, "eig")] * 2 + [(32, 51, "eig")] * 2
    + [(64, 101, "svt")] * 16
    + [(128, 21, "svt"), (128, 51, "svt")]
)
# Every replay opens with one cell of each (degree, kind) target, so the
# first-touch phase syntheses land on the same requests in every run.
TRANSFORM_FIRST = ((128, 21, "svt"), (128, 51, "svt"), (64, 101, "svt"),
                   (32, 201, "svt"), (32, 21, "eig"), (32, 51, "eig"),
                   (16, 101, "eig"), (16, 201, "eig"))
TRANSFORM_DELTA = 1e-8


def _transform(rng):
    targets = {d: random_parity_target(rng, d) for d in TRANSFORM_DEGREES}
    series = {d: ChebSeries(c, "odd") for d, c in targets.items()}
    halves = {d: ChebSeries(c * 0.5, "odd") for d, c in targets.items()}
    cells = list(TRANSFORM_BLOCK)
    for b in itertools.count():
        order = list(rng.permutation(len(cells)))
        if b == 0:
            first = [cells.index(c) for c in TRANSFORM_FIRST]
            order = first + [i for i in order if i not in first]
        block = []
        for i in order:
            n, d, kind = cells[i]
            if kind == "eig":
                block.append(_eig_request(rng, n, d, targets[d], halves[d]))
            else:
                block.append(_svt_request(rng, n, d, targets[d], series[d]))
        yield block


def _svt_request(rng, n, degree, coeffs, target):
    a = _unit_norm(rng.standard_normal((n, n)))

    def run():
        be = blockenc.embed(a)
        return svt.svt_apply(be.pu, target, kind="real_poly",
                             delta=TRANSFORM_DELTA)

    def check(out):
        want = np.zeros((2 * n, 2 * n), complex)
        want[:n, :n] = oracles.odd_singular_value_map(a, coeffs)
        return oracles.check_close(out.result, want, TRANSFORM_DELTA,
                                   "svt_apply")

    return Request("svt_apply", ("svt", degree), 2 * n, run, check,
                   lambda out: out.ledger["u_uses"])


def _eig_request(rng, n, degree, coeffs, target):
    x = rng.standard_normal((n, n))
    h = _unit_norm((x + x.T) / 2.0)

    def run():
        return svt.eigenvalue_transform(blockenc.embed(h), target,
                                        delta=TRANSFORM_DELTA)

    def check(out):
        want = oracles.hermitian_map(h, 0.5 * coeffs)
        return oracles.check_close(out.result, want, TRANSFORM_DELTA,
                                   "eigenvalue_transform")

    return Request("eigenvalue_transform", ("eig", degree), 2 * n, run,
                   check, lambda out: out.ledger["u_uses"])


# ----------------------------------------------------------------------
# apps: derived algorithms on small systems, parameters from small sets

HAMSIM_EPS = 1e-6
FRACQ_EPS = 1e-3
FAST_OR = dict(eta=0.2, nu=0.02, eps=0.05)
THRESH_DELTA, THRESH_EPS = 0.1, 1e-2
EMPTY_K, MARKED_K = 4.0, 16.0  # hitting-time bounds given to markov_detect
MARKED_CLAIM = 2.0 / 3.0  # detection probability the CLI report claims

# The mix, one round per block.  The first round of a replay pays every
# cold polynomial build (about 6.6 s), each later one is warm (about 2.1 s).
# The counts keep every app below half of the wall time, and place the
# median latency inside the ~0.09 s group (marked chains, warm threshold
# projectors) and the 11th-largest latency inside the ~0.27 s group (warm
# fast_or and fractional_query) of a three-round replay.
APPS_MIX = (
    [("markov_detect", "empty")] * 2 + [("markov_detect", "marked")] * 4
    + [("hamiltonian_simulate", (t, robust))
       for t in (1.0, 5.0, 10.0) for robust in (False, True)]
    + [("fractional_query", t) for t in (0.25, 0.5)]
    + [("fast_or", (2, "i")), ("fast_or", (2, "ii"))]
    + [("threshold_projector", t) for t in (0.4, 0.6)]
    + [("pseudoinverse", (0.4, 1e-3))] * 2
)


def _apps(rng):
    build = {"markov_detect": _markov_request,
             "hamiltonian_simulate": _hamsim_request,
             "fractional_query": _fracq_request,
             "fast_or": _fast_or_request,
             "threshold_projector": _thresh_request,
             "pseudoinverse": _pinv_request}
    while True:
        yield [build[APPS_MIX[i][0]](rng, APPS_MIX[i][1])
               for i in rng.permutation(len(APPS_MIX))]


def _reversible_chain(rng, n):
    w = rng.random((n, n)) + 0.1
    w = (w + w.T) / 2.0
    return w / w.sum(axis=1, keepdims=True)


def _markov_request(rng, mode):
    n = int(rng.integers(2, 9))
    p = _reversible_chain(rng, n)
    k = EMPTY_K if mode == "empty" else MARKED_K

    def run():
        marked = [] if mode == "empty" else [0]
        return apps.markov_detect(apps.MarkovChain(p, marked=marked), k)

    def check(rep):
        prob, decision = rep["marked_probability"], rep["decision"]
        if mode == "empty":
            if decision != "empty" or prob > 1e-9:
                return f"empty chain: {decision} with probability {prob:.2e}"
        elif oracles.hitting_time(p, [0]) <= k:
            if decision != "marked" or prob < MARKED_CLAIM:
                return f"marked chain: {decision} with probability {prob:.3f}"
        return None

    return Request("markov_detect", ("markov", k), n, run, check,
                   lambda rep: rep["ledger"]["u_uses"])


def _hamsim_request(rng, params):
    t, robust = params
    n = int(rng.integers(2, 9))
    x = rng.standard_normal((n, n))
    h = _unit_norm((x + x.T) / 2.0)

    def run():
        be = blockenc.embed(h)
        if robust:
            be = blockenc.BlockEncoding(be.pu.u, alpha=1.0, ancillas=1,
                                        eps=0.0, target=h)
        return apps.hamiltonian_simulate(be, t, HAMSIM_EPS, robust=robust)

    def check(result):
        enc, rep = result
        if not rep["measured"] <= rep["claimed"]:
            return f"measured {rep['measured']:.2e} > claimed {rep['claimed']}"
        return oracles.check_close(enc.extract(), oracles.exp_i(h, t),
                                   HAMSIM_EPS, "hamiltonian_simulate")

    return Request("hamiltonian_simulate", ("hamsim", t, robust), n, run,
                   check, lambda result: result[1]["uses"])


def _fracq_request(rng, t):
    n = int(rng.integers(2, 9))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = _unit_norm((x + x.conj().T) / 2.0, 0.5 * rng.uniform(0.5, 1.0))
    u = oracles.exp_i(h, 1.0)

    def run():
        return apps.fractional_query(u, t, FRACQ_EPS)

    def check(result):
        enc, rep = result
        if not rep["measured"] <= rep["claimed"]:
            return f"measured {rep['measured']:.2e} > claimed {rep['claimed']}"
        return oracles.check_close(enc.extract(), oracles.exp_i(h, t),
                                   FRACQ_EPS, "fractional_query")

    return Request("fractional_query", ("fracq", t), n, run, check,
                   lambda result: result[1]["degree"])


def _fast_or_request(rng, params):
    """Criterion 12's instances: case i has a state inside one projector,
    case ii a state orthogonal to every projector."""
    m, case = params
    dim = int(rng.integers(4, 9))
    us = [scipy.stats.unitary_group.rvs(dim, random_state=rng)
          for _ in range(m)]
    if case == "i":
        rank = int(rng.integers(1, 3))
        projs = [u[:, :rank] @ u[:, :rank].conj().T for u in us]
        psi = us[0][:, 0]
    else:
        projs = [u[:, :1] @ u[:, :1].conj().T for u in us]
        q, _ = np.linalg.qr(np.column_stack([u[:, 0] for u in us]))
        psi = np.linalg.eigh(np.eye(dim) - q @ q.conj().T)[1][:, -1]
    rho = np.outer(psi, psi.conj())

    def run():
        return apps.fast_or(projs, rho, **FAST_OR)

    def check(result):
        p_acc, rep = result
        if case == "i" and not p_acc >= rep["case_i_bound"]:
            return f"acceptance {p_acc:.4f} < {rep['case_i_bound']:.4f}"
        if case == "ii" and not p_acc <= rep["case_ii_bound"]:
            return f"acceptance {p_acc:.4f} > {rep['case_ii_bound']:.4f}"
        return None

    return Request("fast_or", ("fast_or", m), dim, run, check,
                   lambda result: result[1]["ledger"]["u_uses"])


def _thresh_request(rng, t):
    n = int(rng.integers(2, 9))
    a = _unit_norm(rng.standard_normal((n, n)))

    def run():
        return apps.threshold_projector(blockenc.embed(a).pu, t,
                                        THRESH_DELTA, THRESH_EPS)

    def check(result):
        u_phi, rep = result
        for name in ("above_identity_error", "below_suppression"):
            if not rep[name] <= rep["claimed"]:
                return f"{name} {rep[name]:.2e} > claimed {rep['claimed']}"
        # identity on the right singular vectors above t + delta
        _, s, vh = np.linalg.svd(a)
        keep = vh[s >= t + THRESH_DELTA]
        v = np.zeros((2 * n, len(keep)), complex)
        v[:n] = keep.conj().T
        above = v @ v.conj().T
        return oracles.check_close(above @ u_phi @ above, above, THRESH_EPS,
                                   "threshold_projector")

    return Request("threshold_projector", ("thresh", t), n, run, check,
                   lambda result: result[1]["ledger"]["u_uses"])


def _pinv_request(rng, params):
    delta, eps = params
    n = int(rng.integers(2, 9))
    u = scipy.stats.unitary_group.rvs(n, random_state=rng)
    v = scipy.stats.unitary_group.rvs(n, random_state=rng)
    a = (u * rng.uniform(delta, 0.95, n)) @ v.conj().T

    def run():
        return apps.pseudoinverse(blockenc.embed(a).pu, delta, eps)

    def check(result):
        outcome, rep = result
        if not rep["measured"] <= rep["claimed"]:
            return f"measured {rep['measured']:.2e} > claimed {rep['claimed']}"
        want = np.zeros((2 * n, 2 * n), complex)
        want[:n, :n] = 0.5 * delta * oracles.pseudoinverse(a)
        return oracles.check_close(outcome.result, want, eps, "pseudoinverse")

    return Request("pseudoinverse", ("pinv", delta, eps), n, run, check,
                   lambda result: result[1]["degree"])
