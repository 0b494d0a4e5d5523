"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.
"""
import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from svtkit import ChebSeries
from svtkit.approx import (approx_inverse, approx_sign, approx_trig,
                           bessel_j, solve_r)
from svtkit.apps import (MarkovChain, fast_or, fractional_query,
                         hamiltonian_simulate, markov_detect, markov_hitting,
                         pcr_solve, pseudoinverse, query_lower_bound)
from svtkit.blockenc import (BlockEncoding, Projector, ProjectedUnitary,
                             embed, operator_norm)
from svtkit.qsp import chebyshev_phases, phases_for_target, qsp_eval
from svtkit.svt import reference_svt, robustness_bound, svt_apply


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {detail}")
    return ok


def random_parity_target(rng, deg, supnorm=0.99):
    c = rng.standard_normal(deg + 1)
    c[(deg % 2) ^ 1::2] = 0.0
    grid = np.cos(np.linspace(0, np.pi, 2001))
    c *= supnorm / np.abs(np.polynomial.chebyshev.chebval(grid, c)).max()
    return c


def test_criterion_1_qsp_roundtrip():
    rng = np.random.default_rng(101)
    xs = np.cos(np.linspace(0.0005, math.pi - 0.0005, 1000))
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        deg = int(rng.integers(1, 21))
        c = random_parity_target(rng, deg)
        refl, _ = phases_for_target(c, tol=1e-8)
        rec = qsp_eval(refl, xs)[:, 0, 0].real
        want = np.polynomial.chebyshev.chebval(xs, c)
        worst = max(worst, float(np.abs(rec - want).max()))
    worst_ext = 0.0
    for deg in (60, 85, 100):
        c = random_parity_target(rng, deg)
        refl, _ = phases_for_target(c, tol=1e-10)
        rec = qsp_eval(refl, xs)[:, 0, 0].real
        want = np.polynomial.chebyshev.chebval(xs, c)
        worst_ext = max(worst_ext, float(np.abs(rec - want).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and worst_ext <= 1e-10 and elapsed <= 60.0
    assert _line(1, ok,
                 f"500 targets deg<=20 max err {worst:.2e} (<=1e-8), "
                 f"deg 60-100 max err {worst_ext:.2e} (<=1e-10), "
                 f"{elapsed:.1f}s (<=60s)")


def test_criterion_2_svt_theorem():
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 17))
        u = scipy.stats.unitary_group.rvs(dim, random_state=rng)
        rk = int(rng.integers(1, dim + 1))
        rkt = int(rng.integers(1, dim + 1))
        pu = ProjectedUnitary(u, Projector(dim, indices=range(rk)),
                              Projector(dim, indices=range(rkt)))
        deg = int(rng.integers(1, 21))
        c = random_parity_target(rng, deg)
        outcome = svt_apply(pu, ChebSeries(c), kind="real_poly", delta=1e-8)
        worst = max(worst, outcome.measured_error)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed <= 120.0
    assert _line(2, ok,
                 f"500 projected unitaries dim<=16 deg<=20: max "
                 f"|block - oracle| {worst:.2e} (<=1e-8), "
                 f"{elapsed:.1f}s (<=120s)")


def test_criterion_3_chebyshev_phases():
    xs = np.cos(np.linspace(0.01, math.pi - 0.01, 100))
    worst = 0.0
    for d in range(1, 51):
        seq = chebyshev_phases(d)
        got = qsp_eval(seq, xs)[:, 0, 0]
        want = np.cos(d * np.arccos(xs))
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-10
    assert _line(3, ok,
                 f"chebyshev phases d<=50 reproduce T_d to {worst:.2e} "
                 f"(<=1e-10)")


def test_criterion_4_robustness_footnote():
    d = 50
    x, y = 1.0, 1.0 - 1.0 / (2 * d * d)
    measured = abs(math.cos(d * math.acos(x)) - math.cos(d * math.acos(y)))
    bound = robustness_bound(np.array([[x]]), np.array([[y]]), "poly_sqrt",
                             degree=d)
    ok = 0.44 <= measured <= 0.48 and measured <= bound \
        and bound <= 2 * math.sqrt(2) + 1e-12
    assert _line(4, ok,
                 f"T_50 scalar gap {measured:.4f} in [0.44, 0.48], "
                 f"bound {bound:.4f} = 2*sqrt(2)")


def test_criterion_5_hamiltonian_simulation():
    rng = np.random.default_rng(303)
    h = rng.standard_normal((4, 4))
    h = (h + h.T) / 2
    h /= operator_norm(h) * (1 / 0.95)
    eps = 1e-6
    t0 = time.time()
    worst = 0.0
    ledger_ok = True
    for t in (1.0, 5.0, 10.0):
        be = embed(h, 1.0)
        out, rep = hamiltonian_simulate(be, t, eps)
        worst = max(worst, rep["measured"])
        be_r = BlockEncoding(embed(h, 1.0).pu.u, alpha=1.0, ancillas=1,
                             eps=0.0, target=h)
        out_r, rep_r = hamiltonian_simulate(be_r, t, eps, robust=True)
        worst = max(worst, rep_r["measured"])
        cap = 6 * abs(t) + 9 * math.log(12 / eps)
        ledger_ok = ledger_ok and rep_r["uses"] <= cap
    elapsed = time.time() - t0
    ok = worst <= eps and ledger_ok and elapsed <= 30.0
    assert _line(5, ok,
                 f"hamsim t in {{1,5,10}}: max err {worst:.2e} (<=1e-6), "
                 f"robust ledger within 6t + 9 log(12/eps), "
                 f"{elapsed:.1f}s (<=30s)")


def test_criterion_6_pseudoinverse_and_pcr():
    rng = np.random.default_rng(404)
    delta, eps = 0.2, 1e-4
    u = scipy.stats.unitary_group.rvs(4, random_state=rng)
    v = scipy.stats.unitary_group.rvs(4, random_state=rng)
    s = np.array([0.9, 0.65, 0.4, 0.21])
    a = u @ np.diag(s) @ v.conj().T
    pu = embed(a, 1.0).pu
    outcome, rep = pseudoinverse(pu, delta, eps)
    pinv_ok = rep["measured"] <= eps
    # PCR on an instance whose threshold cuts two directions
    b = np.zeros(pu.dim, complex)
    b[:4] = rng.standard_normal(4)
    b /= np.linalg.norm(b)
    x_hat, prep = pcr_solve(pu, b, sigma=0.5, delta=0.05, eps=1e-5)
    pcr_ok = prep["residual_gap"] <= 1e-6
    ok = pinv_ok and pcr_ok
    assert _line(6, ok,
                 f"pinv block err {rep['measured']:.2e} (<=1e-4), "
                 f"PCR residual gap {prep['residual_gap']:.2e} (<=1e-6)")


def test_criterion_7_jacobi_anger():
    t, eps = 5.0, 1e-6
    r_val = solve_r(math.e * abs(t) / 2.0, 1.25 * eps)
    R = int(math.floor(r_val / 2.0))
    js = bessel_j(2 * R + 1, t)
    cos_c = np.zeros(2 * R + 1)
    cos_c[0] = js[0]
    for k in range(1, R + 1):
        cos_c[2 * k] = 2.0 * (-1) ** k * js[2 * k]
    sin_c = np.zeros(2 * R + 2)
    for k in range(0, R + 1):
        sin_c[2 * k + 1] = 2.0 * (-1) ** k * js[2 * k + 1]
    xs = np.linspace(-1, 1, 20001)
    err_c = np.abs(np.polynomial.chebyshev.chebval(xs, cos_c)
                   - np.cos(t * xs)).max()
    err_s = np.abs(np.polynomial.chebyshev.chebval(xs, sin_c)
                   - np.sin(t * xs)).max()
    ok = max(err_c, err_s) <= eps
    assert _line(7, ok,
                 f"Jacobi-Anger t=5 R={R}: cos err {err_c:.2e}, "
                 f"sin err {err_s:.2e} (<=1e-6)")


def test_criterion_8_solve_r():
    import mpmath as mp

    worst_rel = 0.0
    bound_ok = True
    q = 1.0 / 3.0
    for t in np.geomspace(1e-2, 1e3, 12):
        for eps in np.geomspace(1e-12, 0.5, 12):
            r = solve_r(float(t), float(eps))
            with mp.workdps(50):
                resid = abs((mp.mpf(t) / mp.mpf(r)) ** mp.mpf(r) - mp.mpf(eps))
                worst_rel = max(worst_rel, float(resid / mp.mpf(eps)))
            if r > math.exp(q) * t + math.log(1 / eps) / q + 1e-9:
                bound_ok = False
    ok = worst_rel <= 1e-12 and bound_ok
    assert _line(8, ok,
                 f"solve_r log-grid: worst relative residual {worst_rel:.2e} "
                 f"(<=1e-12), q=1/3 bound never violated: {bound_ok}")


def _mc_hitting_vectorized(chain, n_traj, seed, cap=100_000):
    rng = np.random.default_rng(seed)
    cum = np.cumsum(chain.p, axis=1)
    marked = np.zeros(chain.n, bool)
    for x in chain.marked:
        marked[x] = True
    state = rng.choice(chain.n, size=n_traj, p=chain.pi_stat)
    steps = np.zeros(n_traj, np.int64)
    active = ~marked[state]
    it = 0
    while active.any() and it < cap:
        draws = rng.random(active.sum())
        idx = np.nonzero(active)[0]
        rows = cum[state[idx]]
        nxt = (rows < draws[:, None]).sum(axis=1)
        state[idx] = nxt
        steps[idx] += 1
        active[idx] = ~marked[nxt]
        it += 1
    mean = steps.mean()
    se = steps.std(ddof=1) / math.sqrt(n_traj)
    return mean, se


def test_criterion_9_markov():
    p2 = np.array([[0.5, 0.5], [0.5, 0.5]])
    chain2 = MarkovChain(p2, marked=[1])
    ht2, _ = markov_hitting(chain2)
    mc2, se2 = _mc_hitting_vectorized(chain2, 1_000_000, seed=7)
    ok2 = abs(ht2 - mc2) <= 3 * se2 + 1e-12 and abs(ht2 - 1.0) < 1e-10

    n = 4
    p4 = np.zeros((n, n))
    for i in range(n):
        p4[i, i] = 0.5
        p4[i, (i + 1) % n] += 0.25
        p4[i, (i - 1) % n] += 0.25
    chain4 = MarkovChain(p4, marked=[0])
    ht4, _ = markov_hitting(chain4)
    mc4, se4 = _mc_hitting_vectorized(chain4, 1_000_000, seed=8)
    ok4 = abs(ht4 - mc4) <= 3 * se4

    rng = np.random.default_rng(505)
    one_sided = True
    for _ in range(1000):
        nn = int(rng.integers(2, 6))
        w = rng.random((nn, nn)) + 0.1
        w = (w + w.T) / 2
        p = w / w.sum(axis=1, keepdims=True)
        chain = MarkovChain(p)
        rep = markov_detect(chain, 4.0)
        if rep["decision"] != "empty" or rep["marked_probability"] > 1e-9:
            one_sided = False
            break
    ok = ok2 and ok4 and one_sided
    assert _line(9, ok,
                 f"HT two-state {ht2:.4f} vs MC {mc2:.4f} ({se2:.4f} se), "
                 f"4-cycle {ht4:.4f} vs {mc4:.4f} ({se4:.4f} se), "
                 f"detect one-sided over 1000 empty chains: {one_sided}")


def test_criterion_10_fractional_queries():
    rng = np.random.default_rng(606)
    eps = 1e-5
    worst = 0.0
    max_degree = 0
    for i in range(50):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        h *= 0.5 / operator_norm(h) * rng.uniform(0.5, 1.0)
        u = scipy.linalg.expm(1j * h)
        t = (0.25, 0.5, 0.75)[i % 3]
        enc, rep = fractional_query(u, t, eps)
        wv, vv = np.linalg.eig(u)
        want = vv @ np.diag(np.exp(1j * t * np.angle(wv))) @ np.linalg.inv(vv)
        worst = max(worst, operator_norm(enc.extract() - want))
        max_degree = max(max_degree, rep["degree"])
    c_const = max_degree / math.log(1 / eps)
    ok = worst <= eps
    assert _line(10, ok,
                 f"50 fractional queries: max err {worst:.2e} (<=1e-5), "
                 f"degree <= {c_const:.1f} * log(1/eps)")


def test_criterion_11_lower_bound_consistency():
    violations = []
    # sign transformation at (delta, eps)
    delta, eps_s = 0.2, 0.01
    sign = approx_sign(delta, eps_s)
    refl, _ = phases_for_target(sign.cheb, tol=1e-5)
    uses_sign = len(refl.phis)
    lb_sign = query_lower_bound(lambda x: math.copysign(1.0, x),
                                delta, -delta, eps_s)
    if uses_sign < lb_sign:
        violations.append("sign")
    # pseudoinverse at delta = 0.2, eps = 1e-4
    delta_p, eps_p = 0.2, 1e-4
    inv = approx_inverse(1.0 / delta_p, eps_p, bounded=True)
    refl_p, _ = phases_for_target(inv.cheb, tol=1e-5)
    uses_pinv = len(refl_p.phis)
    grid = np.linspace(delta_p, 1.0, 41)
    lb_pinv = 0.0
    f_p = lambda x: delta_p / (2 * x)
    for i, x in enumerate(grid):
        for y in grid[i + 1:]:
            lb_pinv = max(lb_pinv, query_lower_bound(f_p, x, y, eps_p))
    if uses_pinv < lb_pinv:
        violations.append("pseudoinverse")
    # hamiltonian simulation at t = 10
    t_h, eps_h = 10.0, 1e-6
    cos_r, sin_r = approx_trig(t_h, eps_h / 6.0)
    uses_ham = 3 * (max(cos_r.degree, sin_r.degree))
    xs = np.linspace(-1, 1, 81)
    lb_ham = 0.0
    f_h = lambda x: math.sin(t_h * x) / 2.0  # realized |P| <= 1/2 branch
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            lb_ham = max(lb_ham, query_lower_bound(f_h, x, y, eps_h))
    if uses_ham < lb_ham:
        violations.append("hamsim")
    ok = not violations
    assert _line(11, ok,
                 f"use-counts vs lower bounds: sign {uses_sign} >= "
                 f"{lb_sign:.1f}, pinv {uses_pinv} >= {lb_pinv:.1f}, "
                 f"hamsim {uses_ham} >= {lb_ham:.1f}; "
                 f"violations: {violations or 'none'}")


def test_criterion_12_fast_or():
    rng = np.random.default_rng(707)
    eta, nu, eps = 0.1, 0.01, 0.01
    failures = 0
    for trial in range(100):
        m = int(rng.integers(1, 5))
        dim = int(rng.integers(4, 9))
        case_i = trial % 2 == 0
        projs = []
        us = [scipy.stats.unitary_group.rvs(dim, random_state=rng)
              for _ in range(m)]
        if case_i:
            rank = int(rng.integers(1, 3))
            projs = [u[:, :rank] @ u[:, :rank].conj().T for u in us]
            psi = us[0][:, 0]
            rho = np.outer(psi, psi.conj())  # Tr[rho Pi_1] = 1 >= 1 - eta
        else:
            projs = [u[:, :1] @ u[:, :1].conj().T for u in us]
            # rho orthogonal to every projector: project out their ranges
            basis = np.column_stack([u[:, 0] for u in us])
            q, _ = np.linalg.qr(basis)
            comp = np.eye(dim) - q @ q.conj().T
            w = np.linalg.eigh(comp)[1][:, -1]
            rho = np.outer(w, w.conj())
            avg = np.mean([np.real(np.trace(rho @ p)) for p in projs])
            if avg > nu:
                continue
        p_acc, rep = fast_or(projs, rho, eta, nu, eps)
        if case_i and p_acc < (1 - eta) ** 2 / 4 - eps:
            failures += 1
        if not case_i and p_acc > 5 * m * nu + eps:
            failures += 1
    ok = failures == 0
    assert _line(12, ok,
                 f"fast OR over 100 instances: {failures} bound violations")
