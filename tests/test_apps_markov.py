import math

import numpy as np
import pytest

from svtkit.apps import MarkovChain, markov_detect, markov_find, markov_hitting
from svtkit.errors import EmptyMarkedSet, GapTooSmall, NotReversible


def two_state_symmetric():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    return MarkovChain(p, marked=[1])


def cycle_chain(n, marked):
    """Lazy symmetric walk on an n-cycle (lazy so it is ergodic)."""
    p = np.zeros((n, n))
    for i in range(n):
        p[i, i] = 0.5
        p[i, (i + 1) % n] += 0.25
        p[i, (i - 1) % n] += 0.25
    return MarkovChain(p, marked=marked)


def random_reversible(n, marked=(), seed=None):
    r = np.random.default_rng(seed)
    w = r.random((n, n)) + 0.1
    w = (w + w.T) / 2  # symmetric weights -> reversible
    p = w / w.sum(axis=1, keepdims=True)
    # symmetric weight matrix normalized by row sums is reversible with
    # pi_i ~ row sums
    return MarkovChain(p, marked=marked)


def monte_carlo_hitting(chain, n_traj=200_000, seed=3, cap=10_000):
    r = np.random.default_rng(seed)
    n = chain.n
    marked = chain.marked
    pi = chain.pi_stat
    cum = np.cumsum(chain.p, axis=1)
    starts = r.choice(n, size=n_traj, p=pi)
    total = 0.0
    totsq = 0.0
    for s in starts:
        x = s
        steps = 0
        while x not in marked and steps < cap:
            x = int(np.searchsorted(cum[x], r.random()))
            steps += 1
        total += steps
        totsq += steps * steps
    mean = total / n_traj
    var = totsq / n_traj - mean * mean
    return mean, math.sqrt(max(var, 0) / n_traj)


class TestMarkovChain:
    def test_row_stochastic_validation(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.6], [0.5, 0.5]]))

    def test_stationary_and_discriminant(self):
        c = random_reversible(5, seed=8)
        np.testing.assert_allclose(c.pi_stat @ c.p, c.pi_stat, atol=1e-10)
        assert c.reversible
        d = c.discriminant
        np.testing.assert_allclose(d, d.T, atol=1e-10)

    def test_sqrt_pi_is_top_singular_vector(self):
        c = random_reversible(6, seed=9)
        root = c.sqrt_pi()
        np.testing.assert_allclose(c.discriminant @ root, root, atol=1e-10)


class TestHittingTime:
    def test_two_state(self):
        ht, rep = markov_hitting(two_state_symmetric())
        assert ht == pytest.approx(1.0, abs=1e-10)

    def test_all_marked(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        c = MarkovChain(p, marked=[0, 1])
        ht, rep = markov_hitting(c)
        assert ht == pytest.approx(0.0, abs=1e-10)

    def test_monte_carlo_two_state(self):
        ht, rep = markov_hitting(two_state_symmetric())
        mc, se = monte_carlo_hitting(two_state_symmetric(), n_traj=100_000)
        assert abs(ht - mc) <= 3 * se + 1e-9

    def test_monte_carlo_cycle(self):
        c = cycle_chain(4, [0])
        ht, rep = markov_hitting(c)
        mc, se = monte_carlo_hitting(c, n_traj=100_000)
        assert abs(ht - mc) <= 3 * se

    def test_abs_bound(self):
        c = random_reversible(6, marked=[2], seed=10)
        ht, rep = markov_hitting(c)
        assert rep["abs_variant"] <= rep["abs_bound"] + 1e-9

    def test_empty_marked_rejected(self):
        with pytest.raises(EmptyMarkedSet):
            markov_hitting(MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]])))


class TestDetect:
    def test_empty_is_one_sided(self):
        for seed in range(10):
            c = random_reversible(5, marked=(), seed=seed)
            rep = markov_detect(c, 4.0)
            assert rep["decision"] == "empty"
            assert rep["marked_probability"] <= 1e-9

    def test_marked_detected(self):
        c = cycle_chain(8, [0])
        ht, _ = markov_hitting(c)
        rep = markov_detect(c, max(ht, 1.0))
        assert rep["decision"] == "marked"
        assert rep["marked_probability"] >= 2.0 / 3.0

    def test_degree_scales_with_sqrt_k(self):
        c = cycle_chain(8, [0])
        d1 = markov_detect(c, 4.0)["degree"]
        d2 = markov_detect(c, 16.0)["degree"]
        assert d2 / d1 <= 3.0  # sqrt-ish, not linear


class TestFind:
    def test_two_marked_cycle(self):
        c = cycle_chain(8, [1, 5])
        gap = c.singular_gap()
        probs, rep = markov_find(c, delta=0.9 * gap, eps=0.9 * c.p_m)
        assert rep["marked_mass"] >= 2.0 / 3.0

    def test_single_marked(self):
        c = cycle_chain(6, [2])
        gap = c.singular_gap()
        probs, rep = markov_find(c, delta=0.9 * gap, eps=0.9 * c.p_m)
        assert rep["marked_mass"] >= 2.0 / 3.0
        assert probs[2] == max(probs)

    def test_gap_promise_enforced(self):
        c = cycle_chain(8, [0])
        with pytest.raises(GapTooSmall):
            markov_find(c, delta=0.99, eps=0.01)

    def test_cost_counters_present(self):
        c = cycle_chain(6, [0])
        gap = c.singular_gap()
        _, rep = markov_find(c, delta=0.9 * gap, eps=0.9 * c.p_m)
        assert set(rep["costs"]) == {"S", "U", "C"}
        assert rep["costs"]["U"] > 0
