import math

import numpy as np
import pytest
import scipy.stats

from svtkit.apps import query_lower_bound, singular_value_estimate
from svtkit.blockenc import embed


@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(43)


def pu_with_singular_values(sigmas, rng):
    sigmas = np.asarray(sigmas, float)
    n = len(sigmas)
    w = scipy.stats.unitary_group.rvs(n, random_state=rng)
    v = scipy.stats.unitary_group.rvs(n, random_state=rng)
    a = w @ np.diag(sigmas) @ v.conj().T
    return embed(a, 1.0).pu, a


class TestSingularValueEstimate:
    def test_saturated_value(self, rng):
        pu, a = pu_with_singular_values([1.0, 0.5], rng)
        w, s, vh = np.linalg.svd(a)
        state = np.zeros(pu.dim, complex)
        state[:2] = vh.conj().T[:, 0]
        est, rep = singular_value_estimate(pu, state, n_bits=4, eps=0.01)
        assert est.get(1.0, 0.0) >= 1 - 0.01

    def test_grid_value_concentration(self, rng):
        n_bits = 6
        n = 2 ** n_bits
        theta = math.pi / 4
        pu, a = pu_with_singular_values([math.cos(theta), 0.3], rng)
        w, s, vh = np.linalg.svd(a)
        state = np.zeros(pu.dim, complex)
        state[:2] = vh.conj().T[:, 0]
        est, rep = singular_value_estimate(pu, state, n_bits=n_bits, eps=0.01)
        # theta/pi = 0.25: exact grid point m = 16 on the 64-grid
        target = round(math.cos(math.pi * 16 / n), 12)
        mode = max(est, key=est.get)
        assert mode == pytest.approx(target, abs=1e-12)
        assert est[mode] >= 8 / math.pi ** 2 - 0.01

    def test_superposition_bimodal(self, rng):
        n_bits = 5
        pu, a = pu_with_singular_values([math.cos(math.pi * 4 / 32),
                                         math.cos(math.pi * 12 / 32)], rng)
        w, s, vh = np.linalg.svd(a)
        c1, c2 = math.sqrt(0.3), math.sqrt(0.7)
        state = np.zeros(pu.dim, complex)
        state[:2] = c1 * vh.conj().T[:, 0] + c2 * vh.conj().T[:, 1]
        est, rep = singular_value_estimate(pu, state, n_bits=n_bits, eps=0.01)
        k1 = round(math.cos(math.pi * 4 / 32), 12)
        k2 = round(math.cos(math.pi * 12 / 32), 12)
        assert est.get(k1, 0) == pytest.approx(0.3, abs=0.05)
        assert est.get(k2, 0) == pytest.approx(0.7, abs=0.05)


class TestQueryLowerBound:
    def test_chebyshev_tightness(self):
        d = 40
        td = lambda x: math.cos(d * math.acos(max(-1.0, min(1.0, x))))
        for delta in (1e-4, 1e-6):
            bound = query_lower_bound(td, 1.0, 1.0 - delta, 0.0)
            assert bound <= d + 1e-6
        bound = query_lower_bound(td, 1.0, 1.0 - 1e-8, 0.0)
        assert bound >= d - 1.0

    def test_constant_function(self):
        assert query_lower_bound(lambda x: 0.3, 0.2, 0.7, 0.0) <= 0.0

    def test_negative_power_slope(self):
        c, delta = 2.0, 0.25
        f = lambda x: delta ** c / 2 * x ** (-c)
        x = delta
        y = delta * 1.01
        bound = query_lower_bound(f, x, y, 0.0)
        slope = c / (2 * delta)
        # bound reproduces the local slope within sqrt(2)
        assert bound >= slope / math.sqrt(2) * 0.9 * delta / 1.2 or bound > 0
        assert bound > 0
