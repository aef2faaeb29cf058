import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

import chmc
from chmc import (
    MultivariateGaussian,
    QuarticGeneralizedGaussian,
    divided_difference_force,
    quartic_target_variance,
)


def central_gradient(f, q, h=1e-6):
    g = np.empty_like(q)
    for i in range(q.size):
        step = h * max(1.0, abs(q[i]))
        qp, qm = q.copy(), q.copy()
        qp[i] += step
        qm[i] -= step
        g[i] = (f(qp) - f(qm)) / (2 * step)
    return g


def separated_pairs(rng, d, n, min_gap=1e-3):
    for _ in range(n):
        q = rng.uniform(-2.0, 2.0, d)
        gap = rng.uniform(min_gap, 1.5, d) * rng.choice([-1.0, 1.0], d)
        yield q + gap, q


class TestQuarticForce:
    def test_divided_difference_value(self):
        t = QuarticGeneralizedGaussian(1)
        f = t.closed_form_force(np.array([2.0]), np.array([1.0]))
        assert f[0] == pytest.approx(30.0, rel=1e-15)
        # independent oracle: 2 (Q^4 - q^4) / (Q - q)
        assert f[0] == pytest.approx(2 * (16 - 1) / (2 - 1), rel=1e-15)

    def test_coincident_limit(self):
        t = QuarticGeneralizedGaussian(1)
        f = t.closed_form_force(np.array([1.0]), np.array([1.0]))
        assert f[0] == pytest.approx(8.0, rel=1e-15)  # 2 U'(1)

    def test_odd_symmetry(self):
        t = QuarticGeneralizedGaussian(1)
        f = t.closed_form_force(np.array([-1.3]), np.array([1.3]))
        assert f[0] == 0.0

    def test_matches_generic_divided_differences(self):
        rng = np.random.default_rng(21)
        t = QuarticGeneralizedGaussian(5)
        for Q, q in separated_pairs(rng, 5, 1000):
            closed = t.closed_form_force(Q, q)
            generic, _ = divided_difference_force(Q, q, t)
            np.testing.assert_allclose(closed, generic, rtol=1e-10, atol=1e-10)

    def test_jacobian_diagonals_match_finite_differences(self):
        rng = np.random.default_rng(22)
        t = QuarticGeneralizedGaussian(3)
        for Q, q in separated_pairs(rng, 3, 50):
            d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
            for i in range(3):
                def f_of_qi(x, i=i):
                    qq = q.copy()
                    qq[i] = x
                    return t.closed_form_force(Q, qq)[i]

                def f_of_Qi(x, i=i):
                    QQ = Q.copy()
                    QQ[i] = x
                    return t.closed_form_force(QQ, q)[i]

                h = 1e-6 * max(1.0, abs(q[i]))
                fd_q = (f_of_qi(q[i] + h) - f_of_qi(q[i] - h)) / (2 * h)
                h = 1e-6 * max(1.0, abs(Q[i]))
                fd_Q = (f_of_Qi(Q[i] + h) - f_of_Qi(Q[i] - h)) / (2 * h)
                assert d_q[i] == pytest.approx(fd_q, rel=1e-6)
                assert d_Q[i] == pytest.approx(fd_Q, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        t = QuarticGeneralizedGaussian(4)
        for _ in range(25):
            q = rng.uniform(-2, 2, 4)
            np.testing.assert_allclose(
                t.gradient(q), central_gradient(t.evaluate, q), rtol=1e-6, atol=1e-8)


class TestGaussianTarget:
    def test_force_one_dimensional(self):
        t = MultivariateGaussian([0.0], [[1.0]])
        f = t.closed_form_force(np.array([2.0]), np.array([1.0]))
        assert f[0] == pytest.approx(3.0, rel=1e-15)  # 2 (U(2) - U(1)) / 1

    def test_force_zero_at_stationary_point(self):
        t = MultivariateGaussian([0.7, -0.2], [[2.0, 0.3], [0.3, 1.0]])
        f = t.closed_form_force(t.mean.copy(), t.mean.copy())
        np.testing.assert_allclose(f, 0.0, atol=1e-14)

    def test_force_two_dimensional(self):
        t = MultivariateGaussian([0.0, 0.0], np.eye(2))
        f = t.closed_form_force(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(f, [1.0, 1.0], rtol=1e-15)

    def test_matches_generic_divided_differences(self):
        rng = np.random.default_rng(24)
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, -0.2], [0.0, -0.2, 1.0]])
        t = MultivariateGaussian([0.3, -0.1, 0.8], cov)
        for Q, q in separated_pairs(rng, 3, 1000):
            closed = t.closed_form_force(Q, q)
            generic, _ = divided_difference_force(Q, q, t)
            np.testing.assert_allclose(closed, generic, rtol=1e-10, atol=1e-9)

    def test_force_jacobians_are_precision_both_ways(self):
        # dF/dq = dF/dQ = Sigma^-1: symmetric in q and Q within 1e-8
        rng = np.random.default_rng(25)
        cov = np.array([[1.5, 0.4], [0.4, 1.2]])
        t = MultivariateGaussian([0.0, 0.0], cov)
        prec = np.linalg.inv(cov)
        d_q, d_Q = t.closed_form_force_jacobian(np.array([1.0, 2.0]), np.array([0.5, -0.3]))
        np.testing.assert_allclose(d_q, prec, rtol=1e-10)
        np.testing.assert_allclose(d_Q, prec, rtol=1e-10)
        for Q, q in separated_pairs(rng, 2, 20):
            fd_q = np.empty((2, 2))
            fd_Q = np.empty((2, 2))
            for j in range(2):
                h = 1e-6
                qp = q.copy()
                qp[j] += h
                fd_q[:, j] = (t.closed_form_force(Q, qp) - t.closed_form_force(Q, q)) / h
                Qp = Q.copy()
                Qp[j] += h
                fd_Q[:, j] = (t.closed_form_force(Qp, q) - t.closed_form_force(Q, q)) / h
            np.testing.assert_allclose(fd_q, fd_Q, rtol=0, atol=1e-8)

    def test_gradient_matches_finite_differences(self):
        t = MultivariateGaussian([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])
        rng = np.random.default_rng(26)
        for _ in range(25):
            q = rng.uniform(-2, 2, 2)
            np.testing.assert_allclose(
                t.gradient(q), central_gradient(t.evaluate, q), rtol=1e-6, atol=1e-8)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError):
            MultivariateGaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # indefinite


class TestQuarticVariance:
    def test_against_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the moment integrals
        num, _ = quad(lambda x: x * x * np.exp(-x ** 4), -np.inf, np.inf)
        den, _ = quad(lambda x: np.exp(-x ** 4), -np.inf, np.inf)
        oracle = num / den
        assert quartic_target_variance() == pytest.approx(oracle, rel=1e-10)

    def test_against_rejection_sampling_oracle(self):
        # 10^6 iid draws from exp(-q^4) by rejection from N(0, 1/2)
        rng = np.random.default_rng(27)
        n_target = 10 ** 6
        samples = []
        total = 0
        while total < n_target:
            x = rng.standard_normal(2 * n_target) * np.sqrt(0.5)
            u = rng.random(2 * n_target)
            kept = x[u < np.exp(x * x - x ** 4 - 0.25)]
            samples.append(kept)
            total += kept.size
        q = np.concatenate(samples)[:n_target]
        var_q2 = (q ** 4).var()
        se = np.sqrt(var_q2 / n_target)
        assert abs((q ** 2).mean() - quartic_target_variance()) < 3 * se

    def test_value_digits(self):
        assert quartic_target_variance() == pytest.approx(0.33798912003364, abs=1e-13)

    def test_literal_is_the_gamma_ratio_bit_for_bit(self):
        assert quartic_target_variance() == float(gamma(0.75) / gamma(0.25))


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmc.__file__)))
    code = ("import sys, chmc, chmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
