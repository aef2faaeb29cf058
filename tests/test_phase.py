import math

import numpy as np
import pytest

from chmc import (
    MassMatrix,
    QuarticGeneralizedGaussian,
    SamplerConfig,
)
from chmc.integrators import TrajectoryRecord
from chmc.phase import PhaseState, hamiltonian, kinetic
from chmc.samplers import StateCache, chmc_iteration, hmc_iteration
from support import MultivariateGaussian


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


# fixed vectors of length 1-8 from uniform(-1e6, 1e6), then the signed
# zeros, both ends of the range and the smallest subnormal
ROUNDTRIP_VALUES = [
    list(np.random.default_rng(2206).uniform(-1e6, 1e6, n)) for n in range(1, 9)
] + [[0.0], [-0.0], [1e6, -1e6], [5e-324]]


class TestPhaseState:
    @pytest.mark.parametrize("values", ROUNDTRIP_VALUES)
    def test_roundtrip_construction(self, values):
        s = PhaseState(values, values)
        assert s.dim == len(values)
        np.testing.assert_array_equal(s.q, s.p)

    def test_float_arrays_pass_through_uncopied(self):
        # run_chain has checked the chain's arrays; the state neither copies nor locks them
        q, p = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        s = PhaseState(q, p)
        assert s.q is q and s.p is p


def energy(s, target):
    """H(q, p), the second entry of ``hamiltonian``'s (U, H)."""
    return hamiltonian(s, target)[1]


def negate_momentum(s):
    """The momentum flip R(q, p) = (q, -p), written as the integrators write it."""
    return PhaseState(s.q, -s.p)


class TestNegateMomentum:
    def test_zero_momentum_keeps_energy(self):
        t = QuarticGeneralizedGaussian(2)
        s = PhaseState([0.3, -0.7], [0.0, 0.0])
        h0 = energy(s, t)
        h1 = energy(negate_momentum(s), t)
        assert h0 == h1

    @pytest.mark.parametrize("target_dim", [1, 3, 8])
    def test_hamiltonian_symmetric_under_flip(self, target_dim):
        # K(p) = K(-p), hence H(R z) = H(z), for 100 random states per target
        rng = np.random.default_rng(42)
        quartic = QuarticGeneralizedGaussian(target_dim)
        gauss = MultivariateGaussian(
            rng.standard_normal(target_dim), random_spd(rng, target_dim))
        for target in (quartic, gauss):
            for _ in range(100):
                s = PhaseState(rng.standard_normal(target_dim), rng.standard_normal(target_dim))
                assert energy(s, target) == pytest.approx(
                    energy(negate_momentum(s), target), rel=1e-15)


class TestHamiltonian:
    def test_zero_state(self):
        t = QuarticGeneralizedGaussian(1)
        assert hamiltonian(PhaseState([0.0], [0.0]), t) == (0.0, 0.0)

    def test_unit_position(self):
        t = QuarticGeneralizedGaussian(1)
        s = PhaseState([1.0], [0.0])
        u, h = hamiltonian(s, t)
        assert t.evaluate(s.q) == 1.0 and kinetic(s.p) == 0.0 and (u, h) == (1.0, 1.0)

    def test_two_dimensional(self):
        t = QuarticGeneralizedGaussian(2)
        s = PhaseState([1.0, 1.0], [1.0, 1.0])
        u, h = hamiltonian(s, t)
        assert u == pytest.approx(2.0, rel=1e-15) and h == pytest.approx(3.0, rel=1e-15)
        assert t.evaluate(s.q) == pytest.approx(2.0) and kinetic(s.p) == pytest.approx(1.0)

    def test_total_is_stored_sum(self):
        rng = np.random.default_rng(1)
        t = QuarticGeneralizedGaussian(3)
        s = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
        u, h = hamiltonian(s, t)
        assert u == t.evaluate(s.q) and h == u + kinetic(s.p)

    def test_given_u_is_not_evaluated(self):
        # the chain's cached U(q) is returned as is, with H = U + K(p)
        class NoEvaluate(QuarticGeneralizedGaussian):
            def evaluate(self, q):
                raise AssertionError("evaluated")

        s = PhaseState([1.0, 2.0], [3.0, 4.0])
        assert hamiltonian(s, NoEvaluate(2), 7.0) == (7.0, 7.0 + kinetic(s.p))

    def test_non_finite_potential_becomes_inf(self):
        class Hole(QuarticGeneralizedGaussian):
            def evaluate(self, q):
                return float("nan")

        u, h = hamiltonian(PhaseState([1.0], [1.0]), Hole(1))
        # nan + K would stay nan; the potential was mapped to +inf first
        assert u == h == np.inf


class TestMassMatrix:
    def test_dim_must_be_an_integer(self):
        for bad in (2.7, 2.0, True):
            with pytest.raises(ValueError, match="dim must be an integer"):
                MassMatrix.identity(bad)
        assert MassMatrix.identity(np.int64(3)).dim == 3
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            MassMatrix.identity(0)

    def test_kinetic_is_half_p_p(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.standard_normal(4)
            assert kinetic(p) == 0.5 * float(p @ p)


class TestMomentumRefresh:
    """Both iterations draw p ~ N(0, I) as one standard-normal vector of the
    chain's generator, then one uniform for the accept/reject step."""

    @staticmethod
    def momenta(monkeypatch, iterate, d, iterations, rng):
        """The momenta ``iterate`` hands its trajectory, which is stubbed to fail."""
        import chmc.samplers as samplers

        drawn = []

        def record(state, *args, **kwargs):
            drawn.append(state.p)
            return TrajectoryRecord(state.q, state.p, 0, 0, False, 0.0, math.inf, 0.0, math.inf)

        monkeypatch.setattr(samplers, "trajectory", record)
        monkeypatch.setattr(samplers, "leapfrog_trajectory", record)
        method = "chmc" if iterate is chmc_iteration else "hmc-leapfrog"
        cfg = SamplerConfig(method, 0.1, 0.5, iterations=1)
        theta, target = np.zeros(d), QuarticGeneralizedGaussian(d)
        cache = StateCache()
        for _ in range(iterations):
            iterate(theta, target, cfg, rng, cache)
        return np.array(drawn)

    def test_identity_variance(self, monkeypatch):
        for iterate in (chmc_iteration, hmc_iteration):
            draws = self.momenta(monkeypatch, iterate, 10, 10 ** 4, np.random.default_rng(11))
            assert abs(draws.var() - 1.0) < 0.05
            assert abs(draws.mean()) < 0.02

    def test_same_seed_same_stream(self, monkeypatch):
        # one standard-normal vector, then one uniform: the generator's own
        # stream, draw for draw
        ref = np.random.default_rng(5)
        first = ref.standard_normal(2)
        ref.random()
        second = ref.standard_normal(2)
        for iterate in (chmc_iteration, hmc_iteration):
            draws = self.momenta(monkeypatch, iterate, 2, 2, np.random.default_rng(5))
            np.testing.assert_array_equal(draws, [first, second])
