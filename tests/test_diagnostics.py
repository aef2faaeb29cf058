import math

import numpy as np
import pytest

from chmc import (
    CovarianceTracker,
    JacobianMode,
    MassMatrix,
    QuarticGeneralizedGaussian,
    SamplerConfig,
    StreamingCovariance,
    covariance_error,
    quartic_target_variance,
    run_chain,
)


def summarize_with_sink(cfg, target):
    """The chain's summary and every outcome its sink saw."""
    seen = []
    summary = run_chain(cfg, target, MassMatrix.identity(target.dim),
                        sinks=[lambda i, o, th: seen.append(o)])
    return summary, seen


def summary_means(summary):
    return (summary.mean_acceptance_pct, summary.mean_energy_error,
            summary.mean_force_evals)


def reduce_outcomes(outcomes, n_steps):
    """The three reported means, reduced from the whole outcome list."""
    n = len(outcomes)
    return (100.0 * sum(1 for o in outcomes if o.accepted) / n,
            math.fsum(abs(o.delta_H) for o in outcomes) / n,
            math.fsum(o.force_evals for o in outcomes) / (n * n_steps))


class TestStreamingCovariance:
    def test_matches_batch_covariance(self):
        rng = np.random.default_rng(51)
        data = rng.standard_normal((10_000, 16)) @ rng.standard_normal((16, 16))
        stream = StreamingCovariance(16)
        for row in data:
            stream.update(row)
        np.testing.assert_allclose(stream.covariance(), np.cov(data.T, ddof=1),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(stream.mean, data.mean(axis=0), rtol=1e-10, atol=1e-12)

    def test_diagonal_mode_matches_full(self):
        rng = np.random.default_rng(52)
        data = rng.standard_normal((500, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        full = StreamingCovariance(4)
        diag = StreamingCovariance(4, diagonal=True)
        for row in data:
            full.update(row)
            diag.update(row)
        np.testing.assert_allclose(diag.variance_diagonal(), full.variance_diagonal(),
                                   rtol=1e-12)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(53)
        s = StreamingCovariance(5, diagonal=True)
        for _ in range(50):
            s.update(rng.standard_normal(5))
        assert (s.variance_diagonal() >= 0).all()

    def test_needs_two_samples(self):
        s = StreamingCovariance(2)
        s.update(np.zeros(2))
        with pytest.raises(ValueError):
            s.covariance()


class TestCovarianceError:
    def test_two_point_stream(self):
        # +-v with n-1 normalization gives variance 2 v^2
        s = StreamingCovariance(1)
        s.update(np.array([1.0]))
        s.update(np.array([-1.0]))
        sigma2 = quartic_target_variance()
        assert covariance_error(s, sigma2) == pytest.approx(abs(2.0 - sigma2), rel=1e-12)

    def test_alternating_exact_variance_converges(self):
        sigma2 = 0.25
        s = StreamingCovariance(1, diagonal=True)
        for k in range(10_000):
            s.update(np.array([np.sqrt(sigma2) * (1 if k % 2 == 0 else -1)]))
        # sample variance of the +-sqrt(sigma2) stream tends to sigma2
        assert covariance_error(s, sigma2) < 1e-4

    @pytest.mark.slow
    def test_iid_oracle_draws_within_clt_band(self):
        # 10^6 rejection-sampled target draws: error within 3 sqrt(Var(q^2)/n)
        rng = np.random.default_rng(54)
        n = 10 ** 6
        kept = []
        total = 0
        while total < n:
            x = rng.standard_normal(2 * n) * np.sqrt(0.5)
            u = rng.random(2 * n)
            sel = x[u < np.exp(x * x - x ** 4 - 0.25)]
            kept.append(sel)
            total += sel.size
        draws = np.concatenate(kept)[:n]
        s = StreamingCovariance(1, diagonal=True)
        for v in draws.reshape(-1, 1):
            s.update(v)
        var_q2 = (draws ** 2).var(ddof=1)
        bound = 3.0 * np.sqrt(var_q2 / n)
        assert covariance_error(s, quartic_target_variance()) <= bound

    def test_full_matrix_target(self):
        rng = np.random.default_rng(55)
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol = np.linalg.cholesky(cov)
        s = StreamingCovariance(2)
        for _ in range(20_000):
            s.update(chol @ rng.standard_normal(2))
        assert covariance_error(s, cov) < 0.1


class TestCovarianceTracker:
    def test_trace_monotone_iterations_and_stride(self):
        rng = np.random.default_rng(56)
        tracker = CovarianceTracker(2, 1.0, record_stride=5)
        for i in range(57):
            tracker.update(i, rng.standard_normal(2))
        iterations = [i for i, _ in tracker.trace]
        assert iterations == sorted(iterations)
        assert len(tracker.trace) == 57 // 5
        assert tracker.last_recorded(iterations[-1]) is not None
        assert tracker.last_recorded(10 ** 9) is None


    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("target_cov", [0.7, np.array([0.5, 1.0, 2.0]),
                                            np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1],
                                                      [0.0, 0.1, 0.5]])],
                             ids=["scalar", "vector", "matrix"])
    def test_trace_equals_covariance_error_on_the_same_stream(self, target_cov, diagonal):
        rng = np.random.default_rng(57)
        tracker = CovarianceTracker(3, target_cov, diagonal=diagonal, record_stride=4)
        stream = StreamingCovariance(3, diagonal=diagonal)
        expected = []
        for i in range(30):
            x = rng.standard_normal(3)
            tracker.update(i, x)
            stream.update(x)
            if stream.count >= 2 and stream.count % 4 == 0:
                expected.append((i, covariance_error(stream, target_cov)))
        assert tracker.trace == expected


@pytest.fixture(scope="module")
def chmc_j1_chain_with_rejections():
    cfg = SamplerConfig(method="chmc", tau=0.5, total_time=1.0, iterations=40, seed=5,
                        jacobian_mode=JacobianMode("J1"))
    summary, seen = summarize_with_sink(cfg, QuarticGeneralizedGaussian(3))
    assert 0 < sum(1 for o in seen if o.accepted) < cfg.iterations
    return cfg, summary, seen


class TestFinalizeSummary:
    """The means run_chain finalizes from its running values, checked bit for bit
    against the reduction of the outcomes a sink saw."""

    def test_leapfrog_means_equal_reduction_of_outcomes(self):
        cfg = SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=4.0,
                            iterations=25, seed=6)
        summary, seen = summarize_with_sink(cfg, QuarticGeneralizedGaussian(2))
        assert len(seen) == cfg.iterations
        assert summary_means(summary) == reduce_outcomes(seen, cfg.n_steps)

    def test_acceptance_ratio(self, chmc_j1_chain_with_rejections):
        # the two count means: accepted / n and force evaluations / (n n_steps)
        cfg, summary, seen = chmc_j1_chain_with_rejections
        acceptance, _, force = reduce_outcomes(seen, cfg.n_steps)
        assert (summary.mean_acceptance_pct, summary.mean_force_evals) == (acceptance, force)

    def test_energy_error_uses_all_proposals(self, chmc_j1_chain_with_rejections):
        cfg, summary, seen = chmc_j1_chain_with_rejections
        rejected = [abs(o.delta_H) for o in seen if not o.accepted]
        accepted = [abs(o.delta_H) for o in seen if o.accepted]
        assert max(rejected) > 0.0
        assert summary.mean_energy_error == reduce_outcomes(seen, cfg.n_steps)[1]
        assert summary.mean_energy_error != math.fsum(accepted) / len(accepted)

    def test_failed_trajectory_gives_infinite_energy_error(self):
        # U = inf outside the box: the first trajectory from 0.9 leaves it
        class BoxedQuartic(QuarticGeneralizedGaussian):
            def evaluate(self, q):
                return math.inf if np.abs(q).max() > 1.0 else super().evaluate(q)

        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=0.3, iterations=2, seed=0,
                            initial_state_mode="explicit", initial_state=np.array([0.9]))
        summary, seen = summarize_with_sink(cfg, BoxedQuartic(1))
        assert seen[0].delta_H == math.inf and not seen[0].accepted
        assert summary.mean_energy_error == math.inf
        acceptance, _, force = reduce_outcomes(seen, cfg.n_steps)
        assert (summary.mean_acceptance_pct, summary.mean_force_evals) == (acceptance, force)

    def test_leapfrog_force_evals_n_steps_plus_one(self):
        # the chain carries its first half-kick: n N gradient calls, plus one
        # for the first iteration's start
        t = QuarticGeneralizedGaussian(2)
        cfg = SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=4.0,
                            iterations=25, seed=6)
        summary = run_chain(cfg, t, MassMatrix.identity(2))
        n_n = cfg.iterations * cfg.n_steps
        assert summary.mean_force_evals == (n_n + 1) / n_n
