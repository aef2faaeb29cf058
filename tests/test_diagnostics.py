import math

import numpy as np
import pytest

from chmc import (
    CovarianceTracker,
    JacobianMode,
    MassMatrix,
    QuarticGeneralizedGaussian,
    SamplerConfig,
    quartic_target_variance,
    run_chain,
)
from support import BoxedQuartic


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


def feed(tracker, rows):
    for i, row in enumerate(rows):
        tracker.update(i, row)
    return tracker


def sample_covariance(tracker):
    """scatter / (count - 1): the full matrix, or its diagonal in diagonal mode."""
    return tracker.scatter / (tracker.count - 1)


def final_error(tracker):
    """The error of a tracker fed with stride 1: the last trace entry."""
    return tracker.trace[-1][1]


class ReferenceStream:
    """The Welford stream and its l-infinity error written out operation by
    operation, an oracle for the tracker's bits; the target is reduced at
    every error, not once."""

    def __init__(self, dim, diagonal):
        self.dim, self.diagonal, self.count = dim, diagonal, 0
        self.mean = np.zeros(dim)
        self.scatter = np.zeros(dim) if diagonal else np.zeros((dim, dim))

    def update(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        delta2 = x - self.mean
        if self.diagonal:
            self.scatter += delta * delta2
        else:
            self.scatter += np.outer(delta, delta2)

    def covariance_error(self, target_cov):
        t = np.asarray(target_cov, dtype=float)
        if t.ndim == 0:
            t = np.full(self.dim, float(t)) if self.diagonal else float(t) * np.eye(self.dim)
        elif t.ndim == 1:
            t = t if self.diagonal else np.diag(t)
        else:
            t = np.diag(t) if self.diagonal else t
        sample = self.scatter / (self.count - 1)
        return float(np.max(np.abs(sample - t)))


class TestCovarianceTrackerMoments:
    def test_matches_batch_covariance(self):
        rng = np.random.default_rng(51)
        data = rng.standard_normal((10_000, 16)) @ rng.standard_normal((16, 16))
        tracker = feed(CovarianceTracker(16, 1.0), data)
        np.testing.assert_allclose(sample_covariance(tracker), np.cov(data.T, ddof=1),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(tracker.mean, data.mean(axis=0), rtol=1e-10, atol=1e-12)

    def test_diagonal_mode_matches_full(self):
        rng = np.random.default_rng(52)
        data = rng.standard_normal((500, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        full = feed(CovarianceTracker(4, 1.0), data)
        diag = feed(CovarianceTracker(4, 1.0, diagonal=True), data)
        np.testing.assert_allclose(sample_covariance(diag),
                                   np.diag(sample_covariance(full)), rtol=1e-12)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(53)
        tracker = feed(CovarianceTracker(5, 1.0, diagonal=True),
                       rng.standard_normal((50, 5)))
        assert (sample_covariance(tracker) >= 0).all()

    def test_needs_two_samples(self):
        # stride 1: nothing is recorded before the second update, in either mode
        for diagonal in (False, True):
            tracker = CovarianceTracker(2, 1.0, diagonal=diagonal, record_stride=1)
            tracker.update(0, np.zeros(2))
            assert tracker.trace == [] and tracker.last_recorded(0) is None
            tracker.update(1, np.ones(2))
            assert [i for i, _ in tracker.trace] == [1]


class TestCovarianceError:
    def test_two_point_stream(self):
        # +-v with n-1 normalization gives variance 2 v^2
        sigma2 = quartic_target_variance()
        tracker = feed(CovarianceTracker(1, sigma2, record_stride=1),
                       [np.array([1.0]), np.array([-1.0])])
        assert final_error(tracker) == pytest.approx(abs(2.0 - sigma2), rel=1e-12)

    def test_alternating_exact_variance_converges(self):
        sigma2 = 0.25
        rows = [np.array([np.sqrt(sigma2) * (1 if k % 2 == 0 else -1)]) for k in range(10_000)]
        tracker = feed(CovarianceTracker(1, sigma2, diagonal=True, record_stride=10_000), rows)
        # sample variance of the +-sqrt(sigma2) stream tends to sigma2
        assert final_error(tracker) < 1e-4

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
        tracker = feed(CovarianceTracker(1, quartic_target_variance(), diagonal=True,
                                         record_stride=n), draws.reshape(-1, 1))
        var_q2 = (draws ** 2).var(ddof=1)
        bound = 3.0 * np.sqrt(var_q2 / n)
        assert final_error(tracker) <= bound

    def test_full_matrix_target(self):
        rng = np.random.default_rng(55)
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol = np.linalg.cholesky(cov)
        tracker = feed(CovarianceTracker(2, cov, record_stride=20_000),
                       [chol @ rng.standard_normal(2) for _ in range(20_000)])
        assert final_error(tracker) < 0.1


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
        # NumPy integers are counts too
        tracker = CovarianceTracker(np.int64(2), 1.0, record_stride=np.int32(2))
        assert [i for i, _ in feed(tracker, np.ones((4, 2))).trace] == [1, 3]
        with pytest.raises(ValueError, match="record_stride must be >= 1"):
            CovarianceTracker(2, 1.0, record_stride=np.int64(0))

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("target_cov", [0.7, np.array([0.5, 1.0, 2.0]),
                                            np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1],
                                                      [0.0, 0.1, 0.5]])],
                             ids=["scalar", "vector", "matrix"])
    def test_trace_equals_covariance_error_on_the_same_stream(self, target_cov, diagonal):
        # bit for bit against the reference stream
        rng = np.random.default_rng(57)
        tracker = CovarianceTracker(3, target_cov, diagonal=diagonal, record_stride=4)
        stream = ReferenceStream(3, diagonal)
        expected = []
        for i in range(30):
            x = rng.standard_normal(3)
            tracker.update(i, x)
            stream.update(x)
            if stream.count >= 2 and stream.count % 4 == 0:
                expected.append((i, stream.covariance_error(target_cov)))
        assert tracker.trace == expected

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("target_cov", [np.eye(4), np.ones(4), np.ones((3, 4)),
                                            np.ones((3, 3, 3)), np.ones(0)],
                             ids=["matrix-d4", "vector-d4", "rectangular", "3-d", "empty"])
    def test_wrong_target_shape_raises_at_construction(self, target_cov, diagonal):
        with pytest.raises(ValueError, match="target_cov must be"):
            CovarianceTracker(3, target_cov, diagonal=diagonal)

    @pytest.mark.parametrize("kwargs", [{"dim": 3.0}, {"dim": True},
                                        {"record_stride": 2.5}, {"record_stride": True}])
    def test_counts_must_be_integers(self, kwargs):
        # record_stride 2.5 would record at counts 5 and 10
        args = {"dim": 3, "target_cov": 1.0, **kwargs}
        with pytest.raises(ValueError, match="must be an integer"):
            CovarianceTracker(**args)

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_below_one_raises_at_construction(self, dim):
        # a (0, 0) tracker would fail on its first update with a broadcast error
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            CovarianceTracker(dim, 1.0)


@pytest.fixture(scope="module")
def chmc_j1_chain_with_rejections():
    cfg = SamplerConfig(method="chmc", tau=0.5, total_time=1.0, iterations=40, seed=5,
                        jacobian_mode=JacobianMode("J1"))
    summary, seen = summarize_with_sink(cfg, QuarticGeneralizedGaussian(3))
    assert 0 < sum(1 for o in seen if o.accepted) < cfg.iterations
    return cfg, summary, seen


class TestChainSummary:
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
