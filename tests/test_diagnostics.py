import numpy as np
import pytest

from chmc import (
    CovarianceTracker,
    MassMatrix,
    QuarticGeneralizedGaussian,
    SamplerConfig,
    StreamingCovariance,
    covariance_error,
    finalize_summary,
    quartic_target_variance,
    run_chain,
)
from chmc.samplers import IterationOutcome


def outcome(accepted=True, delta_h=0.0, force_evals=2):
    return IterationOutcome(accepted=accepted, alpha=1.0, delta_H=delta_h,
                            jacobian_product=1.0, force_evals=force_evals,
                            fpi_iterations_total=0)


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


class TestFinalizeSummary:
    def test_acceptance_ratio(self):
        s = finalize_summary([outcome(True), outcome(True), outcome(False)], 1.0, 4)
        assert s.mean_acceptance_pct == pytest.approx(100 * 2 / 3, rel=1e-12)

    def test_zero_energy_errors(self):
        s = finalize_summary([outcome(delta_h=0.0)] * 5, 1.0, 4)
        assert s.mean_energy_error == 0.0

    def test_energy_error_uses_all_proposals(self):
        outs = [outcome(True, 0.5), outcome(False, 1.5)]
        s = finalize_summary(outs, 1.0, 4)
        assert s.mean_energy_error == pytest.approx(1.0, rel=1e-12)

    def test_leapfrog_force_evals_n_steps_plus_one(self):
        t = QuarticGeneralizedGaussian(2)
        cfg = SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=4.0,
                            iterations=25, seed=6)
        summary = run_chain(cfg, t, MassMatrix.identity(2))
        assert summary.mean_force_evals == (cfg.n_steps + 1) / cfg.n_steps

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            finalize_summary([], 1.0, 4)
