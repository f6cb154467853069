import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from dpcounts.core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    negbin_log_pmf,
    sample_dirichlet,
    sample_gamma,
    sample_multinomial,
)
from dpcounts.errors import DomainError, UsageError


class TestRngStream:
    def test_identical_streams_identical_draws(self):
        a = RngStream(123, 45)
        b = RngStream(123, 45)
        assert np.array_equal(a.generator.random(100), b.generator.random(100))

    def test_distinct_streams_differ(self):
        a = RngStream(123, 45).generator.random(16)
        b = RngStream(123, 46).generator.random(16)
        assert not np.array_equal(a, b)

    def test_child_depends_on_index_order(self):
        root = RngStream(9)
        assert root.child(1, 2).stream_id != root.child(2, 1).stream_id
        assert root.child(1, 2).stream_id == root.child(1, 2).stream_id

    @pytest.mark.parametrize("stream_id", [0, 1, 45, 2**63, 2**64 - 1])
    def test_stream_is_philox_keyed_by_seed_and_id(self, stream_id):
        # the generator is Philox with key [seed, stream_id] and counter 0,
        # whatever way it is built
        key = np.array([20260808, stream_id], dtype=np.uint64)
        reference = np.random.Generator(np.random.Philox(key=key))
        gen = RngStream(20260808, stream_id).generator
        assert str(gen.bit_generator.state) == str(reference.bit_generator.state)
        assert np.array_equal(gen.random(8), reference.random(8))
        assert np.array_equal(gen.integers(0, 2**62, size=5), reference.integers(0, 2**62, size=5))


class TestSampleGamma:
    def test_mean(self):
        draws = sample_gamma(2.0, 4.0, RngStream(1), size=40_000)
        se = math.sqrt(2.0 / 16.0 / 40_000)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_exponential_variance(self):
        draws = sample_gamma(1.0, 1.0, RngStream(2), size=40_000)
        # var of the sample variance for Exp(1) is roughly 8/n
        assert abs(draws.var() - 1.0) < 3 * math.sqrt(8.0 / 40_000)

    def test_deterministic(self):
        a = sample_gamma(0.3, 2.0, RngStream(7, 3), size=50)
        b = sample_gamma(0.3, 2.0, RngStream(7, 3), size=50)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain(self, shape, rate):
        with pytest.raises(DomainError):
            sample_gamma(shape, rate, RngStream(0))


class TestSampleDirichlet:
    def test_concentration(self):
        draw = sample_dirichlet([1e9, 1e9], RngStream(3))
        assert abs(draw[0] - 0.5) < 1e-3

    def test_symmetric_means(self):
        draws = np.array([sample_dirichlet([1.0, 1.0, 1.0], RngStream(4, i))
                          for i in range(4000)])
        se = math.sqrt((1 / 3) * (2 / 3) / 4 / 4000)
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) < 3 * se)

    def test_reproducible(self):
        assert np.array_equal(sample_dirichlet([2.0, 3.0], RngStream(5)),
                              sample_dirichlet([2.0, 3.0], RngStream(5)))

    @settings(max_examples=50, deadline=None)
    @given(alphas=st.lists(st.floats(0.05, 50.0), min_size=2, max_size=6),
           seed=st.integers(0, 2**32))
    def test_open_simplex(self, alphas, seed):
        draw = sample_dirichlet(alphas, RngStream(seed))
        assert np.all(draw > 0)
        assert abs(draw.sum() - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_dirichlet([], RngStream(0))
        with pytest.raises(DomainError):
            sample_dirichlet([1.0, 0.0], RngStream(0))


class TestSampleMultinomial:
    def test_zero_total(self):
        assert np.array_equal(sample_multinomial(0, [0.5, 0.5], RngStream(1)),
                              np.zeros(2, dtype=np.int64))

    def test_degenerate_cell(self):
        assert np.array_equal(sample_multinomial(5, [1.0, 0.0], RngStream(1)),
                              np.array([5, 0]))

    def test_binomial_mean(self):
        draws = np.array([sample_multinomial(10_000, [0.3, 0.7], RngStream(6, i))[0]
                          for i in range(400)])
        se = math.sqrt(10_000 * 0.3 * 0.7 / 400)
        assert abs(draws.mean() - 3000) < 3 * se

    @settings(max_examples=60, deadline=None)
    @given(total=st.integers(0, 500),
           weights=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=8).filter(
               lambda w: sum(w) > 0),
           seed=st.integers(0, 2**32))
    def test_sum_is_exact(self, total, weights, seed):
        probs = np.array(weights) / np.sum(weights)
        draw = sample_multinomial(total, probs, RngStream(seed))
        assert draw.sum() == total

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_multinomial(-1, [0.5, 0.5], RngStream(0))
        with pytest.raises(DomainError):
            sample_multinomial(3, [0.5, 0.4], RngStream(0))


class TestNegbinLogPmf:
    def test_geometric_anchors(self):
        assert negbin_log_pmf(0, 1.0, 1 / 3) == pytest.approx(math.log(2 / 3), rel=1e-14)
        assert negbin_log_pmf(1, 1.0, 1 / 3) == pytest.approx(math.log(2 / 9), rel=1e-14)

    def test_partial_sums_to_one(self):
        z = np.arange(201)
        total = np.exp(negbin_log_pmf(z, 2.5, 0.4)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r,p", [(0.7, 0.45), (3.2, 0.08), (12.0, 0.49)])
    def test_truncated_normalization(self, r, p):
        # truncation chosen so the tail mass is below 1e-12 (scipy tail oracle)
        cutoff = int(stats.nbinom.isf(1e-13, r, 1 - p)) + 1
        assert stats.nbinom.sf(cutoff - 1, r, 1 - p) < 1e-12
        total = np.exp(negbin_log_pmf(np.arange(cutoff + 1), r, p)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r,p", [(1.0, 0.0), (1.0, 1.0), (0.0, 0.5), (1.0, -0.2)])
    def test_domain(self, r, p):
        with pytest.raises(DomainError):
            negbin_log_pmf(0, r, p)

    def test_poisson_gamma_marginal_matches_quadrature(self):
        # the group posterior predictive: Pois(z | n lam) integrated against
        # lam | y ~ Gamma(y + a, n + b) is NegBin(y + a, n / (b + 2n))
        y, a, b, n = 1, 2.0, 3.0, 4.0
        shape, rate = y + a, n + b
        for z in range(4):
            def integrand(lam, z=z):
                return stats.poisson.pmf(z, n * lam) * stats.gamma.pdf(lam, shape, scale=1 / rate)
            expected, err = integrate.quad(integrand, 0, np.inf,
                                           epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-9
            got = math.exp(negbin_log_pmf(z, shape, n / (b + 2.0 * n)))
            assert got == pytest.approx(expected, abs=1e-8)


class TestCountDataset:
    def test_from_counts_defaults(self):
        data = CountDataset.from_counts([3, 7], [10.0, 20.0])
        assert data.total == 10
        assert data.n_groups == 2
        assert data.group_ids == ("g0000", "g0001")
        assert data.state_ids is None

    def test_validation(self):
        with pytest.raises(DomainError):
            CountDataset.from_counts([1], [1.0])
        with pytest.raises(DomainError):
            CountDataset.from_counts([-1, 2], [1.0, 1.0])
        with pytest.raises(DomainError):
            CountDataset.from_counts([1, 2], [0.0, 1.0])
        with pytest.raises(DomainError):
            CountDataset(counts=[1, 2], populations=[1.0, 1.0],
                         group_ids=("a", "b"), state_ids=None, total=4)
        with pytest.raises(DomainError):
            CountDataset.from_counts([1, 2], [1.0, 1.0], group_ids=["a", "a"])

    def test_arrays_frozen(self):
        data = CountDataset.from_counts([3, 7], [10.0, 20.0])
        with pytest.raises(ValueError):
            data.counts[0] = 5


class TestPriorSpec:
    def test_md_requires_alpha(self):
        with pytest.raises(DomainError):
            PriorSpec(mode=PriorModel.MULTINOMIAL_DIRICHLET)
        spec = PriorSpec.multinomial_dirichlet([1.0, 2.0])
        assert np.all(spec.alpha > 0)

    def test_pg_target_rate_consistency(self):
        spec = PriorSpec.poisson_gamma(a=[2.0, 3.0], target_rates=[0.5, 1.5])
        assert np.array_equal(spec.b, np.array([4.0, 2.0]))
        with pytest.raises(DomainError):
            PriorSpec(mode=PriorModel.POISSON_GAMMA, a=np.array([2.0, 3.0]),
                      b=np.array([4.0, 2.1]), target_rates=np.array([0.5, 1.5]))

    def test_pg_exactly_one_of_b_or_targets(self):
        with pytest.raises(UsageError):
            PriorSpec.poisson_gamma(a=[1.0, 1.0])
        with pytest.raises(UsageError):
            PriorSpec.poisson_gamma(a=[1.0, 1.0], b=[1.0, 1.0],
                                    target_rates=[1.0, 1.0])


def test_synthetic_dataset_total_checked():
    prov = Provenance(method="md", epsilon=1.0, seed=0, strategy="s")
    with pytest.raises(DomainError):
        SyntheticDataset(counts=[1, 2], total=4, provenance=prov)
    ok = SyntheticDataset(counts=[1, 2], total=3, provenance=prov)
    assert ok.total == 3
