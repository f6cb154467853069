import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammaln, logsumexp

from dpcounts.core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    _allocation_terms,
    _allocations,
    _log_gamma,
    _log_sum_exp,
    sample_dirichlet,
    sample_gamma,
    sample_multinomial,
    sample_releases,
)
from dpcounts.errors import DomainError, UsageError
from dpcounts.poisson_gamma import conditional_log_pmf_all


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

    # (seed, stream_id, indices, child stream id): every derived stream of
    # every release and study replicate hangs on these values
    PINNED_CHILD_IDS = [
        (20260808, 0, (0,), 16294208416658607535),
        (20260808, 0, (3, 17, 2, 4), 5765805611230769646),
        (7, 45, (1, -1), 1739562867634381195),
        (7, 45, (2**63, 5), 9802365723590866964),
        (0, 2**64 - 1, (-(2**40), 2**64 - 1, 0), 7779739392213334406),
        (123, 9, (1, 2, 3), 18023285460572767132),
        (1, 2, (), 2),
    ]

    @pytest.mark.parametrize("seed,stream_id,indices,expected", PINNED_CHILD_IDS)
    def test_child_ids_are_pinned(self, seed, stream_id, indices, expected):
        root = RngStream(seed, stream_id)
        assert root.child(*indices).stream_id == expected
        ids = root.child_ids(*indices)
        assert ids.dtype == np.uint64 and ids.shape == ()
        assert int(ids) == expected

    def test_child_ids_broadcast_like_child(self):
        root = RngStream(20260808, 11)
        reps = np.array([0, 1, 7, -3, 2**40])[:, None, None]
        methods = np.arange(1, 4)
        budgets = np.arange(2)[:, None]
        ids = root.child_ids(5, reps, methods, budgets)
        assert ids.shape == (5, 2, 3)
        for r, rep in enumerate(reps.ravel()):
            for e in range(2):
                for m, method in enumerate(methods):
                    assert int(ids[r, e, m]) == root.child(5, rep, method, e).stream_id
        high = np.array([2**63, 2**64 - 1], dtype=np.uint64)
        assert root.child_ids(high, -1).tolist() == [root.child(int(h), -1).stream_id
                                                     for h in high]

    def test_child_ids_refuse_non_integer_indices(self):
        with pytest.raises(UsageError):
            RngStream(1).child_ids(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("stream_id", [0, 3, 2**63 + 5, 2**64 - 1])
    def test_rekey_draws_as_a_fresh_stream(self, stream_id):
        stream = RngStream(20260808, 99)
        gen = stream.generator
        # leave a partial buffer and a held 32-bit half behind
        gen.random(3)
        gen.integers(0, 1000, dtype=np.uint32)
        stream.rekey(stream_id)
        assert stream.stream_id == stream_id
        assert stream.generator is gen
        fresh = RngStream(20260808, stream_id).generator
        assert str(gen.bit_generator.state) == str(fresh.bit_generator.state)
        assert np.array_equal(gen.standard_gamma(np.array([0.3, 2.0, 50.0])),
                              fresh.standard_gamma(np.array([0.3, 2.0, 50.0])))
        assert np.array_equal(gen.integers(0, 1000, size=5, dtype=np.uint32),
                              fresh.integers(0, 1000, size=5, dtype=np.uint32))
        assert np.array_equal(gen.random(7), fresh.random(7))

    def test_rekey_keeps_the_seed(self):
        stream = RngStream(2**64 + 5, 1)
        stream.rekey(-1)
        assert (stream.seed, stream.stream_id) == (5, 2**64 - 1)
        assert np.array_equal(stream.generator.random(4), RngStream(5, -1).generator.random(4))


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

    @pytest.mark.parametrize("shape,rate,size", [
        ([0.2, 3.0, 40.0, 1e-3], [1.5, 0.25, 1e4, 7.0], None),
        (2.5, [1.0, 2.0, 3.0, 1e-5], None),
        ([0.5, 9.0], 4.0, None),
        (2.5, 4.0, None),
        (2.5, 4.0, 6),
        (0.7, [1.0, 2.0, 3.0], (2, 3)),
        ([0.7, 5.0, 1e-2], [1.0, 2.0, 3.0], (4, 3)),
    ], ids=["vectors", "scalar-shape", "scalar-rate", "scalars", "scalars-size",
            "scalar-shape-size", "vectors-size"])
    def test_draws_numpys_two_parameter_gamma_bit_for_bit(self, shape, rate, size):
        got = sample_gamma(shape, rate, RngStream(11, 4), size=size)
        reference = RngStream(11, 4).generator.gamma(shape, 1.0 / np.asarray(rate), size=size)
        reference = np.maximum(reference, np.finfo(np.float64).tiny)
        assert np.shape(got) == np.shape(reference)
        assert np.array_equal(got, reference)
        assert isinstance(got, float) == (np.ndim(reference) == 0)

    def test_one_draw_per_rate(self):
        rates = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        draws = sample_gamma(3.0, rates, RngStream(2))
        assert draws.shape == rates.shape
        assert len(set(draws.tolist())) == rates.size


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

    @pytest.mark.parametrize("alphas", [[2.0, 3.0], [1e-3, 0.5, 40.0, 7.0], [1e-9] * 5])
    def test_normalises_numpys_gamma_bit_for_bit(self, alphas):
        raw = RngStream(8, 1).generator.gamma(np.array(alphas))
        raw = np.maximum(raw, np.finfo(np.float64).tiny)
        assert np.array_equal(sample_dirichlet(alphas, RngStream(8, 1)), raw / raw.sum())

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


class TestSampleReleases:
    """The release kernel against the per-release samplers it replaces."""

    @settings(max_examples=40, deadline=None)
    @given(counts=st.lists(st.integers(0, 30), min_size=2, max_size=6),
           prior=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32), rows=st.integers(1, 4))
    def test_rows_match_the_per_release_samplers(self, counts, prior, seed, rows):
        counts = np.array(counts)
        pops = np.linspace(1.0, 50.0, counts.size)
        total = int(counts.sum())
        stream_ids = RngStream(seed).child_ids(100, np.arange(rows))
        md = sample_releases(counts + prior, 1.0, 1.0, total, RngStream(seed), stream_ids)
        pg = sample_releases(counts + prior, 1.0 / (pops + 2.0), pops, total,
                             RngStream(seed), stream_ids)
        for k, stream_id in enumerate(stream_ids.tolist()):
            stream = RngStream(seed, stream_id)
            theta = sample_dirichlet(counts + prior, stream)
            assert np.array_equal(md[k], sample_multinomial(total, theta, stream))
            stream = RngStream(seed, stream_id)
            weights = pops * sample_gamma(counts + prior, pops + 2.0, stream)
            assert np.array_equal(pg[k], sample_multinomial(total, weights / weights.sum(),
                                                            stream))
        assert md.shape == pg.shape == (rows, counts.size)
        assert md.dtype == pg.dtype == np.int64

    def test_without_ids_one_row_continues_the_stream(self):
        shapes = np.array([2.5, 1.0, 4.0])
        stream = RngStream(5, 6)
        stream.generator.random(3)
        got = sample_releases(shapes, 1.0, 1.0, 7, stream)
        reference = RngStream(5, 6)
        reference.generator.random(3)
        theta = sample_dirichlet(shapes, reference)
        assert np.array_equal(got, sample_multinomial(7, theta, reference)[None, :])
        # and the stream goes on from there
        assert stream.generator.random() == reference.generator.random()

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_releases([1.0, 0.0], 1.0, 1.0, 3, RngStream(0))
        with pytest.raises(DomainError):
            sample_releases([1.0, 1.0], [1.0, -1.0], 1.0, 3, RngStream(0))
        with pytest.raises(DomainError):
            sample_releases([1.0, 1.0], 1.0, 1.0, -1, RngStream(0))
        with pytest.raises(DomainError):
            sample_releases([1.0, 1.0], 1.0, [1.0, np.nan], 3, RngStream(0))


class TestAllocationKernel:
    def test_poisson_gamma_marginal_matches_quadrature(self):
        # each group's posterior predictive, Pois(z | n lam) integrated
        # against lam | y ~ Gamma(y + a, n + b), multiplied over the two
        # groups and conditioned on their sum, is the exact conditional law
        y, a, b, n = (1, 3), (2.0, 0.7), (3.0, 1.5), (4.0, 9.0)
        z_total = 5

        def predictive(i, z):
            def integrand(lam):
                return (stats.poisson.pmf(z, n[i] * lam)
                        * stats.gamma.pdf(lam, y[i] + a[i], scale=1 / (n[i] + b[i])))
            value, err = integrate.quad(integrand, 0, np.inf, epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-9
            return value

        joint = np.array([predictive(0, z1) * predictive(1, z_total - z1)
                          for z1 in range(z_total + 1)])
        got = np.exp(conditional_log_pmf_all(y, a, b, n, z_total))
        np.testing.assert_allclose(got, joint / joint.sum(), rtol=0, atol=1e-8)

    def test_stacks_broadcast_to_their_single_values(self):
        z = _allocations(4)
        c = np.array([[0.5, 2.0], [3.0, 1.25], [7.5, 0.1]])
        table = _allocation_terms(z, c[:, None, :])
        assert table.shape == (3, 5)
        for m, row in enumerate(c):
            for k, alloc in enumerate(z):
                assert table[m, k] == _allocation_terms(alloc, row)

    def test_two_groups_add_in_a_fixed_order(self):
        # the audits' byte-identical reports rest on this rounding order
        z = _allocations(12)
        c = np.array([0.3, 41.7])
        expected = (_log_gamma(z[:, 0] + c[0]) - _log_gamma(z[:, 0] + 1.0)
                    + _log_gamma(z[:, 1] + c[1]) - _log_gamma(z[:, 1] + 1.0))
        assert np.array_equal(_allocation_terms(z, c), expected)

    # With one group the kernel is the z-dependent part of the negative
    # binomial NegBin(z | r, p): add z ln p + r ln(1 - p) - ln Gamma(r).
    @staticmethod
    def _negbin_log_pmf(z, r, p):
        z = np.atleast_1d(z)
        return (_allocation_terms(z[:, None], np.array([r])) - gammaln(r)
                + z * math.log(p) + r * math.log1p(-p))

    def test_geometric_anchors(self):
        # r = 1 is the geometric law p^z (1 - p)
        got = self._negbin_log_pmf([0, 1], 1.0, 1 / 3)
        assert got[0] == pytest.approx(math.log(2 / 3), rel=1e-14)
        assert got[1] == pytest.approx(math.log(2 / 9), rel=1e-14)

    def test_partial_sums_to_one(self):
        total = np.exp(self._negbin_log_pmf(np.arange(201), 2.5, 0.4)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("r,p", [(0.7, 0.45), (3.2, 0.08), (12.0, 0.49)])
    def test_truncated_normalization(self, r, p):
        # truncation chosen so the tail mass is below 1e-12 (scipy tail oracle)
        cutoff = int(stats.nbinom.isf(1e-13, r, 1 - p)) + 1
        assert stats.nbinom.sf(cutoff - 1, r, 1 - p) < 1e-12
        got = self._negbin_log_pmf(np.arange(cutoff + 1), r, p)
        np.testing.assert_allclose(got, stats.nbinom.logpmf(np.arange(cutoff + 1), r, 1 - p),
                                   rtol=1e-10, atol=0)
        assert np.exp(got).sum() == pytest.approx(1.0, abs=1e-10)


# the arguments the log-gamma kernel sees: strengths and counts plus
# strengths, from the smallest normal float up
_LOG_GAMMA_ARGS = st.floats(min_value=float(np.finfo(np.float64).tiny), max_value=1e300)


class TestLogKernels:
    """The package's own log-gamma and log-sum-exp against scipy, which only
    the tests use."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(_LOG_GAMMA_ARGS, min_size=1, max_size=8))
    def test_log_gamma_matches_scipy(self, x):
        # relative to |ln Gamma| or 1, whichever is larger: near the zeros of
        # ln Gamma at 1 and 2 libm's lgamma and scipy differ by about 1e-16
        # absolute, a large relative difference on a value near 0
        x = np.array(x)
        got, ref = _log_gamma(x), gammaln(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert (np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0)).all()

    @pytest.mark.parametrize("x", [1.0 + 1e-7, 1.0 - 1e-4, 2.0 - 2.5e-5, 2.0 + 3e-7, 0.5, 1e-300])
    def test_log_gamma_near_its_zeros_and_pole(self, x):
        assert abs(_log_gamma(x) - gammaln(x)) <= 1e-14 * max(abs(gammaln(x)), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(min_value=1e306, max_value=1e308))
    def test_log_gamma_overflow_is_refused(self, x):
        with pytest.raises(DomainError, match="overflows"):
            _log_gamma(np.array([2.5, x]))

    def test_log_gamma_passes_non_finite_arguments_on(self):
        got = _log_gamma(np.array([np.inf, np.nan]))
        assert got[0] == np.inf and np.isnan(got[1])

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.floats(-1e300, 1e300), min_size=width, max_size=width),
        min_size=1, max_size=5)))
    def test_log_sum_exp_matches_scipy(self, rows):
        x = np.array(rows)
        got, ref = _log_sum_exp(x), logsumexp(x, axis=-1)
        assert got.shape == ref.shape
        assert (np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0)).all()

    def test_log_sum_exp_of_a_non_finite_row_is_not_finite(self):
        with np.errstate(invalid="ignore"):  # as its caller runs it
            got = _log_sum_exp(np.array([[0.0, np.inf], [0.0, np.nan], [1.0, 2.0]]))
        assert not np.isfinite(got[:2]).any() and np.isfinite(got[2])


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
        # each population is finite, their total is not
        with pytest.raises(DomainError, match="finite sum"):
            CountDataset.from_counts([3, 4], [1e308, 1e308])

    @pytest.mark.parametrize("counts,pops,ids,index", [
        ([1, -1, -2, 4], [1.0] * 4, None, 1),
        ([1, 2, 3, 4], [1.0, 1.0, np.nan, -1.0], None, 2),
        ([1, 2, 3, 4], [1.0, np.inf, 0.0, 1.0], None, 1),
        ([1, 2, 3, 4], [1.0] * 4, ["a", "b", "b", "a"], 2),
    ], ids=["negative-count", "nan-population", "infinite-population", "duplicate-id"])
    def test_refusal_names_the_first_offending_group(self, counts, pops, ids, index):
        with pytest.raises(DomainError) as err:
            CountDataset.from_counts(counts, pops, group_ids=ids)
        assert err.value.index == index

    def test_arrays_frozen(self):
        data = CountDataset.from_counts([3, 7], [10.0, 20.0])
        with pytest.raises(ValueError):
            data.counts[0] = 5

    def test_freezes_copies_of_the_callers_arrays(self):
        counts, pops = np.array([1, 2, 3]), np.ones(3)
        data = CountDataset.from_counts(counts, pops)
        for given, held in ((counts, data.counts), (pops, data.populations)):
            assert given.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(given, held)
        pops[0] = 5.0
        assert data.populations[0] == 1.0


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

    def test_freezes_copies_of_the_callers_arrays(self):
        a, b, rates, alpha = np.ones(3), np.full(3, 2.0), np.full(3, 0.5), np.ones(3)
        spec = PriorSpec.poisson_gamma(a, b=b)
        targeted = PriorSpec.poisson_gamma(a, target_rates=rates)
        md = PriorSpec.multinomial_dirichlet(alpha)
        for given, held in ((a, spec.a), (b, spec.b), (a, targeted.a),
                            (rates, targeted.target_rates), (alpha, md.alpha)):
            assert given.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(given, held)

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
