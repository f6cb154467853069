import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcounts.core import CountDataset, PriorSpec, RngStream
from dpcounts.dirichlet_mult import (
    MdCalibration,
    calibrate_md,
    md_implied_epsilon,
    md_log_pmf,
    md_log_ratio,
    md_synthesize,
)
from dpcounts.errors import DomainError, UsageError


def compositions(total, parts):
    """All non-negative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerated_max_ratio(alpha, y_total):
    """Brute-force worst |log ratio| over all neighbor pairs and allocations,
    evaluated through full pmf differences only."""
    worst = 0.0
    for y in compositions(y_total, 2):
        for dec in (0, 1):
            if y[dec] == 0:
                continue
            x = list(y)
            x[dec] -= 1
            x[1 - dec] += 1
            for z in compositions(y_total, 2):
                value = abs(md_log_pmf(z, y, alpha) - md_log_pmf(z, x, alpha))
                worst = max(worst, value)
    return worst


class TestCalibrateMd:
    def test_paper_scale_anchor(self):
        cal = calibrate_md(7.0, 10_000)
        assert cal.alpha_min == pytest.approx(9.127142532217338, rel=1e-12)

    def test_unit_budget(self):
        assert calibrate_md(math.log(2.0), 100).alpha_min == pytest.approx(100.0, rel=1e-12)

    def test_matches_enumerated_worst_case(self):
        # at alpha = 1 and total 2, brute force gives ln 3; inverting the
        # calibration at ln 3 must return exactly 1
        assert enumerated_max_ratio(np.array([1.0, 1.0]), 2) == pytest.approx(math.log(3.0), abs=1e-12)
        assert calibrate_md(math.log(3.0), 2).alpha_min == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            calibrate_md(0.0, 10)
        with pytest.raises(DomainError):
            calibrate_md(1.0, 0)

    @pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan])
    def test_non_finite_budget_refused(self, epsilon):
        with pytest.raises(DomainError):
            calibrate_md(epsilon, 10)

    def test_inconsistent_record_rejected(self):
        with pytest.raises(DomainError):
            MdCalibration(epsilon=1.0, z_total=10, alpha_min=1.0)

    def test_implied_epsilon_inverts_calibration(self):
        cal = calibrate_md(2.5, 400)
        assert md_implied_epsilon([cal.alpha_min, cal.alpha_min + 3], 400) == pytest.approx(2.5, rel=1e-12)


class TestMdLogPmf:
    def test_hand_evaluated_anchors(self):
        alpha = np.array([1.0, 1.0])
        assert md_log_pmf([0, 2], [1, 1], alpha) == pytest.approx(math.log(0.3), rel=1e-12)
        assert md_log_pmf([1, 1], [1, 1], alpha) == pytest.approx(math.log(0.4), rel=1e-12)
        assert md_log_pmf([2, 0], [1, 1], alpha) == pytest.approx(math.log(0.3), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(y=st.lists(st.integers(0, 6), min_size=2, max_size=4),
           alpha=st.lists(st.floats(0.05, 30.0), min_size=2, max_size=4),
           z_total=st.integers(0, 12))
    def test_normalization(self, y, alpha, z_total):
        size = min(len(y), len(alpha))
        y = np.array(y[:size])
        alpha = np.array(alpha[:size])
        y[0] += z_total - y.sum() if y.sum() <= z_total else 0
        if y.sum() != z_total:
            y = np.zeros(size, dtype=int)
            y[0] = z_total
        total = sum(math.exp(md_log_pmf(z, y, alpha))
                    for z in compositions(z_total, size))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            md_log_pmf([1, 1], [1, 1, 1], [1.0, 1.0])
        with pytest.raises(UsageError):
            md_log_pmf([1, 1], [3, 0], [1.0, 1.0])


class TestMdLogRatio:
    def test_anchors_match_pmf_difference(self):
        alpha = np.array([1.0, 1.0])
        y, x = np.array([1, 1]), np.array([0, 2])
        assert md_log_ratio([2, 0], y, x, alpha) == pytest.approx(math.log(3.0), rel=1e-12)
        assert md_log_ratio([0, 2], y, x, alpha) == pytest.approx(math.log(0.5), rel=1e-12)
        for z in compositions(2, 2):
            brute = md_log_pmf(z, y, alpha) - md_log_pmf(z, x, alpha)
            assert md_log_ratio(z, y, x, alpha) == pytest.approx(brute, abs=1e-12)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(UsageError):
            md_log_ratio([1, 1], [1, 1], [1, 1], [1.0, 1.0])
        with pytest.raises(UsageError):
            md_log_ratio([1, 1], [2, 0], [0, 2], [1.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(y1=st.integers(1, 8), y_total=st.integers(2, 10),
           z1=st.integers(0, 10),
           a1=st.floats(0.1, 20.0), a2=st.floats(0.1, 20.0))
    def test_antisymmetry_and_agreement(self, y1, y_total, z1, a1, a2):
        y1 = min(y1, y_total)
        z1 = min(z1, y_total)
        y = np.array([y1, y_total - y1])
        x = np.array([y1 - 1, y_total - y1 + 1])
        z = np.array([z1, y_total - z1])
        alpha = np.array([a1, a2])
        forward = md_log_ratio(z, y, x, alpha)
        backward = md_log_ratio(z, x, y, alpha)
        assert forward == -backward
        brute = md_log_pmf(z, y, alpha) - md_log_pmf(z, x, alpha)
        assert forward == pytest.approx(brute, abs=1e-10)

    def test_batch_matches_single_allocations_exactly(self):
        alpha = np.array([0.7, 2.3])
        y, x = np.array([2, 4]), np.array([1, 5])
        z = np.array(list(compositions(6, 2)))
        ratios = md_log_ratio(z, y, x, alpha)
        pmfs = md_log_pmf(z, y, alpha)
        assert ratios.shape == pmfs.shape == (7,)
        for k, row in enumerate(z):
            assert ratios[k] == md_log_ratio(row, y, x, alpha)
            assert pmfs[k] == md_log_pmf(row, y, alpha)
        with pytest.raises(UsageError):
            md_log_ratio(np.array([[1, 5], [2, 3]]), y, x, alpha)
        # an (m, I) stack of datasets gives one row per dataset
        table = md_log_pmf(z, z, alpha)
        assert table.shape == (7, 7)
        for m, data in enumerate(z):
            assert np.array_equal(table[m], md_log_pmf(z, data, alpha))
        # one allocation against a stack of datasets is allowed, as in
        # md_log_ratio: one value per dataset
        column = md_log_pmf(z[2], z, alpha)
        assert column.shape == (7,)
        assert np.array_equal(column, table[:, 2])
        with pytest.raises(UsageError):
            md_log_pmf(z, np.array([[2, 4], [3, 4]]), alpha)

    def test_dataset_stack_table_is_the_dirichlet_multinomial(self):
        # each row of the (m, k) table is DirMult(z | T, y + alpha) over all
        # k allocations of the total, here with three groups
        from scipy.stats import dirichlet_multinomial
        alpha = np.array([0.4, 1.5, 3.0])
        z = np.array(list(compositions(5, 3)))
        table = md_log_pmf(z, z, alpha)
        assert table.shape == (len(z), len(z))
        for m, data in enumerate(z):
            expected = dirichlet_multinomial.logpmf(z, data + alpha, 5)
            np.testing.assert_allclose(table[m], expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.exp(table).sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_group_swap_invariance(self):
        alpha = np.array([2.0, 5.0])
        y, x, z = np.array([3, 1]), np.array([2, 2]), np.array([0, 4])
        swapped = abs(md_log_ratio(z[::-1], y[::-1], x[::-1], alpha[::-1]))
        assert abs(md_log_ratio(z, y, x, alpha)) == pytest.approx(swapped, abs=1e-12)


class TestMdSynthesize:
    def test_prior_dominates(self):
        data = CountDataset.from_counts([3, 7], [1.0, 1.0])
        prior = PriorSpec.multinomial_dirichlet([1e12, 1e12])
        draws = np.array([md_synthesize(data, prior, RngStream(11, i)).counts
                          for i in range(2000)])
        se = math.sqrt(10 * 0.5 * 0.5 / 2000)
        assert abs(draws[:, 0].mean() - 5.0) < 3 * se

    def test_data_dominates(self):
        data = CountDataset.from_counts([10, 0], [1.0, 1.0])
        prior = PriorSpec.multinomial_dirichlet([1e-6, 1e-6])
        draws = np.array([md_synthesize(data, prior, RngStream(12, i)).counts
                          for i in range(500)])
        assert draws[:, 0].mean() > 9.9

    def test_matches_collapsed_predictive(self):
        # empirical pmf over the three allocations of 2 events vs the exact
        # collapsed predictive values 0.3 / 0.4 / 0.3
        data = CountDataset.from_counts([1, 1], [1.0, 1.0])
        prior = PriorSpec.multinomial_dirichlet([1.0, 1.0])
        m = 20_000
        draws = np.array([md_synthesize(data, prior, RngStream(13, i)).counts[0]
                          for i in range(m)])
        for value, expected in [(0, 0.3), (1, 0.4), (2, 0.3)]:
            freq = np.mean(draws == value)
            se = math.sqrt(expected * (1 - expected) / m)
            assert abs(freq - expected) < 3 * se

    def test_total_and_provenance(self):
        data = CountDataset.from_counts([4, 6], [1.0, 2.0])
        prior = PriorSpec.multinomial_dirichlet([2.0, 2.0])
        synth = md_synthesize(data, prior, RngStream(14))
        assert synth.total == data.total
        assert synth.counts.sum() == data.total
        assert synth.provenance.method == "multinomial-dirichlet"
        assert synth.provenance.epsilon == pytest.approx(math.log1p(10 / 2.0))

    def test_mode_mismatch(self):
        data = CountDataset.from_counts([4, 6], [1.0, 2.0])
        prior = PriorSpec.poisson_gamma(a=[1.0, 1.0], target_rates=[1.0, 1.0])
        with pytest.raises(UsageError):
            md_synthesize(data, prior, RngStream(0))
