import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcounts.core import CountDataset, PriorSpec, RngStream
from dpcounts.dirichlet_mult import calibrate_md, md_log_pmf
from dpcounts.errors import DomainError, InfeasibleBudgetError, UsageError
from dpcounts.exact_math import exact_normalizer
from dpcounts.poisson_gamma import (
    PgCalibration,
    SynthesisStrategy,
    TargetRule,
    _certified_epsilon,
    _penalties,
    calibrate_pg,
    calibrate_pg_budgets,
    conditional_log_pmf_all,
    integer_prior_strength,
    log_normalizer_from_ratio,
    normalizer_ratio_bound,
    pg_implied_epsilon,
    pg_synthesize,
    sample_pair_allocation,
    sanitize_state_rates,
    state_target_rates,
    structure_ratio,
)


class TestStructureRatio:
    def test_uniform_structure_gives_one(self):
        assert structure_ratio(0, [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_substitution(self):
        assert structure_ratio(0, [1.0, 1.0], [2.0, 4.0]) == pytest.approx(1.5)
        assert structure_ratio(0, [1.0, 1.0], [4.0, 2.0]) == pytest.approx(2 / 3)

    def test_pair_reciprocal(self):
        r0 = structure_ratio(0, [1.0, 3.0], [0.5, 4.0])
        r1 = structure_ratio(1, [1.0, 3.0], [0.5, 4.0])
        assert r0 * r1 == pytest.approx(1.0, rel=1e-12)


class TestConditionalPmf:
    def test_symmetric_instance(self):
        ones = np.ones(2)
        log_pmf = conditional_log_pmf_all([1, 1], ones, ones, ones, 2)
        assert log_pmf[0] == pytest.approx(log_pmf[2], abs=1e-13)
        assert np.exp(log_pmf).sum() == pytest.approx(1.0, abs=1e-12)

    def test_hand_summation_oracle(self):
        # independent evaluation with math.gamma term by term
        y, a, b, n = [1, 1], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]
        p = [n[i] / (b[i] + 2 * n[i]) for i in range(2)]
        def term(z1):
            z2 = 2 - z1
            return (math.gamma(z1 + 2) / math.factorial(z1) * p[0] ** z1
                    * math.gamma(z2 + 2) / math.factorial(z2) * p[1] ** z2)
        total = sum(term(z1) for z1 in range(3))
        expected = [term(z1) / total for z1 in range(3)]
        got = np.exp(conditional_log_pmf_all(y, np.array(a), np.array(b), np.array(n), 2))
        assert np.allclose(got, expected, atol=1e-13)
        assert got[1] == pytest.approx(0.4, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(z_total=st.integers(0, 200),
           y1=st.integers(0, 40), y2=st.integers(0, 40),
           a1=st.floats(0.1, 50), a2=st.floats(0.1, 50),
           lam1=st.floats(0.05, 5), lam2=st.floats(0.05, 5),
           n1=st.floats(0.2, 20), n2=st.floats(0.2, 20))
    def test_normalization(self, z_total, y1, y2, a1, a2, lam1, lam2, n1, n2):
        a = np.array([a1, a2])
        log_pmf = conditional_log_pmf_all([y1, y2], a, a / np.array([lam1, lam2]),
                                          np.array([n1, n2]), z_total)
        assert np.exp(log_pmf).sum() == pytest.approx(1.0, abs=1e-12)

    def test_scalar_entry_point(self):
        # one entry of the table is its term over the normalizer
        y, a, b, n = [2, 3], np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, 2.0])
        full = conditional_log_pmf_all(y, a, b, n, 5)
        r1 = structure_ratio(0, n, b)
        term = (math.lgamma(3 + 3) - math.lgamma(4) + math.lgamma(2 + 5) - math.lgamma(3)
                + 3 * math.log(r1))
        assert full[3] == pytest.approx(term - log_normalizer_from_ratio(y, a, r1, 5))
        with pytest.raises(DomainError):
            conditional_log_pmf_all(y, a, b, n, -1)


class TestLogNormalizer:
    def test_single_term(self):
        value = log_normalizer_from_ratio([1, 1], [1.0, 1.0], 1.0, 0)
        assert value == pytest.approx(0.0, abs=1e-13)
        value = log_normalizer_from_ratio([3, 2], [1.0, 1.0], 1.0, 0)
        assert value == pytest.approx(math.lgamma(4) + math.lgamma(3), rel=1e-12)

    def test_four_unit_terms(self):
        # r = 1 and unit shapes make every term 1
        assert log_normalizer_from_ratio([0, 0], [1.0, 1.0], 1.0, 3) == pytest.approx(math.log(4))

    def test_matches_exact_oracle(self):
        for y, a, r, zt in [((1, 3), (1, 1), Fraction(1), 4),
                            ((2, 0), (2, 3), Fraction(1, 3), 6),
                            ((0, 5), (4, 1), Fraction(3, 2), 9)]:
            exact = exact_normalizer(y, a, r, zt)
            got = log_normalizer_from_ratio(np.array(y), np.array(a, dtype=float),
                                            float(r), zt)
            assert got == pytest.approx(math.log(exact), abs=1e-10)

    def test_large_total_finite(self):
        r1 = structure_ratio(0, [1000.0, 500.0], [2.0, 2.0])
        value = log_normalizer_from_ratio([10, 20], [5.0, 5.0], r1, 100_000)
        assert np.isfinite(value)


class TestNormalizerRatioBound:
    def test_substitution(self):
        assert normalizer_ratio_bound([1, 3], [1.0, 1.0], 1.0, 4) == pytest.approx(math.log(4))
        assert normalizer_ratio_bound([1, 3], [1.0, 1.0], 0.5, 4) == pytest.approx(math.log(6))

    def test_exact_ratio_within_bound(self):
        c_y = exact_normalizer((1, 3), (1, 1), 1, 4)
        c_x = exact_normalizer((0, 4), (1, 1), 1, 4)
        assert abs(math.log(c_x / c_y)) <= math.log(4) + 1e-12

    def test_ordering_enforced(self):
        with pytest.raises(UsageError):
            normalizer_ratio_bound([3, 1], [1.0, 1.0], 1.0, 4)
        with pytest.raises(UsageError):
            normalizer_ratio_bound([1, 1], [1.0, 1.0], 1.0, 2)
        with pytest.raises(DomainError):
            normalizer_ratio_bound([0, 3], [1.0, 1.0], 1.0, 3)


class TestHeterogeneityPenalty:
    # _penalties(a_complement, y_total, z_total, r) is the penalty nu
    def test_no_penalty_when_ratio_at_least_one(self):
        assert _penalties(2.0, 10, 10, 1.0) == 1.0
        assert _penalties(2.0, 10, 10, 1.7) == 1.0

    def test_vanishes_with_informative_complement(self):
        assert _penalties(1e12, 10, 10, 0.2) == pytest.approx(1.0, abs=1e-10)

    def test_worst_case_two(self):
        assert _penalties(1.0, 10, 10, 0.0) == pytest.approx(2.0)

    @settings(max_examples=60, deadline=None)
    @given(a_comp=st.floats(1.0, 1e4), y_total=st.integers(1, 1000),
           r=st.floats(0.0, 0.999))
    def test_range_when_ratio_below_one(self, a_comp, y_total, r):
        nu = _penalties(a_comp, y_total, y_total, r)
        assert 1.0 < nu <= 2.0 or (r == 0 and nu == pytest.approx(2.0))


def _pair_dataset(y_total, populations):
    return CountDataset.from_counts([y_total, 0], populations)


class TestCalibratePg:
    def test_uniform_structure_matches_baseline(self):
        data = _pair_dataset(10_000, [1e5, 1e5])
        cal = calibrate_pg(7.0, data)
        assert cal.converged
        assert np.allclose(cal.a_min, 9.127142532217338, rtol=1e-9)
        assert np.allclose(cal.nu, 1.0)
        assert np.allclose(cal.r, 1.0)

    def test_equivalence_against_md_for_any_budget(self):
        data = _pair_dataset(50, [3.0, 3.0])
        for eps in (math.log(2), 1.0, 3.0):
            cal = calibrate_pg(eps, data)
            assert cal.a_min[0] == pytest.approx(calibrate_md(eps, 50).alpha_min, rel=1e-9)

    def test_monotone_in_budget(self):
        data = CountDataset.from_counts([7, 13, 30], [1.0, 5.0, 20.0])
        lam0 = np.array([0.9, 0.3, 1.4])
        tight = calibrate_pg(3.0, data, target_rates=lam0, rule=TargetRule.CUSTOM)
        loose = calibrate_pg(5.0, data, target_rates=lam0, rule=TargetRule.CUSTOM)
        assert np.all(tight.a_min > loose.a_min)

    def test_fixed_point_self_consistent(self):
        data = CountDataset.from_counts([3, 2], [1.0, 4.0])
        cal = calibrate_pg(1.5, data, target_rates=[0.8, 0.25], rule=TargetRule.CUSTOM)
        assert cal.converged
        e_eps = math.exp(cal.epsilon)
        required = cal.z_total / (e_eps / cal.nu - 1.0)
        assert np.allclose(cal.a_min, required, rtol=1e-9)

    def test_low_budget_supported(self):
        data = _pair_dataset(6, [1.0, 4.0])
        cal = calibrate_pg(math.log(2), data, target_rates=[0.8, 0.25],
                           rule=TargetRule.CUSTOM)
        assert cal.converged
        assert np.all(cal.nu < 2.0)

    def test_state_rule(self):
        data = CountDataset.from_counts([4, 6, 10], [10.0, 10.0, 40.0],
                                        state_ids=["a", "a", "b"])
        cal = calibrate_pg(2.0, data, rule=TargetRule.STATE_AVERAGE)
        assert cal.target_rates[0] == pytest.approx(0.5)
        assert cal.target_rates[2] == pytest.approx(0.25)

    def test_custom_rule_needs_rates(self):
        data = _pair_dataset(5, [1.0, 1.0])
        with pytest.raises(UsageError):
            calibrate_pg(1.0, data, rule=TargetRule.CUSTOM)

    def test_record_invariants_enforced(self):
        with pytest.raises(DomainError):
            PgCalibration(epsilon=1.0, z_total=10, y_total=10,
                          a_min=np.array([1.0, 1.0]), nu=np.array([3.0, 1.0]),
                          r=np.array([1.0, 1.0]), iterations=1, converged=True,
                          target_rates=np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            PgCalibration(epsilon=1.0, z_total=10, y_total=10,
                          a_min=np.array([0.1, 0.1]), nu=np.array([1.0, 1.0]),
                          r=np.array([1.0, 1.0]), iterations=1, converged=True,
                          target_rates=np.array([1.0, 1.0]))

    def test_implied_epsilon_inverts_calibration(self):
        data = CountDataset.from_counts([3, 2], [1.0, 4.0])
        cal = calibrate_pg(1.5, data, target_rates=[0.8, 0.25], rule=TargetRule.CUSTOM)
        implied = pg_implied_epsilon(data.populations, cal.a_min, cal.b_min,
                                     cal.y_total, cal.z_total)
        assert implied == pytest.approx(1.5, rel=1e-9)

    @pytest.mark.parametrize("populations", [[1, 4], [2, 2], [1, 3], [1, 1, 8]],
                             ids=["1-4", "2-2", "1-3", "1-1-8"])
    def test_certified_budget_never_exceeds_request(self, populations):
        # no slack: the release states eps, so the prior must certify eps
        custom = [0.8, 0.25, 0.5][:len(populations)]
        for y_total in (1, 2, 3, 5, 6, 10, 12):
            data = CountDataset.from_counts([y_total] + [0] * (len(populations) - 1),
                                            populations)
            for eps in (math.log(2), 1.0, 2.0, 3.0, 7.0):
                for kwargs in ({}, {"target_rates": custom, "rule": TargetRule.CUSTOM}):
                    cal = calibrate_pg(eps, data, **kwargs)
                    implied = pg_implied_epsilon(data.populations, cal.a_min, cal.b_min,
                                                 y_total, y_total)
                    assert implied <= eps, (y_total, eps, kwargs)

    def test_integer_rounding_keeps_requirement(self):
        data = _pair_dataset(6, [1.0, 4.0])
        cal = calibrate_pg(1.0, data, target_rates=[0.8, 0.25], rule=TargetRule.CUSTOM)
        a_int = integer_prior_strength(cal, data.populations)
        assert a_int.dtype == np.int64
        assert np.all(a_int >= cal.a_min - 1e-9)
        implied = pg_implied_epsilon(data.populations, a_int,
                                     a_int / cal.target_rates,
                                     cal.y_total, cal.z_total)
        assert implied <= cal.epsilon + 1e-9


# reference values of calibrate_pg on a small grid, computed with every
# evaluation through pg_implied_epsilon(n, a * ones, a * ones / target): (a_min
# and nu of every group, the smallest and largest r, iterations). r follows
# from a_min, so its extremes pin it.
_PINNED_CALIBRATIONS = {
    ("pair-national", 0.6931471805599453): (5.0, 1.0, 1.0, 1.0, 1),
    ("pair-national", 1.0): (2.9098835343466325, 1.0, 1.0, 1.0, 1),
    ("pair-national", 3.0): (0.26197848245627975, 1.0, 1.0, 1.0, 1),
    ("pair-custom", 0.6931471805599453): (
        5.865315685909637, 1.0796401789808747,
        0.8428648986142652, 1.1864297607411072, 10),
    ("pair-custom", 1.0): (
        3.3576057918389424, 1.0920494503338407,
        0.8645472862176283, 1.1566747313209138, 10),
    ("pair-custom", 3.0): (
        0.27135482855900445, 1.0339481225544929,
        0.9709991045612708, 1.0298670671296166, 9),
    ("four-state", 0.6931471805599453): (
        16.22777534431944, 1.1497735933048028,
        0.25508448330514605, 3.0786335453474933, 10),
    ("four-state", 1.0): (
        9.67539961475458, 1.2133784577592803,
        0.2882726183870591, 2.5684284373606183, 11),
    ("four-state", 3.0): (
        0.823635891580639, 1.2900529343995912,
        0.6743936416595946, 1.2082039544448504, 10),
    # at 60 groups the summed complement strength differs from a * 59
    ("sixty-state", 0.5): (
        742.7287404765038, 1.010583170869068,
        0.0006012601562287928, 8.476388086836394, 10),
    ("sixty-state", 2.0): (
        81.08951781417112, 1.0892318009349118,
        0.0007024694751334616, 4.33602543045636, 10),
}


def _pinned_dataset(name):
    if name == "pair-national":
        return _pair_dataset(5, [2.0, 2.0]), {}
    if name == "pair-custom":
        return (CountDataset.from_counts([4, 1], [1.0, 4.0]),
                {"target_rates": [0.8, 0.25], "rule": TargetRule.CUSTOM})
    if name == "four-state":
        counts, pops, states = [3, 0, 7, 2], [10.0, 40.0, 25.0, 5.0], ["s1", "s1", "s2", "s2"]
    else:
        idx = np.arange(60)
        counts, pops, states = idx * 5 % 17, 10.0 ** (1 + (idx * 7 % 13) / 3.0), [
            f"s{i % 6}" for i in idx]
    return (CountDataset.from_counts(counts, pops, state_ids=states),
            {"rule": TargetRule.STATE_AVERAGE})


class TestCertifiedKernel:
    @settings(max_examples=150, deadline=None)
    @given(n=st.lists(st.floats(0.01, 1e7), min_size=2, max_size=60),
           data=st.data(), a=st.floats(1e-3, 1e4),
           total=st.integers(1, 20_000))
    def test_scalar_strength_matches_vector_path(self, n, data, a, total):
        n = np.array(n)
        lam = np.array(data.draw(st.lists(st.floats(1e-6, 10.0), min_size=n.size,
                                          max_size=n.size)))
        ones = np.ones(n.size)
        vector = pg_implied_epsilon(n, a * ones, a * ones / lam, total, total)
        scalar = _certified_epsilon(n, n.sum() - n, a, np.full(n.size, a).sum() - a,
                                    a / lam, total, total)
        assert scalar == vector

    @pytest.mark.parametrize("name,eps", sorted(_PINNED_CALIBRATIONS))
    def test_calibration_pinned(self, name, eps):
        data, kwargs = _pinned_dataset(name)
        a_min, nu, r_min, r_max, iterations = _PINNED_CALIBRATIONS[name, eps]
        cal = calibrate_pg(eps, data, **kwargs)
        assert cal.a_min.tolist() == [a_min] * data.n_groups
        assert cal.nu.tolist() == [nu] * data.n_groups
        assert (cal.r.min(), cal.r.max()) == (r_min, r_max)
        assert cal.iterations == iterations


def _same_calibration(got, want):
    return (got.epsilon == want.epsilon
            and got.a_min.tolist() == want.a_min.tolist()
            and got.nu.tolist() == want.nu.tolist()
            and got.r.tolist() == want.r.tolist()
            and got.iterations == want.iterations
            and got.target_rates.tolist() == want.target_rates.tolist())


_ACCEPTANCE_EPS = (math.log(2.0), 1.0, 2.0, 3.0, 7.0)


class TestCalibrateBudgets:
    # every budget is its own solve: a lane of the batch equals the
    # one-budget call, whatever the other lanes are

    @pytest.mark.parametrize("name", ["pair-national", "pair-custom", "four-state",
                                      "sixty-state"])
    @pytest.mark.parametrize("epsilons", [
        _ACCEPTANCE_EPS,
        (7.0, 0.5, 2.0, math.log(2.0), 1.0),
        (1.0, 1.0, 3.0, 1.0),
        (2.0,),
    ], ids=["acceptance-grid", "unsorted", "repeated", "one"])
    def test_lanes_match_one_budget_calls(self, name, epsilons):
        data, kwargs = _pinned_dataset(name)
        batch = calibrate_pg_budgets(epsilons, data, **kwargs)
        assert len(batch) == len(epsilons)
        for eps, cal in zip(epsilons, batch):
            assert _same_calibration(cal, calibrate_pg(eps, data, **kwargs)), eps

    def test_lanes_keep_pinned_values(self):
        for name in ("pair-custom", "four-state", "sixty-state"):
            data, kwargs = _pinned_dataset(name)
            grid = sorted(eps for key, eps in _PINNED_CALIBRATIONS if key == name)
            for eps, cal in zip(grid, calibrate_pg_budgets(grid, data, **kwargs)):
                a_min, nu, r_min, r_max, iterations = _PINNED_CALIBRATIONS[name, eps]
                assert cal.a_min.tolist() == [a_min] * data.n_groups
                assert cal.nu.tolist() == [nu] * data.n_groups
                assert (cal.r.min(), cal.r.max(), cal.iterations) == (r_min, r_max,
                                                                      iterations)

    @pytest.mark.parametrize("rule", [TargetRule.DEFAULT_NATIONAL,
                                      TargetRule.STATE_AVERAGE])
    def test_county_scale_lanes(self, rule):
        gen = np.random.Generator(np.random.PCG64(5))
        pops = np.exp(gen.normal(10.0, 1.5, 3142))
        counts = gen.multinomial(10_000, pops / pops.sum())
        data = CountDataset.from_counts(counts, pops,
                                        state_ids=[f"s{i % 50:02d}" for i in range(3142)])
        epsilons = (4.0, 0.5, 1.0, 8.0, 0.5, 2.0)
        batch = calibrate_pg_budgets(epsilons, data, rule=rule)
        for eps, cal in zip(epsilons, batch):
            assert _same_calibration(cal, calibrate_pg(eps, data, rule=rule)), eps

    def test_one_infeasible_lane_raises(self, monkeypatch):
        # past a strength threshold the penalty is forced past every budget,
        # so the lane that starts above it (eps 0.5) can never be met, while
        # the lanes whose roots lie below it solve as usual
        import dpcounts.poisson_gamma as pg

        penalties = pg._penalties

        def forced(a_comp, y_total, z_total, r):
            nu = penalties(a_comp, y_total, z_total, r)
            return np.where(np.asarray(a_comp) > 1.0, 100.0, nu)
        monkeypatch.setattr(pg, "_penalties", forced)
        data = CountDataset.from_counts([3, 3], [1.0, 1.0])
        assert len(calibrate_pg_budgets((8.0, 7.0), data)) == 2
        # the doubled strength overflows before the solve gives up
        with (pytest.raises(InfeasibleBudgetError),
              np.errstate(over="ignore", invalid="ignore")):
            calibrate_pg_budgets((8.0, 0.5, 7.0), data)

    @pytest.mark.parametrize("epsilons,error", [
        ((), UsageError),
        ((1.0, 0.0), DomainError),
        ((-1.0,), DomainError),
        ((1.0, math.nan), DomainError),
        ((math.inf,), DomainError),
    ], ids=["empty", "zero", "negative", "nan", "infinite"])
    def test_bad_budgets_refused(self, epsilons, error):
        # an infinite budget puts the penalty-free root at strength 0, and
        # doubling 0 never leaves it
        data = _pair_dataset(5, [1.0, 4.0])
        with pytest.raises(error):
            calibrate_pg_budgets(epsilons, data)


class TestSynthesize:
    def _instance(self):
        data = CountDataset.from_counts([2, 3], [1.0, 2.0])
        prior = PriorSpec.poisson_gamma(a=[1.0, 2.0], target_rates=[1.0, 2.0])
        return data, prior

    def test_strategy_mismatch(self):
        data = CountDataset.from_counts([1, 2, 3], [1.0, 1.0, 1.0])
        prior = PriorSpec.poisson_gamma(a=[1.0] * 3, target_rates=[1.0] * 3)
        with pytest.raises(UsageError):
            pg_synthesize(data, prior, SynthesisStrategy.EXACT_PAIR, RngStream(0))

    def test_mode_mismatch(self):
        data, _ = self._instance()
        with pytest.raises(UsageError):
            pg_synthesize(data, PriorSpec.multinomial_dirichlet([1.0, 1.0]),
                          SynthesisStrategy.EXACT_PAIR, RngStream(0))

    def test_exact_pair_symmetry(self):
        data = CountDataset.from_counts([2, 2], [1.0, 1.0])
        prior = PriorSpec.poisson_gamma(a=[1.5, 1.5], target_rates=[1.0, 1.0])
        draws = np.array([pg_synthesize(data, prior, SynthesisStrategy.EXACT_PAIR,
                                        RngStream(31, i)).counts[0]
                          for i in range(8000)])
        low, high = np.mean(draws == 0), np.mean(draws == 4)
        assert abs(low - high) < 3 * math.sqrt(2 * low * (1 - low) / 8000)

    def test_exact_pair_matches_pmf(self):
        data, prior = self._instance()
        log_pmf = conditional_log_pmf_all(data.counts, prior.a, prior.b,
                                          data.populations, data.total)
        draws = sample_pair_allocation(log_pmf, RngStream(32), size=100_000)
        emp = np.bincount(draws, minlength=data.total + 1) / 100_000
        tv = 0.5 * np.abs(emp - np.exp(log_pmf)).sum()
        assert tv < 0.01

    def test_informative_limit_allocates_by_prior_rates(self):
        # a, b -> inf at fixed a/b: allocation weights tend to n * lam0
        n = np.array([1.0, 3.0])
        lam0 = np.array([2.0, 0.5])
        data = CountDataset.from_counts([40, 0], n)
        prior = PriorSpec.poisson_gamma(a=np.array([1e9, 1e9]), target_rates=lam0)
        draws = np.array([pg_synthesize(data, prior, SynthesisStrategy.LAMBDA_MULTINOMIAL,
                                        RngStream(33, i)).counts
                          for i in range(3000)])
        expected = 40 * n * lam0 / np.sum(n * lam0)
        se = math.sqrt(40 * 0.5 / 3000)
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 4 * se)

    def test_totals_and_provenance(self):
        data, prior = self._instance()
        synth = pg_synthesize(data, prior, SynthesisStrategy.LAMBDA_MULTINOMIAL,
                              RngStream(34))
        assert synth.counts.sum() == data.total
        assert synth.provenance.strategy == "lambda-then-multinomial"
        assert synth.provenance.epsilon > 0


class TestStateRates:
    def _data(self):
        return CountDataset.from_counts(
            [2, 3, 10, 5], [10.0, 10.0, 50.0, 50.0],
            state_ids=["s1", "s1", "s2", "s2"])

    def test_zero_noise_limit(self):
        data = self._data()
        rates = sanitize_state_rates(data, 1e12, RngStream(41))
        assert rates[0] == pytest.approx(5 / 20, rel=1e-6)
        assert rates[2] == pytest.approx(15 / 100, rel=1e-6)

    def test_unbiased_noise(self):
        data = CountDataset.from_counts([60, 40], [5e5, 5e5], state_ids=["s", "s"])
        draws = np.array([sanitize_state_rates(data, 1.0, RngStream(42, i))[0]
                          for i in range(4000)])
        # Laplace(1) noise on the count: sd of the mean rate is sqrt(2/n)/1e6
        se = math.sqrt(2.0 / 4000) / 1e6
        assert abs(draws.mean() - 1e-4) < 3 * se

    def test_states_are_independent_partitions(self):
        data = self._data()
        full = sanitize_state_rates(data, 5.0, RngStream(43))
        assert full[0] == full[1]
        assert full[2] == full[3]

    def test_noise_drawn_in_first_appearance_order(self):
        data = CountDataset.from_counts([4, 6, 1], [10.0, 20.0, 30.0],
                                        state_ids=["b", "a", "b"])
        noise_b, noise_a = RngStream(44).generator.laplace(0.0, 1.0 / 2.0, size=2)
        rates = sanitize_state_rates(data, 2.0, RngStream(44))
        assert rates[0] == rates[2] == max((5 + noise_b) / 40.0, 0.1 / 40.0)
        assert rates[1] == max((6 + noise_a) / 20.0, 0.1 / 20.0)

    def test_matches_per_state_loop(self):
        gen = np.random.default_rng(45)
        states = [f"s{k}" for k in gen.integers(0, 7, size=60)]
        data = CountDataset.from_counts(gen.integers(0, 4, size=60),
                                        gen.uniform(1.0, 50.0, size=60),
                                        state_ids=states)
        counts, pops = {}, {}
        for state, y_i, n_i in zip(states, data.counts, data.populations):
            counts[state] = counts.get(state, 0.0) + float(y_i)
            pops[state] = pops.get(state, 0.0) + float(n_i)
        stream = RngStream(46).generator
        noisy = {state: counts[state] + stream.laplace(0.0, 1.0) for state in counts}
        for got, totals in ((state_target_rates(data), counts),
                            (sanitize_state_rates(data, 1.0, RngStream(46)), noisy)):
            expected = [max(totals[s] / pops[s], 0.1 / pops[s]) for s in states]
            assert got.tolist() == expected

    def test_floor_applies(self):
        data = CountDataset.from_counts([0, 0, 7], [10.0, 10.0, 10.0],
                                        state_ids=["a", "a", "b"])
        rates = state_target_rates(data)
        assert rates[0] == pytest.approx(0.1 / 20.0)

    def test_missing_states_rejected(self):
        data = CountDataset.from_counts([1, 2], [1.0, 1.0])
        with pytest.raises(UsageError):
            state_target_rates(data)
        with pytest.raises(UsageError):
            sanitize_state_rates(data, 1.0, RngStream(0))


class TestBaselineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(y1=st.integers(0, 15), y2=st.integers(0, 15),
           a=st.floats(0.2, 40.0), n=st.floats(0.1, 100.0),
           lam0=st.floats(0.01, 10.0))
    def test_uniform_structure_reduces_to_baseline(self, y1, y2, a, n, lam0):
        # equal populations and one shared target rate with one shared prior
        # strength collapse the pair pmf to the baseline model with alpha = a;
        # the baseline pmf fixes the release total at the data total
        z_total = y1 + y2
        y = np.array([y1, y2])
        a_vec = np.full(2, a)
        b_vec = a_vec / lam0
        n_vec = np.full(2, n)
        log_pmf = conditional_log_pmf_all(y, a_vec, b_vec, n_vec, z_total)
        for z1 in range(z_total + 1):
            md = md_log_pmf([z1, z_total - z1], y, a_vec)
            assert log_pmf[z1] == pytest.approx(md, abs=1e-10)


def test_infeasible_budget_guard(monkeypatch):
    # With matched totals a feasible strength always exists, so force the
    # penalty past the budget to exercise the guard branch; the bracket then
    # doubles until it overflows.
    import dpcounts.poisson_gamma as pg

    monkeypatch.setattr(pg, "_penalties", lambda *args, **kwargs: np.full(2, 100.0))
    data = CountDataset.from_counts([3, 3], [1.0, 1.0])
    with pytest.raises(InfeasibleBudgetError), np.errstate(over="ignore"):
        calibrate_pg(1.0, data)
