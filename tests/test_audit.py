import math
from fractions import Fraction

import numpy as np
import pytest

import dpcounts.audit as audit_module
from dpcounts.audit import (
    AuditReport,
    BoundInstance,
    Witness,
    audit_synthesizer,
    bound_accuracy_sweep,
    default_bound_grid,
    enumerate_neighbors,
)
from dpcounts.core import CountDataset
from dpcounts.dirichlet_mult import calibrate_md, md_log_ratio
from dpcounts.errors import DomainError, UsageError
from dpcounts.poisson_gamma import (
    TargetRule,
    _normalized_pair_terms,
    calibrate_pg,
    conditional_log_pmf_all,
)


class TestEnumerateNeighbors:
    def test_total_one(self):
        assert enumerate_neighbors(1) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]

    def test_total_two_hand_enumeration(self):
        pairs = set(enumerate_neighbors(2))
        assert pairs == {((2, 0), (1, 1)), ((1, 1), (0, 2)),
                         ((1, 1), (2, 0)), ((0, 2), (1, 1))}

    @pytest.mark.parametrize("total", [1, 2, 5, 9])
    def test_every_pair_is_a_valid_neighbor(self, total):
        for y, x in enumerate_neighbors(total):
            assert sum(y) == sum(x) == total
            assert min(x) >= 0 and min(y) >= 0
            assert sum(abs(a - b) for a, b in zip(y, x)) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            enumerate_neighbors(0)


class TestAuditMd:
    def test_unit_alpha_total_two(self):
        report = audit_synthesizer("md", math.log(3.0), 2, alpha=[1.0, 1.0])
        assert report.max_abs_log_ratio == pytest.approx(math.log(3.0), abs=1e-12)
        assert report.satisfied
        # the witness reproduces the recorded maximum
        again = abs(md_log_ratio(report.witness.z, report.witness.y,
                                 report.witness.x, [1.0, 1.0]))
        assert again == pytest.approx(report.max_abs_log_ratio, abs=1e-15)

    def test_calibrated_prior_is_satisfied(self):
        alpha_min = calibrate_md(1.0, 4).alpha_min
        report = audit_synthesizer("md", 1.0, 4, alpha=[alpha_min, alpha_min])
        assert report.satisfied
        assert report.max_abs_log_ratio == pytest.approx(1.0, abs=1e-12)

    def test_underbudget_prior_fails(self):
        report = audit_synthesizer("md", 0.5, 2, alpha=[1.0, 1.0])
        assert not report.satisfied

    def test_tightness_formula(self):
        for alpha, total in [(1.0, 2), (0.5, 5), (7.0, 6)]:
            report = audit_synthesizer("md", 10.0, total, alpha=[alpha, alpha])
            assert report.max_abs_log_ratio == pytest.approx(
                math.log((total + alpha) / alpha), abs=1e-12)

    def test_deterministic(self):
        r1 = audit_synthesizer("md", 1.0, 5, alpha=[2.0, 3.0])
        r2 = audit_synthesizer("md", 1.0, 5, alpha=[2.0, 3.0])
        assert r1 == r2

    def test_cap(self):
        with pytest.raises(UsageError):
            audit_synthesizer("md", 1.0, 13, alpha=[1.0, 1.0])

    def test_unknown_mechanism(self):
        with pytest.raises(UsageError):
            audit_synthesizer("laplace", 1.0, 2, alpha=[1.0, 1.0])

    @pytest.mark.parametrize("mechanism, params", [
        ("md", dict(alpha=[1.0, 1.0])),
        ("pg2", dict(a=[2.0, 2.0], b=[2.0, 2.0], populations=[1.0, 1.0])),
    ])
    def test_infinite_budget_refused(self, mechanism, params):
        with pytest.raises(DomainError, match="finite"):
            audit_synthesizer(mechanism, math.inf, 2, **params)


class TestAuditPg:
    def test_uniform_structure_matches_md_report(self):
        alpha = 2.5
        md = audit_synthesizer("md", 1.0, 4, alpha=[alpha, alpha])
        pg = audit_synthesizer("pg2", 1.0, 4, a=[alpha, alpha],
                               b=[5.0, 5.0], populations=[2.0, 2.0])
        assert pg.max_abs_log_ratio == pytest.approx(md.max_abs_log_ratio, abs=1e-10)
        assert pg.witness == md.witness

    def test_calibrated_heterogeneous_instance(self):
        n = np.array([1.0, 4.0])
        lam0 = np.array([0.8, 0.25])
        for eps in (math.log(2), 1.0, 3.0):
            data = CountDataset.from_counts([5, 0], n)
            cal = calibrate_pg(eps, data, target_rates=lam0, rule=TargetRule.CUSTOM)
            report = audit_synthesizer("pg2", eps, 5, a=cal.a_min, b=cal.b_min,
                                       populations=n)
            assert report.satisfied

    def test_exact_route_agrees_with_float_route(self):
        a = np.array([3, 2])
        b = np.array([1.5, 4.0])
        n = np.array([1.0, 2.0])
        flt = audit_synthesizer("pg2", 5.0, 4, a=a.astype(float), b=b, populations=n)
        exact = audit_synthesizer("pg2", 5.0, 4, a=a, b=b, populations=n, exact=True)
        assert exact.max_abs_log_ratio == pytest.approx(flt.max_abs_log_ratio, abs=1e-9)
        assert exact.witness == flt.witness

    def test_exact_route_needs_integer_strengths(self):
        with pytest.raises(DomainError):
            audit_synthesizer("pg2", 1.0, 2, a=[0, 1], b=[1.0, 1.0],
                              populations=[1.0, 1.0], exact=True)

    def test_missing_params(self):
        with pytest.raises(UsageError):
            audit_synthesizer("pg2", 1.0, 2, a=[1.0, 1.0])


class TestAuditReport:
    def test_flag_consistency_enforced(self):
        witness = Witness(y=(1, 0), x=(0, 1), z=(1, 0))
        with pytest.raises(DomainError):
            AuditReport(epsilon_target=1.0, max_abs_log_ratio=2.0,
                        witness=witness, satisfied=True, instances_checked=1)


class TestEnumerationEngine:
    PG_ARGS = dict(b=np.array([1.5, 4.0]), populations=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("total", [1, 4, 12])
    def test_every_route_checks_every_ratio(self, total):
        # 2T ordered neighbor pairs, each with T + 1 allocations
        expected = 2 * total * (total + 1)
        md = audit_synthesizer("md", 1.0, total, alpha=[1.0, 2.5])
        flt = audit_synthesizer("pg2", 1.0, total, a=[3.0, 2.0], **self.PG_ARGS)
        exact = audit_synthesizer("pg2", 1.0, total, a=[3, 2], exact=True,
                                  **self.PG_ARGS)
        assert (md.instances_checked == flt.instances_checked
                == exact.instances_checked == expected)

    def test_md_routes_must_agree(self, monkeypatch):
        def off(z, y, x, alpha):
            return md_log_ratio(z, y, x, alpha) + 1e-6
        monkeypatch.setattr(audit_module, "md_log_ratio", off)
        with pytest.raises(ArithmeticError):
            audit_synthesizer("md", 1.0, 3, alpha=[1.0, 2.5])

    def test_pg2_routes_must_agree(self, monkeypatch):
        # shift each normalizer by an amount that depends on the dataset, so
        # it does not cancel in the normalizer ratio
        def off(y, a, log_r1, z_total):
            log_pmf, log_c = _normalized_pair_terms(y, a, log_r1, z_total)
            return log_pmf, log_c + 1e-6 * y[0]
        monkeypatch.setattr(audit_module, "_normalized_pair_terms", off)
        with pytest.raises(ArithmeticError):
            audit_synthesizer("pg2", 1.0, 3, a=[3.0, 2.0], **self.PG_ARGS)


class TestBoundSweep:
    def test_anchor_instance(self):
        inst = BoundInstance(y=(1, 3), a=(1, 1), r=Fraction(1), z_total=4)
        result = bound_accuracy_sweep([inst])
        (row,) = result.rows
        assert row.bound == pytest.approx(math.log(4.0))
        assert row.exact_abs_log_ratio == pytest.approx(math.log(4.0), abs=1e-12)
        assert row.slack >= -1e-12

    def test_skip_reasons(self):
        tie = BoundInstance(y=(1, 1), a=(2, 2), r=Fraction(1), z_total=2)
        small = BoundInstance(y=(0, 3), a=(1, 1), r=Fraction(1), z_total=3)
        result = bound_accuracy_sweep([tie, small])
        assert not result.rows
        reasons = {reason for _, reason in result.skipped}
        assert any("tie" in reason for reason in reasons)
        assert any("negative count" in reason or "a + y <= 1" in reason
                   for reason in reasons)

    def test_ratio_above_one_branch(self):
        inst = BoundInstance(y=(1, 3), a=(1, 1), r=Fraction(3, 2), z_total=4)
        result = bound_accuracy_sweep([inst])
        (row,) = result.rows
        # penalty term vanishes, bound reduces to the r-free expression
        assert row.bound == pytest.approx(math.log(4.0))
        assert row.slack >= -1e-12

    def test_small_grid_never_negative(self):
        grid = default_bound_grid(max_a=2, max_y_total=4)
        result = bound_accuracy_sweep(grid)
        assert result.rows
        assert min(row.slack for row in result.rows) >= -1e-12
        summary = result.slack_summary()
        assert summary["count"] == len(result.rows)
        assert summary["min"] <= summary["median"] <= summary["max"]


def _compositions(total, groups):
    if groups == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _compositions(total - head, groups - 1)]


def _exact_conditional_log_pmf(c, w, total):
    """ln p(z | sum z = total) for independent NegBin(c_i, w_i) counts,
    over every composition z: prod_i Gamma(c_i + z_i) / z_i! * w_i^z_i,
    normalized by the sum over compositions."""
    zs = _compositions(total, len(c))
    terms = [sum(math.lgamma(ci + zi) - math.lgamma(zi + 1) + zi * math.log(wi)
                 for ci, zi, wi in zip(c, z, w)) for z in zs]
    top = max(terms)
    log_norm = top + math.log(sum(math.exp(t - top) for t in terms))
    return {z: t - log_norm for z, t in zip(zs, terms)}


class TestBudgetAtThreeGroups:
    def test_enumeration_matches_pair_kernel(self):
        # the independent enumeration below reproduces the package's
        # two-group conditional pmf
        y, a, b, n, total = (2, 1), (2.5, 1.5), (3.0, 2.0), (1.0, 4.0), 3
        w = [ni / (2.0 * ni + bi) for ni, bi in zip(n, b)]
        pmf = _exact_conditional_log_pmf([ai + yi for ai, yi in zip(a, y)], w, total)
        expected = conditional_log_pmf_all(y, a, b, n, total)
        for z1 in range(total + 1):
            assert pmf[(z1, total - z1)] == pytest.approx(expected[z1], abs=1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the national-target calibration pools "
                              "the other groups' prior mass and does not bound a move "
                              "between two of three groups; worst ratio 1.1712 > 1")
    def test_national_witness_stays_within_budget(self):
        # populations (1, 1, 8), eps = 1, total 4, national targets: every
        # release z under every dataset y and each neighbor x that moves one
        # event between two groups
        n = [1.0, 1.0, 8.0]
        eps, total = 1.0, 4
        cal = calibrate_pg(eps, CountDataset.from_counts([0, 3, 1], n))
        a = [float(v) for v in cal.a_min]
        b = [ai / rate for ai, rate in zip(a, cal.target_rates)]
        # predictive NegBin success probability n / (2n + b) for each group
        w = [ni / (2.0 * ni + bi) for ni, bi in zip(n, b)]
        pmfs = {y: _exact_conditional_log_pmf([ai + yi for ai, yi in zip(a, y)], w, total)
                for y in _compositions(total, 3)}
        worst, witness = 0.0, None
        for y, pmf_y in pmfs.items():
            for i in range(3):
                for j in range(3):
                    if i == j or y[i] == 0:
                        continue
                    x = list(y)
                    x[i] -= 1
                    x[j] += 1
                    pmf_x = pmfs[tuple(x)]
                    for z, log_p in pmf_y.items():
                        ratio = abs(log_p - pmf_x[z])
                        if ratio > worst:
                            worst, witness = ratio, (y, tuple(x), z)
        assert worst <= eps + 1e-9, f"|log ratio| {worst:.4f} at (y, x, z) = {witness}"
