import dataclasses
import math

import numpy as np
import pytest

from revshare.best_response import (
    NonConvergenceError,
    closed_form,
    foc_residual,
    reduced,
    solve_effort,
    solve_effort_policy,
    solve_price,
)
from revshare.comparator import compare_models
from revshare.model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    FreemiumModel,
    MarketplaceModel,
    PayPerTokenModel,
    PlatformParams,
    RevenueTechnology,
    RsiModel,
    SubscriptionModel,
    effort_cost,
)
from revshare.montecarlo import risk_pooling_report
from revshare.optimizer import optimize_alpha
from revshare.participation import participate, row_pow, sweep

from conftest import (central_diff, cost_grid, grid_best_effort, random_profiles,
                      revenue_grid)


class TestSolveEffort:
    def test_canonical_example(self, canonical_profile):
        br = solve_effort(canonical_profile, 0.6)
        assert br.effort == pytest.approx(0.4, abs=1e-12)
        assert br.gross_revenue == pytest.approx(0.4, abs=1e-12)
        assert br.usage == pytest.approx(0.4, abs=1e-12)
        assert br.method == "analytic"

    def test_full_commission_kills_effort(self, canonical_profile):
        br = solve_effort(canonical_profile, 1.0)
        assert br.effort == 0.0
        assert br.net_profit == 0.0

    def test_scaled_cost(self):
        # oracle: brute-force grid maximization, frozen value 0.375
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear", scale=1.0),
            cost=EffortCost(k=2.0))
        br = solve_effort(profile, 0.25)
        assert br.effort == pytest.approx(0.375, abs=1e-9)
        e_grid, _ = grid_best_effort(profile, 0.25, e_max=2.0)
        assert br.effort == pytest.approx(e_grid, abs=1e-5)

    def test_profit_identity(self, canonical_profile):
        for a in (0.0, 0.3, 0.6, 0.95):
            br = solve_effort(canonical_profile, a)
            expected = (1 - a) * br.gross_revenue - effort_cost(
                canonical_profile.cost, br.effort)
            assert br.net_profit == pytest.approx(expected, abs=1e-9)

    def test_alpha_out_of_range(self, canonical_profile):
        with pytest.raises(DomainError):
            solve_effort(canonical_profile, 1.2)
        with pytest.raises(DomainError):
            solve_effort(canonical_profile, -0.1)

    def test_linear_demand_numeric(self):
        # maximize (1-a) * (a0+b*e)^2/(4d) - k e^2/2; oracle by grid
        profile = DeveloperProfile(
            id="d",
            tech=RevenueTechnology(family="linear_demand", demand_base=2.0,
                                   demand_quality=1.0, demand_slope=2.0,
                                   usage_per_revenue=1.0),
            cost=EffortCost(k=1.0))
        br = solve_effort(profile, 0.4)
        assert br.method == "numeric"
        assert br.price is not None
        e_grid, pi_grid = grid_best_effort(profile, 0.4, e_max=5.0)
        assert br.effort == pytest.approx(e_grid, abs=1e-5)
        assert br.net_profit >= pi_grid - 1e-9

    def test_convex_demand_numeric(self):
        # a = 0 makes R = (b*e)^2/(4d) convex; the cubic cost still bends
        # 0.9*e^2/4 - e^3/3 back down, at e = 0.45
        profile = DeveloperProfile(
            id="d",
            tech=RevenueTechnology(family="linear_demand", demand_base=0.0,
                                   demand_quality=1.0, demand_slope=1.0,
                                   usage_per_revenue=1.0),
            cost=EffortCost(family="power_convex", k=1.0, exponent=3.0))
        br = solve_effort(profile, 0.1)
        assert br.method == "numeric"
        assert br.effort == pytest.approx(0.45, abs=1e-6)
        assert br.net_profit == pytest.approx(0.0151875, abs=1e-12)
        e_grid, pi_grid = grid_best_effort(profile, 0.1, e_max=2.0)
        assert br.effort == pytest.approx(e_grid, abs=1e-5)
        assert br.net_profit >= pi_grid - 1e-12

    @pytest.mark.parametrize("base", [0.0, 1e-9])
    def test_convex_demand_unbounded(self, base):
        # 0.9*(base + 2e)^2/4 - e^2/2 grows without bound
        profile = DeveloperProfile(
            id="d",
            tech=RevenueTechnology(family="linear_demand", demand_base=base,
                                   demand_quality=2.0, demand_slope=1.0,
                                   usage_per_revenue=1.0),
            cost=EffortCost(k=1.0))
        with pytest.raises(NonConvergenceError):
            solve_effort(profile, 0.1)

    def test_no_demand_zero_effort(self):
        profile = DeveloperProfile(
            id="d",
            tech=RevenueTechnology(family="linear_demand", demand_base=0.0,
                                   demand_quality=0.0, usage_per_revenue=1.0),
            cost=EffortCost(k=1.0))
        br = solve_effort(profile, 0.1)
        assert (br.effort, br.net_profit, br.method) == (0.0, 0.0, "numeric")

    def test_numeric_matches_analytic(self):
        for profile in random_profiles(25, seed=7):
            for alpha in (0.0, 0.25, 0.5, 0.8):
                analytic = solve_effort(profile, alpha)
                numeric = solve_effort(profile, alpha, force_numeric=True)
                assert numeric.effort == pytest.approx(analytic.effort,
                                                       abs=1e-6)

    def test_oracle_equivalence_random(self):
        for profile in random_profiles(10, seed=11):
            for alpha in (0.1, 0.5, 0.9):
                br = solve_effort(profile, alpha, force_numeric=True)
                e_grid, _ = grid_best_effort(profile, alpha,
                                             e_max=2 * max(br.effort, 1.0))
                assert br.effort == pytest.approx(e_grid, abs=1e-5)

    def test_interior_foc_residual_small(self):
        for profile in random_profiles(20, seed=3):
            for alpha in np.linspace(0.0, 0.9, 7):
                br = solve_effort(profile, float(alpha))
                if br.effort > 0:
                    assert abs(br.foc_residual) <= 1e-8


class TestResponder:
    def test_revenue_and_cost_match_the_model_bit_for_bit(self):
        # closed_form restates reduced() and effort_cost() for speed;
        # both must give the same floats at the effort it chooses
        profiles = random_profiles(30, seed=5)
        profiles += [dataclasses.replace(p, tech=dataclasses.replace(
            p.tech, usage_per_revenue=0.7)) for p in profiles[:10]]
        profiles.append(DeveloperProfile(
            id="b1", tech=RevenueTechnology(family="power", beta=1.0,
                                            scale=1.3), cost=EffortCost(k=0.9)))
        for profile in profiles:
            tech, cost = profile.tech, profile.cost
            for alpha in (0.0, 0.1, 0.37, 0.5, 0.999, 1.0):
                e, gross, q, net = closed_form(
                    alpha, tech.scale, tech.beta, tech.usage_per_revenue,
                    cost.k, cost.exponent)
                _, want_gross, want_q = reduced(profile.tech, e)
                want_net = (1.0 - alpha) * want_gross - effort_cost(
                    profile.cost, e)
                assert (gross, q, net) == (want_gross, want_q, want_net)
                assert math.copysign(1, net) == math.copysign(1, want_net)

    def test_row_pow_is_pythons_pow(self):
        # numpy's x ** 2 is x * x, 0.8079667078941465 here; libm rounds down
        x = 0.8988696834881831
        assert row_pow(np.array([x]), 2).tolist() == [x ** 2] == \
            [0.8079667078941464]

    @pytest.mark.parametrize("family,beta,cost", [
        ("linear", 1.0, EffortCost(k=1.3)),
        ("power", 0.37, EffortCost(k=0.8)),
        ("power", 0.6, EffortCost("power_convex", k=1.1, exponent=2.7)),
        ("linear", 1.0, EffortCost("power_convex", k=1.7, exponent=3.2))])
    def test_row_matches_scalar_bit_for_bit(self, family, beta, cost):
        alphas = [i / 1000 for i in range(1001)]
        for kappa in (None, 0.7):
            tech = RevenueTechnology(family, scale=1.9, beta=beta,
                                     usage_per_revenue=kappa)
            params = (tech.scale, tech.beta, kappa, cost.k, cost.exponent)
            rows = closed_form(np.array(alphas), *params, row_pow)
            cells = list(zip(*(closed_form(a, *params) for a in alphas)))
            for row, column in zip(rows, cells):
                assert list(map(float.hex, row.tolist())) == \
                    list(map(float.hex, column))

    def test_linear_demand_has_no_closed_form(self):
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(
                family="linear_demand", demand_base=1.0, demand_quality=0.5,
                demand_slope=1.0, usage_per_revenue=1.0),
            cost=EffortCost(k=1.0))
        assert solve_effort(profile, 0.3).method == "numeric"


def power_law_twin(profile):
    """The same developer with linear named as power (beta = 1) and quadratic
    as power_convex (m = 2)."""
    tech, cost = profile.tech, profile.cost
    if tech.family == "linear":
        tech = dataclasses.replace(tech, family="power")
    if cost.family == "quadratic":
        cost = dataclasses.replace(cost, family="power_convex")
    return dataclasses.replace(profile, tech=tech, cost=cost)


class TestOnePowerLaw:
    """linear is power with beta = 1 and quadratic is power_convex with
    m = 2, bit for bit in every solver path."""

    profiles = random_profiles(40, seed=23) + [
        dataclasses.replace(p, id=p.id + "-q", ad_revenue=0.3, tech=dataclasses.replace(
            p.tech, usage_per_revenue=0.7)) for p in random_profiles(10, seed=24)]
    twins = [power_law_twin(p) for p in profiles]

    def test_solve_effort(self):
        assert any(p != t for p, t in zip(self.profiles, self.twins))
        for profile, twin in zip(self.profiles, self.twins):
            for alpha in (0.0, 0.25, 0.6, 0.999):
                for numeric in (False, True):
                    assert repr(solve_effort(profile, alpha, numeric)) == \
                        repr(solve_effort(twin, alpha, numeric))

    def test_sweep_rows(self):
        grid = [i / 200 for i in range(201)]
        assert repr(sweep(self.profiles, grid, 0.1)) == \
            repr(sweep(self.twins, grid, 0.1))

    def test_compare_models_rows(self):
        models = [RsiModel(policy=CommissionPolicy.flat(0.3)),
                  PayPerTokenModel(token_price=0.1), SubscriptionModel(fee=0.05),
                  FreemiumModel(free_quota=0.5, overage_price=0.1),
                  MarketplaceModel(commission=0.15, token_price=0.1)]
        for profile, twin in zip(self.profiles, self.twins):
            assert repr(compare_models(profile, models, 0.05)) == \
                repr(compare_models(twin, models, 0.05))


class TestSolvePrice:
    def test_vertex(self):
        tech = RevenueTechnology(family="linear_demand", demand_base=10,
                                 demand_quality=0, demand_slope=1,
                                 usage_per_revenue=1.0)
        sol = solve_price(tech, 3.0)
        assert sol.price == pytest.approx(5.0, abs=1e-9)
        assert sol.revenue == pytest.approx(25.0, abs=1e-9)

    def test_grid_oracle(self):
        tech = RevenueTechnology(family="linear_demand", demand_base=10,
                                 demand_quality=2, demand_slope=1,
                                 usage_per_revenue=1.0)
        sol = solve_price(tech, 1.0)
        assert sol.price == pytest.approx(6.0, abs=1e-9)
        assert sol.revenue == pytest.approx(36.0, abs=1e-9)
        p = np.arange(1e-5, 15.0, 1e-5)
        rev = p * np.maximum(0.0, 12.0 - p)
        assert sol.revenue >= rev.max() - 1e-6
        assert sol.price == pytest.approx(p[np.argmax(rev)], abs=1e-4)

    def test_zero_demand(self):
        tech = RevenueTechnology(family="linear_demand", demand_base=0,
                                 demand_quality=0, demand_slope=1,
                                 usage_per_revenue=1.0)
        sol = solve_price(tech, 2.0)
        assert sol.price is None
        assert sol.revenue == 0.0

    def test_wrong_family(self):
        with pytest.raises(DomainError):
            solve_price(RevenueTechnology(family="linear"), 1.0)


def fd_residual(profile, alpha, effort):
    """(1-alpha)*R'(e) - phi'(e) by central differences of the model."""
    rprime = central_diff(lambda e: reduced(profile.tech, e)[1], effort)
    cprime = central_diff(lambda e: effort_cost(profile.cost, e), effort)
    return (1.0 - alpha) * rprime - cprime


class TestFocResidual:
    def test_zero_at_optimum(self, canonical_profile):
        assert foc_residual(canonical_profile, 0.6, 0.4) == pytest.approx(
            0.0, abs=1e-12)

    def test_away_from_optimum(self, canonical_profile):
        # (1-0.5)*1 - 0.3, confirmed by finite differences
        assert foc_residual(canonical_profile, 0.5, 0.3) == pytest.approx(0.2)
        assert fd_residual(canonical_profile, 0.5, 0.3) == pytest.approx(
            0.2, abs=1e-5)

    def test_unbounded_marginal_at_zero(self):
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="power", beta=0.5),
            cost=EffortCost())
        assert math.isinf(foc_residual(profile, 0.0, 0.0))

    def test_analytic_fd_agreement(self):
        for profile in random_profiles(20, seed=5):
            for alpha in (0.2, 0.6):
                e = max(solve_effort(profile, alpha).effort, 0.05)
                a = foc_residual(profile, alpha, e * 1.5)
                fd = fd_residual(profile, alpha, e * 1.5)
                assert fd == pytest.approx(a, rel=1e-5, abs=1e-7)


class TestComparativeStatics:
    def test_effort_decreasing_in_alpha(self):
        alphas = np.linspace(0.0, 1.0, 10)
        for profile in random_profiles(100, seed=42):
            efforts = [solve_effort(profile, float(a)).effort for a in alphas]
            for e1, e2 in zip(efforts, efforts[1:]):
                assert e2 <= e1 + 1e-12
            # strict while interior
            for e1, e2 in zip(efforts, efforts[1:]):
                if e1 > 0 and e2 > 0:
                    assert e2 < e1

    def test_profit_nonincreasing_convex_in_alpha(self):
        alphas = np.linspace(0.0, 1.0, 21)
        for profile in random_profiles(30, seed=9):
            pis = [solve_effort(profile, float(a)).net_profit for a in alphas]
            for p1, p2 in zip(pis, pis[1:]):
                assert p2 <= p1 + 1e-12
            for i in range(1, len(pis) - 1):
                mid = pis[i]
                chord = 0.5 * (pis[i - 1] + pis[i + 1])
                assert mid <= chord + 1e-9  # envelope: pi(alpha) convex


class TestDegressivePolicy:
    def test_reduces_to_flat(self, canonical_profile):
        flat = solve_effort(canonical_profile, 0.3)
        deg = solve_effort_policy(canonical_profile,
                                  CommissionPolicy.degressive([(0.0, 0.3)]))
        assert deg.effort == pytest.approx(flat.effort, abs=1e-9)
        assert deg.net_profit == pytest.approx(flat.net_profit, abs=1e-9)

    def test_segment_solution_beats_grid(self):
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear", scale=2.0),
            cost=EffortCost(k=1.0))
        policy = CommissionPolicy.degressive([(0.0, 0.5), (1.0, 0.1)])
        br = solve_effort_policy(profile, policy)
        e = np.arange(0.0, 6.0, 1e-5)
        r = 2.0 * e
        commission = np.where(r <= 1.0, 0.5 * r, 0.5 + 0.1 * (r - 1.0))
        profit = r - commission - 0.5 * e ** 2
        assert br.net_profit >= profit.max() - 1e-6
        assert br.effort == pytest.approx(e[np.argmax(profit)], abs=1e-4)

    def test_linear_demand_beats_grid(self):
        # each band's numeric best response and each band edge, where
        # (a + b*e)^2 / (4d) reaches the threshold, are the candidates;
        # b = 0 has no edge. b^2 < 2dk bends the quadratic-cost profit down
        rng = np.random.default_rng(7)
        kinks = 0
        for i in range(12):
            a, d, k = (float(x) for x in rng.uniform(0.5, 2.0, size=3))
            b = 0.0 if i == 0 else float(rng.uniform(0.1, 0.9) * math.sqrt(2 * d * k))
            cost = (EffortCost(k=k) if i % 2 else EffortCost(
                "power_convex", k=k, exponent=float(rng.uniform(2.5, 4.0))))
            profile = DeveloperProfile(
                id=f"d{i}", cost=cost, tech=RevenueTechnology(
                    "linear_demand", demand_base=a, demand_quality=b,
                    demand_slope=d, usage_per_revenue=1.0))
            threshold = float(rng.uniform(0.2, 1.0))
            first, second = (float(x) for x in rng.uniform(0.0, 0.9, size=2))
            policy = CommissionPolicy.degressive([(0.0, first), (threshold, second)])
            br = solve_effort_policy(profile, policy)
            e_max = 1.0  # past it revenue is below the effort cost
            while revenue_grid(profile.tech, e_max) >= cost_grid(cost, e_max):
                e_max *= 2
            e = np.linspace(0.0, e_max, 600_001)
            r = revenue_grid(profile.tech, e)
            commission = first * np.minimum(r, threshold) + second * np.maximum(
                r - threshold, 0.0)
            profit = r - commission - cost_grid(cost, e)
            assert br.method == "numeric", i
            assert br.net_profit >= profit.max() - 1e-9, i
            kinks += br.gross_revenue == pytest.approx(threshold, abs=1e-12)
        assert kinks  # some optimum is a band edge, where the rate rises


def overflowing(family="linear", scale=1e200, k=1e-200, beta=1.0):
    """A profile DeveloperProfile accepts whose best response overflows a
    float: effort (1 - alpha) * A / k is about 1e400 for linear revenue."""
    return DeveloperProfile(
        id="huge", tech=RevenueTechnology(family, scale=scale, beta=beta),
        cost=EffortCost(k=k))


class TestOverflowingBestResponse:
    """A best response whose net profit is not a finite float is a
    DomainError naming the developer and the rate, on every path to it."""

    def test_solve_effort_linear(self):
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.5"):
            solve_effort(overflowing(), 0.5)

    def test_solve_effort_power(self):
        profile = overflowing("power", scale=1e300, k=1e-300, beta=0.5)
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.5"):
            solve_effort(profile, 0.5)

    def test_participate(self):
        # before, NaN >= 0 was False: silently no entrant
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.5"):
            participate([overflowing()], 0.5)

    def test_risk_pooling_report(self):
        # before, a mean of 0.0 from a pool with no entrant
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.5"):
            risk_pooling_report([overflowing()], 0.5, 0.0, 0.5)

    def test_compare_models(self):
        # before, NonConvergenceError: a bounded problem called unbounded
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.25"):
            compare_models(overflowing(), [RsiModel(), PayPerTokenModel(0.1)], 0.0)

    def test_solve_effort_policy(self):
        # before, effort 1e-200 with net profit 0.7
        policy = CommissionPolicy.degressive([(0, 0.3), (1, 0.1)])
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.3"):
            solve_effort_policy(overflowing(), policy)

    def test_sweep(self):
        # before, NumPy's overflow warning, then no entrant at any rate
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.0"):
            sweep([overflowing()], [0.0, 0.5], 0.0)

    def test_optimize_alpha(self):
        # before, the same warning from each grid's sweep
        with pytest.raises(DomainError, match="developer 'huge' at alpha 0.0"):
            optimize_alpha(PlatformParams(0.0, [overflowing()]))


def cubed_overflowing():
    """A profile that validates whose effort, about 7e149, overflows a float
    when cubed: Python's ``**`` raises OverflowError there."""
    return DeveloperProfile(
        id="huge", tech=RevenueTechnology("linear", scale=1e150),
        cost=EffortCost("power_convex", k=1e-150, exponent=3.0))


class TestCubedEffortOverflow:
    """Before, each path raised a bare OverflowError from ``**``."""

    @pytest.mark.parametrize("alpha,path", [
        (0.5, lambda p: solve_effort(p, 0.5)),
        (0.5, lambda p: participate([p], 0.5)),
        (0.0, lambda p: sweep([p], [0.0, 0.5], 0.0)),
        (0.0, lambda p: optimize_alpha(PlatformParams(0.0, [p]))),
        (0.25, lambda p: compare_models(p, [RsiModel()], 0.0)),
        (0.5, lambda p: risk_pooling_report([p], 0.5, 0.0, 0.5)),
    ], ids=["solve_effort", "participate", "sweep", "optimize_alpha",
            "compare_models", "risk_pooling_report"])
    def test_domain_error(self, alpha, path):
        with pytest.raises(DomainError, match=f"developer 'huge' at alpha {alpha}:"):
            path(cubed_overflowing())
