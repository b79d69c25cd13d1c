import dataclasses
import math

import numpy as np
import pytest

from revshare.best_response import (
    NonConvergenceError,
    foc_residual,
    reduced,
    responder,
    solve_effort,
    solve_effort_policy,
    solve_price,
)
from revshare.model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    RevenueTechnology,
    effort_cost,
)
from revshare.numeric import central_diff
from revshare.participation import row_pow

from conftest import grid_best_effort, random_profiles


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
        # the responder restates reduced() and effort_cost() for speed;
        # both must give the same floats at the effort it chooses
        profiles = random_profiles(30, seed=5)
        profiles += [dataclasses.replace(p, tech=dataclasses.replace(
            p.tech, usage_per_revenue=0.7)) for p in profiles[:10]]
        profiles.append(DeveloperProfile(
            id="b1", tech=RevenueTechnology(family="power", beta=1.0,
                                            scale=1.3), cost=EffortCost(k=0.9)))
        for profile in profiles:
            respond = responder(profile)
            for alpha in (0.0, 0.1, 0.37, 0.5, 0.999, 1.0):
                e, gross, q, net = respond(alpha)
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
            respond = responder(DeveloperProfile(
                id="d", tech=RevenueTechnology(family, scale=1.9, beta=beta,
                                               usage_per_revenue=kappa),
                cost=cost))
            rows = respond(np.array(alphas), row_pow)
            cells = list(zip(*map(respond, alphas)))
            for row, column in zip(rows, cells):
                assert list(map(float.hex, row.tolist())) == \
                    list(map(float.hex, column))

    def test_linear_demand_has_no_closed_form(self):
        profile = DeveloperProfile(
            id="d", tech=RevenueTechnology(
                family="linear_demand", demand_base=1.0, demand_quality=0.5,
                demand_slope=1.0, usage_per_revenue=1.0),
            cost=EffortCost(k=1.0))
        assert responder(profile) is None


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
