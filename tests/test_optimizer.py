import dataclasses
from decimal import Decimal

import numpy as np
import pytest

from revshare.model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    PlatformParams,
    RevenueTechnology,
)
from revshare.montecarlo import PopulationSpec, generate_population
from revshare.optimizer import max_rates, optimize_alpha, platform_profit
from revshare.participation import participate, sweep

from conftest import exact_linear_alpha, random_profiles


def canonical_params(c):
    dev = DeveloperProfile(
        id="dev-00000", tech=RevenueTechnology(family="linear", scale=1.0),
        cost=EffortCost(k=1.0))
    return PlatformParams(marginal_cost=c, population=[dev])


from conftest import oracle_alpha_grid


class TestPlatformProfit:
    def test_worked_example_value(self):
        # Pi = (1 - alpha)(alpha - c)
        params = canonical_params(0.2)
        assert platform_profit(params, alpha=0.6) == pytest.approx(0.16,
                                                                   abs=1e-12)

    def test_zero_at_full_commission(self):
        assert platform_profit(canonical_params(0.2), alpha=1.0) == 0.0

    def test_zero_at_alpha_equals_cost(self):
        c = 0.35
        assert platform_profit(canonical_params(c), alpha=c) == pytest.approx(
            0.0, abs=1e-12)

    def test_activity_threshold_suppresses_commission(self):
        dev = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear"), cost=EffortCost())
        params = PlatformParams(marginal_cost=0.1, population=[dev])
        policy = CommissionPolicy.flat(0.5, activity_threshold=10.0)
        # usage e* = 0.5 < 10: cost incurred, no commission
        assert platform_profit(params, policy) == pytest.approx(-0.05)

    def test_usage_at_the_threshold_is_charged(self):
        # usage e* = 1 - alpha is exactly the threshold at alpha = 0.5, so the
        # commission is charged: 0.5 * 0.5 - 0.2 * 0.5. Above 0.5 it is waived
        params = canonical_params(0.2)
        policy = CommissionPolicy.flat(0.5, activity_threshold=0.5)
        assert participate(params.population, 0.5, policy,
                           0.2).platform_profit == pytest.approx(0.15)
        assert sweep(params.population, [0.5], 0.2,
                     policy).platform_profits == pytest.approx((0.15,))
        assert optimize_alpha(params, policy).alpha_star == 0.5

    def test_ad_share_contributes(self):
        dev = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear"), cost=EffortCost(),
            ad_revenue=1.0)
        params = PlatformParams(marginal_cost=0.0, population=[dev])
        with_ads = platform_profit(params, CommissionPolicy.flat(0.5, ad_share=0.2))
        without = platform_profit(params, CommissionPolicy.flat(0.5))
        assert with_ads - without == pytest.approx(0.2)


class TestEntryPointsAgree:
    @staticmethod
    def ad_params():
        rng = np.random.default_rng(12)
        pop = [dataclasses.replace(p, ad_revenue=float(rng.uniform(0.0, 0.5)))
               for p in random_profiles(30, seed=12, reservation_hi=0.3)]
        return PlatformParams(marginal_cost=0.15, population=pop)

    GRID = [i / 100 for i in range(101)]

    def test_sweep_curve_and_profit_bit_identical(self):
        params = self.ad_params()
        swept = sweep(params.population, self.GRID, params.marginal_cost)
        assert swept.alphas == tuple(self.GRID)
        for a, from_sweep, n in zip(self.GRID, swept.platform_profits,
                                    swept.entrant_counts):
            assert from_sweep == platform_profit(params, alpha=a)
            assert n == participate(params.population, a).count
        assert len(set(swept.entrant_counts)) > 1

    def test_curve_and_profit_bit_identical_under_policy(self):
        params = self.ad_params()
        # the threshold sits inside the usage range, so it binds for some
        # entrants at some rates and not at others
        policy = CommissionPolicy.flat(0.0, ad_share=0.3, activity_threshold=0.4)
        swept = sweep(params.population, self.GRID, params.marginal_cost,
                      policy=policy)
        for a, from_sweep, n in zip(self.GRID, swept.platform_profits,
                                    swept.entrant_counts):
            assert from_sweep == platform_profit(params, policy, alpha=a)
            assert n == participate(params.population, a, policy).count
        assert swept.platform_profits != sweep(
            params.population, self.GRID, params.marginal_cost).platform_profits


class TestOptimizeAlpha:
    @pytest.mark.parametrize("c,expected", [(0.2, 0.6), (0.4, 0.7), (0.0, 0.5)])
    def test_closed_form(self, c, expected):
        report = optimize_alpha(canonical_params(c))
        assert report.alpha_star == pytest.approx(expected, abs=1e-6)
        assert report.analytic_alpha == pytest.approx(expected, abs=1e-12)
        assert abs(report.alpha_star - report.analytic_alpha) <= 1e-6

    def test_closed_form_across_costs(self):
        for c in np.arange(0.0, 0.95, 0.1):
            report = optimize_alpha(canonical_params(float(c)))
            assert report.alpha_star == pytest.approx((1 + c) / 2, abs=1e-6)

    def test_alpha_star_nondecreasing_in_cost(self):
        stars = [optimize_alpha(canonical_params(float(c))).alpha_star
                 for c in np.linspace(0.0, 0.9, 10)]
        for a1, a2 in zip(stars, stars[1:]):
            assert a2 >= a1 - 1e-9

    def test_profit_dominates_samples(self):
        params = canonical_params(0.2)
        report = optimize_alpha(params)
        grid = [i / 1000 for i in range(1001)]  # the search's own coarse grid
        for pi in sweep(params.population, grid, 0.2).platform_profits:
            assert report.platform_profit >= pi - 1e-9

    def test_degenerate_market_flagged(self):
        dev = DeveloperProfile(
            id="d", tech=RevenueTechnology(family="linear", scale=0.5),
            cost=EffortCost())
        params = PlatformParams(marginal_cost=3.0, population=[dev])
        report = optimize_alpha(params)
        assert report.degenerate

    def test_heterogeneous_matches_grid_oracle(self):
        pop = random_profiles(50, seed=4, families=("linear", "power"),
                              cost_families=("quadratic",))
        params = PlatformParams(marginal_cost=0.1, population=pop)
        report = optimize_alpha(params)
        a_star, pi_star = oracle_alpha_grid(pop, 0.1)
        assert report.alpha_star == pytest.approx(a_star, abs=1e-4)
        assert report.platform_profit >= pi_star - 1e-6


def reference_optimize_alpha(params, policy=None, grid_step=1e-3,
                             refine_tol=1e-8):
    """The outer search as plain loops over platform_profit: an ascending
    coarse grid whose first maximum wins, then 17-point shrinking rounds
    that replace the incumbent only on a higher profit or an equal profit
    at a smaller rate."""
    n = int(round(1.0 / grid_step))
    best_a, best_pi = 0.0, -np.inf
    for i in range(n + 1):
        a = i / n
        pi = platform_profit(params, policy, alpha=a)
        if pi > best_pi:
            best_a, best_pi = a, pi
    lo, hi = max(0.0, best_a - grid_step), min(1.0, best_a + grid_step)
    alpha_star, pi_star = best_a, best_pi
    iterations = 0
    while hi - lo > refine_tol:
        iterations += 1
        step = (hi - lo) / 16
        for j in range(17):
            a = lo + j * step
            pi = platform_profit(params, policy, alpha=a)
            if pi > pi_star or (pi == pi_star and a < alpha_star):
                alpha_star, pi_star = a, pi
        lo, hi = max(lo, alpha_star - step), min(hi, alpha_star + step)
    n_entrants = participate(params.population, alpha_star, policy,
                             params.marginal_cost).count
    return (alpha_star, pi_star, n_entrants,
            {"grid_size": n + 1, "refine_iterations": iterations})


def ad_band_params():
    """Commission always waived (threshold above any usage), no serving
    cost: profit is ad_share times the entrants' ad revenue, flat at its
    maximum from alpha = 0 up to the first exit."""
    rng = np.random.default_rng(3)
    pop = [dataclasses.replace(p, ad_revenue=float(rng.uniform(0.1, 0.5)))
           for p in random_profiles(15, seed=3, reservation_hi=0.4)]
    policy = CommissionPolicy.flat(0.0, ad_share=0.5, activity_threshold=1e9)
    return PlatformParams(marginal_cost=0.0, population=pop), policy


class TestOptimizeAlphaMatchesReferenceLoops:
    @staticmethod
    def assert_same(params, policy=None, grid_step=1e-2):
        report = optimize_alpha(params, policy, grid_step=grid_step)
        got = (report.alpha_star, report.platform_profit, report.n_entrants,
               report.diagnostics)
        assert got == reference_optimize_alpha(params, policy, grid_step)
        return report

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_population(self, seed):
        pop = random_profiles(20, seed=seed, reservation_hi=0.3)
        self.assert_same(PlatformParams(marginal_cost=0.1, population=pop))

    def test_canonical_default_grid(self):
        self.assert_same(canonical_params(0.2), grid_step=1e-3)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_seeded_population_under_policy(self, seed):
        rng = np.random.default_rng(seed)
        pop = [dataclasses.replace(p, ad_revenue=float(rng.uniform(0.0, 0.5)))
               for p in random_profiles(20, seed=seed, reservation_hi=0.3)]
        params = PlatformParams(marginal_cost=0.15, population=pop)
        policy = CommissionPolicy.flat(0.0, ad_share=0.3, activity_threshold=0.4)
        report = self.assert_same(params, policy)
        assert report.alpha_star != optimize_alpha(params, grid_step=1e-2).alpha_star

    def test_empty_population_ties_at_zero(self):
        report = self.assert_same(PlatformParams(marginal_cost=0.1,
                                                 population=[]))
        assert report.alpha_star == 0.0 and report.platform_profit == 0.0

    def test_flat_profit_band_ties_at_zero(self):
        params, policy = ad_band_params()
        curve = sweep(params.population, [0.0, 0.005, 0.01], 0.0, policy)
        assert len(set(curve.platform_profits)) == 1  # a tie, not a slope
        report = self.assert_same(params, policy)
        assert report.alpha_star == 0.0 and report.diagnostics["refine_iterations"] > 0


class TestMaxRates:
    @pytest.mark.parametrize("step,rates", [(1e-3, 1103), (1.0, 155)])
    def test_coarse_rates_plus_seventeen_a_round(self, step, rates):
        assert max_rates(step) == rates

    @pytest.mark.parametrize("step", [1.0, 0.3, 0.01, 1e-3])
    def test_bounds_the_rates_evaluated(self, step):
        diag = optimize_alpha(canonical_params(0.2), grid_step=step).diagnostics
        assert max_rates(step) >= (diag["grid_size"]
                                   + 17 * diag["refine_iterations"])


class TestProfitCurve:
    """The canonical developer's profit curve, (1 - alpha)(alpha - c), as
    ``sweep`` reports it."""

    def test_canonical_parabola(self, canonical_profile):
        swept = sweep([canonical_profile], [0.2, 0.6, 1.0], 0.2)
        assert swept.platform_profits == pytest.approx([0.0, 0.16, 0.0],
                                                       abs=1e-12)

    def test_pointwise_formula(self, canonical_profile):
        grid = list(np.linspace(0, 1, 26))
        swept = sweep([canonical_profile], grid, 0.3)
        for a, pi, n in zip(grid, swept.platform_profits, swept.entrant_counts):
            assert pi == pytest.approx((1 - a) * (a - 0.3), abs=1e-12)
            assert n == 1

    def test_parabola_symmetry(self, canonical_profile):
        # alpha* = 0.6 +/- 0.1
        lo, hi = sweep([canonical_profile], [0.5, 0.7], 0.2).platform_profits
        assert lo == pytest.approx(hi, abs=1e-12)

    def test_empty_population(self):
        swept = sweep([], [0.0, 0.5, 1.0], 0.2)
        assert swept.platform_profits == (0.0, 0.0, 0.0)
        assert swept.entrant_counts == (0, 0, 0)


class TestExactLinearOracle:
    """``optimize_alpha`` against the 60-digit optimum of the linear game, by
    relative platform profit: the float entry test and the exact exit differ
    by a few ulps, so the rates need not agree bit for bit."""

    @staticmethod
    def relative_gap(population, c):
        _, exact = exact_linear_alpha(population, c)
        found = optimize_alpha(PlatformParams(c, population)).platform_profit
        return abs(exact - Decimal(found)) / exact

    def test_oracle_closed_form(self, canonical_profile):
        # one developer, A = k = 1, no outside option: alpha* = (1 + c) / 2
        alpha, profit = exact_linear_alpha([canonical_profile], 0.2)
        assert float(alpha) == 0.6 and float(profit) == pytest.approx(0.16, abs=1e-15)

    @pytest.mark.parametrize("seed", [
        1, 2,
        pytest.param(3, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 2: the grid gives alpha* = 0.508239 where the "
            "optimum is 0.505922, a relative profit gap of 1.52e-4"))),
        4, 5, 6, 7, 8, 9, 10])
    def test_generated_population(self, seed):
        population = generate_population(PopulationSpec(200, seed))
        assert self.relative_gap(population, 0.1) <= 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_linear_profiles(self, seed):
        population = random_profiles(50, seed, families=("linear",),
                                     cost_families=("quadratic",),
                                     reservation_hi=0.3)
        assert self.relative_gap(population, 0.1) <= 1e-8


@pytest.mark.parametrize("grid_step", [0.0, 1e-7, 2.0])
def test_grid_step_out_of_range(grid_step):
    with pytest.raises(DomainError) as err:
        optimize_alpha(canonical_params(0.1), grid_step=grid_step)
    assert str(err.value) == "grid_step must be in [1e-06, 1]"
