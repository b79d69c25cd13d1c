import dataclasses

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
from revshare.optimizer import (
    marginal_decomposition,
    max_rates,
    optimize_alpha,
    platform_profit,
    profit_curve,
)
from revshare.participation import participate, sweep

from conftest import random_profiles


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
        curve = profit_curve(params, self.GRID)
        for a, from_sweep, (a_curve, from_curve, n) in zip(
                self.GRID, swept.platform_profits, curve):
            assert a_curve == a
            assert from_sweep == from_curve == platform_profit(params, alpha=a)
        assert swept.entrant_counts == tuple(n for _, _, n in curve)
        assert len(set(swept.entrant_counts)) > 1

    def test_curve_and_profit_bit_identical_under_policy(self):
        params = self.ad_params()
        # the threshold sits inside the usage range, so it binds for some
        # entrants at some rates and not at others
        policy = CommissionPolicy.flat(0.0, ad_share=0.3, activity_threshold=0.4)
        curve = profit_curve(params, self.GRID, policy)
        swept = sweep(params.population, self.GRID, params.marginal_cost,
                      policy=policy)
        for a, from_sweep, (_, from_curve, _) in zip(
                self.GRID, swept.platform_profits, curve):
            assert from_sweep == from_curve == platform_profit(params, policy,
                                                                alpha=a)
        assert swept.entrant_counts == tuple(n for _, _, n in curve)
        assert curve != profit_curve(params, self.GRID)


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
        for _, pi, _ in profit_curve(params, grid):
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
        curve = profit_curve(params, [0.0, 0.005, 0.01], policy)
        assert len({pi for _, pi, _ in curve}) == 1  # a tie, not a slope
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
    def test_canonical_parabola(self):
        params = canonical_params(0.2)
        curve = profit_curve(params, [0.2, 0.6, 1.0])
        values = [pi for _, pi, _ in curve]
        assert values == pytest.approx([0.0, 0.16, 0.0], abs=1e-12)

    def test_pointwise_formula(self):
        params = canonical_params(0.3)
        grid = list(np.linspace(0, 1, 26))
        for a, pi, n in profit_curve(params, grid):
            assert pi == pytest.approx((1 - a) * (a - 0.3), abs=1e-12)
            assert n == 1

    def test_parabola_symmetry(self):
        params = canonical_params(0.2)
        curve = profit_curve(params, [0.5, 0.7])  # alpha* = 0.6 +/- 0.1
        assert curve[0][1] == pytest.approx(curve[1][1], abs=1e-12)

    def test_empty_population(self):
        params = PlatformParams(marginal_cost=0.2, population=[])
        assert all(pi == 0 and n == 0
                   for _, pi, n in profit_curve(params, [0.0, 0.5, 1.0]))


class TestMarginalDecomposition:
    def test_participation_term_zero_when_n_constant(self):
        params = canonical_params(0.2)
        for a in (0.3, 0.5, 0.7):
            part, _ = marginal_decomposition(params, a)
            assert part == pytest.approx(0.0, abs=1e-9)

    def test_intensive_term_vanishes_at_optimum(self):
        part, intensive = marginal_decomposition(canonical_params(0.2), 0.6)
        assert part + intensive == pytest.approx(0.0, abs=1e-3)

    def test_rising_profit_before_optimum(self):
        part, intensive = marginal_decomposition(canonical_params(0.2), 0.4)
        assert part + intensive == pytest.approx(0.4, abs=1e-3)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            marginal_decomposition(canonical_params(0.2), 0.0)
        with pytest.raises(DomainError):
            marginal_decomposition(canonical_params(0.2), 1.0, h=0.5)

    def test_smoothed_entry_derivative(self):
        # uniform pi0 on [0, 0.1]: smoothed N(alpha) = M * min(1, pi(alpha)/0.1)
        rng = np.random.default_rng(8)
        pop = [DeveloperProfile(
            id=f"d{i:03d}", tech=RevenueTechnology(family="linear"),
            cost=EffortCost(), reservation_profit=float(rng.uniform(0, 0.1)))
            for i in range(50)]
        params = PlatformParams(marginal_cost=0.1, population=pop)

        def cdf(x):
            return min(1.0, max(0.0, x / 0.1))

        part, intensive = marginal_decomposition(params, 0.8,
                                                 reservation_cdf=cdf)
        # pi(alpha) = (1-alpha)^2/2 = 0.02 < 0.1, so entry is interior and
        # the smoothed entry term must be strictly negative
        assert part < 0
