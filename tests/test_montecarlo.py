import dataclasses
import math

import numpy as np
import pytest

from revshare import montecarlo, participation
from revshare.model import DomainError
from revshare.montecarlo import (
    MAX_POOL_CELLS,
    MAX_POPULATION,
    Distribution,
    PopulationSpec,
    generate_population,
    risk_pooling_report,
    sweep_to_csv,
)
from revshare.participation import sweep

from conftest import canonical_profile  # noqa: F401


class TestDistribution:
    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            Distribution("uniform", 2.0, 1.0)
        with pytest.raises(DomainError):
            Distribution("beta", 1.0, 1.0)


class TestGeneratePopulation:
    def test_size_zero(self):
        assert generate_population(PopulationSpec(size=0, seed=1)) == []

    def test_deterministic(self):
        spec = PopulationSpec(size=10, seed=42)
        assert generate_population(spec) == generate_population(spec)

    def test_seed_changes_output(self):
        a = generate_population(PopulationSpec(size=10, seed=1))
        b = generate_population(PopulationSpec(size=10, seed=2))
        assert a != b

    def test_scale_mean_within_three_standard_errors(self):
        spec = PopulationSpec(size=1000, seed=7,
                              scale_dist=Distribution("uniform", 0.5, 1.5))
        pop = generate_population(spec)
        scales = np.array([p.tech.scale for p in pop])
        se = (1.0 / math.sqrt(12)) / math.sqrt(1000)
        assert abs(scales.mean() - 1.0) <= 3 * se

    def test_rejection_keeps_beta_valid(self):
        spec = PopulationSpec(
            size=200, seed=3,
            family_mix=(("power", 1.0),),
            elasticity_dist=Distribution("lognormal", -0.5, 0.6))
        pop = generate_population(spec)
        assert all(0 < p.tech.beta <= 1 for p in pop)

    def test_size_bound_checked_before_allocating(self, monkeypatch):
        # 1e8 developers would be about 130 GB; rejected before any draw
        def no_draws(*args):
            raise AssertionError("seed sequence spawned")

        monkeypatch.setattr(np.random, "SeedSequence", no_draws)
        with pytest.raises(DomainError, match="size must be in"):
            generate_population(PopulationSpec(size=100_000_000, seed=1))
        PopulationSpec(size=MAX_POPULATION, seed=1)  # the bound itself is allowed
        with pytest.raises(DomainError, match="size must be in"):
            PopulationSpec(size=MAX_POPULATION + 1, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            PopulationSpec(size=3, seed=-1)

    def test_family_mix_proportions_validated(self):
        with pytest.raises(DomainError):
            PopulationSpec(size=1, seed=0,
                           family_mix=(("linear", 0.5), ("power", 0.4)))


class TestSweep:
    def test_canonical_argmax(self, canonical_profile):
        grid = [i / 1000 for i in range(1001)]
        result = sweep([canonical_profile], grid, marginal_cost=0.2)
        assert abs(result.argmax_alpha - 0.6) <= 0.001

    def test_all_out_population(self):
        spec = PopulationSpec(size=5, seed=1,
                              reservation_dist=Distribution("uniform", 50, 60))
        pop = generate_population(spec)
        result = sweep(pop, [0.0, 0.5, 1.0], marginal_cost=0.1)
        assert all(pi == 0.0 for pi in result.platform_profits)
        assert all(n == 0 for n in result.entrant_counts)

    def test_order_independence(self):
        pop = generate_population(PopulationSpec(size=50, seed=5))
        grid = [i / 100 for i in range(101)]
        forward = sweep(pop, grid, 0.1)
        permuted = sweep(list(reversed(pop)), grid, 0.1)
        assert forward.platform_profits == permuted.platform_profits
        assert forward.total_developer_surplus == permuted.total_developer_surplus

    def test_argmax_converges_to_closed_form(self, canonical_profile):
        for step, tol in ((1e-2, 1e-2), (1e-3, 1e-3)):
            n = int(round(1 / step))
            grid = [i / n for i in range(n + 1)]
            result = sweep([canonical_profile], grid, 0.2)
            assert abs(result.argmax_alpha - 0.6) <= tol + 1e-12

    def test_unsorted_grid_rejected(self, canonical_profile):
        with pytest.raises(DomainError):
            sweep([canonical_profile], [0.5, 0.1], 0.2)

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -0.1])
    def test_bad_marginal_cost_rejected(self, canonical_profile, cost):
        with pytest.raises(DomainError, match="marginal_cost"):
            sweep([canonical_profile], [0.0, 0.5], cost)

    def test_reexported_from_participation(self):
        assert montecarlo.sweep is participation.sweep
        assert montecarlo.SweepResult is participation.SweepResult

    def test_csv_stable(self, canonical_profile):
        grid = [i / 10 for i in range(11)]
        r1 = sweep([canonical_profile], grid, 0.2)
        r2 = sweep([canonical_profile], grid, 0.2)
        assert sweep_to_csv(r1) == sweep_to_csv(r2)
        header = sweep_to_csv(r1).splitlines()[0]
        assert header == ("alpha,platform_profit,n_entrants,"
                          "mean_developer_profit,total_developer_surplus")


class TestRiskPooling:
    def test_certain_success_is_deterministic(self, canonical_profile):
        report = risk_pooling_report([canonical_profile], 0.6, 0.2,
                                     success_prob=1.0, draws=500, seed=1)
        assert report.std_profit == 0.0
        assert report.mean_profit == pytest.approx(
            report.deterministic_profit, abs=1e-12)
        assert report.deterministic_profit == pytest.approx(0.16, abs=1e-12)

    def test_certain_failure_is_pure_cost(self, canonical_profile):
        report = risk_pooling_report([canonical_profile], 0.6, 0.2,
                                     success_prob=0.0, draws=500, seed=1)
        assert report.mean_profit == pytest.approx(-0.2 * 0.4, abs=1e-12)

    def test_mean_near_expected_value(self):
        pop = generate_population(PopulationSpec(size=50, seed=9))
        report = risk_pooling_report(pop, 0.5, 0.1, success_prob=0.5,
                                     draws=20000, seed=4)
        expected = (0.5 * (report.deterministic_profit
                           + 0.1 * sum_usage(pop, 0.5))
                    - 0.1 * sum_usage(pop, 0.5))
        assert report.mean_profit == pytest.approx(expected, rel=0.05)

    def test_pooling_shrinks_relative_dispersion(self):
        small = generate_population(PopulationSpec(size=4, seed=11))
        large = generate_population(PopulationSpec(size=400, seed=11))
        r_small = risk_pooling_report(small, 0.5, 0.0, success_prob=0.5,
                                      draws=10000, seed=2)
        r_large = risk_pooling_report(large, 0.5, 0.0, success_prob=0.5,
                                      draws=10000, seed=2)
        assert r_large.coefficient_of_variation < r_small.coefficient_of_variation

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -0.1])
    def test_bad_marginal_cost_rejected(self, canonical_profile, cost):
        with pytest.raises(DomainError, match="marginal_cost"):
            risk_pooling_report([canonical_profile], 0.5, cost,
                                success_prob=0.5, draws=10, seed=1)

    def test_cell_bound_checked_before_allocating(self, canonical_profile):
        # 11 x 1e6 cells would be about 100 MB; rejected before any draw
        pop = [dataclasses.replace(canonical_profile, id=f"d{i}")
               for i in range(11)]
        assert len(pop) * 1_000_000 > MAX_POOL_CELLS
        with pytest.raises(DomainError, match="draws x population size"):
            risk_pooling_report(pop, 0.5, 0.1, success_prob=0.5,
                                draws=1_000_000, seed=1)

    def test_negative_seed_rejected(self, canonical_profile):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            risk_pooling_report([canonical_profile], 0.5, 0.1,
                                success_prob=0.5, draws=10, seed=-1)

    def test_no_entrants_has_no_coefficient_of_variation(self, canonical_profile):
        # at alpha = 1 nobody enters: the mean is 0 and std / |mean| is undefined
        report = risk_pooling_report([canonical_profile], 1.0, 0.1,
                                     success_prob=0.5, draws=10, seed=1)
        assert report.mean_profit == 0.0
        assert report.coefficient_of_variation is None

    def test_overflowing_serving_cost_rejected(self):
        # c x usage overflows the summed serving cost to inf
        pop = generate_population(PopulationSpec(size=5, seed=0))
        with pytest.raises(DomainError, match="not finite"):
            risk_pooling_report(pop, 0.6, 1.7976931348623157e308,
                                success_prob=0.5, draws=10, seed=0)

    def test_reproducible(self, canonical_profile):
        kwargs = dict(alpha=0.5, marginal_cost=0.1, success_prob=0.5,
                      draws=1000, seed=3)
        a = risk_pooling_report([canonical_profile], **kwargs)
        assert a == risk_pooling_report([canonical_profile], **kwargs)


def sum_usage(pop, alpha):
    from revshare.participation import participate
    res = participate(pop, alpha)
    return sum(res.responses[i].usage for i in res.entrants)
