import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revshare import montecarlo, participation
from revshare.model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    PlatformParams,
    Population,
    RevenueTechnology,
)
from revshare.montecarlo import (
    MAX_POOL_CELLS,
    MAX_POPULATION,
    Distribution,
    PopulationSpec,
    generate_population,
    risk_pooling_report,
    sweep_to_csv,
)
from revshare.optimizer import optimize_alpha
from revshare.participation import sweep

from conftest import canonical_profile  # noqa: F401


class TestDistribution:
    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            Distribution("uniform", 2.0, 1.0)
        with pytest.raises(DomainError):
            Distribution("beta", 1.0, 1.0)

    @pytest.mark.parametrize("kind,a,b,match", [
        ("uniform", math.nan, 1.0, "finite"),
        ("uniform", 0.5, math.inf, "finite"),
        ("uniform", -math.inf, 0.5, "finite"),
        ("uniform", -1e308, 1e308, "finite hi - lo"),
        ("lognormal", 0.0, math.nan, "finite"),
        ("lognormal", math.inf, 0.5, "finite"),
    ])
    def test_non_finite_parameters_rejected(self, kind, a, b, match):
        # each used to reach NumPy: an OverflowError traceback for the
        # uniforms, 1,000 rejected draws for the lognormals
        with pytest.raises(DomainError, match=match):
            Distribution(kind, a, b)


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
        # 1e8 developers would be about 48 GB; rejected before any draw
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
        # a negative or NaN proportion used to generate only linear developers
        for mix in ((("linear", 1.5), ("power", -0.5)), (("linear", math.nan),),
                    (("linear", math.inf), ("power", -math.inf))):
            with pytest.raises(DomainError, match="finite and >= 0"):
                PopulationSpec(size=1, seed=0, family_mix=mix)


FMAX = int(sys.float_info.max)  # the CLI's bound on --seed
SEEDS = (0, 2**32, 2**128, FMAX)


def reference_population(spec):
    """The per-child reference: one ``default_rng`` per spawned substream."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.size)
    profiles = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        u = rng.uniform()
        family, acc = spec.family_mix[-1][0], 0.0
        for fam, p in spec.family_mix:
            acc += p
            if u < acc:
                family = fam
                break
        scale, _ = montecarlo._draw_positive(spec.scale_dist, rng)
        k, _ = montecarlo._draw_positive(spec.cost_dist, rng)
        beta = 1.0
        if family == "power":
            beta, _ = montecarlo._draw_positive(spec.elasticity_dist, rng,
                                                lo=0.0, hi=1.0)
        profiles.append(DeveloperProfile(
            id=f"dev-{i:05d}",
            tech=RevenueTechnology(family=family, scale=scale, beta=beta),
            cost=EffortCost(family="quadratic", k=k),
            reservation_profit=max(0.0, spec.reservation_dist.sample(rng))))
    return profiles


def exact(population):
    """Each developer's repr, which shows every float to the last bit."""
    return [repr(dev) for dev in population]


class TestSubstreams:
    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "2**32", "2**128", "FMAX"])
    def test_kernel_is_numpys_stream(self, seed):
        # fails if NumPy changes SeedSequence or PCG64, instead of the goldens
        # moving silently
        expected = [np.random.default_rng(child).random(montecarlo._ROW)
                    for child in np.random.SeedSequence(seed).spawn(40)]
        got = montecarlo._substream_doubles(seed, 40)
        assert got.shape == (40, montecarlo._ROW)
        np.testing.assert_array_equal(got, np.array(expected))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**70)),
           size=st.integers(0, 40), prefix=st.integers(0, 40),
           power=st.sampled_from([0.0, 0.3, 1.0]),
           scale=st.sampled_from([Distribution("uniform", 0.5, 1.5),
                                  Distribution("lognormal", 0.0, 0.5),
                                  Distribution("uniform", -1.0, 1.0)]),
           elasticity=st.sampled_from([Distribution("uniform", 0.3, 0.9),
                                       Distribution("lognormal", -0.5, 0.6)]))
    # uniform(-1, 1) rejects about half its draws, so many rows are drawn
    # again from their substream's own generator
    @example(seed=FMAX, size=40, prefix=17, power=1.0,
             scale=Distribution("uniform", -1.0, 1.0),
             elasticity=Distribution("uniform", 0.3, 0.9))
    def test_generate_population_matches_reference(self, seed, size, prefix,
                                                   power, scale, elasticity):
        mix = (("linear", 1.0 - power), ("power", power))
        spec = PopulationSpec(size=size, seed=seed, scale_dist=scale,
                              elasticity_dist=elasticity, family_mix=mix)
        pop = exact(generate_population(spec))
        assert pop == exact(reference_population(spec))
        m = min(prefix, size)
        assert pop[:m] == exact(generate_population(dataclasses.replace(spec, size=m)))


class TestPopulationColumns:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**70)),
           size=st.integers(0, 40),
           power=st.sampled_from([0.0, 0.3, 1.0]),
           scale=st.sampled_from([Distribution("uniform", 0.5, 1.5),
                                  Distribution("uniform", -1.0, 1.0),
                                  Distribution("lognormal", 0.0, 0.5)]),
           elasticity=st.sampled_from([Distribution("uniform", 0.3, 0.9),
                                       Distribution("uniform", -0.5, 1.5),
                                       Distribution("lognormal", -0.5, 0.6)]),
           reservation=st.sampled_from([Distribution("uniform", 0.0, 0.1),
                                        Distribution("uniform", -0.1, 0.1),
                                        Distribution("lognormal", -3.0, 1.0)]))
    def test_columns_and_indexed_profiles_are_the_reference(
            self, seed, size, power, scale, elasticity, reservation):
        spec = PopulationSpec(size=size, seed=seed, scale_dist=scale,
                              elasticity_dist=elasticity,
                              reservation_dist=reservation,
                              family_mix=(("linear", 1.0 - power), ("power", power)))
        pop = generate_population(spec)
        want = reference_population(spec)
        assert isinstance(pop, Population) and len(pop) == size
        keys, families, *floats = pop.columns
        assert list(keys) == list(range(size))
        assert families == [p.tech.family for p in want]
        assert all(c.dtype == np.float64 for c in floats)
        got = [c.tolist() for c in floats]
        assert list(map(repr, got)) == list(map(repr, (
            [p.tech.scale for p in want], [p.tech.beta for p in want],
            [p.cost.k for p in want], [p.reservation_profit for p in want])))
        assert exact(pop[i] for i in range(size)) == exact(want)
        assert exact(pop[-i - 1] for i in range(size)) == exact(want[::-1])

    def test_reads_as_a_list_of_profiles(self):
        assert generate_population(PopulationSpec(size=0, seed=3)) == []
        pop = generate_population(PopulationSpec(size=30, seed=3))
        profiles = reference_population(PopulationSpec(size=30, seed=3))
        assert pop == profiles and profiles == pop and pop == list(pop)
        assert pop != profiles[:-1] and pop != tuple(profiles)
        for index in (slice(4, 9), slice(None, None, 3), slice(20, 2, -2),
                      slice(50, 60)):
            part = pop[index]
            assert isinstance(part, Population)
            assert part == profiles[index] and len(part) == len(profiles[index])
        assert list(reversed(pop)) == profiles[::-1]
        assert pop[7] in pop and pop.index(pop[7]) == 7
        with pytest.raises(IndexError):
            pop[30]

    def test_sweep_of_a_descending_slice_is_in_id_order(self):
        # developer-id order, not the slice's order, fixes the summation order
        pop = generate_population(PopulationSpec(size=40, seed=8))
        grid = [i / 50 for i in range(51)]
        want = sweep(list(pop[::-3])[::-1], grid, 0.1)
        assert repr(sweep(pop[::-3], grid, 0.1)) == repr(want)

    def test_platform_params_keeps_the_columns(self):
        pop = generate_population(PopulationSpec(size=20, seed=4))
        assert PlatformParams(0.1, pop).population is pop
        assert PlatformParams(0.1, list(pop)).population == tuple(pop)
        assert optimize_alpha(PlatformParams(0.1, pop)) == \
            optimize_alpha(PlatformParams(0.1, list(pop)))


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

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6])
    def test_ad_revenue_matches_per_entrant_reference(self, alpha):
        # the reference takes each entrant's own ad revenue, which the
        # pool's flat policies, with no ad share, charge at 0.0
        pop = [dataclasses.replace(p, ad_revenue=0.5 * (i + 1) if i else 1e308)
               for i, p in enumerate(generate_population(
                   PopulationSpec(size=30, seed=5)))]
        kwargs = dict(marginal_cost=0.1, success_prob=0.4, draws=200, seed=6)
        got = risk_pooling_report(pop, alpha, **kwargs)
        assert repr(got) == repr(reference_pool(pop, alpha, **kwargs))


def reference_pool(pop, alpha, marginal_cost, success_prob, draws, seed):
    """``risk_pooling_report`` with every entrant's ``entrant_profit`` taken
    at its own ad revenue."""
    res = participation.participate(pop, alpha)
    ads = {p.id: p.ad_revenue for p in pop}
    cells = [(ads[i], br.gross_revenue, br.usage) for i, br in res.responses.items()]
    policy, free = CommissionPolicy.flat(alpha), CommissionPolicy.flat(0.0)
    earnings = np.array([participation.entrant_profit(*cell, policy, 0.0)
                         for cell in cells])
    total_cost = -float(np.array([participation.entrant_profit(
        *cell, free, marginal_cost) for cell in cells]).sum())
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    samples = (rng.random((draws, len(earnings))) < success_prob) @ earnings \
        - total_cost
    mean, std = float(samples.mean()), float(samples.std(ddof=0))
    return montecarlo.RiskPoolingReport(
        mean_profit=mean, std_profit=std,
        p5_profit=float(np.percentile(samples, 5)),
        coefficient_of_variation=std / abs(mean) if mean != 0 else None,
        deterministic_profit=float(earnings.sum()) - total_cost,
        draws=draws, population_size=len(pop))


def sum_usage(pop, alpha):
    from revshare.participation import participate
    res = participate(pop, alpha)
    return sum(res.responses[i].usage for i in res.entrants)


@pytest.mark.parametrize("make,message", [
    (lambda: Distribution("lognormal", 0.0, -1.0), "lognormal sigma must be >= 0"),
    (lambda: PopulationSpec(size=1, seed=0, family_mix=(("linear_demand", 1.0),)),
     "unsupported generated family 'linear_demand'"),
    (lambda: generate_population(PopulationSpec(
        size=1, seed=0, scale_dist=Distribution("uniform", -2.0, -1.0))),
     "distribution Distribution(kind='uniform', a=-2.0, b=-1.0) cannot produce "
     "a draw in (0.0, inf] after 1000 tries"),
    (lambda: risk_pooling_report([], 0.5, 0.0, 1.5), "success_prob out of [0,1]"),
    (lambda: risk_pooling_report([], 0.5, 0.0, 0.5, draws=0),
     "draws must be >= 1"),
], ids=["lognormal-sigma", "generated-family", "rejection-sampling",
        "success-prob", "draws"])
def test_rejection_message(make, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        make()
